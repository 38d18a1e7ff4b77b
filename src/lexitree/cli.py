"""Command-line front end.

    lexitree validate    FILE [--rules RULES]
    lexitree effective   FILE [--rules RULES] [--path A.B.C]
    lexitree traversals  FILE [--rules RULES] [--full | --partial]
    lexitree expand      FILE
    lexitree materialize FILE [--rules RULES]
    lexitree table       FILE --cols F1,F2,... [--format tsv|html] [--rules RULES]

Exit codes: 0 success, 1 semantic violation, bad argument or unwritable stdout
(silent if it is closed), 2 input parse failure. stdout carries only payload;
diagnostics, a warning per unregistered feature included, go to stderr. Paths
are dotted 0-based child indices; the empty string is the root. The rules file
defaults to the shipped one; LEXITREE_RULES overrides it and --rules both.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import os
import sys
from pathlib import Path
from typing import Callable, Iterable

from . import rules as rules_mod
from .model import (
    FeatureClassRegistry,
    LexitreeError,
    Node,
    NodePath,
    Property,
    UnexpandedAlternatives,
    _effective_lists,
    check_consistency,
    effective_set,
    enumerate_traversals,  # this, partial_traversals, render_table, serialize_entry: uncalled; bench/commands.py wraps them
    format_path,
    format_value,
    partial_traversals,
    unregistered_features,
)
from .transform import TableSpec, _table_lines, expand_alternatives, extract_table, materialize_inheritance, render_table
from .xmlio import DEFAULT_PROFILE, parse_entry, serialize_chunks, serialize_entry

OK = 0
SEMANTIC = 1
PARSE_FAILURE = 2


class _UsageError(LexitreeError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # bad arguments are exit 1, not argparse's 2
        raise _UsageError(message)


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="lexitree", description="Inspect and transform dictionary entry trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, run, with_rules: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("file", help="entry document (XML)")
        if with_rules:
            p.add_argument("--rules", help="feature class rules file")
        return p

    command("validate", "check node constraints and dependency rules", _cmd_validate)
    p = command("effective", "print the feature set holding at a node", _cmd_effective)
    p.add_argument("--path", default="", help="dotted 0-based child indices; empty for the root")
    p = command("traversals", "list traversals with their effective sets", _cmd_traversals)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--full", action="store_true", help="root-to-leaf paths (default)")
    which.add_argument("--partial", action="store_true", help="one path per node")
    command("expand", "rewrite alternatives as explicit siblings", _cmd_expand, with_rules=False)
    command("materialize", "spell out inherited features at every node", _cmd_materialize)
    p = command("table", "extract one row per full traversal", _cmd_table)
    p.add_argument("--cols", required=True, help="comma-separated feature names")
    p.add_argument("--format", default="tsv", choices=("tsv", "html"))
    return parser


def parse_path(text: str) -> NodePath:
    if not text:
        return ()
    parts = text.split(".")
    if not all(part.isascii() and part.isdigit() for part in parts):  # int() also takes "+1", " 1", "1_0"
        raise ValueError(f"bad path {text!r}: expected dotted indices like 0.1.2")
    return tuple(map(int, parts))


def _load_registry(rules_arg: str | None) -> FeatureClassRegistry:
    path = rules_arg or os.environ.get("LEXITREE_RULES")
    if not path:
        return rules_mod.default_registry()
    try:
        return rules_mod.load_rules(path)
    except OSError as exc:  # an unreadable rules file is a bad argument
        raise _UsageError(str(exc)) from exc


class _InputError(LexitreeError):
    exit_code = PARSE_FAILURE


def _read_tree(path: str, registry: FeatureClassRegistry | None) -> Node:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    tree, diagnostics = parse_entry(data, DEFAULT_PROFILE)
    for diagnostic in diagnostics:
        print(f"{path}: {diagnostic.describe()}", file=sys.stderr)
    if registry is not None:
        for feature in unregistered_features(tree, registry):
            print(f"{path}: warning: feature {str(feature)!r} is not registered; "
                  f"treating it as {registry.default_class.value}", file=sys.stderr)
    return tree


def _listing(props: Iterable[Property], lines: dict[int, str]) -> str:
    """Each property's line is built once per `lines`, keyed by id(): the tree keeps every one alive."""
    return "".join([lines.get(id(p)) or lines.setdefault(id(p), f"{p.feature} : {format_value(p.value)}\n")
                    for p in props])


def _write_chunks(pieces: Callable[[], Iterable[str]]) -> None:
    """Write the pieces that `pieces()` yields to stdout, whose buffer batches them. Unless stdout
    encodes to UTF-8, `pieces()` runs twice: first to encode each piece as stdout would, so text
    it cannot carry raises before the first write."""
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding and codecs.lookup(encoding).name != "utf-8":
        for piece in pieces():
            piece.encode(encoding, sys.stdout.errors)
    sys.stdout.writelines(pieces())


def _cmd_validate(args, registry: FeatureClassRegistry) -> int:
    violations = check_consistency(_read_tree(args.file, registry), registry)
    if not violations:
        print("OK")
        return OK
    for violation in violations:
        print(violation.describe(), file=sys.stderr)
    return SEMANTIC


def _cmd_effective(args, registry: FeatureClassRegistry) -> int:
    tree = _read_tree(args.file, registry)
    sys.stdout.write(_listing(effective_set(tree, parse_path(args.path), registry).entries, {}))
    return OK


def _cmd_traversals(args, registry: FeatureClassRegistry) -> int:
    # the walk ends before the first write, so a refused tree leaves stdout empty
    listed = [(format_path(path) if path else "", props) for path, _, props
              in _effective_lists(_read_tree(args.file, registry), registry, leaves_only=not args.partial)]
    lines: dict[int, str] = {}  # each property's line is formatted once, even if the blocks are built twice
    ends = ["\n"] * (len(listed) - 1) + [""]  # a blank line ends every block but the last
    _write_chunks(lambda: (f"{path}\n{_listing(props, lines)}{end}" for (path, props), end in zip(listed, ends)))
    return OK


def _cmd_expand(args, registry: None) -> int:
    # the parser makes only features and text that read back as themselves, and expanding (or materializing)
    # only rearranges its properties, so the writer refuses none of them and no refusal follows a write
    sys.stdout.buffer.writelines(serialize_chunks(expand_alternatives(_read_tree(args.file, None))))
    return OK


def _cmd_materialize(args, registry: FeatureClassRegistry) -> int:
    materialized = materialize_inheritance(expand_alternatives(_read_tree(args.file, registry)), registry)
    sys.stdout.buffer.writelines(serialize_chunks(materialized))
    return OK


def _cmd_table(args, registry: FeatureClassRegistry) -> int:
    columns = [c.strip() for c in args.cols.split(",") if c.strip()]
    if not columns:
        raise _UsageError("--cols must name at least one feature")
    spec = TableSpec(columns, format=args.format)
    rows = extract_table(_read_tree(args.file, registry), spec, registry)
    _write_chunks(lambda: _table_lines(spec, rows))
    return OK


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # started with stdout closed: as a reader gone before the first byte
        return SEMANTIC
    try:
        args = _build_parser().parse_args(argv)
        code = args.run(args, _load_registry(args.rules) if "rules" in args else None)
        sys.stdout.flush()  # so a closed or full stdout raises here, not at interpreter exit
        return code
    except OSError as exc:  # stdout took no more, such as a reader that stopped early; what is left goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"lexitree: {exc}", file=sys.stderr)
        return SEMANTIC
    except LexitreeError as exc:
        hint = " (run: lexitree expand)" if isinstance(exc, UnexpandedAlternatives) else ""
        print(f"lexitree: {exc}{hint}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"lexitree: {exc}", file=sys.stderr)
        return SEMANTIC
