"""The CLI's commands run in-process: `lexitree.cli.main` with stdout and
stderr redirected to buffers, so the benchmark times exactly the code a user
runs with `python -m lexitree`.

A traced attempt runs inside `traced(tracer)`, which swaps the library
functions that `lexitree.cli` imports, and `lexitree.rules.default_registry`,
for wrappers that record a span around each call. Everything is restored on
exit, so an untraced attempt runs the unmodified module.
"""

from __future__ import annotations

import io
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

import lexitree.cli as cli
from lexitree import DEFAULT_PROFILE, rules
from lexitree.model import iter_nodes

from spans import CountingRegistry, Tracer

TABLE_COLUMNS = "orth,pos,def"


class Result(NamedTuple):
    stdout: bytes
    stderr: str
    rc: int


def command_argv(raw: str, expanded: str, dotted: str) -> dict:
    """Command name -> lexitree arguments. `traversals` and `table` read the
    expanded document, as the CLI asks (`run: lexitree expand` first)."""
    return {
        "validate": ["validate", raw],
        "effective": ["effective", raw, "--path", dotted],
        "traversals": ["traversals", expanded, "--full"],
        "expand": ["expand", raw],
        "materialize": ["materialize", raw],
        "table": ["table", expanded, "--cols", TABLE_COLUMNS],
    }


def run_cli(argv: list) -> Result:
    """`lexitree <argv>` in this process."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, err
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
        stdout.flush()
    data = out.getvalue()
    stdout.detach()
    return Result(data, err.getvalue(), rc)


def effective_lines(eff) -> str:
    """An effective set as `lexitree effective` prints it."""
    return "".join(f"{str(prop.feature)} : {cli.format_value(prop.value)}\n" for prop in eff.entries)


def _nodes(tree) -> int:
    return sum(1 for _ in iter_nodes(tree))


# name in lexitree.cli -> (layer, counts(args, result) measured at the boundary)
_WRAPPED = {
    "parse_entry": ("xmlio", lambda args, out: {
        "bytes_in": len(args[0]), "nodes": _nodes(out[0]),
        "props": sum(len(n.properties) for _, n in iter_nodes(out[0]))}),
    "serialize_entry": ("xmlio", lambda args, out: {"bytes_out": len(out)}),
    "check_consistency": ("model", lambda args, out: {"violations": len(out)}),
    "effective_set": ("model", lambda args, out: {"entries_out": len(out.entries)}),
    "enumerate_traversals": ("model", None),
    "partial_traversals": ("model", None),
    "expand_alternatives": ("transform", lambda args, out: {
        "nodes_in": _nodes(args[0]), "nodes_out": _nodes(out)}),
    "materialize_inheritance": ("transform", lambda args, out: {
        "props_out": sum(len(n.properties) for _, n in iter_nodes(out))}),
    "extract_table": ("transform", lambda args, out: {"rows": len(out)}),
    "render_table": ("transform", None),
}


def _wrap(tracer: Tracer, name: str, layer: str, fn, counts):
    span = f"{layer}.{name}"

    def wrapper(*args):
        return tracer.span(span, fn, *args, counts=counts)

    return wrapper


def _counting_registry(tracer: Tracer, default_registry):
    """default_registry inside a span; the registry it returns counts its
    `classify` calls on the tracer (the copy is made in a `trace` span)."""

    def wrapper():
        registry = tracer.span("rules.default_registry", default_registry)
        return tracer.span("trace.registry", CountingRegistry, registry, tracer)

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Within the block, lexitree.cli and point_queries call the library
    through spans."""
    originals = {name: getattr(cli, name) for name in _WRAPPED}
    default_registry = rules.default_registry
    for name, (layer, counts) in _WRAPPED.items():
        setattr(cli, name, _wrap(tracer, name, layer, originals[name], counts))
    rules.default_registry = _counting_registry(tracer, default_registry)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
        rules.default_registry = default_registry


def point_queries(path: str, node_paths) -> tuple:
    """Parse the file once, load the registry once, then answer each query
    with the functions `lexitree effective` uses. Returns the seconds of
    each query and the effective sets."""
    with open(path, "rb") as f:
        tree, _ = cli.parse_entry(f.read(), DEFAULT_PROFILE)
    registry = rules.default_registry()
    times, sets = [], []
    for node_path in node_paths:
        start = time.perf_counter()
        sets.append(cli.effective_set(tree, node_path, registry))
        times.append(time.perf_counter() - start)
    return times, sets
