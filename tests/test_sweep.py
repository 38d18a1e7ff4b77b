"""Every accepted document through every command.

Two sources of documents: seeded `treegen` trees with alternatives, written
as XML with their feature names mapped onto base elements of the default
profile (so that `expand` and `materialize` can write them) and run with
their own rules; and seeded `parsegen` tag soup that the parser accepts, run
with the default rules. For each document:

(a) every command exits 0, 1 or 2 without raising, and leaves stdout empty
    when it exits non-zero;
(b) a tree that `serialize_entry` accepts re-parses equal to itself, with no
    diagnostic; every atomic value of either parse carries the comparison key
    `normalize_text` gives its text;
(d) `traversals` and `table` of the `expand` output equal those of the
    `materialize` output: materialization is sound as the CLI runs it.

Relation (c), `validate` agreeing with `validate` of the `expand` output,
does not hold while `validate` ignores alternatives, and (b) covers at most
one alternative group per node, as `treegen` builds them.
"""

import contextlib
import io
import random
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

import parsegen
from treegen import XML_PROFILE, random_registry, random_tree, rules_text

from lexitree.cli import main
from lexitree.model import (
    Composite, DependencyRule, FeatureClassRegistry, LexitreeError, _tree_properties, normalize_text,
)
from lexitree.xmlio import ParseError, parse_entry, serialize_entry

# treegen's feature names -> base elements of the default profile
BASE_NAMES = {"fa": "orth", "fb": "pos", "fc": "gen", "fd": "def", "fe": "domain", "ff": "ex"}


@st.composite
def treegen_documents(draw):
    """(document, rules text): a tree with alternatives and its registry, renamed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    registry = random_registry(rng)
    tree = random_tree(rng, registry, max_depth=4, allow_alts=True, for_xml=True)
    # values and attributes escape "<", so only tags match
    document = re.sub(rb"<(/?)(f[a-f])\b", lambda m: b"<" + m[1] + BASE_NAMES[m[2].decode()].encode(),
                      serialize_entry(tree, XML_PROFILE))
    renamed = FeatureClassRegistry(
        {BASE_NAMES[f]: cls for f, cls in registry.classes.items()},
        [DependencyRule(BASE_NAMES[r.dependent], BASE_NAMES[r.governor], r.required_value) for r in registry.rules],
    )
    return document, rules_text(renamed)


@st.composite
def soup_documents(draw):
    """(document, None): tag soup, redrawn from the seed until the parser accepts it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        document = parsegen.tag_soup(rng.choice, rng.randint)
        try:
            parse_entry(document)
        except ParseError:
            continue
        return document, None


def cli(*argv):
    """`lexitree ARGV` in this process: the exit code and the bytes written to stdout."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    out.flush()
    return code, out.buffer.getvalue()


def run_every_command(doc: Path, with_rules: list, listings: list) -> dict:
    """argv -> (exit code, stdout) of each command on `doc`, checking relation (a)."""
    outputs = {}
    for argv in [["validate"], ["effective"], ["effective", "--path", "0"], ["expand"], ["materialize"], *listings]:
        code, out = cli(argv[0], doc, *argv[1:], *([] if argv[0] == "expand" else with_rules))
        assert code in (0, 1, 2)
        assert code == 0 or out == b"", argv
        outputs[tuple(argv)] = code, out
    return outputs


def check_canonical_text(tree):
    """Every atomic value, a `brack`'s contents included, holds its text in normalized form."""
    for prop in _tree_properties(tree):
        for each in prop.value.properties if isinstance(prop.value, Composite) else (prop,):
            assert each.value.text == normalize_text(each.value.text), each


def check_relations(document: bytes, rules: str | None):
    tree, _ = parse_entry(document)
    check_canonical_text(tree)
    try:
        written = serialize_entry(tree)
    except LexitreeError:
        pass
    else:
        again = parse_entry(written)
        assert again == (tree, [])  # (b)
        check_canonical_text(again[0])
    columns = ",".join(sorted({str(p.feature) for p in _tree_properties(tree)})) or "orth"
    listings = [["traversals", "--full"], ["traversals", "--partial"], ["table", "--cols", columns],
                ["table", "--cols", columns, "--format", "html"]]
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp) / f"{name}.xml" for name in ("entry", "expand", "materialize")}
        files["entry"].write_bytes(document)
        with_rules = []
        if rules is not None:
            (Path(tmp) / "entry.rules").write_text(rules, encoding="utf-8")
            with_rules = ["--rules", Path(tmp) / "entry.rules"]
        outputs = run_every_command(files["entry"], with_rules, listings)
        if outputs[("expand",)][0]:
            return
        files["expand"].write_bytes(outputs[("expand",)][1])
        # the expanded document is an accepted document too, and the reference for (d)
        expanded = run_every_command(files["expand"], with_rules, listings)
        if outputs[("materialize",)][0]:
            return
        files["materialize"].write_bytes(outputs[("materialize",)][1])
        for argv in listings:  # (d)
            assert cli(argv[0], files["materialize"], *argv[1:], *with_rules) == expanded[tuple(argv)], argv


@given(treegen_documents())
@settings(max_examples=80, deadline=None)
def test_treegen_documents_keep_every_relation(document_and_rules):
    check_relations(*document_and_rules)


@given(soup_documents())
@settings(max_examples=120, deadline=None)
def test_accepted_tag_soup_keeps_every_relation(document_and_rules):
    check_relations(*document_and_rules)
