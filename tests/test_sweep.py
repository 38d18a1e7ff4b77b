"""Every accepted document through every command.

Two sources of documents: seeded `treegen` trees with alternatives, written
as XML with their feature names mapped onto base elements of the default
profile (so that they read back with no warning) and run with their own
rules; and seeded `parsegen` tag soup that the parser accepts, run with the
default rules. For each document:

(a) every command exits 0, 1 or 2 without raising, and leaves stdout empty
    when it exits non-zero;
(b) the tree re-serializes, and re-parses equal to itself, with one "kept as
    a feature" warning for each written property whose feature the profile
    lacks and no other diagnostic; every atomic value of either parse holds
    its text in the form `normalize_text` gives it;
(d) `traversals` and `table` of the `expand` output equal those of the
    `materialize` output: materialization is sound as the CLI runs it;
(e) the writer refuses neither the expanded tree nor its materialization
    under the document's rules (a tree too large to expand, or one whose
    materialization meets an overwrite conflict, is skipped). The writer
    checks each element as it writes it, so this is what keeps stdout empty
    when `expand` or `materialize` fails.

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
from treegen import random_registry, random_tree, rules_text

from lexitree.cli import main
from lexitree.model import (
    Composite, DependencyRule, FeatureClassRegistry, OverwriteConflict, _tree_properties, normalize_text)
from lexitree.rules import default_registry, parse_rules
from lexitree.transform import ExpansionTooLarge, expand_alternatives, materialize_inheritance
from lexitree.xmlio import DEFAULT_PROFILE, ParseError, parse_entry, serialize_entry

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
                      serialize_entry(tree))
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


def atomic_properties(tree):
    """Each property with an atomic value, a `brack`'s contents included, in document order."""
    for prop in _tree_properties(tree):
        yield from prop.value.properties if isinstance(prop.value, Composite) else (prop,)


def check_canonical_text(tree):
    for each in atomic_properties(tree):
        assert each.value.text == normalize_text(each.value.text), each


def check_writes(tree, rules: str | None):
    """Relation (e), in this process."""
    try:
        expanded = expand_alternatives(tree)
    except ExpansionTooLarge:
        return
    serialize_entry(expanded)
    try:
        materialized = materialize_inheritance(expanded, default_registry() if rules is None else parse_rules(rules))
    except OverwriteConflict:
        return
    serialize_entry(materialized)


def check_relations(document: bytes, rules: str | None):
    tree, _ = parse_entry(document)
    check_canonical_text(tree)
    check_writes(tree, rules)
    again, diagnostics = parse_entry(serialize_entry(tree))  # (b)
    assert again == tree
    assert [(d.severity, d.message) for d in diagnostics] == [
        ("warning", f"unknown element <{each.feature}> kept as a feature")
        for each in atomic_properties(tree) if each.feature not in DEFAULT_PROFILE.base_elements]
    check_canonical_text(again)
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
