"""Acceptance suite: the published-entry reproductions and the randomized
sweeps, each with its runtime bound. Run `pytest tests/test_acceptance.py -s`
to see one line per criterion.
"""

import functools
import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from conftest import FIXTURES, entries_as_tuples, fixture_bytes
from oracle import oracle_effective_set
from treegen import XML_PROFILE, all_paths, random_registry, random_tree

from lexitree.cli import main
from lexitree.model import (
    DependencyViolation,
    OverwriteConflict,
    check_consistency,
    effective_set,
    enumerate_traversals,
    partial_traversals,
)
from lexitree.rules import load_rules
from lexitree.transform import expand_alternatives, materialize_inheritance
from lexitree.xmlio import parse_entry, serialize_entry


def criterion(number, limit_seconds, description):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL: {description}")
                raise
            elapsed = time.perf_counter() - started
            assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s"
            print(f"criterion {number}: PASS ({elapsed:.2f}s < {limit_seconds:g}s): {description}")

        return wrapper

    return decorate


def run_cli(*argv):
    stdout_bytes = io.BytesIO()
    stdout = io.TextIOWrapper(stdout_bytes, encoding="utf-8")
    stderr = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    stdout.flush()
    return code, stdout_bytes.getvalue(), stderr.getvalue()


def load_fixture(name):
    tree, diagnostics = parse_entry(fixture_bytes(name))
    assert diagnostics == []
    return tree


GENDARME_LEVELS = {
    (): [
        ("orth", "gendarme", (), 0),
        ("pron", "...", (), 0),
    ],
    (0,): [
        ("orth", "gendarme", (), 0),
        ("pron", "...", (), 0),
        ("pos", "noun", (), 1),
        ("gen", "mas", (), 1),
        ("etym", "XV°; gendarmes; de gens, et arme", (), 1),
    ],
    (0, 0): [
        ("orth", "gendarme", (), 0),
        ("pron", "...", (), 0),
        ("pos", "noun", (), 1),
        ("gen", "mas", (), 1),
        ("etym", "1790", (), 2),
        ("time", "modern", (), 2),
        ("def", "Militaire appartenant à un corps ...", (), 2),
        ("xr", "Gendarmerie", (("type", "see"),), 2),
        ("xr", "Marechaussée", (("type", "see"),), 2),
        ("brack", "[ex : Brigade de gendarmes, xr : brigadier]", (), 2),
        ("ex", "Etre arrêté par les gendarmes.", (), 2),
        ("ex", "Jouer au gendarme et au voleur.", (), 2),
    ],
    (0, 0, 0): [
        ("pron", "...", (), 0),
        ("pos", "noun", (), 1),
        ("gen", "mas", (), 1),
        ("etym", "1790", (), 2),
        ("time", "modern", (), 2),
        ("def", "Militaire appartenant à un corps ...", (), 2),
        ("orth", "le gendarme", (), 3),
        ("def", "symbole de la force publique, de l'ordre.", (), 3),
        ("ex", "La peur du gendarme", (), 3),
    ],
}

OVERDRESS_TRAVERSALS = [
    [
        ("orth", "overdress", (), 0),
        ("pos", "verb", (), 1),
        ("pron", "pron1", (), 1),
        ("def", "To dress (oneself or another) too elaborately or finely", (), 1),
    ],
    [
        ("orth", "overdress", (), 0),
        ("pos", "noun", (), 1),
        ("pron", "pron2", (), 1),
        ("def", "A dress that may be worn over a jumper, blouse, etc.", (), 1),
    ],
]


@criterion(1, 1.0, "gendarme trace reproduced at all four levels")
def test_gendarme_trace_reproduction(registry):
    tree = load_fixture("gendarme.xml")
    assert partial_traversals(tree) == [(), (0,), (0, 0), (0, 0, 0)]
    for path, expected in GENDARME_LEVELS.items():
        actual = entries_as_tuples(effective_set(tree, path, registry))
        assert actual == expected, f"level {path}"
    leaf = dict(((f, v), d) for f, v, _, d in GENDARME_LEVELS[(0, 0, 0)])
    assert ("etym", "1790") in leaf and ("orth", "le gendarme") in leaf
    assert not any(f in ("xr", "brack") for f, _, _, _ in GENDARME_LEVELS[(0, 0, 0)])


@criterion(2, 1.0, "overdress yields exactly the two published traversals")
def test_overdress_traversals(registry):
    tree = load_fixture("overdress.xml")
    paths = enumerate_traversals(tree)
    assert paths == [(0,), (1,)]
    listings = [entries_as_tuples(effective_set(tree, p, registry)) for p in paths]
    assert listings == OVERDRESS_TRAVERSALS


@criterion(3, 1.0, "materialize reproduces the spelled-out overdress document")
def test_materialized_overdress_reproduction():
    overdress = FIXTURES / "overdress.xml"
    code, out, err = run_cli("materialize", overdress, "--rules", FIXTURES / "orth_over.rules")
    assert code == 0 and err == "".join(  # the rules classify orth alone
        f"{overdress}: warning: feature '{f}' is not registered; treating it as loc\n" for f in ("pos", "pron", "def")
    )
    produced, _ = parse_entry(out)
    expected = load_fixture("overdress_materialized.xml")
    assert produced == expected
    for child in produced.children:
        assert str(child.properties[0].feature) == "orth"
        assert child.properties[0].value.text == "overdress"


@criterion(4, 1.0, "table extraction reproduces the published word/pos/meaning rows")
def test_word_pos_meaning_table():
    code, out, err = run_cli(
        "table", FIXTURES / "overdress.xml", "--cols", "orth,pos,def", "--format", "tsv"
    )
    assert code == 0 and err == ""
    assert out.decode() == (
        "orth\tpos\tdef\n"
        "overdress\tverb\tTo dress (oneself or another) too elaborately or finely\n"
        "overdress\tnoun\tA dress that may be worn over a jumper, blouse, etc.\n"
    )


@criterion(5, 1.0, "pinna alternatives expand into two sibling partitions")
def test_pinna_expansion():
    tree = load_fixture("pinna.xml")
    expanded = expand_alternatives(tree)
    assert [
        [(str(p.feature), p.value.text) for p in child.properties]
        for child in expanded.children
    ] == [
        [("plural", "pinnae"), ("pron", "pron2")],
        [("plural", "pinnas")],
    ]
    stack = [expanded]
    while stack:
        node = stack.pop()
        assert node.alt_groups == ()
        stack.extend(node.children)


@criterion(6, 30.0, "engine matches the naive replay on 1000 random trees, every path")
def test_oracle_equivalence_sweep():
    rng = random.Random(20331)
    trees = 0
    paths_checked = 0
    while trees < 1000:
        registry = random_registry(rng)
        tree = random_tree(rng, registry)
        trees += 1
        for path in all_paths(tree):
            eff = effective_set(tree, path, registry)
            assert list(eff.items()) == oracle_effective_set(tree, path, registry)
            paths_checked += 1
    assert trees >= 1000 and paths_checked >= trees


@criterion(7, 30.0, "1000 random trees round-trip exactly; serialization is byte-idempotent")
def test_round_trip_sweep():
    rng = random.Random(47111)
    for _ in range(1000):
        registry = random_registry(rng, with_rules=False)
        tree = random_tree(rng, registry, allow_alts=True, for_xml=True)
        document = serialize_entry(tree)
        again, diagnostics = parse_entry(document, XML_PROFILE)
        assert diagnostics == []
        assert again == tree
        assert serialize_entry(again) == document


@criterion(8, 1.0, "overwriting the governor blocks the inherited dependent")
def test_dependency_blocking():
    registry = load_rules(FIXTURES / "dep_n.rules")
    tree = load_fixture("blocking.xml")
    child = entries_as_tuples(effective_set(tree, (0,), registry))
    assert child == [("pos", "v", (), 1)]
    assert check_consistency(tree, registry) == []

    attached = load_fixture("blocking_local_attach.xml")
    violations = check_consistency(attached, registry)
    assert len(violations) == 1
    violation = violations[0]
    assert isinstance(violation, DependencyViolation)
    assert violation.path == (0,)
    assert (str(violation.dependent), violation.actual_value) == ("gen", "v")


@criterion(9, 30.0, "transform laws hold across the randomized corpus")
def test_transform_laws():
    rng = random.Random(90210)
    materialize_checked = 0
    for _ in range(1000):
        registry = random_registry(rng)
        tree = random_tree(rng, registry, max_depth=4, allow_alts=True)
        expanded = expand_alternatives(tree)
        assert expand_alternatives(expanded) == expanded
        try:
            materialized = materialize_inheritance(expanded, registry)
        except OverwriteConflict:
            # an expanded alternative doubled an overwriting feature at one
            # node; the result is an invalid tree, correctly rejected
            continue
        materialize_checked += 1
        assert materialize_inheritance(materialized, registry) == materialized
        for path in partial_traversals(expanded):
            before = effective_set(expanded, path, registry)
            after = effective_set(materialized, path, registry)
            assert list(before.items()) == list(after.items())
    assert materialize_checked >= 800, materialize_checked
