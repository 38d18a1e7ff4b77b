import pytest
import hypothesis.strategies as st
from hypothesis import assume, given, settings

from conftest import P, entries_as_tuples
from oracle import oracle_dependency_violations, oracle_effective_set
from treegen import ATTRS, VALUES, all_paths, tree_with_interleaved_rules, tree_with_registry

from lexitree.model import (
    AltGroup,
    Atomic,
    Composite,
    DependencyRule,
    DependencyViolation,
    EffectiveFeatureSet,
    FeatureClass,
    FeatureClassRegistry,
    FeatureName,
    Node,
    OverwriteConflict,
    OverwriteViolation,
    PathOutOfRange,
    Property,
    UnexpandedAlternatives,
    attach_property,
    check_consistency,
    effective_set,
    enumerate_traversals,
    format_path,
    format_value,
    partial_traversals,
    resolve_path,
    unregistered_features,
)
from lexitree.transform import materialize_inheritance
from lexitree.xmlio import parse_entry

# ---------------------------------------------------------------------------
# Types


def test_feature_names_fold_case_and_compare_equal():
    assert FeatureName("Orth") == FeatureName("orth") == "orth"
    name = FeatureName("orth")
    assert FeatureName(name) is name


@pytest.mark.parametrize("bad", ["", "two words", "UPPER SPACE", "-lead", "a_b", "café"])
def test_invalid_feature_names_rejected(bad):
    with pytest.raises(ValueError):
        FeatureName(bad)


def test_property_rejects_duplicate_attr_names():
    with pytest.raises(ValueError):
        Property("xr", "x", (("type", "a"), ("type", "b")))


def test_property_rejects_unusable_attr_names():
    with pytest.raises(ValueError):
        Property("xr", "x", (("bad name", "a"),))
    with pytest.raises(ValueError):
        Property("xr", "x", (("", "a"),))


def test_effective_set_needs_a_depth_per_entry():
    with pytest.raises(ValueError):
        EffectiveFeatureSet([P("pos", "n")], [])


def test_alt_group_needs_two_nonempty_alternatives():
    with pytest.raises(ValueError):
        AltGroup([[P("pos", "n")]])
    with pytest.raises(ValueError):
        AltGroup([[P("pos", "n")], []])


def test_property_attrs_are_normalized_to_string_pairs():
    assert Property("xr", "x", [("n", 1)]).attrs == (("n", "1"),)
    assert Property("xr", "x", iter([])).attrs == ()
    assert Property("xr", "x", []).attrs == ()


def _chain(depth, leaf_text="leaf"):
    node = Node([P("ex", leaf_text)])
    for i in range(depth):
        node = Node([P("ex", f"e{i}")], children=[node])
    return node


def test_node_equality_hash_and_repr_are_field_wise():
    pair = AltGroup([[P("pos", "n")], [P("pos", "v")]])
    tree = Node([P("orth", "x")], [pair], [Node(), Node([P("xr", "y", n="1")], children=[Node()])])
    same = Node([P("orth", "x")], [pair], [Node(), Node([P("xr", "y", n="1")], children=[Node()])])
    assert tree == same and hash(tree) == hash(same)
    assert tree != Node([P("orth", "x")], [pair], [Node(), Node([P("xr", "y", n="1")])])
    assert tree != Node([P("orth", "x")], [], tree.children)
    assert tree != "tree"
    assert repr(Node()) == "Node(properties=(), alt_groups=(), children=())"
    assert repr(Node(children=[Node()])) == (
        "Node(properties=(), alt_groups=(), children=(Node(properties=(), alt_groups=(), children=()),))"
    )
    assert repr(tree) == (
        f"Node(properties={tree.properties!r}, alt_groups={tree.alt_groups!r}, children=("
        "Node(properties=(), alt_groups=(), children=()), "
        f"Node(properties={tree.children[1].properties!r}, alt_groups=(), children=("
        "Node(properties=(), alt_groups=(), children=()),))))"
    )


def test_node_identity_follows_shape_not_just_preorder_properties():
    # A sibling after a closed subtree: repr must close the subtree first.
    tree = Node(children=[Node(children=[Node()]), Node()])
    same = Node(children=[Node(children=[Node()]), Node()])
    assert tree == same and hash(tree) == hash(same)
    leaf = "Node(properties=(), alt_groups=(), children=())"
    assert repr(tree) == (
        f"Node(properties=(), alt_groups=(), children=(Node(properties=(), alt_groups=(), children=({leaf},)), {leaf}))"
    )
    # Same preorder properties, different shapes.
    chain, fan = Node(children=[Node(children=[Node()])]), Node(children=[Node(), Node()])
    assert chain != fan and fan != chain
    assert tree != Node(children=[Node(children=[Node(), Node()])])
    assert repr(chain) != repr(fan)


def test_node_equality_hash_and_repr_run_on_deep_trees():
    # Deeper than the interpreter's recursion limit.
    deep, again = _chain(1200), _chain(1200)
    assert deep == again and hash(deep) == hash(again)
    assert deep != _chain(1200, "other") and deep != _chain(1199)
    text = repr(deep)
    assert text.startswith("Node(properties=(Property(feature='ex', value=Atomic(text='e1199')")
    assert text.count("Node(") == 1201 and text.endswith("children=())" + ",))" * 1200)


def test_registry_rejects_non_overwriting_governor():
    with pytest.raises(ValueError):
        FeatureClassRegistry({"gen": FeatureClass.LOCAL}, [DependencyRule("x", "gen", "n")])


def test_values_compare_normalized():
    # an atomic value holds its normalized text, which is what it compares by
    assert Atomic("  cafe\u0301\n").text == "caf\u00e9" and Atomic("  café ").text == "café"
    assert Atomic("cafe\u0301") == Atomic("caf\u00e9") and Property("orth", " x ").value.text == "x"
    assert Atomic("a  b").text == Atomic(" a\t\r\nb ").text == "a b" and Atomic("a\x0bb").text == "a\x0bb"
    assert DependencyRule("gen", "pos", "proper\tnoun").required_value == "proper noun"
    assert Atomic("  café ") == Atomic("café")
    assert Atomic("a") != Composite([P("a", "b")])
    assert Composite([P("ex", "x ", n="1")]) == Composite([P("ex", "x", n="1")])
    for space in ("\u00a0", "\u202f", "\u3000", "\u0085", "\u2028"):  # text to the parser, so not trimmed
        assert Atomic(f"{space}x") != Atomic("x")
        assert Atomic(f"x{space}") != Atomic("x")


def test_a_cumulative_value_with_a_leading_no_break_space_is_not_a_duplicate(registry):
    tree = Node([P("orth", "x"), P("def", "x")], children=[Node([P("def", "\u00a0x")])])
    child = entries_as_tuples(effective_set(tree, (0,), registry))
    assert child == [("orth", "x", (), 0), ("def", "x", (), 0), ("def", "\u00a0x", (), 1)]


def test_a_governor_with_a_trailing_no_break_space_does_not_license(registry):
    # default rules: gen requires pos=noun
    tree = Node([P("pos", "noun"), P("gen", "m")], children=[Node([P("pos", "noun\u00a0")])])
    assert entries_as_tuples(effective_set(tree, (0,), registry)) == [("pos", "noun\u00a0", (), 1)]
    own = Node([P("pos", "noun\u00a0"), P("gen", "m")])
    assert [type(v) for v in check_consistency(own, registry)] == [DependencyViolation]


# ---------------------------------------------------------------------------
# classify


def test_classify_default_registry(registry):
    assert registry.classify("orth") is FeatureClass.OVERWRITING
    assert registry.classify("def") is FeatureClass.CUMULATIVE
    assert registry.classify("ex") is FeatureClass.LOCAL


def test_classify_falls_back_to_default_class():
    empty = FeatureClassRegistry()
    assert empty.classify("zzz") is FeatureClass.LOCAL
    # `classify` reads `classes`, where a missing name reads as the default and any other name is folded first
    registry = FeatureClassRegistry({"pos": FeatureClass.OVERWRITING}, default_class=FeatureClass.CUMULATIVE)
    assert registry.classify("POS") is registry.classify(FeatureName("pos")) is FeatureClass.OVERWRITING
    assert registry.classify("zzz") is registry.classes[FeatureName("zzz")] is FeatureClass.CUMULATIVE
    assert registry.classes.get("zzz") is None and "zzz" not in registry.classes
    with pytest.raises(ValueError, match="invalid feature name"):
        registry.classify("no such name")


def test_a_built_registry_cannot_be_reclassified(registry):
    # reclassifying the governor would silence the rule: the constructor refuses that
    # registry, and its `classes` refuses the change after the registry is built
    tree, _ = parse_entry(
        b"<struc><orth>x</orth><pos>noun</pos><gen>f</gen><struc><pos>verb</pos><gen>m</gen></struc></struc>"
    )
    report = ["0: feature 'gen' requires 'pos'='noun' but the effective value is 'verb'"]
    assert [v.describe() for v in check_consistency(tree, registry)] == report
    reclassified = {**registry.classes, FeatureName("pos"): FeatureClass.CUMULATIVE}
    with pytest.raises(ValueError, match="governor 'pos' is not an overwriting feature"):
        FeatureClassRegistry(reclassified, registry.rules)
    with pytest.raises(TypeError, match="fixed when it is built"):
        registry.classes[FeatureName("pos")] = FeatureClass.CUMULATIVE
    assert registry.classify("pos") is FeatureClass.OVERWRITING
    assert [v.describe() for v in check_consistency(tree, registry)] == report


def test_unregistered_features_lists_each_once_in_document_order():
    class NoClassify(FeatureClassRegistry):
        def classify(self, feature):
            raise AssertionError("unregistered_features reads `classes` alone")

    tree = Node(
        [P("zeta", "a"), P("orth", "x"), Property("brack", Composite([P("inner", "b")]))],
        [AltGroup([[P("alpha", "1")], [P("zeta", "2"), P("beta", "3")]])],
        [Node([P("gamma", "c"), P("alpha", "d")]), Node([P("zeta", "e"), P("delta", "f")])],
    )
    found = unregistered_features(tree, NoClassify({"orth": FeatureClass.OVERWRITING}))
    assert found == ["zeta", "brack", "alpha", "beta", "gamma", "delta"]
    assert all(isinstance(feature, FeatureName) for feature in found)
    everything = {f: FeatureClass.LOCAL for f in ("zeta", "orth", "brack", "alpha", "beta", "gamma", "delta")}
    assert unregistered_features(tree, FeatureClassRegistry(everything)) == []
    # a non-root node's alternatives come after its properties and before its children
    inner = Node([P("eta", "g")], [AltGroup([[P("theta", "h")], [P("eta", "i")]])], [Node([P("iota", "j")])])
    tree = Node([P("kappa", "k")], children=[inner, Node([P("lambda", "l")])])
    assert unregistered_features(tree, NoClassify({})) == ["kappa", "eta", "theta", "iota", "lambda"]


# ---------------------------------------------------------------------------
# attach_property


def test_attach_to_empty_leaf(registry):
    node = attach_property(Node(), P("pos", "noun"), registry)
    assert node.properties == (P("pos", "noun"),)


def test_attach_second_overwriting_value_rejected(registry):
    node = Node([P("orth", "gendarme")])
    with pytest.raises(OverwriteConflict):
        attach_property(node, P("orth", "le gendarme"), registry)


def test_attach_cumulative_values_accumulate(registry):
    node = Node([P("def", "d1")])
    node = attach_property(node, P("def", "d2"), registry)
    assert [str(p.feature) for p in node.properties] == ["def", "def"]


# ---------------------------------------------------------------------------
# effective_set on the worked entries

GENDARME_ROOT = [
    ("orth", "gendarme", (), 0),
    ("pron", "...", (), 0),
]
GENDARME_L2 = GENDARME_ROOT + [
    ("pos", "noun", (), 1),
    ("gen", "mas", (), 1),
    ("etym", "XV°; gendarmes; de gens, et arme", (), 1),
]
GENDARME_L3 = GENDARME_ROOT + [
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
]
GENDARME_LEAF = [
    ("pron", "...", (), 0),
    ("pos", "noun", (), 1),
    ("gen", "mas", (), 1),
    ("etym", "1790", (), 2),
    ("time", "modern", (), 2),
    ("def", "Militaire appartenant à un corps ...", (), 2),
    ("orth", "le gendarme", (), 3),
    ("def", "symbole de la force publique, de l'ordre.", (), 3),
    ("ex", "La peur du gendarme", (), 3),
]

OVERDRESS_VERB = [
    ("orth", "overdress", (), 0),
    ("pos", "verb", (), 1),
    ("pron", "pron1", (), 1),
    ("def", "To dress (oneself or another) too elaborately or finely", (), 1),
]
OVERDRESS_NOUN = [
    ("orth", "overdress", (), 0),
    ("pos", "noun", (), 1),
    ("pron", "pron2", (), 1),
    ("def", "A dress that may be worn over a jumper, blouse, etc.", (), 1),
]


@pytest.mark.parametrize(
    "path, expected",
    [
        ((), GENDARME_ROOT),
        ((0,), GENDARME_L2),
        ((0, 0), GENDARME_L3),
        ((0, 0, 0), GENDARME_LEAF),
    ],
    ids=["root", "grammatical", "sense", "subentry"],
)
def test_gendarme_trace(gendarme, registry, path, expected):
    assert entries_as_tuples(effective_set(gendarme, path, registry)) == expected


def test_gendarme_trace_agrees_with_oracle(gendarme, registry):
    for path in [(), (0,), (0, 0), (0, 0, 0)]:
        eff = effective_set(gendarme, path, registry)
        assert list(eff.items()) == oracle_effective_set(gendarme, path, registry)


def test_overdress_traversal_sets(overdress, registry):
    assert entries_as_tuples(effective_set(overdress, (0,), registry)) == OVERDRESS_VERB
    assert entries_as_tuples(effective_set(overdress, (1,), registry)) == OVERDRESS_NOUN


def test_single_leaf_effective_set_is_its_own_properties(registry):
    leaf = Node([P("orth", "solo"), P("ex", "an example")])
    eff = effective_set(leaf, (), registry)
    assert eff.entries == leaf.properties
    assert eff.depths == (0, 0)


def test_effective_set_ignores_unexpanded_alternatives(registry, pinna):
    eff = effective_set(pinna, (0,), registry)
    assert [str(p.feature) for p in eff.entries] == ["orth", "pron", "pos"]


def test_effective_set_bad_path(overdress, registry):
    with pytest.raises(PathOutOfRange):
        effective_set(overdress, (2,), registry)
    with pytest.raises(PathOutOfRange):
        effective_set(overdress, (0, 0), registry)


@pytest.mark.parametrize("path, step", [((2,), 0), ((0, 0), 1), ((1, 0, 7), 1), ((-1,), 0), ((0, -1), 1)])
def test_bad_path_is_reported_alike_by_resolve_path_and_effective_set(overdress, registry, path, step):
    for find in (resolve_path, lambda tree, path: effective_set(tree, path, registry)):
        with pytest.raises(PathOutOfRange) as err:
            find(overdress, path)
        assert (err.value.step, str(err.value)) == (step, f"path {format_path(path)} invalid at step {step}")


def test_paths_are_written_dotted_or_as_root():
    assert (format_path(()), format_path((0,)), format_path((0, 12, 3))) == ("(root)", "0", "0.12.3")
    assert str(UnexpandedAlternatives(())) == "node (root) still carries alternatives; expand them first"


def test_effective_set_rejects_doubled_overwriting_feature(registry):
    bad = Node([P("orth", "one"), P("orth", "two")])
    with pytest.raises(OverwriteConflict):
        effective_set(bad, (), registry)


def test_dependency_blocking_removes_inherited_dependent():
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING},
        [DependencyRule("gen", "pos", "n")],
    )
    tree = Node([P("pos", "n"), P("gen", "f")], children=[Node([P("pos", "v")])])
    child = entries_as_tuples(effective_set(tree, (0,), registry))
    assert child == [("pos", "v", (), 1)]
    root = entries_as_tuples(effective_set(tree, (), registry))
    assert root == [("pos", "n", (), 0), ("gen", "f", (), 0)]


def test_redundant_overwrite_keeps_position_and_does_not_block():
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING},
        [DependencyRule("gen", "pos", "n")],
    )
    # re-specifying pos=n at the child is a no-op, so the inherited gen survives
    tree = Node([P("pos", "n"), P("gen", "f")], children=[Node([P("pos", "n")])])
    child = entries_as_tuples(effective_set(tree, (0,), registry))
    assert child == [("pos", "n", (), 0), ("gen", "f", (), 0)]


def test_equal_bundles_under_a_cumulative_brack_collapse_to_one_entry():
    registry = FeatureClassRegistry({"brack": FeatureClass.CUMULATIVE})
    bundle = P("brack", [P("ex", "e"), P("xr", "x", n="1")])
    again = P("brack", [P("ex", " e\t"), P("xr", "x", n="1")])  # equal, built apart
    other = P("brack", [P("ex", "e"), P("xr", "x", n="2")])
    tree = Node([bundle], children=[Node([again, other, again])])
    eff = effective_set(tree, (0,), registry)
    assert list(eff.items()) == [(bundle, 0), (other, 1)]
    assert list(eff.items()) == oracle_effective_set(tree, (0,), registry)


def test_an_equal_bundle_under_an_overwriting_brack_is_a_no_op_that_keeps_the_ancestors_depth():
    registry = FeatureClassRegistry({"brack": FeatureClass.OVERWRITING, "def": FeatureClass.CUMULATIVE})
    bundle = P("brack", [P("ex", "cafe\u0301")])
    tree = Node(
        [bundle, P("def", "d")],
        children=[Node([P("brack", [P("ex", "caf\u00e9 ")])]), Node([P("brack", [P("ex", "caf\u00e9", n="1")])])],
    )
    assert list(effective_set(tree, (0,), registry).items()) == [(bundle, 0), (tree.properties[1], 0)]
    moved = tree.children[1].properties[0]  # the attribute inside makes it another value
    assert list(effective_set(tree, (1,), registry).items()) == [(tree.properties[1], 0), (moved, 1)]
    for path in ((0,), (1,)):
        assert list(effective_set(tree, path, registry).items()) == oracle_effective_set(tree, path, registry)


class _TaggedAtomic(Atomic):
    __slots__ = ()


def test_an_atomic_subclass_compares_by_its_text(registry):
    # default rules: gen requires pos=noun
    noun = Property("pos", _TaggedAtomic("noun"))
    assert noun.value.text == "noun" and noun.value != Atomic("noun")
    assert check_consistency(Node([noun, P("gen", "m")]), registry) == []
    verb = Property("pos", _TaggedAtomic("verb"))
    tree = Node([P("gen", "m"), noun], children=[Node([P("pos", "noun")]), Node([verb])])
    assert list(effective_set(tree, (0,), registry).items()) == [(tree.properties[0], 0), (noun, 0)]  # a no-op
    assert entries_as_tuples(effective_set(tree, (1,), registry)) == [("pos", "verb", (), 1)]  # gen is blocked


class _TaggedComposite(Composite):
    __slots__ = ()


@pytest.mark.parametrize("cls", [FeatureClass.CUMULATIVE, FeatureClass.OVERWRITING])
@pytest.mark.parametrize("tagged", [Property("brack", Composite([Property("ex", _TaggedAtomic("e"))])),
                                    Property("brack", _TaggedComposite([P("ex", "e")]))], ids=["atomic", "composite"])
def test_a_subclass_in_or_of_a_bundle_makes_another_value(cls, tagged):
    # top-level atomic values compare by text, bundles by ==, which tells a subclass from its base
    registry = FeatureClassRegistry({"brack": cls})
    plain = P("brack", [P("ex", "e")])
    tree = Node([tagged], children=[Node([plain])])
    expected = [(tagged, 0), (plain, 1)] if cls is FeatureClass.CUMULATIVE else [(plain, 1)]
    assert list(effective_set(tree, (0,), registry).items()) == expected
    assert oracle_effective_set(tree, (0,), registry) == expected


@pytest.mark.parametrize("path, step", [((1,), 0), ((0, 0), 1), ((0, 2, 0), 1)])
def test_a_bad_step_below_a_doubled_orth_is_path_out_of_range(registry, path, step):
    doubled = Node([P("orth", "one"), P("orth", "two")], children=[Node([P("orth", "three")])])
    for tree in (doubled, Node([P("orth", "top")], children=[doubled])):
        wanted = path if tree is doubled else (0, *path)
        with pytest.raises(PathOutOfRange) as err:
            effective_set(tree, wanted, registry)
        assert err.value.step == step + (tree is not doubled)


def test_a_doubled_feature_midway_raises_with_that_nodes_values_and_spares_its_siblings(registry):
    middle = Node([P("pos", "noun"), P("def", "d"), P("gen", "f"), P("gen", "m")], children=[Node([P("ex", "e")])])
    tree = Node(
        [P("orth", "top"), P("gen", "n")],
        children=[Node([P("pos", "verb")], children=[middle, Node([P("gen", "c")])])],
    )
    for path in ((0, 0), (0, 0, 0)):
        with pytest.raises(OverwriteConflict) as err:
            effective_set(tree, path, registry)
        assert (err.value.feature, err.value.existing, err.value.new) == ("gen", Atomic("f"), Atomic("m"))
    assert entries_as_tuples(effective_set(tree, (0, 1), registry)) == [
        ("orth", "top", (), 0), ("pos", "verb", (), 1), ("gen", "c", (), 2),
    ]
    assert entries_as_tuples(effective_set(tree, (0,), registry)) == [("orth", "top", (), 0), ("pos", "verb", (), 1)]


@pytest.mark.parametrize("rules", [[], [DependencyRule("ex", "pos", "noun")]])
def test_only_the_endpoints_local_entries_appear_in_property_order(rules):
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "def": FeatureClass.CUMULATIVE, "ex": FeatureClass.LOCAL,
         "xr": FeatureClass.LOCAL},
        rules,
    )
    leaf = Node([P("xr", "l1"), P("def", "d2")])
    child = Node([P("ex", "c1"), P("pos", "verb"), P("xr", "c2"), P("ex", "c3")], children=[leaf])
    tree = Node([P("pos", "noun"), P("ex", "r1"), P("xr", "r2"), P("def", "d1")], children=[child])
    expected = {
        (): [("pos", "noun", (), 0), ("ex", "r1", (), 0), ("xr", "r2", (), 0), ("def", "d1", (), 0)],
        (0,): [("def", "d1", (), 0), ("ex", "c1", (), 1), ("pos", "verb", (), 1), ("xr", "c2", (), 1),
               ("ex", "c3", (), 1)],
        (0, 0): [("def", "d1", (), 0), ("pos", "verb", (), 1), ("xr", "l1", (), 2), ("def", "d2", (), 2)],
    }
    for path, entries in expected.items():
        eff = effective_set(tree, path, registry)
        assert entries_as_tuples(eff) == entries
        assert list(eff.items()) == oracle_effective_set(tree, path, registry)


@pytest.mark.parametrize("source", ["parsed", "built"])
def test_one_value_in_two_normal_forms_across_nodes(source, registry):
    # the child re-specifies the root's orth and repeats its def, each in the other normal form
    if source == "parsed":
        tree, _ = parse_entry("<struc><orth>cafe\u0301</orth><def>d\u00e9f</def>"
                              "<struc><orth>caf\u00e9</orth><def>de\u0301f</def></struc></struc>".encode())
    else:
        child = Node([Property("orth", Atomic("caf\u00e9")), Property("def", Atomic("de\u0301f"))])
        tree = Node([Property("orth", Atomic("  cafe\u0301 ")), Property("def", Atomic("d\u00e9f"))], children=[child])
    eff = effective_set(tree, (0,), registry)
    assert list(eff.items()) == oracle_effective_set(tree, (0,), registry)
    assert list(eff.items()) == list(zip(tree.properties, (0, 0)))  # orth keeps depth 0; def collapses


# ---------------------------------------------------------------------------
# check_consistency


def test_gendarme_is_consistent(gendarme, registry):
    assert check_consistency(gendarme, registry) == []


def test_empty_leaf_is_consistent(registry):
    assert check_consistency(Node(), registry) == []


def test_doubled_overwriting_feature_reported(registry):
    bad = Node(children=[Node([P("orth", "one"), P("orth", "two")])])
    violations = check_consistency(bad, registry)
    assert len(violations) == 1
    violation = violations[0]
    assert isinstance(violation, OverwriteViolation)
    assert violation.path == (0,)
    assert violation.feature == "orth"


def test_a_tripled_overwriting_feature_sets_each_later_value_against_the_first(registry):
    tree, _ = parse_entry(b"<struc><orth>a</orth><pos>noun</pos><orth>b</orth><orth>c</orth></struc>")
    assert check_consistency(tree, registry) == [
        OverwriteViolation((), FeatureName("orth"), Atomic("a"), Atomic("b")),
        OverwriteViolation((), FeatureName("orth"), Atomic("a"), Atomic("c")),
    ]
    for operation in (lambda: effective_set(tree, (), registry), lambda: materialize_inheritance(tree, registry)):
        with pytest.raises(OverwriteConflict) as err:
            operation()
        assert (err.value.feature, err.value.existing, err.value.new) == ("orth", Atomic("a"), Atomic("b"))
        assert "('a' vs 'b')" in str(err.value)


def test_dependent_under_wrong_governor_reported():
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING},
        [DependencyRule("gen", "pos", "n")],
    )
    bad = Node([P("pos", "v"), P("gen", "f")])
    violations = check_consistency(bad, registry)
    assert len(violations) == 1
    violation = violations[0]
    assert isinstance(violation, DependencyViolation)
    assert violation.path == ()
    assert (violation.dependent, violation.actual_value) == ("gen", "v")


def test_dependent_with_absent_governor_not_reported():
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING},
        [DependencyRule("gen", "pos", "n")],
    )
    assert check_consistency(Node([P("gen", "f")]), registry) == []


def test_inherited_governor_covers_descendants():
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING},
        [DependencyRule("gen", "pos", "n")],
    )
    good = Node([P("pos", "n")], children=[Node([P("gen", "f")])])
    assert check_consistency(good, registry) == []
    bad = Node([P("pos", "v")], children=[Node([P("gen", "f")])])
    assert [type(v) for v in check_consistency(bad, registry)] == [DependencyViolation]


def test_blocked_governor_is_not_reported():
    # gen is licensed by pos=noun and itself governs art; once pos turns to
    # verb, gen has no effective value, so art has nothing to contradict.
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING, "art": FeatureClass.OVERWRITING},
        [DependencyRule("gen", "pos", "noun"), DependencyRule("art", "gen", "m")],
    )
    blocked = Node(
        [P("pos", "noun"), P("gen", "f")],
        children=[Node([P("pos", "verb")], children=[Node([P("art", "x")])])],
    )
    assert effective_set(blocked, (0, 0), registry).values("gen") == ()
    assert check_consistency(blocked, registry) == []
    present = Node([P("pos", "noun"), P("gen", "f")], children=[Node([P("art", "x")])])
    violations = check_consistency(present, registry)
    assert [(v.path, v.dependent, v.actual_value) for v in violations] == [((0,), "art", "f")]


def test_violations_come_in_rule_order_then_property_order():
    # rules on pos, case, pos: grouped by governor they would read gen, art, num, num
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "case": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING,
         "num": FeatureClass.CUMULATIVE, "art": FeatureClass.LOCAL},
        [DependencyRule("gen", "pos", "noun"), DependencyRule("num", "case", "nom"), DependencyRule("art", "pos", "noun")],
    )
    node = Node([P("pos", "verb"), P("case", "acc"), P("art", "a"), P("num", "s"), P("gen", "m"), P("num", "p")])
    tree = Node(children=[node, Node([P("case", "acc"), P("case", "dat"), P("num", "s")])])
    assert [
        (type(v).__name__, v.path, v.dependent if isinstance(v, DependencyViolation) else v.feature)
        for v in check_consistency(tree, registry)
    ] == [
        ("DependencyViolation", (0,), "gen"),
        ("DependencyViolation", (0,), "num"),
        ("DependencyViolation", (0,), "num"),
        ("DependencyViolation", (0,), "art"),
        ("OverwriteViolation", (1,), "case"),
        ("DependencyViolation", (1,), "num"),
    ]


# ---------------------------------------------------------------------------
# traversals


def test_overdress_full_traversals(overdress):
    assert enumerate_traversals(overdress) == [(0,), (1,)]


def test_disproof_has_one_traversal_per_sense(disproof):
    assert enumerate_traversals(disproof) == [(0,), (1,)]


def test_single_leaf_traversals():
    assert enumerate_traversals(Node()) == [()]
    assert partial_traversals(Node()) == [()]


def test_overdress_partial_traversals(overdress):
    assert partial_traversals(overdress) == [(), (0,), (1,)]


def test_gendarme_partial_traversals(gendarme):
    assert partial_traversals(gendarme) == [(), (0,), (0, 0), (0, 0, 0)]


def test_traversals_refuse_unexpanded_alternatives(pinna):
    with pytest.raises(UnexpandedAlternatives):
        enumerate_traversals(pinna)
    with pytest.raises(UnexpandedAlternatives):
        partial_traversals(pinna)


# ---------------------------------------------------------------------------
# Properties


@given(tree_with_registry())
def test_effective_set_matches_oracle(tree_and_registry):
    tree, registry = tree_and_registry
    for path in all_paths(tree):
        eff = effective_set(tree, path, registry)
        expected = oracle_effective_set(tree, path, registry)
        assert list(eff.items()) == expected
        assert list(eff) == [p for p, _ in expected]
        # built without the checking constructor, the set equals and prints as a checked one
        built = EffectiveFeatureSet([p for p, _ in expected], [d for _, d in expected])
        assert (eff, repr(eff), hash(eff)) == (built, repr(built), hash(built))
        assert type(eff.entries) is type(eff.depths) is tuple


@given(tree_with_interleaved_rules())
def test_effective_set_and_check_consistency_match_oracle_under_interleaved_rules(tree_and_registry):
    tree, registry = tree_and_registry
    for path in all_paths(tree):
        assert list(effective_set(tree, path, registry).items()) == oracle_effective_set(tree, path, registry)
    assert [
        (v.path, v.dependent, v.governor, v.required_value, v.actual_value) for v in check_consistency(tree, registry)
    ] == [(*head, format_value(value)) for *head, value in oracle_dependency_violations(tree, registry)]


def test_empty_effective_set_equals_and_prints_as_the_checked_constructor(registry):
    eff = effective_set(Node(children=[Node([P("ex", "x")])]), (), registry)
    assert (eff, repr(eff), len(eff)) == (EffectiveFeatureSet((), ()), "EffectiveFeatureSet(entries=(), depths=())", 0)


@given(tree_with_registry())
def test_overwriting_features_occur_at_most_once(tree_and_registry):
    tree, registry = tree_and_registry
    for path in all_paths(tree):
        eff = effective_set(tree, path, registry)
        overwriting = [
            str(p.feature)
            for p in eff.entries
            if registry.classify(p.feature) is FeatureClass.OVERWRITING
        ]
        assert len(overwriting) == len(set(overwriting))


def _governor_touched(tree, q, start_depth, governor):
    """True when `governor` appears at any node of q strictly below start_depth."""
    node = tree
    for depth, index in enumerate(q, start=1):
        node = node.children[index]
        if depth > start_depth and any(p.feature == governor for p in node.properties):
            return True
    return False


@given(tree_with_registry())
def test_cumulative_entries_persist_down_prefixes(tree_and_registry):
    tree, registry = tree_and_registry
    for q in all_paths(tree):
        eff_q = effective_set(tree, q, registry)
        for cut in range(len(q)):
            p = q[:cut]
            for prop, depth in effective_set(tree, p, registry).items():
                if registry.classify(prop.feature) is not FeatureClass.CUMULATIVE:
                    continue
                governors = [r.governor for r in registry.rules if r.dependent == prop.feature]
                if any(_governor_touched(tree, q, cut, g) for g in governors):
                    continue  # the governor moved; persistence is not promised
                assert (prop, depth) in list(eff_q.items())


@given(tree_with_registry())
def test_local_properties_confined_to_their_node(tree_and_registry):
    tree, registry = tree_and_registry
    for path in all_paths(tree):
        eff = effective_set(tree, path, registry)
        endpoint = resolve_path(tree, path)
        local = [(p, d) for p, d in eff.items() if registry.classify(p.feature) is FeatureClass.LOCAL]
        assert all(d == len(path) for _, d in local)
        assert [p for p, _ in local] == [
            p for p in endpoint.properties if registry.classify(p.feature) is FeatureClass.LOCAL
        ]


def _replace_node(root, path, new_node):
    if not path:
        return new_node
    children = list(root.children)
    children[path[0]] = _replace_node(children[path[0]], path[1:], new_node)
    return Node(root.properties, root.alt_groups, children)


@given(tree_with_registry())
def test_redundant_overwrite_is_a_no_op(tree_and_registry):
    tree, registry = tree_and_registry
    paths = all_paths(tree)
    for path in paths:
        if not path:
            continue
        endpoint = resolve_path(tree, path)
        eff = effective_set(tree, path, registry)
        for prop, depth in eff.items():
            if registry.classify(prop.feature) is not FeatureClass.OVERWRITING:
                continue
            if depth == len(path):
                continue
            if any(p.feature == prop.feature for p in endpoint.properties):
                continue
            modified = _replace_node(tree, path, attach_property(endpoint, prop, registry))
            for q in paths:
                assert list(effective_set(modified, q, registry).items()) == list(
                    effective_set(tree, q, registry).items()
                )


@given(tree_with_registry())
def test_blocked_dependents_never_survive(tree_and_registry):
    tree, registry = tree_and_registry
    for q in all_paths(tree):
        eff = effective_set(tree, q, registry)
        chain = [tree]
        for index in q:
            chain.append(chain[-1].children[index])
        for rule in registry.rules:
            # replay the governor's value to find the deepest blocking point
            current = None
            block_depth = None
            for depth, node in enumerate(chain):
                for prop in node.properties:
                    if prop.feature != rule.governor:
                        continue
                    if current is not None and current == prop.value:
                        continue
                    current = prop.value
                    if prop.value != Atomic(rule.required_value):
                        block_depth = depth
            if block_depth is None:
                continue
            for prop, depth in eff.items():
                if prop.feature == rule.dependent:
                    assert depth >= block_depth


@given(tree_with_registry(), st.data())
@settings(max_examples=60)
def test_a_path_through_a_doubled_feature_raises_and_every_other_path_matches_the_oracle(tree_and_registry, data):
    tree, registry = tree_and_registry
    overwriting = [f for f, cls in registry.classes.items() if cls is FeatureClass.OVERWRITING]
    assume(overwriting)
    paths = all_paths(tree)
    where = data.draw(st.sampled_from(paths))
    feature = data.draw(st.sampled_from(overwriting))
    node = resolve_path(tree, where)
    props = list(node.properties)
    first = next((i for i, p in enumerate(props) if p.feature == feature), None)
    if first is None:
        first = data.draw(st.integers(0, len(props)))
        props.insert(first, Property(feature, Atomic(data.draw(st.sampled_from(VALUES)))))
    second = data.draw(st.integers(first + 1, len(props)))
    attrs = data.draw(st.sampled_from(((), ATTRS[:1])))
    props.insert(second, Property(feature, Atomic(data.draw(st.sampled_from(VALUES))), attrs))
    doubled = _replace_node(tree, where, Node(props, node.alt_groups, node.children))
    for path in paths:
        if path[:len(where)] == where:  # the path runs through the doubled node
            with pytest.raises(OverwriteConflict) as err:
                effective_set(doubled, path, registry)
            assert (err.value.feature, err.value.existing, err.value.new) == (
                feature, props[first].value, props[second].value
            )
        else:
            assert list(effective_set(doubled, path, registry).items()) == oracle_effective_set(doubled, path, registry)


@given(tree_with_registry())
@settings(max_examples=60)
def test_attach_built_trees_have_no_overwrite_violations(tree_and_registry):
    tree, registry = tree_and_registry
    assert not any(isinstance(v, OverwriteViolation) for v in check_consistency(tree, registry))


@given(tree_with_registry())
@settings(max_examples=60)
def test_rule_free_registries_validate_clean(tree_and_registry):
    tree, registry = tree_and_registry
    rule_free = FeatureClassRegistry(registry.classes, ())
    assert check_consistency(tree, rule_free) == []
