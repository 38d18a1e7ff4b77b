"""The contract of the frozen value types: field-wise equality, hashing and
repr, refused assignment, and pickling and copying. The benchmark digests
`repr` of command outputs, so the repr strings are pinned byte for byte."""

import copy
import pickle

import pytest

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
    OverwriteViolation,
    Property,
)
from lexitree.transform import TableSpec
from lexitree.xmlio import EncodingProfile, ParseDiagnostic

# (build an instance, its field names, its repr); each build makes a new, equal value
CASES = [
    (lambda: Atomic("a"), ("text",), "Atomic(text='a')"),
    (
        lambda: Composite([Property("ex", "x")]),
        ("properties",),
        "Composite(properties=(Property(feature='ex', value=Atomic(text='x'), attrs=()),))",
    ),
    (
        lambda: Property("orth", "a", [("xml:lang", "fr")]),
        ("feature", "value", "attrs"),
        "Property(feature='orth', value=Atomic(text='a'), attrs=(('xml:lang', 'fr'),))",
    ),
    (
        lambda: AltGroup([[Property("pos", "n")], [Property("pos", "v")]]),
        ("alternatives",),
        "AltGroup(alternatives=((Property(feature='pos', value=Atomic(text='n'), attrs=()),), "
        "(Property(feature='pos', value=Atomic(text='v'), attrs=()),)))",
    ),
    (
        lambda: Node([Property("orth", "x")], children=[Node()]),
        ("properties", "alt_groups", "children"),
        "Node(properties=(Property(feature='orth', value=Atomic(text='x'), attrs=()),), alt_groups=(), "
        "children=(Node(properties=(), alt_groups=(), children=()),))",
    ),
    (
        lambda: DependencyRule("gen", "pos", "noun"),
        ("dependent", "governor", "required_value"),
        "DependencyRule(dependent='gen', governor='pos', required_value='noun')",
    ),
    (
        lambda: FeatureClassRegistry({"pos": FeatureClass.OVERWRITING}, [DependencyRule("gen", "pos", "noun")]),
        ("classes", "rules", "default_class"),
        "FeatureClassRegistry(classes={'pos': <FeatureClass.OVERWRITING: 'over'>}, "
        "rules=(DependencyRule(dependent='gen', governor='pos', required_value='noun'),), "
        "default_class=<FeatureClass.LOCAL: 'loc'>)",
    ),
    (
        lambda: EffectiveFeatureSet([Property("orth", "x")], [0]),
        ("entries", "depths"),
        "EffectiveFeatureSet(entries=(Property(feature='orth', value=Atomic(text='x'), attrs=()),), depths=(0,))",
    ),
    (
        lambda: OverwriteViolation((0,), FeatureName("pos"), Atomic("a"), Atomic("b")),
        ("path", "feature", "existing", "conflicting"),
        "OverwriteViolation(path=(0,), feature='pos', existing=Atomic(text='a'), conflicting=Atomic(text='b'))",
    ),
    (
        lambda: DependencyViolation((0, 1), FeatureName("gen"), FeatureName("pos"), "noun", "verb"),
        ("path", "dependent", "governor", "required_value", "actual_value"),
        "DependencyViolation(path=(0, 1), dependent='gen', governor='pos', required_value='noun', "
        "actual_value='verb')",
    ),
    (
        # one base element: a frozenset's repr order is not fixed
        lambda: EncodingProfile(["orth"], True),
        ("base_elements", "strict"),
        "EncodingProfile(base_elements=frozenset({'orth'}), strict=True)",
    ),
    (
        lambda: ParseDiagnostic("warning", 1, 2, "m"),
        ("severity", "line", "column", "message"),
        "ParseDiagnostic(severity='warning', line=1, column=2, message='m')",
    ),
    (lambda: TableSpec(["orth", "pos"], "html"), ("columns", "format"), "TableSpec(columns=('orth', 'pos'), format='html')"),
]
IDS = [expected.split("(", 1)[0] for _, _, expected in CASES]


@pytest.mark.parametrize("build, fields, expected", CASES, ids=IDS)
def test_repr_is_the_field_wise_one(build, fields, expected):
    assert repr(build()) == expected


@pytest.mark.parametrize("build, fields, expected", CASES, ids=IDS)
def test_equal_values_compare_and_hash_equal(build, fields, expected):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if isinstance(a, FeatureClassRegistry):
        with pytest.raises(TypeError):  # `classes` is a dict
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_values_of_different_classes_never_compare_equal():
    values = [build() for build, _, _ in CASES]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j)

    class Tagged(Atomic):
        pass

    assert Tagged("a") != Atomic("a") and Atomic("a") != Tagged("a")
    assert Atomic("a") != "a" and Atomic("a") != ("a",)
    assert repr(Tagged("a")) == "test_values_of_different_classes_never_compare_equal.<locals>.Tagged(text='a')"


@pytest.mark.parametrize("build, fields, expected", CASES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(build, fields, expected):
    value = build()
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


@pytest.mark.parametrize("build, fields, expected", CASES, ids=IDS)
def test_pickle_and_copies_round_trip(build, fields, expected):
    value = build()
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in (*pickled, copy.copy(value), copy.deepcopy(value)):
        assert again == value and again.__class__ is value.__class__
        assert repr(again) == expected


def test_positional_patterns_bind_the_fields_in_order():
    for build, fields, _ in CASES:
        assert build().__class__.__match_args__ == fields
    match Property("orth", "a", [("xml:lang", "fr")]):
        case Property(feature, Atomic(text), attrs):
            assert (feature, text, attrs) == ("orth", "a", (("xml:lang", "fr"),))
        case _:
            pytest.fail("no match")


def test_registry_subclass_can_add_attributes():
    class Counting(FeatureClassRegistry):
        def __init__(self):
            super().__init__({"pos": FeatureClass.OVERWRITING})
            object.__setattr__(self, "calls", 0)

        def classify(self, feature):
            object.__setattr__(self, "calls", self.calls + 1)
            return super().classify(feature)

    registry = Counting()
    assert registry.classify("pos") is FeatureClass.OVERWRITING and registry.calls == 1
    for again in (copy.copy(registry), copy.deepcopy(registry)):
        assert again == registry and again.calls == 1
    with pytest.raises(AttributeError):
        registry.classes = {}
    assert registry != FeatureClassRegistry({"pos": FeatureClass.OVERWRITING})
