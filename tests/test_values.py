"""The contract of the frozen value types: field-wise equality, hashing and
repr, refused assignment, and pickling and copying. The benchmark digests
`repr` of command outputs, so the repr strings are pinned byte for byte."""

import copy
import pickle

import pytest

from conftest import fixture_bytes

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
    effective_set,
    partial_traversals,
)
from lexitree.rules import default_registry
from lexitree.transform import TableSpec
from lexitree.xmlio import EncodingProfile, ParseDiagnostic, parse_entry

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


class BareAtomic(Atomic):
    __slots__ = ()


class ExtraAtomic(Atomic):
    __slots__ = ("extra",)

    def __init__(self, text, extra):
        super().__init__(text)
        object.__setattr__(self, "extra", extra)


# slotted subclasses: the slots they inherit, and one they add, travel too
SUBCLASS_CASES = [
    (lambda: BareAtomic(" cafe\u0301\n"), ("text",), "BareAtomic(text='caf\u00e9')"),
    (lambda: ExtraAtomic("a", ["x"]), ("text",), "ExtraAtomic(text='a')"),
]


def copies(value):
    """A shallow copy, a deep copy and one unpickled copy per pickle protocol."""
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [copy.copy(value), copy.deepcopy(value), *pickled]


def slot_values(value):
    return {name: getattr(value, name) for cls in type(value).__mro__ for name in vars(cls).get("__slots__", ())}


@pytest.mark.parametrize("build, fields, expected", CASES + SUBCLASS_CASES, ids=IDS + ["BareAtomic", "ExtraAtomic"])
def test_copies_and_pickles_keep_every_slot(build, fields, expected):
    # copy and pickle restore a value without calling its constructor, so each slot must travel in its state
    value = build()
    slots = slot_values(value)
    assert set(fields) <= slots.keys()
    for again in copies(value):
        assert slot_values(again) == slots and again.__class__ is value.__class__ and repr(again) == expected


def test_a_slot_left_unset_stays_unset_in_copies():
    value = object.__new__(ExtraAtomic)
    Atomic.__init__(value, " e\u0301")
    assert [name for cls in ExtraAtomic.__mro__ for name in vars(cls).get("__slots__", ())] == ["extra", "text"]
    for again in copies(value):
        assert (again.text, hasattr(again, "extra")) == ("\u00e9", False)


def test_copies_and_pickles_keep_the_canonical_text_and_rule_table():
    atomic = Atomic(" cafe\u0301 \t au\r\nlait\n")
    rule = DependencyRule("gen", "pos", " nou\u0308n\t x ")
    registry = FeatureClassRegistry({"pos": FeatureClass.OVERWRITING}, [rule], FeatureClass.CUMULATIVE)
    assert Atomic.__slots__ == ("text",) and not hasattr(atomic, "_key")
    assert FeatureClassRegistry.__slots__ == ("classes", "rules", "default_class", "_table")
    assert atomic.text == "caf\u00e9 au lait" and registry._table == {"pos": [("gen", "no\u00fcn x")]}
    assert registry.rules == (rule,) and rule.required_value == "no\u00fcn x"
    for again in copies(atomic):
        assert again.text == atomic.text and again == atomic
    for again in copies(registry):
        assert (again.rules, again._table) == (registry.rules, registry._table)
        assert again.rules[0].required_value == "no\u00fcn x"
        # an unknown feature still reads as the copy's default class, which `classes` carries
        assert again.classify("zzz") is again.classes[FeatureName("zzz")] is FeatureClass.CUMULATIVE


def test_effective_set_on_an_unpickled_parsed_tree_equals_the_original():
    tree, _ = parse_entry(fixture_bytes("gendarme.xml"))
    registry = default_registry()
    for again, again_registry in zip(copies(tree), copies(registry)):
        for path in partial_traversals(tree):
            assert effective_set(again, path, again_registry) == effective_set(tree, path, registry)


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


REPORT_TYPES = ("OverwriteViolation", "DependencyViolation", "ParseDiagnostic")


@pytest.mark.parametrize("build, fields", [case[:2] for case, name in zip(CASES, IDS) if name in REPORT_TYPES],
                         ids=REPORT_TYPES)
def test_report_types_take_one_value_per_field_positionally(build, fields):
    value = build()
    values = [getattr(value, name) for name in fields]
    assert value.__class__(*values) == value
    for wrong in (values[:-1], [*values, None]):
        with pytest.raises(ValueError):
            value.__class__(*wrong)
    with pytest.raises(TypeError):
        value.__class__(**dict(zip(fields, values)))


def test_registry_takes_a_mapping_or_pairs():
    pairs = [("POS", FeatureClass.OVERWRITING), ("def", FeatureClass.CUMULATIVE)]
    assert FeatureClassRegistry(pairs) == FeatureClassRegistry(dict(pairs))
    assert FeatureClassRegistry(pairs).classes == {"pos": FeatureClass.OVERWRITING, "def": FeatureClass.CUMULATIVE}
