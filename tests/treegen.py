"""Seeded random trees and registries for the equivalence and round-trip sweeps.

Trees are built through attach_property so they respect node-local value
uniqueness. XML-bound trees keep values in canonical text form (NFC, trimmed,
collapsed) and composites only under brack, since that is the space the
encoding can express; at most one alternative group per node for the same
reason (adjacent groups re-parse merged).
"""

import random
import unicodedata

import hypothesis.strategies as st

from lexitree.model import (
    AltGroup,
    Atomic,
    Composite,
    DependencyRule,
    FeatureClass,
    FeatureClassRegistry,
    Node,
    OverwriteConflict,
    Property,
    attach_property,
    iter_nodes,
)
from lexitree.xmlio import EncodingProfile

FEATURES = ("fa", "fb", "fc", "fd", "fe", "ff")
# "a\u00a0b": a no-break space is value text, not whitespace to collapse;
# "\u00a0v0" is a value apart from "v0", which the fold must not merge
VALUES = tuple(
    unicodedata.normalize("NFC", v) for v in ("v0", "v1", "v2", "été", "à bas", "", "a\u00a0b", "\u00a0v0")
)
ATTRS = (("type", "see"), ("n", "1"), ("note", 'a "q" &\nb'))

XML_PROFILE = EncodingProfile(FEATURES)


def random_registry(rng: random.Random, with_rules: bool = True) -> FeatureClassRegistry:
    classes = {f: rng.choice(list(FeatureClass)) for f in FEATURES}
    rules = []
    if with_rules:
        governors = [f for f in FEATURES if classes[f] is FeatureClass.OVERWRITING]
        for _ in range(rng.randint(0, 3)):
            if not governors:
                break
            governor = rng.choice(governors)
            dependent = rng.choice([f for f in FEATURES if f != governor])
            rules.append(DependencyRule(dependent, governor, rng.choice(VALUES[:4])))
    return FeatureClassRegistry(classes, rules)


def random_property(rng: random.Random, for_xml: bool) -> Property:
    if rng.random() < 0.08:
        inner = [
            Property(rng.choice(FEATURES), Atomic(rng.choice(VALUES)))
            for _ in range(rng.randint(1, 2))
        ]
        feature = "brack" if for_xml else rng.choice(FEATURES)
        value = Composite(inner)
    else:
        feature = rng.choice(FEATURES)
        value = Atomic(rng.choice(VALUES))
    attrs = ()
    if rng.random() < 0.25:
        attrs = tuple(rng.sample(ATTRS, rng.randint(1, 2)))
    return Property(feature, value, attrs)


def random_alternative(rng: random.Random, for_xml: bool) -> tuple:
    return tuple(random_property(rng, for_xml) for _ in range(rng.randint(1, 2)))


def random_tree(
    rng: random.Random,
    registry: FeatureClassRegistry,
    max_depth: int = 5,
    allow_alts: bool = False,
    for_xml: bool = False,
    depth: int = 0,
) -> Node:
    node = Node()
    for _ in range(rng.randint(0, 4)):
        try:
            node = attach_property(node, random_property(rng, for_xml), registry)
        except OverwriteConflict:
            pass
    groups = []
    if allow_alts and depth > 0 and rng.random() < 0.25:
        groups.append(AltGroup([random_alternative(rng, for_xml) for _ in range(rng.randint(2, 3))]))
    fanout = 0
    if depth < max_depth:
        fanout = rng.choices((0, 1, 2, 3), weights=(40, 30, 20, 10))[0]
    children = [
        random_tree(rng, registry, max_depth, allow_alts, for_xml, depth + 1) for _ in range(fanout)
    ]
    return Node(node.properties, groups, children)


def all_paths(root: Node) -> list[tuple]:
    paths = [()]
    for i, child in enumerate(root.children):
        paths.extend((i,) + rest for rest in all_paths(child))
    return paths


# Hypothesis wrappers: a drawn seed drives the same generators, which keeps a
# single generation code path and reproducible failures.


@st.composite
def tree_with_registry(draw, allow_alts: bool = False, max_depth: int = 4):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    registry = random_registry(rng)
    tree = random_tree(rng, registry, max_depth=max_depth, allow_alts=allow_alts)
    return tree, registry


@st.composite
def xml_trees(draw, max_depth: int = 4):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    registry = random_registry(rng, with_rules=False)
    return random_tree(rng, registry, max_depth=max_depth, allow_alts=True, for_xml=True)


@st.composite
def branching_xml_tree_with_rules(draw, max_depth: int = 4):
    """An XML-bound tree and its registry, redrawn from the seed until the
    tree has a node with two or more children and a local feature and the
    registry has a dependency rule: where a walk hands a parent's state on
    to several children."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        registry = random_registry(rng)
        tree = random_tree(rng, registry, max_depth=max_depth, for_xml=True)
        nodes = [node for _, node in iter_nodes(tree)]
        local = any(
            registry.classes.get(p.feature, registry.default_class) is FeatureClass.LOCAL
            for node in nodes
            for p in node.properties
        )
        if registry.rules and local and any(len(node.children) >= 2 for node in nodes):
            return tree, registry


@st.composite
def tree_with_interleaved_rules(draw, max_depth: int = 4):
    """A tree and a registry redrawn from the seed until two of its rules share
    a governor with a rule of another governor between them, and some rule's
    dependent is cumulative: where rule order differs from governor order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        registry = random_registry(rng)
        governors = [rule.governor for rule in registry.rules]
        interleaved = any(
            governors[i] == governors[k] != governors[j]
            for i in range(len(governors)) for j in range(i + 1, len(governors)) for k in range(j + 1, len(governors))
        )
        cumulative = any(registry.classes[rule.dependent] is FeatureClass.CUMULATIVE for rule in registry.rules)
        if interleaved and cumulative:
            return random_tree(rng, registry, max_depth=max_depth), registry


def rules_text(registry: FeatureClassRegistry) -> str:
    """`registry` as a rules file."""
    lines = [f"class {feature} {cls.value}" for feature, cls in registry.classes.items()]
    lines += [f"dep {r.dependent} {r.governor} {r.required_value}" for r in registry.rules]
    return "\n".join(lines) + "\n"
