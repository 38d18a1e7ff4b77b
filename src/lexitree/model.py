"""Core data model for dictionary-entry trees and the feature propagation engine.

An entry is a tree of nodes. Each node carries an ordered list of properties
(feature-value pairs, values atomic or composite), optional groups of
alternatives, and an ordered list of child nodes. Features belong to one of
three classes that determine how values travel down the tree:

* cumulative: values accumulate along a root-to-node path,
* overwriting: a single value at a time; a deeper value replaces the
  inherited one,
* local: the value holds only at the node that carries it.

Dependency rules tie a dependent feature to a required value of an
overwriting governor feature; overwriting the governor to a different value
blocks inherited values of the dependent.

Everything here is an immutable value; the functions are pure and safe to
call concurrently.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

NodePath = tuple[int, ...]

_FEATURE_NAME_RE = re.compile(r"[a-z0-9][a-z0-9-]*")


class LexitreeError(Exception):
    """Base class for errors raised by this package; the CLI exits with `exit_code`."""

    exit_code = 1


class OverwriteConflict(LexitreeError):
    """An overwriting feature would carry two values at a single node."""

    def __init__(self, feature: "FeatureName", existing: "FeatureValue", new: "FeatureValue"):
        self.feature = feature
        self.existing = existing
        self.new = new
        super().__init__(
            f"overwriting feature {feature!r} already set at this node "
            f"({format_value(existing)!r} vs {format_value(new)!r})"
        )


class PathOutOfRange(LexitreeError):
    """A node path does not resolve inside the tree."""

    def __init__(self, path: Sequence[int], step: int):
        self.path = tuple(path)
        self.step = step
        super().__init__(f"path {format_path(path)} invalid at step {step}")


class UnexpandedAlternatives(LexitreeError):
    """The operation requires a tree with no alternative groups."""

    def __init__(self, path: NodePath):
        self.path = path
        super().__init__(f"node {format_path(path)} still carries alternatives; expand them first")


class FeatureName(str):
    """A feature identifier. Lowercase token of letters, digits, and hyphens.

    Names compare case-insensitively by construction: the lowercase form is
    what gets stored.
    """

    def __new__(cls, name: str) -> "FeatureName":
        if isinstance(name, FeatureName):
            return name
        folded = name.lower()
        if not _FEATURE_NAME_RE.fullmatch(folded):
            raise ValueError(f"invalid feature name {name!r}")
        return super().__new__(cls, folded)


class _Value:
    """Base of the frozen value types: what `@dataclass(frozen=True)` gave them,
    without generating code at import. Field-wise `==`, `hash` and `repr` over
    `_fields`, which the subclass also makes its `__slots__`; no assignment, so
    constructors and subclasses set attributes through `object.__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._get = attrgetter(*cls._fields)  # the field values in one C call; a lone field comes back bare
        cls.__match_args__ = cls._fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == other._get(other)

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self._fields])})"

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self) -> tuple:
        # the (__dict__, slots) pair object.__reduce_ex__ takes from protocol 2 on;
        # pickle protocols 0 and 1 read a slotted value's state only from here
        slots = (n for c in self.__class__.__mro__ for n in c.__dict__.get("__slots__", ()))
        return getattr(self, "__dict__", None), {n: getattr(self, n) for n in slots if hasattr(self, n)}

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore a value without calling its constructor
        for part in state:
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class Atomic(_Value):
    """A plain text feature value. Empty text is allowed (empty source element)."""

    __slots__ = _fields = ("text",)
    text: str

    def __init__(self, text: str):
        object.__setattr__(self, "text", text)


class Composite(_Value):
    """A feature value that is itself an ordered list of properties."""

    __slots__ = _fields = ("properties",)
    properties: tuple["Property", ...]

    def __init__(self, properties: Iterable["Property"] = ()):
        object.__setattr__(self, "properties", tuple(properties))


FeatureValue = Union[Atomic, Composite]


class Property(_Value):
    """One feature-value pair, plus carried-verbatim attributes.

    Attributes never take part in propagation decisions; they ride along with
    the property wherever it goes.
    """

    __slots__ = _fields = ("feature", "value", "attrs")
    feature: FeatureName
    value: FeatureValue
    attrs: tuple[tuple[str, str], ...]

    def __init__(
        self,
        feature: FeatureName | str,
        value: FeatureValue | str,
        attrs: Iterable[tuple[str, str]] = (),
    ):
        object.__setattr__(self, "feature", FeatureName(feature))
        if isinstance(value, str):
            value = Atomic(value)
        object.__setattr__(self, "value", value)
        if attrs:
            attrs = tuple((str(k), str(v)) for k, v in attrs)
            names = [k for k, _ in attrs]
            if len(names) != len(set(names)):
                raise ValueError(f"duplicate attribute names on {self.feature!r}: {names}")
            for name in names:
                if not name or any(c.isspace() for c in name):
                    raise ValueError(f"bad attribute name {name!r} on {self.feature!r}")
        object.__setattr__(self, "attrs", tuple(attrs))


class AltGroup(_Value):
    """Parallel alternatives: at least two, each a nonempty property bundle."""

    __slots__ = _fields = ("alternatives",)
    alternatives: tuple[tuple[Property, ...], ...]

    def __init__(self, alternatives: Iterable[Iterable[Property]]):
        alts = tuple(tuple(a) for a in alternatives)
        if len(alts) < 2:
            raise ValueError("an alternative group needs at least two alternatives")
        if any(not a for a in alts):
            raise ValueError("alternatives must be nonempty")
        object.__setattr__(self, "alternatives", alts)


class Node(_Value):
    """One partition of an entry's lexical space.

    A node is a leaf when it has no children. The node-local constraint that
    an overwriting feature appears at most once is registry-relative, so it is
    enforced by attach_property / check_consistency rather than here.
    """

    __slots__ = _fields = ("properties", "alt_groups", "children")
    properties: tuple[Property, ...]
    alt_groups: tuple[AltGroup, ...]
    children: tuple["Node", ...]

    def __init__(
        self,
        properties: Iterable[Property] = (),
        alt_groups: Iterable[AltGroup] = (),
        children: Iterable["Node"] = (),
    ):
        object.__setattr__(self, "properties", tuple(properties))
        object.__setattr__(self, "alt_groups", tuple(alt_groups))
        object.__setattr__(self, "children", tuple(children))

    def is_leaf(self) -> bool:
        return not self.children

    # Equality, hash and repr with _Value's field-wise semantics, read off one
    # _preorder walk: _Value's own recurse and fail on deep trees. A tree is
    # fixed by its preorder sequence of (class, properties, alt_groups, child
    # count); no tree's sequence is a proper prefix of another's, so zip never
    # stops early on two different trees.

    def _shape(self) -> Iterator[tuple]:
        return ((n.__class__, n.properties, n.alt_groups, len(n.children)) for _, _, n in _preorder(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in zip(self._shape(), other._shape()))

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def __repr__(self) -> str:
        parts: list[str] = []
        closers: list[str] = []  # the closing text of each node the walk is inside
        for depth, index, node in _preorder(self):
            while len(closers) > depth:  # the walk left those nodes' depth
                parts.append(closers.pop())
            if index:
                parts.append(", ")
            parts.append(
                f"{node.__class__.__qualname__}(properties={node.properties!r}, "
                f"alt_groups={node.alt_groups!r}, children=("
            )
            closers.append(",))" if len(node.children) == 1 else "))")
        parts.extend(reversed(closers))
        return "".join(parts)


class FeatureClass(Enum):
    CUMULATIVE = "cum"
    OVERWRITING = "over"
    LOCAL = "loc"


class DependencyRule(_Value):
    """`dependent` is licensed only while `governor` effectively equals `required_value`.

    Governors must be overwriting features; the rule blocks inherited values
    of the dependent the moment the governor is overwritten to anything else.
    """

    __slots__ = _fields = ("dependent", "governor", "required_value")
    dependent: FeatureName
    governor: FeatureName
    required_value: str

    def __init__(self, dependent: FeatureName | str, governor: FeatureName | str, required_value: str):
        object.__setattr__(self, "dependent", FeatureName(dependent))
        object.__setattr__(self, "governor", FeatureName(governor))
        object.__setattr__(self, "required_value", required_value)


class FeatureClassRegistry(_Value):
    """Feature classifications plus dependency rules.

    Unregistered features fall back to `default_class` (local by default:
    the inert choice; a warning goes to the `lexitree.model` logger the first
    time such a feature is seen so silently non-propagating data does not go
    unnoticed). `logging` is imported on that first warning.
    """

    __slots__ = ("classes", "rules", "default_class", "_warned")
    _fields = ("classes", "rules", "default_class")  # _warned is neither compared nor shown
    classes: Mapping[FeatureName, FeatureClass]
    rules: tuple[DependencyRule, ...]
    default_class: FeatureClass

    def __init__(
        self,
        classes: Mapping[FeatureName | str, FeatureClass] | Iterable[tuple[FeatureName | str, FeatureClass]] = (),
        rules: Iterable[DependencyRule] = (),
        default_class: FeatureClass = FeatureClass.LOCAL,
    ):
        items = classes.items() if isinstance(classes, Mapping) else classes
        mapping = {FeatureName(f): c for f, c in items}
        rules = tuple(rules)
        for rule in rules:
            if mapping.get(rule.governor) is not FeatureClass.OVERWRITING:
                raise ValueError(
                    f"dependency rule governor {rule.governor!r} is not an overwriting feature"
                )
        object.__setattr__(self, "classes", mapping)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "default_class", default_class)
        object.__setattr__(self, "_warned", set())

    def classify(self, feature: FeatureName | str) -> FeatureClass:
        feature = FeatureName(feature)
        cls = self.classes.get(feature)
        if cls is not None:
            return cls
        if feature not in self._warned:
            self._warned.add(feature)
            import logging  # here, not at the top: importing it slows every process start
            logging.getLogger(__name__).warning(
                "feature %r is not registered; treating it as %s", str(feature), self.default_class.value
            )
        return self.default_class


class EffectiveFeatureSet(_Value):
    """All properties holding at one node along one root-to-node path.

    `depths[i]` is the depth (0 = root) of the node that contributed
    `entries[i]`. Cumulative entries sit in ancestor-first order; an
    overwriting feature occurs at most once; local entries always carry the
    endpoint's depth.
    """

    __slots__ = _fields = ("entries", "depths")
    entries: tuple[Property, ...]
    depths: tuple[int, ...]

    def __init__(self, entries: Iterable[Property], depths: Iterable[int]):
        entries = tuple(entries)
        depths = tuple(depths)
        if len(entries) != len(depths):
            raise ValueError("entries and depths must have equal length")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "depths", depths)

    def __iter__(self) -> Iterator[Property]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> Iterator[tuple[Property, int]]:
        return iter(zip(self.entries, self.depths))

    def values(self, feature: FeatureName | str) -> tuple[FeatureValue, ...]:
        feature = FeatureName(feature)
        return tuple(p.value for p in self.entries if p.feature == feature)


# ---------------------------------------------------------------------------
# Violations reported by check_consistency


class OverwriteViolation(_Value):
    """Two occurrences of one overwriting feature at a single node."""

    __slots__ = _fields = ("path", "feature", "existing", "conflicting")
    path: NodePath
    feature: FeatureName
    existing: FeatureValue
    conflicting: FeatureValue

    def __init__(self, path: NodePath, feature: FeatureName, existing: FeatureValue, conflicting: FeatureValue):
        for name, value in zip(self._fields, (path, feature, existing, conflicting)):
            object.__setattr__(self, name, value)

    def describe(self) -> str:
        return (
            f"{format_path(self.path)}: overwriting feature {str(self.feature)!r} appears twice "
            f"({format_value(self.existing)!r} vs {format_value(self.conflicting)!r})"
        )


class DependencyViolation(_Value):
    """A dependent feature attached where its governor's effective value is wrong."""

    __slots__ = _fields = ("path", "dependent", "governor", "required_value", "actual_value")
    path: NodePath
    dependent: FeatureName
    governor: FeatureName
    required_value: str
    actual_value: str

    def __init__(self, path: NodePath, dependent: FeatureName, governor: FeatureName, required_value: str, actual_value: str):
        for name, value in zip(self._fields, (path, dependent, governor, required_value, actual_value)):
            object.__setattr__(self, name, value)

    def describe(self) -> str:
        return (
            f"{format_path(self.path)}: feature {str(self.dependent)!r} requires "
            f"{str(self.governor)!r}={self.required_value!r} but the effective value "
            f"is {self.actual_value!r}"
        )


Violation = Union[OverwriteViolation, DependencyViolation]


# ---------------------------------------------------------------------------
# Value comparison

def normalize_text(text: str) -> str:
    """NFC-normalize and trim. The comparison form for atomic values."""
    return unicodedata.normalize("NFC", text).strip()


def _value_key(value: FeatureValue) -> str | tuple:
    """The comparison form of a value: normalized text for an atomic value, a
    tuple of (feature, attrs, key) for a composite. Two values are equal
    exactly when their keys are."""
    if isinstance(value, Atomic):
        return normalize_text(value.text)
    return tuple((p.feature, p.attrs, _value_key(p.value)) for p in value.properties)


def values_equal(a: FeatureValue, b: FeatureValue) -> bool:
    """Structural value equality with normalized atomic text."""
    return _value_key(a) == _value_key(b)


def format_value(value: FeatureValue) -> str:
    """Render a value for listings: atomic text, or `[f : v, ...]` for composites."""
    if isinstance(value, Atomic):
        return value.text
    inner = ", ".join(f"{str(p.feature)} : {format_value(p.value)}" for p in value.properties)
    return f"[{inner}]"


# ---------------------------------------------------------------------------
# Tree access

def format_path(path: Sequence[int]) -> str:
    """Dotted 0-based child indices, or "(root)" for the empty path."""
    return ".".join(map(str, path)) or "(root)"


def _chain(root: Node, path: Sequence[int]) -> list[Node]:
    """The nodes from the root to the endpoint of `path`, as resolve_path finds it."""
    chain = [root]
    node = root
    for step, index in enumerate(path):
        if not 0 <= index < len(node.children):
            raise PathOutOfRange(path, step)
        node = node.children[index]
        chain.append(node)
    return chain


def resolve_path(root: Node, path: Sequence[int]) -> Node:
    """Follow child indices from the root; raise PathOutOfRange on a bad step."""
    return _chain(root, path)[-1]


def _preorder(root: Node) -> Iterator[tuple[int, int, Node]]:
    """Yield (depth, index, node) in document (preorder) order, where `index`
    is the node's position among its siblings (0 for the root)."""
    stack: list[tuple[int, int, Node]] = [(0, 0, root)]
    while stack:
        depth, index, node = stack.pop()
        yield depth, index, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((depth + 1, i, node.children[i]))


def iter_nodes(root: Node) -> Iterator[tuple[NodePath, Node]]:
    """Yield (path, node) pairs in document (preorder) order. Each path is a
    fresh tuple, O(depth) per node; a walk that reports no paths reads `_preorder`."""
    path: list[int] = []
    for depth, index, node in _preorder(root):
        if depth:
            path[depth - 1:] = (index,)
        yield tuple(path), node


def _require_alt_free(root: Node) -> None:
    """Raise UnexpandedAlternatives at the first node in document order that has alternatives."""
    path: list[int] = []
    for depth, index, node in _preorder(root):
        if depth:
            path[depth - 1:] = (index,)
        if node.alt_groups:
            raise UnexpandedAlternatives(tuple(path))


# ---------------------------------------------------------------------------
# Operations

def attach_property(node: Node, prop: Property, registry: FeatureClassRegistry) -> Node:
    """Return `node` with `prop` appended.

    Rejects a second occurrence of an overwriting feature at the node, which
    keeps node-local value uniqueness enforced at build time.
    """
    if registry.classify(prop.feature) is FeatureClass.OVERWRITING:
        for existing in node.properties:
            if existing.feature == prop.feature:
                raise OverwriteConflict(prop.feature, existing.value, prop.value)
    return Node(node.properties + (prop,), node.alt_groups, node.children)


# The propagation state at a node maps a key to (property, contributing
# depth, value key), in effective order. An overwriting entry's key is its
# feature, so a deeper value replaces it by lookup; a cumulative entry's key
# is (feature, attrs, value key), so an exact duplicate is a key already
# present; a local entry's key is its index in the node's property list.
_State = dict[object, tuple[Property, int, object]]


def _fold(
    state: _State, node: Node, depth: int, registry: FeatureClassRegistry,
    doubled: list[tuple[Property, Property]] | None = None,
) -> list[int]:
    """Fold one node's properties onto the state it inherits, in place, as
    `effective_set` describes; return the keys of the node's local entries,
    which its children drop. A second occurrence of an overwriting feature at
    the node raises OverwriteConflict, or is skipped and appended to `doubled`
    as (first, second) when that list is given.
    """
    local_keys: list[int] = []
    seen_here: dict[FeatureName, Property] = {}
    for index, prop in enumerate(node.properties):
        feature = prop.feature
        cls = registry.classify(feature)
        if cls is FeatureClass.LOCAL:
            state[index] = (prop, depth, None)
            local_keys.append(index)
            continue
        key = _value_key(prop.value)
        if cls is FeatureClass.CUMULATIVE:
            state.setdefault((feature, prop.attrs, key), (prop, depth, key))
            continue
        if feature in seen_here:
            if doubled is None:
                raise OverwriteConflict(feature, seen_here[feature].value, prop.value)
            doubled.append((seen_here[feature], prop))
            continue
        seen_here[feature] = prop
        inherited = state.get(feature)
        if inherited is not None:
            if inherited[2] == key and inherited[0].attrs == prop.attrs:
                continue  # value already in force; nothing is overwritten
            del state[feature]
        state[feature] = (prop, depth, key)
        for rule in registry.rules:
            if rule.governor == feature and key != normalize_text(rule.required_value):
                for blocked in [k for k, e in state.items() if e[0].feature == rule.dependent and e[1] < depth]:
                    del state[blocked]
    return local_keys


def _walk(root: Node, registry: FeatureClassRegistry) -> Iterator[tuple[list[int], Node, _State, list]]:
    """Yield (path, node, state, doubled) for every node in document order,
    where `doubled` lists the node's doubled overwriting features as `_fold`
    does. The walk raises nothing and ignores alternative groups.

    Each node is folded once, onto its parent's state less the parent's local
    entries; the last child takes that state over, earlier siblings get copies.
    `path` and `state` are updated in place and hold only until the walk
    resumes. Only `check_consistency` and `_effective_lists` read it.
    """
    path: list[int] = []
    stack: list[tuple[int, int, Node, _State, list[int]]] = [(0, 0, root, {}, [])]
    while stack:
        depth, index, node, state, dropped = stack.pop()
        if depth:
            path[depth - 1:] = (index,)
        for key in dropped:
            del state[key]
        doubled: list[tuple[Property, Property]] = []
        local_keys = _fold(state, node, depth, registry, doubled)
        yield path, node, state, doubled
        last = len(node.children) - 1
        for i in range(last, -1, -1):
            stack.append((depth + 1, i, node.children[i], state if i == last else dict(state), local_keys))


def _effective_lists(root: Node, registry: FeatureClassRegistry, leaves_only: bool = False) -> Iterator[tuple]:
    """The strict entry to `_walk`: yield (path, node, properties) for every
    node, or every leaf when `leaves_only`; `path` holds as in `_walk`, and
    `properties` is a fresh list of the node's effective set. Alternatives
    anywhere raise UnexpandedAlternatives before any node is folded, then the
    first doubled overwriting feature raises OverwriteConflict."""
    _require_alt_free(root)
    for path, node, state, doubled in _walk(root, registry):
        if doubled:
            first, second = doubled[0]
            raise OverwriteConflict(second.feature, first.value, second.value)
        if not (leaves_only and node.children):
            yield path, node, [entry[0] for entry in state.values()]


def effective_set(
    root: Node, path: Sequence[int], registry: FeatureClassRegistry
) -> EffectiveFeatureSet:
    """Compute the feature set holding at the endpoint of `path`.

    The walk visits root through endpoint and folds each node's properties in
    document order:

    * cumulative values append, with exact duplicates (feature, value, attrs)
      collapsed onto their first occurrence;
    * an overwriting value replaces the inherited entry for its feature and
      moves it to the overwriting node's position; re-specifying the value
      already in force is a no-op. Every effective (non-no-op) assignment
      whose value differs from a dependency rule's required value evicts the
      inherited entries of that rule's dependent feature;
    * local values appear only when the contributing node is the endpoint.

    Raises PathOutOfRange for an unresolvable path and OverwriteConflict when
    a visited node doubles up an overwriting feature.
    """
    state: _State = {}
    local_keys: list[int] = []
    for depth, current in enumerate(_chain(root, path)):
        for key in local_keys:
            del state[key]
        local_keys = _fold(state, current, depth, registry)
    entries = state.values()
    return EffectiveFeatureSet([e[0] for e in entries], [e[1] for e in entries])


def check_consistency(root: Node, registry: FeatureClassRegistry) -> list[Violation]:
    """Report constraint violations anywhere in the tree.

    Two kinds are checked: an overwriting feature carrying two values at one
    node, and a dependent feature attached at a node whose governor's
    effective value is present but different from the rule's required value.
    A governor with no effective value at all, because it was never set or
    because a rule blocked it, is not reported; there is no value to
    contradict.
    """
    violations: list[Violation] = []
    for path, node, state, doubled in _walk(root, registry):
        for first, second in doubled:
            violations.append(OverwriteViolation(tuple(path), second.feature, first.value, second.value))
        for rule in registry.rules:
            governor = state.get(rule.governor)
            if governor is None or governor[2] == normalize_text(rule.required_value):
                continue
            for prop in node.properties:
                if prop.feature == rule.dependent:
                    violations.append(DependencyViolation(
                        tuple(path), rule.dependent, rule.governor, rule.required_value, format_value(governor[0].value)
                    ))
    return violations


def enumerate_traversals(root: Node) -> list[NodePath]:
    """One path per leaf, in left-to-right document order.

    The tree must contain no alternative groups; expand them first.
    """
    _require_alt_free(root)
    return [path for path, node in iter_nodes(root) if node.is_leaf()]


def partial_traversals(root: Node) -> list[NodePath]:
    """One path per node, root and leaves included, in document order."""
    _require_alt_free(root)
    return [path for path, _ in iter_nodes(root)]
