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
from copyreg import _slotnames
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union
from unicodedata import normalize

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
    `_fields`, which the subclass makes its `__slots__`, with any private slots
    more caching what the fields determine. The one constructor path is
    `__init__`, which takes the fields positionally, one value each; a subclass
    checks or converts its arguments and hands them on. No assignment after that."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._get = attrgetter(*cls._fields)  # the field values in one C call; a lone field comes back bare
        cls.__match_args__ = cls._fields

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):  # a missing or extra value raises
            object.__setattr__(self, name, value)

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
        # the (__dict__, slots) pair object.__reduce_ex__ takes from protocol 2 on, with
        # every set slot of the value's classes as it lists them; pickle protocols 0
        # and 1 read a slotted value's state only from here
        names = _slotnames(self.__class__)
        return getattr(self, "__dict__", None), {n: getattr(self, n) for n in names if hasattr(self, n)}

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore a value without calling its constructor
        for part in state:
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class Atomic(_Value):
    """A plain text feature value. Empty text is allowed (empty source element).
    It holds `normalize_text(text)`: what it compares by and its XML reads back as."""

    __slots__ = _fields = ("text",)
    text: str

    def __init__(self, text: str):
        super().__init__(normalize_text(text))


class Composite(_Value):
    """A feature value that is itself an ordered list of properties."""

    __slots__ = _fields = ("properties",)
    properties: tuple["Property", ...]

    def __init__(self, properties: Iterable["Property"] = ()):
        super().__init__(tuple(properties))


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
        feature = FeatureName(feature)
        if attrs:
            attrs = tuple((str(k), str(v)) for k, v in attrs)
            names = [k for k, _ in attrs]
            if len(names) != len(set(names)):
                raise ValueError(f"duplicate attribute names on {feature!r}: {names}")
            for name in names:
                if not name or any(c.isspace() for c in name):
                    raise ValueError(f"bad attribute name {name!r} on {feature!r}")
        super().__init__(feature, Atomic(value) if isinstance(value, str) else value, tuple(attrs))


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
        super().__init__(alts)


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
        # set here, not through _Value.__init__: expand and materialize build one Node per node
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
    `required_value` is held canonical (`normalize_text`), as an `Atomic`'s text is.
    """

    __slots__ = _fields = ("dependent", "governor", "required_value")
    dependent: FeatureName
    governor: FeatureName
    required_value: str

    def __init__(self, dependent: FeatureName | str, governor: FeatureName | str, required_value: str):
        super().__init__(FeatureName(dependent), FeatureName(governor), normalize_text(required_value))


class _Classes(dict):
    """A registry's `classes`, fixed when it is built: a missing FeatureName reads as `default`,
    the registry's `default_class`, and any other name is folded first, so `__getitem__` classifies."""

    def __missing__(self, feature: FeatureName | str) -> FeatureClass:
        return self.default if isinstance(feature, FeatureName) else self[FeatureName(feature)]

    def __reduce__(self) -> tuple:  # copy and pickle rebuild it whole; dict's own way sets each item
        return self.__class__, (dict(self),), self.__dict__

    def _refuse(self, *_: object, **__: object) -> None:
        raise TypeError("a registry's classes are fixed when it is built")

    __setitem__ = __delitem__ = __setattr__ = __delattr__ = update = setdefault = pop = popitem = clear = __ior__ = _refuse


class FeatureClassRegistry(_Value):
    """Feature classifications plus dependency rules. A feature missing from
    `classes` falls back to `default_class`, local by default: the inert choice.
    `unregistered_features` lists a tree's features that fall back. `_table`
    holds each governor's (dependent, required value) pairs, in rule order."""

    _fields = ("classes", "rules", "default_class")
    __slots__ = (*_fields, "_table")
    classes: Mapping[FeatureName, FeatureClass]
    rules: tuple[DependencyRule, ...]
    default_class: FeatureClass

    def __init__(
        self,
        classes: Mapping[FeatureName | str, FeatureClass] | Iterable[tuple[FeatureName | str, FeatureClass]] = (),
        rules: Iterable[DependencyRule] = (),
        default_class: FeatureClass = FeatureClass.LOCAL,
    ):
        mapping = _Classes({FeatureName(f): c for f, c in dict(classes).items()})
        object.__setattr__(mapping, "default", default_class)
        rules = tuple(rules)
        table: dict[FeatureName, list[tuple[FeatureName, str]]] = {}
        for rule in rules:
            if mapping.get(rule.governor) is not FeatureClass.OVERWRITING:
                raise ValueError(
                    f"dependency rule governor {rule.governor!r} is not an overwriting feature"
                )
            table.setdefault(rule.governor, []).append((rule.dependent, rule.required_value))
        super().__init__(mapping, rules, default_class)
        object.__setattr__(self, "_table", table)  # `rules` is a tuple, so it cannot go stale

    @property
    def classify(self) -> Callable[[FeatureName | str], FeatureClass]:
        """The class of a feature, or `default_class`; a name that is not a FeatureName
        is folded first. A property: a subclass may override it with a method."""
        return self.classes.__getitem__


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
        super().__init__(entries, depths)

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
    """The canonical text of an `Atomic` and of a rule's required value, the
    form its XML encoding reads back as: NFC, each run of XML whitespace (space,
    tab, CR, LF) one space, the ends trimmed. U+00A0, the other spaces and the
    control characters are text."""
    # text with no doubled, leading or trailing space and no tab, LF or CR (none if printable) needs at most NFC
    if ("  " in text or text.strip(" ") != text
            or not text.isprintable() and ("\t" in text or "\n" in text or "\r" in text)):
        return re.sub("[ \t\n\r]+", " ", normalize("NFC", text)).strip(" ")
    return text if text.isascii() else normalize("NFC", text)


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
    try:
        for index in path:
            if index < 0:  # read from the end of the list, it would name another node
                raise IndexError
            node = node.children[index]
            chain.append(node)
    except IndexError:
        raise PathOutOfRange(path, len(chain) - 1) from None  # the step that failed
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


def _paths(root: Node) -> Iterator[tuple[list[int], Node]]:
    """Yield (path, node) pairs as `iter_nodes` does, but `path` is one list, updated in place."""
    path: list[int] = []
    for depth, index, node in _preorder(root):
        if depth:
            path[depth - 1:] = (index,)
        yield path, node


def iter_nodes(root: Node) -> Iterator[tuple[NodePath, Node]]:
    """Yield (path, node) pairs in document (preorder) order. Each path is a
    fresh tuple, O(depth) per node; a walk that keeps few paths reads `_paths`."""
    return ((tuple(path), node) for path, node in _paths(root))


def _tree_properties(root: Node) -> list[Property]:
    """Each node's properties, then its alternatives', in document order; a `brack`'s contents are left out."""
    props: list[Property] = []
    for _, _, node in _preorder(root):
        props += node.properties
        for group in node.alt_groups:
            for alternative in group.alternatives:
                props += alternative
    return props


def _require_alt_free(root: Node) -> None:
    """Raise UnexpandedAlternatives at the first node in document order that has alternatives."""
    if any(node.alt_groups for _, _, node in _preorder(root)):
        raise UnexpandedAlternatives(next(tuple(path) for path, node in _paths(root) if node.alt_groups))


# ---------------------------------------------------------------------------
# Operations

def unregistered_features(root: Node, registry: FeatureClassRegistry) -> list[FeatureName]:
    """The features of node properties and alternatives missing from `registry.classes`, each
    once, in document order; a `brack` bundle's contents, never classified, are left out."""
    classes = registry.classes
    return list(dict.fromkeys([p.feature for p in _tree_properties(root) if p.feature not in classes]))


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
# depth, value key), in effective order. A value key is an atomic value's text
# (a plain `Atomic` is told by its class first: isinstance alone costs every
# query) and any other value itself. An overwriting entry's key is its
# feature, so a deeper value replaces it by lookup; a cumulative entry's key
# is (feature, attrs, value key), so an exact duplicate is a key already
# present; a local entry's key is its index in the node's property list.
_State = dict[object, tuple[Property, int, object]]

_LOCAL, _CUMULATIVE = FeatureClass.LOCAL, FeatureClass.CUMULATIVE  # an Enum member lookup is slow


def _fold(
    state: _State, nodes: Sequence[Node], depth: int, classify: Callable[[FeatureName], FeatureClass], table: dict,
    doubled: list[tuple[FeatureName, FeatureValue, FeatureValue]],
) -> list[int]:
    """Fold `nodes`, a chain from a node at `depth` down to a descendant, onto
    the state its first node inherits, in place, as `effective_set` describes;
    return the keys of the last node's local entries, which its children drop.
    `classify` runs once per property, in order; ancestors' local entries are
    then skipped. An overwrite reads its feature's rules from `table` (a registry's `_table`). A doubled
    overwriting feature is skipped and appended to `doubled` as OverwriteConflict's arguments."""
    local_keys: list[int] = []
    endpoint = nodes[-1]
    for node in nodes:
        seen_here: dict[FeatureName, FeatureValue] | None = None  # first values, made at the node's first overwrite
        for index, prop in enumerate(node.properties):
            feature = prop.feature
            cls = classify(feature)
            if cls is _LOCAL:
                if node is endpoint:
                    state[index] = (prop, depth, None)
                    local_keys.append(index)
                continue
            value = prop.value
            key = value.text if value.__class__ is Atomic or isinstance(value, Atomic) else value
            if cls is _CUMULATIVE:
                state.setdefault((feature, prop.attrs, key), (prop, depth, key))
                continue
            if seen_here is None:
                seen_here = {}
            elif feature in seen_here:
                doubled.append((feature, seen_here[feature], value))
                continue
            seen_here[feature] = value
            inherited = state.get(feature)
            if inherited is not None:
                if inherited[2] == key and inherited[0].attrs == prop.attrs:
                    continue  # value already in force; nothing is overwritten
                del state[feature]
            state[feature] = (prop, depth, key)
            for dependent, required in table.get(feature, ()):
                if key != required:
                    for blocked in [k for k, e in state.items() if e[0].feature == dependent and e[1] < depth]:
                        del state[blocked]
        depth += 1
    return local_keys


def _walk(root: Node, registry: FeatureClassRegistry) -> Iterator[tuple[list[int], Node, _State, list]]:
    """Yield (path, node, state, doubled) for every node in document order,
    where `doubled` lists the node's doubled overwriting features as `_fold`
    does. The walk raises nothing and ignores alternative groups.

    Each node is folded once, onto its parent's state, and drops its local
    entries when the walk resumes; its last child takes that state over, earlier
    siblings get copies. `path` and `state` are updated in place and hold only
    until the walk resumes. Only `check_consistency` and `_effective_lists` read it.
    """
    classify, table = registry.classify, registry._table
    path: list[int] = []
    stack: list[tuple[int, int, Node, _State]] = [(0, 0, root, {})]
    while stack:
        depth, index, node, state = stack.pop()
        if depth:
            path[depth - 1:] = (index,)
        doubled: list[tuple[FeatureName, FeatureValue, FeatureValue]] = []
        local_keys = _fold(state, (node,), depth, classify, table, doubled)
        yield path, node, state, doubled
        for key in local_keys:
            del state[key]
        last = len(node.children) - 1
        for i in range(last, -1, -1):
            stack.append((depth + 1, i, node.children[i], state if i == last else dict(state)))


def _effective_lists(root: Node, registry: FeatureClassRegistry, leaves_only: bool = False) -> Iterator[tuple]:
    """The strict entry to `_walk`: yield (path, node, properties) for every
    node, or every leaf when `leaves_only`; `path` holds as in `_walk`, and
    `properties` is the node's effective set, a tuple of the tree's own Property
    objects. Alternatives anywhere raise UnexpandedAlternatives before any node
    is folded, then the first doubled overwriting feature raises OverwriteConflict."""
    _require_alt_free(root)
    for path, node, state, doubled in _walk(root, registry):
        if doubled:
            raise OverwriteConflict(*doubled[0])
        if not (leaves_only and node.children):
            # from a list, at its size: tuple(map(...)) would grow one per node and leave it in a free list
            yield path, node, tuple([*map(itemgetter(0), state.values())])


def effective_set(
    root: Node, path: Sequence[int], registry: FeatureClassRegistry
) -> EffectiveFeatureSet:
    """Compute the feature set holding at the endpoint of `path`.

    The path is resolved in full first, so PathOutOfRange for a bad step comes
    before OverwriteConflict, which the first doubled overwriting feature on
    the path raises once the fold is done. One `_fold` call folds root through
    endpoint, each node's properties in document order:

    * cumulative values append, with exact duplicates (feature, value, attrs)
      collapsed onto their first occurrence;
    * an overwriting value replaces the inherited entry for its feature and
      moves it to the overwriting node's position; re-specifying the value
      already in force is a no-op. Every effective (non-no-op) assignment
      whose value differs from a dependency rule's required value evicts the
      inherited entries of that rule's dependent feature;
    * local values appear only when the contributing node is the endpoint.
    """
    state: _State = {}
    doubled: list[tuple[FeatureName, FeatureValue, FeatureValue]] = []
    _fold(state, _chain(root, path), 0, registry.classify, registry._table, doubled)
    if doubled:
        raise OverwriteConflict(*doubled[0])
    result = object.__new__(EffectiveFeatureSet)
    entries, depths, _ = zip(*state.values()) if state else ((), (), ())
    object.__setattr__(result, "entries", entries)
    object.__setattr__(result, "depths", depths)
    return result


def check_consistency(root: Node, registry: FeatureClassRegistry) -> list[Violation]:
    """Report constraint violations anywhere in the tree.

    Two kinds are checked: an overwriting feature carrying two values at one
    node, and a dependent feature attached at a node whose governor's
    effective value is present but different from the rule's required value.
    A governor with no effective value at all, because it was never set or
    because a rule blocked it, is not reported; there is no value to
    contradict. A node's violations come in rule order, then property order.
    """
    violations: list[Violation] = []
    for path, node, state, doubled in _walk(root, registry):
        for each in doubled:
            violations.append(OverwriteViolation(tuple(path), *each))
        for rule in registry.rules:
            governor = state.get(rule.governor)
            if governor is None or governor[2] == rule.required_value:
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
    return [tuple(path) for path, node in _paths(root) if node.is_leaf()]


def partial_traversals(root: Node) -> list[NodePath]:
    """One path per node, root and leaves included, in document order."""
    _require_alt_free(root)
    return [tuple(path) for path, _ in _paths(root)]
