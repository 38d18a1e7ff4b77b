"""Reading and writing the XML encoding of entry trees.

The encoding has four structural elements: `dict` (an optional wrapper,
always emitted), `struc` (a tree node, the only element that carries
structure), `alt` (parallel alternatives; consecutive `alt` siblings form one
group), and `brack` (a grouping property whose value is a one-level bundle of
feature elements). Every other element is a base element naming a feature;
its text is the value and its XML attributes are carried verbatim.

Which element may open inside which is one table, `_CONTENT`, that also
holds the refusal for the rest. Parsing is lenient by default: unknown
elements become atomic properties and misplaced ones are skipped, each with
a warning, so real dictionary data with extra tags degrades gracefully.
With `strict` set on the profile they abort the parse instead.

Serialization produces one canonical form: an XML declaration, a `dict`
wrapper, two-space indentation, one element per line, and NFC-normalized
text. Parsing that form yields the original tree; trees that came from a
parse re-serialize byte-identically. Two caveats follow from the encoding
itself: adjacent alternative groups cannot be told apart (they re-parse as
one group), and `gender` is accepted on input as an alias that canonicalizes
to `gen`. Neither parsing nor writing recurses, so nesting depth is bounded
by memory alone.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable
from xml.parsers import expat

from .model import (
    AltGroup,
    Atomic,
    Composite,
    FeatureName,
    LexitreeError,
    Node,
    Property,
)

DEFAULT_BASE_ELEMENTS = frozenset(
    FeatureName(name)
    for name in (
        "orth", "pron", "hyph", "syll", "stress", "pos", "gen", "case",
        "number", "gram", "tns", "mood", "usg", "time", "register", "geo",
        "domain", "style", "def", "eg", "etym", "xr", "trans", "itype",
        # variants that show up in real entry data
        "ex", "gender", "plural",
    )
)

_STRUCTURAL = ("struc", "alt", "brack", "dict")

# accepted on input, canonicalized on parse
_FEATURE_ALIASES = {"gender": "gen"}


@dataclass(frozen=True)
class EncodingProfile:
    """Which element names map to features, and how forgiving parsing is."""

    base_elements: frozenset[FeatureName] = DEFAULT_BASE_ELEMENTS
    strict: bool = False

    def __init__(self, base_elements: Iterable[FeatureName | str] = DEFAULT_BASE_ELEMENTS, strict: bool = False):
        names = frozenset(FeatureName(n) for n in base_elements)
        if not names:
            raise ValueError("a profile needs at least one base element")
        for reserved in _STRUCTURAL:
            if reserved in names:
                raise ValueError(f"{reserved!r} is a structural element, not a base element")
        for name in names:
            if name[0].isdigit():
                raise ValueError(f"base element {str(name)!r} is not a valid XML name")
        object.__setattr__(self, "base_elements", names)
        object.__setattr__(self, "strict", strict)


DEFAULT_PROFILE = EncodingProfile()


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "warning" or "error"
    line: int
    column: int
    message: str

    def describe(self) -> str:
        return f"{self.severity}: line {self.line}, column {self.column}: {self.message}"


class ParseError(LexitreeError):
    exit_code = 2

    def __init__(self, diagnostic: ParseDiagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.describe())


class XmlMalformed(ParseError):
    pass


class UnknownElement(ParseError):
    pass


class MultipleRoots(ParseError):
    pass


class SerializeError(LexitreeError):
    pass


class UnknownFeature(SerializeError):
    def __init__(self, feature: FeatureName):
        self.feature = feature
        super().__init__(f"feature {str(feature)!r} has no base element in the profile")


def _collapse(text: str) -> str:
    """Trim and collapse internal whitespace runs; source text is typeset noisily."""
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Parsing

# The content model. For the kind of the open element (None at document
# level), the kinds of child element it allows and the refusal for the rest.
# A feature element's kind is "". Markup inside a feature element is not
# refused but flattened into its text.
_CONTENT: dict[str | None, tuple[frozenset[str], str]] = {
    None: (frozenset({"dict", "struc"}), "document element must be <dict> or <struc>, not <{tag}>"),
    "dict": (frozenset({"struc"}), "unexpected <{tag}> directly inside <dict>"),
    "struc": (frozenset({"struc", "alt", "brack", ""}), "nested <dict> is not allowed"),
    "alt": (frozenset({"brack", ""}), "<{tag}> is not allowed inside <alt>"),
    "brack": (frozenset({""}), "<{tag}> is not allowed inside <brack>; only one level of feature elements"),
}


class _Frame:
    """One open element: `kind` is "dict", "struc", "alt", "brack", or "" for
    a feature element.

    `props` collects the properties of a struc, alt or brack; `children` the
    nodes of a struc or dict; `groups` and `alt_run` a struc's alternative
    groups and the run of `alt` siblings still open; `chunks` a feature
    element's text. `flatten` counts the markup open inside a feature element.
    """

    __slots__ = ("kind", "feature", "attrs", "props", "groups", "children", "alt_run", "chunks", "flatten",
                 "warned_text")

    def __init__(self, kind: str, attrs: tuple[tuple[str, str], ...] = (), feature: FeatureName | None = None):
        self.kind = kind
        self.feature = feature
        self.attrs = attrs
        self.props: list[Property] = []
        self.groups: list[AltGroup] = []
        self.children: list[Node] = []
        self.alt_run: list[tuple[Property, ...]] = []
        self.chunks: list[str] = []
        self.flatten = 0
        self.warned_text = False


class _Parser:
    def __init__(self, profile: EncodingProfile):
        self.profile = profile
        self.diagnostics: list[ParseDiagnostic] = []
        self.stack: list[_Frame] = []
        self.result: Node | None = None
        self.skip_depth = 0
        self.tags: dict[str, tuple[str, FeatureName | None, str | None]] = {}  # tag -> _resolve(tag)
        self.expat = expat.ParserCreate(encoding=None)
        self.expat.ordered_attributes = True
        self.expat.StartElementHandler = self.start
        self.expat.EndElementHandler = self.end
        self.expat.CharacterDataHandler = self.chardata

    def _diagnostic(self, severity: str, message: str) -> ParseDiagnostic:
        return ParseDiagnostic(severity, self.expat.CurrentLineNumber, self.expat.CurrentColumnNumber + 1, message)

    def warn(self, message: str) -> None:
        self.diagnostics.append(self._diagnostic("warning", message))

    def fail(self, exc_type: type[ParseError], message: str) -> None:
        raise exc_type(self._diagnostic("error", message))

    def _resolve(self, tag: str) -> tuple[str, FeatureName | None, str | None]:
        """What an element name means under the profile: its kind, the feature
        a feature element sets (None for an unusable name), and the warning an
        unknown feature element draws on every occurrence (None when known).
        Names fold case, structural ones included, as feature names do."""
        folded = tag.lower()
        if folded in _STRUCTURAL:
            return folded, None, None
        try:
            name = FeatureName(folded)
        except ValueError:
            return "", None, f"unknown element <{tag}> is not a usable feature name; skipped"
        feature = FeatureName(_FEATURE_ALIASES.get(name, name))
        if name in self.profile.base_elements:
            return "", feature, None
        return "", feature, f"unknown element <{tag}> kept as a feature"

    def start(self, tag: str, attrs: list[str]) -> None:
        if self.skip_depth:
            self.skip_depth += 1
            return
        stack = self.stack
        top = stack[-1] if stack else None
        if top is not None and not top.kind:
            top.flatten += 1
            self.warn(f"element <{tag}> inside a feature element; its text is kept, markup dropped")
            return
        resolved = self.tags.get(tag)
        if resolved is None:
            resolved = self.tags[tag] = self._resolve(tag)
        kind, feature, unknown = resolved
        allowed, refusal = _CONTENT[top.kind if top is not None else None]
        if kind not in allowed:
            # a wrong document element is fatal; strict mode aborts, lenient skips
            message = refusal.format(tag=tag)
            if top is None or self.profile.strict:
                self.fail(UnknownElement, message)
            self.warn(f"{message}; skipped")
            self.skip_depth = 1
            return
        if top is not None and top.alt_run and kind != "alt":
            self._flush_alt_run(top)
        if not kind or kind == "brack":
            if unknown:
                if self.profile.strict:
                    self.fail(UnknownElement, f"unknown element <{tag}>")
                self.warn(unknown)
                if feature is None:
                    self.skip_depth = 1
                    return
            stack.append(_Frame(kind, tuple(zip(attrs[::2], attrs[1::2])) if attrs else (), feature))
        else:
            if attrs:
                self.warn(f"attributes on <{tag}> are not modeled; dropped")
            stack.append(_Frame(kind))

    def _flush_alt_run(self, frame: _Frame) -> None:
        run, frame.alt_run = frame.alt_run, []
        if len(run) == 1:
            self.warn("a lone <alt> is no alternative; its content applies unconditionally")
            frame.props.extend(run[0])
        else:
            frame.groups.append(AltGroup(run))

    def end(self, tag: str) -> None:
        if self.skip_depth:
            self.skip_depth -= 1
            return
        stack = self.stack
        top = stack[-1]
        kind = top.kind
        if not kind:
            if top.flatten:
                top.flatten -= 1
                return
            stack.pop()
            chunks = top.chunks
            text = _collapse(chunks[0] if len(chunks) == 1 else "".join(chunks))
            stack[-1].props.append(Property(top.feature, Atomic(text), top.attrs))
        elif kind == "struc":
            if top.alt_run:
                self._flush_alt_run(top)
            stack.pop()
            node = Node(top.props, top.groups, top.children)
            if stack:
                stack[-1].children.append(node)
            else:
                self.result = node
        elif kind == "alt":
            stack.pop()
            if top.props:
                stack[-1].alt_run.append(tuple(top.props))
            else:
                self.warn("empty <alt> dropped")
        elif kind == "brack":
            stack.pop()
            stack[-1].props.append(Property("brack", Composite(top.props), top.attrs))
        else:  # dict
            stack.pop()
            if len(top.children) > 1:
                self.fail(MultipleRoots, f"<dict> holds {len(top.children)} entry nodes; expected one")
            if not top.children:
                self.fail(ParseError, "<dict> holds no entry node (<struc>)")
            self.result = top.children[0]

    def chardata(self, data: str) -> None:
        if self.skip_depth:
            return
        top = self.stack[-1]  # expat reports no text outside the document element
        if not top.kind:
            top.chunks.append(data)
        elif not top.warned_text and data.strip():
            top.warned_text = True
            self.warn("stray text inside a structural element; ignored")

    def parse(self, document: bytes | str) -> tuple[Node, list[ParseDiagnostic]]:
        try:
            self.expat.Parse(document, True)
        except expat.ExpatError as exc:
            raise XmlMalformed(
                ParseDiagnostic("error", exc.lineno, exc.offset + 1, expat.errors.messages[exc.code])
            ) from exc
        if self.result is None:
            raise ParseError(ParseDiagnostic("error", 0, 0, "document holds no entry node"))
        return self.result, self.diagnostics


def parse_entry(
    document: bytes | str, profile: EncodingProfile = DEFAULT_PROFILE
) -> tuple[Node, list[ParseDiagnostic]]:
    """Parse one encoded entry into a tree.

    Returns the tree plus any diagnostics. Malformed XML, a missing or
    multiplied entry node, and (in strict mode) unknown or misplaced elements
    raise ParseError subclasses instead.
    """
    return _Parser(profile).parse(document)


# ---------------------------------------------------------------------------
# Serialization


def _escape_text(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")
    )


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")


def _attr_string(attrs: tuple[tuple[str, str], ...]) -> str:
    return "".join(f' {name}="{_escape_attr(value)}"' for name, value in attrs)


def _emit_property(
    prop: Property, profile: EncodingProfile, elements: dict[int, str], lines: list[str], indent: str
) -> None:
    element = elements.get(id(prop))
    if element is not None:
        lines.append(indent + element)
        return
    if isinstance(prop.value, Composite):
        if prop.feature != "brack":
            raise SerializeError(
                f"composite value on feature {str(prop.feature)!r}; only 'brack' holds bundles"
            )
        if not prop.value.properties:
            lines.append(f"{indent}<brack{_attr_string(prop.attrs)}/>")
            return
        lines.append(f"{indent}<brack{_attr_string(prop.attrs)}>")
        for inner in prop.value.properties:
            if isinstance(inner.value, Composite):
                raise SerializeError("brack holds feature elements one level deep, nothing deeper")
            lines.append(indent + "  " + _atomic_element(inner, profile, elements))
        lines.append(f"{indent}</brack>")
        return
    if prop.feature == "brack":
        raise SerializeError("'brack' must hold a bundle of properties, not plain text")
    lines.append(indent + _atomic_element(prop, profile, elements))


def _atomic_element(prop: Property, profile: EncodingProfile, elements: dict[int, str]) -> str:
    """The one-line element of an atomic property, built once per call and
    kept in `elements` by id: nodes share inherited Property objects, and the
    tree keeps every one alive while it is written."""
    element = elements.get(id(prop))
    if element is None:
        if prop.feature not in profile.base_elements:
            raise UnknownFeature(prop.feature)
        assert isinstance(prop.value, Atomic)
        text = unicodedata.normalize("NFC", prop.value.text)
        head = f"<{prop.feature}{_attr_string(prop.attrs)}"
        element = elements[id(prop)] = f"{head}>{_escape_text(text)}</{prop.feature}>" if text else f"{head}/>"
    return element


def serialize_entry(root: Node, profile: EncodingProfile = DEFAULT_PROFILE) -> bytes:
    """Write a tree in the canonical encoding (UTF-8 bytes).

    Every feature must have a base element in the profile ('brack' is always
    allowed). Node layout is properties, then alternatives, then children.
    """
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<dict>"]
    elements: dict[int, str] = {}  # id(atomic property) -> its element; see _atomic_element
    # pending work, last first: a (node, indent) to open or a closing tag to write
    stack: list[tuple[Node, str] | str] = [(root, "  ")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, indent = item
        if not (node.properties or node.alt_groups or node.children):
            lines.append(f"{indent}<struc/>")
            continue
        lines.append(f"{indent}<struc>")
        inner = indent + "  "
        for prop in node.properties:
            _emit_property(prop, profile, elements, lines, inner)
        for group in node.alt_groups:
            for alternative in group.alternatives:
                lines.append(f"{inner}<alt>")
                for prop in alternative:
                    _emit_property(prop, profile, elements, lines, inner + "  ")
                lines.append(f"{inner}</alt>")
        if node.children:
            stack.append(f"{indent}</struc>")
            for child in reversed(node.children):
                stack.append((child, inner))
        else:
            lines.append(f"{indent}</struc>")
    lines.append("</dict>\n")
    return "\n".join(lines).encode("utf-8")
