"""Reading and writing the XML encoding of entry trees.

The encoding has four structural elements: `dict` (an optional wrapper,
always emitted), `struc` (a tree node, the only element that carries
structure), `alt` (parallel alternatives; consecutive `alt` siblings form one
group), and `brack` (a grouping property whose value is a one-level bundle of
feature elements). Every other element is a base element naming a feature;
its text is the value and its XML attributes are carried verbatim.

Parsing is lenient by default: unknown elements become atomic properties
with a warning so real dictionary data with extra tags degrades gracefully.
With `strict` set on the profile they abort the parse instead.

Serialization produces one canonical form: an XML declaration, a `dict`
wrapper, two-space indentation, one element per line, and NFC-normalized
text. Parsing that form yields the original tree; trees that came from a
parse re-serialize byte-identically. Two caveats follow from the encoding
itself: adjacent alternative groups cannot be told apart (they re-parse as
one group), and `gender` is accepted on input as an alias that canonicalizes
to `gen`.
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
    FeatureValue,
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


class _PropertyHolder:
    """Common behavior of frames that collect properties (struc, alt, brack)."""

    def __init__(self):
        self.props: list[Property] = []

    def receive(self, prop: Property) -> None:
        self.props.append(prop)


class _StrucFrame(_PropertyHolder):
    def __init__(self):
        super().__init__()
        self.groups: list[AltGroup] = []
        self.children: list[Node] = []
        self.alt_run: list[tuple[Property, ...]] = []


class _AltFrame(_PropertyHolder):
    pass


class _BrackFrame(_PropertyHolder):
    def __init__(self, attrs: tuple[tuple[str, str], ...]):
        super().__init__()
        self.attrs = attrs


class _BaseFrame:
    def __init__(self, feature: FeatureName, attrs: tuple[tuple[str, str], ...]):
        self.feature = feature
        self.attrs = attrs
        self.chunks: list[str] = []
        self.flatten_depth = 0


class _DictFrame:
    def __init__(self):
        self.roots: list[Node] = []


class _Parser:
    def __init__(self, profile: EncodingProfile):
        self.profile = profile
        self.diagnostics: list[ParseDiagnostic] = []
        self.stack: list[object] = []
        self.result: Node | None = None
        self.skip_depth = 0
        self.warned_text_frames: set[int] = set()
        self.expat = expat.ParserCreate(encoding=None)
        self.expat.ordered_attributes = True
        self.expat.StartElementHandler = self.start
        self.expat.EndElementHandler = self.end
        self.expat.CharacterDataHandler = self.chardata

    # -- diagnostics ---------------------------------------------------

    def _where(self) -> tuple[int, int]:
        return self.expat.CurrentLineNumber, self.expat.CurrentColumnNumber + 1

    def warn(self, message: str) -> None:
        line, column = self._where()
        self.diagnostics.append(ParseDiagnostic("warning", line, column, message))

    def fail(self, exc_type: type[ParseError], message: str) -> None:
        line, column = self._where()
        raise exc_type(ParseDiagnostic("error", line, column, message))

    def reject(self, message: str, exc_type: type[ParseError] = UnknownElement) -> None:
        """Strict mode aborts; lenient mode warns and skips the element."""
        if self.profile.strict:
            self.fail(exc_type, message)
        self.warn(f"{message}; skipped")
        self.skip_depth = 1

    # -- element classification -----------------------------------------

    def _feature_for(self, tag: str) -> FeatureName | None:
        try:
            name = FeatureName(tag)
        except ValueError:
            return None
        if name in self.profile.base_elements:
            return FeatureName(_FEATURE_ALIASES.get(name, name))
        return None

    @staticmethod
    def _attr_pairs(attrs: list[str]) -> tuple[tuple[str, str], ...]:
        return tuple((attrs[i], attrs[i + 1]) for i in range(0, len(attrs), 2))

    def _drop_attrs(self, tag: str, attrs: list[str]) -> None:
        if attrs:
            self.warn(f"attributes on <{tag}> are not modeled; dropped")

    # -- handlers --------------------------------------------------------

    def start(self, tag: str, attrs: list[str]) -> None:
        if self.skip_depth:
            self.skip_depth += 1
            return
        top = self.stack[-1] if self.stack else None

        if isinstance(top, _BaseFrame):
            top.flatten_depth += 1
            self.warn(f"element <{tag}> inside a feature element; its text is kept, markup dropped")
            return

        if top is None:
            if tag == "dict":
                self._drop_attrs(tag, attrs)
                self.stack.append(_DictFrame())
            elif tag == "struc":
                self._drop_attrs(tag, attrs)
                self.stack.append(_StrucFrame())
            else:
                self.fail(UnknownElement, f"document element must be <dict> or <struc>, not <{tag}>")
            return

        if isinstance(top, _DictFrame):
            if tag == "struc":
                self._drop_attrs(tag, attrs)
                self.stack.append(_StrucFrame())
            else:
                self.reject(f"unexpected <{tag}> directly inside <dict>")
            return

        if isinstance(top, _StrucFrame):
            if tag == "struc":
                self._flush_alt_run(top)
                self._drop_attrs(tag, attrs)
                self.stack.append(_StrucFrame())
            elif tag == "alt":
                self._drop_attrs(tag, attrs)
                self.stack.append(_AltFrame())
            elif tag == "brack":
                self._flush_alt_run(top)
                self.stack.append(_BrackFrame(self._attr_pairs(attrs)))
            elif tag == "dict":
                self.reject("nested <dict> is not allowed")
            else:
                self._flush_alt_run(top)
                self._start_property_element(tag, attrs)
            return

        if isinstance(top, _AltFrame):
            if tag == "brack":
                self.stack.append(_BrackFrame(self._attr_pairs(attrs)))
            elif tag in ("struc", "alt", "dict"):
                self.reject(f"<{tag}> is not allowed inside <alt>")
            else:
                self._start_property_element(tag, attrs)
            return

        if isinstance(top, _BrackFrame):
            if tag in _STRUCTURAL:
                self.reject(f"<{tag}> is not allowed inside <brack>; only one level of feature elements")
            else:
                self._start_property_element(tag, attrs)
            return

        raise AssertionError(f"unhandled frame {top!r}")

    def _start_property_element(self, tag: str, attrs: list[str]) -> None:
        feature = self._feature_for(tag)
        if feature is None:
            if self.profile.strict:
                self.fail(UnknownElement, f"unknown element <{tag}>")
            try:
                feature = FeatureName(_FEATURE_ALIASES.get(tag.lower(), tag))
            except ValueError:
                self.warn(f"unknown element <{tag}> is not a usable feature name; skipped")
                self.skip_depth = 1
                return
            self.warn(f"unknown element <{tag}> kept as a feature")
        self.stack.append(_BaseFrame(feature, self._attr_pairs(attrs)))

    def _flush_alt_run(self, frame: _StrucFrame) -> None:
        run, frame.alt_run = frame.alt_run, []
        if not run:
            return
        if len(run) == 1:
            self.warn("a lone <alt> is no alternative; its content applies unconditionally")
            frame.props.extend(run[0])
        else:
            frame.groups.append(AltGroup(run))

    def end(self, tag: str) -> None:
        if self.skip_depth:
            self.skip_depth -= 1
            return
        top = self.stack[-1]

        if isinstance(top, _BaseFrame):
            if top.flatten_depth:
                top.flatten_depth -= 1
                return
            self.stack.pop()
            text = _collapse("".join(top.chunks))
            self._parent_holder().receive(Property(top.feature, Atomic(text), top.attrs))
            return

        if isinstance(top, _AltFrame):
            self.stack.pop()
            parent = self.stack[-1]
            assert isinstance(parent, _StrucFrame)
            if not top.props:
                self.warn("empty <alt> dropped")
            else:
                parent.alt_run.append(tuple(top.props))
            return

        if isinstance(top, _BrackFrame):
            self.stack.pop()
            self._parent_holder().receive(Property("brack", Composite(top.props), top.attrs))
            return

        if isinstance(top, _StrucFrame):
            self._flush_alt_run(top)
            self.stack.pop()
            node = Node(top.props, top.groups, top.children)
            parent = self.stack[-1] if self.stack else None
            if parent is None:
                self.result = node
            elif isinstance(parent, _DictFrame):
                parent.roots.append(node)
            else:
                assert isinstance(parent, _StrucFrame)
                parent.children.append(node)
            return

        if isinstance(top, _DictFrame):
            self.stack.pop()
            if len(top.roots) > 1:
                self.fail(MultipleRoots, f"<dict> holds {len(top.roots)} entry nodes; expected one")
            if not top.roots:
                self.fail(ParseError, "<dict> holds no entry node (<struc>)")
            self.result = top.roots[0]
            return

        raise AssertionError(f"unhandled frame {top!r}")

    def _parent_holder(self) -> _PropertyHolder:
        holder = self.stack[-1]
        assert isinstance(holder, _PropertyHolder)
        return holder

    def chardata(self, data: str) -> None:
        if self.skip_depth:
            return
        top = self.stack[-1] if self.stack else None
        if isinstance(top, _BaseFrame):
            top.chunks.append(data)
        elif data.strip() and id(top) not in self.warned_text_frames:
            self.warned_text_frames.add(id(top))
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


def _tag_line(name: str, attrs: tuple[tuple[str, str], ...], text: str) -> str:
    head = f"{name}{_attr_string(attrs)}"
    if text:
        return f"<{head}>{_escape_text(text)}</{name}>"
    return f"<{head}/>"


def _emit_property(prop: Property, profile: EncodingProfile, lines: list[str], indent: str) -> None:
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
            _emit_atomic(inner, profile, lines, indent + "  ")
        lines.append(f"{indent}</brack>")
        return
    if prop.feature == "brack":
        raise SerializeError("'brack' must hold a bundle of properties, not plain text")
    _emit_atomic(prop, profile, lines, indent)


def _emit_atomic(prop: Property, profile: EncodingProfile, lines: list[str], indent: str) -> None:
    if prop.feature not in profile.base_elements:
        raise UnknownFeature(prop.feature)
    assert isinstance(prop.value, Atomic)
    text = unicodedata.normalize("NFC", prop.value.text)
    lines.append(indent + _tag_line(prop.feature, prop.attrs, text))


def _emit_node(node: Node, profile: EncodingProfile, lines: list[str], indent: str) -> None:
    if not (node.properties or node.alt_groups or node.children):
        lines.append(f"{indent}<struc/>")
        return
    lines.append(f"{indent}<struc>")
    inner = indent + "  "
    for prop in node.properties:
        _emit_property(prop, profile, lines, inner)
    for group in node.alt_groups:
        for alternative in group.alternatives:
            lines.append(f"{inner}<alt>")
            for prop in alternative:
                _emit_property(prop, profile, lines, inner + "  ")
            lines.append(f"{inner}</alt>")
    for child in node.children:
        _emit_node(child, profile, lines, inner)
    lines.append(f"{indent}</struc>")


def serialize_entry(root: Node, profile: EncodingProfile = DEFAULT_PROFILE) -> bytes:
    """Write a tree in the canonical encoding (UTF-8 bytes).

    Every feature must have a base element in the profile ('brack' is always
    allowed). Node layout is properties, then alternatives, then children.
    """
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<dict>"]
    _emit_node(root, profile, lines, "  ")
    lines.append("</dict>")
    return ("\n".join(lines) + "\n").encode("utf-8")
