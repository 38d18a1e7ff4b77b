"""Reading and writing the XML encoding of entry trees.

The encoding has four structural elements: `dict` (an optional wrapper,
always emitted), `struc` (a tree node, the only element that carries
structure), `alt` (parallel alternatives; consecutive `alt` siblings form one
group), and `brack` (a grouping property whose value is a one-level bundle of
feature elements). Every other element is a base element naming a feature;
its text is the value and its XML attributes are carried verbatim.

Parsing is one pass of expat callbacks, with text buffered so that each run
arrives as one chunk. Each structural element gets a frame; a feature element
gets none. Expat appends a feature element's text to the parse's one text
list, and each distinct chunk of text directly in a structural element to a
set, with no Python call; a chunk of stray text among them, found at the end,
means a second pass, unbuffered, that warns of it in place. Values and nodes
are built through their slots. A value's text is `model.normalize_text` of
its character data, so a parsed value is what `Atomic` would hold; printable
text with single spaces inside needs at most NFC, and no Python call. Which
element may open inside which is one table, `_CONTENT`, that also holds the
refusal for the rest. Parsing is lenient by default: unknown elements become
atomic properties and misplaced ones are skipped, each with a warning, so
real dictionary data with extra tags degrades gracefully. With `strict` set
on the profile they abort the parse instead.

Serialization produces one canonical form: an XML declaration, a `dict`
wrapper, two-space indentation per level up to 64 levels, one element per
line, and each value's text as it is, which is canonical. Parsing that form
yields the original tree, and a parsed tree re-serializes byte-identically. A
value holding a character outside XML is refused. The writer makes two
passes. The first builds and checks each distinct property's element once,
as UTF-8, so a refusal comes before any output; the second yields the
document one node or closing tag at a time (`serialize_chunks`), so a caller
can write it without holding it whole. Two caveats follow from the encoding
itself: adjacent alternative groups cannot be told apart (they re-parse as
one group), and `gender` is accepted on input as an alias that canonicalizes
to `gen`. Neither parsing nor writing recurses, so nesting depth is bounded
by memory alone.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator
from unicodedata import normalize
from xml.parsers import expat

from .model import (
    AltGroup,
    Atomic,
    Composite,
    FeatureName,
    LexitreeError,
    Node,
    Property,
    _Value,
    _tree_properties,
    normalize_text,
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


class EncodingProfile(_Value):
    """Which element names map to features, and how forgiving parsing is."""

    __slots__ = _fields = ("base_elements", "strict")
    base_elements: frozenset[FeatureName]
    strict: bool

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
        super().__init__(names, strict)


DEFAULT_PROFILE = EncodingProfile()


class ParseDiagnostic(_Value):
    __slots__ = _fields = ("severity", "line", "column", "message")
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

_BRACK = FeatureName("brack")


def _resolve(tag: str, base_elements: frozenset[FeatureName]) -> tuple[str, FeatureName | None, str | None]:
    """What an element name means under a profile: its kind, the feature a
    feature element sets (None for an unusable name), and the warning an
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
    if name in base_elements:
        return "", feature, None
    return "", feature, f"unknown element <{tag}> kept as a feature"


@functools.lru_cache(maxsize=16)
def _tag_table(profile: EncodingProfile) -> dict[str, tuple[str, FeatureName | None, str | None]]:
    """`_resolve` of the structural names, base elements and aliases, built once per
    profile; each parse adds other names to a copy, so this table stays small."""
    return {tag: _resolve(tag, profile.base_elements)
            for tag in (*_STRUCTURAL, *profile.base_elements, *_FEATURE_ALIASES)}


class _Frame:
    """One open structural element, or the document around it (kind None):
    the properties of a struc, alt or brack, and a brack's attributes; the
    nodes of a struc, a dict or the document; a struc's alternative groups,
    and the run of `alt` siblings still open."""

    __slots__ = ("kind", "attrs", "props", "groups", "children", "alt_run", "warned_text")

    def __init__(self, kind: str | None, attrs: tuple[tuple[str, str], ...] = ()):
        self.kind = kind
        self.attrs = attrs
        self.props: list[Property] = []
        self.groups: list[AltGroup] = []
        self.children: list[Node] = []
        self.alt_run: list[tuple[Property, ...]] = []
        self.warned_text = False


# The parser fills the slots of values whose parts it and expat have checked.
_new = object.__new__
_set_text, _set_bundle = Atomic.text.__set__, Composite.properties.__set__
_set_feature, _set_value, _set_attrs = (getattr(Property, name).__set__ for name in Property._fields)
_set_props, _set_groups, _set_children = (getattr(Node, name).__set__ for name in Node._fields)


def parse_entry(
    document: bytes | str, profile: EncodingProfile = DEFAULT_PROFILE
) -> tuple[Node, list[ParseDiagnostic]]:
    """Parse one encoded entry into a tree: one pass, or two if it holds stray text.

    Returns the tree plus any diagnostics. Malformed XML, a missing or
    multiplied entry node, and (in strict mode) unknown or misplaced elements
    raise ParseError subclasses instead.
    """
    return _parse(document, profile, exact=False) or _parse(document, profile, exact=True)


def _parse(document: bytes | str, profile: EncodingProfile, exact: bool) -> tuple[Node, list[ParseDiagnostic]] | None:
    """One pass of `parse_entry`. Text directly inside structural elements goes to `chardata` if `exact`,
    else to `between`, checked at the end: None if it holds stray text. Stray text changes no refusal."""
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    # Buffered, a text run arrives as one chunk, handed over before the next element event
    # or handler change; the exact pass takes each chunk in place, for stray text's position.
    parser.buffer_text = not exact
    strict = profile.strict
    tags = dict(_tag_table(profile))
    diagnostics: list[ParseDiagnostic] = []
    stack = [_Frame(None)]  # the document, then every open structural element
    skip_depth = 0  # elements open in a skipped subtree
    # The open feature element, if `feature` is set: the feature it sets, its attributes,
    # and the count of markup open inside it. Its text goes to `chunks`, one list per parse.
    feature = carried = None
    flatten = 0
    chunks: list[str] = []
    append = chunks.append
    between: set[str] = set()  # each distinct chunk once: a deep entry's indentation has many lengths

    def diagnostic(severity: str, message: str) -> ParseDiagnostic:
        return ParseDiagnostic(severity, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1, message)

    def warn(message: str) -> None:
        diagnostics.append(diagnostic("warning", message))

    def flush_alt_run(frame: _Frame) -> None:
        run, frame.alt_run = frame.alt_run, []
        if len(run) == 1:
            warn("a lone <alt> is no alternative; its content applies unconditionally")
            frame.props.extend(run[0])
        else:
            frame.groups.append(AltGroup(run))

    def start(tag: str, attrs: list[str]) -> None:
        nonlocal skip_depth, flatten, feature, carried
        if skip_depth:
            skip_depth += 1
            return
        if feature is not None:
            flatten += 1
            warn(f"element <{tag}> inside a feature element; its text is kept, markup dropped")
            return
        kind, name, unknown = tags.get(tag) or tags.setdefault(tag, _resolve(tag, profile.base_elements))
        top = stack[-1]
        allowed, refusal = _CONTENT[top.kind]
        if kind not in allowed:
            # a wrong document element is fatal; strict mode aborts, lenient skips
            message = refusal.format(tag=tag)
            if top.kind is None or strict:
                raise UnknownElement(diagnostic("error", message))
            warn(f"{message}; skipped")
            skip_depth = 1
            parser.CharacterDataHandler = None  # a skipped subtree's text is neither kept nor warned of
            return
        if top.alt_run and kind != "alt":
            flush_alt_run(top)
        if unknown:
            if strict:
                raise UnknownElement(diagnostic("error", f"unknown element <{tag}>"))
            warn(unknown)
            if name is None:
                skip_depth = 1
                parser.CharacterDataHandler = None
                return
        if not kind:  # its text goes straight to the chunk list, with no Python call
            feature, carried = name, tuple(zip(attrs[::2], attrs[1::2])) if attrs else ()
            parser.CharacterDataHandler = append
        elif kind == "brack":
            stack.append(_Frame(kind, tuple(zip(attrs[::2], attrs[1::2]))))
        else:
            if attrs:
                warn(f"attributes on <{tag}> are not modeled; dropped")
            stack.append(_Frame(kind))

    def end(tag: str) -> None:
        nonlocal skip_depth, flatten, feature
        if skip_depth:
            skip_depth -= 1
            parser.CharacterDataHandler = None if skip_depth else structural
            return
        if feature is not None:
            if flatten:
                flatten -= 1
                return
            text = chunks[0] if len(chunks) == 1 else "".join(chunks)
            chunks.clear()
            # printable text with single spaces inside is canonical once in NFC, as ASCII is
            if not text.isprintable() or "  " in f" {text} ":
                text = normalize_text(text)
            elif not text.isascii():
                text = normalize("NFC", text)
            value, prop = _new(Atomic), _new(Property)
            _set_text(value, text)
            _set_feature(prop, feature)
            _set_value(prop, value)
            _set_attrs(prop, carried)
            stack[-1].props.append(prop)
            feature = None
            parser.CharacterDataHandler = structural
            return
        top = stack.pop()
        kind, parent = top.kind, stack[-1]
        if kind == "struc":
            if top.alt_run:
                flush_alt_run(top)
            node = _new(Node)
            _set_props(node, tuple(top.props))
            _set_groups(node, tuple(top.groups))
            _set_children(node, tuple(top.children))
            parent.children.append(node)
        elif kind == "alt":
            if top.props:
                parent.alt_run.append(tuple(top.props))
            else:
                warn("empty <alt> dropped")
        elif kind == "brack":
            value, prop = _new(Composite), _new(Property)
            _set_bundle(value, tuple(top.props))
            _set_feature(prop, _BRACK)
            _set_value(prop, value)
            _set_attrs(prop, top.attrs)
            parent.props.append(prop)
        else:  # dict
            if len(top.children) > 1:
                raise MultipleRoots(diagnostic("error", f"<dict> holds {len(top.children)} entry nodes; expected one"))
            if not top.children:
                raise ParseError(diagnostic("error", "<dict> holds no entry node (<struc>)"))
            parent.children.append(top.children[0])

    def chardata(data: str) -> None:
        # text in a structural element; expat reports none outside the document element
        if not stack[-1].warned_text and data.strip(" \t\n\r"):
            stack[-1].warned_text = True
            warn("stray text inside a structural element; ignored")

    structural = chardata if exact else between.add
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = structural
    try:
        parser.Parse(document, True)
    except expat.ExpatError as exc:
        raise XmlMalformed(
            ParseDiagnostic("error", exc.lineno, exc.offset + 1, expat.errors.messages[exc.code])
        ) from exc
    finally:  # break the parser-handler cycle, so reference counting frees the parse's state
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
    if any(chunk.strip(" \t\n\r") for chunk in between):
        return None
    (entry,) = stack[0].children  # the document element closed as a struc, or a dict holding one
    return entry, diagnostics


# ---------------------------------------------------------------------------
# Serialization


def _carried(text: str) -> bool:
    """Whether XML can carry every character of `text`, escaped or not. The
    search, and compiling its pattern, waits for an unprintable character."""
    return text.isprintable() or not re.search("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", text)


def _is_name(name: str) -> bool:
    """Whether the parser reads `name` back as one attribute name. Outside
    ASCII, expat's names follow XML 1.0's older tables, so the parser is asked."""
    if re.fullmatch(r"[A-Za-z_:][-.\w:]*", name, re.ASCII):
        return True
    try:
        return parse_entry(f'<struc><orth {name}=""/></struc>')[0].properties[0].attrs == ((name, ""),)
    except ParseError:
        return False


def _escape_text(text: str) -> str:
    # canonical text holds no "\r", so only an attribute value needs its reference
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")


# A line is indented by its depth up to _MAX_INDENT levels, so a deep chain writes linear bytes.
# A node's level stops at the cap and its lines lie at most three levels below it.
_MAX_INDENT = 64
_INDENTS = tuple(b"\n" + b"  " * min(level, _MAX_INDENT) for level in range(_MAX_INDENT + 4))
_OPEN, _CLOSE, _EMPTY, _ALT, _END_ALT = (
    tuple(indent + tag for indent in _INDENTS) for tag in (b"<struc>", b"</struc>", b"<struc/>", b"<alt>", b"</alt>"))


def serialize_entry(root: Node, profile: EncodingProfile = DEFAULT_PROFILE) -> bytes:
    """Write a tree in the canonical encoding (UTF-8 bytes): `serialize_chunks` joined.

    Every feature must have a base element in the profile ('brack' is always
    allowed), and XML must carry every character of every value.
    Node layout is properties, then alternatives, then children.
    """
    return b"".join(serialize_chunks(root, profile))


def serialize_chunks(root: Node, profile: EncodingProfile = DEFAULT_PROFILE) -> Iterator[bytes]:
    """`serialize_entry`'s document as UTF-8 pieces: one per node, holding its properties and
    alternatives, and one per closing tag. Every property is built and checked before this
    returns, so a tree it cannot write raises SerializeError before any piece exists."""
    # Built once per call: each property's element by id (nodes share inherited Property objects,
    # which the tree keeps alive while it is written), each feature's tags, each attribute tuple's
    # string, the attribute names checked. A brack that holds properties spans lines, so pass 2
    # writes it; its element is b"".
    elements: dict[int, bytes] = {}
    tags: dict[FeatureName, tuple[str, str]] = {}
    attr_strings: dict[tuple[tuple[str, str], ...], str] = {}
    names: set[str] = set()

    def attributes(prop: Property) -> str:
        text = attr_strings.get(prop.attrs)
        if text is None:
            for name, value in prop.attrs:
                if not (_carried(value) and (name in names or _carried(name) and _is_name(name))):
                    raise SerializeError(
                        f"attribute {name!r} on feature {str(prop.feature)!r} cannot be written as XML")
                names.add(name)
            text = attr_strings[prop.attrs] = "".join(f' {name}="{_escape_attr(v)}"' for name, v in prop.attrs)
        return text

    def element(prop: Property, nested: bool = False) -> None:  # nested: held in a brack
        feature, value = prop.feature, prop.value
        if isinstance(value, Composite):
            if nested:
                raise SerializeError("brack holds feature elements one level deep, nothing deeper")
            if feature != "brack":
                raise SerializeError(f"composite value on feature {str(feature)!r}; only 'brack' holds bundles")
            attrs = attributes(prop)
            for each in value.properties:
                element(each, True)
            elements[id(prop)] = b"" if value.properties else f"<brack{attrs}/>".encode()
            return
        tag = tags.get(feature)
        if tag is None:  # 'brack' is never a base element
            if feature == "brack" and not nested:
                raise SerializeError("'brack' must hold a bundle of properties, not plain text")
            if feature not in profile.base_elements:
                raise UnknownFeature(feature)
            tag = tags[feature] = f"<{feature}", f"</{feature}>"
        text = value.text  # canonical, so it reads back as itself if XML carries it
        if not text.isprintable() and not _carried(text):
            raise SerializeError(f"value of feature {str(feature)!r} holds a character XML cannot carry")
        head = tag[0] + attributes(prop) if prop.attrs else tag[0]
        elements[id(prop)] = (f"{head}>{_escape_text(text)}{tag[1]}" if text else f"{head}/>").encode()

    for prop in _tree_properties(root):  # pass 1, in document order, so the first refusal is the first in the output
        if id(prop) not in elements:
            element(prop)
    get = elements.get

    def brack(prop: Property, level: int) -> bytes:
        indent = _INDENTS[level + 1]
        inner = indent.join([get(id(p)) for p in prop.value.properties])
        return b"".join((f"<brack{attr_strings[prop.attrs]}>".encode(), indent, inner, _INDENTS[level], b"</brack>"))

    def chunks() -> Iterator[bytes]:  # pass 2: each line is one of _INDENTS, then its element
        yield b'<?xml version="1.0" encoding="utf-8"?>\n<dict>'
        # pending work, last first: a (node, level) to open or a closing tag to write
        stack: list[tuple[Node, int] | bytes] = [(root, 1)]
        while stack:
            item = stack.pop()
            if type(item) is bytes:
                yield item
                continue
            node, level = item
            props, groups, children = node.properties, node.alt_groups, node.children
            if not (props or groups or children):
                yield _EMPTY[level]
                continue
            pieces = [_OPEN[level]]
            if props:  # a shared property's element is read here, with no call
                indent = _INDENTS[level + 1]
                pieces += indent, indent.join([get(id(p)) or brack(p, level + 1) for p in props])
            for group in groups:
                indent = _INDENTS[level + 2]
                for alternative in group.alternatives:
                    inner = indent.join([get(id(p)) or brack(p, level + 2) for p in alternative])
                    pieces += _ALT[level + 1], indent, inner, _END_ALT[level + 1]
            if children:
                stack.append(_CLOSE[level])
                below = min(level + 1, _MAX_INDENT)
                for child in reversed(children):
                    stack.append((child, below))
            else:
                pieces.append(_CLOSE[level])
            yield b"".join(pieces)
        yield b"\n</dict>\n"

    return chunks()
