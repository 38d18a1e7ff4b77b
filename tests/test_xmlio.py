import gc
import os
import re
import tracemalloc
import unicodedata
from xml.parsers import expat

import pytest
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

import parsegen
from conftest import FIXTURES, P, fixture_bytes
from treegen import XML_PROFILE, xml_trees

from lexitree import xmlio
from lexitree.model import AltGroup, Atomic, Composite, Node, Property, normalize_text
from lexitree.transform import materialize_inheritance
from lexitree.xmlio import (
    DEFAULT_PROFILE,
    EncodingProfile,
    MultipleRoots,
    ParseError,
    SerializeError,
    UnknownElement,
    UnknownFeature,
    XmlMalformed,
    parse_entry,
    serialize_chunks,
    serialize_entry,
)

STRICT = EncodingProfile(DEFAULT_PROFILE.base_elements, strict=True)

# ---------------------------------------------------------------------------
# Parsing the worked entries


def test_parse_overdress_matches_worked_entry(overdress):
    tree, diagnostics = parse_entry(fixture_bytes("overdress.xml"))
    assert diagnostics == []
    assert tree == overdress


def test_parse_gendarme_matches_worked_entry(gendarme):
    tree, diagnostics = parse_entry(fixture_bytes("gendarme.xml"))
    assert diagnostics == []
    assert tree == gendarme


def test_parse_pinna_collects_alternatives(pinna):
    tree, diagnostics = parse_entry(fixture_bytes("pinna.xml"))
    assert diagnostics == []
    assert tree == pinna
    (group,) = tree.children[0].alt_groups
    assert [len(a) for a in group.alternatives] == [2, 1]


def test_parse_disproof_matches_entry(disproof):
    tree, _ = parse_entry(fixture_bytes("disproof.xml"))
    assert tree == disproof


def test_parse_empty_struc():
    tree, diagnostics = parse_entry(b"<struc/>")
    assert tree == Node()
    assert diagnostics == []


def test_dict_wrapper_is_optional():
    bare, _ = parse_entry(b"<struc><orth>x</orth></struc>")
    wrapped, _ = parse_entry(b"<dict><struc><orth>x</orth></struc></dict>")
    assert bare == wrapped


def test_gender_element_canonicalizes_to_gen():
    tree, _ = parse_entry(b"<struc><gender>mas</gender></struc>")
    assert tree.properties == (P("gen", "mas"),)


def test_text_is_trimmed_and_collapsed():
    tree, _ = parse_entry(b"<struc><orth>  over\n     dress\t</orth></struc>")
    assert tree.properties == (P("orth", "over dress"),)


def test_attributes_ride_on_properties_in_order():
    tree, _ = parse_entry(b'<struc><xr type="see" n="2">x</xr></struc>')
    assert tree.properties[0].attrs == (("type", "see"), ("n", "2"))
    # in document order on a feature element and a brack, a DTD default after the specified ones, in both passes
    document = (b'<!DOCTYPE struc [<!ATTLIST xr type CDATA "see">]>'
                b'<struc><xr z="1" a="2">x</xr><brack z="1" a="2"><orth>o</orth></brack></struc>')
    for parse in (parse_entry, exact_parse):
        tree, diagnostics = parse(document)
        assert ([p.attrs for p in tree.properties], diagnostics) == (
            [(("z", "1"), ("a", "2"), ("type", "see")), (("z", "1"), ("a", "2"))], [])


def test_consecutive_alts_group_and_separators_split():
    tree, _ = parse_entry(fixture_bytes("two_alt_groups.xml"))
    child = tree.children[0]
    assert [str(p.feature) for p in child.properties] == ["pos"]
    assert [len(g.alternatives) for g in child.alt_groups] == [2, 3]


def test_lone_alt_is_inlined_with_warning():
    tree, diagnostics = parse_entry(b"<struc><alt><pos>n</pos></alt><orth>x</orth></struc>")
    assert tree.alt_groups == ()
    assert tree.properties == (P("pos", "n"), P("orth", "x"))
    assert any("lone <alt>" in d.message for d in diagnostics)


def test_brack_becomes_composite_property():
    tree, _ = parse_entry(b'<struc><brack n="3"><ex>e</ex><xr>b</xr></brack></struc>')
    (prop,) = tree.properties
    assert prop.feature == "brack"
    assert prop.attrs == (("n", "3"),)
    assert prop.value == Composite([P("ex", "e"), P("xr", "b")])


# ---------------------------------------------------------------------------
# Errors and leniency


def test_malformed_xml_reports_position():
    with pytest.raises(XmlMalformed) as err:
        parse_entry(b"<struc><orth>x</struc>")
    assert err.value.diagnostic.line == 1


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRoots):
        parse_entry(b"<dict><struc/><struc/></dict>")


def test_empty_dict_rejected():
    with pytest.raises(ParseError):
        parse_entry(b"<dict></dict>")


def test_unknown_document_element_rejected():
    with pytest.raises(UnknownElement):
        parse_entry(b"<entry><struc/></entry>")


def test_unknown_element_becomes_property_when_lenient():
    tree, diagnostics = parse_entry(b"<struc><sensenum>1</sensenum></struc>")
    assert tree.properties == (Property("sensenum", "1"),)
    assert any(d.severity == "warning" for d in diagnostics)


def test_unknown_element_fatal_in_strict_mode():
    strict = EncodingProfile(DEFAULT_PROFILE.base_elements, strict=True)
    with pytest.raises(UnknownElement):
        parse_entry(b"<struc><sensenum>1</sensenum></struc>", strict)


def test_struc_inside_brack_skipped_when_lenient():
    data = b"<struc><brack><struc><orth>x</orth></struc><ex>e</ex></brack></struc>"
    tree, diagnostics = parse_entry(data)
    (prop,) = tree.properties
    assert prop.value == Composite([P("ex", "e")])
    assert any("brack" in d.message for d in diagnostics)
    strict = EncodingProfile(DEFAULT_PROFILE.base_elements, strict=True)
    with pytest.raises(UnknownElement):
        parse_entry(data, strict)


# Each refused (open element, child) pair: the document with the child in
# place, the same document without it, and the refusal message.
_REFUSALS = [
    (f"<dict>{{}}<struc><orth>x</orth></struc></dict>", "<dict><struc><orth>x</orth></struc></dict>", child,
     f"unexpected <{child}> directly inside <dict>")
    for child in ("orth", "alt", "brack", "dict")
] + [
    ("<struc><orth>x</orth>{}</struc>", "<struc><orth>x</orth></struc>", "dict", "nested <dict> is not allowed"),
] + [
    ("<struc><alt><pos>n</pos>{}</alt><alt><pos>v</pos></alt></struc>",
     "<struc><alt><pos>n</pos></alt><alt><pos>v</pos></alt></struc>", child, f"<{child}> is not allowed inside <alt>")
    for child in ("struc", "alt", "dict")
] + [
    ("<struc><brack><ex>e</ex>{}</brack></struc>", "<struc><brack><ex>e</ex></brack></struc>", child,
     f"<{child}> is not allowed inside <brack>; only one level of feature elements")
    for child in ("struc", "alt", "brack", "dict")
]


@pytest.mark.parametrize("template, without, child, message", _REFUSALS)
def test_refused_child_is_skipped_when_lenient_and_fatal_when_strict(template, without, child, message):
    document = template.format(f'<{child} n="1"><orth>y</orth><struc/></{child}>').encode()
    tree, diagnostics = parse_entry(document)
    assert [(d.severity, d.message) for d in diagnostics] == [("warning", f"{message}; skipped")]
    assert tree == parse_entry(without.encode())[0]
    with pytest.raises(UnknownElement) as err:
        parse_entry(document, STRICT)
    assert err.value.diagnostic.message == message


@pytest.mark.parametrize("tag", ["alt", "brack", "orth", "sensenum", "Alt", "BRACK"])
@pytest.mark.parametrize("profile", [DEFAULT_PROFILE, STRICT])
def test_document_element_must_be_dict_or_struc(tag, profile):
    with pytest.raises(UnknownElement) as err:
        parse_entry(f"<{tag}><struc/></{tag}>".encode(), profile)
    assert err.value.diagnostic.message == f"document element must be <dict> or <struc>, not <{tag}>"


_EVERY_STRUCTURAL = (
    "<dict><struc><orth>a</orth><alt><pos>n</pos></alt><alt><pos>v</pos></alt>"
    "<brack><gen>m</gen></brack><struc><orth>b</orth></struc></struc></dict>"
)


@pytest.mark.parametrize("tag", ["Dict", "Struc", "Alt", "Brack", "STRUC"])
@pytest.mark.parametrize("profile", [DEFAULT_PROFILE, STRICT])
def test_structural_names_fold_case(tag, profile):
    name = tag.lower()
    document = _EVERY_STRUCTURAL.replace(f"<{name}>", f"<{tag}>").replace(f"</{name}>", f"</{tag}>")
    assert tag in document
    assert parse_entry(document.encode(), profile) == parse_entry(_EVERY_STRUCTURAL.encode(), profile)


def test_case_folded_structural_names_keep_their_spelling_in_messages():
    _, diagnostics = parse_entry(b'<Struc n="1"><Alt><pos>n</pos><Struc/></Alt><alt><pos>v</pos></alt></Struc>')
    assert [d.message for d in diagnostics] == [
        "attributes on <Struc> are not modeled; dropped",
        "<Struc> is not allowed inside <alt>; skipped",
    ]
    with pytest.raises(UnknownElement) as err:
        parse_entry(b"<struc><Brack><ex>e</ex><Alt/></Brack></struc>", STRICT)
    assert err.value.diagnostic.message == "<Alt> is not allowed inside <brack>; only one level of feature elements"


def test_markup_inside_feature_element_is_flattened():
    tree, diagnostics = parse_entry(b"<struc><def>a <usg>b</usg> c</def></struc>")
    assert tree.properties == (P("def", "a b c"),)
    assert any("markup dropped" in d.message for d in diagnostics)


def test_struc_attributes_dropped_with_warning():
    tree, diagnostics = parse_entry(b'<struc type="homograph"><orth>x</orth></struc>')
    assert tree == Node([P("orth", "x")])
    assert any("not modeled" in d.message for d in diagnostics)


def test_stray_text_warned_once():
    _, diagnostics = parse_entry(b"<struc>loose words<orth>x</orth>more</struc>")
    assert sum("stray text" in d.message for d in diagnostics) == 1


def test_stray_text_warned_once_per_element():
    _, diagnostics = parse_entry(b"<struc><struc>a</struc><struc>b</struc></struc>")
    assert [d.message for d in diagnostics] == ["stray text inside a structural element; ignored"] * 2


_FLATTENED = b"<struc>\n  <def>a<usg>b<i>c</i></usg>d</def>\n  <orth>x</orth>\n</struc>"
_SKIPPED = b"<struc>\n  <brack>\n    <struc><orth>x</orth>loose</struc>\n  </brack>\n  <orth>y</orth>\n</struc>"
# a skipped subtree that holds markup a feature element would flatten: one count of open elements covers both
_SKIPPED_FLATTENED = b"<struc>\n  <brack>\n    <struc><def>a<usg>b</usg></def>c</struc>\n  </brack>\n  <orth>y</orth>\n</struc>"

# Every warning kind the parser emits, with the position expat reports for
# it: the start of the element, or of the text chunk, that triggered it.
_WARNINGS = [
    (b"<struc>\n<orth>x</orth> loose\n</struc>",
     [(2, 15, "stray text inside a structural element; ignored")]),
    (b"<struc>\n  <def>a <usg>b</usg> c</def>\n</struc>",
     [(2, 10, "element <usg> inside a feature element; its text is kept, markup dropped")]),
    (b"<struc>\n  <brack>\n    <struc/>\n  </brack>\n</struc>",
     [(3, 5, "<struc> is not allowed inside <brack>; only one level of feature elements; skipped")]),
    (b"<struc>\n  <sensenum>1</sensenum>\n  <sensenum>2</sensenum>\n</struc>",
     [(2, 3, "unknown element <sensenum> kept as a feature"),
      (3, 3, "unknown element <sensenum> kept as a feature")]),
    (b"<struc>\n  <x.y>1</x.y>\n  <x.y>2</x.y>\n</struc>",
     [(2, 3, "unknown element <x.y> is not a usable feature name; skipped"),
      (3, 3, "unknown element <x.y> is not a usable feature name; skipped")]),
    (b'<struc a="1">\n  <alt n="2"><pos>n</pos></alt>\n</struc>',
     [(1, 1, "attributes on <struc> are not modeled; dropped"),
      (2, 3, "attributes on <alt> are not modeled; dropped"),
      (3, 1, "a lone <alt> is no alternative; its content applies unconditionally")]),
    (b"<struc>\n  <alt><pos>n</pos></alt>\n  <orth>x</orth>\n</struc>",
     [(3, 3, "a lone <alt> is no alternative; its content applies unconditionally")]),
    (b"<struc>\n  <alt></alt>\n</struc>",
     [(2, 8, "empty <alt> dropped")]),
    (_FLATTENED,
     [(2, 9, "element <usg> inside a feature element; its text is kept, markup dropped"),
      (2, 15, "element <i> inside a feature element; its text is kept, markup dropped")]),
    (_SKIPPED,
     [(3, 5, "<struc> is not allowed inside <brack>; only one level of feature elements; skipped")]),
    (_SKIPPED_FLATTENED,
     [(3, 5, "<struc> is not allowed inside <brack>; only one level of feature elements; skipped")]),
    (b"<struc>\n  <alt><pos>n</pos></alt>\n  <alt><pos>v</pos></alt> loose\n</struc>",
     [(3, 26, "stray text inside a structural element; ignored")]),
]


@pytest.mark.parametrize("document, expected", _WARNINGS)
def test_warning_kinds_are_pinned_with_positions(document, expected):
    _, diagnostics = parse_entry(document)
    assert [(d.severity, d.line, d.column, d.message) for d in diagnostics] == [
        ("warning", *item) for item in expected
    ]


def test_flattened_and_skipped_markup_leave_the_rest_of_the_entry():
    assert parse_entry(_FLATTENED)[0] == Node([P("def", "abcd"), P("orth", "x")])
    for parse in (parse_entry, exact_parse):
        assert parse(_SKIPPED)[0] == parse(_SKIPPED_FLATTENED)[0] == Node([P("brack", []), P("orth", "y")])


def test_value_joins_entities_cdata_and_character_references_and_drops_comments():
    tree, diagnostics = parse_entry(b"<struc><def>a &amp; <![CDATA[<b>]]><!-- c -->c&#233;</def></struc>")
    assert (tree, diagnostics) == (Node([P("def", "a & <b>c\u00e9")]), [])


def test_a_value_longer_than_the_text_buffer_is_read_whole():
    # the first pass takes text in pieces of up to 8,192 characters; the fixture's value
    # splits among references, CDATA and comments, and its indentation gap splits too
    lines = [" ".join(f"w{12 * n + i:04d}" for i in range(12)) for n in range(120)]
    lines[100:100] = ["a & b \u00e9 <c>df"] * 24
    expected = Node([P("orth", "long"), P("def", " ".join(lines))], children=[Node([P("pos", "noun")])])
    assert len(" ".join(lines)) > 8192
    document = fixture_bytes("long_text.xml")
    assert parse_entry(document) == exact_parse(document) == (expected, [])


# Whitespace to str.split and str.strip that XML does not collapse.
_NON_XML_SPACES = ["\u00a0", "\u202f", "\u3000", "\u0085", "\u2028"]


@pytest.mark.parametrize("space", _NON_XML_SPACES)
def test_non_xml_whitespace_is_value_text(space):
    for text in (f"a{space}b", f"{space}x", f"x{space}", f"a {space} b"):
        tree = Node([P("def", text)])
        assert parse_entry(serialize_entry(tree)) == (tree, [])
    tree, _ = parse_entry(f"<struc><def> a{space} \n b\t</def></struc>".encode())
    assert tree == Node([P("def", f"a{space} b")])


@pytest.mark.parametrize("space", _NON_XML_SPACES)
def test_non_xml_whitespace_in_a_structural_element_is_stray_text(space):
    _, diagnostics = parse_entry(f"<struc>\n  {space}\n  <orth>x</orth>\n</struc>".encode())
    assert [(d.line, d.column, d.message) for d in diagnostics] == [
        (2, 1, "stray text inside a structural element; ignored")
    ]


def test_every_space_outside_xml_whitespace_is_unprintable():
    # printable text holds no whitespace but the space, so str.split would be exact on it alone;
    # normalize_text searches for the four XML whitespace characters instead, on any text
    spaces = [c for c in map(chr, range(0x110000)) if c.isspace() and c not in " \t\n\r"]
    assert spaces and not any(c.isprintable() for c in spaces)


def test_nfc_makes_no_xml_whitespace():
    # the premise of normalize_text's fast path: text with no tab, LF, CR or doubled, leading or
    # trailing space is canonical once in NFC, since no canonical decomposition holds XML whitespace
    others = "".join(c for c in map(chr, range(0x110000)) if c not in " \t\n\r")
    assert not set(unicodedata.normalize("NFD", others)) & set(" \t\n\r")


def _value_reference(chardata: str) -> str:
    return unicodedata.normalize("NFC", re.sub("[ \t\n\r]+", " ", chardata).strip(" "))


@settings(max_examples=300)
@given(st.text(" \t\n\r\u00a0\u2028\u200b\u0001e\u0301\u00e9\u0338a", max_size=12))
def test_normalize_text_is_the_reference_on_both_of_its_paths(text):
    # for direct callers too: text that is canonical once in NFC, and text that needs collapsing or trimming
    assert normalize_text(text) == _value_reference(text)


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from(parsegen.VALUE_PIECES), max_size=6), min_size=1, max_size=3))
def test_value_text_is_its_character_data_trimmed_and_collapsed(values):
    # each value of the entry, read by either pass, against a reference that shares no code with the parser
    document = "<struc>" + "".join(f"<def>{''.join(m for m, _ in pieces)}</def>" for pieces in values) + "</struc>"
    expected = [_value_reference("".join(c for _, c in pieces)) for pieces in values]
    # the constructor makes the same canonical text of the same character data
    assert [Atomic("".join(c for _, c in pieces)).text for pieces in values] == expected
    for parse in (parse_entry, exact_parse):
        tree, diagnostics = parse(document.encode("utf-8"))
        assert ([p.value.text for p in tree.properties], diagnostics) == (expected, [])


def test_a_decomposed_value_is_read_as_its_nfc_form():
    # raw or as a character reference, the combining accent reads, writes and reads back as one é
    for orth in ("cafe\u0301", "cafe&#x301;"):
        document = f"<struc><orth>{orth}</orth><def> e\u0301\u0301  x </def></struc>".encode()
        for parse in (parse_entry, exact_parse):
            tree, diagnostics = parse(document)
            assert ([p.value.text for p in tree.properties], diagnostics) == (["caf\u00e9", "\u00e9\u0301 x"], [])
            written = serialize_entry(tree)
            again, diagnostics = parse(written)
            assert (again, diagnostics) == (tree, []) and serialize_entry(again) == written


def test_a_parse_leaves_no_reference_cycle():
    # the tree and the parse's state go when the last reference does, not at a later collection
    gc.collect()
    gc.disable()
    try:
        for document in (fixture_bytes("pinna.xml"), b"<struc><orth>x</struc>", b"<struc><sensenum/></struc>",
                         fixture_bytes("stray_text.xml")):
            try:
                parse_entry(document, STRICT)
            except ParseError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_profile_rejects_structural_names_and_empty():
    with pytest.raises(ValueError):
        EncodingProfile(["orth", "struc"])
    with pytest.raises(ValueError):
        EncodingProfile([])


# ---------------------------------------------------------------------------
# Serialization


def test_serialize_single_leaf():
    assert serialize_entry(Node()) == (
        b'<?xml version="1.0" encoding="utf-8"?>\n<dict>\n  <struc/>\n</dict>\n'
    )


def test_serialize_is_canonical_for_fixture_files():
    for name in ("overdress.xml", "pinna.xml", "disproof.xml", "overdress_materialized.xml", "leaf.xml"):
        data = fixture_bytes(name)
        tree, _ = parse_entry(data)
        assert serialize_entry(tree) == data, name


def test_gendarme_reserializes_to_an_equivalent_document(gendarme):
    out = serialize_entry(gendarme)
    tree, diagnostics = parse_entry(out)
    assert diagnostics == []
    assert tree == gendarme
    # the gender alias canonicalizes, so the bytes differ from the source file
    assert b"<gen>mas</gen>" in out


def test_empty_value_round_trips():
    tree = Node([P("pos", "")])
    again, _ = parse_entry(serialize_entry(tree))
    assert again == tree


@pytest.mark.parametrize("feature", ["gender", "struc", "alt", "dict", "2nd"])
def test_serialize_refuses_a_feature_that_would_not_read_back_as_itself(feature):
    # an alias reads back as its canonical name, a structural name as structure, a digit first as no element
    with pytest.raises(UnknownFeature) as err:
        serialize_entry(Node([Property(feature, "x")]))
    assert err.value.feature == feature
    assert str(err.value) == f"feature {feature!r} has no element that reads back as itself"
    # a node's alternatives are checked before its children, whichever of the two is refused for what
    with pytest.raises(UnknownFeature):
        serialize_entry(Node([P("orth", "x")], [AltGroup([[P(feature, "1")], [P("pos", "v")]])], [Node([P("def", "a\x01b")])]))
    with pytest.raises(SerializeError) as err:
        serialize_entry(Node([P("orth", "x")], [AltGroup([[P("pos", "n")], [P("pos", "a\x01b")]])], [Node([P(feature, "1")])]))
    assert not isinstance(err.value, UnknownFeature) and "pos" in str(err.value)


def test_serialize_writes_a_feature_outside_the_profile_as_the_lenient_parser_keeps_it():
    tree = Node([P("orth", "x"), P("sensenum", "2", n="1"), P("brack", [P("foo", "f")])], children=[Node([P("foo", "g")])])
    document = serialize_entry(tree)
    assert b'<sensenum n="1">2</sensenum>' in document and b"<foo>f</foo>" in document
    again, diagnostics = parse_entry(document)
    assert again == tree
    assert [(d.line, d.message) for d in diagnostics] == [
        (5, "unknown element <sensenum> kept as a feature"), (7, "unknown element <foo> kept as a feature"),
        (10, "unknown element <foo> kept as a feature")]
    with pytest.raises(UnknownElement):
        parse_entry(document, STRICT)


def test_serialize_rejects_out_of_encoding_values():
    cases = [
        (Property("def", Composite([P("ex", "x")])), "def"),
        (Property("brack", Atomic("text")), "brack"),
        (Property("brack", Composite([P("brack", [P("ex", "x")])])), "brack"),
        # text, attribute values and attribute names that XML cannot carry
        (P("orth", "a\x01b"), "orth"),
        (P("orth", "a\ufffeb"), "orth"),
        (P("orth", "a\ud800b"), "orth"),
        (Property("orth", "x", [("a<b", "v")]), "orth"),
        (Property("orth", "x", [("1a", "v")]), "orth"),
        (Property("orth", "x", [("a\u0132", "v")]), "orth"),  # a Name since XML 1.0's 5th edition, not to expat
        (Property("orth", "x", [("n", "a\x01b")]), "orth"),
        (Property("orth", "x", [("n\ud800", "v")]), "orth"),
        (Property("brack", Composite([P("ex", "a\uffffb")])), "ex"),
        (Property("brack", Composite([P("ex", "x")]), [("1a", "v")]), "brack"),
    ]
    for prop, named in cases:
        with pytest.raises(SerializeError) as err:
            serialize_entry(Node([prop]))
        assert named in str(err.value), prop


def test_whitespace_in_a_value_becomes_canonical_and_reads_back_byte_identically():
    # the constructor collapses each run of XML whitespace to one space and trims the ends, as the
    # parser does, so a value's whitespace always reads back; U+00A0 and U+2028 are text
    cases = {
        "a  b": "a b", "a\tb": "a b", "a\nb": "a b", "a\rb": "a b", " a \t b\n": "a b", "a \r\nb": "a b",
        "\u00e9\t\u00e9": "\u00e9 \u00e9", "": "", " a": "a", "a ": "a", " ": "", "\t\n\r": "",
        "a b": "a b", "\u00a0a\u00a0 b": "\u00a0a\u00a0 b", "e\u0301 f": "\u00e9 f", "\u00e9 ": "\u00e9",
        "a\u00a0\t\u2028 \n b": "a\u00a0 \u2028 b",
    }
    for text, canonical in cases.items():
        element = f"<xr>{canonical}</xr>" if canonical else "<xr/>"
        for prop in (P("xr", text), P("brack", [P("ex", "e"), P("xr", text)])):
            value = prop.value if prop.feature == "xr" else prop.value.properties[1].value
            assert value == Atomic(canonical) and value.text == canonical, repr(text)
            tree = Node([P("orth", "x"), prop])
            written = serialize_entry(tree)
            assert element.encode() in written, repr(text)
            again, diagnostics = parse_entry(written)
            assert (again, diagnostics) == (tree, []) and serialize_entry(again) == written, repr(text)
    alts = AltGroup([[P("pos", "n")], [P("pos", "v\tw")]])
    tree = Node([P("orth", "x")], [alts], [Node([P("def", " a \r\n b ")])])
    written = serialize_entry(tree)
    assert b"<pos>v w</pos>" in written and b"<def>a b</def>" in written
    again, diagnostics = parse_entry(written)
    assert (again, diagnostics) == (tree, []) and serialize_entry(again) == written


def _unshared(node):
    """A copy of the tree in which no two places hold the same Property object."""

    def copy(prop):
        if isinstance(prop.value, Composite):
            return Property(prop.feature, Composite([copy(p) for p in prop.value.properties]), prop.attrs)
        return Property(prop.feature, Atomic(prop.value.text), prop.attrs)

    return Node(
        [copy(p) for p in node.properties],
        [AltGroup([[copy(p) for p in alt] for alt in g.alternatives]) for g in node.alt_groups],
        [_unshared(c) for c in node.children],
    )


def _places(node):
    """Every property reachable in the tree, inside bracks and alternatives too."""
    props = list(node.properties) + [p for g in node.alt_groups for alt in g.alternatives for p in alt]
    props += [inner for p in props if isinstance(p.value, Composite) for inner in p.value.properties]
    return props + [p for c in node.children for p in _places(c)]


def test_shared_properties_serialize_like_unshared_ones(gendarme, registry):
    materialized = materialize_inheritance(gendarme, registry)
    xr = P("xr", "b", type="see")
    brack = P("brack", [P("ex", "e\u0301"), xr])
    pair = AltGroup([[brack, xr], [P("pos", "n")]])
    shared = Node([xr, brack], [pair], [Node([brack, xr]), Node([xr], [pair]), materialized])
    for tree in (materialized, shared):
        places = _places(tree)
        assert len({id(p) for p in places}) < len(places)  # the tree does share objects
        copy = _unshared(tree)
        assert copy == tree and len({id(p) for p in _places(copy)}) == len(_places(copy))
        assert serialize_entry(tree) == serialize_entry(copy)
        assert serialize_entry(parse_entry(serialize_entry(tree))[0]) == serialize_entry(tree)


def test_shared_property_with_a_refused_feature_still_refused():
    refused = Property("gender", "x")
    with pytest.raises(UnknownFeature) as err:
        serialize_entry(Node([refused], children=[Node([refused]), Node([refused])]))
    assert err.value.feature == "gender"
    ex = P("ex", "e")
    for tree in (Node([P("orth", "x")], children=[Node([ex]), Node([ex])]),
                 Node([P("brack", [ex])], children=[Node([ex])])):
        assert serialize_entry(tree).count(b"<ex>e</ex>") == 2


def test_escaping_survives_round_trip():
    for prop in [
        Property("def", 'a & b < c > "d"', (("note", 'x "y" &\nz'),)),
        # names and characters the parser produces, which the writer must keep writing
        Property("orth", "é", (("xml:lang", "fr"), ("é", "a\tb\nc\rd"), ("a.b-c_1", "\U0001f600"))),
    ]:
        tree = Node([prop])
        again, _ = parse_entry(serialize_entry(tree))
        assert again == tree


def _chain(levels, features=("ex",)):
    """A chain whose node i holds one property per feature, valued feature + i."""
    node = None
    for i in reversed(range(levels)):
        node = Node([P(f, f"{f}{i}") for f in features], children=[node] if node else [])
    return node


def _uncapped(levels):
    """`_chain(levels)` written with each line indented by its full depth."""
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<dict>"]
    for i in range(levels):
        lines += [f"{'  ' * (i + 1)}<struc>", f"{'  ' * (i + 2)}<ex>ex{i}</ex>"]
    lines += [f"{'  ' * (i + 1)}</struc>" for i in reversed(range(levels))] + ["</dict>", ""]
    return "\n".join(lines).encode()


def test_lines_up_to_64_levels_deep_keep_their_indentation():
    assert serialize_entry(_chain(63)) == _uncapped(63)  # its deepest line sits 64 levels deep
    deepest = b"\n" + b"  " * 65 + b"<ex>ex63</ex>"
    assert serialize_entry(_chain(64)) == _uncapped(64).replace(deepest, deepest.replace(b"  ", b"", 1))


def test_a_deep_chain_writes_linear_bytes():
    tree = _chain(2000)
    document = serialize_entry(tree)
    assert len(document) < 2_000_000  # 12 MB with each line indented by its full depth
    assert parse_entry(document) == (tree, [])
    # every kind of line, past the cap: alternatives, a brack in one, and its properties
    pair = AltGroup([[P("brack", [P("ex", "a"), P("xr", "b")])], [P("pos", "v")]])
    tree = Node([P("orth", "x"), P("brack", [P("ex", "c")])], [pair])
    for _ in range(70):
        tree = Node([P("ex", "y")], children=[tree])
    document = serialize_entry(tree)
    assert max(len(line) - len(line.lstrip()) for line in document.split(b"\n")) == 128
    assert parse_entry(document) == (tree, [])


def test_chunks_join_to_the_document():
    alt = AltGroup([[P("pos", "n"), P("brack", [P("ex", "a"), P("xr", "b", type="see")])], [P("pos", "v")]])
    tree = Node([P("orth", "x")], children=[
        Node([P("def", f"d{i}"), P("brack", [P("ex", f"e{i}")], n="1"), P("brack", [])], [alt], [Node()])
        for i in range(300)
    ])
    chunks = list(serialize_chunks(tree))
    document = serialize_entry(tree)
    assert len(chunks) > 2 and b"".join(chunks) == document
    assert parse_entry(document) == (tree, [])


def test_a_refusal_in_the_last_node_comes_before_any_chunk():
    valid = [Node([P("def", f"d{i}")]) for i in range(1000)]
    assert len(list(serialize_chunks(Node([P("orth", "x")], children=valid)))) > 1
    with pytest.raises(UnknownFeature):  # at the call, before any chunk is asked for
        serialize_chunks(Node([P("orth", "x")], children=[*valid, Node([Property("gender", "y")])]))


def test_writing_a_materialized_chain_holds_a_fraction_of_it(registry):
    # counts allocations, not time: the writer holds one node's piece of the document at a time
    tree = materialize_inheritance(_chain(200, ("def", "ex")), registry)  # def is cumulative
    size = len(serialize_entry(tree))
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            sink.writelines(serialize_chunks(tree))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < size / 4


# ---------------------------------------------------------------------------
# Properties


@given(xml_trees())
def test_parse_serialize_round_trip(tree):
    document = serialize_entry(tree)
    again, diagnostics = parse_entry(document, XML_PROFILE)
    assert diagnostics == []
    assert again == tree


@given(xml_trees())
def test_serialization_is_byte_idempotent(tree):
    once = serialize_entry(tree)
    again, _ = parse_entry(once, XML_PROFILE)
    assert serialize_entry(again) == once


@st.composite
def tag_soup(draw):
    return parsegen.tag_soup(lambda options: draw(st.sampled_from(options)),
                             lambda low, high: draw(st.integers(low, high)))


@settings(max_examples=300)
@given(tag_soup(), st.sampled_from([DEFAULT_PROFILE, STRICT]))
def test_tag_soup_parses_or_raises_parse_error(document, profile):
    try:
        tree, diagnostics = parse_entry(document, profile)
    except ParseError:
        return
    assert isinstance(tree, Node)
    assert all(d.severity == "warning" for d in diagnostics)


@settings(max_examples=200)
@given(tag_soup(), st.sampled_from([DEFAULT_PROFILE, STRICT]))
def test_tag_soup_parses_alike_from_str_and_bytes(document, profile):
    try:
        text = document.decode("utf-8")
    except UnicodeDecodeError:  # truncated inside a character
        return
    outcomes = []
    for source in (document, text):
        try:
            outcomes.append(parse_entry(source, profile))
        except ParseError as exc:
            outcomes.append((exc.__class__, exc.diagnostic))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# One pass for clean documents and refused ones, a second for stray text


def outcome(parse, document, profile=DEFAULT_PROFILE):
    """What a parse gives: the tree and diagnostics, or the error's class and diagnostic."""
    try:
        return parse(document, profile)
    except ParseError as exc:
        return exc.__class__, exc.diagnostic


def exact_parse(document, profile=DEFAULT_PROFILE):
    """The pass that warns of stray text as it goes, never collecting it first."""
    return xmlio._parse(document, profile, exact=True)


# Text for the gaps between the serializer's lines, all of them directly inside
# a structural element: whitespace, other spaces, punctuation, references,
# a comment and CDATA sections; and runs longer than the first pass's 8,192-character text buffer.
_GAP_TEXT = (" ", "\t", "\n  ", "\r\n", "\u00a0", ",", "&amp;", "&#10;", "<!-- c -->", "<![CDATA[x]]>",
             "<![CDATA[ ]]>", " " * 9000, "\n" * 8190 + "&#10;<!-- c -->\t;")


@settings(max_examples=200)
@given(xml_trees(), st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_GAP_TEXT)), max_size=4))
def test_parse_equals_the_exact_pass_with_text_in_structural_gaps(tree, inserts):
    lines = serialize_entry(tree).decode("utf-8").split("\n")
    for position, text in inserts:
        lines[1 + position % (len(lines) - 3)] += text  # from <dict> to the line before </dict>
    document = "\n".join(lines).encode("utf-8")
    assert outcome(parse_entry, document, XML_PROFILE) == outcome(exact_parse, document, XML_PROFILE)


@settings(max_examples=300)
@given(tag_soup(), st.sampled_from([DEFAULT_PROFILE, STRICT]))
def test_tag_soup_parses_as_the_exact_pass_does(document, profile):
    assert outcome(parse_entry, document, profile) == outcome(exact_parse, document, profile)


@pytest.fixture
def passes(monkeypatch):
    """A list that gets one item for each expat parser created."""
    created = []
    create = expat.ParserCreate

    def counting(*args, **kwargs):
        created.append(None)
        return create(*args, **kwargs)

    monkeypatch.setattr(expat, "ParserCreate", counting)
    return created


def parse_passes(passes, document, profile=DEFAULT_PROFILE):
    passes.clear()
    parse_entry(document, profile)
    return len(passes)


def test_clean_documents_parse_in_one_pass_and_stray_text_in_two(passes):
    fixtures = sorted(FIXTURES.glob("*.xml"))
    assert len(fixtures) > 10
    for path in fixtures:
        document = path.read_bytes()
        assert parse_passes(passes, document) == (2 if path.name == "stray_text.xml" else 1), path.name
        assert parse_passes(passes, document.replace(b"<struc>", b"<struc>,", 1)) == 2, path.name
        written = serialize_entry(parse_entry(document)[0])
        assert parse_passes(passes, written) == 1, path.name
        closing = written.rindex(b"</struc>")
        assert parse_passes(passes, written[:closing] + b";" + written[closing:]) == 2, path.name


@pytest.mark.parametrize("document, profile, error", [
    (b"<struc>,<foo/></struc>", STRICT, UnknownElement),
    (b"<struc>,<orth>a</orth>", DEFAULT_PROFILE, XmlMalformed),
])
def test_stray_text_in_a_refused_document_costs_one_pass(passes, document, profile, error):
    with pytest.raises(error):
        parse_passes(passes, document, profile)
    assert len(passes) == 1  # the refusal comes from the first pass, as the exact pass gives it
    assert outcome(parse_entry, document, profile) == outcome(exact_parse, document, profile)


def test_text_in_skipped_subtrees_keeps_one_pass(passes):
    for document in (b"<struc><x.y>1</x.y><orth>a</orth></struc>", _SKIPPED):
        assert parse_passes(passes, document) == 1
        assert outcome(parse_entry, document) == outcome(exact_parse, document)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # parse_passes resets the count
@given(tree=xml_trees())
def test_serialized_trees_parse_in_one_pass(passes, tree):
    assert parse_passes(passes, serialize_entry(tree), XML_PROFILE) == 1
