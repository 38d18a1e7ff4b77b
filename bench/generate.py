"""Seeded generators for the benchmark's inputs.

Everything here is independent of lexitree: entries are built as plain
Python values, written out as XML bytes, and expanded by a separate
reference implementation of the documented expansion rule. The program
under test only ever sees the bytes. Each generated document carries the
answers the checks need that do not come from tests/oracle.py: the canonical
bytes of its expansion, the dependency violations planted in it, and its
shape statistics.

Only features of the shipped default rules are used, so no registry warning
fires and every path has a well-defined effective set.
"""

from __future__ import annotations

import itertools
import random
import unicodedata
from dataclasses import dataclass, field

# (feature, value, attrs); a value is text, or a tuple of atomic props for brack
Prop = tuple

POS_VALUES = ("noun", "verb", "adj", "adv")
GENDERS = ("mas", "fem", "neu")
DOMAINS = ("law", "music", "botany", "zoology", "médecine", "marine", "Küche", "astronomy")
TIMES = ("archaic", "modern", "rare", "obsolète")
WORDS = (
    "a", "of", "the", "to", "make", "small", "piece", "force", "order", "dress", "kind", "part",
    "publique", "être", "façon", "naïve", "Straße", "cœur", "ǆungla", "gendarme", "voleur",
    "symbole", "corps", "brigade", "salt & pepper", "x < y", "a -> b", "“quoted”", "σκιά", "слово",
    "木", "über", "Ångström", "déjà vu", "fiancée", "smörgåsbord", "jalapeño", "ça",
)
HEADWORDS = (
    "gendarme", "overdress", "pinna", "disproof", "café", "façade", "naïveté", "Ärger",
    "über", "résumé", "fjord", "ciùdad", "crème", "señor", "smørrebrød", "œuvre",
)
XR_TYPES = ("see", "cf", "syn", 'a "q" & b')

FANOUT = 3  # children of every inner node of big_entry
VIOLATION_SHARE = 0.1  # corpus entries drawn to carry a planted violation
CORPUS_QUERIES = 4  # point queries per corpus entry


def _nfc(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).split())


@dataclass
class GNode:
    props: list = field(default_factory=list)
    # (position, alternatives): the group is written after props[:position]
    groups: list = field(default_factory=list)
    children: list = field(default_factory=list)


@dataclass
class Document:
    """One generated entry: its bytes and everything the checks know about it."""

    name: str
    raw: bytes  # what the program parses
    expanded: bytes  # canonical bytes that `expand` must print for `raw`
    violations: tuple  # raw-tree paths where a dependency violation was planted
    two_group: bool  # a node carries two alternative groups split by a property
    query_paths: tuple  # seeded node paths in the raw tree
    stats: dict  # shape statistics of raw and expanded trees


# ---------------------------------------------------------------------------
# Canonical XML writer (the encoding documented in the README)


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")


def _escape_attr(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
        .replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")
    )


def _attrs(attrs) -> str:
    return "".join(f' {k}="{_escape_attr(v)}"' for k, v in attrs)


def _write_prop(prop: Prop, lines: list, indent: str) -> None:
    feature, value, attrs = prop
    if isinstance(value, tuple):
        lines.append(f"{indent}<{feature}{_attrs(attrs)}>")
        for inner in value:
            _write_prop(inner, lines, indent + "  ")
        lines.append(f"{indent}</{feature}>")
    elif value:
        lines.append(f"{indent}<{feature}{_attrs(attrs)}>{_escape_text(value)}</{feature}>")
    else:
        lines.append(f"{indent}<{feature}{_attrs(attrs)}/>")


def _write_node(node: GNode, lines: list, indent: str) -> None:
    if not (node.props or node.groups or node.children):
        lines.append(f"{indent}<struc/>")
        return
    lines.append(f"{indent}<struc>")
    inner = indent + "  "
    done = 0
    for position, alternatives in node.groups:
        for prop in node.props[done:position]:
            _write_prop(prop, lines, inner)
        done = max(done, position)
        for alternative in alternatives:
            lines.append(f"{inner}<alt>")
            for prop in alternative:
                _write_prop(prop, lines, inner + "  ")
            lines.append(f"{inner}</alt>")
    for prop in node.props[done:]:
        _write_prop(prop, lines, inner)
    for child in node.children:
        _write_node(child, lines, inner)
    lines.append(f"{indent}</struc>")


def to_xml(root: GNode) -> bytes:
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<dict>"]
    _write_node(root, lines, "  ")
    lines.append("</dict>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Reference expansion: each combination of alternatives (leftmost group
# varying slowest) becomes a sibling whose properties are the chosen
# alternatives, last group first, followed by the node's own properties.


def expand(node: GNode) -> list:
    children = [variant for child in node.children for variant in expand(child)]
    if not node.groups:
        return [GNode(list(node.props), [], children)]
    variants = []
    for combo in itertools.product(*(alternatives for _, alternatives in node.groups)):
        props = [p for alternative in reversed(combo) for p in alternative] + list(node.props)
        variants.append(GNode(props, [], children))
    return variants


def _walk(root: GNode):
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((path + (i,), node.children[i]))


def shape(root: GNode) -> dict:
    """Nodes, depth, properties, alternative groups, and the share of node
    paths where an inherited `gen` was evicted by a `pos` other than noun and
    no `gen` was set again below (the default rule `dep gen pos noun`)."""
    nodes = props = groups = blocked = depth = 0
    # node, depth, pos in force, (gen value, contributing depth) in force, blocked
    stack = [(root, 0, None, None, False)]
    while stack:
        node, d, pos, gen, gen_blocked = stack.pop()
        nodes += 1
        depth = max(depth, d)
        props += len(node.props)
        groups += len(node.groups)
        for feature, value, _ in node.props:
            if feature == "pos" and value != pos:
                pos = value
                if value != "noun" and gen is not None and gen[1] < d:
                    gen, gen_blocked = None, True
            elif feature == "gen" and (gen is None or gen[0] != value):
                gen, gen_blocked = (value, d), False
        blocked += gen_blocked
        stack.extend((child, d + 1, pos, gen, gen_blocked) for child in node.children)
    return {
        "nodes": nodes,
        "depth": depth,
        "properties": props,
        "alt_groups": groups,
        "gen_blocked_share": blocked / nodes,
    }


def _all_paths(root: GNode) -> list:
    return [path for path, _ in _walk(root)]


def _make_document(name, root, violations, two_group, rng, n_queries) -> Document:
    (expanded_root,) = expand(root)
    raw_shape = shape(root)
    expanded_shape = shape(expanded_root)
    raw = to_xml(root)
    expanded = to_xml(expanded_root)
    paths = _all_paths(root)
    query_paths = tuple(rng.choice(paths) for _ in range(n_queries))
    stats = {
        "bytes": len(raw),
        "expanded_bytes": len(expanded),
        **raw_shape,
        "expanded_nodes": expanded_shape["nodes"],
        "expanded_properties": expanded_shape["properties"],
        "expanded_leaves": sum(1 for _, n in _walk(expanded_root) if not n.children),
    }
    return Document(name, raw, expanded, tuple(violations), two_group, query_paths, stats)


# ---------------------------------------------------------------------------
# Vocabulary


def _sentence(rng: random.Random, lo: int, hi: int) -> str:
    return _nfc(" ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi))))


def _xr(rng: random.Random) -> Prop:
    return ("xr", _nfc(rng.choice(HEADWORDS)), (("type", rng.choice(XR_TYPES)),))


def _brack(rng: random.Random) -> Prop:
    inner = (("ex", _sentence(rng, 2, 5), ()), _xr(rng))
    return ("brack", inner, (("n", str(rng.randint(1, 9))),))


def _sense_props(rng: random.Random) -> list:
    props = []
    for _ in range(rng.choice((1, 1, 1, 2))):
        attrs = (("n", str(rng.randint(1, 5))),) if rng.random() < 0.2 else ()
        props.append(("def", _sentence(rng, 3, 7), attrs))
    if rng.random() < 0.25:
        props.append(("domain", rng.choice(DOMAINS), ()))
    if rng.random() < 0.15:
        props.append(("time", rng.choice(TIMES), ()))
    for _ in range(rng.choice((0, 0, 1, 2))):
        props.append(("ex", _sentence(rng, 3, 6), (("lang", "fr"),) if rng.random() < 0.2 else ()))
    if rng.random() < 0.2:
        props.append(_xr(rng))
    if rng.random() < 0.12:
        props.append(_brack(rng))
    return props


def _pron_alternatives(rng: random.Random) -> list:
    return [
        [("pron", _nfc("ˈ" + rng.choice(HEADWORDS)), ()), ("def", _sentence(rng, 2, 5), ())],
        [("pron", _nfc("ˌ" + rng.choice(HEADWORDS)), ())],
    ]


def _domain_alternatives(rng: random.Random) -> list:
    first, second = rng.sample(DOMAINS, 2)
    return [[("domain", first, ())], [("domain", second, ())]]


# ---------------------------------------------------------------------------
# corpus: dictionary-sized entries


def corpus_entry(rng: random.Random, name: str, plant_violation: bool, plant_two_groups: bool,
                 n_queries: int) -> Document:
    """One entry: headword root, 1-3 part-of-speech blocks, 1-5 senses each,
    0-3 subsenses per sense (depth <= 3)."""
    headword = _nfc(rng.choice(HEADWORDS) + rng.choice(("", "s", "-ish", "ette")))
    root = GNode([("orth", headword, ()), ("pron", _nfc("/" + headword + "/"), ())])
    if rng.random() < 0.5:
        root.props.append(("etym", _sentence(rng, 2, 6), ()))
    root_gen = rng.random() < 0.3
    if root_gen:  # a noun-first entry carries its gender at the top
        root.props += [("pos", "noun", ()), ("gen", rng.choice(GENDERS), ())]
    blocks = rng.sample(POS_VALUES, rng.randint(1, 3))
    if plant_violation and all(p == "noun" for p in blocks):
        blocks.append("verb")
    senses_by_pos = {}
    for pos in blocks:
        block = GNode([("pos", pos, ())])
        if pos == "noun" and (not root_gen or rng.random() < 0.3):
            block.props.append(("gen", rng.choice(GENDERS), ()))
        if rng.random() < 0.15:
            block.props.append(("pron", _nfc("/" + headword + pos[0] + "/"), ()))
        for _ in range(rng.randint(1, 5)):
            sense = GNode(_sense_props(rng))
            for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
                sub = GNode(_sense_props(rng))
                if rng.random() < 0.1:
                    sub.props.insert(0, ("orth", _nfc("le " + headword), ()))
                sense.children.append(sub)
            block.children.append(sense)
            senses_by_pos.setdefault(pos, []).append(sense)
        root.children.append(block)

    # senses and subsenses; none carries pron, so pron alternatives are safe
    senses = [node for path, node in _walk(root) if len(path) >= 2]
    for node in senses:
        if rng.random() < 0.08:
            node.groups.append((len(node.props), _pron_alternatives(rng)))
    if plant_two_groups:
        # two groups separated by the node's last property; the canonical
        # writer puts them side by side, where they re-parse as one group
        node = rng.choice(senses)
        node.groups = [(len(node.props) - 1, _pron_alternatives(rng)),
                       (len(node.props), _domain_alternatives(rng))]

    violations = []
    if plant_violation:
        pos = rng.choice([p for p in blocks if p != "noun"])
        sense = rng.choice(senses_by_pos[pos])
        sense.props.append(("gen", rng.choice(GENDERS), ()))
        violations = [path for path, node in _walk(root) if node is sense]
    return _make_document(name, root, violations, plant_two_groups, rng, n_queries)


def corpus(seed: int, count: int, block: int) -> list:
    """`count` entries. In every run of `block` consecutive entries exactly one,
    at a seeded position, has two alternative groups split by a property;
    about VIOLATION_SHARE of the entries carry a planted violation."""
    rng = random.Random(f"corpus:{seed}")
    docs = []
    for start in range(0, count, block):
        planted = start + rng.randrange(min(block, count - start))
        for i in range(start, min(start + block, count)):
            docs.append(corpus_entry(rng, f"c{i:05d}", rng.random() < VIOLATION_SHARE, i == planted,
                                     CORPUS_QUERIES))
    return docs


def cli_entries(seed: int, count: int) -> list:
    """Small entries for the CLI workload: no planted violation, no second group."""
    rng = random.Random(f"cli:{seed}")
    return [corpus_entry(rng, f"k{i:03d}", False, False, 1) for i in range(count)]


# ---------------------------------------------------------------------------
# big_entry: one wide, deep entry


def big_entry(seed: int, depth: int, n_queries: int) -> Document:
    """A complete FANOUT-ary tree of the given depth under one headword.
    The root's children are noun, verb and adjective blocks; below them
    senses carry cumulative `def` values that pile up along every path, so
    effective sets grow toward the leaves. A few nodes overwrite `pos` (which
    blocks an inherited `gen` unless the new value is noun), `gen` or `orth`,
    and about one leaf in ten carries a two-way alternative group."""
    rng = random.Random(f"big:{seed}")

    def build(d: int, pos) -> GNode:
        node = GNode(_sense_props(rng))
        if rng.random() < 0.04:
            pos = rng.choice(("noun", "verb", "adj"))
            node.props.insert(0, ("pos", pos, ()))
        if pos == "noun" and rng.random() < 0.05:
            node.props.append(("gen", rng.choice(GENDERS), ()))
        if rng.random() < 0.03:
            node.props.insert(0, ("orth", _nfc(rng.choice(HEADWORDS)), ()))
        if d < depth:
            node.children = [build(d + 1, pos) for _ in range(FANOUT)]
        elif rng.random() < 0.1 and not any(f == "pron" for f, _, _ in node.props):
            node.groups.append((len(node.props), _pron_alternatives(rng)))
        return node

    blocks = []
    for i in range(FANOUT):
        pos = ("noun", "verb", "adj")[i % 3]
        block = GNode([("pos", pos, ())] + ([("gen", rng.choice(GENDERS), ())] if pos == "noun" else []))
        block.children = [build(2, pos) for _ in range(FANOUT)] if depth > 1 else []
        blocks.append(block)
    root = GNode([("orth", "gendarme", ()), ("pron", "ʒɑ̃daʁm", ()), ("etym", _sentence(rng, 3, 6), ())],
                 children=blocks)
    return _make_document("big", root, (), False, rng, n_queries)
