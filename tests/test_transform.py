import itertools

import pytest
from hypothesis import assume, given, settings

from conftest import CountingRegistry, P, entries_as_tuples, fixture_bytes
from treegen import tree_with_registry

from lexitree.model import (
    AltGroup,
    DependencyRule,
    FeatureClass,
    FeatureClassRegistry,
    Node,
    OverwriteConflict,
    UnexpandedAlternatives,
    check_consistency,
    effective_set,
    enumerate_traversals,
    format_value,
    iter_nodes,
    partial_traversals,
    resolve_path,
)
from lexitree.rules import parse_rules
from lexitree.transform import (
    MAX_EXPANDED_NODES,
    ExpansionTooLarge,
    TableSpec,
    expand_alternatives,
    extract_table,
    materialize_inheritance,
    render_table,
)
from lexitree.xmlio import parse_entry

# ---------------------------------------------------------------------------
# expand_alternatives


def test_expand_pinna_duplicates_into_siblings(pinna):
    expanded = expand_alternatives(pinna)
    assert expanded.properties == pinna.properties
    first, second = expanded.children
    assert first == Node([P("plural", "pinnae"), P("pron", "pron2")])
    assert second == Node([P("plural", "pinnas")])
    assert all(not node.alt_groups for _, node in _walk(expanded))


def test_expand_is_identity_on_alt_free_trees(overdress, gendarme, disproof):
    for tree in (overdress, gendarme, disproof):
        assert expand_alternatives(tree) == tree


def test_expand_cross_product_order_and_properties():
    node = Node(
        [P("pos", "noun")],
        alt_groups=[
            AltGroup([[P("number", "singular")], [P("number", "plural")]]),
            AltGroup([[P("geo", "US")], [P("geo", "UK")], [P("geo", "AU")]]),
        ],
        children=[Node([P("ex", "shared")])],
    )
    tree = Node([P("orth", "amphi")], children=[node])
    expanded = expand_alternatives(tree)
    combos = [
        ("singular", "US"), ("singular", "UK"), ("singular", "AU"),
        ("plural", "US"), ("plural", "UK"), ("plural", "AU"),
    ]
    assert len(expanded.children) == 6
    for sibling, (number, geo) in zip(expanded.children, combos):
        assert sibling.properties == (P("geo", geo), P("number", number), P("pos", "noun"))
        assert sibling.children == (Node([P("ex", "shared")]),)


def test_expand_two_alt_group_fixture_yields_six_siblings():
    tree, _ = parse_entry(fixture_bytes("two_alt_groups.xml"))
    expanded = expand_alternatives(tree)
    assert len(expanded.children) == 6


def test_expand_root_alternatives_get_a_fresh_root():
    root = Node(
        [P("pos", "noun")],
        alt_groups=[AltGroup([[P("orth", "a")], [P("orth", "b")]])],
    )
    expanded = expand_alternatives(root)
    assert expanded.properties == ()
    assert [c.properties for c in expanded.children] == [
        (P("orth", "a"), P("pos", "noun")),
        (P("orth", "b"), P("pos", "noun")),
    ]


def _nested_pairs(levels: int) -> Node:
    """`levels` nested nodes, each with one two-way group: the expanded tree
    has 2 ** (levels + 1) - 1 nodes, the fresh root included."""
    node = None
    for i in range(levels):
        pair = AltGroup([[P("orth", f"a{i}")], [P("orth", f"b{i}")]])
        node = Node(alt_groups=[pair], children=[node] if node else [])
    return node


def test_expansion_is_counted_before_it_is_built():
    assert sum(1 for _ in iter_nodes(expand_alternatives(_nested_pairs(15)))) == 2**16 - 1
    with pytest.raises(ExpansionTooLarge) as err:
        expand_alternatives(_nested_pairs(18))  # 524,287 nodes
    assert err.value.exit_code == 1
    assert f"the limit is {MAX_EXPANDED_NODES:,}" in str(err.value)


def test_expansion_exactly_at_the_bound_is_built():
    # (1 + leaves) nodes per variant, 3 x 3 variants, plus the fresh root.
    def groups(name):
        return [AltGroup([[P(name, "1")], [P(name, "2")], [P(name, "3")]])]

    leaves = (MAX_EXPANDED_NODES - 1) // 9 - 1
    at_bound = Node(alt_groups=groups("orth") + groups("pos"), children=[Node()] * leaves)
    assert 9 * (1 + leaves) + 1 == MAX_EXPANDED_NODES
    assert sum(1 for _ in iter_nodes(expand_alternatives(at_bound))) == MAX_EXPANDED_NODES
    with pytest.raises(ExpansionTooLarge):
        expand_alternatives(Node(alt_groups=at_bound.alt_groups, children=[Node()] * (leaves + 1)))


def test_expand_preserves_attrs(pinna):
    tree = Node(
        alt_groups=[AltGroup([[P("xr", "a", type="see")], [P("xr", "b", type="syn")]])],
        children=[],
    )
    wrapped = Node([P("orth", "w")], children=[tree])
    expanded = expand_alternatives(wrapped)
    assert [c.properties[0].attrs for c in expanded.children] == [
        (("type", "see"),),
        (("type", "syn"),),
    ]


def _walk(node, path=()):
    yield path, node
    for i, child in enumerate(node.children):
        yield from _walk(child, path + (i,))


# ---------------------------------------------------------------------------
# materialize_inheritance


def test_materialize_overdress_reproduces_spelled_out_form(overdress):
    registry = parse_rules("class orth over")
    materialized = materialize_inheritance(overdress, registry)
    expected, _ = parse_entry(fixture_bytes("overdress_materialized.xml"))
    assert materialized == expected
    for child in materialized.children:
        assert child.properties[0] == P("orth", "overdress")


def test_materialize_single_leaf_unchanged(registry):
    leaf = Node([P("orth", "solo"), P("ex", "e")])
    assert materialize_inheritance(leaf, registry) == leaf


def test_materialize_gendarme_nodes_equal_their_effective_sets(gendarme, registry):
    materialized = materialize_inheritance(gendarme, registry)
    for path, node in _walk(materialized):
        assert node.properties == effective_set(gendarme, path, registry).entries
    leaf = materialized.children[0].children[0].children[0]
    listed = [(str(p.feature), p.value.text) for p in leaf.properties]
    assert ("orth", "le gendarme") in listed
    assert ("pos", "noun") in listed and ("gen", "mas") in listed
    assert ("etym", "1790") in listed and ("time", "modern") in listed
    assert sum(f == "def" for f, _ in listed) == 2
    # the sense node's local xr/brack/ex stay put and do not reach the leaf
    assert not any(f in ("xr", "brack") for f, _ in listed)
    assert sum(f == "ex" for f, _ in listed) == 1


def test_materialize_requires_expanded_tree(pinna, registry):
    with pytest.raises(UnexpandedAlternatives):
        materialize_inheritance(pinna, registry)


def test_materialize_copies_cumulative_ancestors_down():
    # with ex reclassified cumulative, ancestor examples land on descendants
    registry = parse_rules("class orth over\nclass ex cum")
    tree = Node(
        [P("orth", "w"), P("ex", "first", n="1")],
        children=[Node([P("ex", "second")])],
    )
    materialized = materialize_inheritance(tree, registry)
    child = materialized.children[0]
    assert child.properties == (
        P("orth", "w"),
        P("ex", "first", n="1"),
        P("ex", "second"),
    )


def test_materialize_does_not_write_blocked_dependents():
    registry = FeatureClassRegistry(
        {"pos": FeatureClass.OVERWRITING, "gen": FeatureClass.OVERWRITING},
        [DependencyRule("gen", "pos", "n")],
    )
    tree = Node([P("pos", "n"), P("gen", "f")], children=[Node([P("pos", "v")])])
    materialized = materialize_inheritance(tree, registry)
    assert materialized.children[0].properties == (P("pos", "v"),)


def test_materialize_keeps_a_value_that_differs_by_a_leading_no_break_space(registry):
    tree, _ = parse_entry("<struc><orth>x</orth><def>x</def><struc><def>\u00a0x</def></struc></struc>".encode())
    (child,) = materialize_inheritance(tree, registry).children
    assert child.properties == (P("orth", "x"), P("def", "x"), P("def", "\u00a0x"))


@given(tree_with_registry())
@settings(max_examples=60)
def test_materialize_idempotent_and_sound(tree_and_registry):
    tree, registry = tree_and_registry
    once = materialize_inheritance(tree, registry)
    assert materialize_inheritance(once, registry) == once
    for path in partial_traversals(tree):
        before = effective_set(tree, path, registry)
        after = effective_set(once, path, registry)
        assert list(before.items()) == list(after.items())


@given(tree_with_registry(allow_alts=True))
@settings(max_examples=60)
def test_expand_idempotent(tree_and_registry):
    tree, _ = tree_and_registry
    once = expand_alternatives(tree)
    assert expand_alternatives(once) == once


def _substitutions(node):
    """Every assignment of one alternative per group, recursively."""
    child_options = [_substitutions(child) for child in node.children]
    results = []
    for choice in itertools.product(*(g.alternatives for g in node.alt_groups)):
        extra = []
        for alternative in reversed(choice):
            extra.extend(alternative)
        for children in itertools.product(*child_options):
            results.append(Node(tuple(extra) + node.properties, (), children))
    return results


def _leaf_signatures(tree, registry):
    signatures = set()
    for path in enumerate_traversals(tree):
        try:
            signatures.add(tuple(entries_as_tuples(effective_set(tree, path, registry))))
        except OverwriteConflict:
            signatures.add("conflict")
    return signatures


@given(tree_with_registry(allow_alts=True, max_depth=3))
@settings(max_examples=60)
def test_expansion_commutes_with_traversal(tree_and_registry):
    tree, registry = tree_and_registry
    assignments = _substitutions(tree)
    assume(len(assignments) <= 128)
    expanded = _leaf_signatures(expand_alternatives(tree), registry)
    substituted = set()
    for assigned in assignments:
        substituted |= _leaf_signatures(assigned, registry)
    assert expanded == substituted


# ---------------------------------------------------------------------------
# extract_table


def test_overdress_table_matches_published_rows(overdress, registry):
    spec = TableSpec(["orth", "pos", "def"])
    rows = extract_table(overdress, spec, registry)
    assert rows == [
        ("overdress", "verb", "To dress (oneself or another) too elaborately or finely"),
        ("overdress", "noun", "A dress that may be worn over a jumper, blouse, etc."),
    ]


def test_missing_feature_gives_empty_cell(registry):
    leaf = Node([P("orth", "mono")])
    rows = extract_table(leaf, TableSpec(["orth", "pos"]), registry)
    assert rows == [("mono", "")]


def test_cumulative_cells_join_values(gendarme, registry):
    rows = extract_table(gendarme, TableSpec(["orth", "def"]), registry)
    assert rows == [
        (
            "le gendarme",
            "Militaire appartenant à un corps ...; symbole de la force publique, de l'ordre.",
        )
    ]


def test_table_requires_expanded_tree(pinna, registry):
    with pytest.raises(UnexpandedAlternatives):
        extract_table(pinna, TableSpec(["orth"]), registry)


def test_table_spec_validation():
    with pytest.raises(ValueError):
        TableSpec([])
    with pytest.raises(ValueError):
        TableSpec(["orth"], format="csv")


def test_render_tsv(overdress, registry):
    spec = TableSpec(["orth", "pos", "def"])
    rows = extract_table(overdress, spec, registry)
    assert render_table(spec, rows) == (
        "orth\tpos\tdef\n"
        "overdress\tverb\tTo dress (oneself or another) too elaborately or finely\n"
        "overdress\tnoun\tA dress that may be worn over a jumper, blouse, etc.\n"
    )


def test_render_html_shape_and_escaping(registry):
    leaf = Node([P("orth", "a&b"), P("pos", "<n>")])
    spec = TableSpec(["orth", "pos"], format="html")
    out = render_table(spec, extract_table(leaf, spec, registry))
    assert out == (
        "<table>\n"
        "  <tr>\n"
        "    <th>orth</th>\n"
        "    <th>pos</th>\n"
        "  </tr>\n"
        "  <tr>\n"
        "    <td>a&amp;b</td>\n"
        "    <td>&lt;n&gt;</td>\n"
        "  </tr>\n"
        "</table>\n"
    )
    assert render_table(spec, []) == "<table>\n  <tr>\n    <th>orth</th>\n    <th>pos</th>\n  </tr>\n</table>\n"


@given(tree_with_registry())
@settings(max_examples=60)
def test_row_count_equals_full_traversals(tree_and_registry):
    tree, registry = tree_and_registry
    rows = extract_table(tree, TableSpec(["fa", "fb"]), registry)
    assert len(rows) == len(enumerate_traversals(tree))


def test_table_cells_for_repeated_and_absent_columns_and_brack_values(registry):
    leaf = Node([
        P("orth", "x"),
        P("def", ""),
        P("brack", [P("ex", "a"), P("xr", "b", type="see")]),
        P("def", "y"),
    ])
    rows = extract_table(leaf, TableSpec(["def", "brack", "pos", "def", "orth"]), registry)
    assert rows == [("; y", "[ex : a, xr : b]", "", "; y", "x")]


@given(tree_with_registry())
@settings(max_examples=60)
def test_table_cells_are_each_columns_values_in_effective_order(tree_and_registry):
    tree, registry = tree_and_registry
    columns = ["fa", "fb", "fa", "fc", "fd", "fe", "ff", "zz"]  # a repeated column, and one no tree has
    expected = [
        tuple(
            "; ".join(format_value(p.value) for p in effective_set(tree, path, registry).entries if p.feature == c)
            for c in columns
        )
        for path in enumerate_traversals(tree)
    ]
    assert extract_table(tree, TableSpec(columns), registry) == expected


@given(tree_with_registry())
@settings(max_examples=60)
def test_every_fold_classifies_each_property_once(tree_and_registry):
    tree, registry = tree_and_registry
    walks = {
        "check_consistency": lambda counting: check_consistency(tree, counting),
        "materialize_inheritance": lambda counting: materialize_inheritance(tree, counting),
        "extract_table": lambda counting: extract_table(tree, TableSpec(["fa"]), counting),
    }
    for name, walk in walks.items():
        counting = CountingRegistry(registry)
        walk(counting)
        assert counting.calls == sum(len(node.properties) for _, node in iter_nodes(tree)), name
    for path in partial_traversals(tree):
        counting = CountingRegistry(registry)
        effective_set(tree, path, counting)
        assert counting.calls == sum(len(resolve_path(tree, path[:cut]).properties) for cut in range(len(path) + 1))
