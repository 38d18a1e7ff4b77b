"""Structure-to-structure transforms: alternative expansion, inheritance
materialization, and table extraction.

All three are pure functions on immutable trees; shared subtrees in the
results are safe because nothing here mutates a node.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .model import (
    FeatureClassRegistry,
    FeatureName,
    LexitreeError,
    Node,
    _effective_lists,
    _preorder,
    _Value,
    format_value,
)
from .xmlio import _escape_text

# The most nodes an expanded tree may have. Expansion shares subtrees, but
# whatever uses its result (writing, materializing) pays for every node.
MAX_EXPANDED_NODES = 100_000


class ExpansionTooLarge(LexitreeError):
    """Expanding the alternatives would give more than MAX_EXPANDED_NODES nodes."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"the expansion would have at least {nodes:,} nodes; the limit is {MAX_EXPANDED_NODES:,}")


def expand_alternatives(root: Node) -> Node:
    """Rewrite alternative groups as explicit sibling partitions.

    A node with one group of k alternatives becomes k siblings; each carries
    its alternative's properties followed by the shared content (common
    properties, later groups, children). Several groups at one node expand to
    their cross-product with the leftmost group varying slowest. A tree
    without groups comes back structurally identical.

    A root that itself carries alternatives has nowhere to put siblings, so
    its variants are attached under a fresh property-less root.

    The result's node count is worked out before any of it is built; above
    MAX_EXPANDED_NODES the expansion raises ExpansionTooLarge.
    """
    built: list[list[Node]] = []  # the variants of each expanded subtree
    sizes: list[int] = []  # the node count of those variants together
    order = [node for _, _, node in _preorder(root)]
    for node in reversed(order):  # each node's children are expanded before it
        if not (node.alt_groups or node.children):
            built.append([node])  # a leaf without alternatives stays as it is
            sizes.append(1)
            continue
        children: list[Node] = []
        size = 1
        for _ in node.children:
            children += built.pop()
            size += sizes.pop()
        for group in node.alt_groups:
            size *= len(group.alternatives)
        if node is root and node.alt_groups:
            size += 1  # the fresh root its variants go under
        if size > MAX_EXPANDED_NODES:
            raise ExpansionTooLarge(size)
        sizes.append(size)
        # a later group's alternative goes ahead of an earlier one's, as if
        # the groups were expanded one at a time
        built.append([
            Node(sum(reversed(chosen), ()) + node.properties, (), children)
            for chosen in product(*(group.alternatives for group in node.alt_groups))
        ])
    (variants,) = built
    if len(variants) == 1:
        return variants[0]
    return Node(children=variants)


def materialize_inheritance(root: Node, registry: FeatureClassRegistry) -> Node:
    """Rewrite each node so it spells out the features holding there.

    The tree shape is unchanged; every node's property list becomes its
    effective feature set: inherited values are written in ancestor-first
    order ahead of the node's own properties, an overwriting feature keeps a
    locally present value instead of the inherited one, dependency blocking
    applies as in effective_set, and local features stay where they were.
    Running the operation twice changes nothing: re-specified values are
    no-ops and duplicated cumulative values collapse.
    """
    folded = [(node, props) for _, node, props in _effective_lists(root, registry)]
    built: list[Node] = []
    for node, props in reversed(folded):  # each node's children are built before it
        children = [built.pop() for _ in node.children]
        built.append(Node(props, (), children))
    return built[0]


class TableSpec(_Value):
    """Columns to extract, one row per full traversal."""

    __slots__ = _fields = ("columns", "format")
    columns: tuple[FeatureName, ...]
    format: str

    def __init__(self, columns: Iterable[FeatureName | str], format: str = "tsv"):
        cols = tuple(FeatureName(c) for c in columns)
        if not cols:
            raise ValueError("a table needs at least one column")
        if format not in ("tsv", "html"):
            raise ValueError(f"unsupported table format {format!r}")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "format", format)


def extract_table(root: Node, spec: TableSpec, registry: FeatureClassRegistry) -> list[tuple[str, ...]]:
    """One row per full traversal; a cell holds the column feature's value(s)
    in that traversal's effective set, multiple values joined with "; "."""
    return [
        tuple("; ".join(format_value(p.value) for p in props if p.feature == column) for column in spec.columns)
        for _, _, props in _effective_lists(root, registry, leaves_only=True)
    ]


def render_tsv(spec: TableSpec, rows: list[tuple[str, ...]]) -> str:
    lines = ["\t".join(str(c) for c in spec.columns)]
    lines.extend("\t".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def render_html(spec: TableSpec, rows: list[tuple[str, ...]]) -> str:
    lines = ["<table>"]
    for column in spec.columns:
        lines.append(f"  <th>{_escape_text(str(column))}</th>")
    for row in rows:
        lines.append("  <tr>")
        for cell in row:
            lines.append(f"    <td>{_escape_text(cell)}</td>")
        lines.append("  </tr>")
    lines.append("</table>")
    return "\n".join(lines) + "\n"


def render_table(spec: TableSpec, rows: list[tuple[str, ...]]) -> str:
    if spec.format == "html":
        return render_html(spec, rows)
    return render_tsv(spec, rows)
