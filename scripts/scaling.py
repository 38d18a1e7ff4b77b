#!/usr/bin/env python3
"""Print the cost per node of each tree-wide operation on a deep chain and
on a balanced tree.

Each chain level adds a cumulative `def` and a local `ex`, so the state a
walk carries grows with the depth; every node of the balanced tree (fan-out
3, depth 9, 29,524 nodes) carries the same two features. An operation that
is linear in the size of the tree costs about as much per node on the chain
as on the balanced tree. `materialize_inheritance` writes levels²/2
properties on a chain, so it runs only on chains of up to 5,000 levels.

The `effective_set` row answers one query per node, every node of the tree,
and prints the cost per query. A query folds its whole path in one `_fold`
call: about ten nodes on the balanced tree, and levels/2 on average on a
chain, so the chain's queries fold levels²/2 nodes in all, and run only on
chains of up to 2,000 levels.

The XML rows time `serialize_entry` of the tree and `parse_entry` of the
bytes it wrote, so the parser's cost per element has a number of its own;
the parse row prints the document's size. The canonical form indents each
line by its depth up to 64 levels, so a chain's document grows linearly.
The parser keeps a value that arrives canonical as it is, so a second parse
row reads the same document with runs of XML whitespace around every value,
which the parser must collapse.

The memory rows run three commands, each in a process of its own through
`bench/cli_probe.py`, and print the size of what it wrote and the process's
peak RSS: `lexitree materialize` on a chain of up to 1,000 levels (levels²/2
properties), and `lexitree traversals` and `lexitree table --cols def` on a
comb of as many levels, leaf first, whose every leaf lists or joins the
`def` of each level above it (levels²/2 lines or values). Each command
hands its output to stdout's buffer piece by piece, so the peak stays near
the size of what it holds (the materialized tree; each listed node's path
and effective set, or each row) rather than that of the output.

The stray-text rows time `parse_entry` of the balanced tree's document,
clean and with a comma after its first start tag or before its last end tag.
The parser checks the text directly inside structural elements once the
document is read; text there other than XML whitespace makes it parse the
document again with the handler that warns of it. So either stray row costs
about a clean pass plus the exact pass, early or late alike.

The last rows time a refusal: the same chain with an alternative group at
its deepest node, which `extract_table`, `materialize_inheritance` and
`enumerate_traversals` must refuse with UnexpandedAlternatives. A refusal
comes before any fold: one bare walk finds that some node has alternatives,
and a second keeps the path to the first such node, so it costs about two
bare walks per node (compare `unregistered_features`) at any depth.

The quadratic rows time `check_consistency` on three shapes that the walk
does not yet handle in linear time (ROADMAP item 5). A comb is a chain with
a leaf beside the continuing child at every level, first or last: the walk
copies the parent's whole state for every child but the last. On a chain
whose `pos` alternates between verb and noun, each overwrite to verb makes
the default rule `dep gen pos noun` scan the whole state for `gen`.

Each timed row runs its operation up to five times, while the runs total
under about a second, and prints the median; a row that takes longer runs
once. Repeating a row changes no row, label or order of the output.

Usage: PYTHONPATH=src python scripts/scaling.py [--levels N]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import lexitree

from lexitree import (
    AltGroup,
    Node,
    Property,
    TableSpec,
    UnexpandedAlternatives,
    check_consistency,
    default_registry,
    effective_set,
    enumerate_traversals,
    expand_alternatives,
    extract_table,
    materialize_inheritance,
    parse_entry,
    partial_traversals,
    serialize_entry,
    unregistered_features,
)

MATERIALIZE_MAX_LEVELS = 5_000
EFFECTIVE_MAX_LEVELS = 2_000
MEMORY_MAX_LEVELS = 1_000
PROBE = Path(__file__).resolve().parent.parent / "bench" / "cli_probe.py"


def level(i):
    return [Property("def", f"d{i}"), Property("ex", f"e{i}")]


def flipping(i):
    return [Property("pos", "verb" if i % 2 else "noun"), *level(i)]


def chain(levels, alternatives=False, props=level):
    groups = [AltGroup([[Property("pos", "noun")], [Property("pos", "verb")]])] if alternatives else []
    node = Node(props(levels - 1), groups)
    for i in reversed(range(levels - 1)):
        node = Node(props(i), children=[node])
    return node


def comb(levels, leaf_first):
    node = Node(level(levels - 1))
    for i in reversed(range(levels - 1)):
        leaf = Node([Property("ex", f"leaf{i}")])
        node = Node(level(i), children=[leaf, node] if leaf_first else [node, leaf])
    return node


def balanced(fanout=3, depth=9):
    # a node's children are one shared subtree, which no walk can tell apart
    layer = [Node(level(depth))]
    for d in reversed(range(depth)):
        layer = [Node(level(d), children=layer * fanout)]
    return layer[0]


def nodes_in(tree):
    """The node count, without iter_nodes' path tuples, which cost O(depth) each."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def operations(tree, twin, registry, with_materialize, with_effective):
    spec = TableSpec(["def", "ex"])
    ops = {
        "check_consistency": lambda: check_consistency(tree, registry),
        "extract_table": lambda: extract_table(tree, spec, registry),
        "expand_alternatives": lambda: expand_alternatives(tree),
        "unregistered_features": lambda: unregistered_features(tree, registry),
        "==": lambda: tree == twin,
        "hash()": lambda: hash(tree),
        "repr": lambda: repr(tree),
    }
    if with_materialize:
        ops["materialize_inheritance"] = lambda: materialize_inheritance(tree, registry)
    if with_effective:
        queries = partial_traversals(tree)  # every node's path, built before the timing starts
        ops["effective_set, per query"] = lambda: [effective_set(tree, path, registry) for path in queries]
    document = serialize_entry(tree)
    ops["serialize_entry"] = lambda: serialize_entry(tree)
    ops[f"parse_entry ({len(document) / 1e6:.1f} MB)"] = lambda: parse_entry(document)
    spaced = re.sub(rb"<(def|ex)>([^<]*)<", rb"<\1>\n  \2 \t<", document)
    ops["parse_entry, collapsing"] = lambda: parse_entry(spaced)
    return ops


def row(op, run, nodes):
    """Time `run` up to five times, while the runs total under about a second, and print the median."""
    times = []
    while len(times) < 5 and sum(times) < 1:
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    seconds = statistics.median(times)
    print(f"  {op:<24} {seconds * 1e6 / nodes:9.2f} µs/node  {seconds:8.3f} s")


def report(name, make, registry, with_materialize, with_effective):
    tree, twin = make(), make()  # built apart, so == compares every property
    nodes = nodes_in(tree)
    print(f"{name} ({nodes:,} nodes)")
    for op, run in operations(tree, twin, registry, with_materialize, with_effective).items():
        row(op, run, nodes)
    if not with_materialize:
        print(f"  {'materialize_inheritance':<24} skipped above {MATERIALIZE_MAX_LEVELS:,} levels")
    if not with_effective:
        print(f"  {'effective_set, per query':<24} skipped above {EFFECTIVE_MAX_LEVELS:,} levels")


def report_stray_text():
    tree = balanced()
    nodes = nodes_in(tree)
    document = serialize_entry(tree)
    first = document.index(b"<struc>") + len(b"<struc>")
    last = document.rindex(b"</struc>")
    print(f"stray text: balanced 3^9 ({nodes:,} nodes)")
    for op, text in {
        "parse_entry, clean": document,
        "parse_entry, early": document[:first] + b"," + document[first:],
        "parse_entry, late": document[:last] + b"," + document[last:],
    }.items():
        row(op, lambda: parse_entry(text), nodes)


def probe_memory(tree, argv):
    """`lexitree ARGV[0] FILE ARGV[1:]` on `tree`'s document, as its own process: bytes written and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(Path(lexitree.__file__).resolve().parent.parent))
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp) / "entry.xml"
        document.write_bytes(serialize_entry(tree))
        with subprocess.Popen([sys.executable, str(PROBE), argv[0], str(document), *argv[1:]], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            written = 0
            while block := proc.stdout.read(1 << 16):  # counted, not kept
                written += len(block)
            report = proc.stderr.read().decode().rstrip("\n").rpartition("\n")[2]
    if proc.returncode:
        raise SystemExit(f"lexitree {' '.join(argv)} failed: {report}")
    return written, json.loads(report)["maxrss_mb"]


def report_memory(levels):
    for title, tree, argv in (
        (f"lexitree materialize, chain of {levels:,} levels", chain(levels), ["materialize"]),
        (f"lexitree traversals, comb of {levels:,} levels, leaf first", comb(levels, leaf_first=True), ["traversals"]),
        (f"lexitree table --cols def, comb of {levels:,} levels, leaf first", comb(levels, leaf_first=True),
         ["table", "--cols", "def"]),
    ):
        written, peak = probe_memory(tree, argv)
        print(f"memory: {title}")
        print(f"  {'output':<24} {written / 1e6:9.1f} MB")
        print(f"  {'peak RSS':<24} {peak:9.1f} MB")


def report_refusals(levels, registry):
    tree = chain(levels, alternatives=True)
    print(f"refusals: chain of {levels:,} levels, alternatives at the deepest node")
    for op, run in {
        "extract_table": lambda: extract_table(tree, TableSpec(["def", "ex"]), registry),
        "materialize_inheritance": lambda: materialize_inheritance(tree, registry),
        "enumerate_traversals": lambda: enumerate_traversals(tree),
    }.items():
        def refusal():
            try:
                run()
            except UnexpandedAlternatives:
                return
            raise SystemExit(f"{op} did not refuse a tree with alternatives")
        row(op, refusal, levels)


def report_quadratic(levels, registry):
    print(f"known quadratic costs (ROADMAP item 5): check_consistency, {levels:,} levels")
    for name, tree in {
        "comb, leaf first": comb(levels, leaf_first=True),
        "comb, leaf last": comb(levels, leaf_first=False),
        "chain, pos alternating": chain(levels, props=flipping),
    }.items():
        row(name, lambda: check_consistency(tree, registry), nodes_in(tree))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--levels", type=int, default=5_000, help="chain depth (default 5,000)")
    args = parser.parse_args()
    if args.levels < 1:
        parser.error("--levels must be at least 1")
    registry = default_registry()
    report("balanced 3^9", balanced, registry, True, True)
    report(f"chain of {args.levels:,} levels", lambda: chain(args.levels), registry,
           args.levels <= MATERIALIZE_MAX_LEVELS, args.levels <= EFFECTIVE_MAX_LEVELS)
    report_memory(min(args.levels, MEMORY_MAX_LEVELS))
    report_stray_text()
    report_refusals(args.levels, registry)
    report_quadratic(args.levels, registry)


if __name__ == "__main__":
    main()
