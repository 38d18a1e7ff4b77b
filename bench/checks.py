"""Output checks, run outside the timed region.

References come from outside the engine: the generator's own answers
(expanded bytes, planted violations) and the naive replay oracle in
tests/oracle.py, which shares no code with lexitree's propagation. Each
check returns a list of (check name, message) failures.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from lexitree import (
    DEFAULT_PROFILE,
    Atomic,
    expand_alternatives,
    materialize_inheritance,
    parse_entry,
    serialize_entry,
)

from commands import TABLE_COLUMNS

# The one check whose failures are a known limitation of the encoding rather
# than a wrong answer from an operation: a node with two alternative groups
# serializes to XML that re-parses as one merged group.
ROUND_TRIP = "roundtrip"


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("lexitree_bench_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_effective_set


def _fmt(value) -> str:
    if isinstance(value, Atomic):
        return value.text
    return "[" + ", ".join(f"{p.feature} : {_fmt(p.value)}" for p in value.properties) + "]"


def _walk(root):
    """(path, node) in document order, independent of lexitree's own walkers."""
    out = []
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        stack.extend((path + (i,), node.children[i]) for i in range(len(node.children) - 1, -1, -1))
    return out


def _dotted(path) -> str:
    return ".".join(map(str, path))


class Checker:
    def __init__(self, oracle, registry, sample: int | None):
        self.oracle = oracle
        self.registry = registry
        self.sample = sample  # paths checked per document; None checks every path

    def _pick(self, items, seed):
        if self.sample is None or len(items) <= self.sample:
            return items
        return random.Random(seed).sample(items, self.sample)

    @staticmethod
    def _lines(held) -> str:
        return "".join(f"{p.feature} : {_fmt(p.value)}\n" for p, _ in held)

    def check(self, doc, outputs: dict) -> list:
        """`outputs`: command name -> Result, plus "queries" -> formatted
        effective sets for doc.query_paths."""
        failures = []

        def fail(name, message):
            failures.append((name, f"{doc.name}: {message}"))

        tree, diagnostics = parse_entry(doc.raw, DEFAULT_PROFILE)
        expanded, more = parse_entry(doc.expanded, DEFAULT_PROFILE)
        if diagnostics or more:
            fail("parse", f"unexpected diagnostics {[d.describe() for d in diagnostics + more]}")

        # bytes equal to the parsed document re-parse to the same tree
        written = serialize_entry(tree)
        if written != doc.raw and parse_entry(written, DEFAULT_PROFILE)[0] != tree:
            fail(ROUND_TRIP, "parse(serialize(t)) != t")

        # validate: the planted violations, nothing else
        result = outputs["validate"]
        expected_paths = sorted(_dotted(p) or "(root)" for p in doc.violations)
        got_paths = sorted(line.split(":", 1)[0] for line in result.stderr.splitlines())
        if doc.violations:
            if result.rc != 1 or result.stdout or got_paths != expected_paths:
                fail("validate", f"expected violations at {expected_paths}, got rc={result.rc} {got_paths}")
        elif (result.rc, result.stdout, result.stderr) != (0, b"OK\n", ""):
            fail("validate", f"expected OK, got rc={result.rc} {result.stderr[:200]!r}")

        if outputs["expand"].stdout != doc.expanded:
            fail("expand", "expand output differs from the reference expansion")

        nodes = _walk(expanded)
        cache = {}

        def oracle(path):
            if path not in cache:
                cache[path] = self.oracle(expanded, path, self.registry)
            return cache[path]

        leaves = [path for path, node in nodes if not node.children]
        sampled = set(self._pick(range(len(leaves)), f"{doc.name}:leaves"))

        # traversals: one block per leaf in document order; sampled blocks
        # must list the oracle's effective set
        # blocks are separated by one blank line; no line is empty otherwise
        blocks = outputs["traversals"].stdout.decode("utf-8").removesuffix("\n").split("\n\n")
        if len(blocks) != len(leaves):
            fail("traversals", f"{len(blocks)} blocks for {len(leaves)} leaves")
        else:
            for i, (path, block) in enumerate(zip(leaves, blocks)):
                head, _, body = block.partition("\n")
                if head != _dotted(path):
                    fail("traversals", f"block {i} names {head!r}, expected {_dotted(path)!r}")
                    break
                if i in sampled and (body + "\n" if body else "") != self._lines(oracle(path)):
                    fail("traversals", f"effective set at {_dotted(path)!r} disagrees with the oracle")

        for path, got in zip(doc.query_paths, outputs["queries"], strict=True):
            if got != self._lines(self.oracle(tree, path, self.registry)):
                fail("effective", f"query at {_dotted(path)!r} disagrees with the oracle")

        # table: header plus one row per leaf; cells recomputed from the oracle
        columns = TABLE_COLUMNS.split(",")
        rows = outputs["table"].stdout.decode("utf-8").split("\n")
        if rows[0] != "\t".join(columns) or rows[-1] != "" or len(rows) != len(leaves) + 2:
            fail("table", f"table has {len(rows) - 2} rows for {len(leaves)} leaves")
        else:
            for i in sorted(sampled):
                held = oracle(leaves[i])
                cells = ["; ".join(_fmt(p.value) for p, _ in held if p.feature == c) for c in columns]
                if rows[i + 1] != "\t".join(cells):
                    fail("table", f"row for {_dotted(leaves[i])!r} disagrees with the oracle")

        # materialize: the checked tree is the one that was printed; every
        # node spells out its oracle effective set, which materializing
        # again leaves unchanged, and effective sets are preserved
        materialized = materialize_inheritance(expand_alternatives(tree), self.registry)
        if serialize_entry(materialized) != outputs["materialize"].stdout:
            fail("materialize", "output differs from the materialized tree it should encode")
        else:
            m_nodes = dict(_walk(materialized))
            for path, _ in self._pick(nodes, f"{doc.name}:nodes"):
                before = oracle(path)
                if list(m_nodes[path].properties) != [p for p, _ in before]:
                    fail("materialize", f"node {_dotted(path)!r} does not spell out its effective set")
                elif self.oracle(materialized, path, self.registry) != before:
                    fail("materialize", f"effective set at {_dotted(path)!r} changed")
        return failures
