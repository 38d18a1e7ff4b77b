#!/usr/bin/env python3
"""Time one layer of lexitree for an earlier commit and for this checkout,
in alternating rounds inside one process.

REV is checked out with `scripts/worktree.py`. Both checkouts' `lexitree`
packages are imported from their `src` under two package names,
`lexitree_base` and `lexitree_change`, so each side runs its own code on its
own objects in the same interpreter, where rounds that alternate see the same
machine state. The input is the benchmark's `big_entry` document of seed S,
as `bench/run.py --workload big_entry` builds it (`bench/generate.py`, depth
6: 1,093 nodes, 249 KB at seed 7, and 1,000 seeded point queries). Each side parses it itself
and loads its own `rules.default_registry()`.

What one round of each layer runs:

* effective_set: every seeded point query; its times read per query;
* check_consistency: one call on the raw tree;
* materialize_inheritance: one call on the expanded tree, parsed from the
  generator's canonical expansion;
* parse_entry: one parse of the raw document.

Each side first runs a round untimed, and the script says whether the two
sides' results have equal `repr`s. Then every round times both sides after a
`gc.collect()`, REV first in even rounds and this checkout first in odd ones.
The report gives each side's median and quartiles; the median and quartiles
of the per-round ratio, this checkout's time over REV's, which the host's
speed moves less than either side, since it moves both sides of a round
alike; the number of rounds this checkout was faster (a tie counts for
neither side); and a verdict, which the ratio does not enter: "faster"
or "slower" only when one side wins at least nine tenths of the rounds and
the medians differ by more than the distance between REV's quartiles, and
"not resolved" otherwise. Only a bad argument or REV makes it exit non-zero.

Usage: python scripts/layer_ab.py --base REV --layer NAME [--rounds N] [--seed S]
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import generate  # noqa: E402
from worktree import checkout  # noqa: E402

LAYERS = ("effective_set", "check_consistency", "materialize_inheritance", "parse_entry")
BIG_DEPTH, BIG_QUERIES = 6, 1000  # bench/workloads.py's big_entry


def load(name: str, src: Path) -> dict:
    """The modules of the `lexitree` package under `src`, imported as package `name`."""
    init = src / "lexitree" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # before it runs, so that its relative imports find it
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}") for module in ("model", "rules", "transform", "xmlio")}


def round_of(layer: str, modules: dict, doc: generate.Document):
    """A function that runs one round of `layer` with these modules and returns its results."""
    model, transform, parse = modules["model"], modules["transform"], modules["xmlio"].parse_entry
    registry = modules["rules"].default_registry()
    if layer == "parse_entry":
        return lambda: parse(doc.raw)
    if layer == "materialize_inheritance":
        expanded, _ = parse(doc.expanded)
        return lambda: transform.materialize_inheritance(expanded, registry)
    tree, _ = parse(doc.raw)
    if layer == "check_consistency":
        return lambda: model.check_consistency(tree, registry)
    return lambda: [model.effective_set(tree, path, registry) for path in doc.query_paths]


def timed(run) -> float:
    """Seconds that one call of `run` takes, the collector having run just before."""
    gc.collect()
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV", help="the commit to compare with")
    parser.add_argument("--layer", required=True, choices=LAYERS)
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds per side (default 20, at least 2)")
    parser.add_argument("--seed", type=int, default=7, help="the big_entry seed (default 7)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, to give quartiles")
    doc = generate.big_entry(args.seed, depth=BIG_DEPTH, n_queries=BIG_QUERIES)
    with checkout(args.base) as base:  # kept while the rounds run: a module may import lazily
        runs = [round_of(args.layer, load(name, src), doc)
                for name, src in (("lexitree_base", base / "src"), ("lexitree_change", ROOT / "src"))]
        results = [repr(run()) for run in runs]  # also each side's untimed round
        times: list = [[], []]
        for i in range(args.rounds):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                times[side].append(timed(runs[side]))
    scale, unit = (1e6 / BIG_QUERIES, "µs per query") if args.layer == "effective_set" else (1e3, "ms per round")
    base_times, change_times = ([t * scale for t in side] for side in times)
    print(f"{args.layer} on big_entry seed {args.seed} ({doc.stats['nodes']} nodes, {BIG_QUERIES} queries), "
          f"{args.rounds} rounds, Python {sys.version.split()[0]}")
    print("results:", "equal on both sides" if results[0] == results[1] else "DIFFER between the sides")
    print(f"{'side':<24} {'median':>10} {'q1':>10} {'q3':>10}  ({unit})")
    quartiles = [statistics.quantiles(side, n=4, method="inclusive") for side in (base_times, change_times)]
    for label, (q1, median, q3) in zip((args.base, "this checkout"), quartiles):
        print(f"{label:<24.24} {median:>10.4f} {q1:>10.4f} {q3:>10.4f}")
    (q1, base_median, q3), (_, change_median, _) = quartiles
    ratio_q1, ratio_median, ratio_q3 = statistics.quantiles(
        [c / b for b, c in zip(base_times, change_times)], n=4, method="inclusive")
    print(f"per-round ratio, this checkout over {args.base}: median {ratio_median:.4f}, "
          f"quartiles {ratio_q1:.4f}–{ratio_q3:.4f}")
    wins = sum(c < b for b, c in zip(base_times, change_times))
    losses = sum(c > b for b, c in zip(base_times, change_times))
    resolved = abs(change_median - base_median) > q3 - q1
    verdict = ("faster" if resolved and wins >= 0.9 * args.rounds and change_median < base_median
               else "slower" if resolved and losses >= 0.9 * args.rounds and change_median > base_median
               else "not resolved")
    print(f"this checkout faster in {wins} of {args.rounds} rounds; median {change_median / base_median - 1:+.1%}, "
          f"{args.base}'s quartile spread {q3 - q1:.4f}; verdict: {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
