"""The three workloads. Each is a closed loop with one client: the next
attempt starts when the previous one has finished.

An attempt takes one document through every command:

* big_entry and corpus run `lexitree.cli.main` in-process (see
  commands.py) for validate, traversals --full, expand, materialize and
  table `orth,pos,def`. In place of `effective`, one parse answers the
  document's seeded single-path queries, each timed on its own.
* cli runs the six subcommands as `python -m lexitree` processes.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import generate
from commands import command_argv, effective_lines, point_queries, run_cli, traced
from spans import Tracer

PROBE = Path(__file__).resolve().parent / "cli_probe.py"


def write_documents(docs, directory: Path) -> dict:
    """Write raw and expanded files; return doc name -> (raw path, expanded path)."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for doc in docs:
        raw = directory / f"{doc.name}.xml"
        expanded = directory / f"{doc.name}.expanded.xml"
        raw.write_bytes(doc.raw)
        expanded.write_bytes(doc.expanded)
        files[doc.name] = (str(raw), str(expanded))
    return files


class Attempt(NamedTuple):
    times: dict  # command -> seconds
    queries: list  # seconds of each single-path query
    outputs: dict  # command -> Result; "queries" -> formatted effective sets
    reported: dict  # command -> times reported from inside a probe process
    block: int = 0  # number of its block of attempts, set by run.py
    scale: float = 1.0  # factor to reference-host seconds (in-process only), set by run.py

    def total(self) -> float:
        return sum(self.times.values())


class Workload:
    """What both kinds of workload share: input files, command arguments
    and the peak-memory probe."""

    def prepare(self, directory: Path) -> None:
        self.files = write_documents(self.docs + [self.warmup], directory)

    def argv(self, doc) -> dict:
        raw, expanded = self.files[doc.name]
        return command_argv(raw, expanded, ".".join(map(str, doc.query_paths[0])))

    def peak_rss_mb(self, root: Path, env: dict) -> float:
        """Largest peak RSS of the six commands, each run as its own process
        on the largest document."""
        doc = max(self.docs, key=lambda d: d.stats["bytes"])
        return max(probe(root, env, args)[2]["maxrss_mb"] for args in self.argv(doc).values())


def probe(root: Path, env: dict, args: list):
    """Run one command through the probe script; return (seconds, process
    with the probe's report line taken off stderr, the report)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(PROBE)] + args, cwd=root, env=env,
                          capture_output=True, timeout=120)
    seconds = time.perf_counter() - start
    stderr, _, last = proc.stderr.decode("utf-8", "replace").rstrip("\n").rpartition("\n")
    if not last.startswith("{"):
        raise RuntimeError(f"lexitree {args[0]} ended before the probe reported: {last[:200]}")
    stderr = stderr + "\n" if stderr else ""
    return seconds, (proc.stdout, stderr, proc.returncode), json.loads(last)


class InProcess(Workload):
    """big_entry or corpus: the CLI's main() in this process."""

    def __init__(self, name, docs, block: int, check_sample, warmup):
        self.name = name
        self.docs = docs
        self.block = block  # attempts scheduled together; see run.py
        self.check_sample = check_sample  # paths checked per document (None: all)
        self.warmup = warmup  # a small document for the untimed warm-up attempt

    def attempt(self, doc, tracer: Tracer | None = None) -> Attempt:
        times, outputs = {}, {}
        with traced(tracer) if tracer else nullcontext():
            for step, args in self.argv(doc).items():
                if tracer:
                    tracer.step = step
                # untimed: each command starts with the collector's counts at
                # zero, as in the fresh process a user's command runs in, so
                # where a full collection lands does not depend on the steps
                # before; what survives (inputs, kept outputs) is frozen, so
                # the command's collections walk only the program's objects
                gc.collect()
                gc.freeze()
                start = time.perf_counter()
                if step == "effective":
                    queries, sets = point_queries(args[1], doc.query_paths)
                elif tracer:
                    outputs[step] = tracer.span(f"cli.{step}", run_cli, args)
                else:
                    outputs[step] = run_cli(args)
                times[step] = time.perf_counter() - start
        outputs["queries"] = [effective_lines(eff) for eff in sets]
        return Attempt(times, queries, outputs, {})


class Cli(Workload):
    """`python -m lexitree` processes, one after another."""

    name = "cli"
    block = 1
    check_sample = None

    def __init__(self, docs, root: Path, env: dict):
        self.docs = docs
        self.warmup = docs[0]
        self.root = root
        self.env = env

    def attempt(self, doc, tracer: Tracer | None = None) -> Attempt:
        """Run the six subcommands. Traced, each runs through the probe
        script inside a `cli.<command>` span and reports its import and
        main() times."""
        times, outputs, reported = {}, {}, {}
        for step, args in self.argv(doc).items():
            if tracer is None:
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "lexitree"] + args, cwd=self.root,
                                      env=self.env, capture_output=True, timeout=120)
                times[step] = time.perf_counter() - start
                outputs[step] = (proc.stdout, proc.stderr.decode("utf-8", "replace"), proc.returncode)
            else:
                tracer.step = step
                times[step], outputs[step], reported[step] = tracer.span(
                    f"cli.{step}", probe, self.root, self.env, args)
        return Attempt(times, [times["effective"]], outputs, reported)


def build(name: str, seed: int, smoke: bool, root: Path, env: dict):
    warmup = generate.big_entry(seed, depth=2, n_queries=4)
    warmup.name = "warmup"
    if name == "big_entry":
        doc = generate.big_entry(seed, depth=3 if smoke else 6, n_queries=20 if smoke else 1000)
        return InProcess(name, [doc], block=1, check_sample=300, warmup=warmup)
    if name == "corpus":
        docs = generate.corpus(seed, 20 if smoke else 1500, block=10 if smoke else 50)
        return InProcess(name, docs, block=10 if smoke else 50, check_sample=None, warmup=warmup)
    if name == "cli":
        return Cli(generate.cli_entries(seed, 2 if smoke else 6), root, env)
    raise ValueError(f"unknown workload {name!r}")
