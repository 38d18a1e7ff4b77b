#!/usr/bin/env python3
"""lexitree benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload big_entry|corpus|cli --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a checkout: it imports lexitree from the
checkout's src/ and the oracle from its tests/, generates its inputs from
the seed under bench/work/, and removes them at the end. Stdout carries a
report (environment, input shape, sample counts, tail percentiles, output
digest, check failures); its last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, timings scaled to a reference host speed
(calibrate.py); with --trace 1 the per-layer ones.
bench/README.md describes every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate

STARTED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("big_entry", "corpus", "cli")
STEPS = ("validate", "traversals", "expand", "materialize", "table")
REFERENCE_PER_BLOCK = 3  # reference-task samples between blocks of attempts

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import lexitree
t1 = time.perf_counter()
lexitree.default_registry()
t2 = time.perf_counter()
import lexitree.cli
t3 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import calibrate
print(t1 - t0, t2 - t1, t3 - t2, calibrate.sample())
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    return parser.parse_args(argv)


def locate_program():
    """Import lexitree from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "lexitree" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        sys.exit(f"bench: no lexitree checkout around {BENCH} (need src/lexitree and tests/oracle.py)")
    sys.path.insert(0, str(src))
    import lexitree

    if Path(lexitree.__file__).resolve().parent != (src / "lexitree").resolve():
        sys.exit(f"bench: imported lexitree from {lexitree.__file__}, not from {src}")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LEXITREE_RULES")}
    env["PYTHONPATH"] = str(src)
    return env


def environment() -> dict:
    import pyexpat

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lexitree").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "expat": pyexpat.EXPAT_VERSION.removeprefix("expat_"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "none" when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def median(values):
    return statistics.median(values) if values else 0.0


def share(part, whole):
    """part / whole, or 0 when nothing was measured (every attempt failed)."""
    return part / whole if whole else 0.0


def percentile(values, q):
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def measure_setup(env, runs: int, bare: bool) -> dict:
    """Fresh interpreters: import lexitree + default_registry(), then import
    lexitree.cli, then one in-process reference task (calibrate.py), which
    scales set-up; the first run only warms bytecode caches. With `bare`, a
    bare interpreter start follows each, for `cli.interpreter_ms`."""
    out = {"setup": [], "registry": [], "cli_import": [], "reference": [], "bare": []}
    for i in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        import_s, registry_s, cli_s, reference_s = map(float, proc.stdout.split())
        if i:
            out["setup"].append(import_s + registry_s)
            out["registry"].append(registry_s)
            out["cli_import"].append(import_s + registry_s + cli_s)
            out["reference"].append(reference_s)
        if bare and i:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, timeout=60, check=True)
            out["bare"].append(time.perf_counter() - start)
    return out


def digest_of(outputs) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode() + b"\0" + repr(value).encode() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    env = locate_program()
    print("env " + json.dumps(environment()), flush=True)

    import workloads

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, args.smoke, ROOT, env)
    try:
        workload.prepare(work)
        report_shape(workload)
        result = run(args, workload, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report_shape(workload) -> None:
    docs = workload.docs
    keys = ("bytes", "nodes", "depth", "properties", "alt_groups", "expanded_nodes", "gen_blocked_share")
    shape = {k: round(statistics.mean(d.stats[k] for d in docs), 4) for k in keys}
    shape["max_bytes"] = max(d.stats["bytes"] for d in docs)
    shape["documents"] = len(docs)
    shape["violation_share"] = round(sum(bool(d.violations) for d in docs) / len(docs), 4)
    shape["two_group_share"] = round(sum(d.two_group for d in docs) / len(docs), 4)
    print(f"shape {workload.name} " + json.dumps(shape), flush=True)


def run(args, workload, env) -> dict:
    from lexitree import default_registry

    import checks
    from spans import Tracer

    phases = {"generate": time.perf_counter() - STARTED}
    phase_start = time.perf_counter()
    traced = bool(args.trace)
    # set-up samples come in two bursts, before and after the measured loop,
    # so that one short slow spell of the machine does not set the median
    setup_runs = 1 if args.smoke else 8
    setup = measure_setup(env, setup_runs, bare=traced)
    docs = workload.docs
    in_process = args.workload != "cli"
    tracer = Tracer() if traced else None
    try:  # untimed: lazy set-up, bytecode caches
        workload.attempt(workload.warmup)
    except Exception:  # the measured attempts fail the same way and count it
        pass
    phases["setup"] = time.perf_counter() - phase_start

    plain_attempts = []  # (attempt index, doc name, Attempt)
    # in-process: reference-task samples before each block, and after the last
    reference = []
    blocks = 0
    traced_requests, untraced_steps, traced_steps, reported = set(), Counter(), Counter(), []
    first_outputs, first_digest, bad_attempts, errors = {}, {}, {}, []

    attempts = 0
    start = time.perf_counter()
    minimum = workload.block if in_process else len(docs)
    while attempts < minimum or time.perf_counter() - start < args.seconds:
        if in_process:
            reference.append([calibrate.sample() for _ in range(REFERENCE_PER_BLOCK)])
        for index in range(attempts, attempts + workload.block):
            doc = docs[index % len(docs)]
            # traced, each attempt runs twice, plain and traced, in alternating order
            modes = (None,) if not traced else (None, tracer) if index % 2 == 0 else (tracer, None)
            try:
                runs = {}
                for mode in modes:
                    if mode is not None:
                        mode.request = index
                    runs[mode is not None] = workload.attempt(doc, mode)
                plain = runs[False]
                digest = digest_of(plain.outputs)
                first_digest.setdefault(doc.name, digest)
                first_outputs.setdefault(doc.name, plain.outputs)
                if digest != first_digest[doc.name]:
                    bad_attempts[index] = "nondeterministic"
                if traced:
                    traced_requests.add(index)
                    untraced_steps.update(plain.times)
                    traced_steps.update(runs[True].times)
                    reported.extend(runs[True].reported.values())
                    if digest_of(runs[True].outputs) != digest:
                        bad_attempts[index] = "traced output differs"
                # keep timings only; outputs are kept once per document, above
                plain_attempts.append((index, doc.name, plain._replace(outputs=None, block=blocks)))
            except Exception as exc:  # an operation failed: count it and keep measuring
                bad_attempts[index] = f"error {type(exc).__name__}"
                errors.append(f"{doc.name}: {type(exc).__name__}: {exc}")
                plain_attempts.append((index, doc.name, None))
        attempts += workload.block
        blocks += 1
    scales = [1.0] * blocks  # cli processes are not scaled (calibrate.py)
    if in_process:
        reference.append([calibrate.sample() for _ in range(REFERENCE_PER_BLOCK)])
        # each block at the host speed that the samples on either side of it show
        scales = [calibrate.scale(before + after) for before, after in zip(reference, reference[1:])]

    phases["measure"] = time.perf_counter() - start
    start = time.perf_counter()
    for key, values in measure_setup(env, setup_runs, bare=traced).items():
        setup[key] += values
    peak_rss_mb = None if traced else workload.peak_rss_mb(ROOT, env)

    # output checks, outside the timed region
    registry = default_registry()
    checker = checks.Checker(checks.load_oracle(ROOT), registry, workload.check_sample)
    doc_failures = {}
    for doc in docs:
        if doc.name not in first_outputs:
            continue
        outputs = first_outputs[doc.name]
        failures = []
        try:
            if not in_process:
                outputs, failures = cli_against_in_process(workload, doc, outputs)
            failures += checker.check(doc, outputs)
        except Exception as exc:  # the program failed while being checked
            failures.append(("check-error", f"{doc.name}: {type(exc).__name__}: {exc}"))
        doc_failures[doc.name] = failures

    by_check = Counter()
    failed = 0
    wrong = False
    for index, name, _ in plain_attempts:
        reasons = {check for check, _ in doc_failures.get(name, [])}
        if index in bad_attempts:
            reasons.add(bad_attempts[index])
        if reasons:
            failed += 1
            by_check.update(reasons)
            wrong = wrong or bool(reasons - {checks.ROUND_TRIP})
    messages = [m for f in doc_failures.values() for _, m in f] + errors
    for message in messages[:20]:
        print("check-failure " + message)

    digest_docs = docs[: (workload.block if in_process else len(docs))]
    combined = hashlib.sha256("".join(first_digest.get(d.name, "-") for d in digest_docs).encode())
    print(f"digest {args.workload} {combined.hexdigest()}")
    print("failures " + json.dumps({"fail_ratio": share(failed, len(plain_attempts)), "by_check": by_check}))
    phases["check"] = time.perf_counter() - start
    print("phases_s " + json.dumps({k: round(v, 2) for k, v in phases.items()}))

    done = [a._replace(scale=scales[a.block]) for _, _, a in plain_attempts if a is not None]
    if traced:
        print_accounting(tracer, traced_requests, untraced_steps, traced_steps)
        by_name = {d.name: d for d in docs}
        traced_docs = [by_name[name] for index, name, _ in plain_attempts if index in traced_requests]
        metrics = layer_metrics(tracer, traced_requests, traced_docs, setup, done, reported,
                                untraced_steps, traced_steps, in_process)
        tracer.write(BENCH / "work" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(done, in_process, setup, peak_rss_mb, failed, len(plain_attempts),
                             sum(map(len, reference)))
    return {"correct": not wrong, "attempted": len(plain_attempts), "failed": failed, "metrics": metrics}


def cli_against_in_process(workload, doc, outputs):
    """CLI stdout, stderr and exit code must equal those of main() run
    in-process on the same arguments; the in-process results then go
    through the usual checks."""
    from commands import run_cli

    expected = {step: run_cli(args) for step, args in workload.argv(doc).items()}
    failures = [
        ("cli", f"{doc.name}: `lexitree {step}` differs from the in-process result")
        for step, result in expected.items()
        if outputs[step] != tuple(result)
    ]
    expected["queries"] = [expected["effective"].stdout.decode("utf-8")]
    return expected, failures


def print_accounting(tracer, requests, untraced_steps, traced_steps) -> None:
    """Per command, seconds per attempt: untraced, traced, and the traced
    time split into layer self times."""
    n = len(requests)
    by_step = tracer.self_times_by_step(requests)
    rows = {
        step: {
            "untraced_s": round(untraced_steps[step] / n, 6),
            "traced_s": round(traced_steps[step] / n, 6),
            "self_s": {layer: round(s / n, 6) for layer, s in sorted(by_step.get(step, {}).items())},
        }
        for step in untraced_steps
    }
    print("accounting " + json.dumps(rows))


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(done, setup, scaled: bool) -> dict:
    """Medians of the end-to-end timings, as measured or scaled to the
    reference host speed (see calibrate.py): each attempt by its block's
    factor, set-up by that of the reference tasks run in its interpreters."""
    def k(a):
        return a.scale if scaled else 1.0

    setup_scale = calibrate.scale(setup["reference"], calibrate.SETUP_REFERENCE_S) if scaled else 1.0
    entries = [a.total() * k(a) for a in done]
    out = {"setup_s": median(setup["setup"]) * setup_scale}
    for step in STEPS:
        out[f"{step}_s"] = median([a.times[step] * k(a) for a in done])
    out["effective_p50_ms"] = median([t * k(a) for a in done for t in a.queries]) * 1000
    out["entry_p50_ms"] = median(entries) * 1000
    # throughput of each block of attempts, so one slow spell moves one sample
    blocks = {}
    for a in done:
        blocks.setdefault(a.block, []).append(a.total() * k(a))
    out["entries_per_s"] = median([share(len(b), sum(b)) for b in blocks.values()])
    return out


def end_to_end(done, in_process, setup, peak_rss_mb, failed, attempted, n_reference) -> dict:
    """Timings are scaled to the reference host speed; the `unscaled` line
    of the report gives them as measured."""
    effective = [t * a.scale for a in done for t in a.queries]
    entries = [a.total() * a.scale for a in done]
    processes = [t * a.scale for a in done for t in a.times.values()]
    counts = {step: len(done) for step in STEPS}
    counts.update(effective=len(effective), entry=len(entries), setup=len(setup["setup"]),
                  reference=n_reference + len(setup["reference"]))
    print("samples " + json.dumps(counts))
    tails = {
        "effective_p99_ms": percentile(effective, 99),
        "entry_p99_ms": percentile(entries, 99),
        "cli_p50_ms": None if in_process else median(processes),
        "cli_p90_ms": None if in_process else percentile(processes, 90),
    }
    print("tails " + json.dumps({k: v * 1000 for k, v in tails.items() if v is not None}))
    print("unscaled " + json.dumps(timings(done, setup, scaled=False)))
    metrics = {"peak_rss_mb": metric(peak_rss_mb, "MB"), "ok_ratio": metric(1 - failed / attempted, "ratio")}
    for name, value in timings(done, setup, scaled=True).items():
        metrics[name] = metric(value, "1/s" if name == "entries_per_s" else name.rpartition("_")[2])
    return metrics


def layer_metrics(tracer, requests, traced_docs, setup, done, reported, untraced_steps,
                  traced_steps, in_process) -> dict:
    """Per attempt unless a rate, over the traced attempts."""
    n = len(requests)
    totals = tracer.totals(requests)

    def per(span, key="s"):
        return share(totals.get(span, {}).get(key, 0.0), n)

    def rate(span, key, scale=1.0):
        seconds = totals.get(span, {}).get("s", 0.0)
        return share(totals.get(span, {}).get(key, 0.0), seconds) / scale

    def per_prop(span, stat):
        return share(totals.get(span, {}).get("classify", 0.0), sum(d.stats[stat] for d in traced_docs))

    m = {
        "xmlio.parse_entry.s": metric(per("xmlio.parse_entry"), "s"),
        "xmlio.parse_entry.calls": metric(per("xmlio.parse_entry", "calls"), "count"),
        "xmlio.parse_entry.mb_per_s": metric(rate("xmlio.parse_entry", "bytes_in", 1e6), "MB/s"),
        "xmlio.parse_entry.nodes_per_s": metric(rate("xmlio.parse_entry", "nodes"), "1/s"),
        "xmlio.serialize_entry.s": metric(per("xmlio.serialize_entry"), "s"),
        "xmlio.serialize_entry.bytes_out": metric(per("xmlio.serialize_entry", "bytes_out"), "bytes"),
        "xmlio.serialize_entry.mb_per_s": metric(rate("xmlio.serialize_entry", "bytes_out", 1e6), "MB/s"),
        "model.effective_set.s": metric(per("model.effective_set"), "s"),
        "model.effective_set.calls": metric(per("model.effective_set", "calls"), "count"),
        "model.effective_set.entries_out": metric(per("model.effective_set", "entries_out"), "count"),
        "model.check_consistency.s": metric(per("model.check_consistency"), "s"),
        "model.check_consistency.violations": metric(per("model.check_consistency", "violations"), "count"),
        "transform.expand_alternatives.s": metric(per("transform.expand_alternatives"), "s"),
        "transform.expand_alternatives.nodes_in": metric(per("transform.expand_alternatives", "nodes_in"),
                                                         "count"),
        "transform.expand_alternatives.nodes_out": metric(per("transform.expand_alternatives", "nodes_out"),
                                                          "count"),
        "transform.materialize_inheritance.s": metric(per("transform.materialize_inheritance"), "s"),
        "transform.materialize_inheritance.props_out": metric(
            per("transform.materialize_inheritance", "props_out"), "count"),
        "transform.extract_table.s": metric(per("transform.extract_table"), "s"),
        "transform.extract_table.rows": metric(per("transform.extract_table", "rows"), "count"),
        "transform.render_table.s": metric(per("transform.render_table"), "s"),
        "rules.default_registry.s": metric(median(setup["registry"]), "s"),
        # command spans contain the library spans, so they are left out of the sum
        "rules.classify.calls": metric(share(sum(v["classify"] for k, v in totals.items()
                                                 if not k.startswith("cli.")), n), "count"),
        "rules.classify.per_prop.validate": metric(per_prop("model.check_consistency", "properties"), "ratio"),
        "rules.classify.per_prop.traversals": metric(per_prop("cli.traversals", "expanded_properties"),
                                                     "ratio"),
        "rules.classify.per_prop.materialize": metric(
            per_prop("transform.materialize_inheritance", "expanded_properties"), "ratio"),
        "rules.classify.per_prop.table": metric(per_prop("transform.extract_table", "expanded_properties"),
                                                "ratio"),
        "cli.process_ms": metric(0.0 if in_process else median([t for a in done for t in a.times.values()])
                                 * 1000, "ms"),
        "cli.interpreter_ms": metric(median(setup["bare"]) * 1000, "ms"),
        "cli.import_ms": metric(median(setup["cli_import"]) * 1000, "ms"),
        "cli.main_ms": metric(median([r["main_s"] for r in reported]) * 1000, "ms"),
    }
    layers = tracer.self_times(requests)
    for layer in ("cli", "xmlio", "model", "transform", "rules"):
        m[f"layer.{layer}.self_s"] = metric(share(layers.get(layer, 0.0), n), "s")
    m["trace.overhead_ratio"] = metric(share(sum(traced_steps.values()), sum(untraced_steps.values())),
                                       "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
