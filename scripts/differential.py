#!/usr/bin/env python3
"""Run every lexitree command, and parse a sweep of documents, with this
checkout and with an earlier commit, and compare the results.

The earlier commit REV is checked out with `git worktree add` into a
temporary directory, removed on exit. Each checkout answers every case in
one worker process with its own `src`, run from this checkout's root so that
both read and print the same paths; REV's gives the reference.

Command cases: every `COMMANDS` argument set on every test fixture and on
seeded documents from `bench/generate.py` (`corpus` entries and one
`big_entry`, each raw and expanded), and `validate` and `expand` on each
fixture with stray text early and late. A worker calls `lexitree.cli.main()`
with stdout and stderr in UTF-8 byte buffers, as a process has them. REV's
`main()` is compared with this checkout's, and with this checkout's
`INTERPRETER -m lexitree COMMAND FILE ...` under each INTERPRETER given (the
running one by default): the only runs with a process per case. Stdout,
stderr and the exit code must match byte for byte. A difference between
REV's process and REV's own `main()` does not show here; REV's own run of
this script, when REV was HEAD, checked that.

Parses: each worker runs `parse_entry` on every document of a sweep and
reports the tree's `repr` with the diagnostics (line, column and message),
or the error's class and diagnostic; the reports must be equal. The sweep
holds seeded tag soup from `tests/parsegen.py`, under the lenient and the
strict profile; every fixture and generated document, as it is and with
stray text after its first `<struc>` and before its last `</struc>`, which
makes the parser run its exact pass after the first; and a feature value of
each one and each two of `tests/parsegen.py`'s value pieces, which reach
both sides of the parser's check for text that is already canonical.

Each case has a stable id: `command:ARGV`, with the directory of the
generated documents written `<inputs>`, or `parse:PART:INDEX`, where PART is
`soup`, `strict-soup`, `document` or `value`. `scripts/differences.txt` names
the differences a change intends, one line each: a case id, then a digest of
REV's report and one of this checkout's. The file applies only when it
differs from REV's copy (`git show REV:scripts/differences.txt`; an absent
file is empty), so a line covers one change and cannot mask a later one. A
listed case passes only when REV's report and every run of this checkout have
its digests.

The script lists each case that differs unexpectedly, with the run that
differed, and each line of the file that matches no difference, prints a
summary line, and exits 1 if any case differed unexpectedly, if a line went
unused, or if a case list is shorter than its floor (`MIN_COMMAND_RUNS`,
`MIN_PARSES`), so that cases cannot drop out unnoticed. With
`--write-differences` it prints that report to stderr and, to stdout, the
file's lines for every case that differs now. A worker that fails, as when
`main()` raises, ends it with the worker's traceback. It needs only the
standard library and git, and takes about a minute on two cores.

Usage: python scripts/differential.py --base REV [--write-differences] [INTERPRETER ...]
"""

import argparse
import hashlib
import os
import pickle
import random
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
DIFFERENCES = "scripts/differences.txt"
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import generate  # noqa: E402
import parsegen  # noqa: E402

# Arguments after the file, per command run.
COMMANDS = [
    ["validate"],
    ["validate", "--rules", "tests/fixtures/dep_n.rules"],
    ["effective"],
    ["effective", "--path", "0"],
    ["effective", "--path", "0.0"],
    ["effective", "--path", "0.0.0"],
    ["effective", "--path", "0.1.2.0.1.2"],  # a depth-6 leaf of the big_entry document; out of range elsewhere
    ["effective", "--rules", "tests/fixtures/dep_n.rules", "--path", "0"],
    ["traversals"],
    ["traversals", "--partial"],
    ["expand"],
    ["materialize"],
    ["table", "--cols", "orth,pos,def"],
    ["table", "--cols", "orth,pos", "--format", "html"],
]
CORPUS_SEED, CORPUS_ENTRIES = 5, 10
BIG_SEED, BIG_DEPTH = 7, 6
SOUP_SEED, SOUP_DOCUMENTS = 17, 10_000
MIN_COMMAND_RUNS, MIN_PARSES = 542, 20_705  # each case list's length when its floor was set

# Each checkout's worker: (document, strict) pairs and argvs in, a report per parse and per argv out, pickled.
WORKER = """
import io, pickle, sys
from lexitree.cli import main
from lexitree.xmlio import DEFAULT_PROFILE, EncodingProfile, parse_entry
profiles = (DEFAULT_PROFILE, EncodingProfile(DEFAULT_PROFILE.base_elements, strict=True))
documents, argvs = pickle.load(sys.stdin.buffer)
reports, runs, streams = [], [], (sys.stdout, sys.stderr)
for document, strict in documents:
    try:
        reports.append(repr(parse_entry(document, profiles[strict])))
    except Exception as exc:  # a ParseError by its diagnostic; any other error is compared too
        reports.append(repr((type(exc).__name__, getattr(exc, "diagnostic", str(exc)))))
for argv in argvs:
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    try:
        code = main(argv)
        runs.append((sys.stdout.detach().getvalue(), sys.stderr.detach().getvalue(), code))  # detach flushes
    except BaseException:
        print("lexitree", *argv, "raised:", file=streams[1])
        raise
    finally:
        sys.stdout, sys.stderr = streams
pickle.dump((reports, runs), sys.stdout.buffer)
"""


def generated_documents(directory: Path) -> list:
    """Write the seeded documents, raw and expanded; return their paths."""
    docs = generate.corpus(CORPUS_SEED, CORPUS_ENTRIES, block=CORPUS_ENTRIES)
    docs.append(generate.big_entry(BIG_SEED, depth=BIG_DEPTH, n_queries=1))
    paths = []
    for doc in docs:
        for suffix, data in ((".xml", doc.raw), (".expanded.xml", doc.expanded)):
            path = directory / f"{doc.name}{suffix}"
            path.write_bytes(data)
            paths.append(path)
    return paths


def with_stray_text(document: bytes) -> list:
    """(label, document): the document, then with stray text after its first <struc> and before its last </struc>."""
    variants = [("", document)]
    if b"<struc>" in document:
        variants.append((", stray text early", document.replace(b"<struc>", b"<struc>,", 1)))
    if b"</struc>" in document:
        at = document.rindex(b"</struc>")
        variants.append((", stray text late", document[:at] + b";" + document[at:]))
    return variants


def parse_sweep(paths: list) -> list:
    """(case id, label, document, strict) for every parse that the two sides compare."""
    parts = {"soup": [], "strict-soup": [], "document": [], "value": []}
    rng = random.Random(SOUP_SEED)
    for i in range(SOUP_DOCUMENTS):
        document = parsegen.tag_soup(rng.choice, rng.randint)
        parts["soup"].append((f"tag soup {i} {document!r:.80}", document, 0))
        parts["strict-soup"].append((f"tag soup {i} (strict) {document!r:.80}", document, 1))
    for path in paths:
        parts["document"] += [(f"{path.name}{label}", doc, 0) for label, doc in with_stray_text(path.read_bytes())]
    for pieces in [*product(parsegen.VALUE_PIECES), *product(parsegen.VALUE_PIECES, repeat=2)]:
        value = "".join(markup for markup, _ in pieces)
        document = f"<struc><def>{value}</def><orth>a b</orth></struc>".encode()
        parts["value"].append((f"value {value!r:.80}", document, 0))
    return [(f"parse:{part}:{index}", *case) for part, cases in parts.items() for index, case in enumerate(cases)]


def read_differences(rev: str) -> dict:
    """The intended differences, case id -> (REV's digest, this checkout's), when the file differs from REV's copy."""
    path = ROOT / DIFFERENCES
    ours = path.read_text(encoding="utf-8") if path.exists() else ""
    theirs = subprocess.run(["git", "-C", str(ROOT), "show", f"{rev}:{DIFFERENCES}"], capture_output=True, text=True)
    if ours == (theirs.stdout if theirs.returncode == 0 else ""):
        return {}
    lines = [line.rsplit(" ", 2) for line in ours.splitlines() if line.strip()]
    bad = [" ".join(line) for line in lines if len(line) != 3 or not line[0].startswith(("command:", "parse:"))]
    if bad:
        raise SystemExit(f"{DIFFERENCES}: not a line of 'CASE REV-DIGEST DIGEST': {bad[0]!r}")
    return {case: (want, got) for case, want, got in lines}


def digest(report, inputs: bytes) -> str:
    """A digest of a report with the generated documents' directory written `<inputs>`, as in case ids."""
    if isinstance(report, tuple):
        report = tuple(part.replace(inputs, b"<inputs>") if isinstance(part, bytes) else part for part in report)
    return hashlib.sha256(repr(report).encode()).hexdigest()[:16]


def side_reports(src: Path, sweep: list, argvs: list) -> tuple:
    """One checkout's report on each parse of the sweep and its (stdout, stderr, exit code) for each argv."""
    done = subprocess.run([sys.executable, "-c", WORKER], env=dict(os.environ, PYTHONPATH=str(src)),
                          input=pickle.dumps(([(document, strict) for _, _, document, strict in sweep], argvs)),
                          capture_output=True)
    if done.returncode:
        raise SystemExit(f"the worker failed with {src}:\n{done.stderr.decode(errors='replace')}")
    return pickle.loads(done.stdout)


def in_subprocess(interpreter: str, argv: list, env: dict) -> tuple:
    done = subprocess.run([interpreter, "-m", "lexitree", *argv], env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def difference(a, b) -> str:
    """Where two outputs part, with what each has from there on."""
    if isinstance(a, int):
        return f"{a} against {b}"
    at = len(os.path.commonprefix([a, b]))
    return f"from offset {at}: {a[at:at + 80]!r} against {b[at:at + 80]!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV", help="the commit to compare with")
    parser.add_argument("--write-differences", action="store_true",
                        help=f"print the {DIFFERENCES} lines for the current differences, and the report to stderr")
    parser.add_argument("interpreters", nargs="*", default=[sys.executable], metavar="INTERPRETER",
                        help="an interpreter to run this checkout under (default: the running one)")
    args = parser.parse_args()
    report = sys.stderr if args.write_differences else sys.stdout
    os.environ.pop("LEXITREE_RULES", None)
    os.chdir(ROOT)  # the workers then read the relative fixture paths that the processes print
    versions = {interpreter: subprocess.run([interpreter, "-c", "import sys; print(sys.version.split()[0])"],
                                            capture_output=True, text=True, check=True).stdout.strip()
                for interpreter in args.interpreters}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(base), args.base]
                          ).returncode:
            return 2  # git has said why
        try:
            listed = read_differences(args.base)
            inputs = Path(tmp) / "inputs"
            inputs.mkdir()
            fixtures, generated = sorted(FIXTURES.glob("*.xml")), generated_documents(inputs)
            argvs = [[command, str(path), *rest] for path in [f.relative_to(ROOT) for f in fixtures] + generated
                     for command, *rest in COMMANDS]
            for fixture in fixtures:
                for label, variant in with_stray_text(fixture.read_bytes())[1:]:
                    path = inputs / f"{fixture.stem}.{label[2:].replace(' ', '-')}.xml"
                    path.write_bytes(variant)
                    argvs += [["validate", str(path)], ["expand", str(path)]]
            sweep = parse_sweep(fixtures + generated)
            want_parses, want_runs = side_reports(base / "src", sweep, argvs)
            parses, in_process = side_reports(ROOT / "src", sweep, argvs)
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
            placeholder = str(inputs).encode()
            # (case id, label, how it differs, REV's digest, the digest of each of this checkout's runs)
            differing = []
            for argv, want, got in zip(argvs, want_runs, in_process):
                runs = [("run in process", got)]
                runs += [(f"run under {interpreter} ({version})", in_subprocess(interpreter, argv, env))
                         for interpreter, version in versions.items()]
                if any(got != want for _, got in runs):
                    how = [f"  {name} of {args.base} against this checkout's {run}, {difference(a, b)}"
                           for run, got in runs for name, a, b in zip(("stdout", "stderr", "exit code"), want, got)
                           if a != b]
                    differing.append(("command:" + " ".join(argv).replace(str(inputs), "<inputs>"),
                                      f"lexitree {' '.join(argv)}", how, digest(want, placeholder),
                                      [digest(got, placeholder) for _, got in runs]))
            command_differences = len(differing)
            for (case, label, _, _), want, got in zip(sweep, want_parses, parses):
                if got != want:
                    how = [f"  report of {args.base} against this checkout's, {difference(want, got)}"]
                    differing.append((case, f"parse {label}", how, digest(want, placeholder),
                                      [digest(got, placeholder)]))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], check=True)
    unexpected = 0
    for case, label, how, want, got in differing:
        if listed.get(case) != (want, got[0]) or len(set(got)) > 1:
            unexpected += 1
            print(f"differs on {case}: {label}", *how, sep="\n", file=report)
        else:
            del listed[case]
    for case, (want, got) in listed.items():
        print(f"{DIFFERENCES} names a difference that did not occur: {case} {want} {got}", file=report)
    short = [f"{len(cases)} {name}, fewer than {floor}" for name, cases, floor in
             (("command runs", argvs, MIN_COMMAND_RUNS), ("parses", sweep, MIN_PARSES)) if len(cases) < floor]
    if short:
        print("cases were dropped:", "; ".join(short), file=report)
    total, parse_differences = len(argvs) + len(sweep), len(differing) - command_differences
    print(f"{total - len(differing)} of {total} cases match {args.base}, {len(differing) - unexpected} differ as "
          f"expected and {unexpected} unexpectedly: {len(argvs) - command_differences} of {len(argvs)} command runs, "
          f"{len(sweep) - parse_differences} of {len(sweep)} parses match", file=report)
    if args.write_differences:
        for case, _, _, want, got in differing:
            print(case, want, got[0])
    return 1 if unexpected or listed or short else 0


if __name__ == "__main__":
    raise SystemExit(main())
