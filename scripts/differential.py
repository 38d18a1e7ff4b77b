#!/usr/bin/env python3
"""Run every lexitree command, and parse a sweep of documents, with this
checkout and with an earlier commit, and compare the results.

The earlier commit REV is checked out with `git worktree add` into a
temporary directory, which is removed on exit.

Command runs: every `COMMANDS` argument set on every test fixture and on
seeded documents from `bench/generate.py` (`corpus` entries and one
`big_entry`, each raw and expanded), and `validate` and `expand` on each
fixture with stray text early and late. Each case's reference is REV's
`python -m lexitree COMMAND FILE ...` under the running interpreter. It is
compared with this checkout's `lexitree.cli.main()` called in this process,
and with this checkout's `INTERPRETER -m lexitree COMMAND FILE ...` under
each INTERPRETER given (the running one by default). All run from this
checkout's root, so they read the same files and print the same paths.
Stdout, stderr and the exit code must match byte for byte.

Parses: each side runs `parse_entry` on every document of a sweep, in one
process of its own with its own `src`, and reports the tree's `repr` with
the diagnostics (line, column and message), or the error's class and
diagnostic; the two reports must be equal. The sweep holds seeded random tag
soup from `tests/parsegen.py`, under the lenient and the strict profile;
every fixture and generated document, as it is and with stray text after its
first `<struc>` and before its last `</struc>`, which makes the parser start
again with its exact pass; and a feature value of each one and each two of
`tests/parsegen.py`'s value pieces, which reach both sides of the parser's
check for text that is already canonical.

The script lists each case that differs, with the run that differed, prints
a summary line, and exits 1 if any case differed. It needs only the standard
library and git.

Usage: python scripts/differential.py --base REV [INTERPRETER ...]
"""

import argparse
import io
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import generate  # noqa: E402
import parsegen  # noqa: E402
from lexitree import cli  # noqa: E402

# Arguments after the file, per command run.
COMMANDS = [
    ["validate"],
    ["validate", "--rules", "tests/fixtures/dep_n.rules"],
    ["effective"],
    ["effective", "--path", "0"],
    ["effective", "--path", "0.0"],
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

# What each side runs, with its own `src`: (document, strict) pairs in, one report per document out, both pickled.
PARSE_WORKER = """
import pickle, sys
from lexitree.xmlio import DEFAULT_PROFILE, EncodingProfile, parse_entry
profiles = (DEFAULT_PROFILE, EncodingProfile(DEFAULT_PROFILE.base_elements, strict=True))
reports = []
for document, strict in pickle.load(sys.stdin.buffer):
    try:
        reports.append(repr(parse_entry(document, profiles[strict])))
    except Exception as exc:  # a ParseError by its diagnostic; any other error is compared too
        reports.append(repr((type(exc).__name__, getattr(exc, "diagnostic", str(exc)))))
pickle.dump(reports, sys.stdout.buffer)
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
    """(label, document, strict) for every parse that the two sides compare."""
    sweep = []
    rng = random.Random(SOUP_SEED)
    for i in range(SOUP_DOCUMENTS):
        document = parsegen.tag_soup(rng.choice, rng.randint)
        sweep += [(f"tag soup {i}{' (strict)' * strict} {document!r:.80}", document, strict) for strict in (0, 1)]
    for path in paths:
        sweep += [(f"{path.name}{label}", variant, 0) for label, variant in with_stray_text(path.read_bytes())]
    for pieces in [*product(parsegen.VALUE_PIECES), *product(parsegen.VALUE_PIECES, repeat=2)]:
        value = "".join(markup for markup, _ in pieces)
        sweep.append((f"value {value!r:.80}", f"<struc><def>{value}</def><orth>a b</orth></struc>".encode(), 0))
    return sweep


def parse_reports(src: Path, sweep: list) -> list:
    """One side's report on each document of the sweep, from one process."""
    done = subprocess.run([sys.executable, "-c", PARSE_WORKER], env=dict(os.environ, PYTHONPATH=str(src)),
                          input=pickle.dumps([(document, strict) for _, document, strict in sweep]),
                          capture_output=True)
    if done.returncode:
        raise SystemExit(f"the parse sweep failed with {src}:\n{done.stderr.decode(errors='replace')}")
    return pickle.loads(done.stdout)


def in_process(argv: list) -> tuple:
    """(stdout, stderr, exit code) of this checkout's `main(argv)`, streams as a process has them."""
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    try:
        code = cli.main(argv)
        streams = []
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
            streams.append(stream.buffer.getvalue())
    finally:
        sys.stdout, sys.stderr = saved
    return streams[0], streams[1], code


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
    parser.add_argument("interpreters", nargs="*", default=[sys.executable], metavar="INTERPRETER",
                        help="an interpreter to run this checkout under (default: the running one)")
    args = parser.parse_args()
    os.environ.pop("LEXITREE_RULES", None)
    os.chdir(ROOT)  # in-process runs then read the relative fixture paths that the processes print
    versions = {interpreter: subprocess.run([interpreter, "-c", "import sys; print(sys.version.split()[0])"],
                                            capture_output=True, text=True, check=True).stdout.strip()
                for interpreter in args.interpreters}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(base), args.base]
                          ).returncode:
            return 2  # git has said why
        try:
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
            base_env, env = (dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
                             for src in (base / "src", ROOT / "src"))
            differed = 0
            for argv in argvs:
                want = in_subprocess(sys.executable, argv, base_env)
                runs = [("run in process", in_process(argv))]
                runs += [(f"run under {interpreter} ({version})", in_subprocess(interpreter, argv, env))
                         for interpreter, version in versions.items()]
                bad = [(run, got) for run, got in runs if got != want]
                if bad:
                    differed += 1
                    print(f"differs on: lexitree {' '.join(argv)}")
                for run, got in bad:
                    for name, a, b in zip(("stdout", "stderr", "exit code"), want, got):
                        if a != b:
                            print(f"  {name} of {args.base} against this checkout's {run}, {difference(a, b)}")
            sweep = parse_sweep(fixtures + generated)
            parses_differed = 0
            for (label, _, _), want, got in zip(sweep, parse_reports(base / "src", sweep),
                                                parse_reports(ROOT / "src", sweep)):
                if got != want:
                    parses_differed += 1
                    print(f"differs on parse: {label}")
                    print(f"  report of {args.base} against this checkout's, {difference(want, got)}")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], check=True)
    total, matched = len(argvs) + len(sweep), len(argvs) - differed + len(sweep) - parses_differed
    print(f"{matched} of {total} cases match {args.base}: {len(argvs) - differed} of {len(argvs)} command runs, "
          f"{len(sweep) - parses_differed} of {len(sweep)} parses")
    return 1 if differed or parses_differed else 0


if __name__ == "__main__":
    raise SystemExit(main())
