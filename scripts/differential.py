#!/usr/bin/env python3
"""Run every lexitree command, and parse a sweep of documents, with this
checkout and with an earlier commit, and compare the results.

The earlier commit REV is checked out with `git worktree add` into a
temporary directory, which is removed on exit.

Command runs: each case runs as `python -m lexitree COMMAND FILE ...` from
this checkout's root, once with PYTHONPATH set to this checkout's `src` and
once with REV's, so both sides read the same input files and print the same
paths. The cases are every `scripts/compat.py` argument set on every test
fixture and on seeded documents from `bench/generate.py`: `corpus` entries
and one `big_entry`, each raw and expanded. Stdout, stderr and the exit code
must match byte for byte.

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

The script lists each case that differs, prints a summary line, and exits 1
if any case differed. It needs only the standard library and git.

Usage: python scripts/differential.py --base REV
"""

import argparse
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
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import generate  # noqa: E402
import parsegen  # noqa: E402
from compat import COMMANDS, cases, in_subprocess  # noqa: E402

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


def difference(a, b) -> str:
    """Where two outputs part, with what each has from there on."""
    if isinstance(a, int):
        return f"{a} against {b}"
    at = len(os.path.commonprefix([a, b]))
    return f"from offset {at}: {a[at:at + 80]!r} against {b[at:at + 80]!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV", help="the commit to compare with")
    args = parser.parse_args()
    os.environ.pop("LEXITREE_RULES", None)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(base), args.base]
                          ).returncode:
            return 2  # git has said why
        try:
            inputs = Path(tmp) / "inputs"
            inputs.mkdir()
            generated = generated_documents(inputs)
            argvs = list(cases()) + [[command, str(path), *rest] for path in generated for command, *rest in COMMANDS]
            base_env, env = (dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
                             for src in (base / "src", ROOT / "src"))
            differed = 0
            for argv in argvs:
                want, got = in_subprocess(sys.executable, argv, base_env), in_subprocess(sys.executable, argv, env)
                if got != want:
                    differed += 1
                    print(f"differs on: lexitree {' '.join(argv)}")
                    for name, a, b in zip(("stdout", "stderr", "exit code"), want, got):
                        if a != b:
                            print(f"  {name} of {args.base} against this checkout's, {difference(a, b)}")
            sweep = parse_sweep(sorted(FIXTURES.glob("*.xml")) + generated)
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
