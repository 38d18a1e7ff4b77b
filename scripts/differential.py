#!/usr/bin/env python3
"""Run every lexitree command on the same inputs with this checkout and with
an earlier commit, and compare each run's output.

The earlier commit REV is checked out with `git worktree add` into a
temporary directory, which is removed on exit. Each case runs as
`python -m lexitree COMMAND FILE ...` from this checkout's root, once with
PYTHONPATH set to this checkout's `src` and once with REV's, so both sides
read the same input files and print the same paths. The cases are every
`scripts/compat.py` argument set on every test fixture and on seeded
documents from `bench/generate.py`: `corpus` entries and one `big_entry`,
each raw and expanded. Stdout, stderr and the exit code must match byte for
byte. The script lists each case that differs, prints a summary line, and
exits 1 if any case differed. It needs only the standard library and git.

Usage: python scripts/differential.py --base REV
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import generate  # noqa: E402
from compat import COMMANDS, cases, in_subprocess  # noqa: E402

CORPUS_SEED, CORPUS_ENTRIES = 5, 10
BIG_SEED, BIG_DEPTH = 7, 6


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


def difference(a, b) -> str:
    """Where two outputs part, with what each has from there on."""
    if isinstance(a, int):
        return f"{a} against {b}"
    at = len(os.path.commonprefix([a, b]))
    return f"from byte {at}: {a[at:at + 80]!r} against {b[at:at + 80]!r}"


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
            argvs = list(cases()) + [[command, str(path), *rest]
                                     for path in generated_documents(inputs) for command, *rest in COMMANDS]
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
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], check=True)
    print(f"{len(argvs) - differed} of {len(argvs)} cases match {args.base}")
    return 1 if differed else 0


if __name__ == "__main__":
    raise SystemExit(main())
