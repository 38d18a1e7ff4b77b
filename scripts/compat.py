#!/usr/bin/env python3
"""Run every lexitree command on every test fixture under other Python
interpreters, and compare each run with this interpreter's.

Each case runs as `INTERPRETER -m lexitree COMMAND FIXTURE ...` from the
checkout's root, with PYTHONPATH=src, and through `lexitree.cli.main()` in
this process. Stdout, stderr and the exit code must match byte for byte.
The script lists each case that differs, prints a summary line per
interpreter, and exits 1 if any case differed. It needs only the standard
library.

Usage: python scripts/compat.py INTERPRETER [INTERPRETER ...]
"""

import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lexitree.cli import main  # noqa: E402

# Arguments after the fixture, per command run.
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


def cases():
    for fixture in sorted((ROOT / "tests" / "fixtures").glob("*.xml")):
        for command, *rest in COMMANDS:
            yield [command, str(fixture.relative_to(ROOT)), *rest]


def in_process(argv):
    """(stdout, stderr, exit code) of `main(argv)`, streams as a process has them."""
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    try:
        code = main(argv)
        streams = []
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
            streams.append(stream.buffer.getvalue())
    finally:
        sys.stdout, sys.stderr = saved
    return streams[0], streams[1], code


def in_subprocess(interpreter, argv, env):
    done = subprocess.run([interpreter, "-m", "lexitree", *argv], cwd=ROOT, env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main_compat():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("interpreters", nargs="+", metavar="INTERPRETER")
    args = parser.parse_args()
    os.environ.pop("LEXITREE_RULES", None)
    env = dict(os.environ, PYTHONPATH="src", PYTHONIOENCODING="utf-8")
    os.chdir(ROOT)
    expected = {tuple(argv): in_process(argv) for argv in cases()}
    differed = 0
    for interpreter in args.interpreters:
        version = subprocess.run([interpreter, "-c", "import sys; print(sys.version.split()[0])"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        bad = 0
        for argv, want in expected.items():
            got = in_subprocess(interpreter, argv, env)
            if got != want:
                bad += 1
                print(f"{interpreter} ({version}): differs on: lexitree {' '.join(argv)}")
                for name, a, b in zip(("stdout", "stderr", "exit code"), want, got):
                    if a != b:
                        print(f"  {name}: {sys.version.split()[0]} gave {a!r:.200}, {version} gave {b!r:.200}")
        print(f"{interpreter} ({version}): {len(expected) - bad} of {len(expected)} cases match "
              f"Python {sys.version.split()[0]} in process")
        differed += bad
    return 1 if differed else 0


if __name__ == "__main__":
    raise SystemExit(main_compat())
