"""Self-check of the output differential: the committed HEAD against this
working tree, every case matching and no case list below its floor (the
script's exit status holds the floors).

    python3 -m pytest scripts/test_differential.py
"""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
SUMMARY = re.compile(r"(\d+) of (\d+) cases match HEAD: (\d+) of (\d+) command runs, (\d+) of (\d+) parses")


def test_head_matches_itself():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "differential.py"), "--base", "HEAD"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = SUMMARY.fullmatch(proc.stdout.splitlines()[-1])
    assert summary, proc.stdout
    counts = [int(n) for n in summary.groups()]
    assert counts[0::2] == counts[1::2] and all(counts), summary[0]
