"""Self-checks of the output differential, each a full run of the script:
the committed HEAD against this working tree, every case matching and no case
list below its floor (the script's exit status holds the floors); and, in a
scratch repository of this working tree, a commit that changes one output,
against which `scripts/differences.txt` decides the exit status. They take
about five minutes on two cores.

    python3 -m pytest scripts/test_differential.py
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
SUMMARY = re.compile(r"(\d+) of (\d+) cases match (\S+), (\d+) differ as expected and (\d+) unexpectedly: "
                     r"(\d+) of (\d+) command runs, (\d+) of (\d+) parses match")
DIFFERENCES, CLI = "scripts/differences.txt", "src/lexitree/cli.py"

# Appended to the scratch commit's cli: one command run, and only it, exits 3.
ONE_CHANGED_OUTPUT = """

_main = main


def main(argv=None):
    code = _main(argv)
    return 3 if (sys.argv[1:] if argv is None else argv) == ["validate", "tests/fixtures/gendarme.xml"] else code
"""
CHANGED_CASE = "command:validate tests/fixtures/gendarme.xml"


def run(root: Path, *args: str) -> tuple:
    """The script's process, and its summary's counts less the revision."""
    proc = subprocess.run([sys.executable, str(root / "scripts" / "differential.py"), *args],
                          capture_output=True, text=True, timeout=900)
    report = proc.stderr if "--write-differences" in args else proc.stdout
    summary = SUMMARY.fullmatch(report.splitlines()[-1])
    assert summary, proc.stdout + proc.stderr
    return proc, [int(n) for n in summary.groups()[:2] + summary.groups()[3:]]


def test_head_matches_itself():
    proc, counts = run(ROOT, "--base", "HEAD")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    matched, total, expected, unexpected, *parts = counts
    assert (matched, expected, unexpected) == (total, 0, 0) and parts[0::2] == parts[1::2] and all(parts), counts


def test_the_differences_file_accepts_exactly_the_named_difference(tmp_path):
    repo = tmp_path / "repo"
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           capture_output=True, text=True, check=True).stdout.split("\0")
    for name in names:
        if name and name != DIFFERENCES and (ROOT / name).is_file():
            (repo / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, repo / name)
    git = ["git", "-C", str(repo), "-c", "user.name=scratch", "-c", "user.email=scratch@example.com"]
    subprocess.run(["git", "init", "--quiet", str(repo)], check=True)
    subprocess.run([*git, "add", "--all"], check=True)
    subprocess.run([*git, "commit", "--quiet", "--message", "base"], check=True)
    with open(repo / CLI, "a", encoding="utf-8") as cli:
        cli.write(ONE_CHANGED_OUTPUT)
    subprocess.run([*git, "commit", "--quiet", "--all", "--message", "one changed output"], check=True)
    listing = repo / DIFFERENCES

    # without the file the difference is unexpected, and --write-differences prints its line
    proc, counts = run(repo, "--base", "HEAD~1", "--write-differences")
    assert proc.returncode == 1 and counts[2:4] == [0, 1], proc.stderr
    line = proc.stdout
    assert re.fullmatch(rf"{CHANGED_CASE} [0-9a-f]{{16}} [0-9a-f]{{16}}\n", line), line

    listing.write_text(line, encoding="utf-8")
    proc, counts = run(repo, "--base", "HEAD~1")
    assert proc.returncode == 0 and counts[2:4] == [1, 0], proc.stdout

    wrong = line[:-2] + ("0" if line[-2] != "0" else "1") + "\n"
    listing.write_text(wrong, encoding="utf-8")
    proc, counts = run(repo, "--base", "HEAD~1")
    assert proc.returncode == 1 and counts[2:4] == [0, 1] and f"did not occur: {wrong}" in proc.stdout, proc.stdout

    unused = "parse:value:0 0123456789abcdef fedcba9876543210\n"
    listing.write_text(line + unused, encoding="utf-8")
    proc, counts = run(repo, "--base", "HEAD~1")
    assert proc.returncode == 1 and counts[2:4] == [1, 0] and f"did not occur: {unused}" in proc.stdout, proc.stdout

    # the same file at the revision is not applied, so a line cannot mask a later change
    listing.write_text(line, encoding="utf-8")
    subprocess.run([*git, "checkout", "--quiet", "HEAD~1", "--", CLI], check=True)
    subprocess.run([*git, "add", DIFFERENCES], check=True)
    subprocess.run([*git, "commit", "--quiet", "--all", "--message", "the line, without the change"], check=True)
    subprocess.run([*git, "checkout", "--quiet", "HEAD~1", "--", CLI], check=True)
    proc, counts = run(repo, "--base", "HEAD")
    assert proc.returncode == 1 and counts[2:4] == [0, 1] and CHANGED_CASE in proc.stdout, proc.stdout
