"""An earlier commit of this repository, checked out beside it for a comparison.

`checkout(REV)` runs `git worktree add --detach` into a temporary directory
and yields the checkout's root; on exit it removes the worktree and the
directory. `scripts/differential.py` and `scripts/layer_ab.py` compare
against it. Needs only the standard library and git.
"""

import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def checkout(rev: str) -> Iterator[Path]:
    """REV's tree in a temporary worktree. A REV that git cannot check out
    ends the script with exit code 2; git has said why on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(base), rev]
                          ).returncode:
            raise SystemExit(2)
        try:
            yield base
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], check=True)
