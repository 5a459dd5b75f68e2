"""Repository hygiene: nothing generated or ignored is tracked."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_ignored():
    r = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode:
        pytest.skip(f"git ls-files failed: {r.stderr.strip()}")
    assert r.stdout.splitlines() == []
