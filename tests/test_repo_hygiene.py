"""The repository tracks sources, not build artifacts."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracked(*patterns: str) -> list[str]:
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    result = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "--", *patterns],
        capture_output=True, text=True)
    if result.returncode != 0:
        pytest.skip("the checkout is not a git repository")
    return result.stdout.split()


def test_no_compiled_bytecode_is_tracked():
    assert _tracked("*.pyc") == []
