"""Smoke test: every script under scripts/ runs to completion on its defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", ["build_and_audit.py", "chain_windows.py", "patch_gallery.py"])
def test_script_exits_zero(script):
    assert _run(script)


def test_chain_windows_tallies_check_methods():
    out = _run("chain_windows.py", "--depth", "2", "--build", "2")
    tally = out.splitlines()[-1]
    assert tally.startswith("checks: ")
    assert "certified x1" in tally
