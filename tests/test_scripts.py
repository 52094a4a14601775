"""Smoke test: every script under scripts/ runs to completion on its defaults."""

import hashlib
import os
import re
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


@pytest.mark.parametrize(
    "script", ["build_and_audit.py", "chain_windows.py", "large_builds.py", "patch_gallery.py"]
)
def test_script_exits_zero(script):
    assert _run(script)


def test_large_builds_prints_a_digest_per_small_build():
    lines = _run("large_builds.py").splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "ratmin-2/3-t1-two-points", "chain-1/sqrt3-3-64", "power-1/sqrt3-1/2-2-two-points",
    ]
    rss = [re.search(r"points, [0-9.]+s, digest [0-9a-f]{16}, verdicts [0-9a-f]{16}, peak RSS so far ([0-9]+) MB$", line)
           for line in lines]
    assert all(rss)
    # a high-water mark: it never falls from one line to the next
    peaks = [int(m.group(1)) for m in rss]
    assert 0 < peaks[0] and peaks == sorted(peaks)


def test_large_builds_reloaded_patch_answers():
    # the answers are True and the 24 d's; the digests pin them
    lines = _run("large_builds.py", "--reloaded").splitlines()
    fields = [re.fullmatch(r"(.*), [0-9.]+s, (answer [0-9a-f]{16}), peak RSS so far [1-9][0-9]* MB", line)
              for line in lines]
    assert [f"{m[1]}, <t>s, {m[2]}" for m in fields] == [
        "reloaded-power-1/sqrt2-1/2-2 in_k_plus: 25 points, <t>s, answer a17fcf0a2f50e2d4",
        "reloaded-power-1/sqrt2-1/2-2 closure(d1): 25 points, <t>s, answer d5874a9b3fe8cef4",
    ]


def test_chain_windows_tallies_check_methods():
    out = _run("chain_windows.py", "--depth", "2", "--build", "2")
    tally = out.splitlines()[-1]
    assert tally.startswith("checks: ")
    assert "certified x5" in tally


def test_patch_gallery_certifies_a_two_point_base():
    rows = [line for line in _run("patch_gallery.py").splitlines() if "over two points" in line]
    assert len(rows) == 1
    assert "ambient_k_plus[c]" in rows[0] and "anchor_closed[c]" in rows[0]


def test_build_and_audit_output_is_pinned(tmp_path):
    out = tmp_path / "built.json"
    text = _run("build_and_audit.py", "--alpha", "2/3", "--steps", "40", "--budget", "3",
                "--seed", "11", "--out", str(out))
    text = re.sub(r", [0-9.]+s\n", ", <t>s\n", text, count=1)
    assert text == (
        "built: 10 elements, ambient 5, 4 colored, <t>s\n"
        "audit budget 1: pass (plain-point:1tried, colored-point:1tried)\n"
        "audit budget 2: pass (plain-point:1tried, colored-point:1tried, "
        "parallel-plain-plain:1tried, parallel-plain-colored:1tried, parallel-ext-plain:4tried)\n"
        "audit budget 3: pass (plain-point:1tried, colored-point:1tried, "
        "parallel-plain-plain:1tried, parallel-plain-colored:1tried, parallel-ext-plain:4tried, "
        "patch-ratmin-t0:1tried)\n"
        f"wrote {out}\n"
    )
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert digest == "4a48060662b1c592"
    default = re.sub(r", [0-9.]+s\n", ", <t>s\n", _run("build_and_audit.py"), count=1)
    assert default == (
        "built: 10 elements, ambient 4, 3 colored, <t>s\n"
        "audit budget 1: pass (plain-point:1tried, colored-point:1tried)\n"
        "audit budget 2: pass (plain-point:1tried, colored-point:1tried, "
        "parallel-plain-plain:1tried, parallel-plain-colored:1tried, "
        "parallel-colored-colored:1tried, parallel-ext-plain:6tried)\n"
    )
