"""The scripts under scripts/ and the README's quick start keep running.

No other test imports them, so a name they use that the package drops, or a
change in the figures they print, shows up here.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS_DIR = REPO_ROOT / "scripts"


def start_script(name: str, *args: str | bytes) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / name), *args], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def run_script(name: str, *args: str) -> str:
    proc = start_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_vote_count_effect_prints_its_figures():
    out = run_script("vote_count_effect.py", "--seeds", "2", "--horizon", "80", "--burn-in", "10")
    assert out.splitlines() == [
        "v=3: changes per dissenting agent-tick mean 0.059212 median 0.059212; per-tick rate "
        "up to unanimity mean 0.013658 median 0.013658; steady rate mean 0.012486 median "
        "0.012486; 2/2 converged (convergence tick median 74.0)",
        "v=20: changes per dissenting agent-tick mean 0.020376 median 0.020376; per-tick rate "
        "up to unanimity mean 0.008529 median 0.008529; steady rate mean 0.008529 median "
        "0.008529; 0/2 converged (never converged)",
        "paired seeds where v=3 beats v=20 on changes per dissenting agent-tick: 2/2",
        "paired seeds where v=3 beats v=20 on per-tick rate up to unanimity: 2/2",
        "paired seeds where v=3 beats v=20 on steady rate: 2/2",
    ]


def test_friend_clustering_effect_prints_its_figures():
    out = run_script("friend_clustering_effect.py", "--seeds", "1", "--first-tick", "5",
                     "--last-tick", "30")
    assert out.splitlines() == [
        "friend_prob=0.4: mean clustering gap 0.001244 (positive in 1/1 seeds)",
        "friend_prob=0.0: mean clustering gap 0.002312",
    ]


@pytest.mark.parametrize("name, args, message", [
    ("vote_count_effect.py", ["--burn-in", "30", "--horizon", "20"], "--burn-in must satisfy"),
    ("vote_count_effect.py", ["--burn-in", "-5"], "--burn-in must satisfy"),
    ("vote_count_effect.py", ["--seeds", "0"], "--seeds must be >= 1"),
    ("vote_count_effect.py", ["--horizon", "0"], "--horizon must be >= 1"),
    ("friend_clustering_effect.py", ["--first-tick", "30", "--last-tick", "10"],
     "--first-tick must satisfy"),
    ("friend_clustering_effect.py", ["--last-tick", "0"], "--last-tick must be >= 1"),
    ("friend_clustering_effect.py", ["--seeds", "0"], "--seeds must be >= 1"),
    # numbers are read as the command line reads them: ASCII decimal text only, with
    # no PEP 515 underscore, non-ASCII digit or Unicode space (--help ends a run that
    # takes the value; argv goes as UTF-8 bytes, which an ASCII locale cannot encode)
    ("friend_clustering_effect.py", ["--seeds", "\u0661".encode(), "--help"],
     "argument --seeds: invalid int value"),
    ("friend_clustering_effect.py", ["--first-tick", "1_0", "--help"],
     "argument --first-tick: invalid int value: '1_0'"),
    ("friend_clustering_effect.py", ["--friend-prob", "0.4_0", "--help"],
     "argument --friend-prob: invalid float value: '0.4_0'"),
    ("friend_clustering_effect.py", ["--friend-prob", "\u0660.4".encode(), "--help"],
     "argument --friend-prob: invalid float value"),
    ("vote_count_effect.py", ["--seeds", "2\u00a0".encode(), "--help"],
     "argument --seeds: invalid int value"),
    ("vote_count_effect.py", ["--horizon", "8_0", "--help"],
     "argument --horizon: invalid int value: '8_0'"),
    ("make_synthetic_fixture.py", ["--days", "\u0666".encode(), "--help"],
     "argument --days: invalid int value"),
])
def test_bad_script_arguments_are_usage_errors(name, args, message):
    proc = start_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"{name}: error: {message}"), proc.stderr


def test_make_synthetic_fixture_rebuilds_the_bundled_data(tmp_path):
    run_script("make_synthetic_fixture.py", "--out-dir", str(tmp_path))
    for name in ("synthetic_actuals.csv", "synthetic_predictions.csv"):
        assert (tmp_path / name).read_bytes() == (REPO_ROOT / "data" / name).read_bytes()


def test_readme_quick_start_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme[readme.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    tick, rate = printed.getvalue().split()
    assert int(tick) > 0 and float(rate) >= 0.0
