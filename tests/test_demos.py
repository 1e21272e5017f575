"""Smoke tests: every narrative demo runs to completion, and README's library
tour runs and gives the values its comments state."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _tour_blocks() -> list[str]:
    """The ``python`` code blocks of README's library tour."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", tour, flags=re.S)


def test_readme_tour_runs_and_states_its_values():
    commutants, models = _tour_blocks()
    ns: dict = {}
    exec(commutants, ns)
    assert ns["A"].algebra_dim == 8
    assert ns["S"].block_dims == (2,) and ns["S"].radical_dim == 4
    assert ns["D"].count == 2 and all(ns["D"].si_flags)
    assert (ns["inv"].k, ns["inv"].multiplicities) == (1, (2,))
    k0 = ns["k0_descriptor"](ns["T"])
    assert (k0.rank, k0.order_unit) == (1, (2,))
    assert ns["verdict"].similar and ns["verdict"].residual <= 1e-10
    ns = {}
    exec(models, ns)
    M, grid = ns["M"], ns["grid"]
    assert M.d == 45
    assert ns["defect_operator"](M, grid).rank_one_residual <= 1e-12
    assert ns["p_sequence"](M, grid, 8).vanish_exact
    assert ns["check_model_hypotheses"](M, coordinate_mask=grid.interior()).model_consistent
