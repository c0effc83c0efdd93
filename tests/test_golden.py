"""Golden snapshot of the key numbers of two small fixed-seed simulate runs.

One run has d > n (the Newton fit and the traces take the n-side Woodbury
route), the other d < n (the d-side Cholesky route). Refactors of the
linear algebra may move these numbers only at rounding level, so they are
compared at rtol 1e-9.

Regenerate only for an intended change to the random streams:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from angcal import experiments
from angcal.experiments import ExperimentConfig

GOLDEN = Path(__file__).resolve().parent / "golden" / "simulate_small.json"
RTOL = 1e-9

RUNS = {
    "woodbury": dict(n=240, d=400, seed=5, n_test=4000, platt_holdout=2000),
    "dense": dict(n=600, d=150, seed=6, n_test=4000, platt_holdout=2000),
}


def _snapshot(name: str, monkeypatch) -> dict:
    captured = []
    original = experiments.compute_intermediates

    def spy(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(experiments, "compute_intermediates", spy)
    summary, _ = experiments._simulate_summary(ExperimentConfig(**RUNS[name]))
    (inter,) = captured
    return {
        "theta_hat": summary["alignment"]["theta_hat"],
        "dof": inter.dof,
        "effective_curvature": inter.effective_curvature,
        "sigma_norm": summary["fit"]["sigma_norm"],
        "ece": {cal: info["ece"] for cal, info in summary["calibrators"].items()},
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(name, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[name]
    got = _snapshot(name, monkeypatch)
    assert got["ece"].keys() == expected["ece"].keys()
    for key in ("theta_hat", "dof", "effective_curvature", "sigma_norm"):
        np.testing.assert_allclose(got[key], expected[key], rtol=RTOL, err_msg=key)
    for cal, value in expected["ece"].items():
        np.testing.assert_allclose(got["ece"][cal], value, rtol=RTOL, err_msg=f"ece[{cal}]")


if __name__ == "__main__":
    patcher = pytest.MonkeyPatch()
    snapshot = {}
    for run in sorted(RUNS):
        snapshot[run] = _snapshot(run, patcher)
        patcher.undo()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
