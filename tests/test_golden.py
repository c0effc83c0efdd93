"""Golden snapshot of the key numbers of small fixed-seed simulate runs.

Two Gaussian runs and two Rademacher runs: in each pair one has d > n (the
Newton fit and the traces take the n-side Woodbury route) and the other
d < n (the d-side Cholesky route). The Rademacher runs also pin the
symmetric root Sigma^{1/2} that non-Gaussian designs are drawn through.
Refactors of the linear algebra may move these numbers only at rounding
level, so they are compared at rtol 1e-9.

Regenerate only for an intended change to the random streams, and only
the entries it changes; the other entries keep their bytes:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

With no NAME every entry is rewritten.
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
    "rademacher-woodbury": dict(n=240, d=400, seed=7, n_test=4000, platt_holdout=2000, entry="rademacher"),
    "rademacher-dense": dict(n=600, d=150, seed=8, n_test=4000, platt_holdout=2000, entry="rademacher"),
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


def _render(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(name, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[name]
    got = _snapshot(name, monkeypatch)
    assert got["ece"].keys() == expected["ece"].keys()
    for key in ("theta_hat", "dof", "effective_curvature", "sigma_norm"):
        np.testing.assert_allclose(got[key], expected[key], rtol=RTOL, err_msg=key)
    for cal, value in expected["ece"].items():
        np.testing.assert_allclose(got["ece"][cal], value, rtol=RTOL, err_msg=f"ece[{cal}]")


def test_file_is_rendered_so_a_partial_rewrite_keeps_other_entries():
    text = GOLDEN.read_text()
    snapshot = json.loads(text)
    assert sorted(snapshot) == sorted(RUNS)
    assert _render(snapshot) == text


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.stderr.write(f"unknown run(s) {', '.join(unknown)}; known: {', '.join(sorted(RUNS))}\n")
        return 2
    snapshot = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    patcher = pytest.MonkeyPatch()
    for run in names or sorted(RUNS):
        snapshot[run] = _snapshot(run, patcher)
        patcher.undo()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_render(snapshot))
    sys.stdout.write(f"wrote {', '.join(names or sorted(RUNS))} to {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
