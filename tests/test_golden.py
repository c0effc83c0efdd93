"""Golden snapshot of the key numbers of small fixed-seed driver runs.

Four simulate runs, two Gaussian and two Rademacher: in each pair one has
d > n (the Newton fit and the traces take the n-side Woodbury route) and
the other d < n (the d-side Cholesky route). The Rademacher runs also pin
the symmetric root Sigma^{1/2} that non-Gaussian designs are drawn
through. One run each of sign-mc and platt-convergence pins the
sign-trials evaluation set and the Platt Newton fit with its sup distances
to the angular predictor. A simulate with a --sign-holdout-file pins the
sign computed from a holdout design read from CSV. Three multiindex --k 2 runs, one per link kind
(sigmoid by quadrature, probit and clipped-relu by their exact forms),
pin the multi-index predictor with its level-wise deltas and residual
check. Refactors of the linear algebra may
move these numbers only at rounding level, so they are compared at rtol
1e-9.

Regenerate only for an intended change to the random streams, and only
the entries it changes; the other entries keep their bytes:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

With no NAME every entry is rewritten.
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from angcal import experiments
from angcal.experiments import ExperimentConfig
from angcal.links import LinkFunction
from angcal.synth import generate_labels, sample_design, sample_true_weight
from helpers import write_holdout_csv

GOLDEN = Path(__file__).resolve().parent / "golden" / "simulate_small.json"
RTOL = 1e-9


def _simulate_run(cfg: ExperimentConfig, monkeypatch):
    """The simulate summary and the one ObservableIntermediates behind it."""
    captured = []
    original = experiments.compute_intermediates

    def spy(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(experiments, "compute_intermediates", spy)
    summary, _ = experiments._simulate_summary(cfg)
    (inter,) = captured
    return summary, inter


def _simulate(cfg: ExperimentConfig, monkeypatch) -> dict:
    summary, inter = _simulate_run(cfg, monkeypatch)
    return {
        "theta_hat": summary["alignment"]["theta_hat"],
        "dof": inter.dof,
        "effective_curvature": inter.effective_curvature,
        "sigma_norm": summary["fit"]["sigma_norm"],
        "ece": {cal: info["ece"] for cal, info in summary["calibrators"].items()},
    }


def _sign_holdout_file(cfg: ExperimentConfig, monkeypatch, rows: int, seed: int) -> dict:
    """simulate with a holdout CSV of `rows` fresh design rows labelled by the run's w_star."""
    cov = cfg.covariance()
    X = sample_design(rows, cov, cfg.entry, seed=seed)
    labels = generate_labels(X, sample_true_weight(cov, cfg.seed), cfg.link, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "holdout.csv"
        write_holdout_csv(path, X, labels)
        summary, inter = _simulate_run(replace(cfg, sign_holdout_file=str(path)), monkeypatch)
    alignment = summary["alignment"]
    return {
        "sign_est": alignment["sign_est"],
        "n_sign_holdout": alignment["n_sign_holdout"],
        "theta_hat": alignment["theta_hat"],
        "dof": inter.dof,
        "ece": {cal: info["ece"] for cal, info in summary["calibrators"].items()},
    }


def _sign_mc(cfg: ExperimentConfig, monkeypatch, **kwargs) -> dict:
    summary = experiments.run_sign_mc(cfg, **kwargs)
    alignment = summary["alignment"]
    return {
        "wrong": summary["wrong"],
        "wrong_rate": summary["wrong_rate"],
        "inner_sq_est": alignment["inner_sq_est"],
        "theta_star": alignment["theta_star"],
    }


def _platt_convergence(cfg: ExperimentConfig, monkeypatch, **kwargs) -> dict:
    summary = experiments.run_platt_convergence(cfg, **kwargs)
    keys = ("slope", "offset", "sup_dist_theta_star", "sup_dist_theta_hat")
    return {
        "sizes": [{key: entry[key] for key in keys} for entry in summary["sizes"]],
        "theoretical": {key: summary["theoretical"][key] for key in ("slope", "offset")},
    }


def _multiindex(cfg: ExperimentConfig, monkeypatch, **kwargs) -> dict:
    summary = experiments.run_multiindex(cfg, **kwargs)
    return {
        "max_abs_delta_p": summary["max_abs_delta_p"],
        "ece": summary["ece"],
        "fit_sigma_norms": summary["fit_sigma_norms"],
        "residual_check": {"max_abs_cov": summary["residual_check"]["max_abs_cov"]},
    }


_SMALL = dict(n=200, d=100, seed=17, n_test=2000, platt_holdout=1000)
_MULTI = dict(d=30, seed=17, n_test=3000)

# name -> (snapshot function, ExperimentConfig fields, driver keywords)
RUNS = {
    "woodbury": (_simulate, dict(n=240, d=400, seed=5, n_test=4000, platt_holdout=2000), {}),
    "dense": (_simulate, dict(n=600, d=150, seed=6, n_test=4000, platt_holdout=2000), {}),
    "rademacher-woodbury": (
        _simulate, dict(n=240, d=400, seed=7, n_test=4000, platt_holdout=2000, entry="rademacher"), {}
    ),
    "rademacher-dense": (
        _simulate, dict(n=600, d=150, seed=8, n_test=4000, platt_holdout=2000, entry="rademacher"), {}
    ),
    "sign-mc": (_sign_mc, dict(_SMALL, sign_holdout_frac=0.05), dict(trials=200)),
    "sign-holdout-file": (_sign_holdout_file, _SMALL, dict(rows=60, seed=99)),
    "platt-convergence": (_platt_convergence, _SMALL, dict(holdout_sizes=(80, 400))),
    "multiindex-k2": (_multiindex, _MULTI, dict(k_indices=2)),
    "multiindex-k2-probit": (
        _multiindex, dict(_MULTI, link=LinkFunction.parse("probit:1:0.3")), dict(k_indices=2)
    ),
    "multiindex-k2-crelu": (
        _multiindex, dict(_MULTI, link=LinkFunction.parse("crelu:3:0.5")), dict(k_indices=2)
    ),
}


def _snapshot(name: str, monkeypatch) -> dict:
    snapshot, config, kwargs = RUNS[name]
    return snapshot(ExperimentConfig(**config), monkeypatch, **kwargs)


def _leaves(tree, path: str = ""):
    """(path, number) for each number of a snapshot of nested dicts and lists."""
    if isinstance(tree, dict):
        for key, sub in tree.items():
            yield from _leaves(sub, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for i, sub in enumerate(tree):
            yield from _leaves(sub, f"{path}[{i}]")
    else:
        yield path, tree


def _render(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(name, monkeypatch):
    expected = dict(_leaves(json.loads(GOLDEN.read_text())[name]))
    got = dict(_leaves(_snapshot(name, monkeypatch)))
    assert got.keys() == expected.keys()
    for path, value in expected.items():
        np.testing.assert_allclose(got[path], value, rtol=RTOL, err_msg=path)


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
