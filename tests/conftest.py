"""Shared fixtures: path setup, the hypothesis profile and the 20-seed reference battery.

The battery runs the full data-deficient configuration (n=1000, d=2000,
AR(1)/d covariance, sigmoid(3u+1) link, ridge 0.5) once per session and
is shared by the acceptance criteria that quantify estimator accuracy,
calibration quality and loss orderings across seeds.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from angcal import rng as rngmod  # noqa: E402
from angcal.experiments import ExperimentConfig, run_pipeline, sample_logit_pairs  # noqa: E402

# Property tests replay the same examples on every run and store none.
settings.register_profile("angcal", derandomize=True, deadline=None, database=None)
settings.load_profile("angcal")

BATTERY_SEEDS = tuple(range(101, 121))
BATTERY_N_TEST = 20000


class BatteryRun:
    """Artifacts of one seeded reference run."""

    def __init__(self, result, u_test, t_test, y_test):
        self.result = result
        self.cfg = result.cfg
        self.u_test = u_test
        self.t_test = t_test
        self.y_test = y_test

    @property
    def true_probs(self):
        return self.cfg.link(self.t_test)

    def fresh_pairs(self, n, tag):
        """Extra (logit, true-index, label) draws from this run's model."""
        directions = np.column_stack([self.result.model.w_hat, self.result.w_star])
        pairs = sample_logit_pairs(
            rngmod.substream(self.cfg.seed, tag),
            n,
            self.cfg.entry,
            self.result.cov,
            directions,
        )
        labels = rngmod.bernoulli(
            rngmod.substream(self.cfg.seed, tag + "-labels"), self.cfg.link(pairs[:, 1])
        )
        return pairs[:, 0], pairs[:, 1], labels


@pytest.fixture(scope="session")
def six1_battery():
    runs = []
    for seed in BATTERY_SEEDS:
        cfg = ExperimentConfig(seed=seed, n_test=BATTERY_N_TEST)
        result = run_pipeline(cfg)
        directions = np.column_stack([result.model.w_hat, result.w_star])
        pairs = sample_logit_pairs(
            rngmod.substream(seed, "test"), BATTERY_N_TEST, cfg.entry, result.cov, directions
        )
        labels = rngmod.bernoulli(
            rngmod.substream(seed, "test-labels"), cfg.link(pairs[:, 1])
        )
        runs.append(BatteryRun(result, pairs[:, 0], pairs[:, 1], labels))
    return runs
