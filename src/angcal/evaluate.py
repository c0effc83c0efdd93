"""Calibration-quality measurement.

Reliability bin tables with expected calibration error, level-wise
calibration error against known true probabilities, empirical Bregman
losses (squared and KL) between true and predicted label distributions,
and an ordering check that pits candidate calibrators against the
binned-conditional-mean oracle.

Binning comes in two schemes. `equal_width` partitions [0, 1] into nBins
intervals (the last one right-closed). `equal_count` places edges at
quantiles of the prediction values, so ties always land in the same bin
and every result is invariant under permutation of the points. An empty
bin holds None for its means, the records' one missing value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from scipy.special import rel_entr

from .calibrators import Calibrator, calibrate
from .errors import ContractError, _finite_array, _label_array, _real_array, _require_count

_KL_CLAMP = 1e-12
_LEVEL_MIN_COUNT = 200  # least points per bin of `cal_error_at_level`, when the sample allows
BIN_SCHEMES = ("equal_width", "equal_count")


@dataclass(frozen=True)
class ReliabilityBin:
    lo: float
    hi: float
    count: int
    mean_pred: Optional[float]
    mean_obs: Optional[float]
    mean_true: Optional[float] = None


@dataclass(frozen=True)
class ReliabilityReport:
    """Bin table plus the bin-weighted expected calibration error, fields in report order."""

    scheme: str
    n_bins: int
    n_points: int
    ece: float
    bins: tuple[ReliabilityBin, ...]

    def max_abs_gap_to_true(self, min_count: int = 0) -> float:
        """Largest |mean_pred - mean_true| over bins with at least min_count points."""
        gaps = [
            abs(b.mean_pred - b.mean_true)
            for b in self.bins
            if b.count >= max(min_count, 1) and b.mean_true is not None
        ]
        if not gaps:
            raise ContractError("no populated bins with true probabilities")
        return max(gaps)


def _probabilities(values, what: str) -> np.ndarray:
    """values as a float64 array, or ContractError unless every value lies in [0, 1] (which no NaN or infinity does)."""
    values = _real_array(values, what)
    if not np.all((values >= 0) & (values <= 1)):
        raise ContractError(f"{what} must lie in [0, 1]")
    return values


def _paired(values, true_probs, caller: str, values_are_preds: bool = True):
    """Predictions in [0, 1] (or finite logits) and true probabilities in [0, 1] as matching nonempty 1-D arrays."""
    values = _probabilities(values, "preds") if values_are_preds else _finite_array(values, "logits")
    true_probs = _probabilities(true_probs, "true_probs")
    if values.shape != true_probs.shape or values.ndim != 1 or values.size == 0:
        raise ContractError(f"{caller} expects matching nonempty 1-D inputs")
    return values, true_probs


def _bin_assignments(values: np.ndarray, n_bins: int, scheme: str):
    """Bin index per value plus the (lo, hi) edges of each bin."""
    if scheme == "equal_width":
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        idx = np.clip((values * n_bins).astype(int), 0, n_bins - 1)
    else:
        edges = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1))
        # interior edges only; side='right' keeps ties in one bin
        idx = np.searchsorted(edges[1:-1], values, side="right")
    return idx, edges


def reliability(
    preds: np.ndarray,
    labels: np.ndarray,
    true_probs: Optional[np.ndarray] = None,
    n_bins: int = 10,
    scheme: str = "equal_width",
) -> ReliabilityReport:
    """Reliability bin table and ECE for predictions against observed labels.

    ECE is sum over nonempty bins of (count/N) * |mean_obs - mean_pred|.
    When `true_probs` is given, each bin also carries the mean true
    probability, which is what synthetic-run calibration checks compare
    against.
    """
    preds = _probabilities(preds, "preds")
    labels = _label_array(labels)
    if preds.ndim != 1 or preds.shape != labels.shape or preds.size == 0:
        raise ContractError("reliability expects matching nonempty 1-D preds and labels")
    if scheme not in BIN_SCHEMES:
        raise ContractError(f"unknown binning scheme {scheme!r}")
    _require_count(n_bins, "n_bins", 2 if scheme == "equal_count" else 1)
    if true_probs is not None:
        true_probs = _probabilities(true_probs, "true_probs")
        if true_probs.shape != preds.shape:
            raise ContractError("true_probs length must match preds")

    idx, edges = _bin_assignments(preds, n_bins, scheme)
    counts = np.bincount(idx, minlength=n_bins)
    sum_pred = np.bincount(idx, weights=preds, minlength=n_bins)
    sum_obs = np.bincount(idx, weights=labels, minlength=n_bins)
    sum_true = (
        np.bincount(idx, weights=true_probs, minlength=n_bins) if true_probs is not None else None
    )

    bins = []
    ece = 0.0
    n = preds.size
    for k in range(n_bins):
        if counts[k] == 0:
            bins.append(ReliabilityBin(float(edges[k]), float(edges[k + 1]), 0, None, None))
            continue
        mean_pred = sum_pred[k] / counts[k]
        mean_obs = sum_obs[k] / counts[k]
        mean_true = float(sum_true[k] / counts[k]) if sum_true is not None else None
        ece += counts[k] / n * abs(mean_obs - mean_pred)
        bins.append(
            ReliabilityBin(float(edges[k]), float(edges[k + 1]), int(counts[k]), float(mean_pred), float(mean_obs), mean_true)
        )
    return ReliabilityReport(scheme=scheme, n_bins=n_bins, n_points=n, ece=float(ece), bins=tuple(bins))


@dataclass(frozen=True)
class LevelDelta:
    """Level-wise calibration error: bin mean prediction minus bin mean truth."""

    p_center: float
    delta: float
    count: int


def cal_error_at_level(preds: np.ndarray, true_probs: np.ndarray, n_bins: int = 10) -> list[LevelDelta]:
    """Binned estimate of the calibration error at each prediction level.

    Bins are equal-count over the predictions and the bin count adapts
    downward from n_bins so that each reported bin holds at least 200
    points (when the sample allows it).
    """
    preds, true_probs = _paired(preds, true_probs, "cal_error_at_level")
    _require_count(n_bins, "n_bins", 1)
    n = preds.size
    bins = max(1, min(n_bins, n // _LEVEL_MIN_COUNT))
    if bins == 1:
        return [LevelDelta(float(preds.mean()), float(preds.mean() - true_probs.mean()), n)]
    idx, _ = _bin_assignments(preds, bins, "equal_count")
    counts = np.bincount(idx, minlength=bins)
    sum_pred = np.bincount(idx, weights=preds, minlength=bins)
    sum_true = np.bincount(idx, weights=true_probs, minlength=bins)
    out = []
    for k in range(bins):
        if counts[k] == 0:
            continue
        center = sum_pred[k] / counts[k]
        out.append(LevelDelta(float(center), float(center - sum_true[k] / counts[k]), int(counts[k])))
    return out


@dataclass(frozen=True)
class BregmanReport:
    """Mean squared and KL divergences from true to predicted label laws."""

    squared: float
    kl: float


def bregman_losses(preds: np.ndarray, true_probs: np.ndarray) -> BregmanReport:
    """Empirical Bregman losses of predictions against true probabilities.

    squared: mean of ||(q, 1-q) - (p, 1-p)||^2 = mean of 2 (p - q)^2.
    kl: mean of q log(q/p) + (1-q) log((1-q)/(1-p)) with predictions
    clamped to [1e-12, 1-1e-12]; exact 0/1 true probabilities (clipped
    links produce them) contribute their finite limits.
    """
    preds, true_probs = _paired(preds, true_probs, "bregman_losses")
    squared = float(np.mean(2.0 * (preds - true_probs) ** 2))
    clamped = np.clip(preds, _KL_CLAMP, 1.0 - _KL_CLAMP)
    kl_terms = rel_entr(true_probs, clamped) + rel_entr(1.0 - true_probs, 1.0 - clamped)
    return BregmanReport(squared=squared, kl=float(np.mean(kl_terms)))


@dataclass(frozen=True)
class OptimalityReport:
    """Bregman losses per candidate (plus the binned oracle), with orderings."""

    losses: dict[str, BregmanReport]
    order_squared: tuple[str, ...]
    order_kl: tuple[str, ...]
    oracle_preds: np.ndarray


def binned_conditional_mean(logits: np.ndarray, true_probs: np.ndarray, n_bins: int = 50) -> np.ndarray:
    """Per-point oracle prediction: mean true probability within the point's logit bin."""
    logits, true_probs = _paired(logits, true_probs, "binned_conditional_mean", values_are_preds=False)
    _require_count(n_bins, "n_bins", 1)
    idx, _ = _bin_assignments(logits, n_bins, "equal_count")
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=true_probs, minlength=n_bins)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return means[idx]


def bregman_optimality_check(
    logits: np.ndarray,
    true_probs: np.ndarray,
    candidates: Mapping[str, Calibrator],
    n_bins: int = 50,
) -> OptimalityReport:
    """Compare candidate calibrators against the binned-conditional-mean oracle.

    Every candidate maps the logits to probabilities; the oracle predicts
    each point's logit-bin mean of the true probabilities (the empirical
    conditional expectation, which minimizes every Bregman loss among
    functions of the logit). Losses are reported sorted ascending.
    """
    logits, true_probs = _paired(logits, true_probs, "bregman_optimality_check", values_are_preds=False)
    oracle = binned_conditional_mean(logits, true_probs, n_bins)
    losses = {"oracle": bregman_losses(oracle, true_probs)}
    for name, cal in candidates.items():
        losses[name] = bregman_losses(calibrate(cal, logits), true_probs)
    order_squared = tuple(sorted(losses, key=lambda k: losses[k].squared))
    order_kl = tuple(sorted(losses, key=lambda k: losses[k].kl))
    return OptimalityReport(losses=losses, order_squared=order_squared, order_kl=order_kl, oracle_preds=oracle)
