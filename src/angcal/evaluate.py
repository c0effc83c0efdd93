"""Calibration-quality measurement.

Reliability bin tables with expected calibration error, level-wise
calibration error against known true probabilities, empirical Bregman
losses (squared and KL) between true and predicted label distributions,
and an ordering check that pits candidate calibrators against the
binned-conditional-mean oracle.

The three binned statistics take their counts and means from one
function, `_binned`, under one of two schemes. `equal_width` places the
edges at k/n_bins (each the double nearest k/n_bins); `equal_count`
places them at quantiles of the binned values. Either way a value's bin
is the number of interior edges at or below it: every bin is half-open,
[lo, hi), but the last, which is closed, so ties always land in the same
bin and every result is invariant under permutation of the points. An
empty bin stays in a reliability table with None for its means (the
records' one missing value), is dropped from the level deltas, and is
never read by the binned oracle, since no point lands in it.
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


def _binned(values: np.ndarray, n_bins: int, scheme: str, *columns: np.ndarray):
    """Each value's bin index, the n_bins + 1 bin edges, each bin's count and each column's mean per bin (nan if empty)."""
    if scheme == "equal_width":
        edges = np.arange(n_bins + 1) / n_bins
    else:
        edges = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1))
    idx = np.searchsorted(edges[1:-1], values, side="right")  # interior edges at or below each value
    counts = np.bincount(idx, minlength=n_bins)
    with np.errstate(invalid="ignore"):  # the 0/0 of an empty bin
        means = [np.bincount(idx, weights=column, minlength=n_bins) / counts for column in columns]
    return idx, edges, counts, means


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

    columns = (preds, labels) if true_probs is None else (preds, labels, true_probs)
    _, edges, counts, means = _binned(preds, n_bins, scheme, *columns)
    n, ece, bins = preds.size, 0.0, []
    for k, count in enumerate(counts):
        if count:  # an empty bin's gap is nan; ECE adds the others one by one, in bin order
            ece += count / n * abs(means[1][k] - means[0][k])
        cells = [float(mean[k]) for mean in means] if count else (None, None)
        bins.append(ReliabilityBin(float(edges[k]), float(edges[k + 1]), int(count), *cells))
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
    _, _, counts, (centers, truths) = _binned(preds, bins, "equal_count", preds, true_probs)
    return [LevelDelta(float(c), float(c - t), int(count)) for c, t, count in zip(centers, truths, counts) if count]


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
    idx, _, _, (means,) = _binned(logits, n_bins, "equal_count", true_probs)
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
