"""Observable estimation of the alignment between the fitted and true weights.

From training data alone, three quantities are estimated:

- the squared Sigma-inner-product between the true and fitted weights,
  through a ratio of traces and norms of loss derivatives along the
  fitted logits (`inner_product_sq`);
- its sign, through the correlation of the fitted logits w_hat'x with
  the labels on a holdout set (`sign_estimate`);
- the angle between the two weights, by combining both with a numerical
  clip of the cosine (`angle_estimate`).

The traces tr(D X H X') and tr(D) - tr(D X H X' D), H = (X'DX + c I)^{-1},
come from the system `mestimator._penalized_system` picks for the design's
shape: a packed Cholesky of d(d+1)/2 floats and a triangular solve over
row blocks of X when d <= n (n d^2 + d^3/3, then n d^2 flops), and
diag(M^{-1}) when d > n, M = cI + D^1/2 XX' D^1/2 (n^3/3 + 2n^3/3 for
LAPACK potrf and potri in place on the fit's XX', no division by c).
Beyond the design only the packed d-side or the n x n system and, on the
d-side, one row block are held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibrators import _checked_sigma_norm, _logits_and_labels
from .errors import ContractError, DegenerateModel, _is_finite_real
from .mestimator import FittedModel, _one_blas_thread, _penalized_system, logistic_loss_derivatives
from .synth import Covariance, Dataset

_DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class ObservableIntermediates:
    """Per-sample loss derivatives and the trace scalars built from them.

    score               : minus the loss first derivative at each fitted logit
    curvature           : loss second derivative at each fitted logit (diag D)
    fitted_logits       : X w_hat
    dof                 : trace of the hat-style smoother X H X' D
    effective_curvature : (1/n) * (tr D - tr(D X H X' D))
    logit_adjustment    : dof / (n * effective_curvature), the coefficient
                          that maps scores back to leave-one-out logits
                          (for squared loss this is the hat-matrix ratio
                          K_ii/(1-K_ii) in trace form); 0 when curvature
                          vanishes everywhere
    score_sq_mean       : ||score||^2 / n
    """

    score: np.ndarray
    curvature: np.ndarray
    fitted_logits: np.ndarray
    dof: float
    effective_curvature: float
    logit_adjustment: float
    score_sq_mean: float
    n: int
    d: int


@_one_blas_thread()
def compute_intermediates(dataset: Dataset, model: FittedModel, system=None) -> ObservableIntermediates:
    """Loss-derivative vectors and trace scalars at the fitted weight.

    The ridge penalty contributes n * (lam/d) to the factorized system's
    diagonal. `system` is the fit's penalized system, when the caller holds it.
    """
    X, y = dataset.X, dataset.y
    n, d = X.shape
    if model.w_hat.shape != (d,):
        raise ContractError("model weight length does not match the dataset")

    logits = X @ model.w_hat
    _, first, second = logistic_loss_derivatives(y, logits)
    score = -first
    curvature = second
    penalty = n * model.lam / d

    dof, remainder = (system or _penalized_system(X)).traces(curvature, penalty)
    effective_curvature = remainder / n
    adjustment = dof / (n * effective_curvature) if effective_curvature > 0 else 0.0
    score_sq_mean = float(score @ score / n)

    return ObservableIntermediates(
        score=score,
        curvature=curvature,
        fitted_logits=logits,
        dof=dof,
        effective_curvature=effective_curvature,
        logit_adjustment=adjustment,
        score_sq_mean=score_sq_mean,
        n=n,
        d=d,
    )


def inner_product_sq(
    inter: ObservableIntermediates,
    dataset: Dataset,
    model: FittedModel,
    cov: Covariance,
) -> tuple[float, bool]:
    """Estimate the squared Sigma-inner-product between true and fitted weights.

    Returns (estimate, denominator_degenerate). The estimate is a ratio of
    observable quantities; when the denominator is not safely positive
    (<= 1e-12, a ratio of noisy terms) the estimate is replaced by the
    squared Sigma-norm of the fitted weight — equivalent to clipping the
    downstream cosine at one — and the flag is set. Overflowing terms raise DegenerateModel.
    """
    X = dataset.X
    n, d = X.shape
    if (inter.n, inter.d) != (n, d):
        raise ContractError("intermediates were computed on a different dataset shape")
    if cov.dim != d:
        raise ContractError("covariance dimension does not match the dataset dimension")

    v_hat = inter.effective_curvature
    gamma = inter.logit_adjustment
    r_sq = inter.score_sq_mean
    score = inter.score
    logits = inter.fitted_logits

    whitened_sq = cov.inv_quad(X.T @ score)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge logit adjustment is refused below
        residual = logits - gamma * score
        residual_sq = float(residual @ residual)
        score_dot_logits = float(score @ logits)
        numerator = (v_hat / n * residual_sq + score_dot_logits / n - gamma * r_sq) ** 2
        denominator = (
            whitened_sq / n**2
            + 2.0 * v_hat / n * score_dot_logits
            + v_hat**2 / n * residual_sq
            - d / n * r_sq
        )
    if not (np.isfinite(numerator) and np.isfinite(denominator)):
        raise DegenerateModel(f"the inner-product estimate overflows float64 at logit adjustment {gamma:.3g}")
    if denominator <= _DENOMINATOR_FLOOR:
        return float(model.sigma_norm**2), True
    return float(numerator / denominator), False


class SignEstimate(NamedTuple):
    value: int  # -1 or +1
    tied: bool  # True when the correlation sum was exactly zero


def sign_estimate(holdout_logits: np.ndarray, holdout_y: np.ndarray) -> SignEstimate:
    """Sign of sum_i (w_hat' x_i) y_i over a holdout's fitted logits; an exact zero resolves to +1.

    The holdout must be disjoint from the data the model was fitted on;
    the estimator's guarantee relies on that independence.
    """
    holdout_logits, holdout_y = _logits_and_labels(holdout_logits, holdout_y, "sign_estimate")
    total = float(holdout_logits @ holdout_y)
    if total == 0.0:
        return SignEstimate(value=1, tied=True)
    return SignEstimate(value=1 if total > 0 else -1, tied=False)


@dataclass(frozen=True)
class AngleEstimate:
    """Clipped-cosine angle between the fitted and true weight directions."""

    cos_clipped: float
    theta: float


def angle_estimate(inner_sq: float, sign: int, sigma_norm: float) -> AngleEstimate:
    """Combine the magnitude and sign estimates into an angle in [0, pi].

    cos = sign * sqrt(max(inner_sq, 0)) / sigma_norm, clipped to [-1, 1];
    theta = arccos(cos). The clip is part of the estimator, not an error
    path: the magnitude estimate is noisy and can exceed the norm bound.
    """
    if not _is_finite_real(inner_sq):
        raise ContractError(f"inner_sq must be a finite real, got {inner_sq!r}")
    _checked_sigma_norm(sigma_norm)
    if isinstance(sign, bool) or sign not in (-1, 1):
        raise ContractError(f"sign must be the integer -1 or +1, got {sign!r}")
    cos_clipped = float(np.clip(sign * np.sqrt(max(inner_sq, 0.0)) / sigma_norm, -1.0, 1.0))
    return AngleEstimate(cos_clipped=cos_clipped, theta=float(np.arccos(cos_clipped)))
