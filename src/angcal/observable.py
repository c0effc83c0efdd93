"""Observable estimation of the alignment between the fitted and true weights.

From training data alone, three quantities are estimated:

- the squared Sigma-inner-product between the true and fitted weights,
  through a ratio of traces and norms of loss derivatives along the
  fitted logits (`inner_product_sq`);
- its sign, through the label/logit correlation on a holdout set
  (`sign_estimate`);
- the angle between the two weights, by combining both with a numerical
  clip of the cosine (`angle_estimate`).

The traces need only diag(X H X'), H = (X'DX + c I)^{-1}, factorized by
the Newton fit's helpers. When d <= n: a syrk-formed d x d Cholesky LL'
(n d^2 + d^3/3 flops), then the column sums of squares of L^-1 X' (one
triangular solve, n d^2); both run over row blocks of X, so beyond the
design only the d x d factor and one block are held. When d > n: the
matrix-inversion identity on the n x n Gram matrix (n^2 d, n^3/3 and one
n x n triangular solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from ._blocks import row_blocks
from .errors import ContractError, DegenerateModel
from .mestimator import FittedModel, _feature_factor, _gram_factor, logistic_loss_derivatives
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


def _smoother_diagonal_dense(X: np.ndarray, curvature: np.ndarray, penalty: float):
    """diag(X H X') as the column sums of squares of L^-1 X', LL' = X'DX + c I.

    L^-1 X' is solved one row block of X at a time, so no d x n array exists.
    """
    chol = _feature_factor(X, curvature, penalty)
    diag = np.empty(X.shape[0])
    for rows in row_blocks(X.shape[0], X.shape[1]):
        solved = scipy.linalg.solve_triangular(chol, X[rows].T, lower=True, check_finite=False)  # d x r
        diag[rows] = np.einsum("ij,ij->j", solved, solved)
    return diag


def _smoother_diagonal_woodbury(X: np.ndarray, curvature: np.ndarray, penalty: float):
    """diag(X H X') via (c I + X'DX)^{-1} = (I - X'D^1/2 (cI + D^1/2 G D^1/2)^{-1} D^1/2 X)/c.

    Only n x n objects are formed (G = XX'), which is the smaller square
    when d > n; the correction is the column sums of squares of L^-1 D^1/2 G.
    """
    gram = X @ X.T
    root = np.sqrt(curvature)
    chol = _gram_factor(gram, root, penalty)
    solved = scipy.linalg.solve_triangular(chol, root[:, None] * gram, lower=True, check_finite=False)
    return (np.diag(gram) - np.einsum("ij,ij->j", solved, solved)) / penalty


def compute_intermediates(dataset: Dataset, model: FittedModel, method: str = "auto") -> ObservableIntermediates:
    """Loss-derivative vectors and trace scalars at the fitted weight.

    The ridge penalty contributes n * (lam/d) to the factorized system's
    diagonal. `method` forces the 'dense' (d-side) or 'woodbury' (n-side)
    trace route; 'auto' picks woodbury exactly when d > n.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.float64)
    n, d = X.shape
    if model.w_hat.shape != (d,):
        raise ContractError("model weight length does not match the dataset")
    if method not in ("auto", "dense", "woodbury"):
        raise ContractError(f"unknown intermediates method {method!r}")

    logits = X @ model.w_hat
    _, first, second = logistic_loss_derivatives(y, logits)
    score = -first
    curvature = second
    penalty = n * model.fit_config.lam / d

    if method == "auto":
        method = "woodbury" if d > n else "dense"
    if method == "dense":
        smoother_diag = _smoother_diagonal_dense(X, curvature, penalty)
    else:
        smoother_diag = _smoother_diagonal_woodbury(X, curvature, penalty)

    # tr(X H X' D) and tr(D X H X' D) need only the smoother diagonal
    # because D is diagonal.
    dof = float(np.sum(curvature * smoother_diag))
    effective_curvature = float((np.sum(curvature) - np.sum(curvature**2 * smoother_diag)) / n)
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
    downstream cosine at one — and the flag is set.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
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

    residual = logits - gamma * score
    residual_sq = float(residual @ residual)
    score_dot_logits = float(score @ logits)
    whitened_sq = cov.inv_quad(X.T @ score)

    numerator = (v_hat / n * residual_sq + score_dot_logits / n - gamma * r_sq) ** 2
    denominator = (
        whitened_sq / n**2
        + 2.0 * v_hat / n * score_dot_logits
        + v_hat**2 / n * residual_sq
        - d / n * r_sq
    )
    if denominator <= _DENOMINATOR_FLOOR:
        return float(model.sigma_norm**2), True
    return float(numerator / denominator), False


class SignEstimate(NamedTuple):
    value: int  # -1 or +1
    tied: bool  # True when the correlation sum was exactly zero


def sign_estimate_from_logits(holdout_logits: np.ndarray, holdout_y: np.ndarray) -> SignEstimate:
    """Sign of sum_i (w_hat' x_i) y_i on a holdout; an exact zero resolves to +1."""
    holdout_logits = np.asarray(holdout_logits, dtype=np.float64)
    holdout_y = np.asarray(holdout_y, dtype=np.float64)
    if holdout_logits.size == 0 or holdout_logits.shape != holdout_y.shape:
        raise ContractError("holdout must be nonempty with matching logits and labels")
    total = float(holdout_logits @ holdout_y)
    if total == 0.0:
        return SignEstimate(value=1, tied=True)
    return SignEstimate(value=1 if total > 0 else -1, tied=False)


def sign_estimate(model: FittedModel, holdout_x: np.ndarray, holdout_y: np.ndarray) -> SignEstimate:
    """Holdout-correlation sign of the Sigma-inner-product.

    The holdout must be disjoint from the data the model was fitted on;
    the estimator's guarantee relies on that independence.
    """
    holdout_x = np.asarray(holdout_x, dtype=np.float64)
    if holdout_x.ndim != 2 or holdout_x.shape[0] == 0:
        raise ContractError("holdout design must be a nonempty matrix")
    return sign_estimate_from_logits(holdout_x @ model.w_hat, holdout_y)


@dataclass(frozen=True)
class AngleEstimate:
    """Clipped-cosine angle between the fitted and true weight directions."""

    inner_sq: float
    sign: int
    cos_clipped: float
    theta: float
    denominator_degenerate: bool


def angle_estimate(
    inner_sq: float,
    sign: int,
    sigma_norm: float,
    denominator_degenerate: bool = False,
) -> AngleEstimate:
    """Combine the magnitude and sign estimates into an angle in [0, pi].

    cos = sign * sqrt(max(inner_sq, 0)) / sigma_norm, clipped to [-1, 1];
    theta = arccos(cos). The clip is part of the estimator, not an error
    path: the magnitude estimate is noisy and can exceed the norm bound.
    """
    if not (np.isfinite(inner_sq) and np.isfinite(sigma_norm)):
        raise ContractError("inner_sq and sigma_norm must be finite")
    if sigma_norm <= 0:
        raise DegenerateModel("sigma_norm must be positive to form an angle")
    if sign not in (-1, 1):
        raise ContractError("sign must be -1 or +1")
    cos = sign * np.sqrt(max(inner_sq, 0.0)) / sigma_norm
    cos_clipped = float(np.clip(cos, -1.0, 1.0))
    return AngleEstimate(
        inner_sq=float(inner_sq),
        sign=sign,
        cos_clipped=cos_clipped,
        theta=float(np.arccos(cos_clipped)),
        denominator_degenerate=denominator_degenerate,
    )
