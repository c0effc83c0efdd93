"""Ridge-penalized logistic regression via damped Newton iteration.

The objective is

    (1/n) sum_i loss(y_i, x_i'w) + lam/(2d) * ||w||^2,

with the logistic loss. It is strictly convex for lam > 0, so the
minimizer is unique and a zero start makes runs comparable. Newton
directions are computed either on the d x d Hessian (SPD Cholesky) or,
when d > n, through the matrix-inversion identity on the equivalent
n x n system; both give the same step up to rounding and are tested
against each other.

The observable traces share the factor helpers below. X'DX is formed as
B'B with B = D^1/2 X (BLAS syrk, n d^2 flops instead of 2 n d^2); the
n x n route forms XX' once per fit and rescales it per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from .errors import ContractError, FitError, SingularSystem
from .synth import Covariance, Dataset

_MAX_HALVINGS = 60


def logistic_loss_derivatives(y, u):
    """Value, first and second derivative of the logistic loss at logit u.

    value  = -y*log(s(u)) - (1-y)*log(1-s(u)) = logaddexp(0, u) - y*u
    first  = s(u) - y
    second = s(u) * (1 - s(u))

    All three are computed in forms that stay finite for |u| up to the
    float64 overflow threshold (~700). Vectorized over arrays.
    """
    y = np.asarray(y, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    s = expit(u)
    value = np.logaddexp(0.0, u) - y * u
    return value, s - y, s * (1.0 - s)


def sigma_norm(w: np.ndarray, cov: Covariance) -> float:
    """The Sigma-norm sqrt(w' Sigma w)."""
    return math.sqrt(cov.quad(w))


@dataclass(frozen=True)
class FitConfig:
    """Ridge strength and Newton stopping rule.

    lam must be positive: it is what makes the penalty strongly convex
    and the downstream observable estimator well defined. `solver` picks
    the Newton linear-system route: 'dense' factors the d x d Hessian,
    'woodbury' solves the equivalent n x n system, 'auto' uses woodbury
    when d > n.
    """

    lam: float
    tol: float = 1e-8
    max_iter: int = 100
    solver: str = "auto"

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ContractError("ridge strength lam must be positive")
        if self.tol <= 0 or self.max_iter < 1:
            raise ContractError("tol must be positive and max_iter at least 1")
        if self.solver not in ("auto", "dense", "woodbury"):
            raise ContractError(f"unknown solver {self.solver!r}")


@dataclass(frozen=True)
class FittedModel:
    """Fitted weight with its Sigma-norm and convergence diagnostics."""

    w_hat: np.ndarray
    sigma_norm: float
    fit_config: FitConfig
    converged: bool
    grad_norm: float
    n_iter: int
    objective: float


def _cholesky(matrix: np.ndarray, penalty: float, what: str) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix + penalty * I, computed in place."""
    matrix[np.diag_indices_from(matrix)] += penalty
    try:
        # matrix.T is the same matrix in Fortran order, so LAPACK needs no copy
        return scipy.linalg.cholesky(matrix.T, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"penalized {what} could not be factorized: {exc}") from exc


def _feature_factor(X: np.ndarray, weights: np.ndarray, penalty: float) -> np.ndarray:
    """Lower Cholesky factor of X' diag(weights) X + penalty * I (d x d, one syrk)."""
    scaled = np.sqrt(weights)[:, None] * X
    return _cholesky(scaled.T @ scaled, penalty, "Hessian")


def _gram_factor(gram: np.ndarray, root: np.ndarray, penalty: float) -> np.ndarray:
    """Lower Cholesky factor of diag(root) G diag(root) + penalty * I (n x n)."""
    return _cholesky(gram * np.outer(root, root), penalty, "Gram system")


def _newton_step(X: np.ndarray, gram: np.ndarray | None, alpha: float, hess_weights: np.ndarray, grad: np.ndarray):
    """Solves (X'DX/n + alpha I) step = -grad; a given Gram XX' selects the n x n route."""
    n = X.shape[0]
    if gram is None:
        chol = _feature_factor(X, hess_weights / n, alpha)
        return -scipy.linalg.cho_solve((chol, True), grad, check_finite=False)
    # (alpha I + U'U)^{-1} v = (v - U'(alpha I + UU')^{-1} U v) / alpha
    # with U = sqrt(D/n) X, so only an n x n factorization is needed.
    root = np.sqrt(hess_weights / n)
    chol = _gram_factor(gram, root, alpha)
    back = X.T @ (root * scipy.linalg.cho_solve((chol, True), root * (X @ grad), check_finite=False))
    return -(grad - back) / alpha


def fit(dataset: Dataset, cfg: FitConfig, cov: Covariance | None = None) -> FittedModel:
    """Minimize the ridge-logistic objective by damped Newton from w = 0.

    Newton steps use backtracking halving: a step is accepted as soon as
    the objective strictly decreases. Iteration stops when the Euclidean
    gradient norm drops to cfg.tol; running out of iterations returns a
    model with converged=False and the last gradient norm rather than
    raising. A non-finite objective raises FitError, a system that cannot
    be factorized SingularSystem.

    `cov` is the covariance used for the reported Sigma-norm; synthetic
    datasets default to the covariance from their provenance.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.float64)
    n, d = X.shape
    if n < 1:
        raise ContractError("cannot fit on an empty dataset")
    if cov is None:
        if dataset.provenance.cov_spec is None:
            raise ContractError("cov is required for datasets without a covariance spec")
        cov = Covariance(dataset.provenance.cov_spec)

    woodbury = cfg.solver == "woodbury" or (cfg.solver == "auto" and d > n)
    gram = X @ X.T if woodbury else None  # n x n, formed once per fit
    alpha = cfg.lam / d

    w = np.zeros(d)
    logits = np.zeros(n)

    def objective_at(w_vec, logits_vec):
        value, _, _ = logistic_loss_derivatives(y, logits_vec)
        return float(np.mean(value) + 0.5 * alpha * (w_vec @ w_vec))

    obj = objective_at(w, logits)
    grad_norm = np.inf
    n_iter = 0
    converged = False
    for n_iter in range(1, cfg.max_iter + 1):
        _, first, second = logistic_loss_derivatives(y, logits)
        grad = X.T @ first / n + alpha * w
        grad_norm = float(np.linalg.norm(grad))
        if not np.isfinite(obj):
            raise FitError(f"objective became non-finite at iteration {n_iter}")
        if grad_norm <= cfg.tol:
            converged = True
            break
        step = _newton_step(X, gram, alpha, second, grad)
        step_logits = X @ step
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand_w = w + t * step
            cand_logits = logits + t * step_logits
            cand_obj = objective_at(cand_w, cand_logits)
            if np.isfinite(cand_obj) and cand_obj < obj:
                break
            t *= 0.5
        else:
            # No decrease at any step size: already at numerical optimum.
            break
        w, logits, obj = cand_w, cand_logits, cand_obj
    else:
        n_iter = cfg.max_iter

    if not converged:
        _, first, _ = logistic_loss_derivatives(y, logits)
        grad_norm = float(np.linalg.norm(X.T @ first / n + alpha * w))
        converged = grad_norm <= cfg.tol

    return FittedModel(
        w_hat=w,
        sigma_norm=sigma_norm(w, cov),
        fit_config=cfg,
        converged=converged,
        grad_norm=grad_norm,
        n_iter=n_iter,
        objective=obj,
    )
