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
B'B with B = D^1/2 X, accumulated by BLAS syrk over row blocks of B (n d^2
flops instead of the 2 n d^2 of a general product, and no n x d copy).
The n x n route holds one n x n buffer (`_GramSystem`): XX' is formed
once per fit by syrk into its strict upper triangle, and every Newton
step factors the rescaled system into its lower triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from ._blocks import row_blocks
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
    """Lower Cholesky factor of matrix + penalty * I from its lower triangle.

    A Fortran-ordered `matrix` is factorized in place, without a copy; its
    strict upper triangle is neither read nor written.
    """
    matrix[np.diag_indices_from(matrix)] += penalty
    chol, info = scipy.linalg.lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SingularSystem(f"penalized {what} could not be factorized (LAPACK potrf info={info})")
    return chol


def _feature_factor(X: np.ndarray, weights: np.ndarray, penalty: float) -> np.ndarray:
    """Lower Cholesky factor of X' diag(weights) X + penalty * I (d x d).

    The lower triangle of X'DX accumulates one BLAS syrk per row block of
    B = D^1/2 X, so no n x d copy of the design is formed.
    """
    d = X.shape[1]
    hess = np.zeros((d, d), order="F")
    for rows in row_blocks(X.shape[0], d):
        block = np.sqrt(weights[rows])[:, None] * X[rows]
        hess = scipy.linalg.blas.dsyrk(1.0, block.T, beta=1.0, c=hess, lower=1, overwrite_c=1)
    return _cholesky(hess, penalty, "Hessian")


class _GramSystem:
    """G = XX' and each penalized factor of it, in one Fortran-ordered n x n buffer.

    The strict upper triangle holds G, formed by one BLAS syrk that reads
    the row-major design through its transpose (no n x d copy), and is
    never written again; diag(G) is kept as the vector `diag`. `factor`
    overwrites the diagonal and the strict lower triangle with a lower
    Cholesky factor, which triangular solves read alone, so G survives
    every factorization. Filling the lower triangle needs one n-vector;
    `columns` returns one column block of G at a time.
    """

    def __init__(self, X: np.ndarray):
        self.n = X.shape[0]
        self._buf = scipy.linalg.blas.dsyrk(1.0, X.T, trans=1, lower=0)
        self.diag = self._buf.diagonal().copy()

    def columns(self, cols: slice) -> np.ndarray:
        """G[:, cols] as a Fortran-ordered n x k array, rebuilt from the upper triangle and diag(G)."""
        buf, start, stop = self._buf, cols.start, cols.stop
        out = np.empty((self.n, stop - start), order="F")
        out[:start] = buf[:start, cols]
        out[stop:] = buf[cols, stop:].T
        upper = np.triu(buf[cols, cols], 1)
        out[cols] = upper
        out[cols] += upper.T
        out[cols][np.diag_indices_from(upper)] = self.diag[cols]
        return out

    def factor(self, root: np.ndarray, penalty: float) -> np.ndarray:
        """Lower Cholesky factor of diag(root) G diag(root) + penalty * I, in the buffer's lower triangle."""
        buf = self._buf
        for j in range(self.n - 1):
            # column j below the diagonal is row j right of it, rescaled
            np.multiply(buf[j, j + 1 :], root[j] * root[j + 1 :], out=buf[j + 1 :, j])
        buf[np.diag_indices(self.n)] = self.diag * (root * root)
        return _cholesky(buf, penalty, "Gram system")


def _newton_step(X: np.ndarray, gram: _GramSystem | None, alpha: float, hess_weights: np.ndarray, grad: np.ndarray):
    """Solves (X'DX/n + alpha I) step = -grad; a given Gram system selects the n x n route."""
    n = X.shape[0]
    if gram is None:
        chol = _feature_factor(X, hess_weights / n, alpha)
        return -scipy.linalg.cho_solve((chol, True), grad, check_finite=False)
    # (alpha I + U'U)^{-1} v = (v - U'(alpha I + UU')^{-1} U v) / alpha
    # with U = sqrt(D/n) X, so only an n x n factorization is needed.
    root = np.sqrt(hess_weights / n)
    chol = gram.factor(root, alpha)
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
    gram = _GramSystem(X) if woodbury else None  # XX', formed once per fit
    alpha = cfg.lam / d

    w = np.zeros(d)
    logits = np.zeros(n)

    def objective_at(w_vec, logits_vec):
        value, _, _ = logistic_loss_derivatives(y, logits_vec)
        with np.errstate(over="ignore"):  # an overflowing candidate reads inf and is rejected
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
