"""Ridge-penalized logistic regression via damped Newton iteration.

The objective is

    (1/n) sum_i loss(y_i, x_i'w) + lam/(2d) * ||w||^2,

with the logistic loss. It is strictly convex for lam > 0, so the
minimizer is unique and a zero start makes runs comparable.

The Newton fit and the observable traces both work with the penalized
system X'DX + cI of the training design, through one of two types with
the same methods, `solve` and `smoother_diagonal`: `_FeatureSystem`
factors the d x d matrix, `_GramSystem` the n x n one through the
matrix-inversion identity. Each is the cheaper route on its side of
d = n, so `_penalized_system` picks one from the design's shape; both
give the same numbers up to rounding and are tested against each other.
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
    and the downstream observable estimator well defined.
    """

    lam: float
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ContractError("ridge strength lam must be positive")
        if self.tol <= 0 or self.max_iter < 1:
            raise ContractError("tol must be positive and max_iter at least 1")


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


class _FeatureSystem:
    """The d-side route: X'DX + cI as one d x d Cholesky factor, the cheaper square when d <= n."""

    def __init__(self, X: np.ndarray):
        self._X = X

    def factor(self, weights: np.ndarray, penalty: float) -> np.ndarray:
        """Lower Cholesky factor of X' diag(weights) X + penalty * I (d x d).

        The lower triangle of X'DX accumulates one BLAS syrk per row block of
        B = D^1/2 X (n d^2 flops instead of the 2 n d^2 of a general
        product), so no n x d copy of the design is formed.
        """
        X = self._X
        d = X.shape[1]
        hess = np.zeros((d, d), order="F")
        for rows in row_blocks(X.shape[0], d):
            block = np.sqrt(weights[rows])[:, None] * X[rows]
            hess = scipy.linalg.blas.dsyrk(1.0, block.T, beta=1.0, c=hess, lower=1, overwrite_c=1)
        return _cholesky(hess, penalty, "Hessian")

    def solve(self, weights: np.ndarray, penalty: float, v: np.ndarray) -> np.ndarray:
        """(X' diag(weights) X + penalty * I)^-1 v."""
        return scipy.linalg.cho_solve((self.factor(weights, penalty), True), v, check_finite=False)

    def smoother_diagonal(self, weights: np.ndarray, penalty: float) -> np.ndarray:
        """diag(X H X'), H = (X'DX + c I)^-1, as the column sums of squares of L^-1 X', LL' = X'DX + c I.

        L^-1 X' is solved one row block of X at a time, so no d x n array exists.
        """
        X = self._X
        chol = self.factor(weights, penalty)
        diag = np.empty(X.shape[0])
        for rows in row_blocks(X.shape[0], X.shape[1]):
            solved = scipy.linalg.solve_triangular(chol, X[rows].T, lower=True, check_finite=False)  # d x r
            diag[rows] = np.einsum("ij,ij->j", solved, solved)
        return diag


class _GramSystem:
    """The n-side route: G = XX' and each penalized factor of it, in one Fortran-ordered n x n buffer.

    (cI + X'DX)^-1 = (I - X'D^1/2 (cI + D^1/2 G D^1/2)^-1 D^1/2 X) / c, so
    only an n x n system is factorized, the smaller square when d > n.
    The strict upper triangle holds G, formed by one BLAS syrk that reads
    the row-major design through its transpose (no n x d copy), and is
    never written again; diag(G) is kept as the vector `diag`. `factor`
    overwrites the diagonal and the strict lower triangle with a lower
    Cholesky factor, which triangular solves read alone, so G survives
    every factorization. Filling the lower triangle needs one n-vector;
    `columns` returns one column block of G at a time.
    """

    def __init__(self, X: np.ndarray):
        self._X = X
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

    def solve(self, weights: np.ndarray, penalty: float, v: np.ndarray) -> np.ndarray:
        """(X' diag(weights) X + penalty * I)^-1 v through the n x n factor."""
        X = self._X
        root = np.sqrt(weights)
        chol = self.factor(root, penalty)
        back = X.T @ (root * scipy.linalg.cho_solve((chol, True), root * (X @ v), check_finite=False))
        return (v - back) / penalty

    def smoother_diagonal(self, weights: np.ndarray, penalty: float) -> np.ndarray:
        """diag(X H X') = (diag(G) - correction) / c, H = (X'DX + c I)^-1.

        The correction is the column sums of squares of L^-1 D^1/2 G, with
        L the factor of cI + D^1/2 G D^1/2, solved one column block of G at
        a time, so beyond the buffer only one block is held.
        """
        root = np.sqrt(weights)
        chol = self.factor(root, penalty)
        correction = np.empty(self.n)
        for cols in row_blocks(self.n, self.n):
            rhs = self.columns(cols)
            rhs *= root[:, None]
            solved = scipy.linalg.solve_triangular(chol, rhs, lower=True, overwrite_b=True, check_finite=False)
            correction[cols] = np.einsum("ij,ij->j", solved, solved)
            del rhs, solved  # free this block before the next one is built
        return (self.diag - correction) / penalty


def _penalized_system(X: np.ndarray) -> _FeatureSystem | _GramSystem:
    """The route for X's shape: the n x n Gram system exactly when d > n."""
    n, d = X.shape
    return _GramSystem(X) if d > n else _FeatureSystem(X)


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

    system = _penalized_system(X)  # on the n-side, XX' is formed once per fit
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
        step = -system.solve(second / n, alpha, grad)
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
