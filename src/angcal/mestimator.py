"""Ridge-penalized logistic regression via damped Newton iteration.

The objective is

    (1/n) sum_i loss(y_i, x_i'w) + lam/(2d) * ||w||^2,

with the logistic loss. It is strictly convex for lam > 0, so the
minimizer is unique and a zero start makes runs comparable. Damped Newton
stops when the gradient norm reaches 1e-8 or after 100 iterations; the
ridge strength lam is the fit's one setting, kept on the `FittedModel`.
The loop evaluates the loss once per point, and its step-halving search,
`_backtrack`, is the one the smooth Platt fits in `calibrators` use.

The Newton fit and the observable traces both work with the penalized
system X'DX + cI of the training design, through one of two types with
the same methods: `_FeatureSystem` factors the d x d matrix packed as its
lower triangle (d(d+1)/2 floats), `_GramSystem` the n x n matrix
M = cI + D^1/2 XX' D^1/2. Each is the cheaper route on its side of d = n,
so `_penalized_system` picks one from the design's shape; both give the
same numbers up to rounding and are tested against each other. The fit's
coefficients are w on the d-side and a with w = X'a on the n-side, whose
steps, like both traces, come from the factor of M with no division by c.

A d-side Newton step is first solved by conjugate gradients (CG) from 0,
each iteration one product X'(D(Xp)) + cp (about 4nd flops, against nd^2
for the sfrk of a factor), until the residual is at most 1e-12 of the
right-hand side. At d/n near 0.2 the system is well conditioned (condition
number 2.67 at the 5400 x 1200 optimum of seed 5), so a step takes about
20 iterations and moves the numbers only at rounding level. CG gets d // 32
iterations, where its products cost as much as one factorization; a solve
that uses them up, or breaks down, factors, and so does every later solve
on that system. The traces always factor.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
from scipy.linalg import cho_solve, lapack
from scipy.special import expit

from ._blocks import block_rows, row_blocks, row_tiles
from .errors import ContractError, FitError, SingularSystem, _finite_array, _is_finite_real, _label_array, _real_array
from .synth import Covariance, Dataset

_MAX_HALVINGS = 60
_GRAD_TOL = 1e-8  # Euclidean gradient norm at which the Newton fit has converged
_MAX_ITER = 100
_CG_RTOL = 1e-12  # a d-side CG solve has converged when |residual| <= _CG_RTOL |v|
# the d-side CG cap, d // 32 iterations: one Hessian-vector product takes 4-5 ms at 5400 x 1200
# (one BLAS thread), one sfrk + pftrf 0.16-0.17 s, so d / 32 products cost about one factorization;
# the flop ratio alone would allow d / 4, but the products stream X from memory and sfrk does not
_CG_ITERATIONS_PER_COLUMN = 1 / 32


def logistic_loss_derivatives(y, u):
    """Value, first and second derivative of the logistic loss at logit u, for 0/1 labels y.

    value  = -y*log(s(u)) - (1-y)*log(1-s(u)) = logaddexp(0, u) - y*u
    first  = s(u) - y
    second = s(u) * (1 - s(u))

    All three are computed in forms that stay finite for |u| up to the float64 overflow threshold
    (~700); an infinite u gives a NaN value, which the searches reject. Vectorized over arrays.
    """
    y = _label_array(y)
    u = _real_array(u, "logits")
    s = expit(u)
    with np.errstate(invalid="ignore"):
        value = np.logaddexp(0.0, u) - y * u
    return value, s - y, s * (1.0 - s)


def _backtrack(at, obj):
    """The halving search of both Newton loops: the first of at(1), at(1/2), ... whose objective (first entry) is finite and below obj, or None."""
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        point = at(t)
        if np.isfinite(point[0]) and point[0] < obj:
            return point
        t *= 0.5
    return None


def _below_resolution(decrement: float, obj: float) -> bool:
    """Whether a Newton decrement is below float64 resolution at objective obj, where a stalled line search stops."""
    return bool(decrement <= 64.0 * np.finfo(float).eps * (1.0 + abs(obj)))


def _require_lam(lam, d: int) -> None:
    """ContractError unless lam is a positive finite real (not a bool) and lam / d a normal float, as strong convexity needs."""
    if not (_is_finite_real(lam) and lam > 0):
        raise ContractError("ridge strength lam must be positive")
    if lam / d < np.finfo(float).tiny:
        raise ContractError(f"ridge strength lam = {lam!r} underflows: lam / d is below the smallest normal float at d = {d}")


@dataclass(frozen=True)
class FittedModel:
    """Finite fitted weight (floats) with its Sigma-norm, the ridge strength lam behind it and convergence diagnostics."""

    w_hat: np.ndarray
    sigma_norm: float
    lam: float
    converged: bool
    grad_norm: float
    n_iter: int
    objective: float

    def __post_init__(self):
        object.__setattr__(self, "w_hat", _finite_array(self.w_hat, "model weight"))
        _require_lam(self.lam, max(self.w_hat.size, 1))


def _packed_diagonal(d: int) -> np.ndarray:
    """Flat indices of the diagonal of a d x d lower triangle in RFP storage (transr N).

    RFP keeps the triangle in d(d+1)/2 floats as a column-major array of
    leading dimension d + 1 (d even) or d (d odd); a step of one column and
    one row moves to the next diagonal entry. The leading ceil(d/2) diagonal
    entries start at flat index 1 (even) or 0 (odd), the trailing ones at
    0 (even) or d (odd).
    """
    odd = d % 2
    lead = (d + 1) // 2
    step = d + 2 - odd
    return np.concatenate([np.arange(lead) * step + (1 - odd), np.arange(d - lead) * step + odd * d])


class _FeatureSystem:
    """The d-side route: X'DX + cI as one Cholesky factor of d(d+1)/2 floats, the cheaper square when d <= n.

    The factor is the lower triangle in LAPACK's Rectangular Full Packed
    format (RFP, transr N), which keeps level-3 kernels for each step:
    sfrk sums the Hessian, pftrf factors it in place, pftrs solves with it
    and tfsm solves the trace blocks. Every row block of the Hessian and of
    the trace passes through one Fortran-ordered d x r buffer that the
    system owns (r rows of X per block at the current budget), so beside
    the packed factor only one block is ever held.

    `solve` factors only when conjugate gradients fail: CG stops at a
    residual of `_CG_RTOL` (1e-12) times |v| and holds a few n- and
    d-vectors. Its cap, d // 32 iterations, is the measured break-even: at
    5400 x 1200 on one BLAS thread a Hessian-vector product takes 4-5 ms
    and one sfrk + pftrf 0.16-0.17 s, about 35 products. Reaching the cap,
    or a breakdown (p'Hp not finite and positive), sets `_factored`, after
    which this system's solves use the packed factor and pftrs at once, so
    an ill-conditioned fit wastes at most one cap of CG.
    """

    def __init__(self, X: np.ndarray):
        self._X = X
        self._buf = None
        self._factored = False  # set once CG fails on this system: its solves factor from then on
        self.n_coef = X.shape[1]

    def gradient(self, w: np.ndarray, first: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
        """The objective's gradient at w, the Newton right-hand side, and its Euclidean norm."""
        grad = self._X.T @ first / self._X.shape[0] + alpha * w
        return grad, float(np.linalg.norm(grad))

    def weight(self, w: np.ndarray) -> np.ndarray:
        """On the d-side the coefficients are the weight."""
        return w

    def _block(self, rows: slice) -> np.ndarray:
        """The owned buffer's first rows.stop - rows.start columns, a d x k Fortran-ordered view."""
        n, d = self._X.shape
        width = min(n, block_rows(d))
        if self._buf is None or self._buf.shape[1] != width:
            self._buf = np.empty((d, width), order="F")
        return self._buf[:, : rows.stop - rows.start]

    def factor(self, weights: np.ndarray, penalty: float) -> np.ndarray:
        """Lower Cholesky factor of X' diag(weights) X + penalty * I, packed in RFP (d(d+1)/2 floats).

        The lower triangle of X'DX accumulates one LAPACK sfrk per row block
        of B = D^1/2 X (n d^2 flops instead of the 2 n d^2 of a general
        product), each block written into the owned buffer, so no n x d
        copy of the design is formed.
        """
        X = self._X
        d = X.shape[1]
        hess = np.zeros(d * (d + 1) // 2)
        for rows in row_blocks(X.shape[0], d):
            # B[rows]' into the owned buffer; einsum scales without a ufunc's 64 KiB broadcast buffer
            block = np.einsum("ij,i->ji", X[rows], np.sqrt(weights[rows]), out=self._block(rows))
            hess = lapack.dsfrk(d, block.shape[1], 1.0, block, 1.0, hess, transr="N", uplo="L", overwrite_c=1)
        hess[_packed_diagonal(d)] += penalty
        chol, info = lapack.dpftrf(d, hess, transr="N", uplo="L", overwrite_a=1)
        if info != 0:
            raise SingularSystem(f"penalized Hessian could not be factorized (LAPACK pftrf info={info})")
        return chol

    def _product(self, weights: np.ndarray, penalty: float, p: np.ndarray) -> np.ndarray:
        """(X' diag(weights) X + penalty * I) p from two passes over X (4nd flops), with no d x d matrix."""
        return self._X.T @ (weights * (self._X @ p)) + penalty * p

    def solve(self, weights: np.ndarray, penalty: float, v: np.ndarray) -> np.ndarray:
        """(X' diag(weights) X + penalty * I)^-1 v, by conjugate gradients from 0 until the factored solve pays.

        CG stops once the residual is at most `_CG_RTOL` times |v|; if it
        breaks down (p'Hp not finite and positive) or uses up its cap of
        `_CG_ITERATIONS_PER_COLUMN` * d iterations (at least one), this and
        every later solve on the system factor instead.
        """
        if not self._factored:
            tol = _CG_RTOL * np.linalg.norm(v)
            x, r = np.zeros_like(v), v.copy()
            p, rr = r.copy(), r @ r
            if math.sqrt(rr) <= tol:
                return x
            for _ in range(max(1, int(len(v) * _CG_ITERATIONS_PER_COLUMN))):
                q = self._product(weights, penalty, p)
                pq = p @ q
                if not (np.isfinite(pq) and pq > 0):
                    break
                step = rr / pq
                x += step * p
                r -= step * q
                rr, rr_prev = r @ r, rr
                if math.sqrt(rr) <= tol:
                    return x
                p = r + (rr / rr_prev) * p
            self._factored = True
        x, _ = lapack.dpftrs(len(v), self.factor(weights, penalty), v[:, None], transr="N", uplo="L")
        return x[:, 0]

    def traces(self, weights: np.ndarray, penalty: float) -> tuple[float, float]:
        """dof = tr(D X H X') and the remainder tr(D) - tr(D X H X' D), H = (X'DX + c I)^-1, D = diag(weights).

        Both reduce diag(X H X'), the column sums of squares of L^-1 X' with
        LL' = X'DX + c I. L^-1 X' is solved in place one row block of X at a
        time, in the owned buffer, so no d x n array exists.
        """
        X = self._X
        chol = self.factor(weights, penalty)
        diag = np.empty(X.shape[0])
        for rows in row_blocks(X.shape[0], X.shape[1]):
            block = self._block(rows)
            block[...] = X[rows].T
            solved = lapack.dtfsm(1.0, chol, block, transr="N", uplo="L", overwrite_b=1)
            diag[rows] = np.einsum("ij,ij->j", solved, solved)
        return float(np.sum(weights * diag)), float(np.sum(weights) - np.sum(weights**2 * diag))


class _GramSystem:
    """The n-side route: G = XX' and each penalized factor of it, in one Fortran-ordered n x n buffer.

    Only the n x n system M = cI + D^1/2 G D^1/2 is factorized, the
    smaller square when d > n. The strict upper triangle holds G, formed
    by one BLAS syrk that reads the row-major design through its transpose
    (no n x d copy), and is never written again; diag(G) is kept as the
    vector `diag`. `factor` overwrites the diagonal and the strict lower
    triangle with a lower Cholesky factor of M, and `traces` that factor
    with the lower triangle of M^-1; both read and write that triangle
    alone, so G survives every factorization. The lower triangle is
    filled by column tiles, so no temporary exceeds one tile.
    """

    def __init__(self, X: np.ndarray):
        self._X = X
        self.n = self.n_coef = X.shape[0]
        self._buf = scipy.linalg.blas.dsyrk(1.0, X.T, trans=1, lower=0)
        self.diag = self._buf.diagonal().copy()

    def gradient(self, a: np.ndarray, first: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
        """v = first/n + alpha a, whose X'v is the gradient at w = X'a, and the norm of X'v itself."""
        v = first / self.n + alpha * a
        return v, float(np.linalg.norm(self._X.T @ v))

    def weight(self, a: np.ndarray) -> np.ndarray:
        """w = X'a."""
        return self._X.T @ a

    def factor(self, root: np.ndarray, penalty: float) -> np.ndarray:
        """Lower Cholesky factor of diag(root) G diag(root) + penalty * I, in the buffer's lower triangle."""
        buf = self._buf
        for cols in row_tiles(self.n, self.n):
            # entry (i, j) below the diagonal is G_ji * (root_i * root_j): the product of the
            # roots is written first, then scaled by G from the upper triangle, in place
            below, rest = buf[cols.stop :, cols], slice(cols.stop, None)
            np.multiply(root[rest, None], root[cols], out=below)
            np.multiply(buf[cols, rest].T, below, out=below)
            square, lower = buf[cols, cols], np.tri(cols.stop - cols.start, k=-1, dtype=bool)
            np.multiply(root[cols, None], root[cols], out=square, where=lower)
            np.multiply(square.T, square, out=square, where=lower)
        buf[np.diag_indices(self.n)] = self.diag * (root * root) + penalty
        chol, info = lapack.dpotrf(buf, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise SingularSystem(f"penalized Gram system could not be factorized (LAPACK potrf info={info})")
        return chol

    def solve(self, weights: np.ndarray, penalty: float, v: np.ndarray) -> np.ndarray:
        """x = (penalty * I + D G)^-1 v, D = diag(weights), whose X'x is (X'DX + penalty * I)^-1 X'v."""
        X, root, curved = self._X, np.sqrt(weights), weights > 0
        x = np.divide(v, penalty, out=np.zeros(self.n), where=~curved)  # a row of zero curvature reads c x_i = v_i
        rhs = v if curved.all() else v - weights * (X @ (X.T @ x))
        scaled = np.divide(rhs, root, out=np.zeros(self.n), where=curved)  # elsewhere x = r M^-1 (rhs / r), r = D^1/2
        return np.where(curved, root * cho_solve((self.factor(root, penalty), True), scaled, check_finite=False), x)

    def traces(self, weights: np.ndarray, penalty: float) -> tuple[float, float]:
        """dof = tr(D X H X') and the remainder tr(D) - tr(D X H X' D), H = (X'DX + c I)^-1, D = diag(weights).

        With M = cI + D^1/2 G D^1/2, D^1/2 X H X' D^1/2 = I - c M^-1, so both
        need only m = diag(M^-1): dof = sum(1 - c m_ii) and the remainder
        c sum(D_ii m_ii), neither divided by c. A row of zero curvature adds
        exactly 0 to both, so it is left out of the sums rather than trusted
        to cancel. LAPACK potri writes M^-1 over the factor in the lower
        triangle, so G in the strict upper triangle survives.
        """
        chol = self.factor(np.sqrt(weights), penalty)
        inv, info = lapack.dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            raise SingularSystem(f"penalized Gram system could not be inverted (LAPACK potri info={info})")
        curved = weights > 0
        m = inv.diagonal()[curved]
        return float(np.sum(1.0 - penalty * m)), float(penalty * np.sum(weights[curved] * m))


def _penalized_system(X: np.ndarray) -> _FeatureSystem | _GramSystem:
    """The route for X's shape: the n x n Gram system exactly when d > n."""
    n, d = X.shape
    return _GramSystem(X) if d > n else _FeatureSystem(X)


@cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS build that numpy and scipy ship.

    Looked up on first use, not at import; a build without them is skipped.
    """
    controls = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        for path in sorted(Path(package.__file__).parent.parent.glob(f"{package.__name__}.libs/*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                get, set_threads = (getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}") for verb in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            controls.append((get, set_threads))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS build on one thread, restoring each count on exit.

    How OpenBLAS splits a product across threads can move its last bits,
    so the fit, the traces and every driver pin one thread to give the same
    numbers whatever OPENBLAS_NUM_THREADS is. As a decorator it pins each call.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


@_one_blas_thread()
def fit(dataset: Dataset, lam: float, cov: Covariance, system=None) -> FittedModel:
    """Minimize the ridge-logistic objective at ridge strength lam by damped Newton from w = 0.

    Each point costs one loss evaluation, and `_backtrack` halves a Newton
    step until the objective strictly decreases. On the d-side the step is
    solved by conjugate gradients to a residual of 1e-12 of the gradient,
    capped at d // 32 iterations, past which (or on a breakdown) the system
    factors for this and every later step (see `_FeatureSystem.solve`). Iteration stops converged when the
    Euclidean gradient norm drops to `_GRAD_TOL`, or when no step size decreases the objective and the Newton
    decrement is below float resolution (`_below_resolution`); running out of the `_MAX_ITER` iterations
    returns a model with converged=False and the last gradient norm rather than raising. A non-finite objective raises FitError, a
    system that cannot be factorized SingularSystem, and a lam that is not
    a positive finite real, or whose lam / d underflows, ContractError. `cov` gives the reported
    Sigma-norm; `system`, if given, is the design's `_penalized_system`.
    """
    X, y = dataset.X, dataset.y
    n, d = X.shape
    _require_lam(lam, d)
    if n < 1:
        raise ContractError("cannot fit on an empty dataset")
    if cov.dim != d:
        raise ContractError(f"covariance dimension {cov.dim} does not conform with the design's {d} columns")

    system = system or _penalized_system(X)
    alpha = lam / d

    def at(coef_vec, logits_vec):
        """The objective at one point, with the point and the loss derivatives at its logits."""
        value, first, second = logistic_loss_derivatives(y, logits_vec)
        w_vec = system.weight(coef_vec)
        with np.errstate(over="ignore"):  # an overflowing candidate reads inf and is rejected
            return float(np.mean(value) + 0.5 * alpha * (w_vec @ w_vec)), coef_vec, logits_vec, first, second

    obj, coef, logits, first, second = at(np.zeros(system.n_coef), np.zeros(n))
    for n_iter in range(1, _MAX_ITER + 2):
        grad, grad_norm = system.gradient(coef, first, alpha)
        if not np.isfinite(obj):
            raise FitError(f"objective became non-finite at iteration {n_iter}")
        converged = grad_norm <= _GRAD_TOL
        if converged or n_iter > _MAX_ITER:
            break
        step = -system.solve(second / n, alpha, grad)
        step_logits = X @ system.weight(step)
        accepted = _backtrack(lambda t: at(coef + t * step, logits + t * step_logits), obj)
        if accepted is None:  # no decrease at any step size: converged if the Newton decrement is below resolution
            grad_step = first @ step_logits / n + alpha * (system.weight(coef) @ system.weight(step))
            converged = _below_resolution(-0.5 * grad_step, obj)
            break
        obj, coef, logits, first, second = accepted
    n_iter = min(n_iter, _MAX_ITER)
    w = system.weight(coef)

    return FittedModel(
        w_hat=w,
        sigma_norm=math.sqrt(cov.quad(w)),
        lam=lam,
        converged=converged,
        grad_norm=grad_norm,
        n_iter=n_iter,
        objective=obj,
    )
