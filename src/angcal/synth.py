"""Synthetic data generation and external covariate ingestion.

Covariance construction, the structured covariance operator, matrix
square roots, design and projection sampling under several entry
distributions, true-weight sampling, Bernoulli label generation, pooled
covariance estimation, and CSV loading. Everything is pure given
(inputs, seed): repeated calls are bitwise identical and safe to run
concurrently.

Conventions
-----------
- Designs are (n, d): one row per observation.
- AR(1) base covariance has entries rho**|k-l|; the realized covariance
  is scale times the base matrix (the experiments use scale = 1/d).
- Weight vectors are normalized so that the Sigma-norm sqrt(w' Sigma w)
  equals one.
- Sampling layout: a design is its entry stream z times a factor, and
  everything evaluated is a projected pair. A Gaussian design row is
  x = C z with Sigma = C C' the lower-triangular factor, and Gaussian
  projections W'x are drawn exactly from N(0, W' Sigma W), k normals per
  point. Non-Gaussian z keeps x = Sigma^{1/2} z with the symmetric root,
  because the law of x then depends on the factor. Every design but the
  banded Gaussian one is filled by row blocks (`sample_projections`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.linalg

from . import rng as rngmod
from ._blocks import row_blocks
from .errors import ContractError, CovarianceError, IngestError, SingularCovariance
from .links import LinkFunction

COVARIANCE_KINDS = ("ar1", "identity", "external")

# Relative eigenvalue threshold below which a matrix is treated as singular.
_EIG_FLOOR_REL = 1e-12
_SPD_TOL = 1e-8


@dataclass(frozen=True)
class CovarianceSpec:
    """Recipe for a d x d symmetric positive-definite covariance.

    kind   : 'ar1' (entries rho**|k-l|), 'identity', or 'external'
    dim    : d
    scale  : multiplier applied to the base matrix (experiments use 1/d)
    rho    : AR(1) correlation, required in (-1, 1) for kind='ar1'
    matrix : the base matrix itself for kind='external'; the spec keeps a
             read-only copy and compares and hashes by its shape and bytes
    """

    kind: str
    dim: int
    scale: float = 1.0
    rho: float = 0.0
    matrix: Optional[np.ndarray] = field(default=None, compare=False)
    _matrix_key: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in COVARIANCE_KINDS:
            raise ContractError(f"unknown covariance kind {self.kind!r}")
        if self.dim < 1:
            raise ContractError("covariance dimension must be positive")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ContractError("covariance scale must be a positive real")
        if self.kind == "ar1" and not -1.0 < self.rho < 1.0:
            raise ContractError("ar1 correlation must lie in (-1, 1)")
        if self.kind == "external":
            if self.matrix is None:
                raise ContractError("external covariance requires a matrix")
            matrix = np.array(self.matrix, dtype=np.float64)
            if matrix.shape != (self.dim, self.dim):
                raise ContractError("external covariance matrix shape must be (dim, dim)")
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)
            object.__setattr__(self, "_matrix_key", (matrix.shape, matrix.tobytes()))

    @classmethod
    def ar1(cls, rho: float, dim: int, scale: Optional[float] = None) -> "CovarianceSpec":
        """AR(1) spec; scale defaults to 1/dim, the experiments' convention."""
        return cls("ar1", dim, 1.0 / dim if scale is None else scale, rho=rho)

    @classmethod
    def identity(cls, dim: int, scale: float = 1.0) -> "CovarianceSpec":
        return cls("identity", dim, scale)

    @classmethod
    def external(cls, matrix: np.ndarray, scale: float = 1.0) -> "CovarianceSpec":
        matrix = np.asarray(matrix, dtype=np.float64)
        return cls("external", matrix.shape[0], scale, matrix=matrix)


def make_covariance(spec: CovarianceSpec) -> np.ndarray:
    """Realize the covariance matrix scale * base for a spec.

    For an external base matrix, symmetry and positive definiteness are
    verified to relative tolerance 1e-8; violations raise CovarianceError.
    """
    d = spec.dim
    if spec.kind == "identity":
        base = np.eye(d)
    elif spec.kind == "ar1":
        idx = np.arange(d)
        base = spec.rho ** np.abs(idx[:, None] - idx[None, :])
    else:
        base = np.asarray(spec.matrix, dtype=np.float64)
        scale_ref = float(np.max(np.abs(base))) or 1.0
        if not np.allclose(base, base.T, atol=_SPD_TOL * scale_ref, rtol=0.0):
            raise CovarianceError("external covariance matrix is not symmetric")
        base = 0.5 * (base + base.T)
        eigvals = np.linalg.eigvalsh(base)
        if eigvals[0] <= _SPD_TOL * max(eigvals[-1], 0.0) or eigvals[-1] <= 0.0:
            raise CovarianceError(
                f"external covariance matrix is not positive definite "
                f"(eigenvalue range [{eigvals[0]:.3e}, {eigvals[-1]:.3e}])"
            )
    return spec.scale * base


def symmetric_root(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PD matrix.

    Uses a symmetric eigendecomposition with eigenvalues floored at
    1e-12 times the largest; matrices whose smallest eigenvalue falls at
    or below that floor raise SingularCovariance. The output is exactly
    symmetric.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractError("symmetric_root expects a square matrix")
    mat = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(mat)
    lam_max = float(eigvals[-1])
    if lam_max <= 0.0 or eigvals[0] <= _EIG_FLOOR_REL * lam_max:
        raise SingularCovariance(
            f"matrix is numerically singular: min/max eigenvalue ratio "
            f"{eigvals[0] / lam_max if lam_max > 0 else float('-inf'):.3e}"
        )
    lam = np.maximum(eigvals, _EIG_FLOOR_REL * lam_max)
    root = (eigvecs * np.sqrt(lam)) @ eigvecs.T
    return 0.5 * (root + root.T)


def matrix_sqrt_and_invsqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`symmetric_root(mat)` and its inverse, both exactly symmetric."""
    root = symmetric_root(mat)
    inv_root = np.linalg.inv(root)
    return root, 0.5 * (inv_root + inv_root.T)


def _psd_factor(gram: np.ndarray) -> np.ndarray:
    """A lower factor L with L L' = gram; singular Gram matrices get a symmetric eigen-factor."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        lam, vec = np.linalg.eigh(gram)
        return vec * np.sqrt(np.maximum(lam, 0.0))


class Covariance:
    """Sigma = scale * base for a CovarianceSpec, held through a factor Sigma = C C'.

    Nothing d x d is formed for AR(1) or identity (identity is AR(1) with
    rho = 0): C is the lower-triangular AR(1) factor, x_0 = z_0,
    x_i = rho x_{i-1} + sqrt(1 - rho^2) z_i, times sqrt(scale). Its inverse
    is bidiagonal, so products with C, C' and C^{-1} cost O(d) per column.
    External covariances keep a dense Cholesky factor of the validated
    matrix. The symmetric root Sigma^{1/2}, which non-Gaussian sampling
    needs, is computed on first use only.
    """

    def __init__(self, spec: CovarianceSpec):
        self.spec = spec
        self.dim = spec.dim
        self._chol = None
        if spec.kind == "external":
            self._chol = np.linalg.cholesky(make_covariance(spec))
            return
        rho = float(spec.rho) if spec.kind == "ar1" else 0.0
        # The AR(1) spectrum lies in [(1-|rho|)/(1+|rho|), (1+|rho|)/(1-|rho|)]:
        # refuse what the dense eigenvalue floor would refuse.
        if ((1.0 - abs(rho)) / (1.0 + abs(rho))) ** 2 <= _EIG_FLOOR_REL:
            raise SingularCovariance(f"ar1 covariance with rho={rho!r} is numerically singular")
        innov = math.sqrt(1.0 - rho * rho)
        diag = np.full(self.dim, 1.0 / innov)
        diag[0] = 1.0
        off = np.full(self.dim, -rho / innov)
        # LAPACK banded storage of C^{-1} (lower) and of its transpose (upper);
        # the last entry of `off` in _lower and the first in _upper are unused.
        self._lower = np.vstack([diag, off])
        self._upper = np.vstack([off, diag])
        self._root_scale = math.sqrt(spec.scale)

    def _check_rows(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=np.float64)
        if W.ndim not in (1, 2) or W.shape[0] != self.dim:
            raise ContractError(f"shape {W.shape} does not conform with covariance dimension {self.dim}")
        return W

    def _factor_t(self, W: np.ndarray) -> np.ndarray:
        """C' W."""
        if self._chol is not None:
            return self._chol.T @ W
        return self._root_scale * self._band_solve(self._upper, "U", W)

    @staticmethod
    def _band_solve(band: np.ndarray, uplo: str, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve with the bidiagonal C^{-1} (uplo "L") or its transpose ("U") in band storage.

        A triangular band substitution (LAPACK tbtrs): no LU factorization
        and no pivoting, which a triangular system does not need.
        """
        x, info = scipy.linalg.lapack.dtbtrs(band, b, uplo=uplo, overwrite_b=int(overwrite))
        if info != 0:
            raise SingularCovariance(f"AR(1) factor solve failed (LAPACK tbtrs info={info})")
        return x

    def _whiten(self, v: np.ndarray) -> np.ndarray:
        """C^{-1} v."""
        if self._chol is not None:
            return scipy.linalg.solve_triangular(self._chol, v, lower=True, check_finite=False)
        out = self._lower[0] * v
        out[1:] += self._lower[1, :-1] * v[:-1]
        return out / self._root_scale

    def quad(self, W: np.ndarray):
        """W' Sigma W: a float for a vector, a symmetric (k, k) array for a (d, k) block."""
        Y = self._factor_t(self._check_rows(W))
        if Y.ndim == 1:
            return float(Y @ Y)
        gram = Y.T @ Y
        return 0.5 * (gram + gram.T)

    def inv_quad(self, v: np.ndarray) -> float:
        """v' Sigma^{-1} v for a vector v."""
        v = self._check_rows(v)
        if v.ndim != 1:
            raise ContractError("inv_quad expects a vector")
        u = self._whiten(v)
        return float(u @ u)

    @cached_property
    def root(self) -> np.ndarray:
        """The symmetric root Sigma^{1/2} (dense, d x d), computed on first use."""
        return symmetric_root(make_covariance(self.spec))

    def sample(self, gen: np.random.Generator, n: int, entry: str) -> np.ndarray:
        """(n, d) rows x = C z for Gaussian z, x = Sigma^{1/2} z otherwise.

        A Gaussian design under the banded factor is one band substitution;
        every other design is `sample_projections` onto its factor, filled
        by row blocks.
        """
        if entry == "gaussian" and self._chol is None:
            z = rngmod.sample_entries(gen, (n, self.dim), entry)
            x = self._band_solve(self._lower, "L", z.T, overwrite=True)
            x *= self._root_scale
            return x.T
        return sample_projections(gen, n, entry, self._chol.T if entry == "gaussian" else self.root)

    def projection_factor(self, entry: str, W: np.ndarray) -> np.ndarray:
        """F such that the rows of z @ F are distributed as W'x for the rows x of `sample`.

        z has iid `entry` entries. For Gaussian entries F = chol(W' Sigma W)'
        is (k, k): the projections are drawn exactly, k entries per point.
        Otherwise F = Sigma^{1/2} W is (d, k): z is the design's own draw.
        """
        W = self._check_rows(W)
        if W.ndim != 2:
            raise ContractError("projection directions must be a (d, k) matrix")
        if entry == "gaussian":
            return _psd_factor(self.quad(W)).T
        return self.root @ W


def projection_blocks(gen: np.random.Generator, n: int, entry: str, factor: np.ndarray):
    """Yield (rows, z @ factor) for consecutive row blocks of n draws, z with iid `entry` entries.

    Each block of z holds at most `_blocks.BLOCK_FLOATS` floats. The
    blocks together consume the generator exactly as one (n, width) draw.
    """
    width = factor.shape[0]
    for rows in row_blocks(n, width):
        yield rows, rngmod.sample_entries(gen, (rows.stop - rows.start, width), entry) @ factor


def sample_projections(gen: np.random.Generator, n: int, entry: str, factor: np.ndarray) -> np.ndarray:
    """n rows of z @ factor, z with iid `entry` entries, filled block by block."""
    out = np.empty((n, factor.shape[1]))
    for rows, block in projection_blocks(gen, n, entry, factor):
        out[rows] = block
    return out


def sample_design(n: int, cov: Covariance, dist: str = "gaussian", seed: int = 0) -> np.ndarray:
    """Sample an (n, d) design with iid rows x = C z (Gaussian) or Sigma^{1/2} z.

    z has iid entries from `dist` (gaussian, rademacher or uniform, all
    standardized); see Covariance.sample for the factor per entry kind.
    """
    if n < 1:
        raise ContractError("need at least one design row")
    return cov.sample(rngmod.substream(seed, "design"), n, dist)


def sample_true_weight(cov: Covariance, seed: int = 0) -> np.ndarray:
    """Draw a standard Gaussian weight and normalize it to unit Sigma-norm."""
    gen = rngmod.substream(seed, "weight")
    w = gen.standard_normal(cov.dim)
    norm = math.sqrt(cov.quad(w))
    if norm <= 0.0:
        raise ContractError("degenerate weight draw with zero Sigma-norm")
    return w / norm


def generate_labels(X: np.ndarray, w_star: np.ndarray, link: LinkFunction, seed: int = 0) -> np.ndarray:
    """Draw independent Bernoulli labels with success probability link(w_star' x_i)."""
    X = np.asarray(X, dtype=np.float64)
    w_star = np.asarray(w_star, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != w_star.shape[0]:
        raise ContractError(f"design shape {X.shape} does not conform with weight length {w_star.shape}")
    probs = link(X @ w_star)
    return rngmod.bernoulli(rngmod.substream(seed, "labels"), probs)


def estimate_covariance(pool: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Ridge-shrunk second-moment matrix from an unlabeled pool.

    Returns pool'pool/m + ridge * tr(pool'pool)/(m*d) * I. The mean is not
    subtracted (the sampling model is centered). Positive ridge makes the
    output positive definite even when m < d.
    """
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] < 2:
        raise ContractError("covariance pool must be a matrix with at least two rows")
    if not np.all(np.isfinite(pool)):
        raise ContractError("covariance pool must be finite")
    if not 0 <= ridge < math.inf:
        raise ContractError("ridge must be finite and nonnegative")
    m, d = pool.shape
    second_moment = pool.T @ pool / m
    est = 0.5 * (second_moment + second_moment.T)
    if ridge > 0:
        est = est + (ridge * np.trace(est) / d) * np.eye(d)
    return est


def load_design_csv(path) -> np.ndarray:
    """Load a rectangular numeric CSV (one header row) into an (n, d) matrix.

    No standardization is applied: the caller owns preprocessing, so the
    Sigma-norm bookkeeping downstream stays meaningful. Ragged rows,
    non-numeric or non-finite cells, and files without data rows raise
    IngestError with a 1-based location (the header is row 1).
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path} is empty") from None
        width = len(header)
        if width == 0:
            raise IngestError(f"{path} has an empty header row", row=1)
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != width:
                raise IngestError(
                    f"{path}: expected {width} columns, found {len(cells)}", row=lineno
                )
            parsed = np.empty(width)
            for j, cell in enumerate(cells):
                try:
                    parsed[j] = float(cell)
                except ValueError:
                    raise IngestError(
                        f"{path}: non-numeric cell {cell!r}", row=lineno, col=j + 1
                    ) from None
                if not np.isfinite(parsed[j]):
                    raise IngestError(
                        f"{path}: non-finite cell {cell!r}", row=lineno, col=j + 1
                    )
            rows.append(parsed)
    if not rows:
        raise IngestError(f"{path} has a header but no data rows")
    return np.vstack(rows)


@dataclass(frozen=True)
class Provenance:
    """Where a dataset came from; synthetic provenance keeps the generator state."""

    kind: str  # "synthetic" | "external"
    link: Optional[LinkFunction] = None
    w_star: Optional[np.ndarray] = field(default=None, compare=False)
    cov_spec: Optional[CovarianceSpec] = None
    seed: Optional[int] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class Dataset:
    """A design matrix with binary labels and provenance metadata."""

    X: np.ndarray
    y: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        X = np.asarray(self.X)
        y = np.asarray(self.y)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ContractError(f"dataset shapes do not conform: X {X.shape}, y {y.shape}")
        if not np.all(np.isfinite(X)):
            raise ContractError("design matrix contains non-finite entries")
        if not np.all((y == 0) | (y == 1)):
            raise ContractError("labels must be 0/1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def make_synthetic_dataset(
    n: int,
    cov: Covariance,
    link: LinkFunction,
    seed: int,
    dist: str = "gaussian",
) -> Dataset:
    """Sample a full synthetic dataset: design, unit-Sigma-norm weight, labels."""
    X = sample_design(n, cov, dist, seed)
    w_star = sample_true_weight(cov, seed)
    y = generate_labels(X, w_star, link, seed)
    prov = Provenance(kind="synthetic", link=link, w_star=w_star, cov_spec=cov.spec, seed=seed)
    return Dataset(X=X, y=y, provenance=prov)
