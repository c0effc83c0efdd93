"""Synthetic data generation and CSV ingestion.

The AR(1) covariance operator and its symmetric root, matrix square
roots, design and projection sampling under several entry distributions,
true-weight sampling, Bernoulli label generation, and CSV loading.
Everything is pure given (inputs, seed): repeated calls are bitwise
identical and safe to run concurrently.

Conventions
-----------
- Designs are (n, d): one row per observation.
- `Covariance(dim, scale, rho)` is scale times the AR(1) base matrix
  with entries rho**|k-l| (the experiments use scale = 1/d); identity is
  rho = 0, the default.
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
import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.linalg

from . import rng as rngmod
from ._blocks import row_blocks, row_tiles
from .errors import (ContractError, IngestError, SingularCovariance, _finite_array, _is_finite_real, _is_real,
                     _label_array, _real_array, _require_count)
from .links import LinkFunction

# Relative eigenvalue threshold below which a matrix is treated as singular.
_EIG_FLOOR_REL = 1e-12


def symmetric_root(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PD matrix.

    Uses a symmetric eigendecomposition with eigenvalues floored at
    1e-12 times the largest; matrices whose smallest eigenvalue falls at
    or below that floor raise SingularCovariance. The output is exactly
    symmetric.
    """
    mat = _finite_array(mat, "matrix")
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
    """Sigma = scale * rho**|k-l| (identity at rho = 0), held through a factor Sigma = C C'.

    dim is d, scale multiplies the base matrix (the experiments use 1/d)
    and rho is the AR(1) correlation, in (-1, 1). Nothing d x d is formed
    but the symmetric root: C is the lower-triangular AR(1) factor,
    x_0 = z_0, x_i = rho x_{i-1} + sqrt(1 - rho^2) z_i, times sqrt(scale).
    Its inverse is bidiagonal, so products with C, C' and C^{-1} cost
    O(d) per column. The symmetric root Sigma^{1/2}, which non-Gaussian
    sampling needs, is computed on first use only.
    """

    def __init__(self, dim: int, scale: float = 1.0, rho: float = 0.0):
        _require_count(dim, "covariance dimension", 1)
        if not (_is_finite_real(scale) and scale > 0):
            raise ContractError("covariance scale must be a positive real")
        if not (_is_real(rho) and -1.0 < rho < 1.0):
            raise ContractError("ar1 correlation must lie in (-1, 1)")
        rho = float(rho)
        self.dim, self.scale, self.rho = dim, scale, rho
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
        self._root_scale = math.sqrt(scale)

    @classmethod
    def ar1(cls, rho: float, dim: int, scale: Optional[float] = None) -> "Covariance":
        """AR(1) covariance; scale defaults to 1/dim, the experiments' convention."""
        _require_count(dim, "covariance dimension", 1)  # before 1 / dim
        return cls(dim, 1.0 / dim if scale is None else scale, rho)

    def _check_rows(self, W: np.ndarray) -> np.ndarray:
        W = _finite_array(W, "vectors paired with a covariance")
        if W.ndim not in (1, 2) or W.shape[0] != self.dim:
            raise ContractError(f"shape {W.shape} does not conform with covariance dimension {self.dim}")
        return W

    def _factor_t(self, W: np.ndarray) -> np.ndarray:
        """C' W."""
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
        """The symmetric root Sigma^{1/2} (dense, d x d, exactly symmetric), computed on first use.

        Sigma^{-1} = C^{-T} C^{-1} / scale is tridiagonal (the Kac-Murdock-Szego
        inverse). Its eigenpairs (mu, U) come from LAPACK's MRRR solver stemr,
        O(d^2) for all vectors, and Sigma^{1/2} = U mu^{-1/2} U' = B B' with
        B = U mu^{-1/4}, scaled in place and multiplied out by one syrk.
        """
        sub = self._lower[1, :-1]
        diag = self._lower[0] ** 2
        diag[:-1] += sub**2
        mu, B = scipy.linalg.eigh_tridiagonal(
            diag / self.scale, sub * self._lower[0, 1:] / self.scale, lapack_driver="stemr"
        )
        B *= mu**-0.25
        return B @ B.T  # numpy forms a product with its own transpose by syrk, mirrored exactly

    def sample(self, gen: np.random.Generator, n: int, entry: str) -> np.ndarray:
        """(n, d) rows x = C z for Gaussian z, x = Sigma^{1/2} z otherwise.

        A Gaussian design is one band substitution; every other design is
        `sample_projections` onto the root, filled by row blocks.
        """
        if entry == "gaussian":
            z = rngmod.sample_entries(gen, (n, self.dim), entry)
            x = self._band_solve(self._lower, "L", z.T, overwrite=True)
            x *= self._root_scale
            return x.T
        return sample_projections(gen, n, entry, self.root)

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

    A Gaussian factor is (k, k) and k entries are drawn per point, so its
    blocks are element-wise tiles of at most `_blocks.TILE_FLOATS` floats
    of z. Any other factor has d rows and the product is a gemm, so its
    blocks hold `_blocks.BLOCK_FLOATS` floats of z, the rows per product
    that set a design's bytes. The blocks together consume the generator
    exactly as one (n, width) draw.
    """
    width = factor.shape[0]
    for rows in (row_tiles if entry == "gaussian" else row_blocks)(n, width):
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
    _require_count(n, "design rows n", 1)
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
    X = _real_array(X, "design")
    w_star = _real_array(w_star, "w_star")
    if X.ndim != 2 or w_star.shape != (X.shape[1],):
        raise ContractError(f"design shape {X.shape} does not conform with weight length {w_star.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite index is rejected just below
        index = X @ w_star
    if not np.all(np.isfinite(index)):
        raise ContractError("label indices w_star' x must be finite")
    return rngmod.bernoulli(rngmod.substream(seed, "labels"), link(index))


def load_design_csv(path) -> np.ndarray:
    """Load a rectangular numeric CSV (one header row) into an (n, d) matrix.

    No standardization is applied: the caller owns preprocessing, so the
    Sigma-norm bookkeeping downstream stays meaningful. Text that is not
    UTF-8, ragged rows, non-numeric or non-finite cells, and files without
    data rows raise IngestError with a 1-based location (the header is row 1).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    try:
        handle = io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        row = len(data[: exc.start + 1].splitlines())  # the line holding the first bad byte
        raise IngestError(f"{path} is not UTF-8 text: {exc.reason}", row=row) from None
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
class Dataset:
    """A finite design matrix with 0/1 labels, both kept as float64 arrays."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _real_array(self.X, "design"))
        object.__setattr__(self, "y", _label_array(self.y))
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise ContractError(f"dataset shapes do not conform: X {self.X.shape}, y {self.y.shape}")
        # tile by tile, so the check holds no n x d mask beside the design
        if not all(np.isfinite(self.X[rows]).all() for rows in row_tiles(*self.X.shape)):
            raise ContractError("design matrix contains non-finite entries")

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
) -> tuple[Dataset, np.ndarray]:
    """Sample a synthetic dataset and the unit-Sigma-norm weight w_star that labelled it."""
    X = sample_design(n, cov, dist, seed)
    w_star = sample_true_weight(cov, seed)
    return Dataset(X=X, y=generate_labels(X, w_star, link, seed)), w_star
