"""Angular calibration for multi-index models.

Labels are driven by K linear indices through a generalized link g:
pi(x) = g(W_true' x). Given any fitted index matrix W_fit, the joint
Gaussianity of (true indices, normalized fitted indices) yields an exact
conditional law, and the conditional expectation

    E[ g(G) | S = s ] = E_Z [ g(mean_map @ s + residual_factor @ Z) ]

is exactly calibrated. The blocks are

    cov(G)   = W_true' Sigma W_true
    fit_corr = D^{-1} W_fit' Sigma W_fit D^{-1}      (unit diagonal)
    cross    = W_true' Sigma W_fit D^{-1}
    mean_map = cross @ fit_corr^{-1}
    residual = cov(G) - cross @ fit_corr^{-1} @ cross'

with D = diag of the fitted columns' Sigma-norms; every block comes from
one W' Sigma W of the stacked [W_true, W_fit] through the `Covariance`
operator. Cross-index angles are *inputs* here (both W matrices are
supplied); no estimator for them is provided.

The additive link g(u) = mean_j link(u_j) is linear in its coordinates,
so its expectation is exactly mean_j E[link(m_j + sqrt(R_jj) Z)]: K
one-dimensional integrals with the probit and clipped-relu closed forms.
Any other g goes through the tensor/Monte Carlo engine of `calibrators`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod
from .calibrators import IntegratorCfg, _gaussian_mean, _require_finite, default_integrator, link_expectation
from .errors import CollinearIndices, ContractError, LinkRangeError
from .links import LinkFunction
from .synth import Covariance

_PSD_FLAG_REL = 1e-8
_MAX_QUADRATURE_DIM = 3

#: Default Gauss-Hermite nodes per dimension for tensor-product quadrature.
DEFAULT_NODES_PER_DIM = {1: 128, 2: 64, 3: 32}


@dataclass(frozen=True)
class AdditiveLink:
    """The additive index link g(u) = mean_j link(u_j) over the last axis."""

    link: LinkFunction

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return np.mean(self.link(u), axis=-1)


@dataclass(frozen=True)
class MultiIndexModel:
    """True and fitted index matrices (d x K columns) with their covariance."""

    w_true: np.ndarray
    w_fit: np.ndarray
    cov: Covariance
    g: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        w_true = np.asarray(self.w_true)
        w_fit = np.asarray(self.w_fit)
        if w_true.ndim != 2 or w_fit.shape != w_true.shape:
            raise ContractError("w_true and w_fit must be matching (d, K) matrices")
        if self.cov.dim != w_true.shape[0]:
            raise ContractError("covariance dimension must match the index dimension")


@dataclass(frozen=True)
class ConditionalParams:
    """Blocks of the conditional law of true indices given fitted ones."""

    true_cov: np.ndarray
    fit_corr: np.ndarray
    cross: np.ndarray
    mean_map: np.ndarray
    residual_cov: np.ndarray
    residual_factor: np.ndarray
    fit_norms: np.ndarray
    floored: bool = field(default=False)


def conditional_params(model: MultiIndexModel) -> ConditionalParams:
    """Compute the conditional-law blocks from true/fitted index matrices.

    The residual covariance is a Schur complement, PSD in exact
    arithmetic; tiny negative eigenvalues from rounding are floored at
    zero (flagged when the floored mass exceeds 1e-8 of the trace). Its
    factor is a Cholesky when possible; a symmetric eigen-factor when the
    floored matrix is singular, so aligned indices stay noise-free.
    """
    w_true = np.asarray(model.w_true, dtype=np.float64)
    w_fit = np.asarray(model.w_fit, dtype=np.float64)
    k = w_true.shape[1]

    quad = model.cov.quad(np.column_stack([w_true, w_fit]))
    norms = np.sqrt(np.diag(quad)[k:])
    if np.any(norms <= 0) or not np.all(np.isfinite(norms)):
        raise ContractError("every fitted index must have positive Sigma-norm")
    true_cov = quad[:k, :k]
    fit_corr = quad[k:, k:] / np.outer(norms, norms)
    cross = quad[:k, k:] / norms

    eigvals = np.linalg.eigvalsh(fit_corr)
    if eigvals[0] < 1e-10:
        raise CollinearIndices(
            f"fitted indices are numerically collinear (min eigenvalue {eigvals[0]:.3e})"
        )
    mean_map = np.linalg.solve(fit_corr, cross.T).T
    residual = true_cov - mean_map @ cross.T
    residual = 0.5 * (residual + residual.T)

    lam, vec = np.linalg.eigh(residual)
    floored_mass = float(-np.sum(np.minimum(lam, 0.0)))
    floored = floored_mass > _PSD_FLAG_REL * max(float(np.trace(residual)), 0.0)
    lam = np.maximum(lam, 0.0)
    projected = (vec * lam) @ vec.T
    projected = 0.5 * (projected + projected.T)
    try:
        factor = np.linalg.cholesky(projected)
    except np.linalg.LinAlgError:
        factor = vec * np.sqrt(lam)  # valid factor; zero columns on null directions

    return ConditionalParams(
        true_cov=true_cov,
        fit_corr=fit_corr,
        cross=cross,
        mean_map=mean_map,
        residual_cov=projected,
        residual_factor=factor,
        fit_norms=norms,
        floored=floored,
    )


def normalized_fit_logits(model: MultiIndexModel, X: np.ndarray, norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows of fitted indices normalized by their Sigma-norms: (n, K)."""
    if norms is None:
        norms = np.sqrt(np.diag(model.cov.quad(model.w_fit)))
    return np.asarray(X) @ model.w_fit / norms


def resolve_integrator(g, k: int, integrator: Optional[IntegratorCfg] = None) -> IntegratorCfg:
    """The integrator `angular_predict_multi` uses for g over K = k indices.

    An additive link takes its base link's 1-D default; any other g the
    tensor rule with DEFAULT_NODES_PER_DIM[k] nodes, except that beyond
    K = 3 Gauss-Hermite falls back to seeded Monte Carlo with a warning.
    """
    if isinstance(g, AdditiveLink):
        return integrator or default_integrator(g.link)
    if integrator is None and k <= _MAX_QUADRATURE_DIM:
        return IntegratorCfg(nodes=DEFAULT_NODES_PER_DIM[k])
    integrator = integrator or IntegratorCfg()
    if integrator.method == "gauss_hermite" and k > _MAX_QUADRATURE_DIM:
        warnings.warn(
            f"tensor quadrature unsupported for K={k}; falling back to Monte Carlo",
            RuntimeWarning,
        )
        return replace(integrator, method="monte_carlo")
    return integrator


def angular_predict_multi(
    s: np.ndarray,
    params: ConditionalParams,
    g: Callable[[np.ndarray], np.ndarray],
    integrator: Optional[IntegratorCfg] = None,
) -> np.ndarray:
    """E_Z[g(mean_map @ s + residual_factor @ Z)] at normalized fitted logits s.

    `s` is (K,) or (m, K); `g` maps (..., K) arrays to scalar (...) or
    vector (..., J) outputs in [0, 1]. An `AdditiveLink` is evaluated
    exactly as the mean of K one-dimensional expectations; any other g
    by the integrator `resolve_integrator` picks. Vector-valued g on the
    probability simplex keeps its sum: weights add to one.
    """
    s = np.asarray(s, dtype=np.float64)
    scalar_in = s.ndim == 1
    s2 = s[None, :] if scalar_in else s
    k = params.mean_map.shape[0]
    if s2.ndim != 2 or s2.shape[1] != k:
        raise ContractError(f"logit rows must have {k} components")
    _require_finite(s2, "normalized fitted logits")

    means = s2 @ params.mean_map.T  # (m, K)
    integrator = resolve_integrator(g, k, integrator)
    if isinstance(g, AdditiveLink):
        scales = np.sqrt(np.diag(params.residual_cov))
        out = np.mean(
            [link_expectation(g.link, means[:, j], scales[j], integrator) for j in range(k)], axis=0
        )
    else:
        out = _gaussian_mean(g, means, params.residual_factor, integrator)

    out = np.clip(out, 0.0, 1.0)
    return out[0] if scalar_in else out


def generate_multi_labels(
    X: np.ndarray,
    w_true: np.ndarray,
    g: Callable[[np.ndarray], np.ndarray],
    seed: int = 0,
) -> np.ndarray:
    """Bernoulli labels with success probability g(W_true' x_i); g must be scalar-valued."""
    X = np.asarray(X, dtype=np.float64)
    w_true = np.asarray(w_true, dtype=np.float64)
    if X.ndim != 2 or w_true.ndim != 2 or X.shape[1] != w_true.shape[0]:
        raise ContractError("design and index matrix shapes do not conform")
    probs = np.asarray(g(X @ w_true), dtype=np.float64)
    if probs.shape != (X.shape[0],):
        raise LinkRangeError("label generation needs a scalar-valued g, one probability per row")
    if np.any((probs < 0) | (probs > 1)) or not np.all(np.isfinite(probs)):
        raise LinkRangeError("g produced probabilities outside [0, 1]")
    return rngmod.bernoulli(rngmod.substream(seed, "multi-labels"), probs)
