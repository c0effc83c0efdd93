"""Angular calibration for multi-index models.

Labels are driven by K linear indices through the additive link
g(u) = mean_j link(u_j): pi(x) = g(W_true' x). Given any fitted index
matrix W_fit, the joint Gaussianity of (true indices, normalized fitted
indices) yields an exact conditional law: given S = s, the true indices
are N(mean_map @ s, residual), and the conditional expectation
E[ g(G) | S = s ] is exactly calibrated. The blocks are

    cov(G)   = W_true' Sigma W_true
    fit_corr = D^{-1} W_fit' Sigma W_fit D^{-1}      (unit diagonal)
    cross    = W_true' Sigma W_fit D^{-1}
    mean_map = cross @ fit_corr^{-1}
    residual = cov(G) - cross @ fit_corr^{-1} @ cross'

with D = diag of the fitted columns' Sigma-norms; every block comes from
one W' Sigma W of the stacked [W_true, W_fit] through the `Covariance`
operator. Cross-index angles are *inputs* here (both W matrices are
supplied); no estimator for them is provided.

Because g is linear in its coordinates, E[ g(G) | S = s ] is exactly
mean_j E[link(m_j + sqrt(R_jj) Z)] with m = mean_map @ s and R the
residual as computed: K one-dimensional `link_expectation`s (one 128-point
rule for sigmoid). No K-dimensional integral is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibrators import link_expectation
from .errors import CollinearIndices, ContractError, _finite_array
from .links import LinkFunction, _require_link
from .synth import Covariance

_PSD_FLAG_REL = 1e-8


@dataclass(frozen=True)
class MultiIndexModel:
    """True and fitted index matrices (finite floats, d x K columns), their covariance and the per-index link."""

    w_true: np.ndarray
    w_fit: np.ndarray
    cov: Covariance
    link: LinkFunction

    def __post_init__(self):
        _require_link(self.link)
        for name in ("w_true", "w_fit"):
            object.__setattr__(self, name, _finite_array(getattr(self, name), name))
        if self.w_true.ndim != 2 or self.w_fit.shape != self.w_true.shape:
            raise ContractError("w_true and w_fit must be matching (d, K) matrices")
        if self.cov.dim != self.w_true.shape[0]:
            raise ContractError("covariance dimension must match the index dimension")


@dataclass(frozen=True)
class ConditionalParams:
    """Blocks of the conditional law of true indices given fitted ones."""

    fit_corr: np.ndarray
    cross: np.ndarray
    mean_map: np.ndarray
    residual_cov: np.ndarray
    fit_norms: np.ndarray
    floored: bool = field(default=False)


def conditional_params(model: MultiIndexModel) -> ConditionalParams:
    """Compute the conditional-law blocks from true/fitted index matrices.

    The residual covariance is the symmetrized Schur complement, PSD in
    exact arithmetic and kept as computed; `floored` flags one whose
    negative eigenvalues from rounding sum beyond 1e-8 of its trace.
    """
    k = model.w_true.shape[1]

    quad = model.cov.quad(np.column_stack([model.w_true, model.w_fit]))
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

    negative_mass = float(-np.sum(np.minimum(np.linalg.eigvalsh(residual), 0.0)))
    floored = negative_mass > _PSD_FLAG_REL * max(float(np.trace(residual)), 0.0)

    return ConditionalParams(
        fit_corr=fit_corr,
        cross=cross,
        mean_map=mean_map,
        residual_cov=residual,
        fit_norms=norms,
        floored=floored,
    )


def angular_predict_multi(s: np.ndarray, params: ConditionalParams, link: LinkFunction) -> np.ndarray:
    """E[g(G) | S = s], g(u) = mean_j link(u_j), at normalized fitted logits s, `s` (K,) or (m, K).

    The mean over the K indices of `link_expectation` at the conditional
    mean mean_map @ s and residual scale sqrt(max(residual_cov[j, j], 0)).
    """
    _require_link(link)
    s = _finite_array(s, "normalized fitted logits")
    scalar_in = s.ndim == 1
    s2 = s[None, :] if scalar_in else s
    k = params.mean_map.shape[0]
    if s2.ndim != 2 or s2.shape[1] != k:
        raise ContractError(f"logit rows must have {k} components")

    means = s2 @ params.mean_map.T  # (m, K)
    scales = np.sqrt(np.maximum(np.diag(params.residual_cov), 0.0))
    out = np.mean([link_expectation(link, means[:, j], scales[j]) for j in range(k)], axis=0)
    out = np.clip(out, 0.0, 1.0)
    return out[0] if scalar_in else out
