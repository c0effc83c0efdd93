"""Shared test utilities."""

import contextlib
import math

import numpy as np
import pytest
from scipy.special import roots_hermite

from angcal import mestimator, observable
from angcal import rng as rngmod


def conditional_pairs(n, theta, sigma_norm, link, seed, tag="pairs"):
    """Draw (logit, true-index, label) triples from the exact conditional law.

    For Gaussian designs, the true index given a fitted logit u is
    cos(theta) * u / sigma_norm + sin(theta) * Z with Z standard normal:
    sampling the pair directly gives the population objects the Platt
    and calibration theory is stated about, with no d-dimensional fit.
    """
    gen = rngmod.substream(seed, tag)
    base = gen.standard_normal(n)
    noise = gen.standard_normal(n)
    u = sigma_norm * base
    t = np.cos(theta) * base + np.sin(theta) * noise
    y = (gen.random(n) < link(t)).astype(np.float64)
    return u, t, y


def make_covariance(cov):
    """The dense Sigma = scale * rho**|k-l| of a Covariance (identity at rho = 0).

    The oracle the structured `Covariance` operator and its root are
    checked against; the package itself never forms it.
    """
    idx = np.arange(cov.dim)
    return cov.scale * cov.rho ** np.abs(idx[:, None] - idx[None, :])


def psd_factor(cov):
    """A factor F with F F' = cov of a symmetric PSD matrix, zero columns on its null directions."""
    lam, vec = np.linalg.eigh(cov)
    return vec * np.sqrt(np.maximum(lam, 0.0))


def product_gauss_hermite_mean(fn, means, factor, nodes):
    """E[fn(m + factor @ Z)], Z ~ N(0, I_K), for each row m of the (rows, K) `means`.

    The product rule of `nodes` Gauss-Hermite points per axis, built here
    rather than taken from the package: the K-dimensional oracle the
    multi-index predictor's K one-dimensional expectations are checked
    against.
    """
    x, w = roots_hermite(nodes)
    z1, w1 = math.sqrt(2.0) * x, w / math.sqrt(math.pi)
    k = means.shape[1]
    idx = np.indices((nodes,) * k).reshape(k, -1).T  # every multi-index into the 1-D rule
    noise = z1[idx] @ factor.T
    weights = np.prod(w1[idx], axis=1)
    return np.array([weights @ fn(row + noise) for row in means])


def random_spd(rng, d, cond=10.0):
    """Random symmetric positive-definite matrix with bounded condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigvals = np.exp(rng.uniform(0.0, np.log(cond), size=d))
    return (q * eigvals) @ q.T


@contextlib.contextmanager
def forced_route(route):
    """Make the fit and the traces use the penalized-system type `route` whatever the design's shape."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mestimator, "_penalized_system", route)
        patch.setattr(observable, "_penalized_system", route)
        yield


def eigh_traces(X, curvature, penalty):
    """dof and remainder tr(D) - tr(D X H X' D), H = (X'DX + cI)^-1, from an eigendecomposition.

    With A = D^1/2 XX' D^1/2 = U diag(e) U' on the rows of nonzero curvature
    (a row of zero curvature adds exactly 0 to both), dof = sum e/(e + c)
    and the remainder is c sum_i D_i sum_k U_ik^2 / (e_k + c).
    """
    curved = curvature > 0
    root, Xc = np.sqrt(curvature[curved]), X[curved]
    e, U = np.linalg.eigh(root[:, None] * (Xc @ Xc.T) * root)
    dof = np.sum(e / (e + penalty))
    remainder = penalty * np.sum(curvature[curved] * ((U * U) @ (1.0 / (e + penalty))))
    return float(dof), float(remainder)
