"""Property tests: solver-route agreement, n-side factors, trace oracles, calibrator range, PAV,
and package errors for ill-typed scalar settings.

Examples are drawn deterministically (see the profile in conftest.py);
random matrices come from a drawn seed so their conditioning stays
bounded while shapes, penalties and degenerate rows are searched.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from angcal.calibrators import (
    Angular,
    Chance,
    Platt,
    Uncalibrated,
    _pav_nondecreasing,
    angular_predict,
    calibrate,
    chance_value,
    isotonic_fit,
    link_expectation,
    theoretical_AB,
)
from angcal.errors import AngcalError
from angcal.links import LinkFunction
from angcal.mestimator import FittedModel, _FeatureSystem, _GramSystem, fit
from angcal.observable import angle_estimate, compute_intermediates
from angcal.synth import Covariance, Dataset
from helpers import forced_route
from test_calibrators import _brute_force_isotonic

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 10)
lams = st.floats(0.05, 5.0)


@settings(max_examples=40)
@given(n=dims, d=dims, lam=lams, seed=seeds, zero_rows=st.integers(0, 10))
def test_newton_routes_agree(n, d, lam, seed, zero_rows):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    weights = gen.uniform(0.0, 0.25, n)
    weights[: min(zero_rows, n)] = 0.0
    grad = gen.standard_normal(d)
    alpha = lam / d
    dense = _FeatureSystem(X).solve(weights / n, alpha, grad)
    wood = _GramSystem(X).solve(weights / n, alpha, grad)
    np.testing.assert_allclose(wood, dense, rtol=0, atol=1e-9 * np.linalg.norm(dense))


@settings(max_examples=40)
@given(n=st.integers(1, 12), d=dims, penalty=lams, seed=seeds, zero_rows=st.integers(0, 12))
def test_gram_factors_match_cholesky(n, d, penalty, seed, zero_rows):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    G = X @ X.T
    gram = _GramSystem(X)
    for _ in range(3):  # G must survive every factorization held in the same buffer
        root = gen.uniform(0.0, 0.5, n)
        root[gen.permutation(n)[: min(zero_rows, n)]] = 0.0  # rows of zero curvature
        oracle = np.linalg.cholesky(root[:, None] * G * root + penalty * np.eye(n))
        chol = np.tril(gram.factor(root, penalty))
        assert np.max(np.abs(chol - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@settings(max_examples=15)
@given(n=st.integers(2, 12), d=dims, lam=lams, seed=seeds)
def test_fitted_weights_agree(n, d, lam, seed):
    gen = np.random.default_rng(seed)
    ds = Dataset(gen.standard_normal((n, d)), gen.integers(0, 2, n).astype(float))
    cov = Covariance(d)
    with forced_route(_FeatureSystem):
        dense = fit(ds, lam, cov)
    with forced_route(_GramSystem):
        wood = fit(ds, lam, cov)
    assert dense.converged and wood.converged
    np.testing.assert_allclose(wood.w_hat, dense.w_hat, rtol=0, atol=1e-8)


def _oracle_traces(X, curvature, penalty):
    d = X.shape[1]
    hess_inv = np.linalg.inv(X.T @ np.diag(curvature) @ X + penalty * np.eye(d))
    smoother = np.diag(curvature) @ X @ hess_inv @ X.T
    dof = float(np.trace(smoother))
    v_hat = float((np.sum(curvature) - np.trace(smoother @ np.diag(curvature))) / X.shape[0])
    return dof, v_hat


@settings(max_examples=40)
@given(
    shape=st.sampled_from(["d<n", "d=n", "d>n"]),
    small=st.integers(1, 8),
    extra=st.integers(1, 6),
    lam=lams,
    seed=seeds,
    saturated=st.integers(0, 3),
)
def test_intermediates_match_oracle(shape, small, extra, lam, seed, saturated):
    n, d = {"d<n": (small + extra, small), "d=n": (small, small), "d>n": (small, small + extra)}[shape]
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    w = gen.standard_normal(d)
    w /= np.linalg.norm(w)
    # rows with fitted logit +-800 saturate the sigmoid: their curvature is exactly 0
    k = min(saturated, n)
    X[:k] = np.outer(gen.choice([-800.0, 800.0], k), w)
    y = gen.integers(0, 2, n).astype(float)
    model = FittedModel(
        w_hat=w, sigma_norm=1.0, lam=lam,
        converged=True, grad_norm=0.0, n_iter=0, objective=0.0,
    )
    ds = Dataset(X, y)
    for route in (_FeatureSystem, _GramSystem):
        with forced_route(route):
            inter = compute_intermediates(ds, model)
        assert np.all(inter.curvature[:k] == 0.0)
        dof, v_hat = _oracle_traces(X, inter.curvature, n * lam / d)
        assert abs(inter.dof - dof) <= 1e-9 * max(1.0, dof), route.__name__
        assert abs(inter.effective_curvature - v_hat) <= 1e-9 * max(1.0, v_hat), route.__name__


finite = st.floats(allow_nan=False, allow_infinity=False)
links = st.builds(
    LinkFunction,
    st.sampled_from(["sigmoid", "probit", "crelu"]),
    st.floats(-10.0, 10.0),
    st.floats(-5.0, 5.0),
)


@st.composite
def calibrators(draw):
    kind = draw(st.sampled_from(["uncalibrated", "angular", "platt", "isotonic", "chance"]))
    link = draw(links)
    if kind == "uncalibrated":
        return Uncalibrated(link)
    if kind == "angular":
        return Angular(draw(st.floats(0.0, np.pi)), draw(st.floats(1e-3, 1e3)), link)
    if kind == "platt":
        return Platt(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)), link)
    if kind == "chance":
        return Chance(link)
    logits = draw(arrays(np.float64, st.integers(1, 12), elements=st.floats(-50.0, 50.0)))
    labels = draw(arrays(np.float64, logits.shape, elements=st.sampled_from([0.0, 1.0])))
    return isotonic_fit(logits, labels)


@settings(max_examples=60)
@given(cal=calibrators(), logits=arrays(np.float64, st.integers(1, 20), elements=finite))
def test_calibrators_map_finite_logits_into_unit_interval(cal, logits):
    preds = calibrate(cal, logits)
    assert preds.shape == logits.shape
    assert np.all(np.isfinite(preds)) and np.all((preds >= 0.0) & (preds <= 1.0))


@settings(max_examples=60)
@given(
    data=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 10.0)), min_size=1, max_size=7
    )
)
def test_pav_matches_brute_force(data):
    values, weights = [v for v, _ in data], [w for _, w in data]
    np.testing.assert_allclose(
        _pav_nondecreasing(np.array(values), np.array(weights)),
        _brute_force_isotonic(values, weights),
        rtol=0,
        atol=1e-12,
    )


_ILL_TYPED = (
    True, False, "0.5", None, math.nan, math.inf, -math.inf, 10**400,
    np.bool_(True), np.float64(np.nan), np.float64(-0.5), np.float32(1.25), np.int64(1),
)
_LOGITS = np.linspace(-5.0, 5.0, 11)
# name -> (a call on four drawn scalars and a drawn link, the interval its values must lie in)
_SCALAR_CALLS = {
    "Uncalibrated": (lambda s, link: calibrate(Uncalibrated(link), _LOGITS), (0.0, 1.0)),
    "Angular": (lambda s, link: calibrate(Angular(s[0], s[1], link), _LOGITS), (0.0, 1.0)),
    "Platt": (lambda s, link: calibrate(Platt(s[0], s[1], link), _LOGITS), (0.0, 1.0)),
    "Chance": (lambda s, link: calibrate(Chance(link), _LOGITS), (0.0, 1.0)),
    "angular_predict": (lambda s, link: angular_predict(_LOGITS, s[0], s[1], link), (0.0, 1.0)),
    "chance_value": (lambda s, link: chance_value(link), (0.0, 1.0)),
    "link_expectation": (lambda s, link: link_expectation(link, _LOGITS, s[0]), (0.0, 1.0)),
    "theoretical_AB": (lambda s, link: theoretical_AB(*s), (-math.inf, math.inf)),
    "angle_estimate": (lambda s, link: angle_estimate(s[0], 1, s[1]).theta, (0.0, math.pi)),
}


@settings(max_examples=300)
@given(
    name=st.sampled_from(sorted(_SCALAR_CALLS)),
    scalars=st.tuples(*[st.one_of(st.sampled_from(_ILL_TYPED), st.floats(0.05, 3.0))] * 4),
    link=st.one_of(links, st.sampled_from(["sigmoid", None, 1.0, True])),
)
def test_ill_typed_scalars_raise_package_errors(name, scalars, link):
    # bools, text, None, non-finite values, ints past the float range and numpy scalars either
    # give finite values in range or an AngcalError, never a bare TypeError or AttributeError
    call, (lo, hi) = _SCALAR_CALLS[name]
    try:
        values = np.asarray(call(scalars, link), dtype=np.float64)
    except AngcalError:
        return
    assert np.all(np.isfinite(values)) and np.all((values >= lo) & (values <= hi)), (name, scalars, link)
