"""Property tests: solver-route agreement (d-side steps factored and by CG), n-side factors,
trace oracles, calibrator range, PAV, the binned evaluation statistics, and package errors for
ill-typed scalar settings and array entries.

Examples are drawn deterministically (see the profile in conftest.py);
random matrices come from a drawn seed so their conditioning stays
bounded while shapes, penalties and degenerate rows are searched.
"""

import contextlib
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from angcal import mestimator
from angcal.calibrators import (
    Angular,
    Chance,
    Isotonic,
    Platt,
    Uncalibrated,
    _pav_nondecreasing,
    angular_predict,
    calibrate,
    chance_value,
    isotonic_fit,
    link_expectation,
    platt_fit,
    probit_closed_form,
    theoretical_AB,
)
from angcal.errors import AngcalError, ContractError
from angcal.evaluate import (
    _LEVEL_MIN_COUNT,
    BIN_SCHEMES,
    binned_conditional_mean,
    bregman_losses,
    cal_error_at_level,
    reliability,
)
from angcal.links import LinkFunction
from angcal.mestimator import FittedModel, _FeatureSystem, _GramSystem, fit, logistic_loss_derivatives
from angcal.multiindex import MultiIndexModel, angular_predict_multi, conditional_params
from angcal.observable import angle_estimate, compute_intermediates, sign_estimate
from angcal.synth import Covariance, Dataset, generate_labels
from helpers import forced_route
from test_calibrators import _brute_force_isotonic

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 10)
lams = st.floats(0.05, 5.0)


@contextlib.contextmanager
def cg_steps():
    """Give the d-side CG a cap of 8d iterations and fail any factorization, so every d-side solve is a CG solve.

    At d <= 10 the shipped cap is one iteration, which falls back to the factor.
    """
    def refused(system, *args):
        raise AssertionError("the d-side solve factored")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mestimator, "_CG_ITERATIONS_PER_COLUMN", 8)
        patch.setattr(_FeatureSystem, "factor", refused)
        yield


def _newton_routes_agree(n, d, lam, seed, zero_rows):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    weights = gen.uniform(0.0, 0.25, n)
    weights[: min(zero_rows, n)] = 0.0
    v = gen.standard_normal(n)
    alpha = lam / d
    # the n-side solve works on coefficients: X' of its solution is the d-side solution for X'v
    dense = _FeatureSystem(X).solve(weights / n, alpha, X.T @ v)
    wood = X.T @ _GramSystem(X).solve(weights / n, alpha, v)
    np.testing.assert_allclose(wood, dense, rtol=0, atol=1e-9 * np.linalg.norm(dense))


@settings(max_examples=40)
@given(n=dims, d=dims, lam=lams, seed=seeds, zero_rows=st.integers(0, 10))
def test_newton_routes_agree(n, d, lam, seed, zero_rows):
    _newton_routes_agree(n, d, lam, seed, zero_rows)


@settings(max_examples=40)
@given(n=dims, d=dims, lam=lams, seed=seeds, zero_rows=st.integers(0, 10))
def test_newton_routes_agree_by_cg(n, d, lam, seed, zero_rows):
    with cg_steps():
        _newton_routes_agree(n, d, lam, seed, zero_rows)


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


def _fitted_weights_agree(n, d, lam, seed):
    gen = np.random.default_rng(seed)
    ds = Dataset(gen.standard_normal((n, d)), gen.integers(0, 2, n).astype(float))
    cov = Covariance(d)
    with forced_route(_FeatureSystem):
        dense = fit(ds, lam, cov)
    with forced_route(_GramSystem):
        wood = fit(ds, lam, cov)
    assert dense.converged and wood.converged
    np.testing.assert_allclose(wood.w_hat, dense.w_hat, rtol=0, atol=1e-8)


@settings(max_examples=15)
@given(n=st.integers(2, 12), d=dims, lam=lams, seed=seeds)
# both routes stall at a gradient norm of 1.3e-8, with a Newton decrement of 4e-17 below float resolution
@example(n=5, d=1, lam=2.0, seed=3141)
def test_fitted_weights_agree(n, d, lam, seed):
    _fitted_weights_agree(n, d, lam, seed)


@settings(max_examples=15)
@given(n=st.integers(2, 12), d=dims, lam=lams, seed=seeds)
def test_fitted_weights_agree_by_cg(n, d, lam, seed):
    with cg_steps():
        _fitted_weights_agree(n, d, lam, seed)


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
@given(cal=calibrators(), logits=arrays(np.float64, array_shapes(max_dims=2, max_side=20), elements=finite))
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


def _oracle_bins(values, n_bins, scheme):
    """Each value's bin and the bin edges (k / B for equal_width, quantiles for equal_count):
    a value's bin is the number of interior edges at or below it."""
    if scheme == "equal_width":
        edges = [k / n_bins for k in range(n_bins + 1)]
    else:
        edges = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1))
    return [sum(edge <= v for edge in edges[1:-1]) for v in values], edges


def _per_bin(bin_of, n_bins, *columns):
    """Each bin's count and, per column, each bin's fsum mean (None for an empty bin), one bin at a time."""
    members = [[i for i, b in enumerate(bin_of) if b == k] for k in range(n_bins)]
    means = [[math.fsum(column[i] for i in m) / len(m) if m else None for m in members] for column in columns]
    return [len(m) for m in members], means


def _close(got, want):
    return abs(got - want) <= 1e-12


@settings(max_examples=80)
@given(
    seed=seeds,
    n=st.integers(1, 1500),
    grid=st.one_of(st.none(), st.integers(2, 6)),
    scheme=st.sampled_from(BIN_SCHEMES),
    with_truth=st.booleans(),
    n_bins=st.integers(1, 12),
)
@example(seed=1, n=1500, grid=3, scheme="equal_count", with_truth=True, n_bins=10)
@example(seed=2, n=1234, grid=None, scheme="equal_width", with_truth=False, n_bins=7)
@example(seed=3, n=150, grid=4, scheme="equal_width", with_truth=True, n_bins=12)
def test_binned_statistics_match_a_per_bin_loop(seed, n, grid, scheme, with_truth, n_bins):
    # values on a small grid put ties into one bin and leave other bins empty
    gen = np.random.default_rng(seed)
    draw = (lambda: gen.uniform(0.0, 1.0, n)) if grid is None else (lambda: gen.choice(np.linspace(0.0, 1.0, grid), n))
    preds, true_probs, labels = draw(), draw(), gen.integers(0, 2, n).astype(float)
    p, y, q = preds.tolist(), labels.tolist(), true_probs.tolist()

    bins = max(n_bins, 2) if scheme == "equal_count" else n_bins
    report = reliability(preds, labels, true_probs if with_truth else None, bins, scheme)
    bin_of, edges = _oracle_bins(p, bins, scheme)
    counts, (mean_pred, mean_obs, mean_true) = _per_bin(bin_of, bins, p, y, q)
    assert [(b.lo, b.hi, b.count) for b in report.bins] == [(edges[k], edges[k + 1], counts[k]) for k in range(bins)]
    assert all(report.bins[k].lo <= v <= report.bins[k].hi for v, k in zip(p, bin_of))
    for b, mp, mo, mt in zip(report.bins, mean_pred, mean_obs, mean_true):
        if b.count == 0:
            assert b.mean_pred is None and b.mean_obs is None and b.mean_true is None
            continue
        assert _close(b.mean_pred, mp) and _close(b.mean_obs, mo)
        assert _close(b.mean_true, mt) if with_truth else b.mean_true is None
    ece = math.fsum(c / n * abs(mo - mp) for c, mp, mo in zip(counts, mean_pred, mean_obs) if c)
    assert _close(report.ece, ece)

    # below _LEVEL_MIN_COUNT points per bin the level deltas take one bin
    levels = max(1, min(n_bins, n // _LEVEL_MIN_COUNT))
    bin_of, _ = _oracle_bins(p, levels, "equal_count") if levels > 1 else ([0] * n, None)
    counts, (centers, truths) = _per_bin(bin_of, levels, p, q)
    want = [(c, m, m - t) for c, m, t in zip(counts, centers, truths) if c]
    got = cal_error_at_level(preds, true_probs, n_bins)
    assert [d.count for d in got] == [c for c, _, _ in want]
    assert all(_close(d.p_center, m) and _close(d.delta, delta) for d, (_, m, delta) in zip(got, want))

    # logits outside [0, 1] keep the ties of the grid
    logits, oracle_bins = 30.0 * preds - 12.0, 5 * n_bins
    bin_of, _ = _oracle_bins(logits.tolist(), oracle_bins, "equal_count")
    _, (means,) = _per_bin(bin_of, oracle_bins, q)
    oracle = binned_conditional_mean(logits, true_probs, oracle_bins)
    assert all(_close(got, means[b]) for got, b in zip(oracle, bin_of))


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


_SIGMOID = LinkFunction("sigmoid", 3.0, 1.0)
_U, _P, _Y = [-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.6, 0.9], [0.0, 1.0, 0.0, 1.0]
_X, _W = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]], [[1.0, 0.2], [0.1, 1.0]]
_COV = Covariance(2)
_PARAMS = conditional_params(MultiIndexModel(np.eye(2), _W, _COV, _SIGMOID))


def _dataset_entries(X, y):
    ds = Dataset(X, y)
    return np.concatenate([ds.X.ravel(), ds.y])


# name -> (a call on its array arguments, their well-typed values, the interval its values must lie in)
_ARRAY_CALLS = {
    "calibrate": (lambda u: calibrate(Uncalibrated(_SIGMOID), u), [_U], (0.0, 1.0)),
    "isotonic_fit": (lambda u, y: isotonic_fit(u, y).values, [_U, _Y], (0.0, 1.0)),
    "platt_fit": (lambda u, y: platt_fit(u, y, _SIGMOID), [_U, _Y], (-50.0, 50.0)),
    "reliability": (lambda p, y, q: reliability(p, y, q).ece, [_P, _Y, _P], (0.0, 1.0)),
    "bregman_losses": (lambda p, q: astuple(bregman_losses(p, q)), [_P, _P], (0.0, math.inf)),
    "cal_error_at_level": (
        lambda p, q: [astuple(level)[:2] for level in cal_error_at_level(p, q)], [_P, _P], (-1.0, 1.0)
    ),
    "binned_conditional_mean": (lambda u, q: binned_conditional_mean(u, q, 2), [_U, _P], (0.0, 1.0)),
    "sign_estimate": (lambda u, y: sign_estimate(u, y).value, [_U, _Y], (-1.0, 1.0)),
    "angular_predict": (lambda u: angular_predict(u, 0.5, 1.0, _SIGMOID), [_U], (0.0, 1.0)),
    "link_expectation": (lambda m: link_expectation(_SIGMOID, m, 0.5), [_U], (0.0, 1.0)),
    "probit_closed_form": (probit_closed_form, [_U, _P], (0.0, 1.0)),
    "Isotonic": (lambda b, v: calibrate(Isotonic(b, v), _U), [_U, _P], (0.0, 1.0)),
    "Dataset": (_dataset_entries, [_X, _Y], (-math.inf, math.inf)),
    "generate_labels": (lambda X, w: generate_labels(X, w, _SIGMOID), [_X, [1.0, -1.0]], (0.0, 1.0)),
    "Covariance.quad": (_COV.quad, [_W], (-math.inf, math.inf)),
    "angular_predict_multi": (lambda s: angular_predict_multi(s, _PARAMS, _SIGMOID), [_W], (0.0, 1.0)),
    "MultiIndexModel": (
        lambda w_true, w_fit: conditional_params(MultiIndexModel(w_true, w_fit, _COV, _SIGMOID)).mean_map,
        [np.eye(2).tolist(), _W],
        (-math.inf, math.inf),
    ),
    "LinkFunction.__call__": (_SIGMOID, [_U], (0.0, 1.0)),
    "logistic_loss_derivatives": (lambda y, u: logistic_loss_derivatives(y, u)[1:], [_Y, _U], (-1.0, 1.0)),
}
# element-wise maps, which give NaN in the place of a NaN entry
_ELEMENTWISE = ("LinkFunction.__call__", "logistic_loss_derivatives")
# entries that are no real numbers: text, None, ints past 64 bits and complex numbers
_NOT_REAL = ("a", "0.5", None, 10**400, -(10**400), 1 + 2j, np.complex128(0.5j))


def _with_second_entry(array, value):
    """A copy of the nested list `array` whose entry [1] (1-D) or [1][1] (2-D) is `value`."""
    if isinstance(array[0], list):
        return [array[0], _with_second_entry(array[1], value), *array[2:]]
    return [array[0], value, *array[2:]]


@pytest.mark.parametrize("name", sorted(_ARRAY_CALLS))
def test_ill_typed_arrays_raise_package_errors(name):
    # each ill-typed value in turn as the second entry of each array argument: an entry that is no
    # real number raises ContractError; the rest give finite values in range or an AngcalError
    call, arrays_in, (lo, hi) = _ARRAY_CALLS[name]
    for k, bad in itertools.product(range(len(arrays_in)), _NOT_REAL + _ILL_TYPED):
        args = [_with_second_entry(a, bad) if j == k else a for j, a in enumerate(arrays_in)]
        if any(bad is value for value in _NOT_REAL):
            with pytest.raises(ContractError, match="real numbers"):
                call(*args)
            continue
        try:
            values = np.asarray(call(*args), dtype=np.float64)
        except AngcalError:
            continue
        if name in _ELEMENTWISE and bad != bad:  # NaN
            values = np.delete(values, 1, axis=-1)
        assert np.all(np.isfinite(values)) and np.all((values >= lo) & (values <= hi)), (name, k, bad)
