"""Loss derivatives and the ridge-logistic Newton solver."""

import math

import numpy as np
import pytest
from scipy.linalg import lapack

from angcal import experiments, mestimator
from angcal.errors import ContractError, SingularSystem
from angcal.links import LinkFunction
from angcal.mestimator import (
    FittedModel,
    _FeatureSystem,
    _GramSystem,
    _penalized_system,
    fit,
    logistic_loss_derivatives,
)
from angcal.synth import (
    Covariance,
    Dataset,
    make_synthetic_dataset,
)
from helpers import eigh_traces, forced_route, make_covariance


class TestLogisticLossDerivatives:
    def test_symmetric_point(self):
        value, first, second = logistic_loss_derivatives(1.0, 0.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-15)
        assert first == pytest.approx(-0.5, abs=1e-15)
        assert second == pytest.approx(0.25, abs=1e-15)
        value0, first0, second0 = logistic_loss_derivatives(0.0, 0.0)
        assert value0 == pytest.approx(math.log(2.0), abs=1e-15)
        assert first0 == pytest.approx(0.5, abs=1e-15)
        assert second0 == pytest.approx(0.25, abs=1e-15)

    def test_high_precision_sigmoid_oracle(self):
        # s(3) - 1 = -1/(1 + e^3); forming it as s - y loses ~2 ulps to
        # cancellation, so the oracle comparison allows 1e-15 absolute
        _, first, _ = logistic_loss_derivatives(1.0, 3.0)
        assert first == pytest.approx(-1.0 / (1.0 + math.exp(3.0)), abs=1e-15)
        assert first == pytest.approx(-0.047425873177566784, abs=1e-15)

    def test_stable_for_extreme_logits(self):
        for u in (-700.0, -36.0, 36.0, 700.0):
            value, first, second = logistic_loss_derivatives(1.0, u)
            assert np.isfinite(value) and np.isfinite(first) and np.isfinite(second)
        value, _, _ = logistic_loss_derivatives(1.0, -700.0)
        assert value == pytest.approx(700.0, rel=1e-12)

    def test_vectorized(self):
        y = np.array([0.0, 1.0, 1.0])
        u = np.array([-2.0, 0.5, 10.0])
        value, first, second = logistic_loss_derivatives(y, u)
        assert value.shape == first.shape == second.shape == (3,)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(-8, 8, size=50)
        y = rng.integers(0, 2, size=50).astype(float)
        h = 1e-6
        v_plus, _, _ = logistic_loss_derivatives(y, u + h)
        v_minus, _, _ = logistic_loss_derivatives(y, u - h)
        _, first, second = logistic_loss_derivatives(y, u)
        np.testing.assert_allclose((v_plus - v_minus) / (2 * h), first, rtol=1e-7, atol=1e-9)
        f_plus = logistic_loss_derivatives(y, u + h)[1]
        f_minus = logistic_loss_derivatives(y, u - h)[1]
        np.testing.assert_allclose((f_plus - f_minus) / (2 * h), second, rtol=1e-6, atol=1e-9)


class TestSigmaNorm:
    """The Sigma-norm sqrt(w' Sigma w) through `Covariance.quad`, as the fit reports it."""

    def test_unit_cases(self):
        assert math.sqrt(Covariance(2).quad(np.array([1.0, 0.0]))) == 1.0
        quarter = Covariance(2, scale=0.25)
        assert math.sqrt(quarter.quad(np.array([2.0, 0.0]))) == pytest.approx(1.0, abs=1e-15)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        cov = Covariance.ar1(0.4, 7)
        sigma = make_covariance(cov)
        w = rng.standard_normal(7)
        naive = math.sqrt(sum(w[i] * sigma[i, j] * w[j] for i in range(7) for j in range(7)))
        assert math.sqrt(cov.quad(w)) == pytest.approx(naive, rel=1e-12)

    def test_non_finite_weight_rejected(self):
        # a NaN weight used to have Sigma-norm nan
        with pytest.raises(ContractError, match="finite"):
            Covariance(2).quad(np.array([1.0, np.nan]))

    def test_fit_reports_the_sigma_norm_of_w_hat(self):
        cov = Covariance.ar1(0.4, 7)
        ds, _ = make_synthetic_dataset(30, cov, LinkFunction("sigmoid", 3, 1), seed=4)
        model = fit(ds, 0.5, cov)
        assert model.sigma_norm == math.sqrt(cov.quad(model.w_hat))


class TestFit:
    def test_one_dimensional_grid_oracle(self):
        # all labels one, strong ridge: optimum found by brute grid search
        X = np.array([[1.0]])
        y = np.array([1.0])
        ds = Dataset(X=X, y=y)
        model = fit(ds, 100.0, Covariance(1))
        grid = np.arange(0.0, 0.05, 1e-6)
        losses = np.logaddexp(0.0, grid) - grid + 50.0 * grid**2
        w_oracle = grid[np.argmin(losses)]
        assert model.w_hat[0] == pytest.approx(w_oracle, abs=2e-6)
        assert model.converged

    def test_descent_from_zero_with_uninformative_labels(self):
        link = LinkFunction("crelu", 0.0, 0.5)
        cov = Covariance(6, scale=1.0 / 6.0)
        ds, _ = make_synthetic_dataset(400, cov, link, seed=9)
        model = fit(ds, 0.5, cov)
        assert np.linalg.norm(model.w_hat) < 0.5
        assert model.objective <= math.log(2.0) + 1e-12

    def test_gradient_norm_postcondition(self, monkeypatch):
        monkeypatch.setattr(mestimator, "_GRAD_TOL", 1e-10)
        cov = Covariance(2, scale=0.5)
        ds, _ = make_synthetic_dataset(40, cov, LinkFunction("sigmoid", 3, 1), seed=5)
        model = fit(ds, 0.5, cov)
        assert model.converged and model.grad_norm <= 1e-10

    def test_deterministic_bitwise(self):
        cov = Covariance.ar1(0.5, 12)
        ds, _ = make_synthetic_dataset(60, cov, LinkFunction("sigmoid", 3, 1), seed=6)
        a = fit(ds, 0.5, cov)
        b = fit(ds, 0.5, cov)
        assert np.array_equal(a.w_hat, b.w_hat)

    def test_dense_and_woodbury_agree(self):
        cov = Covariance.ar1(0.5, 70)
        ds, _ = make_synthetic_dataset(50, cov, LinkFunction("sigmoid", 3, 1), seed=7)
        with forced_route(_FeatureSystem):
            dense = fit(ds, 0.5, cov)
        with forced_route(_GramSystem):
            wood = fit(ds, 0.5, cov)
        assert np.max(np.abs(dense.w_hat - wood.w_hat)) <= 1e-8

    @pytest.mark.parametrize("lam", [1e-4, 1e-16, 1e-20])
    def test_wide_fit_converges_at_tiny_ridge(self, lam):
        # d > n: the coefficient-space step divides no difference by the ridge; a
        # step formed as (v - back) / ridge stopped unconverged after 2 iterations at 1e-16
        cov = Covariance.ar1(0.5, 200)
        ds, _ = make_synthetic_dataset(100, cov, LinkFunction("sigmoid", 3, 1), seed=3)
        model = fit(ds, lam, cov)
        _, first, _ = logistic_loss_derivatives(ds.y, ds.X @ model.w_hat)
        assert model.converged
        assert np.linalg.norm(ds.X.T @ first / ds.n + lam / ds.d * model.w_hat) <= 1e-8

    def test_unfactorizable_system_raises(self):
        # both routes (d-side and n-side) turn a failed Cholesky into SingularSystem
        X = np.random.default_rng(0).standard_normal((5, 3))
        with pytest.raises(SingularSystem, match="Hessian"):
            _FeatureSystem(X).factor(np.full(5, 0.25), -1e3)
        with pytest.raises(SingularSystem, match="Gram"):
            _GramSystem(X).factor(np.full(5, 0.5), -1e3)

    def test_max_iter_exhaustion_reports(self, monkeypatch):
        # at each cap the reported gradient norm and objective are those of the returned w_hat
        cov = Covariance.ar1(0.5, 10)
        ds, _ = make_synthetic_dataset(80, cov, LinkFunction("sigmoid", 3, 1), seed=8)
        alpha = 0.5 / ds.d
        for cap in (0, 1, 2):
            monkeypatch.setattr(mestimator, "_MAX_ITER", cap)
            model = fit(ds, 0.5, cov)
            assert not model.converged and model.n_iter == cap
            value, first, _ = logistic_loss_derivatives(ds.y, ds.X @ model.w_hat)
            grad = ds.X.T @ first / ds.n + alpha * model.w_hat
            objective = np.mean(value) + 0.5 * alpha * model.w_hat @ model.w_hat
            assert model.grad_norm > 1e-8
            assert model.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-10)
            assert model.objective == pytest.approx(objective, rel=1e-10)

    def test_sigma_norm_consistent(self):
        cov = Covariance.ar1(0.3, 15)
        sigma = make_covariance(cov)
        ds, _ = make_synthetic_dataset(90, cov, LinkFunction("sigmoid", 3, 1), seed=10)
        model = fit(ds, 0.5, cov)
        assert model.sigma_norm == pytest.approx(
            math.sqrt(model.w_hat @ sigma @ model.w_hat), abs=1e-12
        )

    def test_hessian_lower_bound_at_optimum(self):
        cov = Covariance.ar1(0.5, 8)
        ds, _ = make_synthetic_dataset(50, cov, LinkFunction("sigmoid", 3, 1), seed=11)
        model = fit(ds, 0.5, cov)
        _, _, second = logistic_loss_derivatives(ds.y, ds.X @ model.w_hat)
        hess = (ds.X.T * second) @ ds.X / ds.n + (0.5 / ds.d) * np.eye(ds.d)
        assert np.linalg.eigvalsh(hess)[0] >= 0.5 / ds.d - 1e-12

    def test_objective_gradient_hessian_finite_differences(self):
        # analytic derivatives of the full objective at 20 random points, d=5
        rng = np.random.default_rng(12)
        n, d, lam = 30, 5, 0.8
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n).astype(float)
        alpha = lam / d

        def objective(w):
            value, _, _ = logistic_loss_derivatives(y, X @ w)
            return float(np.mean(value) + 0.5 * alpha * w @ w)

        def gradient(w):
            _, first, _ = logistic_loss_derivatives(y, X @ w)
            return X.T @ first / n + alpha * w

        def hessian(w):
            _, _, second = logistic_loss_derivatives(y, X @ w)
            return (X.T * second) @ X / n + alpha * np.eye(d)

        h = 1e-5
        for _ in range(20):
            w = rng.uniform(-1.5, 1.5, d)
            grad = gradient(w)
            hess = hessian(w)
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                fd_grad = (objective(w + e) - objective(w - e)) / (2 * h)
                assert abs(fd_grad - grad[k]) <= 1e-4 * max(1.0, abs(grad[k]))
                fd_hess_col = (gradient(w + e) - gradient(w - e)) / (2 * h)
                denom = np.maximum(1.0, np.abs(hess[:, k]))
                assert np.max(np.abs(fd_hess_col - hess[:, k]) / denom) <= 1e-4

    def test_config_validation(self):
        # fit and FittedModel both refuse a ridge strength that is not a positive finite real
        ds = Dataset(X=np.eye(2), y=np.array([0.0, 1.0]))
        for lam in (0.0, -1.0, math.nan, math.inf, True, "0.5", None):
            with pytest.raises(ContractError, match="ridge strength lam"):
                fit(ds, lam, Covariance(2))
            with pytest.raises(ContractError, match="ridge strength lam"):
                FittedModel(np.zeros(2), 1.0, lam, converged=True, grad_norm=0.0, n_iter=0, objective=0.0)

    def test_ridge_whose_per_feature_share_underflows_is_refused(self):
        # at lam = 5e-324 and d >= 2, alpha = lam / d rounds to 0 and the objective loses strict convexity
        ds, cov = Dataset(X=np.eye(2), y=np.array([0.0, 1.0])), Covariance(2)
        tiny = np.finfo(float).tiny
        for lam in (5e-324, 1.5 * tiny):
            with pytest.raises(ContractError, match="ridge strength lam .* underflows"):
                fit(ds, lam, cov)
            with pytest.raises(ContractError, match="ridge strength lam .* underflows"):
                FittedModel(np.zeros(2), 1.0, lam, converged=True, grad_norm=0.0, n_iter=0, objective=0.0)
            with pytest.raises(ContractError, match="ridge strength lam .* underflows"):
                experiments.ExperimentConfig(n=2, d=2, lam=lam)
        assert FittedModel(np.zeros(2), 1.0, 2 * tiny, converged=True, grad_norm=0.0, n_iter=0, objective=0.0).lam == 2 * tiny
        experiments.ExperimentConfig(n=2, d=2, lam=2 * tiny)

    def test_covariance_of_another_dimension_rejected_before_the_fit(self, monkeypatch):
        # a wrong-sized covariance used to run the whole Newton loop before sigma_norm raised
        ds, _ = make_synthetic_dataset(40, Covariance.ar1(0.5, 6), LinkFunction("sigmoid", 3, 1), seed=1)

        def no_system(X):
            raise AssertionError("the fit started")

        monkeypatch.setattr(mestimator, "_penalized_system", no_system)
        with pytest.raises(ContractError, match="dimension 7"):
            fit(ds, 0.5, Covariance.ar1(0.5, 7))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_route_follows_the_shape(self, n):
        # the d x d system up to d = n, the n x n one from d = n + 1
        assert type(_penalized_system(np.ones((n, n)))) is _FeatureSystem
        assert type(_penalized_system(np.ones((n, n + 1)))) is _GramSystem


def test_run_pipeline_forms_the_gram_matrix_once(monkeypatch):
    # the fit and the traces share one penalized system, so XX' is formed once per run
    built = []

    class CountedGram(_GramSystem):
        def __init__(self, X):
            built.append(X.shape)
            super().__init__(X)

    monkeypatch.setattr(mestimator, "_GramSystem", CountedGram)
    result = experiments.run_pipeline(experiments.ExperimentConfig(n=60, d=90, seed=2))
    assert built == [(result.n_train, 90)]


def _record_calls(monkeypatch, *names):
    """The list that each later call of a `_FeatureSystem` method in `names` appends its name to."""
    calls = []
    for name in names:
        def recorded(system, *args, _method=getattr(_FeatureSystem, name), _name=name):
            calls.append(_name)
            return _method(system, *args)

        monkeypatch.setattr(_FeatureSystem, name, recorded)
    return calls


def test_run_pipeline_factors_the_feature_system_once(monkeypatch):
    # n_train 2700, d 1000: CG solves every Newton step within its cap of 31 iterations,
    # so only the traces factor the d-side system; a factored step factored once per step
    calls = _record_calls(monkeypatch, "factor", "traces")
    result = experiments.run_pipeline(experiments.ExperimentConfig(n=3000, d=1000, n_test=200, platt_holdout=200, seed=5))
    assert result.model.converged and result.model.n_iter > 1
    assert calls == ["traces", "factor"]


class TestConjugateGradientSolve:
    """The d-side Newton step by CG, on systems where CG runs: its cap raised to 4d, or past the break-even."""

    @staticmethod
    def _system(n, d, seed, zero_rows=0):
        """A design, curvature weights like a fit's (second / n, the first zero_rows of them 0) and a right-hand side."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        weights = rng.uniform(0.0, 0.25, n) / n
        weights[:zero_rows] = 0.0
        return X, weights, rng.standard_normal(n)

    @staticmethod
    def _factored(X, weights, penalty, v):
        x, _ = lapack.dpftrs(len(v), _FeatureSystem(X).factor(weights, penalty), v[:, None], transr="N", uplo="L")
        return x[:, 0]

    @pytest.mark.parametrize("zero_rows", [0, 60])
    def test_agrees_with_the_factored_and_the_nside_solves(self, monkeypatch, zero_rows):
        monkeypatch.setattr(mestimator, "_CG_ITERATIONS_PER_COLUMN", 4)
        X, weights, u = self._system(300, 60, 3, zero_rows)
        penalty, v = 0.5 / 60, X.T @ u
        calls = _record_calls(monkeypatch, "_product", "factor")
        got = _FeatureSystem(X).solve(weights, penalty, v)
        assert "factor" not in calls and 1 < len(calls) < 60
        for other in (self._factored(X, weights, penalty, v), X.T @ _GramSystem(X).solve(weights, penalty, u)):
            assert np.linalg.norm(got - other) <= 1e-11 * np.linalg.norm(other)

    def test_zero_right_hand_side_gives_exact_zeros(self, monkeypatch):
        X, weights, _ = self._system(300, 60, 4)
        calls = _record_calls(monkeypatch, "_product", "factor")
        got = _FeatureSystem(X).solve(weights, 0.01, np.zeros(60))
        assert np.array_equal(got, np.zeros(60)) and not np.signbit(got).any()
        assert calls == []

    def test_ill_conditioned_system_falls_back_at_the_cap_for_good(self, monkeypatch):
        # n = 1300, d = 1200, lam = 1e-4 at the fit's first curvature (condition number 2.4e3): CG needs
        # 591 iterations, so it stops at the cap of 1200 // 32 = 37 and the step is the factored solve, bit for bit
        n, d = 1300, 1200
        X, _, _ = self._system(n, d, 5)
        weights, penalty, v = np.full(n, 0.25 / n), 1e-4 / d, np.random.default_rng(6).standard_normal(d)
        features = _FeatureSystem(X)
        calls = _record_calls(monkeypatch, "_product", "factor")
        got = features.solve(weights, penalty, v)
        assert calls == ["_product"] * 37 + ["factor"]
        assert np.array_equal(got, self._factored(X, weights, penalty, v))
        calls.clear()
        features.solve(weights * 0.5, penalty, v)  # every later solve on the system factors at once
        assert calls == ["factor"]

    def test_breakdown_falls_back_to_the_factor(self, monkeypatch):
        # p'Hp <= 0 on the first product: the factored solve then raises as `factor` does
        monkeypatch.setattr(mestimator, "_CG_ITERATIONS_PER_COLUMN", 100)
        X = np.random.default_rng(0).standard_normal((5, 3))
        calls = _record_calls(monkeypatch, "_product", "factor")
        with pytest.raises(SingularSystem, match="Hessian"):
            _FeatureSystem(X).solve(np.full(5, 0.25), -1e3, np.ones(3))
        assert calls == ["_product", "factor"]


class TestTraces:
    @pytest.mark.parametrize("penalty", [1e-10, 1e-14, 1e-17])
    def test_gram_traces_match_eigh_oracle_at_tiny_ridge(self, penalty):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 200))
        curvature = rng.uniform(0.01, 0.25, 100)
        curvature[[5, 40, 77]] = 0.0
        got = _GramSystem(X).traces(curvature, penalty)
        np.testing.assert_allclose(got, eigh_traces(X, curvature, penalty), rtol=1e-12, atol=0)


class TestPackedFeatureSystem:
    # d = 1..9 covers both parities of the packed diagonal; d = 301 over 2001 rows sums three row blocks
    @pytest.mark.parametrize("n, d", [(3 * d + 2, d) for d in range(1, 10)] + [(2001, 301)])
    def test_factor_solve_and_traces_match_a_dense_oracle(self, n, d):
        rng = np.random.default_rng(d)
        X = rng.standard_normal((n, d))
        weights = rng.uniform(0.0, 0.25, n)
        penalty = 0.7
        system = (X.T * weights) @ X + penalty * np.eye(d)
        chol = np.linalg.cholesky(system)
        features = _FeatureSystem(X)

        unpacked, info = lapack.dtfttr(d, features.factor(weights, penalty), transr="N", uplo="L")
        assert info == 0
        np.testing.assert_allclose(np.tril(unpacked), chol, rtol=1e-12, atol=1e-12 * np.max(np.abs(chol)))

        v = rng.standard_normal(d)
        np.testing.assert_allclose(features.solve(weights, penalty, v), np.linalg.solve(system, v), rtol=1e-11)

        solved = np.linalg.solve(chol, X.T)
        hat = np.sum(solved * solved, axis=0)  # diag(X H X')
        dof, remainder = features.traces(weights, penalty)
        assert dof == pytest.approx(np.sum(weights * hat), rel=1e-12)
        assert remainder == pytest.approx(np.sum(weights) - np.sum(weights**2 * hat), rel=1e-12)
