"""Loss derivatives and the ridge-logistic Newton solver."""

import math

import numpy as np
import pytest

from angcal.errors import ContractError, SingularSystem
from angcal.links import LinkFunction
from angcal.mestimator import (
    FitConfig,
    _FeatureSystem,
    _GramSystem,
    _penalized_system,
    fit,
    logistic_loss_derivatives,
    sigma_norm,
)
from angcal.synth import (
    Covariance,
    CovarianceSpec,
    Dataset,
    Provenance,
    make_covariance,
    make_synthetic_dataset,
)
from helpers import eigh_traces, forced_route


def _external_dataset(X, y):
    return Dataset(X=X, y=y, provenance=Provenance(kind="external"))


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
    def test_unit_cases(self):
        assert sigma_norm(np.array([1.0, 0.0]), Covariance(CovarianceSpec.identity(2))) == 1.0
        diag = Covariance(CovarianceSpec.external(np.diag([0.25, 1.0])))
        assert sigma_norm(np.array([2.0, 0.0]), diag) == pytest.approx(1.0, abs=1e-15)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        spec = CovarianceSpec.ar1(0.4, 7)
        sigma = make_covariance(spec)
        w = rng.standard_normal(7)
        naive = math.sqrt(sum(w[i] * sigma[i, j] * w[j] for i in range(7) for j in range(7)))
        assert sigma_norm(w, Covariance(spec)) == pytest.approx(naive, rel=1e-12)


class TestFit:
    def test_one_dimensional_grid_oracle(self):
        # all labels one, strong ridge: optimum found by brute grid search
        X = np.array([[1.0]])
        y = np.array([1.0])
        ds = _external_dataset(X, y)
        model = fit(ds, FitConfig(lam=100.0), Covariance(CovarianceSpec.identity(1)))
        grid = np.arange(0.0, 0.05, 1e-6)
        losses = np.logaddexp(0.0, grid) - grid + 50.0 * grid**2
        w_oracle = grid[np.argmin(losses)]
        assert model.w_hat[0] == pytest.approx(w_oracle, abs=2e-6)
        assert model.converged

    def test_descent_from_zero_with_uninformative_labels(self):
        link = LinkFunction.clipped_relu_affine(0.0, 0.5)
        spec = CovarianceSpec.identity(6, scale=1.0 / 6.0)
        ds = make_synthetic_dataset(400, Covariance(spec), link, seed=9)
        model = fit(ds, FitConfig(lam=0.5), Covariance(spec))
        assert np.linalg.norm(model.w_hat) < 0.5
        assert model.objective <= math.log(2.0) + 1e-12

    def test_gradient_norm_postcondition(self):
        spec = CovarianceSpec.identity(2, scale=0.5)
        ds = make_synthetic_dataset(40, Covariance(spec), LinkFunction.sigmoid_affine(3, 1), seed=5)
        cfg = FitConfig(lam=0.5, tol=1e-10)
        model = fit(ds, cfg, Covariance(spec))
        assert model.converged and model.grad_norm <= 1e-10

    def test_deterministic_bitwise(self):
        spec = CovarianceSpec.ar1(0.5, 12)
        ds = make_synthetic_dataset(60, Covariance(spec), LinkFunction.sigmoid_affine(3, 1), seed=6)
        a = fit(ds, FitConfig(lam=0.5))
        b = fit(ds, FitConfig(lam=0.5))
        assert np.array_equal(a.w_hat, b.w_hat)

    def test_dense_and_woodbury_agree(self):
        spec = CovarianceSpec.ar1(0.5, 70)
        ds = make_synthetic_dataset(50, Covariance(spec), LinkFunction.sigmoid_affine(3, 1), seed=7)
        with forced_route(_FeatureSystem):
            dense = fit(ds, FitConfig(lam=0.5))
        with forced_route(_GramSystem):
            wood = fit(ds, FitConfig(lam=0.5))
        assert np.max(np.abs(dense.w_hat - wood.w_hat)) <= 1e-8

    def test_unfactorizable_system_raises(self):
        # both routes (d-side and n-side) turn a failed Cholesky into SingularSystem
        X = np.random.default_rng(0).standard_normal((5, 3))
        with pytest.raises(SingularSystem, match="Hessian"):
            _FeatureSystem(X).factor(np.full(5, 0.25), -1e3)
        with pytest.raises(SingularSystem, match="Gram"):
            _GramSystem(X).factor(np.full(5, 0.5), -1e3)

    def test_max_iter_exhaustion_reports(self):
        spec = CovarianceSpec.ar1(0.5, 10)
        ds = make_synthetic_dataset(80, Covariance(spec), LinkFunction.sigmoid_affine(3, 1), seed=8)
        model = fit(ds, FitConfig(lam=0.5, max_iter=1, tol=1e-14), Covariance(spec))
        assert not model.converged
        assert np.isfinite(model.grad_norm) and model.grad_norm > 1e-14

    def test_sigma_norm_consistent(self):
        spec = CovarianceSpec.ar1(0.3, 15)
        sigma = make_covariance(spec)
        ds = make_synthetic_dataset(90, Covariance(spec), LinkFunction.sigmoid_affine(3, 1), seed=10)
        model = fit(ds, FitConfig(lam=0.5), Covariance(spec))
        assert model.sigma_norm == pytest.approx(
            math.sqrt(model.w_hat @ sigma @ model.w_hat), abs=1e-12
        )

    def test_hessian_lower_bound_at_optimum(self):
        spec = CovarianceSpec.ar1(0.5, 8)
        ds = make_synthetic_dataset(50, Covariance(spec), LinkFunction.sigmoid_affine(3, 1), seed=11)
        model = fit(ds, FitConfig(lam=0.5), Covariance(spec))
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
        with pytest.raises(ContractError):
            FitConfig(lam=0.0)
        for tol in (-1.0, 0.0, math.nan, math.inf):  # a NaN tol used to run every iteration, then "not converged"
            with pytest.raises(ContractError):
                FitConfig(lam=1.0, tol=tol)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_route_follows_the_shape(self, n):
        # the d x d system up to d = n, the n x n one from d = n + 1
        assert type(_penalized_system(np.ones((n, n)))) is _FeatureSystem
        assert type(_penalized_system(np.ones((n, n + 1)))) is _GramSystem


class TestTraces:
    @pytest.mark.parametrize("penalty", [1e-10, 1e-14, 1e-17])
    def test_gram_traces_match_eigh_oracle_at_tiny_ridge(self, penalty):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 200))
        curvature = rng.uniform(0.01, 0.25, 100)
        curvature[[5, 40, 77]] = 0.0
        got = _GramSystem(X).traces(curvature, penalty)
        np.testing.assert_allclose(got, eigh_traces(X, curvature, penalty), rtol=1e-12, atol=0)
