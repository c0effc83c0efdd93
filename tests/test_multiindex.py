"""Multi-index conditional law, predictor, and label generation."""

import math
import warnings

import numpy as np
import pytest

from angcal import rng as rngmod
from angcal.calibrators import IntegratorCfg, angular_predict
from angcal.errors import CollinearIndices, ContractError, LinkRangeError
from angcal.links import LinkFunction
from angcal.multiindex import (
    DEFAULT_NODES_PER_DIM,
    AdditiveLink,
    MultiIndexModel,
    angular_predict_multi,
    conditional_params,
    generate_multi_labels,
    normalized_fit_logits,
)
from angcal.synth import Covariance, CovarianceSpec, make_covariance, matrix_sqrt_and_invsqrt

SIGMOID31 = LinkFunction.sigmoid_affine(3.0, 1.0)
PROBIT = LinkFunction.probit_affine(1.0, 0.3)
CRELU = LinkFunction.clipped_relu_affine(3.0, 0.5)


def _instance(d=12, k=2, seed=0, noise=0.8, mix=0.5, cov_rho=0.5, link=SIGMOID31):
    """A model on Covariance(spec) and the dense Sigma its oracles use."""
    spec = CovarianceSpec.ar1(cov_rho, d)
    cov = Covariance(spec)
    gen = rngmod.substream(seed, "mi-test-instance")
    w_true = gen.standard_normal((d, k))
    for j in range(k):
        w_true[:, j] /= math.sqrt(cov.quad(w_true[:, j]))
    w_fit = w_true + noise * gen.standard_normal((d, k))
    if k > 1:
        w_fit += mix * np.roll(w_true, -1, axis=1)
    g = AdditiveLink(link)
    return MultiIndexModel(w_true=w_true, w_fit=w_fit, cov=cov, g=g), make_covariance(spec)


def _generic(link):
    """The additive link as a plain callable, which takes the generic engine path."""
    return lambda t: np.mean(link(t), axis=-1)


class TestConditionalParams:
    def test_block_identities(self):
        model, _ = _instance()
        params = conditional_params(model)
        np.testing.assert_allclose(np.diag(params.fit_corr), 1.0, atol=1e-12)
        residual = params.mean_map @ params.fit_corr - params.cross
        assert np.max(np.abs(residual)) <= 1e-10
        factor_err = params.residual_factor @ params.residual_factor.T - params.residual_cov
        assert np.max(np.abs(factor_err)) <= 1e-8
        assert np.linalg.eigvalsh(params.residual_cov)[0] >= -1e-14

    def test_aligned_single_index(self):
        model, sigma = _instance(k=1, noise=0.0)
        params = conditional_params(model)
        assert params.mean_map[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert params.residual_cov[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_general_single_index_recovers_angle(self):
        model, sigma = _instance(k=1, noise=0.9, seed=5)
        params = conditional_params(model)
        w_t, w_f = model.w_true[:, 0], model.w_fit[:, 0]
        cos_theta = (w_t @ sigma @ w_f) / math.sqrt(w_f @ sigma @ w_f)
        assert params.mean_map[0, 0] == pytest.approx(cos_theta, abs=1e-12)
        assert params.residual_cov[0, 0] == pytest.approx(1.0 - cos_theta**2, abs=1e-12)

    def test_collinear_indices_rejected(self):
        model, _ = _instance(k=2, seed=3)
        w_fit = model.w_fit.copy()
        w_fit[:, 1] = 2.0 * w_fit[:, 0]
        clone = MultiIndexModel(w_true=model.w_true, w_fit=w_fit, cov=model.cov, g=model.g)
        with pytest.raises(CollinearIndices):
            conditional_params(clone)

    def test_conditional_covariance_monte_carlo_oracle(self):
        model, sigma = _instance(d=6, k=2, seed=7)
        params = conditional_params(model)
        root, _ = matrix_sqrt_and_invsqrt(sigma)
        z = rngmod.substream(8, "mi-mc-oracle").standard_normal((10**6, 6))
        x = z @ root
        true_idx = x @ model.w_true
        fit_idx = x @ (model.w_fit / params.fit_norms)
        residual = true_idx - fit_idx @ params.mean_map.T
        emp = residual.T @ residual / residual.shape[0]
        prods = residual[:, :, None] * residual[:, None, :]
        se = prods.std(axis=0, ddof=1) / math.sqrt(residual.shape[0])
        assert np.max(np.abs(emp - params.residual_cov) / np.maximum(se, 1e-12)) <= 5.0

    def test_residual_independence(self):
        model, sigma = _instance(d=10, k=2, seed=9)
        params = conditional_params(model)
        root, _ = matrix_sqrt_and_invsqrt(sigma)
        z = rngmod.substream(10, "mi-indep").standard_normal((10**6, 10))
        x = z @ root
        true_idx = x @ model.w_true
        fit_idx = x @ (model.w_fit / params.fit_norms)
        residual = true_idx - fit_idx @ params.mean_map.T
        prods = residual[:, :, None] * fit_idx[:, None, :]
        cross = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(prods.shape[0])
        assert np.max(np.abs(cross) / se) <= 4.0


class TestAngularPredictMulti:
    def test_zero_residual_is_plug_in(self):
        model, _ = _instance(k=2, noise=0.0, mix=0.0)
        params = conditional_params(model)
        s = np.array([[0.3, -0.8], [1.2, 0.4]])
        for g in (model.g, _generic(SIGMOID31)):
            preds = angular_predict_multi(s, params, g, IntegratorCfg(nodes=8))
            np.testing.assert_allclose(preds, model.g(s @ params.mean_map.T), atol=1e-12)

    def test_single_index_matches_scalar_module(self):
        model, sigma = _instance(k=1, seed=11)
        params = conditional_params(model)
        sn = float(params.fit_norms[0])
        theta = math.acos(float(np.clip(params.cross[0, 0], -1, 1)))
        s = np.linspace(-3, 3, 50)[:, None]
        # a non-additive callable, so the tensor engine is what gets compared
        multi = angular_predict_multi(s, params, lambda t: SIGMOID31(t[..., 0]), IntegratorCfg(nodes=128))
        single = angular_predict(s[:, 0] * sn, theta, sn, SIGMOID31, IntegratorCfg(nodes=128))
        assert np.max(np.abs(multi - single)) <= 1e-8

    def test_constant_link(self):
        model, _ = _instance(k=2, seed=12)
        params = conditional_params(model)
        preds = angular_predict_multi(
            np.array([[0.0, 1.0]]), params, lambda t: np.full(t.shape[:-1], 0.7), IntegratorCfg(nodes=8)
        )
        assert preds[0] == pytest.approx(0.7, abs=1e-12)

    def test_vector_link_stays_on_simplex(self):
        model, _ = _instance(k=2, seed=13)
        params = conditional_params(model)

        def softmax_pair(t):
            exp = np.exp(t - t.max(axis=-1, keepdims=True))
            return exp / exp.sum(axis=-1, keepdims=True)

        preds = angular_predict_multi(np.array([[0.5, -0.2]]), params, softmax_pair, IntegratorCfg(nodes=32))
        assert preds.shape == (1, 2)
        assert np.all((preds >= 0) & (preds <= 1))
        assert preds.sum() == pytest.approx(1.0, abs=1e-10)

    def test_high_k_falls_back_to_monte_carlo(self):
        model, _ = _instance(d=16, k=4, seed=14)
        params = conditional_params(model)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            preds = angular_predict_multi(np.zeros((2, 4)), params, _generic(SIGMOID31))
        assert any("Monte Carlo" in str(w.message) for w in caught)
        assert preds.shape == (2,)

    def test_default_integrator_is_the_tensor_rule(self):
        # a non-additive g without an integrator takes DEFAULT_NODES_PER_DIM[k] nodes per axis
        model, _ = _instance(k=2, seed=15)
        params = conditional_params(model)
        s = rngmod.substream(16, "mi-default").standard_normal((50, 2))
        default = angular_predict_multi(s, params, _generic(SIGMOID31))
        assert DEFAULT_NODES_PER_DIM[2] == 64
        np.testing.assert_array_equal(default, angular_predict_multi(s, params, _generic(SIGMOID31), IntegratorCfg(nodes=64)))
        assert not np.array_equal(default, angular_predict_multi(s, params, _generic(SIGMOID31), IntegratorCfg(nodes=32)))

    def test_monte_carlo_matches_quadrature(self):
        model, _ = _instance(k=2, seed=15)
        params = conditional_params(model)
        s = np.array([[0.4, -1.0]])
        quad_val = angular_predict_multi(s, params, _generic(SIGMOID31), IntegratorCfg(nodes=64))
        mc_val = angular_predict_multi(
            s, params, _generic(SIGMOID31), integrator=IntegratorCfg(method="monte_carlo", samples=400000, seed=3)
        )
        assert abs(float(quad_val[0] - mc_val[0])) <= 0.005

    def test_scale_invariance(self):
        # rescaling fitted columns rescales S and D together: predictions fixed
        model, sigma = _instance(k=2, seed=16)
        params = conditional_params(model)
        scale = np.array([2.5, 0.3])
        scaled = MultiIndexModel(
            w_true=model.w_true, w_fit=model.w_fit * scale, cov=model.cov, g=model.g
        )
        params_scaled = conditional_params(scaled)
        root, _ = matrix_sqrt_and_invsqrt(sigma)
        x = rngmod.substream(17, "mi-scale").standard_normal((40, sigma.shape[0])) @ root
        s_orig = normalized_fit_logits(model, x)
        s_scaled = normalized_fit_logits(scaled, x)
        np.testing.assert_allclose(normalized_fit_logits(model, x, params.fit_norms), s_orig, rtol=1e-13)
        for g, integrator in ((model.g, None), (_generic(SIGMOID31), IntegratorCfg(nodes=32))):
            a = angular_predict_multi(s_orig, params, g, integrator)
            b = angular_predict_multi(s_scaled, params_scaled, g, integrator)
            assert np.max(np.abs(a - b)) <= 1e-8

    @pytest.mark.parametrize("link", [SIGMOID31, PROBIT], ids=["sigmoid", "probit"])
    def test_additive_collapse_matches_tensor_path(self, link):
        model, _ = _instance(k=2, seed=18, link=link)
        params = conditional_params(model)
        s = rngmod.substream(19, "mi-collapse").standard_normal((200, 2))
        collapsed = angular_predict_multi(s, params, model.g)
        tensor = angular_predict_multi(s, params, _generic(link), IntegratorCfg(nodes=64))
        assert np.max(np.abs(collapsed - tensor)) <= 1e-9

    def test_crelu_collapse_matches_monte_carlo(self):
        # the kinked link defeats tensor quadrature; the collapse is exact
        # through the clipped-linear pieces, so compare with a plain sample mean
        model, _ = _instance(k=2, seed=20, link=CRELU)
        params = conditional_params(model)
        s = np.array([[0.4, -1.0], [-0.3, 0.2], [1.5, 0.9]])
        collapsed = angular_predict_multi(s, params, model.g)
        z = rngmod.substream(21, "mi-crelu-oracle").standard_normal((10**6, 2))
        noise = z @ params.residual_factor.T
        for row, value in zip(s @ params.mean_map.T, collapsed):
            samples = model.g(row + noise)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(value - samples.mean()) <= 4.0 * se

    def test_nonfinite_logits_rejected(self):
        model, _ = _instance(k=2, seed=22)
        params = conditional_params(model)
        for g in (model.g, _generic(SIGMOID31)):
            with pytest.raises(ContractError):
                angular_predict_multi(np.array([[0.1, 0.2], [np.nan, 0.0]]), params, g)


class TestGenerateMultiLabels:
    def test_constant_one(self):
        X = np.random.default_rng(0).standard_normal((30, 4))
        w = np.zeros((4, 2))
        y = generate_multi_labels(X, w, lambda t: np.ones(t.shape[:-1]), seed=1)
        assert np.all(y == 1.0)

    def test_single_index_reduction_in_distribution(self):
        from angcal.synth import Covariance, generate_labels, sample_design, sample_true_weight

        cov = Covariance(CovarianceSpec.ar1(0.5, 8))
        X = sample_design(20000, cov, "gaussian", seed=21)
        w = sample_true_weight(cov, 21)
        y_single = generate_labels(X, w, SIGMOID31, seed=5)
        y_multi = generate_multi_labels(X, w[:, None], AdditiveLink(SIGMOID31), seed=5)
        assert abs(y_single.mean() - y_multi.mean()) <= 0.02

    def test_additive_mean_matches_oracle(self):
        model, sigma = _instance(d=10, k=2, seed=22)
        root, _ = matrix_sqrt_and_invsqrt(sigma)
        X = rngmod.substream(23, "mi-labels").standard_normal((10**5, 10)) @ root
        y = generate_multi_labels(X, model.w_true, model.g, seed=2)
        z = rngmod.substream(24, "mi-oracle").standard_normal((10**6, 10)) @ root
        oracle = float(model.g(z @ model.w_true).mean())
        assert abs(y.mean() - oracle) <= 0.01

    def test_range_errors(self):
        X = np.ones((5, 3))
        w = np.ones((3, 1))
        with pytest.raises(LinkRangeError):
            generate_multi_labels(X, w, lambda t: 1.5 * np.ones(t.shape[:-1]), seed=0)
        with pytest.raises(LinkRangeError):
            generate_multi_labels(X, w, lambda t: t, seed=0)  # vector output

    def test_shape_errors(self):
        with pytest.raises(ContractError):
            generate_multi_labels(np.ones((4, 3)), np.ones((2, 1)), lambda t: t[..., 0], seed=0)
