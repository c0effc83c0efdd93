"""Multi-index conditional law and predictor."""

import math
from dataclasses import replace

import numpy as np
import pytest

from angcal import rng as rngmod
from angcal.calibrators import angular_predict
from angcal.errors import CollinearIndices, ContractError
from angcal.links import LinkFunction
from angcal.multiindex import MultiIndexModel, angular_predict_multi, conditional_params
from angcal.synth import Covariance, matrix_sqrt_and_invsqrt
from helpers import make_covariance, product_gauss_hermite_mean, psd_factor

SIGMOID31 = LinkFunction("sigmoid", 3.0, 1.0)
PROBIT = LinkFunction("probit", 1.0, 0.3)
CRELU = LinkFunction("crelu", 3.0, 0.5)


def _instance(d=12, k=2, seed=0, noise=0.8, mix=0.5, cov_rho=0.5, link=SIGMOID31):
    """A model on an AR(1) Covariance and the dense Sigma its oracles use."""
    cov = Covariance.ar1(cov_rho, d)
    gen = rngmod.substream(seed, "mi-test-instance")
    w_true = gen.standard_normal((d, k))
    for j in range(k):
        w_true[:, j] /= math.sqrt(cov.quad(w_true[:, j]))
    w_fit = w_true + noise * gen.standard_normal((d, k))
    if k > 1:
        w_fit += mix * np.roll(w_true, -1, axis=1)
    return MultiIndexModel(w_true=w_true, w_fit=w_fit, cov=cov, link=link), make_covariance(cov)


def _additive(model):
    """The model's index link g(u) = mean_j link(u_j) over the last axis."""
    return lambda u: np.mean(model.link(u), axis=-1)


class TestConditionalParams:
    def test_block_identities(self):
        model, _ = _instance()
        params = conditional_params(model)
        np.testing.assert_allclose(np.diag(params.fit_corr), 1.0, atol=1e-12)
        residual = params.mean_map @ params.fit_corr - params.cross
        assert np.max(np.abs(residual)) <= 1e-10
        factor = psd_factor(params.residual_cov)
        factor_err = factor @ factor.T - params.residual_cov
        assert np.max(np.abs(factor_err)) <= 1e-8
        assert np.linalg.eigvalsh(params.residual_cov)[0] >= -1e-14
        assert params.floored is False

    def test_non_finite_index_rejected(self):
        # a NaN in w_true used to come back as NaN blocks
        model, _ = _instance()
        w_true = model.w_true.copy()
        w_true[3, 0] = np.nan
        with pytest.raises(ContractError, match="finite"):
            conditional_params(MultiIndexModel(w_true=w_true, w_fit=model.w_fit, cov=model.cov, link=model.link))

    def test_aligned_single_index(self):
        model, sigma = _instance(k=1, noise=0.0)
        params = conditional_params(model)
        assert params.mean_map[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert params.residual_cov[0, 0] == pytest.approx(0.0, abs=1e-12)
        # the residual is used as computed: a scaled collinear fit rounds it to -3.3e-16 here,
        # and the predictor must still be finite and equal the link at the conditional mean
        scaled = conditional_params(replace(model, w_fit=0.3 * model.w_true))
        assert scaled.residual_cov[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert scaled.floored is True  # negative mass beyond 1e-8 of a zero trace
        s = np.linspace(-3.0, 3.0, 7)[:, None]
        preds = angular_predict_multi(s, scaled, model.link)
        assert np.all(np.isfinite(preds))
        np.testing.assert_allclose(preds, model.link(s[:, 0] * scaled.mean_map[0, 0]), rtol=0, atol=1e-12)

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
        clone = MultiIndexModel(w_true=model.w_true, w_fit=w_fit, cov=model.cov, link=model.link)
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
        preds = angular_predict_multi(s, params, model.link)
        np.testing.assert_allclose(preds, _additive(model)(s @ params.mean_map.T), atol=1e-12)

    def test_single_index_matches_scalar_module(self):
        model, sigma = _instance(k=1, seed=11)
        params = conditional_params(model)
        sn = float(params.fit_norms[0])
        theta = math.acos(float(np.clip(params.cross[0, 0], -1, 1)))
        s = np.linspace(-3, 3, 50)[:, None]
        multi = angular_predict_multi(s, params, model.link)
        single = angular_predict(s[:, 0] * sn, theta, sn, SIGMOID31)
        assert np.max(np.abs(multi - single)) <= 1e-8

    def test_non_additive_link_rejected(self):
        # a plain callable was accepted and sent through a K-dimensional tensor rule
        model, _ = _instance(k=2, seed=12)
        params = conditional_params(model)
        plain = lambda t: np.mean(SIGMOID31(t), axis=-1)  # noqa: E731
        with pytest.raises(ContractError, match="LinkFunction"):
            MultiIndexModel(w_true=model.w_true, w_fit=model.w_fit, cov=model.cov, link=plain)
        with pytest.raises(ContractError, match="LinkFunction"):
            angular_predict_multi(np.array([[0.0, 1.0]]), params, plain)

    def test_scale_invariance(self):
        # rescaling fitted columns rescales S and D together: predictions fixed
        model, sigma = _instance(k=2, seed=16)
        params = conditional_params(model)
        scale = np.array([2.5, 0.3])
        scaled = MultiIndexModel(
            w_true=model.w_true, w_fit=model.w_fit * scale, cov=model.cov, link=model.link
        )
        params_scaled = conditional_params(scaled)
        root, _ = matrix_sqrt_and_invsqrt(sigma)
        x = rngmod.substream(17, "mi-scale").standard_normal((40, sigma.shape[0])) @ root
        s_orig = x @ model.w_fit / params.fit_norms
        s_scaled = x @ scaled.w_fit / params_scaled.fit_norms
        a = angular_predict_multi(s_orig, params, model.link)
        b = angular_predict_multi(s_scaled, params_scaled, model.link)
        assert np.max(np.abs(a - b)) <= 1e-8

    @pytest.mark.parametrize("link", [SIGMOID31, PROBIT], ids=["sigmoid", "probit"])
    def test_additive_collapse_matches_tensor_path(self, link):
        model, _ = _instance(k=2, seed=18, link=link)
        params = conditional_params(model)
        s = rngmod.substream(19, "mi-collapse").standard_normal((200, 2))
        collapsed = angular_predict_multi(s, params, model.link)
        means = s @ params.mean_map.T
        tensor = product_gauss_hermite_mean(_additive(model), means, psd_factor(params.residual_cov), 64)
        assert np.max(np.abs(collapsed - tensor)) <= 1e-9

    def test_crelu_collapse_matches_monte_carlo(self):
        # the kinked link defeats product quadrature; the collapse is exact
        # through the clipped-linear pieces, so compare with a plain sample mean
        model, _ = _instance(k=2, seed=20, link=CRELU)
        params = conditional_params(model)
        s = np.array([[0.4, -1.0], [-0.3, 0.2], [1.5, 0.9]])
        collapsed = angular_predict_multi(s, params, model.link)
        z = rngmod.substream(21, "mi-crelu-oracle").standard_normal((10**6, 2))
        noise = z @ psd_factor(params.residual_cov).T
        for row, value in zip(s @ params.mean_map.T, collapsed):
            samples = _additive(model)(row + noise)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(value - samples.mean()) <= 4.0 * se

    def test_nonfinite_logits_rejected(self):
        model, _ = _instance(k=2, seed=22)
        params = conditional_params(model)
        with pytest.raises(ContractError):
            angular_predict_multi(np.array([[0.1, 0.2], [np.nan, 0.0]]), params, model.link)
