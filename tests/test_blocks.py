"""The one block budget: results that must not depend on it, and memory it must bound.

Invariance tests shrink `_blocks.BLOCK_FLOATS` so that every blocked loop
runs many small blocks, and compare with the default budget. Memory
guards measure the traced peak of the largest transient producers
(numpy reports its buffers to tracemalloc) against a small multiple of
the budget plus what the call returns.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from angcal import _blocks, experiments, mestimator
from angcal import rng as rngmod
from angcal.calibrators import IntegratorCfg, angular_predict, link_expectation
from angcal.experiments import ExperimentConfig, build_multiindex_model, run_multiindex, sample_logit_pairs
from angcal.links import LinkFunction
from angcal.mestimator import FitConfig, _FeatureSystem, _GramSystem, fit
from angcal.multiindex import angular_predict_multi, conditional_params
from angcal.observable import compute_intermediates
from angcal.synth import Covariance, CovarianceSpec, make_synthetic_dataset, sample_design, sample_projections

BLOCK_BYTES = 8 * _blocks.BLOCK_FLOATS
GUARD_BLOCKS = 6


def _shrink_budget(monkeypatch, floats):
    monkeypatch.setattr(_blocks, "BLOCK_FLOATS", floats)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTilingInvariance:
    @pytest.mark.parametrize(
        "link", [LinkFunction.sigmoid_affine(3, 1), LinkFunction.probit_affine(1, 0.3)], ids=lambda l: l.kind
    )
    def test_gauss_hermite_link_expectation_is_bitwise(self, link, monkeypatch):
        mean = 2.0 * np.random.default_rng(0).standard_normal(5001)
        integrator = IntegratorCfg(nodes=128)
        default = link_expectation(link, mean, 0.6, integrator)
        _shrink_budget(monkeypatch, 3 * 128 + 5)  # three rows per tile
        np.testing.assert_array_equal(link_expectation(link, mean, 0.6, integrator), default)

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar-g", "vector-g"])
    def test_gauss_hermite_tensor_rule_is_bitwise(self, vector, monkeypatch):
        cfg = ExperimentConfig(seed=3, d=40)
        params = conditional_params(build_multiindex_model(cfg, 2))

        def g(u):
            p = expit(u[..., 0] - 0.5 * u[..., 1])
            return np.stack([p, 1.0 - p], axis=-1) if vector else p

        s = np.random.default_rng(1).standard_normal((701, 2))
        default = angular_predict_multi(s, params, g, IntegratorCfg(nodes=64))
        _shrink_budget(monkeypatch, 5 * 64 * 64 * 2)  # five rows per tile of 64^2 nodes
        np.testing.assert_array_equal(angular_predict_multi(s, params, g, IntegratorCfg(nodes=64)), default)

    def test_monte_carlo_nodes_split_when_one_row_exceeds_budget(self, monkeypatch):
        link = LinkFunction.sigmoid_affine(3, 1)
        integrator = IntegratorCfg(method="monte_carlo", samples=5000, seed=4)
        u = np.linspace(-3.0, 3.0, 37)
        default = angular_predict(u, 0.8, 1.1, link, integrator)
        _shrink_budget(monkeypatch, 1000)  # each row's 5000 samples take five node blocks
        np.testing.assert_allclose(angular_predict(u, 0.8, 1.1, link, integrator), default, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("entry", ["gaussian", "rademacher", "uniform"])
    def test_projection_blocks_consume_one_draw_stream(self, entry, monkeypatch):
        # an identity factor returns the draws themselves, exactly
        default = sample_projections(rngmod.substream(2, "p"), 1001, entry, np.eye(5))
        _shrink_budget(monkeypatch, 3 * 5)  # three rows per block
        blocked = sample_projections(rngmod.substream(2, "p"), 1001, entry, np.eye(5))
        np.testing.assert_array_equal(blocked, default)
        np.testing.assert_array_equal(default, rngmod.sample_entries(rngmod.substream(2, "p"), (1001, 5), entry))

    def test_gaussian_projections_are_bitwise(self, monkeypatch):
        cov = Covariance(CovarianceSpec.ar1(0.5, 60))
        W = np.random.default_rng(5).standard_normal((60, 4))
        factor = cov.projection_factor("gaussian", W)
        default = sample_projections(rngmod.substream(7, "p"), 10_001, "gaussian", factor)
        _shrink_budget(monkeypatch, 3 * 4)
        np.testing.assert_array_equal(sample_projections(rngmod.substream(7, "p"), 10_001, "gaussian", factor), default)

    def test_blocked_smoother_diagonal_is_bitwise(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((1001, 30))
        curvature = rng.uniform(0.0, 0.25, 1001)
        system = _FeatureSystem(X)
        chol = system.factor(curvature, 2.0)
        monkeypatch.setattr(system, "factor", lambda *args: chol)  # one factor for both tilings
        default = system.smoother_diagonal(curvature, 2.0)
        _shrink_budget(monkeypatch, 7 * 30)  # seven rows per block
        np.testing.assert_array_equal(system.smoother_diagonal(curvature, 2.0), default)

    def test_gram_column_blocks_rebuild_the_gram_matrix(self, monkeypatch):
        X = np.random.default_rng(9).standard_normal((53, 70))
        gram = _GramSystem(X)
        gram.factor(np.full(53, 0.3), 1.0)  # the factor overwrites the lower triangle
        whole = gram.columns(slice(0, 53))
        _shrink_budget(monkeypatch, 3 * 53)  # three columns per block
        blocked = np.hstack([gram.columns(cols) for cols in _blocks.row_blocks(53, 53)])
        np.testing.assert_array_equal(blocked, whole)
        np.testing.assert_array_equal(whole, whole.T)
        G = X @ X.T
        assert np.max(np.abs(whole - G)) <= 1e-14 * np.max(np.abs(G))

    def test_blocked_woodbury_smoother_diagonal_is_bitwise(self, monkeypatch):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((301, 400))
        curvature = rng.uniform(0.0, 0.25, 301)
        default = _GramSystem(X).smoother_diagonal(curvature, 2.0)
        _shrink_budget(monkeypatch, 7 * 301)  # seven columns per block
        np.testing.assert_array_equal(_GramSystem(X).smoother_diagonal(curvature, 2.0), default)

    def test_blocked_hessian_matches_one_product(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((1003, 40))
        weights = rng.uniform(0.0, 0.25, 1003)
        hessians = []
        monkeypatch.setattr(mestimator, "_cholesky", lambda matrix, penalty, what: hessians.append(np.tril(matrix)))
        _FeatureSystem(X).factor(weights, 0.0)
        _shrink_budget(monkeypatch, 7 * 40)
        _FeatureSystem(X).factor(weights, 0.0)
        unblocked, blocked = hessians
        scale = np.max(np.abs(unblocked))
        assert np.max(np.abs(blocked - unblocked)) <= 1e-14 * scale
        assert np.max(np.abs(unblocked - np.tril((X.T * weights) @ X))) <= 1e-14 * scale

    def test_streamed_residual_moments_match_two_pass(self, monkeypatch):
        draws = 30_001
        monkeypatch.setattr(experiments, "_MULTI_RESIDUAL_DRAWS", draws)
        _shrink_budget(monkeypatch, 4 * 1000)  # 31 blocks of at most 1000 draws
        cfg = ExperimentConfig(seed=5, d=50, n_test=500)
        check = run_multiindex(cfg, 2)["residual_check"]

        model = build_multiindex_model(cfg, 2)
        params = conditional_params(model)
        directions = np.column_stack([model.w_true, model.w_fit / params.fit_norms])
        pairs = sample_logit_pairs(rngmod.substream(5, "mi-residual"), draws, cfg.entry, model.cov, directions)
        residual = pairs[:, :2] - pairs[:, 2:] @ params.mean_map.T
        prod = residual[:, :, None] * pairs[:, None, 2:]
        cross_cov = prod.mean(axis=0)
        cross_se = prod.std(axis=0, ddof=1) / math.sqrt(draws)
        assert check["draws"] == draws
        assert check["max_abs_cov"] == pytest.approx(np.max(np.abs(cross_cov)), rel=1e-12)
        assert check["max_se"] == pytest.approx(np.max(cross_se), rel=1e-12)
        assert check["max_cov_over_se"] == pytest.approx(np.max(np.abs(cross_cov) / cross_se), rel=1e-12)


class TestMemoryGuards:
    def test_multiindex_residual_check_streams_its_draws(self):
        # 10^6 residual draws of four projections: 32 MB as one array
        cfg = ExperimentConfig(seed=5, d=50, n_test=2000)
        _, peak = _traced_peak(lambda: run_multiindex(cfg, 2))
        assert peak <= GUARD_BLOCKS * BLOCK_BYTES

    def test_angular_predict_tiles_its_nodes(self):
        # 20,000 logits x 128 nodes: 20 MB per temporary as one tile
        u = np.random.default_rng(0).standard_normal(20_000)
        probs, peak = _traced_peak(lambda: angular_predict(u, 0.7, 1.3, LinkFunction.sigmoid_affine(3, 1)))
        assert peak <= GUARD_BLOCKS * BLOCK_BYTES + probs.nbytes

    def test_dense_traces_hold_only_the_system_and_blocks(self):
        # the design (8000 x 300, 19 MB) exists before tracing; no copy of it may appear
        cov = Covariance(CovarianceSpec.ar1(0.5, 300))
        ds = make_synthetic_dataset(8000, cov, LinkFunction.sigmoid_affine(3, 1), seed=2)
        model = fit(ds, FitConfig(lam=0.5), cov)
        inter, peak = _traced_peak(lambda: compute_intermediates(ds, model))
        system = 8 * ds.d * ds.d
        returned = inter.score.nbytes + inter.curvature.nbytes + inter.fitted_logits.nbytes
        assert peak <= GUARD_BLOCKS * BLOCK_BYTES + 2 * system + returned

    def test_carved_run_holds_training_rows_system_and_one_block(self):
        # 3600 training rows (11.5 MB) and a 400 x 400 system; the sign holdout is 400
        # fresh pairs drawn after the traces, and the d-side system reuses one owned block
        cfg = ExperimentConfig(n=4000, d=400, seed=3, sign_holdout_frac=0.1)
        res, peak = _traced_peak(lambda: experiments.run_pipeline(cfg))
        assert res.n_sign_holdout == 400
        small = 1 << 20  # the n-vectors of the fit and the traces, 29 kB each
        assert peak <= 8 * res.n_train * cfg.d + 8 * cfg.d * cfg.d + BLOCK_BYTES + small

    def test_non_gaussian_design_fills_by_row_blocks(self):
        # a 4000 x 400 Rademacher design is 12.8 MB; its entry draw is never held whole beside it
        cov = Covariance(CovarianceSpec.ar1(0.5, 400))
        cov.root  # the 400 x 400 root exists before tracing
        X, peak = _traced_peak(lambda: sample_design(4000, cov, "rademacher"))
        assert peak <= X.nbytes + 4 * BLOCK_BYTES

    @pytest.fixture(scope="class")
    def nside(self):
        # d > n: the traces and the fit take the n-side route, whose n x n system is 2.9 MB
        cov = Covariance(CovarianceSpec.ar1(0.5, 1200))
        return make_synthetic_dataset(600, cov, LinkFunction.sigmoid_affine(3, 1), seed=2), cov

    def test_nside_fit_holds_one_system(self, nside):
        # G and every Newton factor share one n x n buffer; filling it needs only n-vectors
        ds, cov = nside
        model, peak = _traced_peak(lambda: fit(ds, FitConfig(lam=0.5), cov))
        assert model.converged
        assert peak <= 8 * ds.n * ds.n + BLOCK_BYTES

    def test_nside_traces_hold_one_system_and_blocks(self, nside):
        # one n x n buffer, then one column block of G with its diagonal square at a time
        ds, cov = nside
        model = fit(ds, FitConfig(lam=0.5), cov)
        inter, peak = _traced_peak(lambda: compute_intermediates(ds, model))
        returned = inter.score.nbytes + inter.curvature.nbytes + inter.fitted_logits.nbytes
        assert peak <= 8 * ds.n * ds.n + 3 * BLOCK_BYTES + returned
