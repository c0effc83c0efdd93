"""The two block budgets: results that must not depend on them, and memory they must bound.

Invariance tests shrink `_blocks.BLOCK_FLOATS` and `_blocks.TILE_FLOATS`
so that every blocked loop runs many small blocks, and compare with the
default budgets; shrinking the tile budget alone must leave every BLAS-3
product's rows, and so its bytes, as they are. Memory guards measure the
traced peak of the largest transient producers (numpy reports its
buffers to tracemalloc) against a small multiple of the budget plus what
the call returns.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from angcal import _blocks, experiments, mestimator
from angcal import rng as rngmod
from angcal.calibrators import angular_predict, link_expectation
from angcal.errors import ContractError
from angcal.experiments import ExperimentConfig, build_multiindex_model, run_multiindex, sample_logit_pairs
from angcal.links import LinkFunction
from angcal.mestimator import _FeatureSystem, fit
from angcal.multiindex import conditional_params
from angcal.observable import compute_intermediates
from angcal.synth import Covariance, Dataset, make_synthetic_dataset, sample_design, sample_projections

BLOCK_BYTES = 8 * _blocks.BLOCK_FLOATS
TILE_BYTES = 8 * _blocks.TILE_FLOATS
GUARD_BLOCKS = 6


def _shrink_budget(monkeypatch, floats):
    monkeypatch.setattr(_blocks, "BLOCK_FLOATS", floats)
    monkeypatch.setattr(_blocks, "TILE_FLOATS", floats)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTilingInvariance:
    # only the sigmoid link is integrated by the tiled Gauss-Hermite rule
    @pytest.mark.parametrize("link", [LinkFunction("sigmoid", 3, 1)], ids=lambda l: l.kind)
    def test_gauss_hermite_link_expectation_is_bitwise(self, link, monkeypatch):
        mean = 2.0 * np.random.default_rng(0).standard_normal(5001)
        default = link_expectation(link, mean, 0.6)
        _shrink_budget(monkeypatch, 3 * 128 + 5)  # three rows per tile
        np.testing.assert_array_equal(link_expectation(link, mean, 0.6), default)

    @pytest.mark.parametrize("rows_per_tile", [1, 3, 7, 256, 1000])
    def test_gauss_hermite_saturates_exactly_under_any_tile(self, rows_per_tile, monkeypatch):
        # the weights sum to exactly one in the tiles' einsum order, whatever rows a tile holds
        _shrink_budget(monkeypatch, rows_per_tile * 128)
        mean = np.repeat([1e200, -1e200], 1000)
        out = link_expectation(LinkFunction("sigmoid", 10, 0.3), mean, 0.7)
        np.testing.assert_array_equal(out, np.repeat([1.0, 0.0], 1000))

    @pytest.mark.parametrize("entry", ["gaussian", "rademacher", "uniform"])
    def test_projection_blocks_consume_one_draw_stream(self, entry, monkeypatch):
        # an identity factor returns the draws themselves, exactly
        default = sample_projections(rngmod.substream(2, "p"), 1001, entry, np.eye(5))
        _shrink_budget(monkeypatch, 3 * 5)  # three rows per block
        blocked = sample_projections(rngmod.substream(2, "p"), 1001, entry, np.eye(5))
        np.testing.assert_array_equal(blocked, default)
        np.testing.assert_array_equal(default, rngmod.sample_entries(rngmod.substream(2, "p"), (1001, 5), entry))

    def test_gaussian_projections_are_bitwise(self, monkeypatch):
        cov = Covariance.ar1(0.5, 60)
        W = np.random.default_rng(5).standard_normal((60, 4))
        factor = cov.projection_factor("gaussian", W)
        default = sample_projections(rngmod.substream(7, "p"), 10_001, "gaussian", factor)
        _shrink_budget(monkeypatch, 3 * 4)
        np.testing.assert_array_equal(sample_projections(rngmod.substream(7, "p"), 10_001, "gaussian", factor), default)

    @pytest.mark.parametrize("columns", [1, 3, 7, None], ids=["1", "3", "7", "default"])
    def test_gram_factor_is_bitwise_under_column_tiles(self, columns, monkeypatch):
        rng = np.random.default_rng(8)
        n = 61
        X = rng.standard_normal((n, 80))
        root = rng.uniform(0.0, 0.5, n)
        root[::7] = 0.0  # rows of zero curvature
        gram = mestimator._GramSystem(X)
        # the reference: entry (i, j) below the diagonal is G_ji * (root_j * root_i), one column at a time
        G = np.triu(gram._buf, 1)
        filled = np.zeros((n, n), order="F")
        for j in range(n - 1):
            filled[j + 1 :, j] = G[j, j + 1 :] * (root[j] * root[j + 1 :])
        filled[np.diag_indices(n)] = gram.diag * (root * root) + 0.3
        reference, info = lapack.dpotrf(filled, lower=1, clean=1)
        assert info == 0
        if columns is not None:
            _shrink_budget(monkeypatch, columns * n)
        for _ in range(2):  # G in the upper triangle survives the tiled fill
            np.testing.assert_array_equal(np.tril(gram.factor(root, 0.3)), reference)
        np.testing.assert_array_equal(np.triu(gram._buf, 1), G)

    def test_blocked_feature_traces_are_bitwise(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((1001, 30))
        curvature = rng.uniform(0.0, 0.25, 1001)
        system = _FeatureSystem(X)
        chol = system.factor(curvature, 2.0)
        monkeypatch.setattr(system, "factor", lambda *args: chol)  # one factor for both tilings
        default = system.traces(curvature, 2.0)
        _shrink_budget(monkeypatch, 7 * 30)  # seven rows per block
        assert system.traces(curvature, 2.0) == default

    def test_tile_budget_moves_no_blas3_block(self, monkeypatch):
        # a Rademacher design is a gemm onto the root and the traces factor a syrk Hessian:
        # both round by the rows one product holds, so neither may follow the tile budget
        cov = Covariance.ar1(0.5, 100)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3001, 30))
        curvature = rng.uniform(0.0, 0.25, 3001)
        design = sample_design(3000, cov, "rademacher", seed=5)
        traces = _FeatureSystem(X).traces(curvature, 2.0)
        monkeypatch.setattr(_blocks, "TILE_FLOATS", 7 * 30)
        np.testing.assert_array_equal(sample_design(3000, cov, "rademacher", seed=5), design)
        assert _FeatureSystem(X).traces(curvature, 2.0) == traces

    def test_blocked_hessian_matches_one_product(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((1003, 40))
        weights = rng.uniform(0.0, 0.25, 1003)
        hessians = []

        def capture(d, packed, **kwargs):  # the packed Hessian as the factorization receives it, unpacked
            hessians.append(np.tril(lapack.dtfttr(d, packed, transr="N", uplo="L")[0]))
            return packed, 0

        monkeypatch.setattr(mestimator.lapack, "dpftrf", capture)
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
        assert peak <= GUARD_BLOCKS * TILE_BYTES

    def test_angular_predict_tiles_its_nodes(self):
        # 20,000 logits x 128 nodes: 20 MB per temporary as one tile
        u = np.random.default_rng(0).standard_normal(20_000)
        probs, peak = _traced_peak(lambda: angular_predict(u, 0.7, 1.3, LinkFunction("sigmoid", 3, 1)))
        assert peak <= GUARD_BLOCKS * TILE_BYTES + probs.nbytes

    def test_dense_traces_hold_only_the_system_and_blocks(self):
        # the design (8000 x 300, 19 MB) exists before tracing; no copy of it may appear
        cov = Covariance.ar1(0.5, 300)
        ds, _ = make_synthetic_dataset(8000, cov, LinkFunction("sigmoid", 3, 1), seed=2)
        model = fit(ds, 0.5, cov)
        inter, peak = _traced_peak(lambda: compute_intermediates(ds, model))
        system = 4 * ds.d * (ds.d + 1)  # the packed triangle, d(d+1)/2 floats
        returned = inter.score.nbytes + inter.curvature.nbytes + inter.fitted_logits.nbytes
        assert peak <= GUARD_BLOCKS * BLOCK_BYTES + 2 * system + returned

    def test_carved_run_holds_training_rows_system_and_one_block(self):
        # 3600 training rows (11.5 MB) and a packed 400 x 400 system; the sign holdout is 400
        # fresh pairs drawn after the traces, and the d-side system reuses one owned block
        cfg = ExperimentConfig(n=4000, d=400, seed=3, sign_holdout_frac=0.1)
        res, peak = _traced_peak(lambda: experiments.run_pipeline(cfg))
        assert res.n_sign_holdout == 400
        small = 1 << 20  # the n-vectors of the fit and the traces, 29 kB each
        assert peak <= 8 * res.n_train * cfg.d + 4 * cfg.d * (cfg.d + 1) + BLOCK_BYTES + small

    def test_feature_factor_holds_the_packed_triangle_and_one_block(self):
        # at d = 1000 a square system alone is 8 MB; the packed one is 4 MB beside the owned block
        d = 1000
        rng = np.random.default_rng(9)
        X = rng.standard_normal((1200, d))
        weights = rng.uniform(0.0, 0.25, 1200)
        _, peak = _traced_peak(lambda: _FeatureSystem(X).factor(weights, 1.0))
        assert peak <= 4 * d * (d + 1) + BLOCK_BYTES + (64 << 10)

    def test_dataset_checks_its_design_by_tiles(self):
        # a 2000 x 500 design (8 MB) is checked without its 1 MB mask; a non-finite last entry is still found
        X = np.ones((2000, 500))
        y = np.zeros(2000)
        _, peak = _traced_peak(lambda: Dataset(X, y))
        assert peak <= 2 * TILE_BYTES
        X[-1, -1] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            Dataset(X, y)

    def test_non_gaussian_design_fills_by_row_blocks(self):
        # a 4000 x 400 Rademacher design is 12.8 MB; its entry draw is never held whole beside it
        cov = Covariance.ar1(0.5, 400)
        cov.root  # the 400 x 400 root exists before tracing
        X, peak = _traced_peak(lambda: sample_design(4000, cov, "rademacher"))
        assert peak <= X.nbytes + 4 * BLOCK_BYTES

    def test_structured_root_holds_three_squares_at_most(self, monkeypatch):
        # the tridiagonal eigenvectors are scaled in place and multiplied out by one syrk:
        # no dense Sigma and no d x d eigh. The root uses no block, so a small budget
        # keeps the bound below the four squares the dense route peaked at.
        _shrink_budget(monkeypatch, 1 << 12)
        d = 400
        cov = Covariance.ar1(0.5, d)
        root, peak = _traced_peak(lambda: cov.root)
        assert root.shape == (d, d)
        assert peak <= 3 * 8 * d * d + 8 * _blocks.BLOCK_FLOATS

    @pytest.fixture(scope="class")
    def nside(self):
        # d > n: the traces and the fit take the n-side route, whose n x n system is 2.9 MB
        cov = Covariance.ar1(0.5, 1200)
        return make_synthetic_dataset(600, cov, LinkFunction("sigmoid", 3, 1), seed=2)[0], cov

    def test_nside_fit_holds_one_system(self, nside):
        # G and every Newton factor share one n x n buffer; filling it needs at most a tile
        ds, cov = nside
        model, peak = _traced_peak(lambda: fit(ds, 0.5, cov))
        assert model.converged
        assert peak <= 8 * ds.n * ds.n + BLOCK_BYTES

    def test_nside_traces_hold_one_system_and_blocks(self, nside):
        # G, the factor and its inverse share one n x n buffer: beside it only
        # n-vectors and the tile that fills the factor's lower triangle by column
        # tiles, no column block of G and no second n x n array
        ds, cov = nside
        model = fit(ds, 0.5, cov)
        inter, peak = _traced_peak(lambda: compute_intermediates(ds, model))
        returned = inter.score.nbytes + inter.curvature.nbytes + inter.fitted_logits.nbytes
        assert peak <= 8 * ds.n * ds.n + 16 * 8 * ds.n + TILE_BYTES + returned

    def test_nside_traces_reuse_the_fits_system(self, nside):
        # handed the fit's system, the traces form no n x n array of their own
        ds, cov = nside
        system = mestimator._penalized_system(ds.X)
        model = fit(ds, 0.5, cov, system)
        inter, peak = _traced_peak(lambda: compute_intermediates(ds, model, system))
        returned = inter.score.nbytes + inter.curvature.nbytes + inter.fitted_logits.nbytes
        assert peak <= 16 * 8 * ds.n + TILE_BYTES + returned
        own = compute_intermediates(ds, model)
        assert (inter.dof, inter.effective_curvature) == (own.dof, own.effective_curvature)
