"""The covariance operator and its root, sampling, labels, CSV ingestion."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from angcal import experiments
from angcal.errors import ContractError, IngestError, SingularCovariance
from angcal.experiments import ExperimentConfig, run_pipeline
from angcal.links import LinkFunction
from angcal.observable import sign_estimate
from angcal import rng as rngmod
from angcal.synth import (
    Covariance,
    Dataset,
    generate_labels,
    load_design_csv,
    make_synthetic_dataset,
    matrix_sqrt_and_invsqrt,
    sample_design,
    sample_projections,
    sample_true_weight,
    symmetric_root,
)
from helpers import make_covariance, random_spd


class TestMakeCovariance:
    def test_ar1_paper_configuration(self):
        sigma = make_covariance(Covariance.ar1(0.5, 4, scale=0.25))
        assert sigma[0, 1] == pytest.approx(0.125, abs=0)
        assert sigma[0, 0] == pytest.approx(0.25, abs=0)

    def test_identity(self):
        np.testing.assert_array_equal(
            make_covariance(Covariance(3)), np.eye(3)
        )

    def test_ar1_zero_rho_decorrelates(self):
        d = 6
        np.testing.assert_array_equal(
            make_covariance(Covariance.ar1(0.0, d)), np.eye(d) / d
        )

    def test_ar1_closed_form_exact(self):
        # bitwise exact when 1/d is a binary fraction; one ulp otherwise
        idx8 = np.arange(8)
        sigma8 = make_covariance(Covariance.ar1(-0.3, 8))
        np.testing.assert_array_equal(8 * sigma8, (-0.3) ** np.abs(idx8[:, None] - idx8[None, :]))
        d, rho = 9, -0.3
        sigma = make_covariance(Covariance.ar1(rho, d))
        idx = np.arange(d)
        np.testing.assert_allclose(
            d * sigma, rho ** np.abs(idx[:, None] - idx[None, :]), rtol=4e-16, atol=0
        )

    def test_spec_validation(self):
        with pytest.raises(ContractError):
            Covariance.ar1(1.0, 4)
        with pytest.raises(ContractError):
            Covariance(4, scale=-1.0, rho=0.5)
        with pytest.raises(ContractError, match="correlation"):
            Covariance(4, rho=math.nan)


class TestMatrixSqrt:
    def test_identity(self):
        root, inv_root = matrix_sqrt_and_invsqrt(np.eye(4))
        np.testing.assert_allclose(root, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(inv_root, np.eye(4), atol=1e-14)

    def test_diagonal(self):
        root, inv_root = matrix_sqrt_and_invsqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-14)
        np.testing.assert_allclose(inv_root, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_ar1_multiply_back(self):
        sigma = make_covariance(Covariance.ar1(0.5, 5))
        root, inv_root = matrix_sqrt_and_invsqrt(sigma)
        np.testing.assert_allclose(root @ root, sigma, atol=1e-12)
        np.testing.assert_allclose(inv_root @ sigma @ inv_root, np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("d", [20, 120, 500])
    def test_random_spd_multiply_back(self, d):
        mat = random_spd(np.random.default_rng(d), d, cond=1e4)
        root, inv_root = matrix_sqrt_and_invsqrt(mat)
        rel = np.linalg.norm(root @ root - mat) / np.linalg.norm(mat)
        assert rel <= 1e-8
        np.testing.assert_allclose(root, root.T, atol=0)
        np.testing.assert_allclose(inv_root, inv_root.T, atol=0)

    def test_near_singular_rejected(self):
        with pytest.raises(SingularCovariance):
            matrix_sqrt_and_invsqrt(np.diag([1.0, 1e-14]))

    def test_symmetric_root_validates_its_input(self):
        np.testing.assert_allclose(symmetric_root(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)
        with pytest.raises(ContractError):
            symmetric_root(np.ones((2, 3)))
        with pytest.raises(SingularCovariance):
            symmetric_root(np.diag([1.0, 1e-14]))


# id -> operator; "identity" names the ones built without the ar1 constructor
_OPERATORS = {
    "ar1-0": Covariance.ar1(0.0, 9, scale=2.5),
    "ar1-0.5": Covariance.ar1(0.5, 9, scale=0.3),
    "ar1--0.3": Covariance.ar1(-0.3, 9, scale=1.7),
    "identity-0": Covariance(9, scale=0.4),
    "ar1-0.9": Covariance.ar1(0.9, 9, scale=0.6),
}


class TestCovarianceOperator:
    @pytest.mark.parametrize("cov", _OPERATORS.values(), ids=_OPERATORS.keys())
    def test_matches_dense_formulas(self, cov):
        sigma = make_covariance(cov)
        # quad(I) = C C' for the operator's factor C
        np.testing.assert_allclose(cov.quad(np.eye(cov.dim)), sigma, rtol=0, atol=1e-12 * np.max(sigma))
        W = np.random.default_rng(1).standard_normal((cov.dim, 3))
        expected = W.T @ sigma @ W
        np.testing.assert_allclose(cov.quad(W), expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
        v = W[:, 0]
        assert cov.quad(v) == pytest.approx(v @ sigma @ v, rel=1e-12)
        assert cov.inv_quad(v) == pytest.approx(v @ np.linalg.solve(sigma, v), rel=1e-12)

    @pytest.mark.parametrize(
        "cov", [_OPERATORS[k] for k in ("ar1-0.5", "ar1--0.3", "identity-0")], ids=["ar1", "ar1", "identity"]
    )
    def test_exact_projections_match_materialized_design_in_law(self, cov):
        W = np.random.default_rng(2).standard_normal((cov.dim, 2))
        target = cov.quad(W)
        n = 2 * 10**5
        exact = sample_projections(
            rngmod.substream(5, "exact"), n, "gaussian", cov.projection_factor("gaussian", W)
        )
        materialized = cov.sample(rngmod.substream(5, "design"), n, "gaussian") @ W
        for draws in (exact, materialized):
            prods = draws[:, :, None] * draws[:, None, :]
            se = prods.std(axis=0, ddof=1) / np.sqrt(n)
            assert np.max(np.abs(prods.mean(axis=0) - target) / se) <= 4.0

    def test_non_gaussian_design_uses_symmetric_root_bitwise(self):
        cov = Covariance.ar1(0.5, 30)
        for entry in ("rademacher", "uniform"):
            z = rngmod.sample_entries(rngmod.substream(8, "design"), (40, 30), entry)
            np.testing.assert_array_equal(sample_design(40, cov, entry, seed=8), z @ cov.root)

    def test_non_gaussian_projections_are_the_design_stream(self):
        cov = Covariance.ar1(0.5, 30)
        W = np.random.default_rng(4).standard_normal((30, 2))
        pairs = sample_projections(rngmod.substream(9, "p"), 50, "uniform", cov.projection_factor("uniform", W))
        X = cov.sample(rngmod.substream(9, "p"), 50, "uniform")
        np.testing.assert_allclose(pairs, X @ W, rtol=1e-12, atol=1e-12)

    def test_collinear_directions_still_sample(self):
        cov = Covariance.ar1(0.5, 12)
        w = np.random.default_rng(6).standard_normal(12)
        factor = cov.projection_factor("gaussian", np.column_stack([w, 2.0 * w]))
        pairs = sample_projections(rngmod.substream(1, "c"), 1000, "gaussian", factor)
        assert np.all(np.isfinite(pairs))
        np.testing.assert_allclose(pairs[:, 1], 2.0 * pairs[:, 0], atol=1e-6)

    @pytest.mark.parametrize("rho", [1.0 - 1e-7, -(1.0 - 1e-7)])
    def test_ar1_near_unit_correlation_is_singular(self, rho):
        with pytest.raises(SingularCovariance):
            Covariance.ar1(rho, 50)

    def test_ar1_just_inside_the_floor_is_finite(self):
        cov = Covariance.ar1(1.0 - 1e-5, 50)
        v = np.random.default_rng(7).standard_normal(50)
        assert np.isfinite(cov.quad(v)) and np.isfinite(cov.inv_quad(v)) and cov.inv_quad(v) > 0

    def test_dimension_mismatch_rejected(self):
        cov = Covariance(4)
        with pytest.raises(ContractError):
            cov.quad(np.ones(5))
        with pytest.raises(ContractError):
            cov.inv_quad(np.ones(3))

    @pytest.mark.parametrize(
        "cov", [Covariance.ar1(0.5, 4), Covariance(4, scale=0.25)], ids=["ar1", "identity"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, cov, bad):
        # quad of a NaN vector returned nan and inv_quad of an infinite one inf
        v = np.array([1.0, bad, 0.5, -1.0])
        W = np.column_stack([np.ones(4), v])
        for call in (lambda: cov.quad(v), lambda: cov.quad(W), lambda: cov.inv_quad(v),
                     lambda: cov.projection_factor("gaussian", W)):
            with pytest.raises(ContractError, match="finite"):
                call()


class TestStructuredRoot:
    @pytest.mark.parametrize("scale", ["1", "1/d"])
    @pytest.mark.parametrize("d", [1, 2, 3, 64])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.9])
    def test_matches_dense_oracle(self, rho, d, scale):
        cov = Covariance(d, 1.0 if scale == "1" else 1.0 / d, rho=rho)
        root = cov.root
        oracle = symmetric_root(make_covariance(cov))
        assert np.max(np.abs(root - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        np.testing.assert_array_equal(root, root.T)

    def test_identity_kind_is_ar1_at_zero_correlation(self):
        # Covariance(dim) is the identity: the ar1 operator at rho = 0, root bytes included
        identity = Covariance(6, scale=0.25)
        assert identity.rho == 0.0
        np.testing.assert_array_equal(identity.root, Covariance.ar1(0.0, 6, scale=0.25).root)
        np.testing.assert_allclose(identity.root, 0.5 * np.eye(6), rtol=1e-15, atol=0)


class TestSampleDesign:
    def test_gaussian_moments(self):
        X = sample_design(10**5, Covariance(2), "gaussian", seed=4)
        emp = X.T @ X / X.shape[0]
        assert np.max(np.abs(emp - np.eye(2))) <= 0.02

    def test_rademacher_exact_preimage(self):
        cov = Covariance.ar1(0.4, 6)
        sigma = make_covariance(cov)
        X = sample_design(50, cov, "rademacher", seed=1)
        z = np.linalg.solve(symmetric_root(sigma), X.T).T
        np.testing.assert_allclose(np.abs(z), 1.0, atol=1e-9)

    def test_seed_determinism(self):
        cov = Covariance.ar1(0.5, 8)
        a = sample_design(10, cov, "gaussian", seed=3)
        b = sample_design(10, cov, "gaussian", seed=3)
        c = sample_design(10, cov, "gaussian", seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSignHoldout:
    @pytest.mark.parametrize("entry", ["gaussian", "rademacher", "uniform"])
    @pytest.mark.parametrize("n, d", [(31, 7), (300, 40), (40, 90)])
    def test_pipeline_fits_on_a_fresh_design(self, n, d, entry, monkeypatch):
        # the fit sees an (n - n_ho)-row draw of its own; the sign holdout is n_ho fresh pairs
        seen = {}
        real_fit, real_sign = experiments.fit, experiments.sign_estimate

        def spy_fit(dataset, *args):
            seen["train"] = dataset.X, dataset.y
            return real_fit(dataset, *args)

        def spy_sign(logits, labels):
            seen["holdout"] = logits, labels
            return real_sign(logits, labels)

        monkeypatch.setattr(experiments, "fit", spy_fit)
        monkeypatch.setattr(experiments, "sign_estimate", spy_sign)
        cfg = ExperimentConfig(n=n, d=d, seed=8, entry=entry, sign_holdout_frac=0.1)
        res = run_pipeline(cfg)
        n_ho = math.ceil(0.1 * n)
        assert (res.n_train, res.n_sign_holdout) == (n - n_ho, n_ho)
        cov = cfg.covariance()
        X = sample_design(n - n_ho, cov, entry, seed=8)
        y = generate_labels(X, sample_true_weight(cov, 8), cfg.link, seed=8)
        u, _, labels = experiments.labelled_pairs(cfg, res.cov, res.model.w_hat, res.w_star, n_ho, "sign-holdout")
        for got, want in zip(seen["train"] + seen["holdout"], (X, y, u, labels)):
            np.testing.assert_array_equal(got, want)
        assert res.sign == sign_estimate(u, labels)


class TestTrueWeight:
    def test_unit_sigma_norm(self):
        cov = Covariance.ar1(0.5, 30)
        sigma = make_covariance(cov)
        for seed in range(5):
            w = sample_true_weight(cov, seed)
            assert abs(np.sqrt(w @ sigma @ w) - 1.0) <= 1e-12

    def test_one_dimensional_sign(self):
        cov = Covariance(1)
        assert sample_true_weight(cov, 0)[0] in (-1.0, 1.0)

    def test_distinct_seeds_distinct_vectors(self):
        cov = Covariance(5)
        assert not np.array_equal(sample_true_weight(cov, 1), sample_true_weight(cov, 2))


class TestGenerateLabels:
    def test_degenerate_links(self):
        X = np.random.default_rng(0).standard_normal((40, 3))
        w = np.ones(3)
        ones = generate_labels(X, w, LinkFunction("crelu", 0.0, 1.0), seed=1)
        zeros = generate_labels(X, w, LinkFunction("crelu", 0.0, 0.0), seed=1)
        assert np.all(ones == 1.0) and np.all(zeros == 0.0)

    def test_mean_matches_quadrature_oracle(self):
        # labels on a unit-norm index: mean(y) ~ E sigmoid(3Z + 1)
        link = LinkFunction("sigmoid", 3.0, 1.0)
        cov = Covariance(10, scale=0.1)
        w = sample_true_weight(cov, 3)
        X = sample_design(10**5, cov, "gaussian", seed=3)
        y = generate_labels(X, w, link, seed=3)
        oracle, _ = quad(lambda z: link(z) * norm.pdf(z), -12, 12)
        assert abs(y.mean() - oracle) <= 0.01

    def test_per_row_frequency(self):
        link = LinkFunction("sigmoid", 3.0, 1.0)
        X = np.random.default_rng(2).standard_normal((5, 4)) * 0.3
        w = np.array([0.7, -0.2, 0.4, 0.1])
        probs = link(X @ w)
        reps = 10**4
        counts = np.zeros(5)
        for seed in range(reps):
            counts += generate_labels(X, w, link, seed=seed)
        freq = counts / reps
        bound = 5.0 * np.sqrt(probs * (1.0 - probs) / reps)
        assert np.all(np.abs(freq - probs) <= np.maximum(bound, 1e-12))

    def test_dim_mismatch(self):
        with pytest.raises(ContractError):
            generate_labels(np.ones((3, 2)), np.ones(3), LinkFunction("sigmoid", 1, 0), 0)

    @pytest.mark.parametrize(
        "X, w",
        [
            (np.full((3, 2), np.nan), np.ones(2)),
            (np.ones((3, 2)), np.array([np.inf, 1.0])),
            (np.ones((3, 2)), np.array([np.inf, -np.inf])),
            (np.full((3, 2), 1e200), np.full(2, 1e200)),
        ],
        ids=["nan-design", "infinite-weight", "inf-minus-inf", "overflow"],
    )
    def test_non_finite_index_rejected(self, X, w):
        # an all-NaN design used to come back as all-zero labels
        with pytest.raises(ContractError, match="finite"):
            generate_labels(X, w, LinkFunction("sigmoid", 1, 0), 0)


class TestLoadDesignCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        np.testing.assert_array_equal(load_design_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip(self, tmp_path):
        mat = np.random.default_rng(1).standard_normal((7, 3))
        path = tmp_path / "rt.csv"
        header = ",".join(f"c{j}" for j in range(3))
        rows = "\n".join(",".join(format(v, ".17g") for v in row) for row in mat)
        path.write_text(header + "\n" + rows + "\n")
        np.testing.assert_array_equal(load_design_csv(path), mat)

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,x\n")
        with pytest.raises(IngestError) as err:
            load_design_csv(path)
        assert err.value.row == 3 and err.value.col == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(IngestError) as err:
            load_design_csv(path)
        assert err.value.row == 3

    def test_empty_and_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(IngestError):
            load_design_csv(empty)
        header_only = tmp_path / "h.csv"
        header_only.write_text("a,b\n")
        with pytest.raises(IngestError):
            load_design_csv(header_only)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\nnan\n")
        with pytest.raises(IngestError) as err:
            load_design_csv(path)
        assert err.value.row == 2 and err.value.col == 1


class TestDataset:
    def test_synthetic_weight_normalized(self):
        cov = Covariance.ar1(0.5, 20)
        ds, w = make_synthetic_dataset(30, cov, LinkFunction("sigmoid", 3, 1), seed=2)
        sigma = make_covariance(cov)
        np.testing.assert_array_equal(w, sample_true_weight(cov, seed=2))
        assert abs(np.sqrt(w @ sigma @ w) - 1.0) <= 1e-10
        assert set(np.unique(ds.y)) <= {0.0, 1.0}

    def test_invariants_enforced(self):
        with pytest.raises(ContractError):
            Dataset(X=np.array([[np.inf]]), y=np.array([1.0]))
        with pytest.raises(ContractError):
            Dataset(X=np.ones((2, 1)), y=np.array([0.0, 2.0]))
        with pytest.raises(ContractError):
            Dataset(X=np.ones((2, 1)), y=np.array([0.0]))
