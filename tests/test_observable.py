"""Alignment estimation: trace intermediates, magnitude, sign and angle."""

import math

import numpy as np
import pytest

from angcal.errors import ContractError, DegenerateModel
from angcal.links import LinkFunction
from angcal.mestimator import FittedModel, _FeatureSystem, _GramSystem, fit, logistic_loss_derivatives
from angcal.observable import (
    angle_estimate,
    compute_intermediates,
    inner_product_sq,
    sign_estimate,
)
from angcal.synth import (
    Covariance,
    Dataset,
    make_synthetic_dataset,
    matrix_sqrt_and_invsqrt,
)
from helpers import eigh_traces, forced_route, make_covariance


def _manual_model(w, lam):
    return FittedModel(
        w_hat=np.asarray(w, dtype=float),
        sigma_norm=1.0,
        lam=lam,
        converged=True,
        grad_norm=0.0,
        n_iter=0,
        objective=0.0,
    )


def _random_instance(n, d, seed, lam=0.7):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n).astype(float)
    w = 0.5 * rng.standard_normal(d)
    ds = Dataset(X=X, y=y)
    return ds, _manual_model(w, lam)


def _dense_oracle(ds, model):
    """All estimator pieces from an explicit dense inverse."""
    X, y = ds.X, ds.y
    n, d = X.shape
    u = X @ model.w_hat
    _, first, second = logistic_loss_derivatives(y, u)
    psi, D = -first, second
    hess_inv = np.linalg.inv(X.T @ np.diag(D) @ X + n * model.lam / d * np.eye(d))
    K = X @ hess_inv @ X.T
    dof = float(np.trace(np.diag(D) @ K))
    v_hat = float((np.trace(np.diag(D)) - np.trace(np.diag(D) @ K @ np.diag(D))) / n)
    gamma = dof / (n * v_hat) if v_hat > 0 else 0.0
    r_sq = float(psi @ psi / n)
    return {
        "psi": psi,
        "curvature": D,
        "dof": dof,
        "v_hat": v_hat,
        "gamma": gamma,
        "r_sq": r_sq,
        "logits": u,
    }


class TestComputeIntermediates:
    def test_non_finite_weight_rejected(self):
        # a NaN in w_hat gave dof nan, and inner_product_sq then (nan, False)
        ds, model = _random_instance(8, 3, seed=1)
        w = model.w_hat.copy()
        w[1] = np.nan
        with pytest.raises(ContractError, match="finite"):
            compute_intermediates(ds, _manual_model(w, 0.7))

    def test_scalar_instance(self):
        # n=d=1, X=[1]: with w=0 the logistic curvature is exactly 1/4,
        # so H = 1/(1/4 + lam), dof = (1/4)/(1/4 + lam), v = (lam/4)/(1/4 + lam)
        lam = 0.7
        ds = Dataset(X=np.array([[1.0]]), y=np.array([1.0]))
        inter = compute_intermediates(ds, _manual_model([0.0], lam))
        c = 0.25
        assert inter.dof == pytest.approx(c / (c + lam), rel=1e-14)
        assert inter.effective_curvature == pytest.approx(c * lam / (c + lam), rel=1e-14)
        assert inter.score[0] == pytest.approx(0.5, abs=1e-15)
        assert inter.score_sq_mean == pytest.approx(0.25, abs=1e-15)

    def test_zero_curvature_convention(self):
        # with no curvature anywhere the smoother vanishes: dof = 0, v = 0,
        # and the logit adjustment is defined as 0, exactly, on both routes;
        # logits of +-800 saturate the sigmoid, so every curvature is 0
        X = np.random.default_rng(0).standard_normal((4, 2))
        X[:, 0] = [800.0, -800.0, 900.0, -1000.0]
        ds = Dataset(X=X, y=np.array([1.0, 0.0, 0.0, 1.0]))
        for route in (_FeatureSystem, _GramSystem):
            with forced_route(route):
                inter = compute_intermediates(ds, _manual_model([1.0, 0.0], 1e-17))
            assert np.all(inter.curvature == 0.0)
            assert (inter.dof, inter.effective_curvature, inter.logit_adjustment) == (0.0, 0.0, 0.0), route.__name__

    def test_wide_fit_at_tiny_ridge_matches_eigh_oracle(self):
        # d > n at lam = 1e-12: the n-side traces must not divide by the ridge
        cov = Covariance.ar1(0.5, 200)
        ds, _ = make_synthetic_dataset(100, cov, LinkFunction("sigmoid", 3, 1), seed=3)
        model = fit(ds, 1e-12, cov)
        assert model.converged
        inter = compute_intermediates(ds, model)
        dof, remainder = eigh_traces(ds.X, inter.curvature, 100 * 1e-12 / 200)
        assert inter.dof == pytest.approx(dof, rel=1e-12)
        assert inter.effective_curvature == pytest.approx(remainder / 100, rel=1e-12)

    @pytest.mark.parametrize("method", ["dense", "woodbury"])
    @pytest.mark.parametrize("shape", [(8, 3), (3, 8), (12, 12)])
    def test_matches_dense_oracle(self, method, shape):
        ds, model = _random_instance(*shape, seed=shape[0] * 31 + shape[1])
        with forced_route({"dense": _FeatureSystem, "woodbury": _GramSystem}[method]):
            inter = compute_intermediates(ds, model)
        oracle = _dense_oracle(ds, model)
        assert inter.dof == pytest.approx(oracle["dof"], abs=1e-10)
        assert inter.effective_curvature == pytest.approx(oracle["v_hat"], abs=1e-10)
        assert inter.logit_adjustment == pytest.approx(oracle["gamma"], abs=1e-10)
        assert inter.score_sq_mean == pytest.approx(oracle["r_sq"], abs=1e-12)
        np.testing.assert_allclose(inter.score, oracle["psi"], atol=1e-12)


class TestInnerProductSq:
    def test_matches_naive_formula(self):
        ds, model = _random_instance(8, 3, seed=11)
        inter = compute_intermediates(ds, model)
        oracle = _dense_oracle(ds, model)
        n, d = ds.X.shape
        resid = oracle["logits"] - oracle["gamma"] * oracle["psi"]
        num = (
            oracle["v_hat"] / n * float(resid @ resid)
            + float(oracle["psi"] @ oracle["logits"]) / n
            - oracle["gamma"] * oracle["r_sq"]
        ) ** 2
        den = (
            float(np.linalg.norm(np.eye(d) @ ds.X.T @ oracle["psi"]) ** 2) / n**2
            + 2 * oracle["v_hat"] / n * float(oracle["psi"] @ oracle["logits"])
            + oracle["v_hat"] ** 2 / n * float(resid @ resid)
            - d / n * oracle["r_sq"]
        )
        value, flag = inner_product_sq(inter, ds, model, Covariance(d))
        if den > 1e-12:
            assert not flag
            assert value == pytest.approx(num / den, abs=1e-10)
        else:
            assert flag
            assert value == pytest.approx(model.sigma_norm**2, abs=1e-12)

    def test_row_permutation_invariance(self):
        cov = Covariance.ar1(0.5, 24)
        ds, _ = make_synthetic_dataset(60, cov, LinkFunction("sigmoid", 3, 1), seed=3)
        model = fit(ds, 0.5, cov)
        inter = compute_intermediates(ds, model)
        value, _ = inner_product_sq(inter, ds, model, cov)

        perm = np.random.default_rng(0).permutation(60)
        ds_perm = Dataset(X=ds.X[perm], y=ds.y[perm])
        inter_perm = compute_intermediates(ds_perm, model)
        value_perm, _ = inner_product_sq(inter_perm, ds_perm, model, cov)
        assert inter_perm.dof == pytest.approx(inter.dof, abs=1e-10)
        assert inter_perm.effective_curvature == pytest.approx(inter.effective_curvature, abs=1e-12)
        assert value_perm == pytest.approx(value, abs=1e-10)

    def test_degenerate_denominator_flag(self):
        # tiny non-proportional instances routinely produce non-positive
        # denominators; the estimate falls back to the squared Sigma-norm
        ds, model = _random_instance(8, 3, seed=3)
        inter = compute_intermediates(ds, model)
        value, flag = inner_product_sq(inter, ds, model, Covariance(3))
        if flag:
            assert value == pytest.approx(model.sigma_norm**2, abs=1e-12)

    def test_zero_score_vector_gives_zero(self):
        # synthetic input: a zero score with a zero fitted weight collapses
        # every term, and the degenerate-denominator fallback returns the
        # (zero) squared Sigma-norm
        from angcal.observable import ObservableIntermediates

        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 3))
        ds = Dataset(X=X, y=np.zeros(6))
        model = FittedModel(
            w_hat=np.zeros(3), sigma_norm=0.0, lam=0.5,
            converged=True, grad_norm=0.0, n_iter=0, objective=0.0,
        )
        inter = ObservableIntermediates(
            score=np.zeros(6), curvature=np.full(6, 0.25), fitted_logits=np.zeros(6),
            dof=1.0, effective_curvature=0.1, logit_adjustment=1.0,
            score_sq_mean=0.0, n=6, d=3,
        )
        value, flag = inner_product_sq(inter, ds, model, Covariance(3))
        assert value == 0.0 and flag

    def test_consistency_smoke(self):
        # error at n=400 should not exceed the error at n=200 (aspect d/n = 2)
        link = LinkFunction("sigmoid", 3.0, 1.0)
        medians = []
        for n in (200, 400):
            cov = Covariance.ar1(0.5, 2 * n)
            sigma = make_covariance(cov)
            errs = []
            for seed in range(6):
                ds, w_star = make_synthetic_dataset(n, cov, link, seed=300 + seed)
                model = fit(ds, 0.5, cov)
                inter = compute_intermediates(ds, model)
                value, _ = inner_product_sq(inter, ds, model, cov)
                true = float(w_star @ sigma @ model.w_hat)
                errs.append(abs(math.sqrt(max(value, 0.0)) - abs(true)))
            medians.append(float(np.median(errs)))
        assert medians[1] <= medians[0] + 0.03
        assert medians[1] <= 0.2

    @pytest.mark.slow
    def test_consistency_sweep(self):
        # fixed aspect d/n = 2; median error non-increasing in n and
        # compatible with a 1/sqrt(n) envelope fitted from the data
        link = LinkFunction("sigmoid", 3.0, 1.0)
        sizes = (250, 500, 1000, 2000)
        medians = []
        for n in sizes:
            cov = Covariance.ar1(0.5, 2 * n)
            sigma = make_covariance(cov)
            errs = []
            for seed in range(20):
                ds, w_star = make_synthetic_dataset(n, cov, link, seed=1000 + seed)
                model = fit(ds, 0.5, cov)
                inter = compute_intermediates(ds, model)
                value, _ = inner_product_sq(inter, ds, model, cov)
                true = float(w_star @ sigma @ model.w_hat)
                errs.append(abs(math.sqrt(max(value, 0.0)) - abs(true)))
            medians.append(float(np.median(errs)))
        assert all(medians[i + 1] <= medians[i] + 1e-3 for i in range(len(sizes) - 1))
        envelope = max(m * math.sqrt(n) for m, n in zip(medians, sizes))
        assert medians[-1] <= envelope / math.sqrt(sizes[-1]) + 1e-12


class TestSignEstimate:
    def test_positive_case(self):
        holdout_x = np.array([[1.0, 0.0], [2.0, 1.0], [0.5, -1.0]])
        holdout_y = np.ones(3)
        assert sign_estimate(holdout_x @ np.array([1.0, 0.0]), holdout_y).value == 1

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        holdout_x = rng.standard_normal((50, 4))
        holdout_y = rng.integers(0, 2, 50).astype(float)
        w = rng.standard_normal(4)
        plus = sign_estimate(holdout_x @ w, holdout_y)
        minus = sign_estimate(holdout_x @ -w, holdout_y)
        if not plus.tied:
            assert plus.value == -minus.value

    def test_zero_sum_tie_break(self):
        est = sign_estimate(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        assert est.value == 1 and est.tied

    def test_empty_holdout_rejected(self):
        with pytest.raises(ContractError):
            sign_estimate(np.array([]), np.array([]))

    @pytest.mark.parametrize(
        "logits, labels",
        [([1.0, np.nan], [1.0, 0.0]), ([1.0, -1.0], [1.0, np.nan]), ([1.0, -1.0], [1.0, -1.0])],
        ids=["nan-logit", "nan-label", "minus-one-label"],
    )
    def test_nonfinite_logit_or_non_binary_label_rejected(self, logits, labels):
        # a NaN made the correlation sum NaN, which read as the sign -1
        with pytest.raises(ContractError):
            sign_estimate(np.array(logits), np.array(labels))

    def test_error_rate_decays_with_holdout_size(self):
        # small-scale version of the exponential decay in holdout size
        link = LinkFunction("sigmoid", 3.0, 1.0)
        cov = Covariance.ar1(0.5, 300)
        sigma = make_covariance(cov)
        root, _ = matrix_sqrt_and_invsqrt(sigma)
        ds, w_star = make_synthetic_dataset(150, cov, link, seed=77)
        model = fit(ds, 0.5, cov)
        true_sign = 1 if w_star @ sigma @ model.w_hat >= 0 else -1
        proj = root @ np.column_stack([model.w_hat, w_star])
        wrong = {}
        from angcal import rng as rngmod

        for n_ho in (10, 120):
            bad = 0
            for k in range(400):
                gen = rngmod.substream(9, "trial", n_ho, k)
                z = gen.standard_normal((n_ho, 300))
                pair = z @ proj
                labels = (gen.random(n_ho) < link(pair[:, 1])).astype(float)
                if sign_estimate(pair[:, 0], labels).value != true_sign:
                    bad += 1
            wrong[n_ho] = bad / 400
        assert wrong[120] < wrong[10]


class TestAngleEstimate:
    def test_perfect_alignment(self):
        est = angle_estimate(4.0, 1, 2.0)
        assert est.theta == pytest.approx(0.0, abs=1e-12)
        assert est.cos_clipped == 1.0

    def test_orthogonality(self):
        est = angle_estimate(0.0, 1, 1.5)
        assert est.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_clip_above_one(self):
        est = angle_estimate(1.44, 1, 1.0)  # cosine would be 1.2
        assert est.cos_clipped == 1.0 and est.theta == 0.0

    def test_negative_sign_range(self):
        est = angle_estimate(0.25, -1, 1.0)
        assert est.theta == pytest.approx(math.acos(-0.5), abs=1e-12)
        assert 0.0 <= est.theta <= math.pi

    def test_monotone_in_cosine(self):
        thetas = [angle_estimate(c**2, 1, 1.0).theta for c in np.linspace(0.0, 1.0, 25)]
        assert all(b <= a + 1e-15 for a, b in zip(thetas, thetas[1:]))

    def test_degenerate_model(self):
        with pytest.raises(DegenerateModel):
            angle_estimate(0.5, 1, 0.0)
        with pytest.raises(ContractError):
            angle_estimate(0.5, 2, 1.0)

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ContractError):
            angle_estimate(np.nan, 1, 1.0)
        with pytest.raises(ContractError):
            angle_estimate(0.5, 1, np.nan)
