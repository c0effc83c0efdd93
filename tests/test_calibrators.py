"""Angular predictor, probit identities, Platt fitting, isotonic PAV, dispatch."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit, ndtr
from scipy.stats import norm

from angcal import calibrators
from angcal import rng as rngmod
from angcal.calibrators import (
    Angular,
    Chance,
    Isotonic,
    Platt,
    Uncalibrated,
    _gauss_hermite_mean,
    _pav_nondecreasing,
    _platt_pointwise,
    angular_predict,
    calibrate,
    chance_value,
    isotonic_fit,
    platt_fit,
    probit_closed_form,
    theoretical_AB,
)
from angcal.errors import (
    ContractError,
    DegenerateHoldout,
    DegenerateModel,
    FitError,
)
from angcal.experiments import ExperimentConfig, labelled_pairs, run_pipeline
from angcal.links import LinkFunction
from helpers import conditional_pairs

SIGMOID31 = LinkFunction("sigmoid", 3.0, 1.0)
PROBIT = LinkFunction("probit", 1.0, 0.3)
CRELU = LinkFunction("crelu", 3.0, 0.5)


def _crelu_nll(u, y, family, slope, offset):
    """The holdout NLL of a clipped-relu Platt map, each label's probability clipped to [1e-12, 1 - 1e-12]."""
    t = family.a * (slope * u + offset) + family.b
    return float(-np.sum(np.log(np.clip((2 * y - 1) * t + 1 - y, 1e-12, 1 - 1e-12))))


# each link kind, with the id of the Gaussian-expectation rule that serves it
_BY_RULE = pytest.mark.parametrize(
    "link", [SIGMOID31, PROBIT, CRELU], ids=["gauss_hermite", "closed_form", "crelu_pieces"]
)


class TestAngularPredict:
    def test_right_angle_is_chance(self):
        const = chance_value(SIGMOID31)
        for u in (-3.0, 0.0, 5.0):
            assert angular_predict(u, math.pi / 2, 0.7, SIGMOID31) == pytest.approx(const, abs=1e-12)

    def test_zero_angle_is_raw_link(self):
        u = np.linspace(-4, 4, 41)
        vals = angular_predict(u, 0.0, 0.8, SIGMOID31)
        np.testing.assert_allclose(vals, SIGMOID31(u / 0.8), atol=1e-12)
        assert angular_predict(0.0, 0.0, 1.0, SIGMOID31) == pytest.approx(expit(1.0), abs=1e-12)

    def test_probit_quadrature_matches_closed_form(self):
        # the 128-point Gauss-Hermite rule as a reference for the probit identity angular_predict uses
        grid = np.linspace(-6, 6, 200)
        for theta in (0.2, 0.9, 1.4, 2.5):
            gh = _gauss_hermite_mean(PROBIT, math.cos(theta) * grid / 0.85, math.sin(theta))
            cf = angular_predict(grid, theta, 0.85, PROBIT)
            np.testing.assert_allclose(gh, cf, atol=1e-10)

    @pytest.mark.parametrize("link", [SIGMOID31, PROBIT, CRELU])
    def test_monotone_below_right_angle(self, link):
        grid = np.linspace(-8, 8, 400)
        for theta in (0.0, 0.6, 1.2):
            vals = angular_predict(grid, theta, 0.9, link)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_monte_carlo_agrees_with_quadrature(self):
        # 50 random triples, frozen sample path; the floor keeps saturated
        # links (sample se exactly 0) from dividing by nothing
        gen = np.random.default_rng(1)
        worst = 0.0
        for trial in range(50):
            link = [SIGMOID31, PROBIT, CRELU][trial % 3]
            u = float(gen.uniform(-4, 4))
            theta = float(gen.uniform(0, math.pi))
            sn = float(gen.uniform(0.3, 2.0))
            gh = angular_predict(u, theta, sn, link)
            draws = gen.standard_normal(10**6)
            samples = link(math.cos(theta) * u / sn + math.sin(theta) * draws)
            mc = float(samples.mean())
            se = float(samples.std(ddof=1) / math.sqrt(draws.size)) + 1e-9
            worst = max(worst, abs(gh - mc) / se)
        assert worst <= 3.0

    # every rule saturates exactly, the Gauss-Hermite one because its weights sum to exactly one
    @pytest.mark.parametrize("kind", ["sigmoid", "probit", "crelu"], ids=["gauss_hermite", "closed_form", "crelu_pieces"])
    def test_huge_logits_saturate_without_warnings(self, kind):
        # a * mean + b overflows past the float range, and every rule saturates it to 0 or 1;
        # the crelu rule used to refuse it, and before that overflowed squaring its bounds at |u| ~ 1e155
        cal = Angular(0.5, 1.0, LinkFunction(kind, 10.0, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = calibrate(cal, [1.7e308, 1e200, -1e200, -1.7e308])
        np.testing.assert_array_equal(probs, [1.0, 1.0, 0.0, 0.0])

    def test_probit_extreme_slope_keeps_its_limit(self):
        # s * s overflows at a = 1e300; the expectation still tends to Phi(cot(theta) u / sigma_norm)
        theta = 0.7
        got = angular_predict(0.5, theta, 1.0, LinkFunction("probit", 1e300, 0.0))
        assert got == pytest.approx(float(ndtr(0.5 / math.tan(theta))), abs=1e-15)

    @_BY_RULE
    def test_empty_logits_give_empty_predictions(self, link):
        out = angular_predict(np.array([]), 0.5, 1.0, link)
        assert out.shape == (0,)

    def test_theta_out_of_range(self):
        with pytest.raises(ContractError):
            angular_predict(0.0, -0.5, 1.0, SIGMOID31)
        with pytest.raises(DegenerateModel):
            angular_predict(0.0, 0.5, 0.0, SIGMOID31)

    @_BY_RULE
    def test_nonfinite_logits_rejected(self, link):
        with pytest.raises(ContractError):
            angular_predict(np.array([0.1, np.nan]), 0.5, 1.0, link)


class TestProbitClosedForm:
    def test_symmetry(self):
        assert probit_closed_form(0.0, 3.7) == pytest.approx(0.5, abs=1e-15)

    def test_reference_erf_values(self):
        assert probit_closed_form(1.0, 0.0) == pytest.approx(
            0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), abs=1e-15
        )
        assert probit_closed_form(1.0, 0.0) == pytest.approx(0.8413447460685429, abs=1e-12)
        assert probit_closed_form(1.0, 1.0) == pytest.approx(
            0.5 * (1.0 + math.erf(0.5)), abs=1e-15
        )
        assert probit_closed_form(1.0, 1.0) == pytest.approx(0.7602499389065233, abs=1e-12)

    def test_negative_scale_rejected(self):
        with pytest.raises(ContractError):
            probit_closed_form(0.0, -1.0)

    @pytest.mark.parametrize(
        "mu, s", [(math.nan, 1.0), (math.inf, 1.0), ([0.0, math.nan], 1.0), (0.0, math.nan), (0.0, math.inf)],
        ids=["nan-mu", "inf-mu", "nan-in-mu", "nan-s", "inf-s"],
    )
    def test_non_finite_input_rejected(self, mu, s):
        # a NaN mean came back as a NaN probability, an infinite scale as 0.5
        with pytest.raises(ContractError, match="finite"):
            probit_closed_form(mu, s)


class TestTheoreticalAB:
    def test_aligned(self):
        assert theoretical_AB(0.0, 1.0, 2.0, 0.7) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_right_angle(self):
        a, b = 2.0, 0.7
        slope, offset = theoretical_AB(math.pi / 2, 1.3, a, b)
        assert slope == pytest.approx(0.0, abs=1e-16)
        assert offset == pytest.approx((b / a) * (1.0 / math.sqrt(1.0 + a * a) - 1.0), abs=1e-15)

    def test_zero_slope_rejected(self):
        with pytest.raises(ContractError):
            theoretical_AB(0.5, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("theta, sigma_norm", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf)])
    def test_nonfinite_angle_or_norm_rejected(self, theta, sigma_norm):
        with pytest.raises(ContractError):
            theoretical_AB(theta, sigma_norm, 2.0, 0.7)

    def test_extreme_slopes_stay_finite(self):
        # a * a overflows at theta = 0, and b / a overflows for a subnormal slope
        assert theoretical_AB(0.0, 1.0, 1e300, 0.7) == (1.0, 0.0)
        assert theoretical_AB(0.4, 1.0, 5e-324, -0.7) == (math.cos(0.4), 0.0)

    def test_platt_angular_identity_grid(self):
        # probit family: angular predictor is exactly a Platt map at (A*, B*)
        theta, sn = 1.1, 0.77
        slope, offset = theoretical_AB(theta, sn, PROBIT.a, PROBIT.b)
        grid = np.linspace(-10, 10, 1000)
        closed = angular_predict(grid, theta, sn, PROBIT)
        np.testing.assert_allclose(closed, PROBIT(slope * grid + offset), atol=1e-12)


class TestPlattFit:
    def test_probit_mills_ratio_matches_oracles(self):
        # a y = 1 point's gradient is minus the inverse Mills ratio phi(s)/Phi(s)
        def mills(s):
            return -_platt_pointwise("probit", s, np.ones_like(s))[1]

        central = np.linspace(-5.0, 5.0, 1001)
        oracle = norm.pdf(central) / ndtr(central)
        np.testing.assert_allclose(mills(central), oracle, rtol=1e-14, atol=0)
        # asymptotic series; the first omitted term is 10/s^5, a relative 1e-17 at s = -1e3
        tail = -np.logspace(3, 12, 91)
        np.testing.assert_allclose(mills(tail), -tail - 1 / tail + 2 / tail**3, rtol=1e-15, atol=0)

    def test_probit_curvature_matches_oracles(self):
        # a y = 1 point's curvature m (m + s), m = phi(s)/Phi(s), and a y = 0 point's mirror image
        def curvature(s, y):
            return _platt_pointwise("probit", s, np.full_like(s, y))[2]

        central = np.linspace(-5.0, 5.0, 1001)
        m = norm.pdf(central) / ndtr(central)
        # near s = -5 this oracle's own m + s loses about 1e-13 to cancellation
        np.testing.assert_allclose(curvature(central, 1), m * (m + central), rtol=1e-12, atol=0)
        # m + s from the Mills series, 1/x - 2/x^3 + 10/x^5 with x = -s (next term 74/x^7)
        x = np.logspace(3, 9, 61)
        r = 1 / x - 2 / x**3 + 10 / x**5
        np.testing.assert_allclose(curvature(-x, 1), (x + r) * r, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(curvature(x, 0), curvature(-x, 1))
        # (0, 1) holds exactly wherever 1 - c and c are representable; at the far ends c
        # rounds to 1 (1 - c ~ 1/s^2) or underflows to 0 (c ~ s phi(s)), never beyond
        wide = np.concatenate([-np.logspace(9, -3, 241), [0.0], np.logspace(-3, 9, 241)])
        for y, inner in ((1, (wide >= -1e7) & (wide <= 30)), (0, (wide <= 1e7) & (wide >= -30))):
            c = curvature(wide, y)
            assert np.all((c >= 0) & (c <= 1))
            assert np.all((c[inner] > 0) & (c[inner] < 1))

    def test_null_logits_grid_oracle(self):
        # labels carry no signal: slope ~ 0, offset matches the label mean
        n = 400
        logits = np.concatenate([np.linspace(-2, 2, n // 2), -np.linspace(-2, 2, n // 2)])
        labels = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
        family = LinkFunction("sigmoid", 1.0, 0.0)
        slope, offset = platt_fit(logits, labels, family)

        a_grid = np.arange(-0.05, 0.05, 1e-3)
        b_grid = np.arange(-0.3, 0.3, 1e-3)
        nll = np.empty((a_grid.size, b_grid.size))
        for i, a in enumerate(a_grid):
            t = a * logits[:, None] + b_grid[None, :]
            p = expit(t)
            nll[i] = -(labels[:, None] * np.log(p) + (1 - labels[:, None]) * np.log1p(-p)).sum(axis=0)
        besti, bestj = np.unravel_index(np.argmin(nll), nll.shape)
        assert abs(slope - a_grid[besti]) <= 2e-3
        assert abs(offset - b_grid[bestj]) <= 2e-3

    def test_calibrated_logits_recover_identity(self):
        # labels drawn from family(u) itself: optimum near (1, 0)
        gen = rngmod.substream(4, "platt-ident")
        u = gen.standard_normal(4000) * 1.5
        family = LinkFunction("sigmoid", 1.0, 0.0)
        y = (gen.random(4000) < family(u)).astype(float)
        slope, offset = platt_fit(u, y, family)

        a_grid = np.arange(0.9, 1.1, 1e-3)
        b_grid = np.arange(-0.1, 0.1, 1e-3)
        best = (None, np.inf)
        for a in a_grid:
            t = a * u[:, None] + b_grid[None, :]
            p = np.clip(expit(t), 1e-12, 1 - 1e-12)
            nll = -(y[:, None] * np.log(p) + (1 - y[:, None]) * np.log(1 - p)).sum(axis=0)
            j = int(np.argmin(nll))
            if nll[j] < best[1]:
                best = ((a, b_grid[j]), nll[j])
        (a_star, b_star), _ = best
        assert abs(slope - a_star) <= 2e-3 and abs(offset - b_star) <= 2e-3
        assert abs(slope - 1.0) <= 0.1 and abs(offset) <= 0.1

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateHoldout):
            platt_fit(np.linspace(-1, 1, 10), np.ones(10), SIGMOID31)

    def test_nonfinite_logits(self):
        with pytest.raises(ContractError):
            platt_fit(np.array([np.inf, 0.0]), np.array([1.0, 0.0]), SIGMOID31)

    @pytest.mark.parametrize("labels", [[0.0, 2.0, 1.0, 0.0], [0.0, np.nan, 1.0, 0.0]], ids=["two", "nan"])
    def test_labels_outside_zero_one_rejected(self, labels):
        with pytest.raises(ContractError):
            platt_fit(np.array([0.0, 0.5, 1.0, 2.0]), np.array(labels), LinkFunction("sigmoid", 1, 0))

    def test_overflowing_curvature_raises_instead_of_hanging(self):
        # finite but huge logits overflow the Newton Hessian to NaN
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FitError):
            platt_fit(
                np.array([1e300, -1e300, 1.0, 2.0]),
                np.array([1.0, 0.0, 1.0, 0.0]),
                LinkFunction("sigmoid", 1.0, 0.0),
            )

    def test_probit_argument_past_the_float_range_raises_without_warning(self):
        # slope 1e308 sends a * u to -inf, where the Mills ratio divided by erfcx(inf) = 0
        # with a RuntimeWarning (seen in the CLI fuzz)
        with pytest.raises(FitError, match="non-finite"):
            platt_fit(np.array([2.0, -2.0, 0.5]), np.array([1.0, 0.0, 0.0]), LinkFunction("probit", 1e308, 0.0))

    @pytest.mark.parametrize("family", [SIGMOID31, PROBIT], ids=["sigmoid", "probit"])
    def test_capped_newton_reports_a_falling_gradient_norm(self, family, monkeypatch):
        # each cap raises with the projected-gradient norm of its last iterate, not of an earlier one
        u, _, y = conditional_pairs(2000, 0.9, 0.85, family, seed=4, tag="cap")
        norms = []
        for cap in (0, 1, 2):
            monkeypatch.setattr(calibrators, "_PLATT_MAX_ITER", cap)
            with pytest.raises(FitError, match="did not converge") as failure:
                platt_fit(u, y, family)
            norms.append(float(re.search(r"norm (\S+) >", str(failure.value)).group(1)))
        assert norms[0] > norms[1] > norms[2]
        monkeypatch.setattr(calibrators, "_PLATT_MAX_ITER", 100)
        assert all(np.isfinite(platt_fit(u, y, family)))

    def test_probit_convergence_invariant(self):
        # holdout-size sweep: median parameter error decreasing, small at 1e5
        theta, sn = 0.9, 0.85
        slope_star, offset_star = theoretical_AB(theta, sn, PROBIT.a, PROBIT.b)
        sizes = (100, 1000, 10000, 100000)
        medians = []
        for size in sizes:
            errs = []
            for trial in range(10):
                u, _, y = conditional_pairs(size, theta, sn, PROBIT, seed=50 + trial, tag=f"conv{size}")
                slope, offset = platt_fit(u, y, PROBIT)
                errs.append(abs(slope - slope_star) + abs(offset - offset_star))
            medians.append(float(np.median(errs)))
        assert all(m2 <= m1 for m1, m2 in zip(medians, medians[1:]))
        assert medians[-1] <= 0.02

    def test_sup_norm_convergence(self):
        theta, sn = 0.9, 0.85
        u, _, y = conditional_pairs(10**5, theta, sn, PROBIT, seed=3, tag="sup")
        slope, offset = platt_fit(u, y, PROBIT)
        grid = np.linspace(-4 * sn, 4 * sn, 1000)
        angular = angular_predict(grid, theta, sn, PROBIT)
        platt = PROBIT(slope * grid + offset)
        assert float(np.max(np.abs(platt - angular))) <= 0.01

    def test_crelu_family_fits(self):
        u, _, y = conditional_pairs(3000, 0.7, 0.9, CRELU, seed=6, tag="crelu")
        slope, offset = platt_fit(u, y, CRELU)
        assert np.isfinite(slope) and np.isfinite(offset)
        assert abs(slope) <= 50 and abs(offset) <= 50

    def test_crelu_fit_leaves_the_local_minimum_near_its_first_start(self):
        # a search from (1, 0) alone, Nelder-Mead restarts with probes down to 1e-8, stops at 8852.04 nats here;
        # the decile-cell starts reach 8849.45
        cfg = ExperimentConfig(n=200, d=100, seed=1, link=CRELU)
        res = run_pipeline(cfg)
        u, _, y = labelled_pairs(cfg, res.cov, res.model.w_hat, res.w_star, 20000, "platt")
        assert _crelu_nll(u, y, CRELU, *platt_fit(u, y, CRELU)) <= 8851.0

    def test_constant_crelu_family_keeps_the_first_start(self):
        u, _, y = conditional_pairs(500, 0.7, 0.9, CRELU, seed=6, tag="crelu-flat")
        assert platt_fit(u, y, LinkFunction("crelu", 0.0, 0.5)) == (1.0, 0.0)

    def test_crelu_fit_skips_a_failed_sigmoid_start(self):
        # the sigmoid-family Newton fit, one of the starts, raises FitError on these logits (see above)
        u, y = np.array([1e300, -1e300, 1.0, 2.0]), np.array([1.0, 0.0, 1.0, 0.0])
        with pytest.raises(FitError):
            platt_fit(u, y, LinkFunction("sigmoid", 1.0, 0.0))
        slope, offset = platt_fit(u, y, CRELU)
        assert abs(slope) <= 50 and abs(offset) <= 50

    def test_crelu_search_past_its_move_budget_raises(self, monkeypatch):
        u, _, y = conditional_pairs(3000, 0.7, 0.9, CRELU, seed=6, tag="crelu")
        monkeypatch.setattr(calibrators, "_COMPASS_MAX_MOVES", 1)
        with pytest.raises(FitError, match="compass search still moving after 1 moves"):
            platt_fit(u, y, CRELU)

    def test_zero_angle_recovers_inverse_norm(self):
        # perfectly aligned weights: the angular map is link(u / sigma_norm),
        # so a large Platt fit lands near slope 1/sigma_norm, offset 0
        sn = 0.8
        u, _, y = conditional_pairs(20000, 0.0, sn, SIGMOID31, seed=13, tag="zero-angle")
        slope, offset = platt_fit(u, y, SIGMOID31)
        assert abs(slope - 1.0 / sn) <= 0.05
        assert abs(offset) <= 0.05


class TestChanceValue:
    def test_probit_identity(self):
        expected = float(ndtr(PROBIT.b / math.sqrt(1.0 + PROBIT.a**2)))
        assert chance_value(PROBIT) == pytest.approx(expected, abs=1e-15)

    def test_degenerate_sigmoid(self):
        link = LinkFunction("sigmoid", 0.0, 0.4)
        assert chance_value(link) == pytest.approx(expit(0.4), abs=1e-12)

    def test_sigmoid_matches_quad_oracle(self):
        oracle, _ = quad(lambda z: SIGMOID31(z) * norm.pdf(z), -12, 12)
        assert chance_value(SIGMOID31) == pytest.approx(oracle, abs=1e-8)


def _brute_force_isotonic(values, weights):
    """Optimal monotone fit by enumerating consecutive-block partitions."""
    n = len(values)
    best = (np.inf, None)
    for mask in range(1 << (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        means, sse = [], 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            w = sum(weights[lo:hi])
            m = sum(v * wt for v, wt in zip(values[lo:hi], weights[lo:hi])) / w
            means.append(m)
            sse += sum(wt * (v - m) ** 2 for v, wt in zip(values[lo:hi], weights[lo:hi]))
        if all(m2 >= m1 for m1, m2 in zip(means, means[1:])) and sse < best[0]:
            fitted = np.repeat(means, [hi - lo for lo, hi in zip(bounds, bounds[1:])])
            best = (sse, fitted)
    return best[1]


class TestIsotonic:
    def test_monotone_labels_reproduced(self):
        logits = np.array([-2.0, -1.0, 0.5, 2.0])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        cal = isotonic_fit(logits, labels)
        np.testing.assert_allclose(calibrate(cal, logits), labels, atol=1e-15)

    def test_single_violation_pools_to_mean(self):
        cal = isotonic_fit(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(calibrate(cal, np.array([1.0, 2.0])), [0.5, 0.5], atol=1e-15)
        assert cal.params()["n_blocks"] == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 8))
        logits = np.sort(gen.standard_normal(n))
        labels = gen.integers(0, 2, n).astype(float)
        cal = isotonic_fit(logits, labels)
        oracle = _brute_force_isotonic(list(labels), [1.0] * n)
        np.testing.assert_allclose(calibrate(cal, logits), oracle, atol=1e-12)
        levels = 1 + int(np.sum(np.diff(oracle) > 1e-12))
        assert cal.params()["n_blocks"] == levels

    def test_tied_logits_pooled(self):
        logits = np.array([0.0, 0.0, 1.0])
        labels = np.array([0.0, 1.0, 1.0])
        cal = isotonic_fit(logits, labels)
        assert cal.breakpoints.size == 2
        np.testing.assert_allclose(cal.values, [0.5, 1.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_levels_predict_like_the_full_step_map(self, seed):
        # rounded logits give ties; the full map keeps one step per unique logit
        gen = np.random.default_rng(seed)
        logits = np.round(3.0 * gen.standard_normal(20_000), 3)
        labels = (gen.uniform(size=logits.size) < expit(logits)).astype(float)
        cal = isotonic_fit(logits, labels)
        unique, inverse, counts = np.unique(logits, return_inverse=True, return_counts=True)
        fitted = _pav_nondecreasing(np.bincount(inverse, weights=labels) / counts, counts.astype(float))
        probes = np.concatenate([logits, unique, cal.breakpoints, [-1e9, 1e9]])
        full = fitted[np.clip(np.searchsorted(unique, probes, side="right") - 1, 0, None)]
        np.testing.assert_array_equal(calibrate(cal, probes), full)
        assert cal.params()["n_blocks"] == np.unique(fitted).size
        assert cal.breakpoints.size < 100  # levels, not the ~9,600 unique logits

    def test_step_semantics(self):
        cal = Isotonic(np.array([0.0]), np.array([0.3]))
        assert calibrate(cal, -5.0) == 0.3
        assert calibrate(cal, 5.0) == 0.3
        two = Isotonic(np.array([0.0, 1.0]), np.array([0.2, 0.9]))
        assert calibrate(two, -1.0) == 0.2   # left-constant extension
        assert calibrate(two, 0.0) == 0.2    # left-closed block
        assert calibrate(two, 0.999) == 0.2
        assert calibrate(two, 1.0) == 0.9
        assert calibrate(two, 7.0) == 0.9

    def test_step_maps_equal_only_themselves(self):
        one = Isotonic(np.array([0.0]), np.array([0.3]))
        other = Isotonic(np.array([5.0]), np.array([0.9]))
        assert one == one and one != other
        assert len({one, other}) == 2

    @pytest.mark.parametrize(
        "logits, labels",
        [
            ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
            ([0.0, np.nan, 1.0, 2.0], [1.0, 0.0, 0.0, 1.0]),
            ([0.0, 1.0], [0.0, 0.5]),
        ],
        ids=["nan-label", "nan-logit", "half-label"],
    )
    def test_nonfinite_logits_and_non_binary_labels_rejected(self, logits, labels):
        # before, a NaN label fitted a map that predicts NaN and a NaN logit pooled into one level
        with pytest.raises(ContractError):
            isotonic_fit(np.array(logits), np.array(labels))

    def test_values_validated(self):
        with pytest.raises(ContractError):
            Isotonic(np.array([0.0, 1.0]), np.array([0.9, 0.2]))
        with pytest.raises(ContractError):
            Isotonic(np.array([1.0, 0.0]), np.array([0.2, 0.9]))

    @pytest.mark.parametrize(
        "breakpoints, values",
        [([0.0, 1.0], [np.nan, 0.5]), ([np.nan, 1.0], [0.2, 0.5]), ([0.0, np.inf], [0.2, 0.5])],
        ids=["nan-value", "nan-breakpoint", "inf-breakpoint"],
    )
    def test_non_finite_breakpoints_and_values_rejected(self, breakpoints, values):
        # every NaN comparison is False, so these were accepted: calibrate returned [nan, 0.5]
        # for the NaN value, and params() echoed the NaN breakpoint
        with pytest.raises(ContractError, match="finite"):
            Isotonic(np.array(breakpoints), np.array(values))


class TestCalibrateDispatch:
    def test_uncalibrated(self):
        cal = Uncalibrated(SIGMOID31)
        u = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(calibrate(cal, u), SIGMOID31(u), atol=0)

    def test_platt_zero_parameters_constant(self):
        cal = Platt(0.0, 0.0, PROBIT)
        for u in (-9.0, 0.0, 9.0):
            assert calibrate(cal, u) == pytest.approx(float(ndtr(PROBIT.b)), abs=1e-15)

    def test_platt_keeps_slope_and_offset_as_floats(self):
        # numpy scalars were stored as given, and Platt(True, ...) wrote "slope": true
        cal = Platt(np.float32(0.5), np.int64(-1), SIGMOID31)
        assert type(cal.slope) is float and type(cal.offset) is float
        assert cal.params()["offset"] == -1.0

    def test_chance_constant(self):
        cal = Chance(SIGMOID31)
        assert cal.value == chance_value(SIGMOID31)
        np.testing.assert_allclose(calibrate(cal, np.array([-5.0, 5.0])), cal.value, atol=0)

    def test_angular_bounds_check(self):
        with pytest.raises(ContractError):
            Angular(4.0, 1.0, SIGMOID31)
        with pytest.raises(DegenerateModel):
            Angular(0.5, 0.0, SIGMOID31)
        with pytest.raises(ContractError):
            Angular(0.5, np.nan, SIGMOID31)
        with pytest.raises(ContractError):
            Platt(np.nan, 0.0, SIGMOID31)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_logits_rejected(self, bad):
        for cal in (Platt(0.4, -0.1, SIGMOID31), Isotonic(np.array([0.0]), np.array([0.5]))):
            with pytest.raises(ContractError):
                calibrate(cal, [0.0, bad])

    @pytest.mark.parametrize(
        "cal",
        [
            Uncalibrated(SIGMOID31),
            Angular(0.8, 0.9, SIGMOID31),
            Platt(0.4, -0.1, SIGMOID31),
            Isotonic(np.array([0.0, 1.0]), np.array([0.2, 0.8])),
            Chance(SIGMOID31),
        ],
    )
    def test_all_kinds_map_to_probabilities(self, cal):
        u = np.linspace(-50, 50, 101)
        vals = calibrate(cal, u)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_params_serializable(self):
        for cal in (
            Uncalibrated(SIGMOID31),
            Angular(0.8, 0.9, SIGMOID31),
            Platt(0.4, -0.1, SIGMOID31),
            Isotonic(np.linspace(0, 1, 5), np.linspace(0.1, 0.9, 5)),
            Chance(SIGMOID31),
        ):
            params = cal.params()
            assert params["kind"] == type(cal).__name__.lower()


# The holdout NLLs of a simplex search from (1, 0) (Nelder-Mead restarts and probes down to 1e-8) on
# 36 crelu holdouts: 20,000 "platt" pairs after run_pipeline(n=600, d=800) at seeds 1-12 per link.
_SIMPLEX_BATTERY_NLL = {
    "crelu:3:0.5": (
        10607.64260274452, 11344.774064997464, 10617.699799391048, 11240.47025053664,
        11100.17284925557, 10618.109070904153, 11097.525812844448, 11275.671049065444,
        10956.336789517998, 10832.601892057897, 10316.887290092636, 11101.146869975255,
    ),
    "crelu:5:0.5": (
        10662.504514270011, 11312.605394994638, 10534.032823755371, 11266.16656787209,
        11100.760777468884, 10620.082530355714, 11067.682763834982, 11221.47153600054,
        10891.582691046711, 10948.661929717127, 10282.530371548351, 11069.718040347723,
    ),
    "crelu:2:0.3": (
        10881.68144882454, 11292.268353459804, 10585.543647538201, 11301.047565354893,
        11199.723917362822, 10725.595514761688, 11149.913182779048, 11354.640662001319,
        11178.603960295242, 10908.898789294257, 10551.386034177503, 11037.041775685651,
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("text", list(_SIMPLEX_BATTERY_NLL))
def test_crelu_fit_is_no_worse_than_the_simplex_search(text):
    link = LinkFunction.parse(text)
    for seed, old in enumerate(_SIMPLEX_BATTERY_NLL[text], start=1):
        cfg = ExperimentConfig(n=600, d=800, seed=seed, link=link)
        res = run_pipeline(cfg)
        u, _, y = labelled_pairs(cfg, res.cov, res.model.w_hat, res.w_star, 20000, "platt")
        assert _crelu_nll(u, y, link, *platt_fit(u, y, link)) <= old * (1 + 1e-12), seed
