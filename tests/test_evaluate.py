"""Reliability tables, ECE, level-wise deltas, Bregman losses and orderings."""

import math

import numpy as np
import pytest

from angcal.calibrators import Angular, Chance, Isotonic, Uncalibrated
from angcal.errors import ContractError
from angcal.evaluate import (
    binned_conditional_mean,
    bregman_losses,
    bregman_optimality_check,
    cal_error_at_level,
    reliability,
)
from angcal.links import LinkFunction
from helpers import conditional_pairs

SIGMOID31 = LinkFunction("sigmoid", 3.0, 1.0)


class TestReliability:
    def test_perfect_hard_predictions(self):
        preds = np.array([0.0, 0.0, 1.0, 1.0])
        report = reliability(preds, preds.copy(), n_bins=5)
        assert report.ece == 0.0

    def test_constant_matched_predictor(self):
        preds = np.full(100, 0.5)
        labels = np.array([0.0, 1.0] * 50)
        assert reliability(preds, labels, n_bins=10).ece == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_example(self):
        preds = np.array([0.1, 0.1, 0.9, 0.9])
        labels = np.array([0.0, 1.0, 1.0, 1.0])
        report = reliability(preds, labels, n_bins=2)
        assert report.ece == pytest.approx(0.25, abs=1e-15)

    def test_single_bin_equals_mean_gap(self):
        gen = np.random.default_rng(3)
        preds = gen.uniform(0, 1, 200)
        labels = gen.integers(0, 2, 200).astype(float)
        report = reliability(preds, labels, n_bins=1, scheme="equal_width")
        assert report.ece == pytest.approx(abs(labels.mean() - preds.mean()), abs=1e-14)

    @pytest.mark.parametrize("scheme", ["equal_width", "equal_count"])
    def test_permutation_invariance(self, scheme):
        gen = np.random.default_rng(5)
        preds = np.round(gen.uniform(0, 1, 500), 2)  # heavy ties
        labels = gen.integers(0, 2, 500).astype(float)
        report = reliability(preds, labels, n_bins=7, scheme=scheme)
        perm = gen.permutation(500)
        permuted = reliability(preds[perm], labels[perm], n_bins=7, scheme=scheme)
        assert permuted.ece == pytest.approx(report.ece, abs=1e-14)

    def test_counts_partition_points(self):
        gen = np.random.default_rng(6)
        preds = gen.uniform(0, 1, 333)
        labels = gen.integers(0, 2, 333).astype(float)
        for scheme in ("equal_width", "equal_count"):
            report = reliability(preds, labels, n_bins=9, scheme=scheme)
            assert sum(b.count for b in report.bins) == 333

    def test_true_prob_column(self):
        preds = np.array([0.2, 0.4, 0.6, 0.8])
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        true_probs = np.array([0.25, 0.35, 0.65, 0.75])
        report = reliability(preds, labels, true_probs, n_bins=2, scheme="equal_count")
        assert report.bins[0].mean_true == pytest.approx(0.3, abs=1e-15)
        assert report.bins[1].mean_true == pytest.approx(0.7, abs=1e-15)
        assert report.max_abs_gap_to_true(1) == pytest.approx(0.0, abs=1e-15)

    def test_contracts(self):
        with pytest.raises(ContractError):
            reliability(np.array([]), np.array([]))
        with pytest.raises(ContractError):
            reliability(np.array([0.5]), np.array([1.0]), scheme="quantile")
        with pytest.raises(ContractError):
            reliability(np.array([1.5]), np.array([1.0]))

    @pytest.mark.parametrize("field", ["preds", "labels", "true_probs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, field, bad):
        args = {"preds": [0.2, 0.4, 0.7, 0.9], "labels": [0.0, 1.0, 1.0, 1.0], "true_probs": [0.1, 0.5, 0.6, 0.8]}
        args[field] = [0.2, bad, 0.7, 0.9]
        with pytest.raises(ContractError, match=field):
            reliability(**{k: np.array(v) for k, v in args.items()})

    @pytest.mark.parametrize(
        "field, values",
        [("labels", [0.0, 2.0, 1.0, 1.0]), ("labels", [0.0, 0.5, 1.0, 1.0]), ("true_probs", [-1.0, 0.5, 3.0, 0.8])],
        ids=["label-two", "label-half", "true-prob-range"],
    )
    def test_out_of_range_rejected(self, field, values):
        # labels of 2.0 gave an ECE of 1.05; true probabilities of -1 and 3 were binned as given
        args = {"preds": [0.2, 0.4, 0.7, 0.9], "labels": [0.0, 1.0, 1.0, 1.0], "true_probs": [0.1, 0.5, 0.6, 0.8]}
        args[field] = values
        with pytest.raises(ContractError, match=field):
            reliability(**{k: np.array(v) for k, v in args.items()})


class TestCalErrorAtLevel:
    def test_exact_predictions(self):
        gen = np.random.default_rng(1)
        probs = gen.uniform(0.1, 0.9, 2000)
        deltas = cal_error_at_level(probs, probs, n_bins=5)
        assert all(abs(d.delta) <= 1e-14 for d in deltas)

    def test_constant_shift(self):
        gen = np.random.default_rng(2)
        probs = gen.uniform(0.2, 0.7, 3000)
        deltas = cal_error_at_level(np.clip(probs + 0.1, 0, 1), probs, n_bins=6)
        for d in deltas:
            assert d.delta == pytest.approx(0.1, abs=1e-12)

    def test_min_bin_occupancy(self):
        gen = np.random.default_rng(3)
        probs = gen.uniform(0, 1, 1100)
        deltas = cal_error_at_level(probs, probs, n_bins=10)
        assert len(deltas) == 5  # 1100 // 200
        assert all(d.count >= 200 for d in deltas)

    def test_small_sample_single_bin(self):
        probs = np.array([0.2, 0.4])
        deltas = cal_error_at_level(probs, probs, n_bins=10)
        assert len(deltas) == 1 and deltas[0].count == 2

    @pytest.mark.parametrize("field", ["preds", "true_probs"])
    def test_nonfinite_rejected(self, field):
        args = {"preds": np.array([0.2, 0.4, 0.7, 0.9]), "true_probs": np.array([0.1, 0.5, 0.6, 0.8])}
        args[field][1] = np.nan
        with pytest.raises(ContractError, match=field):
            cal_error_at_level(**args)

    @pytest.mark.parametrize(
        "preds, true_probs, match",
        [([1.5, 0.5], [0.5, 0.2], "preds"), ([0.5, 0.5], [0.5, -0.2], "true_probs")],
        ids=["pred-above-one", "true-prob-below-zero"],
    )
    def test_out_of_range_rejected(self, preds, true_probs, match):
        # a prediction of 1.5 was reported as a calibration level at 1.5
        with pytest.raises(ContractError, match=match):
            cal_error_at_level(np.array(preds), np.array(true_probs))


class TestBregmanLosses:
    def test_zero_at_equality(self):
        gen = np.random.default_rng(4)
        probs = gen.uniform(0, 1, 100)
        report = bregman_losses(probs, probs)
        assert report.squared == 0.0 and report.kl == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_point(self):
        report = bregman_losses(np.array([0.25]), np.array([0.5]))
        assert report.squared == pytest.approx(0.125, abs=1e-15)
        expected_kl = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert report.kl == pytest.approx(expected_kl, abs=1e-12)
        assert report.kl == pytest.approx(0.143841, abs=1e-6)

    def test_clamp_keeps_kl_finite(self):
        report = bregman_losses(np.array([0.0]), np.array([0.5]))
        assert np.isfinite(report.kl) and report.kl > 10.0

    def test_exact_binary_true_probs(self):
        # clipped links yield q in {0, 1}; their KL contributions stay finite
        report = bregman_losses(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        assert np.isfinite(report.kl)
        assert report.kl == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_iff_equal(self):
        gen = np.random.default_rng(5)
        probs = gen.uniform(0.05, 0.95, 50)
        other = probs.copy()
        other[7] += 0.01
        report = bregman_losses(other, probs)
        assert report.squared > 0 and report.kl > 0

    @pytest.mark.parametrize("field", ["preds", "true_probs"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_rejected(self, field, bad):
        args = {"preds": np.array([0.2, 0.4, 0.7, 0.9]), "true_probs": np.array([0.1, 0.5, 0.6, 0.8])}
        args[field][2] = bad
        with pytest.raises(ContractError, match=field):
            bregman_losses(**args)

    @pytest.mark.parametrize(
        "preds, true_probs, match",
        [([0.5, 0.5], [1.5, 0.2], "true_probs"), ([-0.1, 0.5], [0.5, 0.2], "preds")],
        ids=["true-prob-above-one", "pred-below-zero"],
    )
    def test_out_of_range_rejected(self, preds, true_probs, match):
        # a true probability of 1.5 gave kl = inf
        with pytest.raises(ContractError, match=match):
            bregman_losses(np.array(preds), np.array(true_probs))


class TestBregmanOptimality:
    def test_oracle_beats_candidates_and_angular_near_oracle(self):
        theta, sn = 0.9, 0.85
        u, t, _ = conditional_pairs(40000, theta, sn, SIGMOID31, seed=11, tag="breg")
        probs = SIGMOID31(t)
        candidates = {
            "angular_true": Angular(theta, sn, SIGMOID31),
            "uncalibrated": Uncalibrated(SIGMOID31),
            "chance": Chance(SIGMOID31),
        }
        report = bregman_optimality_check(u, probs, candidates, n_bins=50)
        for name in candidates:
            assert report.losses["oracle"].kl <= report.losses[name].kl + 1e-12
            assert report.losses["oracle"].squared <= report.losses[name].squared + 1e-12
        assert report.losses["angular_true"].kl <= report.losses["uncalibrated"].kl
        assert report.losses["angular_true"].squared <= report.losses["uncalibrated"].squared
        assert abs(report.losses["angular_true"].kl - report.losses["oracle"].kl) <= 0.01
        assert report.order_kl[0] == "oracle"

    def test_oracle_candidate_is_tied(self):
        # a calibrator that reproduces the binned conditional mean exactly
        gen = np.random.default_rng(9)
        logits = np.sort(gen.standard_normal(600))
        probs = SIGMOID31(logits)
        oracle_preds = binned_conditional_mean(logits, probs, n_bins=12)
        steps = Isotonic(
            np.sort(np.unique(logits)), np.maximum.accumulate(oracle_preds)
        )
        report = bregman_optimality_check(logits, probs, {"self": steps}, n_bins=12)
        assert report.losses["self"].kl == pytest.approx(report.losses["oracle"].kl, abs=1e-12)
        assert report.losses["self"].squared == pytest.approx(report.losses["oracle"].squared, abs=1e-12)

    @pytest.mark.parametrize(
        "logits, true_probs, match",
        [
            ([0.1, np.nan, 0.3], [0.2, 0.5, 0.7], "logits"),
            ([0.1, 0.2, 0.3], [0.2, np.inf, 0.7], "true_probs"),
            ([0.1, 0.2, 0.3], [0.2, 0.5], "matching"),
        ],
        ids=["nan-logit", "inf-prob", "length-mismatch"],
    )
    def test_binned_conditional_mean_rejects_bad_input(self, logits, true_probs, match):
        with pytest.raises(ContractError, match=match):
            binned_conditional_mean(np.array(logits), np.array(true_probs))

    def test_logits_are_not_probabilities(self):
        # logits may take any finite value; only the true probabilities are range-checked
        logits = np.array([-30.0, -2.0, 2.0, 30.0])
        means = binned_conditional_mean(logits, np.array([0.1, 0.2, 0.8, 0.9]), n_bins=2)
        np.testing.assert_allclose(means, [0.15, 0.15, 0.85, 0.85], rtol=0, atol=1e-15)
        with pytest.raises(ContractError, match="true_probs"):
            binned_conditional_mean(logits, np.array([0.1, 0.2, 0.8, 1.1]), n_bins=2)

    def test_zero_bins_rejected(self):
        logits = np.array([0.1, 0.2, 0.3])
        probs = SIGMOID31(logits)
        with pytest.raises(ContractError, match="n_bins"):
            binned_conditional_mean(logits, probs, n_bins=0)
        with pytest.raises(ContractError, match="n_bins"):
            bregman_optimality_check(logits, probs, {"chance": Chance(SIGMOID31)}, n_bins=0)
