"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The reference configuration throughout is the
data-deficient setting n=1000, d=2000, AR(1) rho=0.5 covariance scaled
by 1/d, sigmoid(3u+1) link, ridge strength 0.5.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from angcal import rng as rngmod
from angcal.calibrators import (
    Angular,
    Chance,
    Platt,
    Uncalibrated,
    angular_predict,
    calibrate,
    isotonic_fit,
    platt_fit,
    theoretical_AB,
)
from angcal.cli import main as cli_main
from angcal.errors import DegenerateHoldout
from angcal.evaluate import bregman_optimality_check, cal_error_at_level, reliability
from angcal.experiments import ExperimentConfig, run_multiindex, run_pipeline, run_sign_mc
from angcal.links import LinkFunction
from angcal.mestimator import _FeatureSystem, _GramSystem, logistic_loss_derivatives
from angcal.observable import compute_intermediates, inner_product_sq
from angcal.synth import Covariance, Dataset
from conftest import BATTERY_SEEDS
from helpers import conditional_pairs, forced_route

PROBIT = LinkFunction("probit", 1.0, 0.3)
SIGMOID31 = LinkFunction("sigmoid", 3.0, 1.0)
CRELU = LinkFunction("crelu", 3.0, 0.5)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_inner_product_estimator(six1_battery):
    errs = [
        abs(run.result.inner_est - run.result.inner_true) for run in six1_battery[:10]
    ]
    median = float(np.median(errs))
    _report(
        1,
        "inner-product estimator",
        median <= 0.05,
        f"median |est - true| over 10 seeds = {median:.4f} (tolerance 0.05)",
    )


def test_criterion_2_sign_estimator():
    mc = run_sign_mc(ExperimentConfig(seed=7), trials=5000)
    rate_100 = mc["wrong_rate"]
    ok_a = rate_100 <= 0.03

    rate_by_size = {}
    for frac, n_ho in ((0.05, 50), (0.4, 400)):
        out = run_sign_mc(ExperimentConfig(seed=7, sign_holdout_frac=frac), trials=2000)
        rate_by_size[n_ho] = out["wrong_rate"]
    ok_b = rate_by_size[400] < rate_by_size[50]
    _report(
        2,
        "sign estimator",
        ok_a and ok_b,
        f"wrong-sign rate at n_ho=100 over 5000 trials = {rate_100:.4f} (tol 0.03); "
        f"rate(400)={rate_by_size[400]:.4f} < rate(50)={rate_by_size[50]:.4f}",
    )


def test_criterion_3_angular_calibration(six1_battery):
    run = six1_battery[0]
    res = run.result
    details = []
    ok = True
    for label, theta, tol in (
        ("theta_star", res.theta_star, 0.03),
        ("theta_hat", res.angle.theta, 0.05),
    ):
        cal = Angular(theta, res.model.sigma_norm, run.cfg.link)
        preds = calibrate(cal, run.u_test)
        report = reliability(preds, run.y_test, run.true_probs, n_bins=10, scheme="equal_count")
        assert all(b.count >= 200 for b in report.bins)
        gap = report.max_abs_gap_to_true(min_count=200)
        deltas = cal_error_at_level(preds, run.true_probs, n_bins=10)
        level_gap = max(abs(d.delta) for d in deltas)
        ok = ok and gap <= tol and report.ece <= tol and level_gap <= tol
        details.append(
            f"{label}: max bin gap {gap:.4f}, ece {report.ece:.4f}, "
            f"max |delta_p| {level_gap:.4f} (tol {tol})"
        )
    _report(3, "angular calibration", ok, "; ".join(details))


def test_criterion_4_uncalibrated_vs_angular(six1_battery):
    wins = 0
    for run in six1_battery:
        res = run.result
        uncal = reliability(
            calibrate(Uncalibrated(run.cfg.link), run.u_test),
            run.y_test,
            n_bins=10,
            scheme="equal_count",
        ).ece
        angular = reliability(
            calibrate(
                Angular(res.angle.theta, res.model.sigma_norm, run.cfg.link),
                run.u_test,
            ),
            run.y_test,
            n_bins=10,
            scheme="equal_count",
        ).ece
        wins += int(uncal - angular > 0)
    _report(
        4,
        "uncalibrated vs angular",
        wins >= 19,
        f"ECE(uncal) > ECE(angular) in {wins}/20 seeds (need >= 19)",
    )


def test_criterion_5_platt_closed_form(six1_battery):
    theta, sigma_norm = 0.9, 0.85
    grid = np.linspace(-10, 10, 1000)

    # (a) pointwise identity for the probit family
    slope_star, offset_star = theoretical_AB(theta, sigma_norm, PROBIT.a, PROBIT.b)
    closed = angular_predict(grid, theta, sigma_norm, PROBIT)
    identity_gap = float(np.max(np.abs(closed - PROBIT(slope_star * grid + offset_star))))
    ok_a = identity_gap <= 1e-12

    # (b, c) holdout fit at 1e5 points converges in parameters and sup norm
    u, _, y = conditional_pairs(10**5, theta, sigma_norm, PROBIT, seed=41, tag="acc5")
    slope, offset = platt_fit(u, y, PROBIT)
    param_err = abs(slope - slope_star) + abs(offset - offset_star)
    ok_b = param_err <= 0.02
    sup_gap = float(np.max(np.abs(PROBIT(slope * grid + offset) - closed)))
    ok_c = sup_gap <= 0.01

    # (d) reference sigmoid setting through the sigmoid~probit bridge
    cfg = ExperimentConfig(seed=BATTERY_SEEDS[0], platt_holdout=20000)
    res = run_pipeline(replace(cfg, sign_holdout_frac=0.0))
    directions = np.column_stack([res.model.w_hat, res.w_star])
    from angcal.experiments import sample_logit_pairs

    pairs = sample_logit_pairs(
        rngmod.substream(cfg.seed, "acc5-platt"), 20000, cfg.entry, res.cov, directions
    )
    labels = rngmod.bernoulli(
        rngmod.substream(cfg.seed, "acc5-platt-labels"), cfg.link(pairs[:, 1])
    )
    slope_s, offset_s = platt_fit(pairs[:, 0], labels, cfg.link)
    bridge_gap = max(abs(slope_s - 0.2991), abs(offset_s - (-0.1597)))
    ok_d = bridge_gap <= 0.08

    _report(
        5,
        "Platt closed form",
        ok_a and ok_b and ok_c and ok_d,
        f"identity sup {identity_gap:.2e} (tol 1e-12); |dA|+|dB| at 1e5 = {param_err:.4f} "
        f"(tol 0.02); sup|platt-angular| {sup_gap:.4f} (tol 0.01); "
        f"bridge fit ({slope_s:.4f},{offset_s:.4f}) vs (0.2991,-0.1597), gap {bridge_gap:.4f} (tol 0.08)",
    )


def test_criterion_6_bregman_optimality(six1_battery):
    losses = {"oracle": [], "angular": [], "platt100": [], "uncalibrated": []}
    for run in six1_battery:
        res = run.result
        u, t, _ = run.fresh_pairs(10**5, "acc6-test")
        probs = run.cfg.link(t)
        u_platt, _, y_platt = run.fresh_pairs(100, "acc6-platt")
        candidates = {
            "angular": Angular(res.theta_star, res.model.sigma_norm, run.cfg.link),
            "uncalibrated": Uncalibrated(run.cfg.link),
        }
        try:
            slope, offset = platt_fit(u_platt, y_platt, run.cfg.link)
            candidates["platt100"] = Platt(slope, offset, run.cfg.link)
        except DegenerateHoldout:
            candidates["platt100"] = Chance(run.cfg.link)
        report = bregman_optimality_check(u, probs, candidates, n_bins=50)
        for name in losses:
            losses[name].append(report.losses[name])

    med = {
        name: (
            float(np.median([r.kl for r in reports])),
            float(np.median([r.squared for r in reports])),
        )
        for name, reports in losses.items()
    }
    # The oracle-vs-angular side carries the criterion's own 0.01 proximity
    # tolerance: the 50-bin empirical oracle has binning bias of the same
    # magnitude as its noise-fitting advantage, so the sign of a ~1e-4
    # difference is arbitrary; the baseline comparisons are strict.
    near_oracle = max(abs(med["angular"][i] - med["oracle"][i]) for i in (0, 1))
    ordering_ok = all(
        med["oracle"][i] <= med["angular"][i] + 0.01
        and med["angular"][i] <= min(med["platt100"][i], med["uncalibrated"][i])
        for i in (0, 1)
    )
    _report(
        6,
        "Bregman optimality",
        ordering_ok and near_oracle <= 0.01,
        f"median losses kl/sq: oracle {med['oracle']}, angular {med['angular']}, "
        f"platt100 {med['platt100']}, uncal {med['uncalibrated']}; "
        f"angular-oracle gap {near_oracle:.4f} (tol 0.01)",
    )


def test_criterion_7_universality():
    details = []
    ok = True
    for entry in ("rademacher", "uniform"):
        for link in (SIGMOID31, CRELU):
            cfg = ExperimentConfig(seed=57, entry=entry, link=link)
            res = run_pipeline(cfg)
            directions = np.column_stack([res.model.w_hat, res.w_star])
            from angcal.experiments import sample_logit_pairs

            pairs = sample_logit_pairs(
                rngmod.substream(cfg.seed, "acc7"), 20000, entry, res.cov, directions
            )
            labels = rngmod.bernoulli(
                rngmod.substream(cfg.seed, "acc7-labels"), link(pairs[:, 1])
            )
            cal = Angular(res.angle.theta, res.model.sigma_norm, link)
            ece = reliability(
                calibrate(cal, pairs[:, 0]), labels, n_bins=10, scheme="equal_count"
            ).ece
            ok = ok and ece <= 0.05
            details.append(f"{entry}/{link.kind}: ece {ece:.4f}")
    _report(7, "universality", ok, "; ".join(details) + " (tol 0.05 each)")


def test_criterion_8_multiindex():
    cfg = ExperimentConfig(seed=5, d=50, n_test=200000)
    summary = run_multiindex(cfg, 2)
    delta_ok = summary["max_abs_delta_p"] <= 0.03
    residual_ok = summary["residual_check"]["max_cov_over_se"] <= 4.0

    cfg1 = ExperimentConfig(seed=5, d=50, n_test=20000)
    summary1 = run_multiindex(cfg1, 1)
    reduction_ok = summary1["single_index_max_diff"] <= 1e-8
    _report(
        8,
        "multi-index calibration",
        delta_ok and residual_ok and reduction_ok,
        f"max |delta_p| {summary['max_abs_delta_p']:.4f} (tol 0.03); "
        f"residual cov/se {summary['residual_check']['max_cov_over_se']:.2f} (tol 4); "
        f"K=1 reduction diff {summary1['single_index_max_diff']:.2e} (tol 1e-8)",
    )


def test_criterion_9_numerical_hygiene():
    # (a) objective gradient/Hessian against central differences at d=5
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

    worst_fd = 0.0
    h = 1e-5
    for _ in range(20):
        w = rng.uniform(-1.5, 1.5, d)
        grad = gradient(w)
        _, _, second = logistic_loss_derivatives(y, X @ w)
        hess = (X.T * second) @ X / n + alpha * np.eye(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd_g = (objective(w + e) - objective(w - e)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd_g - grad[k]) / max(1.0, abs(grad[k])))
            fd_h = (gradient(w + e) - gradient(w - e)) / (2 * h)
            rel = np.max(np.abs(fd_h - hess[:, k]) / np.maximum(1.0, np.abs(hess[:, k])))
            worst_fd = max(worst_fd, float(rel))
    ok_a = worst_fd <= 1e-4

    # (b) quadrature vs Monte Carlo on 50 random angular evaluations
    gen = np.random.default_rng(1)
    worst_mc = 0.0
    for trial in range(50):
        link = [SIGMOID31, PROBIT, CRELU][trial % 3]
        u = float(gen.uniform(-4, 4))
        theta = float(gen.uniform(0, math.pi))
        sn = float(gen.uniform(0.3, 2.0))
        gh = angular_predict(u, theta, sn, link)
        draws = gen.standard_normal(10**6)
        samples = link(math.cos(theta) * u / sn + math.sin(theta) * draws)
        se = float(samples.std(ddof=1) / 1000.0) + 1e-9
        worst_mc = max(worst_mc, abs(gh - float(samples.mean())) / se)
    ok_b = worst_mc <= 3.0

    # (c) estimator intermediates against a dense naive oracle at n=8, d=3
    worst_oracle = 0.0
    for seed in range(5):
        inst = np.random.default_rng(100 + seed)
        Xi = inst.standard_normal((8, 3))
        yi = inst.integers(0, 2, 8).astype(float)
        wi = 0.5 * inst.standard_normal(3)
        ds = Dataset(X=Xi, y=yi)
        from angcal.mestimator import FittedModel

        model = FittedModel(
            w_hat=wi, sigma_norm=1.0, lam=0.7,
            converged=True, grad_norm=0.0, n_iter=0, objective=0.0,
        )
        _, first, second = logistic_loss_derivatives(yi, Xi @ wi)
        psi, D = -first, second
        hinv = np.linalg.inv(Xi.T @ np.diag(D) @ Xi + 8 * 0.7 / 3 * np.eye(3))
        K = Xi @ hinv @ Xi.T
        dof = float(np.trace(np.diag(D) @ K))
        v_hat = float((np.sum(D) - np.trace(np.diag(D) @ K @ np.diag(D))) / 8)
        for route in (_FeatureSystem, _GramSystem):
            with forced_route(route):
                inter = compute_intermediates(ds, model)
            worst_oracle = max(
                worst_oracle,
                abs(inter.dof - dof),
                abs(inter.effective_curvature - v_hat),
                abs(inter.logit_adjustment - dof / (8 * v_hat)),
                float(np.max(np.abs(inter.score - psi))),
            )
            value, flag = inner_product_sq(inter, ds, model, Covariance(3))
            gamma = dof / (8 * v_hat)
            resid = Xi @ wi - gamma * psi
            num = (v_hat / 8 * resid @ resid + psi @ (Xi @ wi) / 8 - gamma * (psi @ psi / 8)) ** 2
            den = (
                np.linalg.norm(Xi.T @ psi) ** 2 / 64
                + 2 * v_hat / 8 * psi @ (Xi @ wi)
                + v_hat**2 / 8 * resid @ resid
                - 3 / 8 * (psi @ psi / 8)
            )
            expected = (num / den, False) if den > 1e-12 else (1.0, True)
            worst_oracle = max(worst_oracle, abs(value - expected[0]) if flag == expected[1] else np.inf)
    ok_c = worst_oracle <= 1e-10

    # (d) PAV against brute-force monotone fits at n <= 7
    worst_pav = 0.0
    from test_calibrators import _brute_force_isotonic

    for seed in range(10):
        inst = np.random.default_rng(200 + seed)
        size = int(inst.integers(2, 8))
        logits = np.sort(inst.standard_normal(size))
        labels = inst.integers(0, 2, size).astype(float)
        cal = isotonic_fit(logits, labels)
        oracle = _brute_force_isotonic(list(labels), [1.0] * size)
        worst_pav = max(worst_pav, float(np.max(np.abs(calibrate(cal, logits) - oracle))))
    ok_d = worst_pav <= 1e-12

    _report(
        9,
        "numerical hygiene",
        ok_a and ok_b and ok_c and ok_d,
        f"fd rel err {worst_fd:.2e} (tol 1e-4); quad-vs-MC {worst_mc:.2f} se (tol 3); "
        f"dense-oracle gap {worst_oracle:.2e} (tol 1e-10); PAV-vs-brute {worst_pav:.2e} (tol 1e-12)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    small = ["--n", "160", "--d", "80", "--n-test", "1500", "--platt-holdout", "800", "--seed", "13"]
    commands = [
        ("simulate", ["simulate", *small]),
        ("platt-convergence", ["platt-convergence", *small, "--sizes", "60,300"]),
        ("sign-mc", ["sign-mc", *small, "--trials", "80"]),
        ("universality", ["universality", *small, "--entry", "rademacher"]),
        ("multiindex", ["multiindex", "--d", "30", "--k", "2", "--n-test", "3000", "--seed", "13"]),
    ]
    mismatches = []
    for name, args in commands:
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            rc = cli_main([*args, "--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            dirs.append({p.name: p.read_bytes() for p in sorted(Path(out).iterdir())})
        if dirs[0] != dirs[1]:
            mismatches.append(name)
    _report(
        10,
        "CLI determinism",
        not mismatches,
        "byte-identical reruns for all 5 subcommands" if not mismatches else f"mismatches: {mismatches}",
    )
