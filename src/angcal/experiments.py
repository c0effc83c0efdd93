"""End-to-end experiment drivers behind the CLI subcommands.

Each driver wires data generation -> M-estimation -> alignment
estimation -> calibrators -> evaluation and returns its summary, which
opens with one shared header. One writer puts the deterministic reports
(summary.json, reliability_<name>.csv, optional reliability.svg, extra
CSVs) into the output directory when one is given.

The covariance is one structured AR(1) `Covariance` operator per run
(identity is rho = 0): no d x d matrix is formed, and every
quantity that depends on Sigma goes through W' Sigma W or v' Sigma^{-1} v.

Evaluation never materializes test design matrices: a test point only
enters through the fitted logit w_hat'x and the true index w_star'x. For
Gaussian entries each pair is drawn exactly from N(0, W' Sigma W) with
W = [w_hat, w_star], two normals per point; this covers the sign, test,
Platt and sign-trial holdouts and the multi-index test and residual
draws. Other entry distributions draw z of length d and project it onto
Sigma^{1/2} W, which keeps the materialized design's law. Training
designs are always materialized. Every random stream derives a sub-seed
from (master seed, stream tag), so Monte Carlo loops are reproducible
and order-independent.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy

from . import rng as rngmod
from .calibrators import (
    Angular,
    Chance,
    Platt,
    Uncalibrated,
    angular_predict,
    calibrate,
    chance_value,
    isotonic_fit,
    platt_fit,
    theoretical_AB,
)
from .errors import (AngcalError, ContractError, DegenerateHoldout, DegenerateModel, FitError, _is_real,
                     _label_array, _require_count)
from .evaluate import ReliabilityReport, bregman_losses, cal_error_at_level, reliability
from .links import SIGMOID_PROBIT_BRIDGE, LinkFunction, _require_link
from .mestimator import FittedModel, _penalized_system, _require_lam, fit
from .multiindex import MultiIndexModel, angular_predict_multi, conditional_params
from .observable import (
    AngleEstimate,
    SignEstimate,
    angle_estimate,
    compute_intermediates,
    inner_product_sq,
    sign_estimate,
)
from .output import (
    reliability_to_dict,
    write_csv,
    write_json,
    write_reliability_csv,
    write_reliability_svg,
)
from .synth import Covariance, load_design_csv, make_synthetic_dataset, projection_blocks, sample_projections

KNOWN_CALIBRATORS = ("uncalibrated", "angular", "angular-star", "platt", "isotonic", "chance")
DEFAULT_CALIBRATORS = ("uncalibrated", "angular", "platt", "isotonic", "chance")

_SUMMARY_SCHEMA = 2  # version of every summary.json layout
_RELIABILITY_BINS = 10
_DELTA_BINS = 20
_MULTI_MIX = 0.5
_MULTI_NOISE = 0.8
_MULTI_RESIDUAL_DRAWS = 1_000_000

@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers; sizes must be positive.

    The covariance is AR(1) at cov_rho, scaled by 1/d; cov_rho = 0 is the identity.
    A list of calibrators is kept as a tuple, a path object as its text.
    """

    n: int = 1000
    d: int = 2000
    lam: float = 0.5
    seed: int = 1
    link: LinkFunction = field(default_factory=lambda: LinkFunction("sigmoid", 3.0, 1.0))
    entry: str = "gaussian"
    cov_rho: float = 0.5
    n_test: int = 20000
    platt_holdout: int = 20000
    sign_holdout_frac: float = 0.1
    sign_holdout_file: Optional[str | os.PathLike] = None
    calibrators: tuple[str, ...] = DEFAULT_CALIBRATORS
    platt_family: str = "link"
    svg: bool = False

    def __post_init__(self):
        for name, value in (("n", self.n), ("d", self.d), ("n_test", self.n_test), ("platt_holdout", self.platt_holdout)):
            _require_count(value, name, 1)
        _require_count(self.seed, "seed", 0)
        _require_link(self.link)
        if self.entry not in rngmod.ENTRY_DISTRIBUTIONS:
            raise ContractError(f"unknown entry distribution {self.entry!r}")
        if not (_is_real(self.sign_holdout_frac) and 0.0 <= self.sign_holdout_frac < 1.0):
            raise ContractError("sign_holdout_frac must lie in [0, 1)")
        if self.platt_family not in ("link", "sigmoid"):
            raise ContractError("platt_family must be 'link' or 'sigmoid'")
        if not isinstance(self.svg, bool):
            raise ContractError(f"svg must be a bool, got {self.svg!r}")
        if self.sign_holdout_file is not None:
            if not isinstance(self.sign_holdout_file, (str, os.PathLike)):
                raise ContractError(f"sign_holdout_file must be None or a path, got {self.sign_holdout_file!r}")
            object.__setattr__(self, "sign_holdout_file", os.fspath(self.sign_holdout_file))
        if not isinstance(self.calibrators, (tuple, list)):
            raise ContractError(f"calibrators must be a tuple or list of names, got {self.calibrators!r}")
        for name in self.calibrators:
            if name not in KNOWN_CALIBRATORS:
                raise ContractError(f"unknown calibrator {name!r}; known: {KNOWN_CALIBRATORS}")
        object.__setattr__(self, "calibrators", tuple(self.calibrators))
        _require_lam(self.lam, self.d)
        self.covariance()  # validates cov_rho

    def covariance(self) -> Covariance:
        return Covariance.ar1(self.cov_rho, self.d)

    def describe(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "lambda": self.lam,
            "seed": self.seed,
            "link": self.link.label(),
            "entry": self.entry,
            "cov": "identity" if self.cov_rho == 0 else f"ar1:{self.cov_rho:g}",
            "n_test": self.n_test,
            "platt_holdout": self.platt_holdout,
            "sign_holdout_frac": self.sign_holdout_frac,
            "sign_holdout_file": self.sign_holdout_file,
            "calibrators": list(self.calibrators),
            "platt_family": self.platt_family,
        }


def cov_fields(text: str) -> float:
    """cov_rho from `ar1:RHO`, bare `ar1` (rho 0.5) or `identity` (rho 0), the forms `describe` writes."""
    kind, colon, rho = text.strip().lower().partition(":")
    if kind == "identity" and not colon:
        return 0.0
    if kind == "ar1":
        try:
            return float(rho) if colon else 0.5
        except ValueError:
            pass
    raise ContractError(f"cannot parse covariance {text!r}; expected ar1:RHO or identity")


@dataclass
class PipelineResult:
    """Fitted model plus alignment estimates for one seeded run."""

    cfg: ExperimentConfig
    cov: Covariance
    w_star: np.ndarray
    model: FittedModel
    n_train: int
    n_sign_holdout: int
    inner_true: float
    theta_star: float
    inner_sq_est: float
    denominator_flag: bool
    sign: Optional[SignEstimate]
    angle: Optional[AngleEstimate]

    @property
    def inner_est(self) -> float:
        if self.sign is None:
            return float(np.sqrt(max(self.inner_sq_est, 0.0)))
        return self.sign.value * float(np.sqrt(max(self.inner_sq_est, 0.0)))


def run_pipeline(cfg: ExperimentConfig) -> PipelineResult:
    """Sample, fit, and estimate alignment for one seed.

    The model is fitted on n - n_ho rows, n_ho = ceil(frac * n), drawn as
    `make_synthetic_dataset` draws them. The sign holdout is n_ho fresh
    (fitted logit, true index, label) points from the "sign-holdout"
    streams, independent of the fitted weight and drawn, like every other
    evaluation set, only after the fit (see `labelled_pairs`). A holdout
    file (features + final label column) replaces that holdout, and the
    fit then uses all n rows, as it does at frac = 0. Like the drivers,
    it runs on one BLAS thread, so its numbers do not depend on
    OPENBLAS_NUM_THREADS.
    """
    with _one_blas_thread():
        n_ho = 0
        if cfg.sign_holdout_file is None and cfg.sign_holdout_frac > 0:
            n_ho = math.ceil(cfg.sign_holdout_frac * cfg.n)
            if n_ho >= cfg.n:
                raise ContractError("sign holdout fraction leaves no training rows")

        holdout_file = None
        if cfg.sign_holdout_file is not None:
            table = load_design_csv(cfg.sign_holdout_file)
            if table.shape[1] != cfg.d + 1:
                raise ContractError(
                    f"sign holdout file must have d+1={cfg.d + 1} columns (features then label), "
                    f"found {table.shape[1]}"
                )
            holdout_file = (table[:, :-1], _label_array(table[:, -1], "sign holdout labels"))

        cov = cfg.covariance()
        dataset, w_star = make_synthetic_dataset(cfg.n - n_ho, cov, cfg.link, cfg.seed, cfg.entry)
        system = _penalized_system(dataset.X)  # one for the fit and the traces; gone before evaluation
        model = fit(dataset, cfg.lam, cov, system)
        if not model.converged:
            print(
                f"warning: Newton fit did not converge (grad_norm={model.grad_norm:.3g} "
                f"after n_iter={model.n_iter}); its estimates are used as they are",
                file=sys.stderr,
            )
        if model.sigma_norm <= 0:
            raise DegenerateModel("the fitted weight has zero Sigma-norm, so it forms no angle with w_star")
        inter = compute_intermediates(dataset, model, system)
        del system
        inner_sq, flag = inner_product_sq(inter, dataset, model, cov)

        sign = angle = None
        if n_ho:
            u_ho, _, y_ho = labelled_pairs(cfg, cov, model.w_hat, w_star, n_ho, "sign-holdout")
            sign = sign_estimate(u_ho, y_ho)
        elif holdout_file is not None:
            n_ho = holdout_file[0].shape[0]
            sign = sign_estimate(holdout_file[0] @ model.w_hat, holdout_file[1])
        if sign is not None:
            angle = angle_estimate(inner_sq, sign.value, model.sigma_norm)

        inner_true = float(cov.quad(np.column_stack([w_star, model.w_hat]))[0, 1])
        cos_star = inner_true / model.sigma_norm  # w_star has unit Sigma-norm
        theta_star = float(np.arccos(np.clip(cos_star, -1.0, 1.0)))

        return PipelineResult(
            cfg=cfg,
            cov=cov,
            w_star=w_star,
            model=model,
            n_train=dataset.n,
            n_sign_holdout=n_ho,
            inner_true=inner_true,
            theta_star=theta_star,
            inner_sq_est=inner_sq,
            denominator_flag=flag,
            sign=sign,
            angle=angle,
        )


def sample_logit_pairs(
    gen: np.random.Generator,
    n: int,
    entry: str,
    cov: Covariance,
    directions: np.ndarray,
) -> np.ndarray:
    """Draw n rows of (x' dir_1, ..., x' dir_k) for design rows x drawn as in `cov.sample`."""
    return sample_projections(gen, n, entry, cov.projection_factor(entry, directions))


def labelled_pairs(cfg: ExperimentConfig, cov: Covariance, w_hat: np.ndarray, w_star: np.ndarray, n: int, tag: str):
    """(fitted logit, true index, label) arrays for n fresh points of one evaluation set.

    The pairs come from stream `tag` and the labels from `tag`-labels, so
    each set (sign holdout, test, Platt, sweep) is independent of the
    training rows and of every other set.
    """
    pairs = sample_logit_pairs(rngmod.substream(cfg.seed, tag), n, cfg.entry, cov, np.column_stack([w_hat, w_star]))
    u, t = pairs[:, 0], pairs[:, 1]
    return u, t, rngmod.bernoulli(rngmod.substream(cfg.seed, tag + "-labels"), cfg.link(t))


def _platt_family(cfg: ExperimentConfig) -> LinkFunction:
    if cfg.platt_family == "sigmoid":
        return LinkFunction("sigmoid", 1.0, 0.0)
    return cfg.link


def build_calibrators(res: PipelineResult, u_holdout: np.ndarray, y_holdout: np.ndarray) -> dict:
    """Construct each requested calibrator; fit failures are recorded, not raised.

    Returns name -> calibrator or name -> AngcalError for baselines whose
    holdout fit failed (the run carries on; the report marks the entry).
    """
    cfg = res.cfg
    out: dict[str, object] = {}
    for name in cfg.calibrators:
        if name == "uncalibrated":
            out[name] = Uncalibrated(cfg.link)
        elif name == "chance":
            out[name] = Chance(cfg.link)
        elif name == "angular":
            if res.angle is None:
                raise ContractError(
                    "the angular calibrator needs a sign holdout "
                    "(set --sign-holdout-frac > 0 or provide --sign-holdout-file)"
                )
            out[name] = Angular(res.angle.theta, res.model.sigma_norm, cfg.link)
        elif name == "angular-star":
            out[name] = Angular(res.theta_star, res.model.sigma_norm, cfg.link)
        elif name == "platt":
            try:
                slope, offset = platt_fit(u_holdout, y_holdout, _platt_family(cfg))
                out[name] = Platt(slope, offset, _platt_family(cfg))
            except (FitError, DegenerateHoldout) as exc:
                out[name] = exc
        elif name == "isotonic":
            try:
                out[name] = isotonic_fit(u_holdout, y_holdout)
            except AngcalError as exc:
                out[name] = exc
    return out


def _alignment_summary(res: PipelineResult) -> dict:
    info = {
        "inner_product_true": res.inner_true,
        "theta_star": res.theta_star,
        "inner_sq_est": res.inner_sq_est,
        "inner_product_est": res.inner_est,
        "denominator_flag": res.denominator_flag,
        "n_sign_holdout": res.n_sign_holdout,
    }
    if res.sign is not None:
        info.update(
            {
                "sign_est": res.sign.value,
                "sign_true": 1 if res.inner_true >= 0 else -1,
                "sign_correct": res.sign.value == (1 if res.inner_true >= 0 else -1),
                "sign_tied": res.sign.tied,
                "cos_clipped": res.angle.cos_clipped,
                "theta_hat": res.angle.theta,
            }
        )
    return info


def _header(command: str, cfg: ExperimentConfig) -> dict:
    """The fields every summary.json opens with."""
    return {"schema": _SUMMARY_SCHEMA, "command": command, "config": cfg.describe()}


def _evaluation(preds: np.ndarray, labels: np.ndarray, true_probs: np.ndarray):
    """Reliability report, {ece, Bregman losses, max level delta} and the level deltas."""
    report = reliability(preds, labels, true_probs, n_bins=_RELIABILITY_BINS, scheme="equal_width")
    losses = bregman_losses(preds, true_probs)
    deltas = cal_error_at_level(preds, true_probs, n_bins=_DELTA_BINS)
    scores = {
        "ece": report.ece,
        "squared_loss": losses.squared,
        "kl_loss": losses.kl,
        "max_abs_delta_p": max(abs(d.delta) for d in deltas),
    }
    return report, scores, deltas


def _simulate_summary(cfg: ExperimentConfig) -> tuple[dict, dict[str, ReliabilityReport]]:
    res = run_pipeline(cfg)
    u_test, t_test, y_test = labelled_pairs(cfg, res.cov, res.model.w_hat, res.w_star, cfg.n_test, "test")
    true_probs = cfg.link(t_test)
    u_ho, _, y_ho = labelled_pairs(cfg, res.cov, res.model.w_hat, res.w_star, cfg.platt_holdout, "platt")
    calibrators = build_calibrators(res, u_ho, y_ho)

    reports: dict[str, ReliabilityReport] = {}
    cal_section: dict[str, dict] = {}
    for name, cal in calibrators.items():
        if isinstance(cal, AngcalError):
            cal_section[name] = {"error": f"{type(cal).__name__}: {cal}"}
            continue
        report, scores, _ = _evaluation(calibrate(cal, u_test), y_test, true_probs)
        reports[name] = report
        cal_section[name] = {"params": cal.params(), **scores, "reliability": reliability_to_dict(report)}

    summary = {
        **_header("simulate", cfg),
        "fit": {
            "n_train": res.n_train,
            "converged": res.model.converged,
            "n_iter": res.model.n_iter,
            "grad_norm": res.model.grad_norm,
            "objective": res.model.objective,
            "sigma_norm": res.model.sigma_norm,
        },
        "alignment": _alignment_summary(res),
        "chance_value": chance_value(cfg.link),
        "calibrators": cal_section,
    }
    return summary, reports


def _write_reports(out_dir: Optional[Path], summary: dict, reports: Mapping, svg: bool, csvs: Mapping) -> None:
    """summary.json, reliability_<name>.csv per report, the svg if asked, and each extra
    named CSV (a ReliabilityReport or a (header, rows) table); nothing without out_dir."""
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "summary.json", summary)
    for name, report in reports.items():
        write_reliability_csv(out_dir / f"reliability_{name}.csv", report)
    if svg and reports:
        write_reliability_svg(out_dir / "reliability.svg", reports)
    for filename, table in csvs.items():
        if isinstance(table, ReliabilityReport):
            write_reliability_csv(out_dir / filename, table)
        else:
            write_csv(out_dir / filename, *table)


@cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS build that numpy and scipy ship.

    Looked up on first use, not at import; a build without them is skipped.
    """
    controls = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        for path in sorted(Path(package.__file__).parent.parent.glob(f"{package.__name__}.libs/*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                get, set_threads = (getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}") for verb in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            controls.append((get, set_threads))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS build on one thread, restoring each count on exit.

    How OpenBLAS splits a product across threads can move its last bits,
    so a driver pins one thread to write the same bytes whatever
    OPENBLAS_NUM_THREADS is.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def run_simulate(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> dict:
    """Full single-seed experiment; writes summary.json and per-calibrator CSVs."""
    with _one_blas_thread():
        summary, reports = _simulate_summary(cfg)
        _write_reports(out_dir, summary, reports, cfg.svg, {})
        return summary


def run_universality(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> dict:
    """The simulate pipeline under a non-Gaussian design, against a Gaussian twin."""
    with _one_blas_thread():
        if cfg.entry == "gaussian":
            raise ContractError(
                "universality needs a non-Gaussian entry distribution "
                "(rademacher or uniform); use the simulate subcommand for Gaussian designs"
            )
        summary_entry, reports_entry = _simulate_summary(cfg)
        summary_gauss, reports_gauss = _simulate_summary(replace(cfg, entry="gaussian"))

        comparison = {}
        for name in summary_entry["calibrators"]:
            entry_info = summary_entry["calibrators"][name]
            gauss_info = summary_gauss["calibrators"].get(name, {})
            comparison[name] = {
                f"ece_{cfg.entry}": entry_info.get("ece"),
                "ece_gaussian": gauss_info.get("ece"),
            }
        summary = {
            **_header("universality", cfg),
            "ece_comparison": comparison,
            "runs": {cfg.entry: summary_entry, "gaussian": summary_gauss},
        }
        gaussian_csvs = {f"gaussian_reliability_{name}.csv": report for name, report in reports_gauss.items()}
        _write_reports(out_dir, summary, reports_entry, cfg.svg, gaussian_csvs)
        return summary


def run_platt_convergence(
    cfg: ExperimentConfig,
    holdout_sizes: Sequence[int] = (100, 1000, 10000),
    out_dir: Optional[Path] = None,
    grid_points: int = 1000,
) -> dict:
    """Platt fits on growing holdouts, tracked against the angular predictor.

    For each size: fit (slope, offset), then record the sup over a logit
    grid of |platt - angular| for both the estimated and the true angle.
    Degenerate holdouts are recorded per size and the sweep continues.
    """
    with _one_blas_thread():
        sizes = list(holdout_sizes)
        if not sizes:
            raise ContractError("holdout sizes must be a nonempty list")
        for size in sizes:
            _require_count(size, "holdout size", 1)
        for prev, size in zip(sizes, sizes[1:]):
            if size <= prev:
                # each size names its own holdout stream, so a repeat would report one holdout twice
                what = f"{size} is repeated" if size == prev else f"{size} follows {prev}"
                raise ContractError(f"holdout sizes must be strictly ascending: {what}")
        _require_count(grid_points, "grid_points", 1)

        res = run_pipeline(cfg)
        sigma_norm = res.model.sigma_norm
        grid = np.linspace(-4.0 * sigma_norm, 4.0 * sigma_norm, grid_points)
        family = _platt_family(cfg)

        angular_ref = {"theta_star": calibrate(Angular(res.theta_star, sigma_norm, cfg.link), grid)}
        if res.angle is not None:
            angular_ref["theta_hat"] = calibrate(Angular(res.angle.theta, sigma_norm, cfg.link), grid)

        entries = []
        for size in sizes:
            u, _, y = labelled_pairs(cfg, res.cov, res.model.w_hat, res.w_star, size, f"platt-sweep-{size}")
            try:
                slope, offset = platt_fit(u, y, family)
            except (FitError, DegenerateHoldout) as exc:
                entries.append({"n_ho": size, "error": f"{type(exc).__name__}: {exc}"})
                continue
            platt_grid = calibrate(Platt(slope, offset, family), grid)
            sup = {name: float(np.max(np.abs(platt_grid - ref))) for name, ref in angular_ref.items()}
            entries.append(
                {
                    "n_ho": size,
                    "slope": slope,
                    "offset": offset,
                    "sup_dist_theta_star": sup["theta_star"],
                    "sup_dist_theta_hat": sup.get("theta_hat"),
                }
            )

        summary = {
            **_header("platt-convergence", cfg),
            "grid_points": grid_points,
            "alignment": _alignment_summary(res),
            "sizes": entries,
        }
        # a probit link's own (a, b), a sigmoid's through the probit bridge; a constant link (a = 0) has none
        bridge = {"probit": 1.0, "sigmoid": SIGMOID_PROBIT_BRIDGE}.get(cfg.link.kind)
        if bridge is not None and cfg.link.a != 0:
            slope_star, offset_star = theoretical_AB(res.theta_star, sigma_norm, cfg.link.a * bridge, cfg.link.b * bridge)
            summary["theoretical"] = {"slope": slope_star, "offset": offset_star, "bridge": cfg.link.kind == "sigmoid"}

        # the CSV has one row per size entry; absent numbers print as nan
        columns = ("n_ho", "slope", "offset", "sup_dist_theta_star", "sup_dist_theta_hat", "error")
        rows = [[entry.get(c, "" if c == "error" else None) for c in columns] for entry in entries]
        _write_reports(out_dir, summary, {}, cfg.svg, {"platt_convergence.csv": (columns, rows)})
        return summary


def run_sign_mc(cfg: ExperimentConfig, trials: int = 5000, out_dir: Optional[Path] = None) -> dict:
    """Monte Carlo study of the holdout sign estimator.

    Fits once on all n training rows, then redraws `trials` fresh
    holdouts of size ceil(frac * n), each from its own derived stream.
    Reports the wrong-sign rate with its Wilson 95% interval.
    """
    with _one_blas_thread():
        _require_count(trials, "trials", 1)
        if cfg.sign_holdout_frac <= 0:
            raise ContractError("sign_holdout_frac must be positive for the sign study")
        res = run_pipeline(replace(cfg, sign_holdout_frac=0.0))
        n_ho = math.ceil(cfg.sign_holdout_frac * cfg.n)
        true_sign = 1 if res.inner_true >= 0 else -1
        factor = res.cov.projection_factor(cfg.entry, np.column_stack([res.model.w_hat, res.w_star]))

        wrong = 0
        for k in range(trials):
            gen = rngmod.substream(cfg.seed, "sign-trial", k)
            pair = sample_projections(gen, n_ho, cfg.entry, factor)
            labels = rngmod.bernoulli(gen, cfg.link(pair[:, 1]))
            if sign_estimate(pair[:, 0], labels).value != true_sign:
                wrong += 1

        rate = wrong / trials
        z95 = 1.959963984540054
        denom = 1.0 + z95**2 / trials
        center = (rate + z95**2 / (2 * trials)) / denom
        half = z95 * math.sqrt(rate * (1 - rate) / trials + z95**2 / (4 * trials**2)) / denom
        summary = {
            **_header("sign-mc", cfg),
            "trials": trials,
            "n_holdout": n_ho,
            "wrong": wrong,
            "wrong_rate": rate,
            "wilson95_lo": max(0.0, center - half),
            "wilson95_hi": min(1.0, center + half),
            "alignment": _alignment_summary(res),
        }
        _write_reports(out_dir, summary, {}, cfg.svg, {})
        return summary


def build_multiindex_model(cfg: ExperimentConfig, k_indices: int) -> MultiIndexModel:
    """Synthetic multi-index instance with known true and perturbed fitted indices.

    True columns are unit-Sigma-norm Gaussians; fitted columns mix in the
    next true column and fresh noise, giving nontrivial cross angles.
    """
    _require_count(k_indices, "k_indices", 1)
    cov = cfg.covariance()
    d = cfg.d
    w_true = np.empty((d, k_indices))
    for j in range(k_indices):
        gen = rngmod.substream(cfg.seed, "mi-true", j)
        w = gen.standard_normal(d)
        w_true[:, j] = w / math.sqrt(cov.quad(w))
    w_fit = np.empty((d, k_indices))
    for j in range(k_indices):
        gen = rngmod.substream(cfg.seed, "mi-fit", j)
        noise = gen.standard_normal(d)
        w_fit[:, j] = w_true[:, j] + _MULTI_NOISE * noise
        if k_indices > 1:
            w_fit[:, j] += _MULTI_MIX * w_true[:, (j + 1) % k_indices]
    return MultiIndexModel(w_true=w_true, w_fit=w_fit, cov=cov, link=cfg.link)


def run_multiindex(cfg: ExperimentConfig, k_indices: int = 2, out_dir: Optional[Path] = None) -> dict:
    """Multi-index angular calibration with true cross angles as inputs.

    Emits the reliability table of the multi-index predictor, level-wise
    calibration deltas, the residual-independence check, and (at K=1) the
    max deviation from the single-index angular predictor on the same
    data.
    """
    with _one_blas_thread():
        model = build_multiindex_model(cfg, k_indices)
        params = conditional_params(model)

        directions = np.column_stack([model.w_true, model.w_fit / params.fit_norms])
        gen = rngmod.substream(cfg.seed, "mi-test")
        pairs = sample_logit_pairs(gen, cfg.n_test, cfg.entry, model.cov, directions)
        true_idx = pairs[:, :k_indices]
        fit_idx = pairs[:, k_indices:]
        true_probs = np.mean(model.link(true_idx), axis=-1)
        labels = rngmod.bernoulli(rngmod.substream(cfg.seed, "mi-test-labels"), true_probs)
        preds = angular_predict_multi(fit_idx, params, model.link)

        report, scores, deltas = _evaluation(preds, labels, true_probs)

        # residual-independence check: cov(U, S) should vanish entrywise. The
        # draws are reduced block by block to the sums of U_a S_b and (U_a S_b)^2.
        draws = _MULTI_RESIDUAL_DRAWS
        prod_sum = np.zeros((k_indices, k_indices))
        prod_sq_sum = np.zeros((k_indices, k_indices))
        factor = model.cov.projection_factor(cfg.entry, directions)
        for _, block in projection_blocks(rngmod.substream(cfg.seed, "mi-residual"), draws, cfg.entry, factor):
            res_fit = block[:, k_indices:]
            residual = block[:, :k_indices] - res_fit @ params.mean_map.T
            prod_sum += residual.T @ res_fit
            prod_sq_sum += (residual * residual).T @ (res_fit * res_fit)
        cross_cov = prod_sum / draws
        cross_se = np.sqrt((prod_sq_sum - draws * cross_cov * cross_cov) / (draws - 1) / draws)
        # an exactly zero residual (true and fitted indices collinear) has zero covariance and zero se
        cov_over_se = np.divide(np.abs(cross_cov), cross_se, out=np.zeros_like(cross_se), where=cross_se > 0)
        residual_check = {
            "draws": draws,
            "max_abs_cov": float(np.max(np.abs(cross_cov))),
            "max_se": float(np.max(cross_se)),
            "max_cov_over_se": float(np.max(cov_over_se)),
        }

        summary = {
            **_header("multiindex", cfg),
            "k": k_indices,
            "fit_sigma_norms": [float(v) for v in params.fit_norms],
            "residual_cov_floored": params.floored,
            **scores,
            "delta_p": [{"p_center": d.p_center, "delta": d.delta, "count": d.count} for d in deltas],
            "reliability": reliability_to_dict(report),
            "residual_check": residual_check,
        }

        if k_indices == 1:
            sigma_norm = float(params.fit_norms[0])
            theta = float(np.arccos(np.clip(params.cross[0, 0], -1.0, 1.0)))
            single = angular_predict(fit_idx[:, 0] * sigma_norm, theta, sigma_norm, cfg.link)
            summary["single_index_max_diff"] = float(np.max(np.abs(preds - single)))

        _write_reports(out_dir, summary, {"multiindex": report}, cfg.svg, {})
        return summary
