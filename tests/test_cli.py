"""CLI wiring: exit codes, determinism, config files, report schemas."""

import argparse
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angcal import cli, errors, evaluate, experiments, mestimator
from angcal import rng as rngmod
from angcal.cli import build_parser, main
from angcal.experiments import DEFAULT_CALIBRATORS, ExperimentConfig, cov_fields
from angcal.links import LinkFunction
from angcal.calibrators import (
    Angular,
    Chance,
    Platt,
    Uncalibrated,
    angular_predict,
    chance_value,
    link_expectation,
    platt_fit,
    theoretical_AB,
)
from angcal.mestimator import FittedModel, fit
from angcal.observable import angle_estimate, compute_intermediates
from angcal.output import dumps_json
from angcal.synth import Covariance, Dataset, make_synthetic_dataset, sample_design
from helpers import write_holdout_csv

_SRC = str(Path(__file__).resolve().parent.parent / "src")
SMALL = [
    "--n", "200", "--d", "100", "--n-test", "2000", "--platt-holdout", "1000", "--seed", "17",
]


def run_cli(args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse errors
        return exc.code


def _read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def _long_flags():
    """Subcommand -> its long flags but --help and --config."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in sub._actions for flag in action.option_strings if flag.startswith("--")}
        - {"--help", "--config"}
        for name, sub in subparsers.choices.items()
    }


def _capture_drivers(monkeypatch):
    """Replace every driver `cli` calls with one that records its keywords."""
    calls = []
    for name in ("run_simulate", "run_universality", "run_sign_mc", "run_platt_convergence", "run_multiindex"):
        monkeypatch.setattr(cli, name, lambda **kw: calls.append(kw))
    return calls


class TestExitCodes:
    def test_success(self, tmp_path):
        assert run_cli(["simulate", *SMALL, "--out", str(tmp_path / "ok")]) == 0

    def test_config_error_is_2(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--n-test", "0", "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "ContractError" in capsys.readouterr().err

    def test_unknown_flag_is_2(self):
        assert run_cli(["simulate", "--frobnicate"]) == 2

    def test_bad_link_is_2(self, tmp_path):
        assert run_cli(["simulate", "--link", "cauchy:1:0", "--out", str(tmp_path / "x")]) == 2

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        holdout = tmp_path / "ho.csv"
        header = ",".join([f"f{j}" for j in range(100)] + ["label"])
        holdout.write_text(header + "\n" + ",".join(["0.1"] * 100 + ["oops"]) + "\n")
        rc = run_cli(
            ["simulate", *SMALL, "--sign-holdout-file", str(holdout), "--out", str(tmp_path / "y")]
        )
        assert rc == 3
        assert "IngestError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, row", [(b"a\xe9,b,y\n1,2,1\n", 1), (b"a,b,y\n1,2,1\n3,\xe9,1\n", 3)], ids=["header", "data-row"]
    )
    def test_non_utf8_holdout_is_3(self, content, row, tmp_path, capsys):
        # decoding failed inside the csv reader: a UnicodeDecodeError traceback, exit 1
        holdout = tmp_path / "bad.csv"
        holdout.write_bytes(content)
        out = tmp_path / "never"
        rc = run_cli(["simulate", "--n", "50", "--d", "2", "--sign-holdout-file", str(holdout), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("IngestError: ") and len(err.splitlines()) == 1
        assert err.endswith(f"is not UTF-8 text: invalid continuation byte (row {row})\n") and not out.exists()

    def test_memory_error_in_a_driver_is_3(self, tmp_path, capsys, monkeypatch):
        # a MemoryError used to escape as a traceback with exit 1 and leave the directory behind
        class _ArrayMemoryError(MemoryError):  # numpy raises a subclass of this name
            pass

        message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

        def no_memory(*args, **kwargs):
            raise _ArrayMemoryError(message)

        monkeypatch.setattr(experiments, "make_synthetic_dataset", no_memory)
        out = tmp_path / "never"
        assert run_cli(["simulate", *SMALL, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"MemoryError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "1", "--d", "2", "--seed", "0", "--link", "sigmoid:0:0", "--cov", "ar1:0", "--n-test", "1",
             "--platt-holdout", "1", "--sign-holdout-frac", "0", "--calibrators", "uncalibrated,angular"],
            ["--n", "50", "--d", "400", "--n-test", "500", "--platt-holdout", "500"],
        ],
        ids=["n1-d2", "n50-d400"],
    )
    def test_separable_fit_at_tiny_ridge_fails_in_one_line(self, argv, tmp_path, capsys):
        # the wide fit converges at lambda 1e-300 to a huge w_hat, whose logit adjustment
        # (about 1/lambda) overflows the inner-product terms: one line, no RuntimeWarning or nan
        out = tmp_path / "never"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["simulate", *argv, "--lambda", "1e-300", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("DegenerateModel: the inner-product estimate overflows float64 at logit")
        assert len(err.splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("shape", [["--n", "50", "--d", "400"], ["--n", "30", "--d", "40"]], ids=["n50-d400", "n30-d40"])
    def test_ridge_that_underflows_per_feature_is_2(self, shape, tmp_path, capsys):
        # lam / d rounds to 0, so the objective is not strictly convex: refused before anything is drawn
        out = tmp_path / "never"
        rc = run_cli(["simulate", *shape, "--lambda", "5e-324", "--n-test", "200", "--platt-holdout", "200", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("ContractError: ridge strength lam = 5e-324 underflows")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_universality_rejects_gaussian(self, tmp_path, capsys):
        rc = run_cli(["universality", *SMALL, "--entry", "gaussian", "--out", str(tmp_path / "z")])
        assert rc == 2
        assert "simulate" in capsys.readouterr().err

    def test_zero_weight_fit_is_3(self, tmp_path, capsys):
        rc = run_cli(["sign-mc", "--n", "40", "--d", "30", "--lambda", "1e300", "--trials", "3", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("DegenerateModel: ")

    def test_unknown_calibrator_is_2(self, tmp_path):
        rc = run_cli(["simulate", *SMALL, "--calibrators", "angular,tempscale", "--out", str(tmp_path / "c")])
        assert rc == 2

    def test_repeated_calibrator_is_2(self, tmp_path, capsys):
        # the summary listed platt twice in its config echo but held one platt entry
        out = tmp_path / "never"
        assert run_cli(["simulate", *SMALL, "--calibrators", "platt,angular,platt", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "ContractError: calibrators must be distinct: 'platt' is repeated\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_unusable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, below):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        runs = []
        monkeypatch.setattr(cli, "run_sign_mc", lambda **kw: runs.append(kw))
        out = blocker / "sub" if below else blocker
        rc = run_cli(["sign-mc", "--n", "40", "--d", "30", "--trials", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and runs == []
        assert err.startswith(f"ContractError: cannot create output directory {out}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags, config",
        [(["--cov", "ar2"], ""), ([], "svg = maybe\n"), (["--entry", "foo"], ""), ([], "platt-family = logit\n")],
        ids=["cov", "svg", "entry", "platt-family"],
    )
    def test_unparsable_value_is_2(self, flags, config, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        rc = run_cli(["simulate", *SMALL, *flags, "--config", str(cfg), "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("ContractError: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "content, message",
        [(b"n = \xff\n", "cannot read config file"), (b"out = a\x00b\n", "cannot create output directory")],
        ids=["not-utf8", "nul-in-out"],
    )
    def test_malformed_config_bytes_are_2(self, content, message, tmp_path, capsys):
        # these exited 2 with a bare UnicodeDecodeError or ValueError line
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        assert run_cli(["simulate", *SMALL, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ContractError: {message}") and len(err.splitlines()) == 1

    def test_failed_run_leaves_no_directory(self, tmp_path):
        out = tmp_path / "never"
        assert run_cli(["platt-convergence", *SMALL, "--sizes", "100,50", "--out", str(out)]) == 2
        assert not out.exists()

    def test_singular_covariance_is_3(self, tmp_path, capsys):
        # the operator is built with the configuration, before any output directory
        out = tmp_path / "never"
        assert run_cli(["simulate", *SMALL, "--cov", "ar1:0.9999999", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("SingularCovariance: ") and len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()


def _fit_warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning: Newton fit")]


class TestNonConvergedFit:
    @pytest.mark.parametrize(
        "args, fits",
        [
            (["simulate", *SMALL], 1),
            (["sign-mc", *SMALL, "--trials", "20"], 1),
            (["platt-convergence", *SMALL, "--sizes", "80"], 1),
            (["universality", *SMALL, "--entry", "rademacher"], 2),
        ],
        ids=["simulate", "sign-mc", "platt-convergence", "universality"],
    )
    def test_one_warning_per_fit(self, args, fits, tmp_path, monkeypatch, capsys):
        real_fit = experiments.fit
        monkeypatch.setattr(experiments, "fit", lambda *a, **k: replace(real_fit(*a, **k), converged=False))
        out = tmp_path / "run"
        assert run_cli([*args, "--out", str(out)]) == 0
        lines = _fit_warnings(capsys.readouterr().err)
        assert len(lines) == fits
        assert all("grad_norm=" in line and "n_iter=" in line for line in lines)
        if args[0] == "simulate":
            assert json.loads((out / "summary.json").read_text())["fit"]["converged"] is False

    def test_converged_fit_is_silent(self, tmp_path, capsys):
        assert run_cli(["simulate", *SMALL, "--out", str(tmp_path / "ok")]) == 0
        assert _fit_warnings(capsys.readouterr().err) == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", *SMALL],
            ["sign-mc", *SMALL, "--trials", "120"],
            ["platt-convergence", *SMALL, "--sizes", "80,400"],
            ["universality", *SMALL, "--entry", "rademacher"],
            ["multiindex", "--d", "30", "--k", "2", "--n-test", "4000", "--seed", "17"],
        ],
        ids=["simulate", "sign-mc", "platt-convergence", "universality", "multiindex"],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        assert run_cli([*args, "--out", str(tmp_path / "a")]) == 0
        assert run_cli([*args, "--out", str(tmp_path / "b")]) == 0
        first, second = _read_dir(tmp_path / "a"), _read_dir(tmp_path / "b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--n", "300", "--d", "600", "--n-test", "2000", "--platt-holdout", "2000", "--seed", "17"],
            ["universality", *SMALL, "--entry", "rademacher"],
        ],
        ids=["simulate", "universality"],
    )
    def test_byte_identical_at_any_blas_thread_count(self, tmp_path, args):
        # both shapes write different last digits under 1 and 2 OpenBLAS threads unless the drivers pin one
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": _SRC}
            out = tmp_path / threads
            result = subprocess.run(
                [sys.executable, "-m", "angcal", *args, "--out", str(out)], env=env, capture_output=True, text=True, timeout=120
            )
            assert result.returncode == 0, result.stderr
            outputs.append(_read_dir(out))
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between 1 and 2 BLAS threads"

    def test_drivers_run_on_one_blas_thread_and_restore_the_count(self, tmp_path, monkeypatch):
        controls = mestimator._openblas_thread_controls()
        if not controls:
            pytest.skip("this BLAS build has no OpenBLAS thread-count functions")
        saved = [get() for get, _ in controls]
        inside = []
        summarize = experiments._simulate_summary

        def recording(cfg):
            inside.append([get() for get, _ in controls])
            return summarize(cfg)

        monkeypatch.setattr(experiments, "_simulate_summary", recording)
        fitting, inside_fit = experiments.fit, []

        def recording_fit(*args):
            inside_fit.append([get() for get, _ in controls])
            return fitting(*args)

        try:
            for _, set_threads in controls:
                set_threads(2)
            assert run_cli(["simulate", *SMALL, "--out", str(tmp_path / "run")]) == 0
            after = [get() for get, _ in controls]
            # a library caller of run_pipeline gets the pin too, and its count back
            monkeypatch.setattr(experiments, "fit", recording_fit)
            experiments.run_pipeline(ExperimentConfig(n=200, d=100, n_test=200, platt_holdout=200, seed=17))
            after_pipeline = [get() for get, _ in controls]
            # fit and compute_intermediates called on their own factorize on one thread too, on either side
            inside_factor = []

            def recording_factor(factor):
                def recorded(system, *args):
                    inside_factor.append([get() for get, _ in controls])
                    return factor(system, *args)

                return recorded

            for route in (mestimator._FeatureSystem, mestimator._GramSystem):
                monkeypatch.setattr(route, "factor", recording_factor(route.factor))
            for n, d in ((120, 40), (40, 120)):
                cov = Covariance(d)
                dataset, _ = make_synthetic_dataset(n, cov, LinkFunction("sigmoid", 3.0, 1.0), 5)
                compute_intermediates(dataset, fit(dataset, 0.5, cov))
            after_direct = [get() for get, _ in controls]
        finally:
            for (_, set_threads), count in zip(controls, saved):
                set_threads(count)
        assert inside == inside_fit == [[1] * len(controls)] and after == after_pipeline == [2] * len(controls)
        assert inside_factor and all(counts == [1] * len(controls) for counts in inside_factor)
        assert after_direct == [2] * len(controls)

    def test_pipeline_is_independent_of_the_blas_thread_count(self):
        # a d > n fit whose grad_norm read 2.763071685827568e-12 at one OpenBLAS thread
        # and 2.7630717094172215e-12 at two before run_pipeline pinned one itself; the same
        # fit called on its own, and the Gram-route dof of criterion 9(c)'s seed-103 and
        # seed-104 instances, moved in their last bits until fit and compute_intermediates
        # pinned one thread themselves. The n = 2700, d = 1000 summary (n_train 2430) takes
        # its d-side Newton steps by conjugate gradients, whose products are BLAS-2
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from angcal import mestimator, observable\n"
            "from angcal.experiments import ExperimentConfig, _simulate_summary, run_pipeline\n"
            "from angcal.links import LinkFunction\n"
            "from angcal.output import dumps_json\n"
            "from angcal.synth import Covariance, Dataset, make_synthetic_dataset\n"
            "print(repr(run_pipeline(ExperimentConfig(n=300, d=600, n_test=2000, platt_holdout=2000, seed=17)).model.grad_norm))\n"
            "summary, _ = _simulate_summary(ExperimentConfig(n=2700, d=1000, n_test=2000, platt_holdout=2000, seed=17))\n"
            "print(hashlib.sha256(dumps_json(summary).encode()).hexdigest())\n"
            "cov = Covariance.ar1(0.5, 600)\n"
            "dataset = make_synthetic_dataset(300, cov, LinkFunction('sigmoid', 3.0, 1.0), 17)[0]\n"
            "print(hashlib.sha256(mestimator.fit(dataset, 0.5, cov).w_hat.tobytes()).hexdigest())\n"
            "observable._penalized_system = mestimator._GramSystem\n"
            "for seed in (103, 104):\n"
            "    inst = np.random.default_rng(seed)\n"
            "    X, y = inst.standard_normal((8, 3)), inst.integers(0, 2, 8).astype(float)\n"
            "    model = mestimator.FittedModel(w_hat=0.5 * inst.standard_normal(3), sigma_norm=1.0, lam=0.7,\n"
            "                                   converged=True, grad_norm=0.0, n_iter=0, objective=0.0)\n"
            "    print(repr(observable.compute_intermediates(Dataset(X=X, y=y), model).dof))\n"
        )
        printed = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": _SRC}
            result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            printed.append(result.stdout)
        assert printed[0] == printed[1]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run_cli(["simulate", *SMALL, "--svg", "--out", str(out)]) == 0
    return out


class TestSimulateOutputs:
    def test_summary_schema(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["schema"] == 2
        assert summary["command"] == "simulate"
        assert set(summary["calibrators"]) == {
            "uncalibrated", "angular", "platt", "isotonic", "chance",
        }
        align = summary["alignment"]
        assert align["sign_est"] in (-1, 1)
        assert 0.0 <= align["theta_hat"] <= np.pi
        for info in summary["calibrators"].values():
            assert 0.0 <= info["ece"] <= 1.0

    def test_reliability_csv_schema(self, run_dir):
        lines = (run_dir / "reliability_angular.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,mean_pred,mean_obs,mean_true"
        assert len(lines) == 11  # 10 bins + header
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 2000

    def test_reliability_blocks_keep_their_key_order(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        for info in summary["calibrators"].values():
            block = info["reliability"]
            assert list(block) == ["scheme", "n_bins", "n_points", "ece", "bins"]
            for b in block["bins"]:
                assert list(b) == ["lo", "hi", "count", "mean_pred", "mean_obs", "mean_true"]

    def test_empty_bins_read_null_in_json_and_nan_in_csv(self, run_dir):
        # the chance calibrator predicts one value, so every bin but one is empty
        bins = json.loads((run_dir / "summary.json").read_text())["calibrators"]["chance"]["reliability"]["bins"]
        rows = (run_dir / "reliability_chance.csv").read_text().splitlines()[1:]
        empty = [k for k, b in enumerate(bins) if b["count"] == 0]
        assert len(empty) == 9
        for k in empty:
            assert bins[k]["mean_pred"] is None and bins[k]["mean_obs"] is None
            assert rows[k].split(",")[2:] == ["0", "nan", "nan", "nan"]

    def test_svg_written(self, run_dir):
        text = (run_dir / "reliability.svg").read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_platt_fit_failure_is_recorded(self, tmp_path):
        # sigmoid(0u+50) labels are all ones: the Platt holdout has one class
        out = tmp_path / "flat"
        rc = run_cli(
            ["simulate", "--n", "200", "--d", "40", "--link", "sigmoid:0:50",
             "--n-test", "500", "--platt-holdout", "500", "--out", str(out)]
        )
        assert rc == 0
        platt = json.loads((out / "summary.json").read_text())["calibrators"]["platt"]
        assert list(platt) == ["error"] and platt["error"].startswith("DegenerateHoldout: ")
        assert not (out / "reliability_platt.csv").exists()

    def test_sigmoid_platt_family(self, tmp_path):
        out = tmp_path / "sigmoid"
        assert run_cli(["simulate", *SMALL, "--platt-family", "sigmoid", "--out", str(out)]) == 0
        platt = json.loads((out / "summary.json").read_text())["calibrators"]["platt"]
        assert platt["params"]["family"] == "sigmoid(1u+0)"

    def test_floats_use_17_significant_digits(self, run_dir):
        raw = (run_dir / "summary.json").read_text()
        # shortest-repr artifacts like 0.1 would serialize as 0.1; the fixed
        # format renders the full 17-digit expansion instead
        assert '"sign_holdout_frac": 0.10000000000000001' in raw


# long flag -> (its text in a config file, the ExperimentConfig field or driver
# keyword it sets, the value that arrives); each value differs from its default
_FILE_VALUES = {
    "--n": ("7", "n", 7),
    "--d": ("9", "d", 9),
    "--lambda": ("0.25", "lam", 0.25),
    "--seed": ("5", "seed", 5),
    "--link": ("probit:1:0.3", "link", LinkFunction("probit", 1.0, 0.3)),
    "--entry": ("uniform", "entry", "uniform"),
    "--cov": ("ar1:0.25", "cov_rho", 0.25),
    "--n-test": ("11", "n_test", 11),
    "--platt-holdout": ("13", "platt_holdout", 13),
    "--sign-holdout-frac": ("0.25", "sign_holdout_frac", 0.25),
    "--sign-holdout-file": ("ho.csv", "sign_holdout_file", "ho.csv"),
    "--calibrators": ("platt, chance", "calibrators", ("platt", "chance")),
    "--platt-family": ("sigmoid", "platt_family", "sigmoid"),
    "--svg": ("yes", "svg", True),
    "--out": (None, "out_dir", None),  # a path under the test's tmp_path
    "--sizes": ("5,50", "holdout_sizes", (5, 50)),
    "--grid-points": ("17", "grid_points", 17),
    "--trials": ("19", "trials", 19),
    "--k": ("3", "k_indices", 3),
}


@pytest.mark.parametrize("char", [chr(c) for c in range(0x20)] + ['"', "\\"], ids=lambda c: f"U+{ord(c):04X}")
def test_json_strings_round_trip(char):
    text = f"a{char}b"
    assert json.loads(dumps_json({"key": text})) == {"key": text}


class TestConfigFile:
    def test_file_values_applied_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment at reduced scale\n"
            "n = 150\n"
            "d = 60\n"
            "n-test = 1500\n"
            "platt_holdout = 800\n"
            "seed = 23\n"
        )
        out = tmp_path / "r1"
        rc = run_cli(["simulate", "--config", str(cfg), "--seed", "29", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["n"] == 150
        assert summary["config"]["d"] == 60
        assert summary["config"]["seed"] == 29  # flag overrides file

    def test_svg_from_file(self, tmp_path):
        cfg = tmp_path / "svg.cfg"
        cfg.write_text("svg = yes\n")
        out = tmp_path / "s"
        assert run_cli(["simulate", *SMALL, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "reliability.svg").exists()

    def test_bare_ar1_means_rho_one_half(self, tmp_path):
        for cov in ("ar1", "ar1:0.5"):
            assert run_cli(["simulate", *SMALL, "--cov", cov, "--out", str(tmp_path / cov)]) == 0
        assert _read_dir(tmp_path / "ar1") == _read_dir(tmp_path / "ar1:0.5")

    def test_identity_means_ar1_at_zero(self, tmp_path):
        # the two wrote the same numbers but echoed the config as "identity" and "ar1:0"
        for cov in ("identity", "ar1:0"):
            assert run_cli(["simulate", *SMALL, "--cov", cov, "--out", str(tmp_path / cov)]) == 0
        assert _read_dir(tmp_path / "identity") == _read_dir(tmp_path / "ar1:0")
        assert json.loads((tmp_path / "ar1:0" / "summary.json").read_text())["config"]["cov"] == "identity"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a file saved with a BOM failed on its first key, read as '\ufeffn'
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn = 200\n")
        out = tmp_path / "b"
        assert run_cli(["simulate", "--d", "100", "--n-test", "200", "--platt-holdout", "200",
                        "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["n"] == 200

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 2

    def test_every_long_flag_is_a_config_key(self, tmp_path, monkeypatch):
        calls = _capture_drivers(monkeypatch)
        flags = _long_flags()
        assert set().union(*flags.values()) == set(_FILE_VALUES)
        cfg = tmp_path / "one.cfg"
        for command, command_flags in flags.items():
            for flag in sorted(command_flags):
                text, dest, expected = _FILE_VALUES[flag]
                if flag == "--out":
                    text, expected = str(tmp_path / "from-file"), tmp_path / "from-file"
                cfg.write_text(f"{flag[2:]} = {text}\n")
                out = [] if flag == "--out" else ["--out", str(tmp_path / "o")]
                assert run_cli([command, "--config", str(cfg), *out]) == 0, (command, flag)
                kwargs = calls.pop()
                got = kwargs[dest] if dest in kwargs else getattr(kwargs["cfg"], dest)
                assert got == expected, (command, flag, got)

    def test_other_subcommands_keys_ignored(self, tmp_path, monkeypatch):
        calls = _capture_drivers(monkeypatch)
        cfg = tmp_path / "other.cfg"
        cfg.write_text("trials = 7\nk = 3\nsizes = 5\n")
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert set(calls[0]) == {"cfg", "out_dir"}

    def test_out_from_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a default run-<seed>-<timestamp> directory would land here
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"out = {tmp_path / 'from-file'}\n")
        assert run_cli(["simulate", *SMALL, "--config", str(cfg)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["from-file", "out.cfg"]
        assert (tmp_path / "from-file" / "summary.json").exists()

    @pytest.mark.parametrize(
        "command, key, text",
        [
            ("simulate", "n", "abc"),
            ("simulate", "lambda", "half"),
            ("multiindex", "k", "2.5"),
            ("sign-mc", "trials", ""),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_unparsable_number_names_its_key(self, command, key, text, source, tmp_path, capsys):
        cfg = tmp_path / "num.cfg"
        cfg.write_text(f"{key} = {text}\n" if source == "file" else "")
        flags = [f"--{key}={text}"] if source == "flag" else []
        assert run_cli([command, *flags, "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err == f"ContractError: --{key}: cannot parse {text!r}\n"
        assert not (tmp_path / "v").exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("just words\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 2


_TINY = dict(n=40, d=6, n_test=50, platt_holdout=50, seed=2)
_PROBS = np.linspace(0.05, 0.95, 7)
# id -> (the size's name in the error, a call taking the size)
_SIZED_CALLS = {
    "n": ("n", lambda v: ExperimentConfig(**{**_TINY, "n": v})),
    "d": ("d", lambda v: ExperimentConfig(**{**_TINY, "d": v})),
    "n_test": ("n_test", lambda v: ExperimentConfig(**{**_TINY, "n_test": v})),
    "platt_holdout": ("platt_holdout", lambda v: ExperimentConfig(**{**_TINY, "platt_holdout": v})),
    "trials": ("trials", lambda v: experiments.run_sign_mc(ExperimentConfig(**_TINY), trials=v)),
    "k_indices": ("k_indices", lambda v: experiments.run_multiindex(ExperimentConfig(**_TINY), k_indices=v)),
    "holdout_sizes": (
        "holdout size", lambda v: experiments.run_platt_convergence(ExperimentConfig(**_TINY), holdout_sizes=(v, 300))
    ),
    "grid_points": (
        "grid_points",
        lambda v: experiments.run_platt_convergence(ExperimentConfig(**_TINY), holdout_sizes=(50,), grid_points=v),
    ),
    "covariance_dim": ("covariance dimension", lambda v: Covariance.ar1(0.5, v)),
    "design_rows": ("design rows n", lambda v: sample_design(v, Covariance.ar1(0.5, 3))),
    "reliability_bins": ("n_bins", lambda v: evaluate.reliability(_PROBS, _PROBS > 0.5, n_bins=v)),
    "level_bins": ("n_bins", lambda v: evaluate.cal_error_at_level(_PROBS, _PROBS, n_bins=v)),
    "oracle_bins": ("n_bins", lambda v: evaluate.binned_conditional_mean(_PROBS, _PROBS, n_bins=v)),
}


_SIGMOID = LinkFunction("sigmoid", 3.0, 1.0)

# id -> (a call with one ill-typed setting, the start of its error)
_ILL_TYPED_CALLS = {
    "seed-real": (lambda: ExperimentConfig(**{**_TINY, "seed": 1.5}), "seed must be an integer"),
    "seed-bool": (lambda: ExperimentConfig(**{**_TINY, "seed": True}), "seed must be an integer"),
    "lam-bool": (lambda: ExperimentConfig(**{**_TINY, "lam": True}), "ridge strength"),
    "lam-text": (lambda: ExperimentConfig(**{**_TINY, "lam": "0.5"}), "ridge strength"),
    "link-text": (lambda: ExperimentConfig(**{**_TINY, "link": "sigmoid:3:1"}), "link must be a LinkFunction"),
    "cov_rho-text": (lambda: ExperimentConfig(**{**_TINY, "cov_rho": "0.5"}), "ar1 correlation"),
    "cov_rho-bool": (lambda: ExperimentConfig(**{**_TINY, "cov_rho": False}), "ar1 correlation"),
    "sign_holdout_frac-text": (lambda: ExperimentConfig(**{**_TINY, "sign_holdout_frac": "0.1"}), "sign_holdout_frac"),
    "sign_holdout_frac-bool": (lambda: ExperimentConfig(**{**_TINY, "sign_holdout_frac": False}), "sign_holdout_frac"),
    "substream-real": (lambda: rngmod.substream(1.5, "t"), "seed must be an unsigned 64-bit integer"),
    "substream-bool": (lambda: rngmod.substream(True, "t"), "seed must be an unsigned 64-bit integer"),
    "covariance-scale-bool": (lambda: Covariance(3, scale=True), "covariance scale"),
    "covariance-scale-text": (lambda: Covariance(3, scale="1"), "covariance scale"),
    "covariance-rho-text": (lambda: Covariance(3, rho="0.5"), "ar1 correlation"),
    "fit-lam-bool": (lambda: fit(Dataset(X=np.eye(2), y=np.array([0.0, 1.0])), True, Covariance(2)), "ridge strength"),
    "fitted-model-lam-zero": (
        lambda: FittedModel(np.zeros(2), 1.0, 0.0, converged=True, grad_norm=0.0, n_iter=0, objective=0.0),
        "ridge strength",
    ),
    "svg-text": (lambda: ExperimentConfig(**{**_TINY, "svg": "no"}), "svg must be a bool"),
    "sign_holdout_file-int": (lambda: ExperimentConfig(**{**_TINY, "sign_holdout_file": 3}), "sign_holdout_file"),
    "calibrators-text": (lambda: ExperimentConfig(**{**_TINY, "calibrators": "angular"}), "calibrators must be"),
    "link-a-text": (lambda: LinkFunction("sigmoid", "3", 0), "link parameters"),
    "link-b-none": (lambda: LinkFunction("sigmoid", 3, None), "link parameters"),
    "link-a-bool": (lambda: LinkFunction("sigmoid", True, 0), "link parameters"),
    "link-a-huge-int": (lambda: LinkFunction("sigmoid", 10**400, 0), "link parameters"),
    "lam-huge-int": (lambda: ExperimentConfig(**{**_TINY, "lam": 10**400}), "ridge strength"),
    "covariance-scale-huge-int": (lambda: Covariance(3, scale=10**400), "covariance scale"),
    "theoretical_AB-a-nan": (lambda: theoretical_AB(0.3, 1.0, float("nan"), 0.0), "link parameters"),
    "theoretical_AB-b-inf": (lambda: theoretical_AB(0.3, 1.0, 1.0, float("inf")), "link parameters"),
    "angle_estimate-sign-bool": (lambda: angle_estimate(0.5, True, 1.0), "sign must be"),
    "angle_estimate-inner_sq-bool": (lambda: angle_estimate(True, 1, 1.0), "inner_sq must be a finite real"),
    "angle_estimate-sigma_norm-bool": (lambda: angle_estimate(0.5, 1, True), "sigma_norm must be a finite real"),
    "angle_estimate-sigma_norm-text": (lambda: angle_estimate(0.5, 1, "1.0"), "sigma_norm must be a finite real"),
    "theoretical_AB-theta-bool": (lambda: theoretical_AB(True, 1.0, 1.0, 0.0), "theta must be"),
    "theoretical_AB-sigma_norm-bool": (lambda: theoretical_AB(0.3, True, 1.0, 0.0), "sigma_norm must be"),
    "theoretical_AB-theta-above-pi": (lambda: theoretical_AB(5.0, 1.0, 1.0, 0.0), "theta must be"),
    "theoretical_AB-theta-negative": (lambda: theoretical_AB(-1.0, 1.0, 1.0, 0.0), "theta must be"),
    "theoretical_AB-theta-text": (lambda: theoretical_AB("0.3", 1.0, 1.0, 0.0), "theta must be"),
    "angular_predict-sigma_norm-bool": (lambda: angular_predict(0.5, 0.5, True, _SIGMOID), "sigma_norm must be"),
    "angular_predict-theta-bool": (lambda: angular_predict(0.5, True, 1.0, _SIGMOID), "theta must be"),
    "angular-theta-text": (lambda: Angular("1", 1.0, _SIGMOID), "theta must be"),
    "angular-sigma_norm-text": (lambda: Angular(0.5, "1", _SIGMOID), "sigma_norm must be"),
    "angular-link-text": (lambda: Angular(0.5, 1.0, "sigmoid"), "link must be a LinkFunction"),
    "uncalibrated-link-text": (lambda: Uncalibrated("x"), "link must be a LinkFunction"),
    "platt-family-text": (lambda: Platt(1.0, 0.0, "s"), "link must be a LinkFunction"),
    "platt-slope-bool": (lambda: Platt(True, 0.0, _SIGMOID), "Platt slope and offset"),
    "platt-slope-text": (lambda: Platt("1", 0.0, _SIGMOID), "Platt slope and offset"),
    "chance-link-text": (lambda: Chance("s"), "link must be a LinkFunction"),
    "chance_value-link-text": (lambda: chance_value("s"), "link must be a LinkFunction"),
    "platt_fit-link-text": (lambda: platt_fit([0.0, 1.0], [0.0, 1.0], "sigmoid"), "link must be a LinkFunction"),
    "link_expectation-scale-negative-sigmoid": (lambda: link_expectation(_SIGMOID, 0.0, -1.0), "scale must be"),
    "link_expectation-scale-negative-crelu": (
        lambda: link_expectation(LinkFunction("crelu", 3.0, 0.5), 0.0, -1.0), "scale must be"
    ),
    "link_expectation-scale-bool": (lambda: link_expectation(_SIGMOID, 0.0, True), "scale must be"),
}


@pytest.mark.parametrize("name", sorted(_ILL_TYPED_CALLS))
def test_ill_typed_settings_rejected(name):
    # ExperimentConfig(seed=1.5) ran the seed-1 streams but wrote "seed": 1.5, lam=True was
    # written as "lambda": true, and a text link, lam, cov_rho or sign_holdout_frac raised
    # a bare TypeError; svg="no" wrote reliability.svg, sign_holdout_file=3 raised a bare
    # TypeError in run_pipeline, and calibrators="angular" named the calibrator 'a';
    # LinkFunction took a=True and raised a bare TypeError on a text or None parameter,
    # theoretical_AB returned nan or -inf for a non-finite a or b, and angle_estimate
    # took the sign True; an int beyond the float range raised a bare TypeError from np.isfinite;
    # angle_estimate, theoretical_AB and angular_predict took True as an angle or a Sigma-norm, a
    # text angle or norm raised a bare TypeError, theoretical_AB answered for theta outside
    # [0, pi], a link that is not a LinkFunction failed with a bare TypeError or AttributeError
    # at first use, Platt took slope=True, and link_expectation took a negative or a bool scale
    call, what = _ILL_TYPED_CALLS[name]
    with pytest.raises(errors.ContractError, match=what):
        call()


def test_numpy_scalar_settings_accepted():
    numpy_scalars = {
        "seed": np.uint64(2), "lam": np.float64(0.5), "cov_rho": np.float32(0.25), "sign_holdout_frac": np.float64(0.1)
    }
    cfg = ExperimentConfig(**{**_TINY, **numpy_scalars})
    assert cfg.covariance().rho == 0.25 and rngmod.substream(cfg.seed, "t") is not None
    # the echo writes the rho the covariance uses, float(np.float32(0.1)), not the float32's short text 0.1
    assert cov_fields(replace(cfg, cov_rho=np.float32(0.1)).describe()["cov"]) == float(np.float32(0.1))


def test_path_and_list_settings_kept_as_text_and_tuple(tmp_path):
    cfg = ExperimentConfig(**_TINY, sign_holdout_file=tmp_path / "h.csv", calibrators=["platt", "chance"])
    assert cfg.sign_holdout_file == str(tmp_path / "h.csv") and cfg.calibrators == ("platt", "chance")
    assert LinkFunction("probit", np.int64(2), np.float32(0.5)) == LinkFunction("probit", 2.0, 0.5)


def _link_from_label(label):
    kind, a, b = re.fullmatch(r"(\w+)\((.+)u([+-].+)\)", label).groups()
    return LinkFunction(kind, float(a), float(b))


@pytest.mark.parametrize("rho, a, b", [(0.1234567, 2.718281828, 0.3333333), (-0.25, 1 / 3, -1e300), (0.3, 0.5, -0.0)])
def test_config_echo_holds_every_field_but_svg_and_reads_back(rho, a, b, tmp_path):
    # the echo wrote ar1:0.123457 and probit(2.71828u+0.333333) for the first case
    cfg = ExperimentConfig(
        n=7, d=9, lam=0.25, seed=3, link=LinkFunction("probit", a, b), entry="uniform", cov_rho=rho, n_test=5,
        platt_holdout=6, sign_holdout_frac=0.25, sign_holdout_file=tmp_path / "h.csv",
        calibrators=["platt", "isotonic"], platt_family="sigmoid", svg=True,
    )
    declared = fields(ExperimentConfig)
    for f in declared:  # each field is off its default, so the check sees its own value
        assert getattr(cfg, f.name) != (f.default_factory() if f.default is MISSING else f.default), f.name
    summary_names = [{"lam": "lambda", "cov_rho": "cov"}.get(f.name, f.name) for f in declared if f.name != "svg"]
    echo = cfg.describe()
    assert list(echo) == summary_names
    read_back = echo | {
        "link": _link_from_label(echo["link"]),
        "cov": cov_fields(echo["cov"]),
        "calibrators": tuple(echo["calibrators"]),
    }
    assert [read_back[name] for name in summary_names] == [getattr(cfg, f.name) for f in declared if f.name != "svg"]


@pytest.mark.parametrize("name", sorted(_SIZED_CALLS))
def test_sizes_must_be_integers(name):
    # ExperimentConfig(n=300.5) used to be accepted and fail later with a bare TypeError,
    # as did run_sign_mc(trials=2.5), run_multiindex(k_indices=1.5), Covariance.ar1(0.5, 2.5),
    # sample_design(2.5, ...) and reliability(..., n_bins=2.5); cal_error_at_level took
    # n_bins=2.5 on small inputs, and ExperimentConfig(n=True) was accepted; run_platt_convergence
    # ran holdout sizes (100.7, 300) as 100 and a size of True as 1, raised a bare TypeError at
    # grid_points=2.5 and wrote grid_points=True as true
    what, call = _SIZED_CALLS[name]
    for value in (1.5, 2.0, 0, np.float64(2.0), True):
        with pytest.raises(errors.ContractError, match=f"{what} must be an integer"):
            call(value)
    call(np.int64(2))


def test_unset_keys_take_the_config_and_driver_defaults(tmp_path, monkeypatch):
    """With no flags, each driver gets the reference configuration and its own keyword defaults."""
    def default(driver, keyword):
        return inspect.signature(driver).parameters[keyword].default

    assert default(experiments.run_sign_mc, "trials") == 5000
    assert tuple(default(experiments.run_platt_convergence, "holdout_sizes")) == (100, 1000, 10000)
    assert default(experiments.run_platt_convergence, "grid_points") == 1000
    assert default(experiments.run_multiindex, "k_indices") == 2
    reference = ExperimentConfig(
        n=1000, d=2000, lam=0.5, seed=1, link=LinkFunction.parse("sigmoid:3:1"), entry="gaussian",
        cov_rho=0.5, n_test=20000, platt_holdout=20000, sign_holdout_frac=0.1,
        sign_holdout_file=None, calibrators=DEFAULT_CALIBRATORS, platt_family="link", svg=False,
    )
    calls = _capture_drivers(monkeypatch)
    for command in _long_flags():
        assert run_cli([command, "--out", str(tmp_path)]) == 0
        assert calls.pop() == {"cfg": reference, "out_dir": tmp_path}


class TestSignHoldoutFile:
    def test_holdout_file_used(self, tmp_path):
        # build a labeled holdout whose correlation sign is unambiguous
        d = 100
        X = sample_design(60, Covariance.ar1(0.5, d), "gaussian", seed=99)
        path = tmp_path / "holdout.csv"
        write_holdout_csv(path, X, X @ np.ones(d) > 0)

        out = tmp_path / "run"
        rc = run_cli(["simulate", *SMALL, "--sign-holdout-file", str(path), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["alignment"]["n_sign_holdout"] == 60
        assert summary["fit"]["n_train"] == 200  # no carving when a file is given

    def test_control_character_in_the_path_leaves_valid_json(self, tmp_path):
        # the config echo held the raw tab, and json.load refused it as an invalid control character
        path = tmp_path / "hold\tout.csv"
        write_holdout_csv(path, sample_design(30, Covariance.ar1(0.5, 100), "gaussian", seed=99), np.arange(30) % 2)
        out = tmp_path / "run"
        assert run_cli(["simulate", *SMALL, "--sign-holdout-file", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["config"]["sign_holdout_file"] == str(path)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b,label\n1,2,1\n")
        assert run_cli(["simulate", *SMALL, "--sign-holdout-file", str(path)]) == 2


class TestPlattConvergenceCommand:
    def test_single_size_single_row(self, tmp_path):
        out = tmp_path / "pc"
        rc = run_cli(["platt-convergence", *SMALL, "--sizes", "500", "--out", str(out)])
        assert rc == 0
        lines = (out / "platt_convergence.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_descending_sizes_rejected(self, tmp_path):
        assert run_cli(["platt-convergence", *SMALL, "--sizes", "100,50"]) == 2

    @pytest.mark.parametrize(
        "sizes, what", [("100,100", "100 is repeated"), ("50,400,80", "80 follows 400")], ids=["repeated", "descending"]
    )
    def test_sizes_must_strictly_ascend(self, sizes, what, tmp_path, capsys):
        # "100,100" wrote two identical rows from the one platt-sweep-100 stream
        out = tmp_path / "pc"
        assert run_cli(["platt-convergence", *SMALL, "--sizes", sizes, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ContractError: holdout sizes must be strictly ascending: {what}\n"
        assert not out.exists()
        holdout_sizes = [int(size) for size in sizes.split(",")]
        with pytest.raises(errors.ContractError, match=f"strictly ascending: {what}$"):
            experiments.run_platt_convergence(ExperimentConfig(**_TINY), holdout_sizes=holdout_sizes)

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_empty_grid_rejected(self, points, tmp_path, capsys):
        rc = run_cli(["platt-convergence", *SMALL, f"--grid-points={points}", "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("ContractError: grid_points") and "Traceback" not in err

    def test_probit_sup_distance_shrinks(self, tmp_path):
        out = tmp_path / "probit"
        rc = run_cli(
            [
                "platt-convergence", "--n", "200", "--d", "100", "--seed", "31",
                "--link", "probit:1:0.3", "--sizes", "100,10000", "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        sup = [entry["sup_dist_theta_star"] for entry in summary["sizes"]]
        assert sup[1] < sup[0]
        assert "theoretical" in summary and summary["theoretical"]["bridge"] is False

    @pytest.mark.parametrize("kind", ["probit", "sigmoid"])
    def test_constant_link_has_no_theoretical_block(self, kind, tmp_path):
        # probit:0:0.3 failed after the whole sweep: theoretical_AB refuses a = 0
        out = tmp_path / kind
        argv = ["platt-convergence", "--n", "200", "--d", "40", "--sizes", "100,400", "--link", f"{kind}:0:0.3"]
        assert run_cli([*argv, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "theoretical" not in summary and len(summary["sizes"]) == 2


class TestSignMcCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "mc"
        rc = run_cli(["sign-mc", *SMALL, "--trials", "60", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 60
        assert 0.0 <= summary["wrong_rate"] <= 1.0
        assert summary["wilson95_lo"] <= summary["wrong_rate"] <= summary["wilson95_hi"]

    def test_single_trial_rate_binary(self, tmp_path):
        out = tmp_path / "mc1"
        rc = run_cli(["sign-mc", *SMALL, "--trials", "1", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["wrong_rate"] in (0.0, 1.0)


class TestUniversalityCommand:
    def test_side_by_side_report(self, tmp_path):
        out = tmp_path / "uni"
        rc = run_cli(["universality", *SMALL, "--entry", "uniform", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["runs"]) == {"uniform", "gaussian"}
        assert "ece_uniform" in summary["ece_comparison"]["angular"]
        assert (out / "gaussian_reliability_angular.csv").exists()


class TestMultiindexCommand:
    def test_k1_matches_single_index(self, tmp_path):
        out = tmp_path / "mi1"
        rc = run_cli(
            ["multiindex", "--d", "40", "--k", "1", "--n-test", "5000", "--seed", "11", "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["single_index_max_diff"] <= 1e-8

    def test_collinear_indices_have_zero_residual_ratio(self, tmp_path):
        out = tmp_path / "mi-d1"
        assert run_cli(["multiindex", "--d", "1", "--k", "1", "--n-test", "500", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["residual_check"]["max_cov_over_se"] == 0.0

    def test_k2_report(self, tmp_path):
        out = tmp_path / "mi2"
        rc = run_cli(
            ["multiindex", "--d", "30", "--k", "2", "--n-test", "5000", "--seed", "12", "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k"] == 2
        assert summary["delta_p"] and all(list(d) == ["p_center", "delta", "count"] for d in summary["delta_p"])
        assert (out / "reliability_multiindex.csv").exists()

    def test_k4_additive_link_needs_no_monte_carlo(self, tmp_path):
        out = tmp_path / "mi4"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(
                ["multiindex", "--d", "30", "--k", "4", "--n-test", "3000", "--seed", "12", "--out", str(out)]
            )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k"] == 4


_LAMBDAS = st.one_of(st.floats(1e-300, 1e300), st.integers(-300, 300).map(lambda e: 10.0**e))
_SLOPES = st.one_of(st.floats(-1e308, 1e308), st.sampled_from([1e308, -1e308, 0.0]))
_COVS = st.one_of(
    st.floats(-0.9999999, 0.9999999).map(lambda rho: f"ar1:{rho!r}"),
    st.sampled_from(["ar1:-0.99", "ar1:0.99", "ar1:-0.9999999", "identity"]),
)
_OWN_FLAGS = {
    "sign-mc": st.integers(1, 5).map(lambda t: ["--trials", str(t)]),
    "platt-convergence": st.tuples(
        st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True), st.integers(1, 20)
    ).map(lambda pair: ["--sizes", ",".join(map(str, sorted(pair[0]))), "--grid-points", str(pair[1])]),
    "multiindex": st.integers(1, 3).map(lambda k: ["--k", str(k)]),
}


@st.composite
def _cli_runs(draw):
    """argv for one small random run of any subcommand, over the extremes of every numeric flag."""
    command = draw(st.sampled_from(["simulate", "sign-mc", "platt-convergence", "universality", "multiindex"]))
    kind = draw(st.sampled_from(["sigmoid", "probit", "crelu"]))
    link = f"{kind}:{draw(_SLOPES)!r}:{draw(st.floats(-5.0, 5.0))!r}"
    calibrators = draw(st.lists(st.sampled_from(experiments.KNOWN_CALIBRATORS), min_size=1, max_size=6, unique=True))
    argv = [
        command,
        "--n", str(draw(st.integers(1, 60))),
        "--d", str(draw(st.integers(1, 40))),
        "--lambda", repr(draw(_LAMBDAS)),
        "--seed", str(draw(st.integers(0, 30))),
        "--link", link,
        "--entry", draw(st.sampled_from(["gaussian", "rademacher", "uniform"])),
        "--cov", draw(_COVS),
        "--n-test", str(draw(st.integers(1, 60))),
        "--platt-holdout", str(draw(st.integers(1, 60))),
        "--sign-holdout-frac", repr(draw(st.sampled_from([0.0, 0.1, 0.5]))),
        "--calibrators", ",".join(calibrators),
    ]
    return argv + draw(_OWN_FLAGS.get(command, st.just([])))


@settings(max_examples=100)
@given(argv=_cli_runs())
# the derandomized draws reach no numerically singular rho, which fails at configuration
@example(argv=["simulate", "--n", "40", "--d", "6", "--cov", "ar1:0.9999999"])
def test_random_configurations_finish_cleanly(argv):
    """Every run either reports finite numbers or fails with one AngcalError line and exit 2 or 3."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", tmp])
        lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: Newton fit")]
        if code == 0:
            text = (Path(tmp) / "summary.json").read_text()
            assert not any(bad in text for bad in ('"nan"', '"inf"', '"-inf"')), argv
        else:
            assert code in (2, 3), argv
            assert len(lines) == 1 and "Traceback" not in err.getvalue(), (argv, err.getvalue())
            name = lines[0].split(":", 1)[0]
            assert issubclass(getattr(errors, name, type(None)), errors.AngcalError), lines[0]
