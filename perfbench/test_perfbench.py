"""Tests of the benchmark itself: python -m pytest perfbench (from the repo root)."""

from __future__ import annotations

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import spans
import tracer

REPO = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=None, **extra):
    return {"name": name, "layer": name.split(".", 1)[0], "start": start, "end": end,
            "parent": parent, "error": False, "inv": "t", **extra}


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7.0)
    assert spans.covered([], 0, 10) == 0.0


def test_self_time_subtracts_children_on_a_nested_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("experiments.run_simulate", 1.0, 9.0, parent=0),
        _span("experiments.sample_logit_pairs", 2.0, 5.0, parent=1, kept=40),
        _span("rng.sample_entries", 2.5, 4.5, parent=2, draws=4000),
        _span("rng.sample_entries", 6.0, 7.0, parent=1, draws=1000),
        _span("mestimator.fit", 7.0, 8.5, parent=1, newton_iters=5, converged=True),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.5, 1.0, 2.0, 1.0, 1.5])

    m = spans.layer_metrics({"spans": tree, "cpu_s": 12.0})
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["experiments.self_s"] == pytest.approx(3.5)
    assert m["rng.self_s"] == pytest.approx(3.0)
    assert m["mestimator.self_s"] == pytest.approx(1.5)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)
    # the nested experiments call does not cross a layer boundary
    assert m["experiments.calls"] == 1
    assert m["rng.calls"] == 2
    assert m["rng.sample_entries.draws"] == 5000
    assert m["experiments.sample_logit_pairs.kept_per_draw"] == pytest.approx(40 / 4000)
    assert m["mestimator.fit.newton_iters"] == 5
    assert m["mestimator.fit.converged_frac"] == 1.0
    assert m["cli.cpu_s"] == 12.0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]


def test_install_wraps_by_defining_module_and_reports_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "fakecal"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .synth import make_covariance\n")
    (pkg / "synth.py").write_text(
        "def make_covariance(n):\n    return [0.0] * n\n\n\ndef _private():\n    return 1\n"
    )
    (pkg / "cli.py").write_text(
        "from .synth import make_covariance\n\n\n"
        "def main(argv):\n    make_covariance(3)\n    if argv:\n        raise ValueError(argv[0])\n    return 0\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    recorder = tracer.Recorder("inv-1")
    wrapped = tracer.install(recorder, package="fakecal")
    assert wrapped == ["cli.main", "synth.make_covariance"]
    assert "synth.matrix_sqrt_and_invsqrt" in tracer.absent(wrapped)
    assert "cli.main" not in tracer.absent(wrapped)

    cli = sys.modules["fakecal.cli"]
    assert cli.main([]) == 0
    with pytest.raises(ValueError):
        cli.main(["boom"])
    names = [(s["name"], s["parent"], s["error"]) for s in recorder.spans]
    assert names == [
        ("cli.main", None, False),
        ("synth.make_covariance", 0, False),
        ("cli.main", None, True),
        ("synth.make_covariance", 2, False),
    ]
    m = spans.layer_metrics({"spans": recorder.spans, "cpu_s": 0.0})
    assert m["cli.errors"] == 1 and m["cli.calls"] == 2 and m["synth.calls"] == 2
    record = {"wrapped": wrapped, "absent": tracer.absent(wrapped)}
    assert "rng" in spans.absent_names(record)


# -- output checks and failure counting ------------------------------------

_CSV = "bin_lo,bin_hi,count,mean_pred,mean_obs,mean_true\n0,0.5,0,nan,nan,nan\n0.5,1,3,0.7,0.66666666666666663,0.68\n"


def _summary(ece=0.01):
    return {
        "schema": 1,
        "command": "simulate",
        "fit": {"converged": True, "n_iter": 5},
        "alignment": {"theta_star": 0.95, "theta_hat": 1.0},
        "chance_value": 0.61,
        "calibrators": {
            "angular": {
                "ece": ece,
                "squared_loss": 0.18,
                "kl_loss": 0.24,
                "max_abs_delta_p": 0.04,
                "reliability": {
                    "ece": ece,
                    "bins": [
                        {"lo": 0, "hi": 0.5, "count": 0, "mean_pred": None, "mean_obs": None, "mean_true": None},
                        {"lo": 0.5, "hi": 1, "count": 3, "mean_pred": 0.7, "mean_obs": 0.67, "mean_true": 0.68},
                    ],
                },
            }
        },
    }


def _write_outputs(out_dir: Path, summary_text: str, csv=True):
    out_dir.mkdir(parents=True)
    (out_dir / "summary.json").write_text(summary_text)
    if csv:
        (out_dir / "reliability_angular.csv").write_text(_CSV)


_WORKLOAD = run.Workload(argv=("simulate",), expected_files=("reliability_angular.csv",), why="test")


def _fake_launch(write, commands):
    def launch(cmd, env, log_path, deadline):
        commands.append(cmd)
        Path(log_path).write_text("")
        write(Path(cmd[cmd.index("--out") + 1]))
        return run.Launch(wall_s=1.0, maxrss_mb=10.0, code=0, timed_out=False)

    return launch


def _runner(seed, work):
    return run.Runner(_WORKLOAD, seed, env={}, work=work, deadline=time.perf_counter() + 60)


def test_good_outputs_pass(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out, json.dumps(_summary()))
    assert checks.check_outputs(out, _WORKLOAD.expected_files) == []


@pytest.mark.parametrize(
    "summary_text",
    [
        json.dumps(_summary(ece="nan")),  # how angcal writes a non-finite float
        json.dumps(_summary(ece=math.nan)),
        json.dumps(_summary(ece=1.5)),
    ],
)
def test_bad_ece_is_counted_as_failed(tmp_path, monkeypatch, summary_text):
    monkeypatch.setattr(run, "launch", _fake_launch(lambda out: _write_outputs(out, summary_text), []))
    tally = run.Tally()
    runner = _runner(1, tmp_path)
    runner.run(tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any("ece" in p for p in runner.problems)


def test_missing_csv_is_counted_as_failed(tmp_path, monkeypatch):
    write = lambda out: _write_outputs(out, json.dumps(_summary()), csv=False)  # noqa: E731
    monkeypatch.setattr(run, "launch", _fake_launch(write, []))
    tally = run.Tally()
    runner = _runner(1, tmp_path)
    runner.run(tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any("reliability_angular.csv" in p for p in runner.problems)


def test_changed_summary_for_the_same_seed_is_counted_as_failed(tmp_path, monkeypatch):
    eces = iter([0.01, 0.02])
    write = lambda out: _write_outputs(out, json.dumps(_summary(next(eces))))  # noqa: E731
    monkeypatch.setattr(run, "launch", _fake_launch(write, []))
    tally = run.Tally()
    runner = _runner(1, tmp_path)
    runner.run(tally)
    runner.run(tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_unconverged_fit_and_bad_angle_and_residual_fail():
    summary = _summary()
    summary["fit"]["converged"] = False
    summary["alignment"]["theta_hat"] = 4.0
    summary["residual_check"] = {"max_cov_over_se": 4.5}
    problems = checks.check_summary(summary)
    assert len(problems) == 3


def test_seed_argument_sets_every_invocation_seed(tmp_path, monkeypatch):
    seen = {}
    for seed in (7, 8):
        commands = seen[seed] = []
        monkeypatch.setattr(
            run, "launch", _fake_launch(lambda out: _write_outputs(out, json.dumps(_summary())), commands)
        )
        runner = _runner(seed, tmp_path / str(seed))
        (tmp_path / str(seed)).mkdir()
        tally = run.Tally()
        for traced in (False, True, False):
            runner.run(tally, traced=traced)
    for seed, commands in seen.items():
        assert len(commands) == 3
        for cmd in commands:
            assert cmd.count("--seed") == 1
            assert cmd[cmd.index("--seed") + 1] == str(seed)


def test_traced_invocation_writes_the_same_summary(tmp_path):
    argv = ["simulate", "--n", "200", "--d", "40", "--n-test", "500", "--platt-holdout", "500", "--seed", "3"]
    env = run.child_env()
    plain = subprocess.run(
        [sys.executable, "-m", "angcal", *argv, "--out", str(tmp_path / "plain")],
        env=env, capture_output=True, timeout=120,
    )
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(run.TRACER), str(spans_path), "t1", *argv, "--out", str(tmp_path / "traced")],
        env=env, capture_output=True, timeout=120,
    )
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert (tmp_path / "plain" / "summary.json").read_bytes() == (tmp_path / "traced" / "summary.json").read_bytes()

    record = json.loads(spans_path.read_text())
    assert record["absent"] == [] and record["counter_failures"] == []
    assert spans.absent_names(record) == []
    m = spans.layer_metrics(record)
    assert set(m) | {"trace.overhead_s"} == {name for name, _, _ in spans.PER_LAYER}
    assert m["cli.calls"] == 1 and m["experiments.calls"] == 1
    assert m["mestimator.fit.converged_frac"] == 1.0
    assert m["calibrators.calibrate.points"] == 5 * 500
    assert m["output.bytes_written"] == sum(p.stat().st_size for p in (tmp_path / "traced").iterdir())


def test_launch_kills_and_reaps_a_child_past_the_deadline(tmp_path):
    start = time.perf_counter()
    result = run.launch([sys.executable, "-c", "import time; time.sleep(30)"], run.child_env(),
                        tmp_path / "log", start + 0.5)
    assert result.timed_out and result.code != 0
    assert time.perf_counter() - start < 10
    assert signal.getsignal(signal.SIGALRM) is not run._alarm


def test_launch_reports_exit_code_and_rss(tmp_path):
    result = run.launch([sys.executable, "-c", "import sys; sys.exit(3)"], run.child_env(),
                        tmp_path / "log", time.perf_counter() + 60)
    assert not result.timed_out and result.code == 3 and result.maxrss_mb > 0


def test_children_run_blas_on_one_thread():
    env = run.child_env()
    assert all(env[var] == "1" for var in run.THREAD_VARS)
