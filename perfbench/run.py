"""End-to-end and per-layer benchmark of the angcal CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload simulate-ref --seed 1 --seconds 30 --trace 0

Each workload is one `python -m angcal ...` command line. The benchmark
runs it in a fresh process, one invocation at a time (a closed loop with
one client), for --seconds: it always runs one invocation, and starts
another only while one as long as the last would end inside the window.
Every invocation gets `--seed` from the benchmark's seed and is checked
(see checks.py). The checkout's `src/` is put on PYTHONPATH and nothing
is installed. Each child runs BLAS and OpenMP on one thread, so that on a
two-core box the benchmark and the system keep a core and a run measures
the program rather than the scheduler.

--trace 0 reports the end-to-end metrics: wall_s (median seconds per
invocation, process start to exit, over every invocation but the first,
which warms up), peak_rss_mb (largest max-RSS of any
invocation, from os.wait4) and setup_s (median time for a fresh
interpreter to import angcal and build the CLI parser). --trace 1
alternates untraced invocations with invocations run under tracer.py and
reports the per-layer metrics of spans.py, plus trace.overhead_s (median
traced minus median untraced wall time).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; failed / attempted is the failure
fraction. The lines before it give the same numbers for people, with the
provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# Every flag that sets the workload is spelled out, so a change of CLI
# defaults cannot change what is measured.
_PINNED = ["--lambda", "0.5", "--link", "sigmoid:3:1", "--cov", "ar1:0.5", "--entry", "gaussian"]
_CALIBRATORS = ("uncalibrated", "angular", "platt", "isotonic", "chance")
_SIMULATE_CSVS = tuple(f"reliability_{name}.csv" for name in _CALIBRATORS)


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    expected_files: tuple[str, ...]
    why: str


WORKLOADS = {
    "simulate-ref": Workload(
        argv=("simulate", "--n", "1000", "--d", "2000", "--n-test", "20000", "--platt-holdout", "20000",
              "--calibrators", ",".join(_CALIBRATORS), "--svg", *_PINNED),
        expected_files=_SIMULATE_CSVS + ("reliability.svg",),
        why="README reference simulate; covariance factors and pair sampling (synth, rng) dominate",
    ),
    "fit-rich": Workload(
        argv=("simulate", "--n", "6000", "--d", "1200", "--n-test", "2000", "--platt-holdout", "2000",
              "--calibrators", ",".join(_CALIBRATORS), *_PINNED),
        expected_files=_SIMULATE_CSVS,
        why="d < n runs the d-side Cholesky paths of mestimator and observable; sampling is small",
    ),
    "multiindex-k2": Workload(
        argv=("multiindex", "--k", "2", "--d", "50", "--n-test", "10000", *_PINNED),
        expected_files=("reliability_multiindex.csv",),
        why="K=2 tensor quadrature in multiindex dominates; synth and mestimator are idle",
    ),
}

# (name, unit, better) of the end-to-end metrics.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

SETUP_LAUNCHES = 7
SETUP_CODE = "import angcal.cli as cli; cli.build_parser()"
# Every run ends within this many seconds of its start, whatever --seconds says.
RUN_LIMIT_S = 170.0
PROBE_CODE = r"""
import ctypes, glob, json, os, sys
import numpy, scipy
import angcal
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), symbol, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads = fn()
            break
print(json.dumps({
    "angcal_file": angcal.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
}))
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Invocations run and checked before the wall_s sample starts.
WARMUP = 1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class _Deadline(Exception):
    """Raised by the SIGALRM handler to interrupt a blocking wait."""


def _alarm(signum, frame):
    raise _Deadline


@dataclass
class Launch:
    wall_s: float
    maxrss_mb: float
    code: int
    timed_out: bool


@dataclass
class Tally:
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def launch(cmd: list[str], env: dict, log_path: Path, deadline: float) -> Launch:
    """Run cmd to completion or until `deadline` (a perf_counter time), then reap it.

    Wall time runs from spawn to reap; max-RSS comes from os.wait4. The
    wait blocks, so the benchmark takes no CPU while the child runs; a
    SIGALRM at the deadline interrupts it. The child is killed and reaped
    if the deadline passes or the benchmark is interrupted.
    """
    timed_out, pid = False, 0
    previous = signal.signal(signal.SIGALRM, _alarm)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
            pid, status, usage = os.wait4(proc.pid, 0)
        except _Deadline:
            timed_out = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not pid:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out)


def invocation_argv(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    return [*workload.argv, "--seed", str(seed), "--out", str(out_dir)]


def provenance(env: dict, work: Path, deadline: float) -> dict:
    """Where angcal is imported from and what it runs on; BenchError unless it is this checkout's src/."""
    log = work / "probe.log"
    result = launch([sys.executable, "-c", PROBE_CODE], env, log, deadline)
    text = log.read_text(encoding="utf-8", errors="replace")
    if result.code != 0:
        raise BenchError(f"cannot import angcal from {SRC}:\n{text.strip()}")
    try:
        info = json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"unreadable provenance probe output ({exc}):\n{text}") from exc
    angcal_file = Path(info["angcal_file"]).resolve()
    if not angcal_file.is_relative_to(SRC.resolve()):
        raise BenchError(f"angcal was imported from {angcal_file}, not from the checkout's {SRC}")
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    info.update(
        {
            "nproc": len(os.sched_getaffinity(0)),
            "thread_env": {var: env.get(var) for var in THREAD_VARS},
            "git_sha": sha or "unavailable (not a git checkout)",
            "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        }
    )
    return info


def measure_setup(env: dict, work: Path, deadline: float, walls: list[float]) -> None:
    """One set-up launch; its wall time is appended to `walls`."""
    log = work / f"setup-{len(walls)}.log"
    result = launch([sys.executable, "-c", SETUP_CODE], env, log, deadline)
    if result.code != 0:
        raise BenchError(f"set-up launch failed:\n{log.read_text(errors='replace')}")
    walls.append(result.wall_s)


class Runner:
    """Runs and checks invocations of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, env: dict, work: Path, deadline: float):
        self.workload, self.seed, self.env, self.work = workload, seed, env, work
        self.deadline = deadline
        self.reference_summary: bytes | None = None
        self.problems: list[str] = []
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, tally: Tally, traced: bool = False) -> dict | None:
        """One checked invocation; returns the tracer's record when traced and it passed."""
        self.count += 1
        label = f"{'traced' if traced else 'plain'}-{self.count}"
        out_dir = self.work / label
        argv = invocation_argv(self.workload, self.seed, out_dir)
        spans_path = self.work / f"{label}.spans.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(spans_path), label, *argv]
        else:
            cmd = [sys.executable, "-m", "angcal", *argv]
        result = launch(cmd, self.env, self.work / f"{label}.log", self.deadline)
        tally.attempted += 1
        tally.walls.append(result.wall_s)
        tally.rss.append(result.maxrss_mb)

        problems = []
        if result.timed_out:
            problems.append(f"killed after {result.wall_s:.1f} s")
        elif result.code != 0:
            log = (self.work / f"{label}.log").read_text(errors="replace").strip()
            problems.append(f"exit code {result.code}: {log[-500:]}")
        else:
            problems += checks.check_outputs(out_dir, self.workload.expected_files)
            summary = (out_dir / "summary.json").read_bytes() if (out_dir / "summary.json").is_file() else None
            if summary is not None:
                if self.reference_summary is None:
                    self.reference_summary = summary
                elif summary != self.reference_summary:
                    problems.append("summary.json differs from the first run of this seed")
        record = None
        if traced and not problems:
            try:
                record = json.loads(spans_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"trace: {exc}")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            tally.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return record


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4f}..{q3:.4f}"


def _another_fits(start: float, seconds: float, last_s: float, runner: Runner) -> bool:
    """Whether one more round, as long as the last, ends inside the measuring window."""
    elapsed = time.perf_counter() - start
    return elapsed + last_s <= seconds and last_s < runner.remaining()


def run_plain(runner: Runner, seconds: float) -> tuple[Tally, dict, list[str]]:
    # Set-up launches alternate with invocations, so that both samples
    # span the whole window; the set-up sample is topped up after it.
    setup: list[float] = []
    tally = Tally()
    start = time.perf_counter()
    while True:
        runner.run(tally)
        measure_setup(runner.env, runner.work, runner.deadline, setup)
        if not _another_fits(start, seconds, tally.walls[-1] + setup[-1], runner):
            break
    while len(setup) < SETUP_LAUNCHES:
        measure_setup(runner.env, runner.work, runner.deadline, setup)
    timed = tally.walls[WARMUP:] or tally.walls
    metrics = {
        "wall_s": statistics.median(timed),
        "peak_rss_mb": max(tally.rss),
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"wall_s: median of {len(timed)} invocations after {len(tally.walls) - len(timed)} warm-up{_quartiles(timed)}",
        f"peak_rss_mb: max over {len(tally.rss)} invocations",
        f"setup_s: median of {len(setup)} launches{_quartiles(setup)}",
    ]
    return tally, metrics, notes


def run_traced(runner: Runner, seconds: float) -> tuple[Tally, dict, list[str]]:
    plain, traced = Tally(), Tally()
    records = []
    start = time.perf_counter()
    while True:
        runner.run(plain)
        record = runner.run(traced, traced=True)
        if record is not None:
            records.append(record)
        if not _another_fits(start, seconds, plain.walls[-1] + traced.walls[-1], runner):
            break
    tally = Tally(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed)
    if not records:
        return tally, {name: 0 for name, _, _ in spans.PER_LAYER}, ["no traced invocation passed"]

    per_invocation = [spans.layer_metrics(record) for record in records]
    metrics = {name: statistics.median(m[name] for m in per_invocation) for name in per_invocation[0]}
    metrics["trace.overhead_s"] = statistics.median(traced.walls) - statistics.median(plain.walls[WARMUP:] or plain.walls)

    notes = [f"per-layer metrics: median of {len(records)} traced invocations"]
    absent = sorted(set().union(*(spans.absent_names(r) for r in records)))
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(absent))
    for record in records:
        for failure in record["counter_failures"]:
            notes.append(f"counter failed: {failure}")
    table: dict[str, dict] = {}
    for record in records:
        for name, row in spans.function_table(record["spans"]).items():
            agg = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += row[key] / len(records)
    notes.append(f"{'function':<44} {'calls':>8} {'total_s':>9} {'self_s':>9}  (mean per traced invocation)")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["total_s"]):
        notes.append(f"{name:<44} {row['calls']:>8.1f} {row['total_s']:>9.4f} {row['self_s']:>9.4f}")
    return tally, metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="seed of every invocation, 0 <= seed < 2**64")
    parser.add_argument("--seconds", required=True, type=float, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    # unwinds through launch(), which kills and reaps the running child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        info = provenance(env, work, deadline)
        print("provenance " + json.dumps(info, sort_keys=True))
        runner = Runner(WORKLOADS[args.workload], args.seed, env, work, deadline)
        if args.trace:
            tally, metrics, notes = run_traced(runner, args.seconds)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            tally, metrics, notes = run_plain(runner, args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print("  " + note)
    for problem in runner.problems:
        print("  FAILED " + problem)
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:>16.6g} {unit}")
    print(f"  {'fail_frac':<46} {tally.failed / tally.attempted:>16.6g} ratio ({tally.failed} of {tally.attempted} failed)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
