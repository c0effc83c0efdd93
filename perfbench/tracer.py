"""Run one angcal CLI invocation with every public angcal function timed.

Usage: python tracer.py SPANS_JSON INVOCATION_ID ARGV...

The tracer imports angcal, finds every public function defined in an
angcal module, and replaces it, in every angcal module that binds the
name, with a wrapper that records a span. The span's layer is the
module that defines the function. It then calls `angcal.cli.main(ARGV)`
and writes the spans to SPANS_JSON when main returns. Discovery walks
the package's modules, so a function that a refactor adds, moves or
deletes changes the span names, never the tracer; a name the benchmark
reports on that no longer exists is listed under "absent".

Spans stay in memory until the end. Counters that the benchmark needs
(entries drawn, Newton iterations, points calibrated, bytes written)
are read from each call's arguments and return value, so `src/` is not
edited.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

import numpy as np

PACKAGE = "angcal"


def _array_bytes(value) -> int:
    """nbytes of the ndarrays in a return value, one container level deep."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, (tuple, list)):
        items = list(value)
    elif isinstance(value, dict):
        items = list(value.values())
    else:
        return 0
    return sum(item.nbytes for item in items if isinstance(item, np.ndarray))


def _size(value) -> int:
    return int(np.size(value))


def _quadrature_evals(args, kwargs, result) -> dict:
    s = np.asarray(args[0])
    integrator = kwargs.get("integrator", args[3] if len(args) > 3 else None)
    nodes = kwargs.get("nodes_per_dim", args[4] if len(args) > 4 else None)
    k = s.shape[-1]
    points = s.size // k
    if integrator is not None and integrator.method == "monte_carlo":
        return {"evals": points * integrator.samples}
    if nodes is None:
        if integrator is not None:
            nodes = integrator.nodes
        else:
            nodes = importlib.import_module(f"{PACKAGE}.multiindex").DEFAULT_NODES_PER_DIM[k]
    return {"evals": points * int(nodes) ** k}


def _file_bytes(args, kwargs, result) -> dict:
    if args and isinstance(args[0], (str, os.PathLike)) and os.path.isfile(args[0]):
        return {"bytes_written": os.path.getsize(args[0])}
    return {}


# Counters read per call, keyed by "<layer>.<function>". Each returns a dict
# of numbers stored on the span.
COUNTERS = {
    "rng.sample_entries": lambda args, kwargs, result: {"draws": _size(result)},
    "experiments.sample_logit_pairs": lambda args, kwargs, result: {"kept": _size(result)},
    "mestimator.fit": lambda args, kwargs, result: {
        "newton_iters": int(result.n_iter),
        "converged": bool(result.converged),
    },
    "calibrators.calibrate": lambda args, kwargs, result: {"points": _size(result)},
    "multiindex.angular_predict_multi": _quadrature_evals,
}

# Functions whose own metrics the benchmark reports; missing ones are listed.
NAMED_FUNCTIONS = (
    "cli.main",
    "synth.matrix_sqrt_and_invsqrt",
    "observable.compute_intermediates",
    *COUNTERS,
)


class Recorder:
    """Collects spans as dicts; `stack` holds the indices of open spans."""

    def __init__(self, invocation: str, clock=time.perf_counter):
        self.invocation = invocation
        self.clock = clock
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counter_failures: list[str] = []

    def wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name) or (_file_bytes if layer == "output" else None)
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = {
                "name": name,
                "layer": layer,
                "parent": stack[-1] if stack else None,
                "inv": self.invocation,
                "error": False,
            }
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = clock()
                stack.pop()
            span["bytes_out"] = _array_bytes(result)
            if counter is not None:
                try:
                    span.update(counter(args, kwargs, result))
                except Exception as exc:  # a refactor changed the call's shape
                    self.counter_failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return timed


def package_modules(package: str = PACKAGE) -> list:
    pkg = importlib.import_module(package)
    names = sorted(info.name for info in pkgutil.iter_modules(pkg.__path__))
    return [pkg] + [importlib.import_module(f"{package}.{name}") for name in names]


def install(recorder: Recorder, package: str = PACKAGE) -> list[str]:
    """Wrap every public function of every package module; return the span names."""
    modules = package_modules(package)
    wrappers: dict[int, object] = {}
    names: dict[int, str] = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if not home.startswith(package + ".") or obj.__name__.startswith("_"):
                continue
            key = id(obj)
            if key not in wrappers:
                layer = home.rsplit(".", 1)[-1]
                names[key] = f"{layer}.{obj.__name__}"
                wrappers[key] = recorder.wrap(obj, names[key], layer)
            setattr(module, attr, wrappers[key])
    return sorted(names.values())


def absent(wrapped: list[str]) -> list[str]:
    """The named functions that `install` found nowhere in the package."""
    return [name for name in NAMED_FUNCTIONS if name not in wrapped]


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, invocation, cli_argv = argv[0], argv[1], argv[2:]
    recorder = Recorder(invocation)
    wrapped = install(recorder)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    cpu0 = time.process_time()
    try:
        code = cli.main(cli_argv)
    finally:
        cpu_s = time.process_time() - cpu0
        record = {
            "invocation": invocation,
            "cpu_s": cpu_s,
            "wrapped": wrapped,
            "absent": absent(wrapped),
            "counter_failures": recorder.counter_failures,
            "spans": recorder.spans,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
