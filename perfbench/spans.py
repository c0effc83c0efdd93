"""Per-layer metrics from the spans of one traced invocation.

A span is a dict with at least `name`, `layer`, `start`, `end`, `parent`
(index of the enclosing span, or None) and `error`, as written by
`tracer.py`. A span is a boundary span when its parent belongs to
another layer (or it has none): calls, errors and returned bytes are
counted at boundaries only, so a layer's internal calls to its own
public functions are not counted twice. Self time counts every span.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = (
    "cli",
    "experiments",
    "synth",
    "rng",
    "mestimator",
    "observable",
    "calibrators",
    "multiindex",
    "evaluate",
    "output",
)

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    spec
    for layer in LAYERS
    for spec in (
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.errors", "count", "lower"),
        (f"{layer}.bytes_out", "bytes-computed", "lower"),
    )
] + [
    ("synth.matrix_sqrt_and_invsqrt.self_s", "s", "lower"),
    ("rng.sample_entries.draws", "count", "lower"),
    ("experiments.sample_logit_pairs.kept_per_draw", "ratio", "higher"),
    ("mestimator.fit.newton_iters", "count", "lower"),
    ("mestimator.fit.converged_frac", "ratio", "higher"),
    ("observable.compute_intermediates.self_s", "s", "lower"),
    ("calibrators.calibrate.points", "count", "lower"),
    ("multiindex.angular_predict_multi.evals", "count", "lower"),
    ("output.bytes_written", "bytes", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        kids = [(spans[c]["start"], spans[c]["end"]) for c in children[i]]
        out.append(span["end"] - span["start"] - covered(kids, span["start"], span["end"]))
    return out


def is_boundary(spans, i: int) -> bool:
    parent = spans[i]["parent"]
    return parent is None or spans[parent]["layer"] != spans[i]["layer"]


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def function_table(spans) -> dict[str, dict]:
    """name -> calls, inclusive seconds and self seconds, summed over spans."""
    table: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += self_s
    return table


def layer_metrics(record: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s for one traced invocation.

    `record` is the tracer's JSON: spans plus `cpu_s`. A function or layer
    that no longer exists reports 0, and `absent_names` lists it.
    """
    spans = record["spans"]
    metrics = {name: 0 for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    for i, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        layer = span["layer"]
        if layer not in LAYERS:
            continue
        metrics[f"{layer}.self_s"] += self_s
        if is_boundary(spans, i):
            metrics[f"{layer}.calls"] += 1
            metrics[f"{layer}.errors"] += int(span["error"])
            metrics[f"{layer}.bytes_out"] += span.get("bytes_out", 0)
            metrics["output.bytes_written"] += span.get("bytes_written", 0)

    table = function_table(spans)
    for name in ("synth.matrix_sqrt_and_invsqrt", "observable.compute_intermediates"):
        metrics[f"{name}.self_s"] = table.get(name, {}).get("self_s", 0.0)

    draws = kept_draws = kept = fits = converged = 0
    for i, span in enumerate(spans):
        name = span["name"]
        if name == "rng.sample_entries":
            draws += span.get("draws", 0)
            if _has_ancestor(spans, i, "experiments.sample_logit_pairs"):
                kept_draws += span.get("draws", 0)
        elif name == "experiments.sample_logit_pairs":
            kept += span.get("kept", 0)
        elif name == "mestimator.fit":
            fits += 1
            converged += int(span.get("converged", False))
            metrics["mestimator.fit.newton_iters"] += span.get("newton_iters", 0)
        elif name == "calibrators.calibrate":
            metrics["calibrators.calibrate.points"] += span.get("points", 0)
        elif name == "multiindex.angular_predict_multi":
            metrics["multiindex.angular_predict_multi.evals"] += span.get("evals", 0)
    metrics["rng.sample_entries.draws"] = draws
    metrics["experiments.sample_logit_pairs.kept_per_draw"] = kept / kept_draws if kept_draws else 0.0
    metrics["mestimator.fit.converged_frac"] = converged / fits if fits else 0.0
    metrics["cli.cpu_s"] = record["cpu_s"]
    return metrics


def absent_names(record: dict) -> list[str]:
    """Reported functions and layers that the traced package no longer defines."""
    wrapped = set(record["wrapped"])
    layers = {name.split(".", 1)[0] for name in wrapped}
    return list(record["absent"]) + [layer for layer in LAYERS if layer not in layers]
