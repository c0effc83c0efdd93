"""Output checks for one CLI invocation.

An invocation passes when it exited 0 and its output directory holds a
parseable summary.json and every expected report file, with:

- every ECE, loss and probability finite and in [0, 1] (empty bins,
  written as null or nan with a count of 0, are skipped);
- every Newton fit converged;
- every angle (theta_hat, theta_star) in [0, pi];
- for multiindex, residual_check.max_cov_over_se <= 4 (acceptance
  criterion 8).

Byte-identical reruns are checked by the caller, which sees every
invocation of a seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

UNIT_KEYS = frozenset(
    {
        "ece",
        "squared_loss",
        "kl_loss",
        "max_abs_delta_p",
        "chance_value",
        "mean_pred",
        "mean_obs",
        "mean_true",
        "p_center",
    }
)
ANGLE_KEYS = frozenset({"theta_hat", "theta_star"})
MAX_COV_OVER_SE = 4.0


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_summary(summary, where: str = "summary.json") -> list[str]:
    """Problems found anywhere in a parsed summary.json."""
    problems = []

    def walk(node, path):
        if isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")
            return
        if not isinstance(node, dict):
            return
        empty_bin = node.get("count") == 0
        for key, value in node.items():
            at = f"{path}.{key}"
            if key in UNIT_KEYS and not (empty_bin and value is None):
                if not (_number(value) and 0.0 <= value <= 1.0):
                    problems.append(f"{at} = {value!r} is not a finite value in [0, 1]")
            elif key in ANGLE_KEYS and not (_number(value) and 0.0 <= value <= math.pi):
                problems.append(f"{at} = {value!r} is not an angle in [0, pi]")
            elif key == "error":
                problems.append(f"{at}: {value}")
            else:
                walk(value, at)
        if "converged" in node and node["converged"] is not True:
            problems.append(f"{path}: Newton fit did not converge")
        if "max_cov_over_se" in node:
            ratio = node["max_cov_over_se"]
            if not (_number(ratio) and ratio <= MAX_COV_OVER_SE):
                problems.append(f"{path}.max_cov_over_se = {ratio!r} exceeds {MAX_COV_OVER_SE}")

    walk(summary, where)
    return problems


def check_reliability_csv(path: Path) -> list[str]:
    """Problems in a reliability_<name>.csv: missing, unparseable or out of range."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc.strerror or exc}"]
    if not rows:
        return [f"{path.name}: no rows"]
    problems = []
    for lineno, row in enumerate(rows, start=2):
        try:
            count = int(row["count"])
            cells = {key: float(row[key]) for key in ("bin_lo", "bin_hi", "mean_pred", "mean_obs", "mean_true")}
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path.name}:{lineno}: cannot parse ({exc})")
            continue
        for key, value in cells.items():
            if count == 0 and key.startswith("mean_"):
                continue
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{path.name}:{lineno}: {key} = {value} is not in [0, 1]")
    return problems


def check_outputs(out_dir: Path, expected_files) -> list[str]:
    """Every problem with one invocation's output directory; [] means it passed."""
    out_dir = Path(out_dir)
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"summary.json: {exc}"]
    problems = check_summary(summary)
    for name in expected_files:
        path = out_dir / name
        if name.endswith(".csv"):
            problems += check_reliability_csv(path)
        elif not path.is_file() or path.stat().st_size == 0:
            problems.append(f"{name}: missing or empty")
    return problems
