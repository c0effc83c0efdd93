"""Deterministic report rendering: JSON, CSV and SVG text, and the one writer.

Every function here renders text and touches no file, except `write_text`,
which writes one rendered report. Re-running a subcommand with the same
seed must produce byte-identical files, so no timestamps or environment
data ever enter file contents, and one scalar rule renders a bool, an
integer, a float or a missing value, Python or numpy, for JSON and CSV
alike: every float takes one fixed format (17 significant digits, enough
to round-trip any double). The missing value, None, prints as null in
JSON and as nan in CSV; a non-finite JSON float is the quoted text of its
CSV cell. The evaluation records are rendered from their own dataclass
fields, in field order.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError
from .evaluate import ReliabilityReport

RELIABILITY_HEADER = ("bin_lo", "bin_hi", "count", "mean_pred", "mean_obs", "mean_true")


def _scalar(value, missing: str):
    """The text of a bool, an integer, a float or None (as `missing`), Python or numpy; None for any other type."""
    if value is None:
        return missing
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return None


def _json_value(value, indent: int) -> str:
    pad = "  " * indent
    text = _scalar(value, "null")
    if text is not None:
        return f'"{text}"' if text in ("nan", "inf", "-inf") else text
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{key}": {_json_value(val, indent + 1)}' for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_value(val, indent + 1)}" for val in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise ContractError(f"cannot serialize value of type {type(value).__name__}")


def dumps_json(obj) -> str:
    """Serialize nested dict/list/scalar data with fixed float formatting."""
    return _json_value(obj, 0) + "\n"


def dumps_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Rows of scalars and strings under a header line of the column names."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_scalar(cell, "nan") or str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def dumps_reliability_csv(report: ReliabilityReport) -> str:
    return dumps_csv(RELIABILITY_HEADER, map(dataclasses.astuple, report.bins))


def write_text(path: Path, text: str) -> None:
    """Write one rendered report file as UTF-8: the one function that writes a report."""
    Path(path).write_text(text, encoding="utf-8")


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2")


def dumps_reliability_svg(reports: Mapping[str, ReliabilityReport]) -> str:
    """Polyline reliability diagram: one curve per calibrator, 45-degree reference."""
    size, margin = 480, 48
    span = size - 2 * margin

    def sx(p: float) -> str:
        return fmt_coord(margin + span * p)

    def sy(p: float) -> str:
        return fmt_coord(size - margin - span * p)

    def fmt_coord(v: float) -> str:
        return format(v, ".2f")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>',
        f'<text x="{size // 2}" y="{size - 12}" text-anchor="middle" '
        'font-size="13">mean predicted probability</text>',
        f'<text x="14" y="{size // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {size // 2})">mean observed frequency</text>',
    ]
    for i, (name, report) in enumerate(reports.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = [
            f"{sx(b.mean_pred)},{sy(b.mean_obs)}"
            for b in report.bins
            if b.count > 0
        ]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        legend_y = margin + 16 + 16 * i
        parts.append(
            f'<line x1="{margin + 8}" y1="{legend_y - 4}" x2="{margin + 28}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{margin + 34}" y="{legend_y}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
