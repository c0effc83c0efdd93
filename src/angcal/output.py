"""Deterministic report serialization: JSON, CSV and SVG.

Re-running a subcommand with the same seed must produce byte-identical
files, so every float is rendered through one fixed format (17
significant digits, enough to round-trip any double) and no timestamps
or environment data ever enter file contents. The evaluation records are
written from their own dataclass fields, in field order; their missing
value, None, prints as null in JSON and as nan in CSV.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError
from .evaluate import ReliabilityReport

RELIABILITY_HEADER = "bin_lo,bin_hi,count,mean_pred,mean_obs,mean_true"


def fmt_float(x) -> str:
    """Render a float with 17 significant digits (nan for missing)."""
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def _json_value(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            return f'"{float(value)}"'
        return fmt_float(value)
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


def write_json(path: Path, obj) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def write_csv(path: Path, header: str | Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows of ints/floats/strings under a header line."""
    if not isinstance(header, str):
        header = ",".join(header)
    lines = [header]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (bool, np.bool_)):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif cell is None or isinstance(cell, (float, np.floating)):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_reliability_csv(path: Path, report: ReliabilityReport) -> None:
    write_csv(path, RELIABILITY_HEADER, map(dataclasses.astuple, report.bins))


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2")


def write_reliability_svg(path: Path, reports: Mapping[str, ReliabilityReport]) -> None:
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
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
