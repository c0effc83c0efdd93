"""The one memory budget for large transient arrays.

A run has to hold its design (n x d floats) and, when it fits, the d x d
or n x n penalized system. Every other large intermediate (Gaussian
expectation tiles, projection draws, Hessian and trace row blocks) is
processed in blocks of at most BLOCK_FLOATS float64 values, so the extra
memory stays a fixed block whatever the number of rows, test points or
draws.
"""

from __future__ import annotations

BLOCK_FLOATS = 1 << 18  # 2 MiB of float64 per block


def block_rows(floats_per_row: int) -> int:
    """Rows per block at the current budget: at least one, even when one row alone exceeds it."""
    return max(1, BLOCK_FLOATS // max(floats_per_row, 1))


def row_blocks(rows: int, floats_per_row: int):
    """Consecutive slices covering range(rows), each block holding `block_rows(floats_per_row)` rows or fewer."""
    step = block_rows(floats_per_row)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))
