"""The two memory budgets for large transient arrays.

A run has to hold its design (n x d floats) and, when it fits, the
penalized system: d(d+1)/2 packed floats, or n x n when d > n. Every
other large intermediate is processed in row blocks of a fixed budget,
so the extra memory stays a fixed block whatever the number of rows,
test points or draws:

- BLOCK_FLOATS bounds the operand blocks of BLAS-3 products (Hessian and
  trace row blocks, and the entry draws a non-Gaussian design or
  projection multiplies by a d-row factor). Their rounding can depend
  on the rows one product holds, so this budget sets their bytes.
- TILE_FLOATS bounds element-wise streams (Gauss-Hermite tiles, each
  holding whole points' node rows, and Gaussian projection draws against
  a k x k factor). Each tile carries a few temporaries of its own size,
  and a row's values do not depend on the tiling, so a tile is sized to
  stay in cache rather than to amortize a product.
"""

from __future__ import annotations

BLOCK_FLOATS = 1 << 18  # 2 MiB of float64 per BLAS-3 block
TILE_FLOATS = 1 << 15  # 256 KiB of float64 per element-wise tile


def _rows_within(budget: int, floats_per_row: int) -> int:
    return max(1, budget // max(floats_per_row, 1))


def _slices(rows: int, step: int):
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def block_rows(floats_per_row: int) -> int:
    """Rows per BLAS-3 block: at least one, even when one row alone exceeds the budget."""
    return _rows_within(BLOCK_FLOATS, floats_per_row)


def row_blocks(rows: int, floats_per_row: int):
    """Consecutive slices covering range(rows), each block holding `block_rows(floats_per_row)` rows or fewer."""
    return _slices(rows, block_rows(floats_per_row))


def row_tiles(rows: int, floats_per_row: int):
    """Consecutive slices covering range(rows), each tile holding at most TILE_FLOATS floats (one row at least)."""
    return _slices(rows, _rows_within(TILE_FLOATS, floats_per_row))
