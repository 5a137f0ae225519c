"""Index arithmetic shared by the numpy kernels: runs of consecutive
indices, expanded all at once or a bounded number at a time."""

from __future__ import annotations

import numpy as np


def spread(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[r] .. start[r] + count[r] - 1`` for each row r, concatenated."""
    runs = np.cumsum(count) - count
    return np.arange(int(count.sum())) + np.repeat(start - runs, count)


def ranges(start: np.ndarray, count: np.ndarray, block: int):
    """The items of ``spread(start, count)``, at most ``block`` at a time:
    yields (row, item) arrays."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        rows = slice(first, last + 1)
        firsts = ends[rows] - count[rows]
        done = np.maximum(firsts, lo) - firsts  # items of the row in earlier blocks
        taken = np.minimum(ends[rows], hi) - firsts - done
        yield np.repeat(np.arange(first, last + 1), taken), spread(start[rows] + done, taken)
