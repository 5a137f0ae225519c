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


def sort_pairs(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (major, minor) pairs in lexicographic order, for non-negative
    ``major``: one int64 sort of ``major * span + minor - low`` where those
    numbers fit in int64, else an ``np.lexsort``, so exact for any pairs."""
    if not minor.size:
        return major, minor
    low = int(minor.min())
    span = int(minor.max()) - low + 1
    if (int(major.max()) + 1) * span >= 1 << 63:
        order = np.lexsort((minor, major))
        return major[order], minor[order]
    key = minor - low
    key += major * span
    key.sort()
    minor = key % span
    minor += low
    key //= span
    return key, minor
