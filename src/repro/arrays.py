"""Integer-array helpers shared by every layer."""

from __future__ import annotations

import numpy as np


def distinct(values) -> np.ndarray:
    """``np.unique`` of an integer array by one sort and a neighbour
    compare, several times faster than numpy's hash-based default.

    On arrays of a handful of elements the hash path is the faster one.
    """
    values = np.sort(np.asarray(values).reshape(-1))
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]
