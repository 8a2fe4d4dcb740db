"""Tests for repro.arrays."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.arrays import distinct


@given(st.lists(st.integers(-(2**62), 2**62), max_size=60))
def test_distinct_equals_unique(values):
    array = np.array(values, dtype=np.int64)
    got = distinct(array)
    assert got.dtype == np.int64
    assert got.tolist() == np.unique(array).tolist()


def test_distinct_flattens():
    assert distinct(np.array([[3, 1], [3, 2]])).tolist() == [1, 2, 3]
