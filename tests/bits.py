"""Bitwise comparison of numpy arrays, shared by the test modules."""

import numpy as np


def same_bits(u, v):
    """Bitwise equality of two complex arrays, signed zeros included."""
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
    return u.shape == v.shape and np.array_equal(u.view(np.uint64), v.view(np.uint64))
