"""Scalars and arrays on one evaluation path.

The inverse maps, the front and the chart maps compute on their input
flattened to 1-D, so a scalar call runs the arithmetic of an array call
bit for bit.  A point that cannot be evaluated is clipped: NaN in an
array call, which raises nothing; a scalar call raises instead.
"""

from __future__ import annotations

import numpy as np


def flat(value, dtype=complex) -> np.ndarray:
    return np.asarray(value, dtype=dtype).ravel()


def unflat(shape, *values):
    """Flat results in the caller's shape; numpy scalars for shape ()."""
    if shape == ():
        return tuple(v[0] for v in values)
    return tuple(v.reshape(shape) for v in values)


def clip(bad, shape, exc, message, *values):
    """values with NaN where bad holds; for a scalar call (shape ()),
    raise exc(message()) instead."""
    if shape == ():
        if bad:         # a bool, or an array of one
            raise exc(message())
        return values
    if bad.any():
        values = tuple(np.where(bad, np.nan, v) for v in values)
    return values
