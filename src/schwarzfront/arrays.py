"""Scalars and arrays on one evaluation path.

Every public numeric entry point computes on its input flattened to 1-D
(flat), clips (clip) and reshapes (unflat), so a scalar call is a
one-element array call: equal to it bit for bit, in Python types.  A
point that cannot be evaluated is NaN in an array call, which raises
nothing; a scalar call raises instead.  The entry points: the inverse
maps (PolyhedralInverse.eval, LambdaInverse.eval, eval_lambda),
theta_values, fuchsian_z_from_x, dihedral_z_from_x, reduce_level_two,
eval_q, eval_q_derivatives, classify_point, swallowtail_by_newton (a
search, which raises for a start that fails in an array call too), the
front (front_hermitian, eval_front_closed_form, eval_inverse_on_tiles,
eval_front_on_tiles, front_matrix, eval_front_matrix), HermitianForm,
the H3Point constructors and the h3 chart maps.
"""

from __future__ import annotations

import numpy as np


def flat(value, dtype=complex) -> np.ndarray:
    return np.asarray(value, dtype=dtype).ravel()


def unflat(shape, *values):
    """Flat (n, ...) results in the caller's shape; for a scalar call
    (shape ()), entry 0 of each, a Python scalar where it is one."""
    if shape == ():
        return tuple(v[0].item() if v.ndim == 1 else v[0] for v in values)
    return tuple(v.reshape(shape + v.shape[1:]) for v in values)


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
