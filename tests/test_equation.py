import dataclasses
import math
import re
from fractions import Fraction as Fr

import numpy as np
import pytest

from schwarzfront.equation import (ExponentData, SingularPointError, eval_q,
                                   eval_q_derivatives, exponents_from_mu)

FD_TOL = 1e-6


def _fixed_float_triples():
    rng = np.random.default_rng(20061)
    return [tuple(map(float, m)) for m in rng.random((1000, 3))]


@pytest.mark.parametrize("mus", [(1 / 3, 1 / 2, 1 / 5), (0.5, 0.5, 1 / 7),
                                 (Fr(1, 2), Fr(1, 3), Fr(1, 3)), (0, 0, 0)])
def test_exponents_are_kept_exactly_as_given(mus):
    e = exponents_from_mu(*mus)
    assert e.mus == mus
    assert [type(m) for m in e.mus] == [type(m) for m in mus]


def test_float_exponents_come_back_bit_for_bit():
    for mus in _fixed_float_triples():
        e = exponents_from_mu(*mus)
        assert e.mus == mus
        m0, m1, mi = (m ** 2 for m in mus)
        assert e.q_coeffs == (1.0 - mi, mi + m0 - m1 - 1.0, 1.0 - m0)


def test_exponent_data_holds_the_three_differences_only():
    assert [f.name for f in dataclasses.fields(ExponentData)] == \
        ["mu0", "mu1", "muInf"]


def test_eval_q_fuchsian_center():
    e = exponents_from_mu(0, 0, 0)
    cv = eval_q(e, 0.5)
    assert abs(abs(cv.q) - 3.0) < 1e-14
    assert abs(cv.Q - 0.75) < 1e-15


def test_eval_q_rejects_equation_singularities():
    e = exponents_from_mu(0, 0, 0)
    with pytest.raises(SingularPointError):
        eval_q(e, 0.0)
    with pytest.raises(SingularPointError):
        eval_q(e, 1.0 + 1e-14j)


def test_q_derivatives_match_finite_differences():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    h = 1e-6
    for x in (0.3 + 0.2j, -0.4 + 0.7j, 1.5 - 0.3j):
        Q, Qp, R, Rp = eval_q_derivatives(e, x)
        Qf = (eval_q(e, x + h).Q - eval_q(e, x - h).Q) / (2 * h)
        Rf = (eval_q(e, x + h).R - eval_q(e, x - h).R) / (2 * h)
        assert abs(Qp - Qf) < FD_TOL * (1 + abs(Qp))
        assert abs(Rp - Rf) < FD_TOL * (1 + abs(Rp))


def test_r_is_scaled_derivative_of_q():
    # q' = -R / (4 x^3 (1-x)^3)
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 4))
    h = 1e-6
    for x in (0.3 + 0.2j, 0.8 - 0.5j):
        cv = eval_q(e, x)
        qp = (eval_q(e, x + h).q - eval_q(e, x - h).q) / (2 * h)
        closed = -cv.R / (4.0 * x ** 3 * (1.0 - x) ** 3)
        assert abs(qp - closed) < FD_TOL * (1 + abs(closed))


@pytest.mark.parametrize("mus", [(0.25 + 0.1j, 0.75, 0.5),
                                 (0.25, 0.75 + 0j, 0.5),
                                 (0.25, 0.75, 0.5 - 1j),
                                 (math.nan, 0.5, 0.5),
                                 (0.5, math.inf, 0.5),
                                 (0.5, 0.5, -math.inf),
                                 (True, 0, 0),
                                 (0.5, False, 0.5)])
def test_complex_parameter_is_refused(mus):
    # a bool, complex, NaN or infinite exponent is refused by name, with
    # its value
    i = [isinstance(m, (bool, complex)) or not math.isfinite(m)
         for m in mus].index(True)
    name, bad = ("mu0", "mu1", "muInf")[i], mus[i]
    message = f"{name} must be a finite real number, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exponents_from_mu(*mus)


def test_q_poly_matches_mu_data():
    e = exponents_from_mu(0, 0, 0)
    c2, c1, c0 = e.q_coeffs
    assert (c2, c1, c0) == (1.0, -1.0, 1.0)
