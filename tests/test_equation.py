from fractions import Fraction as Fr

import numpy as np
import pytest

from schwarzfront.equation import (SingularPointError, TAG_DIHEDRAL,
                                   TAG_FUCHSIAN_INF, TAG_ICOSAHEDRAL,
                                   TAG_NONSTANDARD, TAG_OCTAHEDRAL,
                                   TAG_TETRAHEDRAL, eval_q,
                                   eval_q_derivatives, exponents_from_abc,
                                   exponents_from_mu, group_order,
                                   is_standard)

FD_TOL = 1e-6


def test_mu_from_abc():
    e = exponents_from_abc(Fr(1, 4), Fr(3, 4), Fr(1, 2))
    assert e.mu0 == Fr(1, 2)
    assert e.mu1 == Fr(-1, 2)
    assert e.muInf == Fr(1, 2)


def test_abc_from_mu_roundtrip():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    back = exponents_from_abc(e.a, e.b, e.c)
    assert (back.mu0, abs(back.mu1), back.muInf) == \
        (e.mu0, abs(e.mu1), e.muInf)


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


@pytest.mark.parametrize("mus, tag, order", [
    ((Fr(1, 2), Fr(1, 2), Fr(1, 5)), TAG_DIHEDRAL, 10),
    ((Fr(1, 2), Fr(1, 3), Fr(1, 3)), TAG_TETRAHEDRAL, 12),
    ((Fr(1, 3), Fr(1, 2), Fr(1, 4)), TAG_OCTAHEDRAL, 24),
    ((Fr(1, 3), Fr(1, 2), Fr(1, 5)), TAG_ICOSAHEDRAL, 60),
])
def test_standard_case_recognition(mus, tag, order):
    e = exponents_from_mu(*mus)
    case = is_standard(e)
    assert case.standard
    assert case.tag == tag
    assert group_order(e.orders) == order


def test_fuchsian_infinite_case():
    e = exponents_from_mu(0, 0, 0)
    case = is_standard(e)
    assert case.standard
    assert case.tag == TAG_FUCHSIAN_INF
    assert group_order(e.orders) == float("inf")


def test_nonstandard_case():
    case = is_standard(exponents_from_mu(Fr(2, 7), Fr(1, 2), Fr(1, 3)))
    assert not case.standard
    assert case.tag == TAG_NONSTANDARD


def test_q_poly_matches_mu_data():
    e = exponents_from_mu(0, 0, 0)
    c2, c1, c0 = e.q_coeffs
    assert (c2, c1, c0) == (1.0, -1.0, 1.0)
