"""Exact small-parameter series of the closed forms in ``dualrail.correction``.

Each closed form is restated symbolically; its series to second order must
equal the quoted exact rationals, and the symbolic form must agree with the
float function the simulator uses.
"""

import pytest
import sympy as sp

from dualrail.correction import (
    p_accept_projective_closed,
    p_ec_closed,
    p_noec_closed,
    p_plain_closed,
    p_projective_closed,
)

x = sp.Symbol("x", nonnegative=True)  # gamma for the loss forms, lambda for dephasing
q = sp.exp(-x)

CLOSED_FORMS = {  # name: (float function, symbolic form, series through x^2)
    "p_noec": (p_noec_closed, (1 + sp.exp(-x) - 2 * sp.exp(-3 * x / 2)) / 4,
               x / 2 - sp.Rational(7, 16) * x ** 2),
    "p_ec": (p_ec_closed, (1 - 1 / sp.cosh(x / 2)) / 2, x ** 2 / 16),
    "p_plain": (p_plain_closed, (1 - sp.exp(-2 * x)) / 2, x - x ** 2),
    "p_projective": (p_projective_closed, (1 - q) * (6 + 5 * q) / (6 * (2 + q)),
                     sp.Rational(11, 18) * x - sp.Rational(41, 108) * x ** 2),
    "p_accept_projective": (p_accept_projective_closed, (2 + q) / 3,
                            1 - x / 3 + x ** 2 / 6),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_series_is_exact_rational(name):
    _, expr, want = CLOSED_FORMS[name]
    got = sp.series(expr, x, 0, 3).removeO()
    assert sp.expand(got - want) == 0
    assert all(isinstance(c, sp.Rational) for c in sp.Poly(got, x).all_coeffs())


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_symbolic_form_matches_float_function(name):
    fn, expr, _ = CLOSED_FORMS[name]
    for value in (1e-3, 0.05, 0.3, 1.0, 2.5):
        exact = float(expr.subs(x, sp.Rational(value)).evalf(40))
        assert fn(value) == pytest.approx(exact, abs=1e-15)
