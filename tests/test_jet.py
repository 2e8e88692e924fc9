import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgedist import jet
from edgedist.jet import jet_div, jet_exp, jet_mul, jet_sqrt


def J(*coeffs):
    return np.array(coeffs, dtype=float)


coeff = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
jets5 = st.lists(coeff, min_size=5, max_size=5).map(lambda c: J(*c))


def test_sqrt_constant_jet():
    out = jet_sqrt(J(4, 0, 0, 0, 0))
    assert out.tolist() == [2.0, 0.0, 0.0, 0.0, 0.0]


def test_mul_example():
    out = jet_mul(J(1, 1, 0), J(1, -1, 0))
    assert out.tolist() == [1.0, 0.0, -1.0]


def test_exp_of_epsilon():
    out = jet_exp(J(0, 1, 0, 0))
    np.testing.assert_allclose(out, (1.0, 1.0, 0.5, 1.0 / 6.0),
                               rtol=1e-15)


def test_add_and_scalar_promotion():
    # sums and scalar multiples are plain array arithmetic; a scalar
    # enters a product as the constant jet [c, 0, ...]
    a = J(1, 2, 3)
    assert (a + J(1, 0, 0)).tolist() == [2.0, 2.0, 3.0]
    assert (2.0 * a).tolist() == [2.0, 4.0, 6.0]
    assert jet_mul(J(2, 0, 0), a).tolist() == (2.0 * a).tolist()
    assert (a - a).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="truncation order"):
        jet_mul(a, J(1, 0))


def test_recip_sqrt_singular():
    with pytest.raises(ZeroDivisionError, match="singular"):
        jet_div(J(1, 0, 0), J(0, 1, 0))
    with pytest.raises(ZeroDivisionError, match="singular"):
        jet_sqrt(J(0, 1, 0))
    # one singular column of a gridded jet is enough
    with pytest.raises(ZeroDivisionError, match="singular"):
        jet_div(J(1, 0)[:, None], np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_exp_splits_products():
    a = J(0.2, 0.5, -0.3, 0.1, 0.0)
    b = J(-1.0, 0.25, 0.0, -0.2, 0.6)
    lhs = jet_exp(a + b)
    rhs = jet_mul(jet_exp(a), jet_exp(b))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-15)


@given(jets5, jets5)
@example(J(2.0, 1.000001, -2.0, 0.0, -6.0), J(5.0, 0.0, -8.0, 2.0, 6.0))
@settings(max_examples=80, deadline=None)
def test_mul_commutative(a, b):
    # coefficient 4 of this example cancels from ~30 down to 2e-6; an
    # uncompensated sum in the order of b * a misses a * b by 2e-15
    left = jet_mul(a, b)
    right = jet_mul(b, a)
    np.testing.assert_allclose(left, right, rtol=1e-15, atol=1e-15)


@given(jets5, jets5, jets5)
@settings(max_examples=80, deadline=None)
def test_mul_associative(a, b, c):
    # coefficients reach ~1e4 here, so the grouping roundoff can reach
    # a few 1e-12 absolute
    left = jet_mul(jet_mul(a, b), c)
    right = jet_mul(a, jet_mul(b, c))
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-11)


@given(st.lists(coeff, min_size=4, max_size=4),
       st.floats(min_value=0.5, max_value=10.0),
       st.sampled_from((-1.0, 1.0)))
@settings(max_examples=60, deadline=None)
def test_recip_round_trip(rest, c0, sign):
    # a small constant term amplifies roundoff by (c1/c0)^order, so the
    # leading coefficient is kept away from zero
    a = J(sign * c0, *rest)
    one = J(1, 0, 0, 0, 0)
    back = jet_div(one, jet_div(one, a))
    np.testing.assert_allclose(back, a, rtol=1e-9, atol=1e-9)


@given(jets5, st.lists(coeff, min_size=4, max_size=4),
       st.floats(min_value=0.5, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_div_times_divisor(a, rest, c0):
    # the quotient times the divisor gives the dividend back
    b = J(c0, *rest)
    np.testing.assert_allclose(jet_mul(jet_div(a, b), b), a,
                               rtol=1e-9, atol=1e-9)
    with pytest.raises(ValueError, match="truncation order"):
        jet_div(a, b[:4])


@given(st.lists(coeff, min_size=4, max_size=4),
       st.floats(min_value=0.5, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_sqrt_squares_back(rest, c0):
    a = J(c0, *rest)
    r = jet_sqrt(a)
    np.testing.assert_allclose(jet_mul(r, r), a, rtol=1e-9, atol=1e-9)


def test_gridded_jets_match_columns():
    # a jet of shape (M+1, n) is n independent jets; a constant jet of
    # shape (M+1, 1) broadcasts over them
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, (5, 7))
    b = rng.standard_normal((5, 7))
    const = J(2.0, -1.0, 0.5, 0.0, 0.25)[:, None]
    grid = jet_mul(jet_sqrt(a), jet_exp(b)) + jet_div(const, a)
    for i in range(a.shape[1]):
        one = jet_mul(jet_sqrt(a[:, i]), jet_exp(b[:, i])) \
            + jet_div(const[:, 0], a[:, i])
        np.testing.assert_allclose(grid[:, i], one, rtol=1e-14, atol=0.0)


def test_aj_first_values():
    a = jet.aj_recursion(4)
    assert a == [1.0, 1.0, 1.0, 3.0, 9.0]


def test_aj_methods_agree_to_j8():
    a_jet = jet.aj_sequence(8)
    a_rec = jet.aj_recursion(8)
    for x, y in zip(a_jet, a_rec):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


def test_aj_rejects_large_order():
    with pytest.raises(ValueError):
        jet.aj_sequence(31)


def test_immutability():
    # jet operations return new arrays and never write to their operands
    a = J(1, 2, 3)
    b = J(0.5, -1.0, 4.0)
    for op in (lambda: jet_mul(a, b), lambda: jet_div(b, a),
               lambda: jet_sqrt(a), lambda: jet_exp(a)):
        out = op()
        out[:] = 0.0
    assert a.tolist() == [1.0, 2.0, 3.0]
    assert b.tolist() == [0.5, -1.0, 4.0]


def test_truncation_locality():
    # coefficient k of a product must not depend on inputs above k
    a = J(1.0, 2.0, 3.0)
    b = J(0.5, -1.0, 4.0)
    full = jet_mul(a, b)
    bumped = jet_mul(J(1.0, 2.0, 99.0), b)
    assert full[:2].tolist() == bumped[:2].tolist()
