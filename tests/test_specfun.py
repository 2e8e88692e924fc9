import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from edgedist import specfun

AI0 = 0.3550280538878172
AIP0 = -0.2588194037928068


def test_airy_at_zero():
    pair = specfun.airy(0.0)
    assert pair.ai == pytest.approx(AI0, rel=1e-14)
    assert pair.aip == pytest.approx(AIP0, rel=1e-14)


def test_airy_decay_at_30():
    ai, _ = specfun.airy(30.0)
    lead = 0.5 * math.pi ** -0.5 * 30.0 ** -0.25 \
        * math.exp(-(2.0 / 3.0) * 30.0 ** 1.5)
    assert abs(ai / lead - 1.0) < 1e-3


def test_airy_equation_by_finite_difference():
    h = 1e-4
    for x in (0.0, -3.0, 2.5):
        up = specfun.airy(x + h).ai
        mid = specfun.airy(x).ai
        dn = specfun.airy(x - h).ai
        second = (up - 2.0 * mid + dn) / h ** 2
        assert abs(second - x * mid) < 1e-6


def test_airy_vectorized_matches_scalar():
    xs = np.array([-5.0, 0.0, 1.5])
    vec = specfun.airy(xs)
    for i, x in enumerate(xs):
        one = specfun.airy(float(x))
        assert vec.ai[i] == one.ai
        assert vec.aip[i] == one.aip


def test_airy_range_error():
    with pytest.raises(ValueError, match="range"):
        specfun.airy(61.0)
    with pytest.raises(ValueError, match="range"):
        specfun.airy(float("nan"))


@given(st.floats(min_value=0.0, max_value=60.0))
@settings(max_examples=60, deadline=None)
def test_airy_signs_nonnegative_axis(x):
    pair = specfun.airy(x)
    assert pair.ai > 0.0
    assert pair.aip < 0.0


def test_kernel_definition_point():
    a1 = specfun.airy(1.0)
    a2 = specfun.airy(2.0)
    expect = (a1.ai * a2.aip - a1.aip * a2.ai) / (1.0 - 2.0)
    assert specfun.airy_kernel(1.0, 2.0) == pytest.approx(expect, rel=1e-15)


def test_kernel_confluent_diagonal():
    # limit of the difference quotient is Ai'(0)^2 at x=0
    assert specfun.airy_kernel(0.0, 0.0) == pytest.approx(
        AIP0 ** 2, rel=1e-12)
    h = 1e-4
    a0 = specfun.airy(0.0)
    ah = specfun.airy(h)
    am = specfun.airy(-h)
    dq = 0.5 * ((a0.ai * ah.aip - a0.aip * ah.ai) / (-h)
                + (a0.ai * am.aip - a0.aip * am.ai) / h)
    assert specfun.airy_kernel(0.0, 0.0) == pytest.approx(dq, abs=1e-7)


def test_kernel_symmetry():
    assert specfun.airy_kernel(-1.0, 3.0) == specfun.airy_kernel(3.0, -1.0)


def test_kernel_seam_accuracy():
    # both branches of the confluent switchover must track the exact
    # kernel; the kernel itself varies by ~|dK/dy| * 2e-7 across the
    # seam, so each side is compared to a 40-digit reference
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def ref(a, b):
        num = mp.airyai(a) * mp.airyai(b, 1) - mp.airyai(a, 1) * mp.airyai(b)
        return float(num / (a - b))

    x = -0.7
    for off in (0.9e-6, 1.1e-6):
        got = specfun.airy_kernel(x, x + off)
        want = ref(mp.mpf(x), mp.mpf(x) + mp.mpf(off))
        assert got == pytest.approx(want, abs=5e-10)


def test_kernel_integral_representation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y = rng.uniform(-4.0, 3.0, size=2)
        val, _ = integrate.quad(
            lambda z: specfun.airy(x + z).ai * specfun.airy(y + z).ai,
            0.0, 40.0, epsabs=1e-13, limit=300)
        assert abs(specfun.airy_kernel(x, y) - val) < 1e-9


def test_kernel_diagonal_positive():
    xs = np.linspace(-10.0, 6.0, 81)
    diag = specfun.airy_kernel(xs, xs)
    assert np.all(diag > 0.0)


def test_ai_tail_at_zero():
    # integral of Ai over (0, inf) is exactly 1/3
    assert specfun.ai_tail(0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_ai_tail_decreasing():
    vals = [specfun.ai_tail(x) for x in (-2.0, 0.0, 2.0, 5.0)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_ai_tail_laguerre_against_mpmath():
    # the vectorised Gauss-Laguerre path (x >= 2) against a 30-digit
    # reference, and its agreement with the per-point quadrature at the
    # switch-over point
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    xs = np.array([2.0, 3.5, 6.0, 9.5, 14.0])
    got = specfun.ai_tail(xs)
    for x, g in zip(xs, got):
        # Ai decays on the scale 1/sqrt(x)
        h = 1.0 / math.sqrt(x)
        ref = mp.quad(mp.airyai, [x + k * h for k in (0, 1, 2, 4, 8, 16, 32)]
                      + [mp.inf])
        assert abs(g / float(ref) - 1.0) <= 5e-14
    assert specfun.ai_tail(2.0) == pytest.approx(
        specfun._ai_tail_one(2.0), rel=1e-12)


def test_ai2_tails_against_quadrature():
    for x in (-3.0, 0.0, 1.5):
        direct, _ = integrate.quad(
            lambda u: specfun.airy(u).ai ** 2, x, 40.0,
            epsabs=1e-13, limit=300)
        assert specfun.ai2_tail(x) == pytest.approx(direct, abs=1e-10)
        weighted, _ = integrate.quad(
            lambda u: (u - x) * specfun.airy(u).ai ** 2, x, 40.0,
            epsabs=1e-13, limit=300)
        assert specfun.ai2_weighted_tail(x) == pytest.approx(
            weighted, abs=1e-10)
