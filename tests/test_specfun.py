import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from edgedist import _airy_coeffs, painleve, specfun

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
    # points in each region of the series and at their joins, among
    # them the largest double below 6
    xs = np.array([specfun.XMIN, -12.3, -10.0 - 1e-12, -8.0 - 1e-12, -8.0,
                   -5.0, 0.0, 1.5, np.nextafter(6.0, 0.0), 6.0, 30.0, 60.0])
    vec = specfun.airy(xs)
    grid = specfun.airy(xs.reshape(1, -1, 1))
    for i, x in enumerate(xs):
        one = specfun.airy(float(x))
        assert vec.ai[i] == one.ai == grid.ai[0, i, 0]
        assert vec.aip[i] == one.aip == grid.aip[0, i, 0]


def test_airy_range_error():
    with pytest.raises(ValueError, match="range"):
        specfun.airy(61.0)
    with pytest.raises(ValueError, match="range"):
        specfun.airy(float("nan"))
    # left of XMIN, the first piece's left end
    for call in (specfun.airy, lambda x: specfun.airy_kernel(x, 0.0),
                 lambda x: specfun.airy_kernel(0.0, np.array([1.0, x]))):
        with pytest.raises(ValueError, match="range"):
            call(-14.5)


def test_xmin_is_the_first_piece():
    # the pieces of width 2 start at XMIN
    assert specfun.XMIN == _airy_coeffs.X_LO == -14.0


def test_airy_right_of_6_leaves_the_pieces_unloaded():
    # a call wholly right of 6 reads airy_tail's rows alone; the first
    # call left of 6 imports the pieces
    src = os.path.dirname(os.path.dirname(os.path.abspath(specfun.__file__)))
    code = ("import sys\n"
            "import numpy as np\n"
            "from edgedist import specfun\n"
            "specfun.airy(np.linspace(6.0, 60.0, 55))\n"
            "specfun.airy(7.5)\n"
            "specfun.airy_kernel(6.0, 9.0)\n"
            "print('edgedist._airy_coeffs' in sys.modules)\n"
            "specfun.airy(5.0)\n"
            "print('edgedist._airy_coeffs' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True, cwd=src)
    assert out.stdout.split() == ["False", "True"]


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

    def ref(a, b):
        num = mp.airyai(a) * mp.airyai(b, 1) - mp.airyai(a, 1) * mp.airyai(b)
        return float(num / (a - b))

    x = -0.7
    with mp.workdps(40):
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


def test_kernel_grid_equals_midpoint_form_everywhere():
    # the confluent branch evaluates Airy at the near pairs only; the
    # reference evaluates it at every midpoint of the grid and picks the
    # near entries, and the two agree bit for bit
    x = np.concatenate([np.linspace(-8.0, 5.0, 60),
                        [0.3, 0.3 + 5e-7, -2.0]])
    xa, ya = x[:, None], x[None, :]
    aix, aipx = specfun.airy(xa)
    aiy, aipy = specfun.airy(ya)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (aix * aipy - aipx * aiy) / (xa - ya)
    m = 0.5 * (xa + ya)
    aim, aipm = specfun.airy(m)
    want = np.where(np.abs(xa - ya) < specfun.CONFLUENT_EPS,
                    aipm * aipm - m * aim * aim, far)
    assert specfun.airy_kernel(xa, ya).tobytes() == want.tobytes()
    assert specfun.airy_kernel(x[-1], x[-1]) == want[-1, -1]


# Ai and Ai' left of 6 against mpmath, on a grid that holds every join
# of the pieces, in the bands [-14, -10), [-10, -6), [-6, 0) and [0, 6)
AIRY_GRID = np.linspace(specfun.XMIN, 6.0, 401)[:-1]
AIRY_BAND = np.searchsorted([-10.0, -6.0, 0.0], AIRY_GRID, side="right")


@pytest.fixture(scope="module")
def airy_reference():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return np.array([[float(mp.airyai(x, d)) for x in map(mp.mpf,
                                                              AIRY_GRID)]
                         for d in (0, 1)])


def test_airy_series_against_mpmath(airy_reference):
    # max |error| / max |Ai| per band.  The pieces measure 3.1e-16 (Ai)
    # and 3.3e-16 (Ai') at most on 2,000 points of [-14, 6)
    for got, ref in zip(specfun.airy(AIRY_GRID), airy_reference):
        for band, bound in enumerate((1.5e-15, 1.5e-15, 1e-15, 1e-15)):
            sel = AIRY_BAND == band
            err = np.abs(got[sel] - ref[sel]).max()
            assert err <= bound * np.abs(ref[sel]).max(), band


def test_airy_right_of_6_is_the_tail_series():
    # the same bits as airy_tail's first two rows, whose accuracy
    # test_airy_tail_coefficients_against_mpmath bounds
    x = np.linspace(6.0, 60.0, 541)
    ai, aip, _, _, _ = specfun.airy_tail(x)
    pair = specfun.airy(x)
    assert pair.ai.tobytes() == ai.tobytes()
    assert pair.aip.tobytes() == aip.tobytes()


def test_ai_tail_decreasing():
    vals = [specfun.ai_tail(x) for x in (2.0, 5.0)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("x", [1.999, 0.0, np.array([6.0, 1.5])])
def test_ai_tail_below_2_is_a_range_error(x):
    # the Gauss-Laguerre rule holds from 2; the solve reads it from 6
    with pytest.raises(ValueError, match="range error"):
        specfun.ai_tail(x)


def test_ai_tail_laguerre_against_mpmath():
    # the vectorised Gauss-Laguerre rule against the closed form
    # 1/3 - int_0^x Ai, which cancels 16 digits at x = 14; 80 leave 64
    mp = pytest.importorskip("mpmath")
    xs = np.array([2.0, 3.5, 6.0, 9.5, 14.0])
    got = specfun.ai_tail(xs)
    with mp.workdps(80):
        for x, g in zip(xs, got):
            ref = 1 / mp.mpf(3) - mp.airyai(mp.mpf(x), -1)
            assert abs(g / float(ref) - 1.0) <= 5e-14


# the tails beyond x_right = 6 that the Painleve solution serves, on 301
# points of [6, 60], against references at the same doubles
SERVED = np.linspace(6.0, 60.0, 301)
# bands [6, 9.5], (9.5, 20], (20, 40] and (40, 60]
BAND = np.searchsorted([9.5, 20.0, 40.0], SERVED)


# each tail's scaling on [6, 60]: its power of x, and the multiple of
# zeta = (2/3) x^{3/2} in its exponential (DLMF 9.7)
SCALING = {"Ai": (0.25, 1), "Ai'": (-0.25, 1), "T": (1.5, 2), "V": (1.0, 2),
           "W": (0.75, 1)}


@pytest.fixture(scope="module")
def served_tails():
    # the five tails at the SERVED doubles, and their scaled forms under
    # the key (name, "scaled")
    mp = pytest.importorskip("mpmath")
    ref = {}
    for x in map(mp.mpf, SERVED):
        # 1/3 - int_0^x Ai cancels 136 digits at x = 60; 200 leave 64
        with mp.workdps(200):
            W = 1 / mp.mpf(3) - mp.airyai(x, -1)
        # the closed forms cancel 9 digits at most; 200 give the same
        # doubles as 40
        with mp.workdps(40):
            ai, aip = mp.airyai(x), mp.airyai(x, 1)
            tails = {"Ai": ai, "Ai'": aip, "W": W,
                     "V": aip * aip - x * ai * ai,
                     "T": -ai * aip / 3 - 2 * x * aip * aip / 3
                     + 2 * x * x * ai * ai / 3}
            zeta = 2 * x * mp.sqrt(x) / 3
            for name, v in tails.items():
                power, k = SCALING[name]
                ref.setdefault(name, []).append(float(v))
                ref.setdefault((name, "scaled"), []).append(
                    float(v * mp.exp(k * zeta) * x ** power))
    return {k: np.array(v) for k, v in ref.items()}


def band_errors(got, ref):
    err = np.abs(got / ref - 1.0)
    return [err[BAND == i].max() for i in range(4)]


def test_ai_tail_over_served_range(served_tails):
    # the bounds sit at special.airy's own relative error for Ai in each
    # band (3.8e-15, 1.1e-14, 3.7e-14, 7.2e-14); the K_{1/3} rule, which
    # gives the solves' W at x_right, measures 3.6e-15, 7.6e-15,
    # 2.0e-14, 4.8e-14 here
    errs = band_errors(specfun.ai_tail(SERVED), served_tails["W"])
    for err, bound in zip(errs, (5e-15, 2e-14, 5e-14, 1e-13)):
        assert err <= bound


def test_airy_tail_coefficients_against_mpmath(served_tails):
    # the committed series alone are within 2e-15 of the scaled tails
    # (they measure 2.2e-16); the tails themselves add the error of
    # e^{-zeta} in double precision, which grows with zeta to 7.8e-14
    # at x = 60, and stay inside special.airy's bands for Ai (see
    # test_ai_tail_over_served_range)
    scaled, _ = specfun._scaled_tails(SERVED)
    for name, got in zip(SCALING, scaled):
        err = np.abs(got / served_tails[name, "scaled"] - 1.0)
        assert err.max() <= 2e-15, name
    ai, aip, _, _, W = specfun.airy_tail(SERVED)
    for name, got in (("Ai", ai), ("Ai'", aip), ("W", W)):
        errs = band_errors(got, served_tails[name])
        for err, bound in zip(errs, (5e-15, 2e-14, 5e-14, 1e-13)):
            assert err <= bound, name


def test_ai2_tails_over_served_range(served_tails):
    # V and T carry the error of e^{-2 zeta} in double precision, with
    # no cancellation (the closed forms from special.airy cancel, to
    # 1.2e-12 and 6.0e-10 here); the bounds are the measured maxima,
    # rounded up
    _, _, T, V, _ = specfun.airy_tail(SERVED)
    errs = band_errors(V, served_tails["V"])
    for err, bound in zip(errs, (5.8e-15, 2.8e-14, 5.3e-14, 1.6e-13)):
        assert err <= bound
    errs = band_errors(T, served_tails["T"])
    for err, bound in zip(errs, (5.4e-15, 2.7e-14, 5.3e-14, 1.6e-13)):
        assert err <= bound


@pytest.mark.parametrize("x", [5.999, 1.5, -4.0, np.array([60.0, 5.0])])
def test_airy_tail_below_6_is_a_range_error(x):
    # the series are fitted on [6, 60]
    with pytest.raises(ValueError, match="range error"):
        specfun.airy_tail(x)


def test_right_end_data_are_the_closed_forms():
    # the solves read (q, q', I, I', J) at x_right = 6 from special.airy
    # and the K_{1/3} rule, as before the series, so no solution changes
    # a bit: Ai, Ai', T = -(1/3) Ai Ai' - (2/3) x Ai'^2 + (2/3) x^2 Ai^2,
    # V = Ai'^2 - x Ai^2 and W, scaled by r = sqrt(lam) and lam
    x = painleve.SolverConfig.x_right
    ai, aip, _, _ = special.airy(x)
    T = -(ai * aip) / 3.0 - (2.0 / 3.0) * x * aip * aip \
        + (2.0 / 3.0) * x * x * ai * ai
    V = aip * aip - x * ai * ai
    W = specfun.ai_tail(x)
    for order, lam in ((4, 1.0), (1, 1.0), (0, 0.5)):
        r, lam_col = painleve._tail_columns(order, lam)
        got = painleve._tail_state(x, r, lam_col)
        want = (r * ai, r * aip, lam_col * T, -lam_col * V, r * W)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
