import dataclasses
import hashlib
import io
import math
import os
import shutil

import numpy as np
import pytest
from scipy import integrate, interpolate, special

from edgedist import painleve, specfun
from edgedist.painleve import SolverConfig


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.x_right == 6.0
        assert cfg.x_left == -13.5
        assert cfg.jet_order == 4
        # the other solver settings are fixed
        assert [f.name for f in dataclasses.fields(cfg)] == ["x_left",
                                                             "jet_order"]

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SolverConfig(x_left=-7.0)  # right of patch point
        with pytest.raises(ValueError):
            SolverConfig(x_left=-8.0)  # at the patch point
        with pytest.raises(ValueError):
            SolverConfig(jet_order=-1)

    def test_non_finite_left_end_rejected(self):
        for x_left in (-math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(x_left=x_left)

    def test_field_types_checked(self):
        # a ValueError naming the field, not a TypeError from the solve
        # or from a comparison
        for kwargs, field in ((dict(jet_order=2.5), "jet_order"),
                              (dict(jet_order="4"), "jet_order"),
                              (dict(x_left="-11"), "x_left"),
                              (dict(x_left=None), "x_left")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                SolverConfig(**kwargs)
        cfg = SolverConfig(x_left=-11, jet_order=np.int64(2))
        assert (cfg.x_left, cfg.jet_order) == (-11, 2)
        assert type(cfg.jet_order) is int
        assert type(cfg.x_left) is float

    def test_shallow_left_end_rejected(self):
        # the asymptotic anchor needs -2*x_left inside the series range,
        # which the config enforces before any solve starts
        with pytest.raises(ValueError):
            painleve.solve(SolverConfig(x_left=-4.9))


def test_q0_asymptotic_leading_term():
    t = 16.0
    val = painleve.q0_asymptotic(t)
    lead = 0.5 * math.sqrt(t)
    # next correction after (1 - t^-3) is -36.5 t^-6
    resid = val / lead - (1.0 - t ** -3)
    assert resid == pytest.approx(-36.5 * t ** -6, rel=0.05)


def test_q0_asymptotic_range():
    with pytest.raises(ValueError):
        painleve.q0_asymptotic(9.99)


def test_q1_asymptotic_leading_term():
    t = 25.0
    val = painleve.q1_asymptotic(t)
    lead = math.exp(t ** 1.5 / 3.0) / (2.0 * math.sqrt(2.0 * math.pi)
                                       * t ** 0.25)
    resid = val / lead - 1.0
    assert resid == pytest.approx(17.0 / 24.0 * t ** -1.5, rel=0.05)


def test_q1_asymptotic_range():
    with pytest.raises(ValueError):
        painleve.q1_asymptotic(9.0)
    # exp(t^{3/2}/3) overflows from t = 165.6 on
    for t in (200.0, 401.0):
        with pytest.raises(ValueError):
            painleve.q1_asymptotic(t)


def test_sqrt_lambda_coeffs():
    got = painleve.sqrt_lambda_coeffs(4)
    np.testing.assert_allclose(
        got, [1.0, 0.5, -0.125, 0.0625, -5.0 / 128.0], rtol=1e-15)


def test_boundary_jet():
    ai, aip = specfun.airy(6.0)
    qj, qpj = painleve.boundary_jet(6.0, order=3)
    np.testing.assert_allclose(
        qj, [ai, 0.5 * ai, -0.125 * ai, 0.0625 * ai], rtol=1e-15)
    np.testing.assert_allclose(
        qpj, [aip, 0.5 * aip, -0.125 * aip, 0.0625 * aip], rtol=1e-15)
    with pytest.raises(ValueError):
        painleve.boundary_jet(3.9)


def _uniform(sol, n=3201):
    # n equally spaced points on [x_left, x_right], and the jets there
    x = np.linspace(sol.config.x_left, sol.config.x_right, n)
    return x, sol.jets(x)


class TestSolveInvariants:
    def test_right_boundary_is_airy(self, sol_default):
        # q = sqrt(lambda) Ai at every jet order
        xr = sol_default.config.x_right
        b = sol_default.jet_at(xr)
        pair = specfun.airy(xr)
        for q, c in zip(b.q, painleve.sqrt_lambda_coeffs(4)):
            assert abs(q - c * pair.ai) < 1e-10

    def test_right_boundary_tail_integrals(self, sol_default):
        xr = sol_default.config.x_right
        b = sol_default.jet_at(xr)
        w_ref, _ = integrate.quad(lambda u: special.airy(u)[0], xr, 46.0,
                                  epsabs=1e-15)
        assert abs(b.J[0] - w_ref) < 1e-8
        _, _, T, V, _ = specfun.airy_tail(xr)
        assert abs(b.I[0] - T) < 1e-10
        assert abs(b.Iprime[0] + V) < 1e-10

    def test_q0_positive(self, sol_default):
        assert np.all(_uniform(sol_default)[1].q[0] > 0.0)

    def test_j0_positive_decreasing(self, sol_default):
        j0 = _uniform(sol_default)[1].J[0]
        assert np.all(j0 > 0.0)
        assert np.all(np.diff(j0) < 0.0)

    def test_painleve_residual(self, sol_default):
        # 5-point second derivative on a uniform grid
        x, b = _uniform(sol_default)
        q0 = b.q[0]
        h = x[1] - x[0]
        idx = np.linspace(2, x.size - 3, 100).astype(int)
        qxx = (-q0[idx - 2] + 16 * q0[idx - 1] - 30 * q0[idx]
               + 16 * q0[idx + 1] - q0[idx + 2]) / (12.0 * h * h)
        rhs = x[idx] * q0[idx] + 2.0 * q0[idx] ** 3
        assert np.max(np.abs(qxx - rhs)) < 1e-8

    def test_variational_residual_order1(self, sol_default):
        x, b = _uniform(sol_default)
        q0, q1 = b.q[:2]
        h = x[1] - x[0]
        idx = np.linspace(2, x.size - 3, 100).astype(int)
        qxx = (-q1[idx - 2] + 16 * q1[idx - 1] - 30 * q1[idx]
               + 16 * q1[idx + 1] - q1[idx + 2]) / (12.0 * h * h)
        rhs = (x[idx] + 6.0 * q0[idx] ** 2) * q1[idx]
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(qxx - rhs) / scale) < 1e-7

    def test_second_derivative_of_I_is_q_squared(self, sol_default):
        x, b = _uniform(sol_default)
        i0 = b.I[0]
        q0 = b.q[0]
        h = x[1] - x[0]
        idx = np.linspace(2, x.size - 3, 100).astype(int)
        ixx = (-i0[idx - 2] + 16 * i0[idx - 1] - 30 * i0[idx]
               + 16 * i0[idx + 1] - i0[idx + 2]) / (12.0 * h * h)
        assert np.max(np.abs(ixx - q0[idx] ** 2)) < 1e-6

    def test_asymptotic_match_at_minus8(self, sol_default):
        b = sol_default.jet_at(-8.0)
        q0_ref = painleve.q0_asymptotic(16.0)
        q1_ref = painleve.q1_asymptotic(16.0)
        assert abs(b.q[0] - q0_ref) / q0_ref < 1e-6
        assert abs(b.q[1] - q1_ref) / q1_ref < 1e-4

    def test_jet_order_consistency(self, sol_default, sol_order2):
        # truncation order must not change the shared coefficients
        for s in (-9.0, -4.0, 0.0, 3.0):
            full = sol_default.jet_at(s)
            low = sol_order2.jet_at(s)
            for name in ("q", "I", "Iprime", "J"):
                a = getattr(full, name)[:3]
                b = getattr(low, name)
                for u, v in zip(a, b):
                    assert abs(u - v) <= 1e-10 * max(1.0, abs(v))

    def test_diagnostics_present(self, sol_default):
        d = sol_default.diagnostics
        assert isinstance(d, dict) and d


class TestSolutionAccess:
    def test_jet_at_below_range(self, sol_default):
        with pytest.raises(ValueError):
            sol_default.jet_at(-14.0)

    def test_tail_jets_continuous_at_x_right(self, sol_default):
        inner = sol_default.jet_at(6.0 - 1e-9)
        outer = sol_default.jet_at(6.0 + 1e-9)
        for name in ("q", "I", "Iprime", "J"):
            a = getattr(inner, name)
            b = getattr(outer, name)
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-13)

    def test_tail_jet_values(self, sol_default):
        s = 8.0
        b = sol_default.jet_at(s)
        ai = specfun.airy(s).ai
        np.testing.assert_allclose(
            b.q, [c * ai for c in painleve.sqrt_lambda_coeffs(4)],
            rtol=1e-14)
        assert b.I[0] == b.I[1]
        assert b.I[2] == 0.0

    def test_jets_at_domain_ends(self, sol_default):
        xl, xr = sol_default.config.x_left, sol_default.config.x_right
        pts = np.array([xr + 1e-9, xl, xr, xr - 1e-9])
        got = sol_default.jets(pts)
        for name in got._fields:
            a = getattr(got, name)
            # a point's jets do not depend on the other points asked for
            for j, x in enumerate(pts):
                alone = getattr(sol_default.jets(pts[j:j + 1]), name)
                assert np.array_equal(a[:, j], alone[:, 0])
            # the closed-form tail continues the solve across x_right
            np.testing.assert_allclose(a[:, [0, 3]], a[:, [2, 2]],
                                       rtol=1e-6, atol=1e-13)
        # the sweep's dense output at its start reproduces the start
        # values exactly: orders >= 1 of q are binom(1/2, k) Ai(x_right)
        # and of I are T(x_right), 0, 0, 0, with the closed forms that
        # ``_tail_state`` reads
        b = np.array(painleve.sqrt_lambda_coeffs(4)[1:])
        ai, aip, _, _ = special.airy(xr)
        T = -(ai * aip) / 3.0 - (2.0 / 3.0) * xr * aip * aip \
            + (2.0 / 3.0) * xr * xr * ai * ai
        assert np.array_equal(got.q[1:, 2], b * ai)
        assert got.I[1:, 2].tolist() == [T, 0.0, 0.0, 0.0]
        assert got.q[0, 1] == pytest.approx(
            painleve.q0_asymptotic(-2.0 * xl), rel=1e-10)

    def test_jet_order_property(self, sol_default, sol_order2):
        assert sol_default.jet_order == 4
        assert sol_order2.jet_order == 2

    def test_jets_to_lower_order(self, sol_default):
        # orders 0..k are the same bits whatever k is asked for, inside
        # the solved domain and in the closed-form tail
        s = np.linspace(-10.0, 9.5, 391)
        full = sol_default.jets(s)
        for k in range(5):
            for low, whole in zip(sol_default.jets(s, k), full):
                assert low.tobytes() == whole[:k + 1].tobytes()
        for k in (-1, 5):
            with pytest.raises(ValueError, match="capability error"):
                sol_default.jets(s, k)

    def test_non_finite_points_refused(self, sol_default):
        # a NaN anywhere is out of the domain, as -inf is; +inf is
        # refused by the Airy tails
        for s in ([math.nan], [1.0, math.nan], [math.nan, 8.0], [-math.inf]):
            with pytest.raises(ValueError, match="^range error"):
                sol_default.jets(np.array(s))
        for s in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="^range error"):
                sol_default.jet_at(s)
        for call in (lambda: sol_default.jets([1.0, math.inf]),
                     lambda: sol_default.jet_at(math.inf)):
            with pytest.raises(ValueError):
                call()

def _sha(sol, s):
    # one digest over all four jet fields at the points s
    h = hashlib.sha256()
    for field in sol.jets(s):
        h.update(field.tobytes())
    return h.hexdigest()


class TestSolutionCache:
    """``solve`` keeps one file per configuration under
    $XDG_CACHE_HOME/edgedist; each test starts from an empty root."""

    @pytest.fixture(autouse=True)
    def root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        return tmp_path

    @pytest.fixture(scope="class")
    def entry(self, tmp_path_factory):
        # the bytes of the cache file of a jet-order-1 solve
        cfg = SolverConfig(jet_order=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("c")))
            painleve.solve(cfg)
            with open(painleve._cache_path(cfg), "rb") as fh:
                return cfg, fh.read()

    @staticmethod
    def _put(cfg, data):
        path = painleve._cache_path(cfg)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    @pytest.mark.parametrize("x_left, jet_order",
                             [(-13.5, 4), (-10.0, 0), (-20.25, 1)])
    def test_hit_gives_the_same_bits(self, x_left, jet_order):
        cfg = SolverConfig(x_left=x_left, jet_order=jet_order)
        fresh = painleve.solve(cfg)
        cached = painleve.solve(cfg)
        assert fresh.diagnostics.pop("cache") == {"hit": False}
        assert cached.diagnostics.pop("cache") == {"hit": True}
        assert cached.diagnostics == fresh.diagnostics
        # x_left, x_right, points in between and the Airy tail
        s = np.concatenate([np.linspace(x_left, 12.0, 2001),
                            [x_left, 6.0, 6.0 + 1e-9]])
        assert _sha(cached, s) == _sha(fresh, s)

    def test_equal_configs_share_one_file(self):
        # x_left is stored as a float: equal values name one file, and
        # the served -13.5 keeps its name
        paths = {painleve._cache_path(SolverConfig(x_left=x))
                 for x in (-11, -11.0, np.float64(-11.0))}
        assert len(paths) == 1
        assert paths.pop().endswith("-x-11.0-j4.npz")
        assert painleve._cache_path(SolverConfig(
            x_left=np.float64(-13.5))).endswith("-x-13.5-j4.npz")

    def test_configs_are_not_served_for_each_other(self, root):
        configs = [SolverConfig(jet_order=0), SolverConfig(x_left=-10.5,
                                                           jet_order=0),
                   SolverConfig(jet_order=1)]
        paths = [painleve._cache_path(c) for c in configs]
        s = np.linspace(-10.0, 8.0, 501)
        digests = [_sha(painleve.solve(c), s) for c in configs]
        assert sorted(os.listdir(root / "edgedist")) == sorted(
            os.path.basename(p) for p in paths)
        # the first file under the others' names is refused and replaced
        for cfg, path, digest in zip(configs[1:], paths[1:], digests[1:]):
            shutil.copyfile(paths[0], path)
            sol = painleve.solve(cfg)
            assert sol.diagnostics["cache"] == {"hit": False}
            assert _sha(sol, s) == digest
            assert painleve.solve(cfg).diagnostics["cache"] == {"hit": True}

    def test_damaged_file_is_a_miss(self, entry):
        cfg, data = entry
        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 0xFF  # a bad CRC
        for damaged in (b"", data[:10], data[:len(data) // 3], data[:-1],
                        bytes(flipped)):
            self._put(cfg, damaged)
            assert painleve._load(cfg) is None
        self._put(cfg, data)
        assert painleve._load(cfg) is not None

    def test_truncated_file_is_solved_again(self, entry):
        cfg, data = entry
        self._put(cfg, data[:len(data) // 2])
        assert painleve.solve(cfg).diagnostics["cache"] == {"hit": False}
        assert painleve.solve(cfg).diagnostics["cache"] == {"hit": True}

    @pytest.mark.parametrize("change", [
        lambda a: a.update(c=a["c"][:, 1:]),
        lambda a: a.update(F=a["F"][:, :, :3]),
        lambda a: a.update(key=a["key"] + [1, 0, 0]),
        lambda a: a.update(ts=a["ts"].astype(np.float32)),
        lambda a: a.pop("residual"),
        lambda a: a.update(extra=np.zeros(3)),
        lambda a: a.update(x=a["x"][:1], c=a["c"][:, :0]),
        lambda a: a.update(ts=a["ts"][:1], y_old=a["y_old"][:0],
                           F=a["F"][:, :0]),
        lambda a: a.update(x=a["x"][::-1].copy()),
        lambda a: a.update(ts=np.sort(np.r_[a["ts"][1:], a["ts"][1]])),
    ], ids=["shape", "sweep-width", "format", "dtype",
            "missing", "extra", "one-node", "one-step", "descending",
            "repeated-breakpoint"])
    def test_malformed_entry_is_refused(self, entry, change):
        cfg, data = entry
        path = self._put(cfg, data)
        with np.load(path) as z:
            arrays = dict(z)
        change(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert painleve._load(cfg) is None

    def test_format_2_file_is_solved_again(self, entry):
        # the layouts before format 4 kept five states, q' among them (the
        # entry is of jet order 1, so its sweep holds one row per state),
        # and the one before format 3 also each step's t_old and h
        cfg, data = entry
        with np.load(io.BytesIO(data)) as z:
            five = {f: np.insert(z[f], 1, 0.0, axis=-1) if f in
                    ("c", "y_old", "F") else z[f] for f in z.files}
        ts = five["ts"]
        old = [dict(five, key=np.array([2.0, cfg.x_left, cfg.jet_order]),
                    t_old=ts[1:], h=ts[:-1] - ts[1:]),
               dict(five, key=np.array([3.0, cfg.x_left, cfg.jet_order]))]
        for arrays in old:
            path = self._put(cfg, b"")
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
            assert painleve.solve(cfg).diagnostics["cache"] == {"hit": False}
            with np.load(path) as z:
                assert sorted(z.files) == ["F", "c", "key", "residual", "ts",
                                           "x", "y_old"]
                assert z["key"][0] == 4.0
                assert z["c"].shape[-1] == z["y_old"].shape[-1] == 4
            assert painleve.solve(cfg).diagnostics["cache"] == {"hit": True}

    def test_object_array_is_solved_again(self, entry):
        cfg, data = entry
        path = self._put(cfg, data)
        with np.load(path) as z:
            arrays = dict(z)
        arrays["c"] = arrays["c"].astype(object)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert painleve.solve(cfg).diagnostics["cache"] == {"hit": False}
        assert painleve.solve(cfg).diagnostics["cache"] == {"hit": True}

    def test_unwritable_root(self, tmp_path, monkeypatch):
        # makedirs fails under a regular file whatever the permissions
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        cfg = SolverConfig(jet_order=0)
        for _ in range(2):
            sol = painleve.solve(cfg)
            assert sol.diagnostics["cache"] == {"hit": False}
        # no output byte depends on the cache
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        s = np.linspace(cfg.x_left, 12.0, 2001)
        assert _sha(sol, s) == _sha(painleve.solve(cfg), s)

    def test_store_removes_other_code_keys(self, entry, root):
        # a file older than the sources was written by an earlier code
        cfg, data = entry
        folder = root / "edgedist"
        folder.mkdir()
        stale = folder / ("0" * 64 + "-x-10.0-j1.npz")
        stale.write_bytes(data)
        os.utime(stale, (0, 0))
        (folder / "notes.txt").write_text("")
        painleve.solve(cfg)
        assert sorted(os.listdir(folder)) == sorted(
            [os.path.basename(painleve._cache_path(cfg)), "notes.txt"])

    def test_store_keeps_newer_code_keys(self, entry, root):
        # a file newer than the sources may be another checkout's
        cfg, data = entry
        folder = root / "edgedist"
        folder.mkdir()
        other = folder / ("0" * 64 + "-x-10.0-j1.npz")
        other.write_bytes(data)
        newest = max(map(os.path.getmtime, painleve._CACHE_SOURCES))
        os.utime(other, (newest + 1, newest + 1))
        assert painleve.solve(cfg).diagnostics["cache"] == {"hit": False}
        assert sorted(os.listdir(folder)) == sorted(
            [os.path.basename(painleve._cache_path(cfg)), other.name])


class TestLambdaSolve:
    def test_lambda_zero_is_zero(self):
        sol = painleve.solve_at_lambda(0.0)
        assert [f.tolist() for f in sol.jet_at(-3.0)] == [[0.0]] * 4

    def test_lambda_half_boundary(self):
        b = painleve.solve_at_lambda(0.5).jet_at(6.0)
        pair = specfun.airy(6.0)
        _, _, T, V, W = specfun.airy_tail(6.0)
        assert b.q[0] == pytest.approx(math.sqrt(0.5) * pair.ai, rel=1e-10)
        assert b.I[0] == pytest.approx(0.5 * T, rel=1e-10)
        assert b.Iprime[0] == pytest.approx(-0.5 * V, rel=1e-10)
        assert b.J[0] == pytest.approx(math.sqrt(0.5) * W, rel=1e-10)

    def test_left_of_domain(self):
        with pytest.raises(ValueError, match="range error"):
            painleve.solve_at_lambda(0.5).jet_at(-14.0)

    def test_equals_ode_solution(self, monkeypatch):
        # the deformed sweep's OdeSolution, bit for bit, at the points of
        # verify --check oracle and at every breakpoint, on the states q,
        # I, I', J that the solution keeps of q, q', I, I', J
        runs, solve_ivp = [], integrate.solve_ivp

        def record(*args, **kwargs):
            runs.append(solve_ivp(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(integrate, "solve_ivp", record)
        sol = painleve.solve_at_lambda(0.5)
        assert sol.jet_order == 0 and sol.config.x_left == -13.5
        (res,) = runs
        pts = np.concatenate([[-6.0, -4.0, -2.0, 0.0, 2.0, 4.0], res.t])
        got = np.array(sol.jets(pts))[:, 0]
        assert got.tobytes() == res.sol(pts)[[0, 2, 3, 4]].tobytes()

    def test_tail_is_closed_form(self):
        # beyond x_right: sqrt(lam) Ai, lam T, -lam V, sqrt(lam) W
        lam, s = 0.5, np.array([6.0 + 1e-9, 7.5, 20.0])
        ai, _, T, V, W = specfun.airy_tail(s)
        r = math.sqrt(lam)
        want = [r * ai, lam * T, -lam * V, r * W]
        got = painleve.solve_at_lambda(lam).jets(s)
        assert [f[0].tobytes() for f in got] == [w.tobytes() for w in want]

    def test_no_jets_below_lambda_1(self):
        sol = painleve.solve_at_lambda(0.5)
        with pytest.raises(ValueError, match="capability error"):
            sol.jets(np.array([0.0]), 1)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            painleve.solve_at_lambda(1.0)
        with pytest.raises(ValueError):
            painleve.solve_at_lambda(-0.1)


def _small_sweep(t_span, method="DOP853"):
    # Airy's equation plus a quadratic integral: a few dozen steps
    return integrate.solve_ivp(
        lambda x, y: [y[1], x * y[0], -y[0] ** 2], t_span,
        [special.airy(t_span[0])[0], special.airy(t_span[0])[1], 0.0],
        method=method, rtol=1e-10, atol=1e-14, dense_output=True)


class TestSpline:
    """The numpy order-0 spline must reproduce scipy's PPoly bit for
    bit; a change in PPoly's evaluation fails here."""

    @pytest.mark.parametrize("fixture", ["sol_default", "sol_order0"])
    def test_equals_ppoly(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        spline = sol._dense[0]
        # solve_bvp's PPoly evaluates along axis 1
        ppoly = interpolate.PPoly.construct_fast(spline.c, spline.x, True, 1)
        xl, xr = sol.config.x_left, sol.config.x_right
        # points in between, every breakpoint, and the ends, one of them
        # just outside
        pts = np.concatenate([np.linspace(xl, xr, 20001), spline.x,
                              [xl - 1e-13, xr]])
        assert spline(pts).tobytes() == ppoly(pts).tobytes()


class TestDenseSweep:
    """The stacked DOP853 evaluator must reproduce scipy's OdeSolution
    bit for bit; a change in scipy's dense-output internals fails here."""

    @pytest.mark.parametrize("t_span", [(2.0, -4.0)])
    def test_equals_ode_solution(self, t_span):
        res = _small_sweep(t_span)
        assert res.t.size > 10
        ev = painleve._Dop853Dense.from_solution(res.sol, slice(None))
        lo, hi = min(t_span), max(t_span)
        # unsorted interior points, every breakpoint (both ends among
        # them), and points just outside
        pts = np.concatenate([
            np.random.default_rng(3).uniform(lo, hi, 2000), res.t[::-1],
            res.t, [lo - 0.1, hi + 0.1]])
        assert np.array_equal(ev(pts), res.sol(pts))
        for t in (lo, hi, res.t[res.t.size // 2], 0.3):
            one = ev(np.array([t]))
            assert one.shape == (3, 1)
            assert np.array_equal(one, res.sol(np.array([t])))
            assert np.array_equal(one[:, 0], res.sol(t))

    def test_breakpoint_ties(self):
        # steps of random data disagree where they meet, so only
        # OdeSolution's choice of step at a breakpoint gives its values
        from scipy.integrate._ivp.rk import Dop853DenseOutput
        rng = np.random.default_rng(4)
        ts = -np.cumsum(rng.uniform(0.1, 1.0, 9))
        sol = integrate.OdeSolution(ts, [
            Dop853DenseOutput(a, b, rng.standard_normal(2),
                              rng.standard_normal((7, 2)))
            for a, b in zip(ts[:-1], ts[1:])])
        ev = painleve._Dop853Dense.from_solution(sol, slice(None))
        assert np.array_equal(ev(ts), sol(ts))

    def test_rejects_other_interpolants(self):
        res = _small_sweep((2.0, -4.0), method="RK45")
        with pytest.raises(painleve.SolverError, match="DOP853"):
            painleve._Dop853Dense.from_solution(res.sol, slice(None))

    def test_rejects_left_to_right_solve(self):
        # the jet sweep runs from x_right to x_left, and the tie rule
        # above holds only for that direction
        res = _small_sweep((-4.0, 2.0))
        with pytest.raises(painleve.SolverError, match="right-to-left"):
            painleve._Dop853Dense.from_solution(res.sol, slice(None))
