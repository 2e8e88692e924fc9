import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from edgedist import dist, rmt
from edgedist.rmt import EnsembleConfig


class TestConfig:
    def test_unknown_ensemble(self):
        for ensemble in ("circular", None, 3):
            with pytest.raises(ValueError, match="unknown ensemble"):
                EnsembleConfig(ensemble=ensemble, size=10)

    def test_case_folded(self):
        assert EnsembleConfig(ensemble="GOE", size=10).ensemble == "goe"

    def test_gaussian_size(self):
        with pytest.raises(ValueError, match="size"):
            EnsembleConfig(ensemble="goe", size=0)
        with pytest.raises(ValueError, match="size"):
            EnsembleConfig(ensemble="gue", size=3, top_k=4)

    def test_reps_and_top_k(self):
        with pytest.raises(ValueError, match="reps"):
            EnsembleConfig(ensemble="goe", size=5, reps=0)
        with pytest.raises(ValueError, match="top_k"):
            EnsembleConfig(ensemble="goe", size=5, top_k=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
    def test_seed_outside_generator_key(self, seed):
        # the stream is keyed by the seed and the rep as 64-bit words
        with pytest.raises(ValueError, match="seed"):
            EnsembleConfig(ensemble="goe", size=5, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            EnsembleConfig(ensemble="wishart", rows=5, cols=3, seed=seed)
        cfg = EnsembleConfig(ensemble="wishart", rows=5, cols=3)
        with pytest.raises(ValueError, match="rep_index"):
            rmt.sample_spectrum(cfg, seed)

    @pytest.mark.parametrize("field, value", [
        ("size", 10.5), ("size", 10.0), ("reps", 2.5), ("top_k", 1.0),
        ("rows", 30.5), ("cols", 40.0), ("reps", "3"),
    ])
    def test_counts_are_integers(self, field, value):
        # a float count used to pass here and break collect later
        shape = {"size": 10} if field == "size" else {"rows": 30, "cols": 40}
        kind = "goe" if field == "size" else "wishart"
        with pytest.raises(ValueError, match=field):
            EnsembleConfig(ensemble=kind, **{**shape, field: value})

    def test_wishart_shape(self):
        with pytest.raises(ValueError, match="Wishart"):
            EnsembleConfig(ensemble="wishart", rows=1, cols=5)
        with pytest.raises(ValueError, match="Wishart"):
            EnsembleConfig(ensemble="wishart", rows=5, cols=0)
        with pytest.raises(ValueError, match="nonzero spectrum"):
            EnsembleConfig(ensemble="wishart", rows=5, cols=3, top_k=4)
        cfg = EnsembleConfig(ensemble="wishart", rows=5, cols=3)
        assert cfg.size == 3


class TestEdgeScale:
    def test_center_maps_to_zero(self):
        assert rmt.edge_scale(math.sqrt(128.0), 64) == 0.0

    def test_unit_step(self):
        l = math.sqrt(128.0) + 64.0 ** (-1.0 / 6.0) / math.sqrt(2.0)
        assert rmt.edge_scale(l, 64) == pytest.approx(1.0, rel=1e-12)

    def test_order_preserved(self):
        raw = np.array([9.0, 8.5, 7.0])
        out = rmt.edge_scale(raw, 16)
        assert np.all(np.diff(out) < 0.0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            rmt.edge_scale(1.0, 0)


def _matrix(kind, n, rng):
    # one draw of an n x n Gaussian ensemble matrix from rng
    return rmt._drawer(EnsembleConfig(ensemble=kind, size=n))(rng)


def _reference_matrix(cfg, rng):
    # the draw as plain formulas, each operation allocating its result
    if cfg.ensemble == "wishart":
        x = rng.standard_normal((cfg.rows, cfg.cols))
        return x @ x.T if cfg.cols > cfg.rows else x.T @ x
    n = 2 * cfg.size + 1 if cfg.ensemble == "gse" else cfg.size
    g = rng.standard_normal((n, n))
    if cfg.ensemble != "gue":
        return (g + g.T) / 2.0
    k = rng.standard_normal((n, n))
    c = 2.0 * math.sqrt(2.0)
    return (g + g.T) / c + 1j * (k - k.T) / c


class TestMatrixLaws:
    def test_goe_entry_variances(self):
        m = _matrix("goe", 500, rmt._rng(3, 0))
        np.testing.assert_array_equal(m, m.T)
        assert np.var(np.diag(m)) == pytest.approx(1.0, rel=0.2)
        off = m[np.triu_indices(500, k=1)]
        assert np.var(off) == pytest.approx(0.5, rel=0.05)

    def test_gue_entry_variances(self):
        m = _matrix("gue", 500, rmt._rng(4, 0))
        np.testing.assert_array_equal(m, m.conj().T)
        d = np.diag(m)
        assert np.all(d.imag == 0.0)
        assert np.var(d.real) == pytest.approx(0.5, rel=0.2)
        off = m[np.triu_indices(500, k=1)]
        assert np.var(off.real) == pytest.approx(0.25, rel=0.05)
        assert np.var(off.imag) == pytest.approx(0.25, rel=0.05)

    def test_trace_identity(self):
        m = _matrix("goe", 200, rmt._rng(6, 0))
        vals = np.linalg.eigvalsh(m)
        assert abs(vals.sum() - np.trace(m)) <= 1e-8 * 200

    def test_goe_1x1_is_standard_normal(self):
        cfg = EnsembleConfig(ensemble="goe", size=1, reps=20000, seed=5)
        vals = np.array([rmt.sample_spectrum(cfg, i).raw_top[0]
                         for i in range(20000)])
        assert vals.std(ddof=1) == pytest.approx(1.0, abs=0.025)
        assert abs(vals.mean()) <= 0.025

    def test_gse_1x1_is_normal_with_variance_half(self):
        # quaternion dimension 1 is a real scalar of variance 1/2: the
        # middle eigenvalue of a 3 x 3 GOE
        cfg = EnsembleConfig(ensemble="gse", size=1, reps=20000, seed=5)
        vals = np.array([rmt.sample_spectrum(cfg, i).raw_top[0]
                         for i in range(20000)])
        assert vals.std(ddof=1) == pytest.approx(math.sqrt(0.5), abs=0.02)
        assert abs(vals.mean()) <= 0.02
        ks = stats.kstest(vals, stats.norm(scale=math.sqrt(0.5)).cdf)
        assert ks.pvalue >= 0.01


class TestSampling:
    def test_rep_index_bounds(self):
        cfg = EnsembleConfig(ensemble="goe", size=4, reps=3)
        with pytest.raises(ValueError):
            rmt.sample_spectrum(cfg, 3)
        with pytest.raises(ValueError):
            rmt.sample_spectrum(cfg, -1)

    @pytest.mark.parametrize("cfg", [
        EnsembleConfig(ensemble="goe", size=10, reps=3, seed=1),
        EnsembleConfig(ensemble="gue", size=10, reps=3, seed=1),
        EnsembleConfig(ensemble="gse", size=10, reps=3, seed=1),
        EnsembleConfig(ensemble="wishart", rows=10, cols=6, reps=3, seed=1),
    ], ids=lambda cfg: cfg.ensemble)
    @pytest.mark.parametrize("rep_index", [
        1.5, 1.0, np.float64(1.0), "1", -1, 3, 2 ** 64,
    ], ids=["1.5", "1.0", "float64", "str", "-1", "reps", "2**64"])
    def test_rep_index_is_checked_on_every_ensemble(self, cfg, rep_index):
        # a float index used to draw another rep on the Gaussian path
        with pytest.raises(ValueError, match="rep_index"):
            rmt.sample_spectrum(cfg, rep_index)

    def test_top_k_descending(self):
        cfg = EnsembleConfig(ensemble="gue", size=12, reps=1, seed=2,
                             top_k=5)
        out = rmt.sample_spectrum(cfg, 0)
        assert out.scaled_top.shape == (5,)
        assert np.all(np.diff(out.raw_top) < 0.0)

    def test_deterministic_and_index_keyed(self):
        cfg = EnsembleConfig(ensemble="goe", size=8, reps=10, seed=42,
                             top_k=2)
        a, fail_a = rmt.collect(cfg)
        b, fail_b = rmt.collect(cfg)
        assert not fail_a and not fail_b
        np.testing.assert_array_equal(a, b)
        one = rmt.sample_spectrum(cfg, 5).scaled_top
        np.testing.assert_array_equal(a[5], one)
        other, _ = rmt.collect(
            EnsembleConfig(ensemble="goe", size=8, reps=10, seed=43,
                           top_k=2))
        assert not np.array_equal(a, other)

    @pytest.mark.parametrize("cfg", [
        EnsembleConfig(ensemble="goe", size=9, reps=6, seed=9, top_k=3),
        EnsembleConfig(ensemble="gue", size=7, reps=6, seed=9, top_k=2),
        EnsembleConfig(ensemble="gse", size=6, reps=6, seed=9, top_k=2),
        EnsembleConfig(ensemble="wishart", rows=8, cols=5, reps=6, seed=9,
                       top_k=2),
    ], ids=lambda cfg: cfg.ensemble)
    def test_rows_are_single_reps(self, cfg):
        # row i is rep i drawn on its own, bit for bit
        samples, failures = rmt.collect(cfg)
        assert not failures
        assert samples.shape == (cfg.reps, cfg.top_k)
        for i in range(cfg.reps):
            one = rmt.sample_spectrum(cfg, i).scaled_top
            assert samples[i].tobytes() == one.tobytes()

    def test_gse_is_every_second_goe_eigenvalue(self):
        # GSE rep i is ranks 2, 4, ... of the GOE of dimension 2N+1 drawn
        # from the same (seed, rep) stream, bit for bit
        n, top_k = 7, 4
        cfg = EnsembleConfig(ensemble="gse", size=n, reps=5, seed=31,
                             top_k=top_k)
        for i in range(cfg.reps):
            out = rmt.sample_spectrum(cfg, i)
            vals = np.linalg.eigvalsh(_matrix("goe", 2 * n + 1,
                                              rmt._rng(31, i)))
            want = vals[::-1][1::2][:top_k]
            assert out.raw_top.tobytes() == want.tobytes()
            assert out.scaled_top.tobytes() == \
                rmt.edge_scale(want, 2 * n + 1).tobytes()

    def test_failed_reps_are_reported_in_order(self, monkeypatch):
        cfg = EnsembleConfig(ensemble="goe", size=6, reps=8, seed=4,
                             top_k=2)
        eigvalsh = rmt._eigvalsh

        def broken(m, rep_index):
            if rep_index in (2, 5):
                raise rmt.SampleError("injected", rep_index)
            return eigvalsh(m, rep_index)

        monkeypatch.setattr(rmt, "_eigvalsh", broken)
        samples, failures = rmt.collect(cfg)
        assert [exc.rep_index for exc in failures] == [2, 5]
        assert samples.shape == (6, 2)
        kept = [rmt.sample_spectrum(cfg, i).scaled_top
                for i in (0, 1, 3, 4, 6, 7)]
        np.testing.assert_array_equal(samples, np.array(kept))

    @pytest.mark.parametrize("cfg", [
        EnsembleConfig(ensemble="goe", size=9, reps=5, seed=12, top_k=2),
        EnsembleConfig(ensemble="gue", size=7, reps=5, seed=12, top_k=2),
        EnsembleConfig(ensemble="gse", size=6, reps=5, seed=12, top_k=2),
        EnsembleConfig(ensemble="wishart", rows=8, cols=5, reps=5, seed=12,
                       top_k=2),
        EnsembleConfig(ensemble="wishart", rows=5, cols=8, reps=5, seed=12,
                       top_k=2),
    ], ids=lambda cfg: f"{cfg.ensemble}{cfg.rows}x{cfg.cols}")
    def test_reused_draw_matches_formulas(self, cfg, monkeypatch):
        # every rep of a job draws into the same arrays; each matrix has
        # the bits of the allocating formulas, also after a rep whose
        # eigensolve failed, so nothing carries over from rep to rep
        seen = {}
        eigvalsh = rmt._eigvalsh

        def spy(m, rep_index):
            seen[rep_index] = m.copy()
            if rep_index == 2:
                raise rmt.SampleError("injected", rep_index)
            return eigvalsh(m, rep_index)

        monkeypatch.setattr(rmt, "_eigvalsh", spy)
        samples, failures = rmt.collect(cfg)
        assert [exc.rep_index for exc in failures] == [2]
        for i in range(cfg.reps):
            want = _reference_matrix(cfg, rmt._rng(cfg.seed, i))
            assert seen[i].dtype == want.dtype
            assert seen[i].tobytes() == want.tobytes()
        kept = [rmt.sample_spectrum(cfg, i).scaled_top for i in (0, 1, 3, 4)]
        assert samples.tobytes() == np.array(kept).tobytes()

    def test_every_rep_failed(self, monkeypatch):
        def broken(m, rep_index):
            raise rmt.SampleError("injected", rep_index)

        monkeypatch.setattr(rmt, "_eigvalsh", broken)
        cfg = EnsembleConfig(ensemble="gue", size=5, reps=3, top_k=4)
        samples, failures = rmt.collect(cfg)
        assert samples.shape == (0, 4)
        assert [exc.rep_index for exc in failures] == [0, 1, 2]

    def test_wishart_gram_routes_agree(self):
        # the sampler diagonalizes the smaller Gram matrix, X X^t when
        # p > n and X^t X otherwise; the larger one has the same top
        for n, p in ((5, 12), (12, 5)):
            cfg = EnsembleConfig(ensemble="wishart", rows=n, cols=p, seed=3,
                                 top_k=3)
            out = rmt.sample_spectrum(cfg, 0)
            x = rmt._rng(3, 0).standard_normal((n, p))
            larger = x.T @ x if p > n else x @ x.T
            assert larger.shape == (max(n, p),) * 2
            want = np.linalg.eigvalsh(larger)[::-1][:3]
            np.testing.assert_allclose(out.raw_top, want, rtol=1e-10)

    def test_wishart_chi_square_column(self):
        # p = 1 reduces to a chi-square with n degrees of freedom
        cfg = EnsembleConfig(ensemble="wishart", rows=50, cols=1, seed=8,
                             reps=2000)
        vals = np.array([rmt.sample_spectrum(cfg, i).raw_top[0]
                         for i in range(2000)])
        assert vals.mean() == pytest.approx(50.0, abs=1.0)
        assert np.all(vals > 0.0)

    def test_wishart_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(ensemble="wishart", rows=1, cols=5)
        with pytest.raises(ValueError):
            EnsembleConfig(ensemble="wishart", rows=5, cols=1, top_k=2)

    def test_johnstone_center(self):
        mu, sigma = rmt.johnstone_center(100, 100)
        assert mu == pytest.approx(397.997487421324, rel=1e-12)
        assert sigma == pytest.approx(11.676544921783, rel=1e-12)
        mu, sigma = rmt.johnstone_center(100, 400)
        assert mu == pytest.approx(896.994974842648, rel=1e-12)
        assert sigma == pytest.approx(15.931040524949, rel=1e-12)


def _quaternion_gse_top(rng, n):
    # the reference model: a quaternion self-dual matrix of dimension n,
    # embedded as a 2n x 2n complex Hermitian matrix with every
    # eigenvalue doubled; diagonal variance 1/2, each of the four
    # quaternion components 1/4.  Returns the n distinct eigenvalues,
    # largest first
    a = _matrix("gue", n, rng)
    p = rng.standard_normal((n, n))
    r = rng.standard_normal((n, n))
    b = ((p - p.T) + 1j * (r - r.T)) / (2.0 * math.sqrt(2.0))
    vals = np.linalg.eigvalsh(np.block([[a, b], [-b.conj(), a.conj()]]))
    np.testing.assert_allclose(vals[0::2], vals[1::2], rtol=0.0,
                               atol=1e-10)
    return vals[::-2]


def test_symplectic_spectrum_interlaces_orthogonal():
    # the sampler draws the symplectic spectrum of quaternion dimension N
    # as every second eigenvalue of the orthogonal ensemble of dimension
    # 2N+1, which coincides in law with the quaternion model at finite
    # N, under the shared 2N+1 rescaling; the two-sample comparison
    # below is then pure sampling noise
    reps, n = 2000, 60
    gse, failures = rmt.collect(EnsembleConfig(
        ensemble="gse", size=n, reps=reps, seed=101, top_k=2))
    assert not failures
    ref = rmt.edge_scale([_quaternion_gse_top(rmt._rng(202, i), n)[:2]
                          for i in range(reps)], 2 * n + 1)
    for j in (0, 1):
        ks = stats.ks_2samp(gse[:, j], ref[:, j])
        assert ks.statistic <= 0.05
    # mismatched ranks must be far apart, or the test proves nothing
    assert stats.ks_2samp(gse[:, 0], ref[:, 1]).statistic > 0.3


class TestSummaries:
    def test_two_point_sample(self):
        got = rmt.summarize(np.array([-1.0, 1.0]))
        assert got.mean == 0.0
        assert got.sd == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert got.skewness == 0.0
        assert got.kurtosis == -2.0

    def test_matches_scipy_stats(self):
        # summarize keeps scipy.stats' biased defaults without importing it
        gen = np.random.Generator(np.random.Philox(key=[2, 0]))
        for vals in (gen.standard_normal(500), gen.gamma(2.0, size=37),
                     -3.0 + 0.1 * gen.gumbel(size=4000)):
            got = rmt.summarize(vals)
            assert got.skewness == pytest.approx(stats.skew(vals),
                                                 rel=1e-12)
            assert got.kurtosis == pytest.approx(stats.kurtosis(vals),
                                                 rel=1e-12)

    def test_normal_limits(self):
        vals = np.random.Generator(np.random.Philox(key=[1, 0])) \
            .standard_normal(200000)
        got = rmt.summarize(vals)
        assert abs(got.skewness) <= 0.02
        assert abs(got.kurtosis) <= 0.05

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            rmt.summarize(np.array([3.0]))
        with pytest.raises(ValueError):
            rmt.summarize(np.full(10, 2.5))

    def test_returns_summary_stats(self):
        got = rmt.summarize(np.array([0.0, 1.0, 2.0, 4.0]))
        assert isinstance(got, dist.SummaryStats)


@pytest.fixture(scope="module")
def normal_table():
    s = np.linspace(-9.0, 9.0, 3601)
    return dist.DistTable(s=s, F=stats.norm.cdf(s), f=stats.norm.pdf(s),
                          beta=1, m=1)


class TestPercentiles:
    def test_invert_cdf(self, normal_table):
        assert rmt._invert_cdf(normal_table, 0.5) == pytest.approx(0.0,
                                                                   abs=0.01)
        got = rmt._invert_cdf(normal_table, 0.95)
        assert got == pytest.approx(1.6449, abs=0.01)

    def test_invert_cdf_out_of_mass(self, normal_table):
        with pytest.raises(ValueError, match="range error"):
            rmt._invert_cdf(normal_table, 1e-20)
        s = np.linspace(-9.0, 2.0, 1101)
        short = dist.DistTable(s=s, F=stats.norm.cdf(s),
                               f=stats.norm.pdf(s), beta=1, m=1)
        with pytest.raises(ValueError, match="range error"):
            rmt._invert_cdf(short, 0.99)

    def test_out_of_mass_message_keeps_every_digit(self, beta1_tables):
        # the table's mass ends a little below 1, and the message says by
        # how much instead of rounding it to 1
        table = beta1_tables[0]
        with pytest.raises(ValueError, match="outside table mass") as err:
            rmt._invert_cdf(table, 1.0)
        upper = float(str(err.value).rsplit(", ", 1)[1].rstrip("]"))
        assert upper == table.F[-1] < 1.0

    def test_nan_level_is_out_of_mass(self, normal_table):
        # NaN fails every comparison, so it must not slip past the check
        with pytest.raises(ValueError, match="outside table mass"):
            rmt.percentile_report(np.zeros((3, 1)), [normal_table],
                                  [float("nan")])

    def test_report_against_exact_law(self, normal_table):
        rng = np.random.Generator(np.random.Philox(key=[2, 0]))
        samples = rng.standard_normal((50000, 1))
        report = rmt.percentile_report(samples, [normal_table],
                                       (0.90, 0.95, 0.99))
        assert report.percentiles == (0.90, 0.95, 0.99)
        for p, o, q in zip(report.percentiles, report.ordinates,
                           report.proportions):
            assert o[0] == pytest.approx(stats.norm.ppf(p), abs=0.01)
            assert q[0] == pytest.approx(p, abs=0.01)

    def test_tabulated_inverse_consistency(self, beta1_tables):
        table = beta1_tables[0]
        for p in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99):
            o = rmt._invert_cdf(table, p)
            back = np.interp(o, table.s, table.F)
            assert back == pytest.approx(p, abs=5e-3)


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about a third of a second to import; nothing
    # the command line runs needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(rmt.__file__)))
    code = "import sys, edgedist.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True, cwd=src)
    assert out.stdout.strip() == "False"


def test_warm_cli_leaves_out_integrate_and_interpolate(tmp_path):
    # a cache hit evaluates the solution, and the Airy tails past
    # x_right (the moment grid reaches s = 12), in numpy: only a solve
    # imports scipy.integrate and scipy.special, and nothing the command
    # line runs needs scipy.interpolate; a bare import loads none
    src = os.path.dirname(os.path.dirname(os.path.abspath(rmt.__file__)))
    code = ("import sys, edgedist.cli\n"
            "if sys.argv[1:]:\n"
            "    assert edgedist.cli.main(sys.argv[1:]) == 0\n"
            "print([m for m in ('scipy.integrate', 'scipy.interpolate',\n"
            "                   'scipy.special') if m in sys.modules])")

    def loaded(*argv):
        # each command its own cache: both read the one served solve
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "-".join(argv)))
        out = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True, timeout=120,
                             check=True, cwd=src, env=env)
        return out.stdout.splitlines()[-1]

    assert loaded() == "[]"
    for argv in (["table", "--beta", "2", "--s", "0"],
                 ["moments", "--beta", "2"]):
        cold = loaded(*argv)  # a miss solves
        assert "scipy.integrate" in cold and "scipy.special" in cold
        assert loaded(*argv) == "[]"


def test_warm_oracle_and_airy_leave_out_special(tmp_path):
    # Ai and Ai' are committed series on all of [XMIN, 60]: after a
    # cache hit, the Nystrom oracle, the Airy kernel and the boundary
    # jets run on numpy alone; only a miss, which solves, loads
    # scipy.special
    src = os.path.dirname(os.path.dirname(os.path.abspath(rmt.__file__)))
    code = ("import sys\n"
            "import numpy as np\n"
            "from edgedist import oracle, painleve, specfun\n"
            "painleve.solve()\n"
            "if sys.argv[1:]:\n"
            "    oracle.nystrom_d2(-2.0, 1.0, 200)\n"
            "    oracle.nystrom_d4(-2.0, 200)\n"
            "    x = np.linspace(specfun.XMIN, 60.0, 1201)\n"
            "    specfun.airy(x)\n"
            "    specfun.airy_kernel(x[:, None], x[None, :])\n"
            "    painleve.boundary_jet(np.linspace(4.0, 60.0, 57))\n"
            "print('scipy.special' in sys.modules)")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))

    def loaded(*argv):
        out = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True, timeout=120,
                             check=True, cwd=src, env=env)
        return out.stdout.splitlines()[-1]

    assert loaded() == "True"  # a miss solves
    assert loaded("oracle") == "False"
