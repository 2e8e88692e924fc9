"""The workloads: inputs from the seed, a closed loop, output checks.

Every workload is one caller that sends its next request when the last
one has returned.  Requests come in rounds.  A round holds a fixed
number of requests of each class; the seed picks their values and
their order.  A run is a whole number of cycles of ``cycle`` rounds,
sized from the measuring time by the workload's nominal round time
(``round_s``, what a round takes at this version on 2 cores).  So the
same measuring time always gives the same number of requests of each
class, and the median and the tail fall in the same class from run to
run, on a noisy machine as on a quiet one.

A workload has ``setup`` (timed as set-up), ``rounds`` and ``execute``
(driven by ``closed_loop``, optionally traced) and ``finish`` (accuracy
against the oracle and the interlacing identity, outside the timed
loop).
"""

import contextlib
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import checks

BETAS = (1, 2, 4)
MS = (1, 2, 3, 4)
# where the CLI's own oracle check looks; the Nystrom rule is valid on [-10, 6]
ORACLE_POINTS = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0)
INTERLACE_GRID = np.linspace(-13.0, 6.0, 191)
TABLE_GRID = np.linspace(-8.0, 4.0, 1201)
MOMENT_GRID = np.linspace(-13.0, 9.5, 1801)


@dataclass
class Outcome:
    cls: str
    latency: float
    items: int
    problems: list = field(default_factory=list)


@dataclass
class Accuracy:
    oracle_residual: float
    interlace_residual: float
    correct: bool


def plan(workload, seconds):
    """The run's rounds: whole cycles, at least one, filling ``seconds``."""
    cycles = max(1, round(seconds / (workload.round_s * workload.cycle)))
    return [workload.make_round(r) for r in range(cycles * workload.cycle)]


def closed_loop(workload, rounds, tracer=None, first_id=0):
    """Send the requests of the given rounds one at a time.

    With a tracer, each request's spans carry the request's index,
    counted from ``first_id``.
    """
    outcomes = []
    for reqs in rounds:
        for req in reqs:
            if tracer is not None:
                tracer.request_id = first_id + len(outcomes)
            outcomes.append(workload.execute(req))
    return outcomes


def timed(fn, *args):
    """(latency, value, problems); a raised error is a failure, not a crash."""
    t = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # any error the program raises is counted
        return time.perf_counter() - t, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - t, value, []


def untraced(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def d2_oracle_residual(edgedist, F_at):
    """max |F_2(s, 1) - det(I - K_Airy)| over ORACLE_POINTS."""
    return max(abs(F_at(s) - edgedist.oracle.nystrom_d2(s, 1.0, 200))
               for s in ORACLE_POINTS)


def interlace_residual(F):
    """sup |F_4(s, m) - F_1(s, 2m)|, m = 1, 2; F[(beta, m)] on one grid."""
    return max(float(np.max(np.abs(F[(4, m)] - F[(1, 2 * m)])))
               for m in (1, 2))


def accuracy(o_res, i_res):
    # the thresholds of the CLI's `verify` for the same identities
    return Accuracy(o_res, i_res, o_res <= 1e-8 and i_res <= 1e-4)


class WarmQueries:
    """One solve, then dist.cdf requests in three classes on all 12 pairs."""

    item = "s-points"
    round_s = 5.5
    cycle = len(MS)
    # 450 requests a round: a cycle of four gives n = 1800, so the tail
    # is p99, between the 18th and 19th slowest request: in the middle
    # of the twelve tables, below the twelve slower moment grids
    stencils_per_pair = 37

    def __init__(self, edgedist, seed, tracer=None):
        self.edgedist = edgedist
        self.seed = seed
        self.tracer = tracer

    def setup(self):
        if self.tracer is not None:
            self.tracer.install(self.edgedist)
            self.tracer.request_id = "setup"
        painleve = self.edgedist.painleve
        self.sol = painleve.solve(painleve.SolverConfig(x_left=-13.5))

    def make_round(self, r):
        """Per beta: one 1201-point table and one moment grid; per
        (beta, m): 37 stencils.

        Within a cycle of four rounds, the m of each (table or moment
        class, beta) runs through a seeded permutation of 1..4, so a run
        of whole cycles holds every pair equally often.  The stencil
        centres are stratified: one, at a seeded place, in each of 37
        equal cells of [-8, 4], so every pair is asked about the same
        stretches of s in every run.
        """
        cyc = np.random.default_rng([self.seed, 0, r // self.cycle])
        m_of = {(c, b): int(cyc.permutation(MS)[r % self.cycle])
                for c in ("table", "moments") for b in BETAS}
        rng = np.random.default_rng([self.seed, r + 1])
        cells = np.linspace(-8.0, 4.0, self.stencils_per_pair + 1)
        reqs = []
        for b in BETAS:
            reqs.append(("table", b, m_of[("table", b)], TABLE_GRID))
            reqs.append(("moments", b, m_of[("moments", b)], MOMENT_GRID))
            for m in MS:
                centres = np.round(rng.uniform(cells[:-1], cells[1:]), 3)
                for s in centres:
                    reqs.append(("stencil", b, m,
                                 s + 1e-3 * np.arange(-2.0, 3.0)))
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def _query(self, req):
        cls, beta, m, grid = req
        dist = self.edgedist.dist
        table = dist.cdf(dist.DistRequest(beta=beta, m=m, s_grid=grid),
                         self.sol)
        stats = dist.moments(table) if cls == "moments" else None
        return table, stats

    def _check(self, req, table, stats):
        cls, beta, m, grid = req
        dist = self.edgedist.dist
        problems = checks.check_finite("density", table.f)
        problems += checks.check_cdf(table.F)
        if m > 1:
            # F(s, m - 1) from its own request, on every 10th point of
            # the large grids
            idx = slice(None) if cls == "stencil" else slice(None, None, 10)
            prev = dist.cdf(dist.DistRequest(beta=beta, m=m - 1,
                                             s_grid=grid[idx]), self.sol).F
            problems += checks.check_cdf(table.F[idx], prev)
        if stats is not None:
            problems += checks.check_moments(stats.mean, stats.sd,
                                             stats.skewness, stats.kurtosis)
        return problems

    def execute(self, req):
        lat, value, problems = timed(self._query, req)
        if value is not None:
            with untraced(self.tracer):
                problems = [f"beta={req[1]} m={req[2]}: {p}"
                            for p in self._check(req, *value)]
        return Outcome(req[0], lat, len(req[3]), problems)

    def finish(self):
        dist, sol = self.edgedist.dist, self.sol

        def F(beta, m, grid):
            return dist.cdf(dist.DistRequest(beta=beta, m=m, s_grid=grid),
                            sol).F

        o_res = d2_oracle_residual(
            self.edgedist, lambda s: F(2, 1, s + 1e-3 * np.arange(-2, 3))[2])
        i_res = interlace_residual({(b, m): F(b, m, INTERLACE_GRID)
                                    for b, m in ((4, 1), (1, 2), (4, 2),
                                                 (1, 4))})
        return accuracy(o_res, i_res)


MC_GRID = np.linspace(-13.0, 9.5, 451)
LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
# (ensemble, size, rows, cols); every job samples 8 matrices
JOB_CLASSES = (("goe", 400, 0, 0), ("gue", 200, 0, 0), ("gse", 100, 0, 0),
               ("wishart", 0, 100, 400), ("wishart", 0, 100, 100))
JOB_REPS = 8
ENSEMBLE_BETA = {"goe": 1, "gue": 2, "gse": 4, "wishart": 1}


class MonteCarlo:
    """Theory tables in set-up, then rmt.collect jobs with percentile reports."""

    item = "matrices"
    round_s = 1.4
    cycle = 1

    def __init__(self, edgedist, seed, tracer=None):
        self.edgedist = edgedist
        self.seed = seed
        self.tracer = tracer

    def setup(self):
        if self.tracer is not None:
            self.tracer.install(self.edgedist)
            self.tracer.request_id = "setup"
        painleve, dist = self.edgedist.painleve, self.edgedist.dist
        sol = painleve.solve(painleve.SolverConfig(x_left=-13.5))
        self.tables = {(b, m): dist.cdf(dist.DistRequest(beta=b, m=m,
                                                         s_grid=MC_GRID), sol)
                       for b in BETAS for m in MS}
        # the tables are outputs too: a job that reads a table failing its
        # checks fails
        with untraced(self.tracer):
            self.table_problems = {
                (b, m): checks.check_cdf(
                    t.F, self.tables[(b, m - 1)].F if m > 1 else None)
                for (b, m), t in self.tables.items()}

    def make_round(self, r):
        """Four jobs of each class, with top_k 1, 2, 3 and 4; the seed
        picks the sampler seeds and the order."""
        rng = np.random.default_rng([self.seed, r + 1])
        rmt = self.edgedist.rmt
        reqs = []
        for ens, size, rows, cols in JOB_CLASSES:
            for top_k in MS:
                reqs.append(rmt.EnsembleConfig(
                    ensemble=ens, size=size, rows=rows, cols=cols,
                    reps=JOB_REPS, top_k=top_k,
                    seed=int(rng.integers(2 ** 31))))
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def _job(self, cfg):
        rmt = self.edgedist.rmt
        samples, failures = rmt.collect(cfg)
        beta = ENSEMBLE_BETA[cfg.ensemble]
        tables = [self.tables[(beta, m)] for m in range(1, cfg.top_k + 1)]
        return samples, failures, rmt.percentile_report(samples, tables,
                                                        LEVELS)

    def _check(self, cfg, samples, failures, report):
        problems = [f"sampler failure at rep {f.rep_index}: {f}"
                    for f in failures]
        problems += checks.check_finite("samples", samples)
        if samples.shape != (cfg.reps, cfg.top_k):
            problems.append(f"samples of shape {samples.shape}")
        problems += checks.check_percentiles(report.percentiles,
                                             report.ordinates,
                                             report.proportions)
        beta = ENSEMBLE_BETA[cfg.ensemble]
        for m in range(1, cfg.top_k + 1):
            problems += [f"theory table beta={beta} m={m}: {p}"
                         for p in self.table_problems[(beta, m)]]
        return problems

    def execute(self, cfg):
        lat, value, problems = timed(self._job, cfg)
        reps = 0
        if value is not None:
            problems = self._check(cfg, *value)
            reps = len(value[0])
        return Outcome(job_name(cfg), lat, reps, problems)

    def finish(self):
        F = {k: t.F for k, t in self.tables.items()}
        t21 = self.tables[(2, 1)]
        o_res = d2_oracle_residual(
            self.edgedist, lambda s: float(np.interp(s, t21.s, t21.F)))
        return accuracy(o_res, interlace_residual(F))


def job_key(cfg):
    return (cfg.ensemble, cfg.size, cfg.rows, cfg.cols)


def job_name(cfg):
    if cfg.ensemble == "wishart":
        return f"wishart{cfg.rows}x{cfg.cols}"
    return f"{cfg.ensemble}{cfg.size}"


WORKLOADS = {"warm-queries": WarmQueries, "monte-carlo": MonteCarlo}


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

