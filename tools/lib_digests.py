"""SHA-256 digests of the library's arrays on a fixed set of requests.

The package is imported from the ``src/`` of the checkout that holds
this script.  Each array prints as one line:

    sha256(raw bytes) label

The raw bytes count the sign of a zero, so -0.0 and 0.0 differ.  An
array over s points prints as two lines, labelled ``s<=6`` and ``s>6``
(the second only if it has points), so that values from the Airy tails
beyond x_right = 6 show apart from those of the solve.  The
moments of a (beta, m) print as the repr of their floats, on the
1801-point grid, the 2001-point grid and the 201-point grid of
[-13, 12], so that the last two show how little the moments depend on
the grid:

    moments beta=B m=M (mean, sd, skewness, kurtosis) (mean, ...) (...)

A grid on which ``dist.moments`` raises prints ``ValueError(message)``
in place of the tuple.  The oracle's E_beta(k; s), k < m_max, print as
the repr of their list, to pin the Fredholm route's bits:

    edge_probabilities s=S beta=B m_max=M [E_0, ..., E_{M-1}]

Usage:

    python tools/lib_digests.py CACHE_DIR > digests.txt

CACHE_DIR becomes ``XDG_CACHE_HOME``: an empty directory makes every
``painleve.solve`` a miss, a second run on it a hit.  The cache state of
each solve goes to stderr, so stdout is the same on a miss and on a hit
when the cache keeps the bits.  To compare two checkouts, run a copy of
this script from the tools/ folder of each and diff the outputs.  No
line depends on ``SolverConfig``'s defaults or on ``JetBundle``'s
layout: every solve names its configuration, and the jets print by
the names of the four fields, ``q``, ``I``, ``Iprime`` and ``J``.

The set: the jets of q, I, I', J and the diagnostics (without the
cache state) of the solves (x_left, jet order) = (-13.5, 4), (-10, 0)
and (-20.25, 1), on 4,004 points of [x_left, 12] plus 6, 6 + 1e-9 and
12; F and f of every (beta, m <= 5) from the (-13.5, 4) solve on the
1201-, 1801-, 191-, 451-, 2001- and 201-point grids, and of every
(beta, m <= jet order + 1) from the other two solves on the 1201-point
grid, so that beta = 1 reads jet orders 0-2 on those three solves;
``dist.moments`` of the 1801-, 2001- and 201-point tables for m <= 4,
and the repr of ``dist.interlacing_residual`` for m = 1, 2 on the
1901-point grid of [-13, 6] that ``verify --check interlacing`` reads;
``specfun.airy_tail`` on [6, 60]; ``specfun.airy`` on 7,401 points
of [-14, 60], as a line for x < -8 and one for x >= -8;
``specfun.airy_kernel`` on a grid of 60 nodes of [-8, 12] and on one
of 30 nodes of [-14, -8]; ``painleve.boundary_jet`` on 561 points of
[4, 60];
the solves' right-end data at x_right for jet orders 0-4 and for
lambda = 0.5 (``painleve._tail_state``); the jets of the lambda = 0.5
solution on [-13.5, 6] at the six points of ``verify --check oracle``
and at 7.5; ``oracle.nystrom_d2`` at lambda = 1 and 0.5, and
``oracle.nystrom_d4``, at those six points
with n = 200; the repr of ``oracle.edge_probabilities`` at n = 200 for
(beta, m_max) = (1, 1), (2, 4) and (4, 4) at those six points and at
s = -14 and 12; the samples of ``rmt.collect`` for the five Monte-Carlo
job classes of the benchmark (GOE 400, GUE 200, GSE 100, Wishart
100 x 400 and 100 x 100; 8 reps) at top_k 1 and 4 and seeds 1-3, each
labelled with its shape and the indices of its failed reps, and per job
class the unscaled top eigenvalues of ``rmt.sample_spectrum`` for the
8 reps at top_k 4 and seed 3, and those of ``sample_spectrum`` for the
last rep drawn alone, so that a job's reused draw and the one-shot draw
of a single rep are both pinned.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SOLVES = ((-13.5, 4), (-10.0, 0), (-20.25, 1))
GRIDS = {"table": (-8.0, 4.0, 1201), "moments": (-13.0, 9.5, 1801),
         "interlace": (-13.0, 6.0, 191), "mc": (-13.0, 9.5, 451),
         "cli-moments": (-13.0, 12.0, 2001),
         "coarse-moments": (-13.0, 12.0, 201)}
ORACLE_POINTS = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 7.5)
JET_FIELDS = ("q", "I", "Iprime", "J")
# (ensemble, size, rows, cols)
X_RIGHT = 6.0
MC_JOBS = (("goe", 400, 0, 0), ("gue", 200, 0, 0), ("gse", 100, 0, 0),
           ("wishart", 0, 100, 400), ("wishart", 0, 100, 100))


def line(label, data):
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data, dtype=float).tobytes()
    print(hashlib.sha256(data).hexdigest(), label, flush=True)


def split_line(label, s, data):
    # the points up to x_right and those beyond it as two lines, so that
    # a change in the Airy tails shows apart from the solve's values
    right = np.asarray(s) > X_RIGHT
    line(f"{label} s<=6", np.asarray(data)[..., ~right])
    if right.any():
        line(f"{label} s>6", np.asarray(data)[..., right])


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    os.environ["XDG_CACHE_HOME"] = os.path.abspath(argv[0])
    sys.path.insert(0, str(SRC))
    from edgedist import dist, oracle, painleve, rmt, specfun

    sols = {}
    for x_left, order in SOLVES:
        sol = painleve.solve(painleve.SolverConfig(x_left=x_left,
                                                   jet_order=order))
        sols[x_left, order] = sol
        tag = f"x{x_left!r} j{order}"
        diag = dict(sol.diagnostics)
        hit = diag.pop("cache")["hit"]
        print(f"solve {tag}: cache {'hit' if hit else 'miss'}",
              file=sys.stderr)
        line(f"diagnostics {tag}",
             json.dumps(diag, sort_keys=True).encode())
        s = np.concatenate([np.linspace(x_left, 12.0, 4004),
                            [6.0, 6.0 + 1e-9, 12.0]])
        bundle = sol.jets(s)
        for name in JET_FIELDS:
            split_line(f"jets {tag} {name}", s, getattr(bundle, name))

    sol = sols[-13.5, 4]
    tables = {}
    for grid_name, (lo, hi, n) in GRIDS.items():
        grid = np.linspace(lo, hi, n)
        for beta in (1, 2, 4):
            for m in range(1, 6):
                t = dist.cdf(dist.DistRequest(beta=beta, m=m, s_grid=grid),
                             sol)
                tables[grid_name, beta, m] = t
                split_line(f"F {grid_name} beta={beta} m={m}", grid, t.F)
                split_line(f"f {grid_name} beta={beta} m={m}", grid, t.f)
    # every (beta, m) the two other solves serve, on the table grid
    grid = np.linspace(*GRIDS["table"])
    for x_left, order in SOLVES[1:]:
        for beta in (1, 2, 4):
            for m in range(1, order + 2):
                t = dist.cdf(dist.DistRequest(beta=beta, m=m, s_grid=grid),
                             sols[x_left, order])
                tag = f"table x{x_left!r} j{order} beta={beta} m={m}"
                line(f"F {tag}", t.F)
                line(f"f {tag}", t.f)

    def stats(table):
        # the (4, 4) density is wrong in the left tail (ROADMAP item 2),
        # and on a coarse grid its variance can come out negative
        try:
            return tuple(map(float, dataclasses.astuple(dist.moments(table))))
        except ValueError as e:
            return f"ValueError({e})"

    for beta in (1, 2, 4):
        for m in range(1, 5):
            print(f"moments beta={beta} m={m}",
                  *(stats(tables[grid_name, beta, m]) for grid_name in
                    ("moments", "cli-moments", "coarse-moments")), flush=True)

    grid = np.linspace(-13.0, 6.0, 1901)
    for m in (1, 2):
        print(f"interlacing_residual m={m}",
              repr(dist.interlacing_residual(m, sol, grid)), flush=True)

    for name, a in zip(("Ai", "Ai'", "T", "V", "W"),
                       specfun.airy_tail(np.linspace(6.0, 60.0, 5401))):
        line(f"airy_tail {name}", a)
    x = np.linspace(-14.0, 60.0, 7401)
    for name, a in zip(("Ai", "Ai'"), specfun.airy(x)):
        line(f"airy {name} x<-8", a[x < -8.0])
        line(f"airy {name} x>=-8", a[x >= -8.0])
    for lo, hi, n in ((-8.0, 12.0, 60), (-14.0, -8.0, 30)):
        x = np.linspace(lo, hi, n)
        line(f"airy_kernel [{lo!r}, {hi!r}] n={n}",
             specfun.airy_kernel(x[:, None], x[None, :]))
    line("boundary_jet", painleve.boundary_jet(np.linspace(4.0, 60.0, 561)))
    for order, lam in [(k, 1.0) for k in range(5)] + [(0, 0.5)]:
        data = painleve._tail_state(X_RIGHT,
                                    *painleve._tail_columns(order, lam))
        line(f"right-end data j{order} lambda={lam!r}", np.array(data))

    half = painleve.solve_at_lambda(0.5, painleve.SolverConfig(x_left=-13.5))
    bundle = half.jets(np.array(ORACLE_POINTS))
    for name in JET_FIELDS:
        split_line(f"lambda=0.5 {name}", ORACLE_POINTS, getattr(bundle, name))

    pts = ORACLE_POINTS[:-1]
    for lam in (1.0, 0.5):
        line(f"nystrom_d2 lambda={lam!r}",
             [oracle.nystrom_d2(s, lam, 200) for s in pts])
    line("nystrom_d4", [oracle.nystrom_d4(s, 200) for s in pts])
    for beta, m_max in ((1, 1), (2, 4), (4, 4)):
        for s in (specfun.XMIN, *pts, 12.0):
            e = oracle.edge_probabilities(s, beta, m_max, 200)
            print(f"edge_probabilities s={s!r} beta={beta} m_max={m_max}",
                  repr(e.tolist()), flush=True)

    for ens, size, rows, cols in MC_JOBS:
        for top_k in (1, 4):
            for seed in (1, 2, 3):
                cfg = rmt.EnsembleConfig(ensemble=ens, size=size, rows=rows,
                                         cols=cols, reps=8, seed=seed,
                                         top_k=top_k)
                samples, failures = rmt.collect(cfg)
                failed = [f.rep_index for f in failures]
                line(f"collect {ens} size={cfg.size} rows={rows} "
                     f"top_k={top_k} seed={seed} shape={samples.shape} "
                     f"failed={failed}", samples)
        # the unscaled eigenvalues, so that a change of the draw or of
        # the Gram route shows apart from a change of the rescaling
        raw = [rmt.sample_spectrum(cfg, i).raw_top for i in range(cfg.reps)]
        line(f"raw_top {ens} size={cfg.size} rows={rows} top_k={cfg.top_k} "
             f"seed={cfg.seed} reps={cfg.reps}", np.array(raw))
        one = rmt.sample_spectrum(cfg, cfg.reps - 1).raw_top
        line(f"raw_top {ens} size={cfg.size} rows={rows} top_k={cfg.top_k} "
             f"seed={cfg.seed} rep={cfg.reps - 1} alone", one)


if __name__ == "__main__":
    main(sys.argv[1:])
