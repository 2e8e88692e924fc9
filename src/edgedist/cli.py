"""Command-line interface.

Subcommands: table, moments, simulate, wishart, percentiles, verify.
Every output starts with '#' header lines recording the version, the
invoked flag set, and the seed when one is involved.  Writes are
atomic: output lands in a temp file first and is renamed into place.

Exit codes: 0 success, 1 verification threshold exceeded, 2 invalid
usage, 3 solver or sampling failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, dist, jet, oracle, painleve, rmt, specfun

_BETAS = (1, 2, 4)
_ENSEMBLE_BETA = {"goe": 1, "gue": 2, "gse": 4, "wishart": 1}
# grid wide enough that every supported (beta, m) has negligible mass
# outside it (1 - F_1(12, 1) is about 2e-14); needed by the moment
# quadrature.  The served solve starts half a unit further left.
_MOMENT_GRID = np.linspace(-13.0, 12.0, 2001)
_TABLE_GRID = (-13.0, 6.0, 0.01)
# the furthest left a grid may start: solves from -34 on fail in the sweep
_MIN_S = -32.0
# the largest m served per beta: F_4(s, 4) from the solve's jets has a
# negative density and falls below F_4(s, 3) (ROADMAP item 2)
_MAX_M = {1: 4, 2: 4, 4: 3}
# largest table grid: a mistyped --s-step (1e-8, say) is refused before
# it exhausts memory; 190,001 points at m = 1..4 peak at about 360 MB
_MAX_GRID_POINTS = 1_000_000


def _fmt(x):
    return f"{x:.15g}"


def _parse_m_list(text):
    try:
        ms = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("m must be a comma list of ints")
    if not ms or any(m < 1 for m in ms):
        raise argparse.ArgumentTypeError("m values must be >= 1")
    return ms


def _parse_levels(text):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma list of numbers")
    if not vals or not all(0.0 < p < 1.0 for p in vals):
        raise argparse.ArgumentTypeError("expected percentile levels in "
                                         "(0, 1)")
    return vals


def _add_output_flags(sp):
    sp.add_argument("--output", "-o", default=None,
                    help="output file (default: stdout)")
    sp.add_argument("--json", action="store_true",
                    help="emit one JSON document instead of CSV")


def _write(args, doc, lines):
    """Emit one result, to -o or stdout.

    With --json this is ``doc`` as one JSON document, after the version
    and the flags; otherwise the '#' header (version, flags, and the
    seed when ``doc`` has one) followed by ``lines``.
    """
    if args.json:
        text = json.dumps({"version": __version__, "flags": args.raw_argv,
                           **doc}, indent=2)
    else:
        head = [f"# edgedist {__version__}",
                f"# flags: {' '.join(args.raw_argv)}"]
        if "seed" in doc:
            head.append(f"# seed: {doc['seed']}")
        text = "\n".join(head + lines)
    text += "\n"
    if args.output is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(args.output)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".edgedist-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(columns, rows):
    """CSV lines: the column names, then one line per row."""
    return [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]


def _tables(beta, ms, grid):
    """F_beta(s, m) on ``grid`` for each m, from the one served solve:
    ``SolverConfig()``, its x_left moved to grid[0] if that lies further
    left.  ValueError before the solve for an m above the jet order,
    then one above ``_MAX_M[beta]``."""
    default = painleve.SolverConfig.x_left
    cfg = painleve.SolverConfig(x_left=min(default, float(grid[0])))
    m_max = max(ms)
    if m_max > cfg.jet_order:
        raise ValueError(f"m = {m_max} exceeds the solver jet order "
                         f"{cfg.jet_order}")
    if m_max > _MAX_M[beta]:
        raise ValueError(f"beta = {beta}, m = {m_max} is not served: the "
                         f"solve's F_{beta}(s, {m_max}) has a negative "
                         f"density and falls below F_{beta}(s, {m_max - 1})")
    sol = painleve.solve(cfg)
    return [dist.cdf(dist.DistRequest(beta=beta, m=m, s_grid=grid), sol)
            for m in ms]


def _grid(lo, hi, step):
    """The grid lo, lo + step, ..., hi, as the --s-* flags give it."""
    if not (hi > lo and step > 0):
        raise ValueError("need s-max > s-min and s-step > 0")
    steps = (hi - lo) / step
    if not (math.isfinite(steps) and round(steps) < _MAX_GRID_POINTS):
        raise ValueError(f"the grid from {lo:g} to {hi:g} in steps of "
                         f"{step:g} has more than {_MAX_GRID_POINTS} "
                         f"points")
    n = round(steps)
    if abs(steps - n) > 1e-9 * n:
        raise ValueError(f"--s-step {_fmt(step)} does not divide the range "
                         f"from {_fmt(lo)} to {_fmt(hi)}")
    return np.linspace(lo, hi, n + 1)


def _grid_from_args(args):
    if args.s is not None:
        if not math.isfinite(args.s):
            raise ValueError(f"--s must be finite, got {args.s}")
        return np.array([args.s])
    return _grid(args.s_min, args.s_max, args.s_step)


def cmd_table(args):
    if args.tw_convention and args.beta != 4:
        raise ValueError("--tw-convention applies to beta 4 only")
    grid = _grid_from_args(args)
    # the Tracy-Widom normalization F_4^TW(s) = F_4(sqrt(2) s): the
    # default table read at sqrt(2) s
    scale = math.sqrt(2.0) if args.tw_convention else 1.0
    # refused before the solve, in the user's units
    if grid[0] * scale < _MIN_S:
        raise ValueError(f"s = {_fmt(grid[0])} lies left of "
                         f"{_fmt(_MIN_S / scale)}, the furthest left the "
                         f"solve reaches")
    if grid[-1] * scale > specfun.XMAX:
        raise ValueError(f"s = {_fmt(grid[-1])} lies right of "
                         f"{_fmt(specfun.XMAX / scale)}, the furthest right "
                         f"the Airy tails reach")
    tables = _tables(args.beta, args.m, grid * scale)
    blocks = [{"beta": t.beta, "m": t.m, "s": grid.tolist(),
               "F": t.F.tolist(), "f": (t.f * scale).tolist()}
              for t in tables]
    lines = []
    for b in blocks:
        lines.append(f"# beta={b['beta']} m={b['m']}")
        lines += _csv(("s", "F", "f"), zip(b["s"], b["F"], b["f"]))
    _write(args, {"tables": blocks}, lines)
    return 0


def cmd_moments(args):
    rows = [{"beta": t.beta, "m": t.m,
             **dataclasses.asdict(dist.moments(t))}
            for t in _tables(args.beta, args.m, _MOMENT_GRID)]
    _write(args, {"moments": rows},
           _csv(rows[0].keys(), (r.values() for r in rows)))
    return 0


def _percentile_report(args, samples, tables):
    """Percentile report of sample columns holding the k-th largest
    eigenvalue, column i against ``tables[i]``; returns (JSON doc, CSV
    lines)."""
    ks = [t.m for t in tables]
    report = rmt.percentile_report(samples, tables, args.percentiles)
    doc = {"k": ks, "levels": list(report.percentiles),
           "ordinates": [list(r) for r in report.ordinates],
           "proportions": [list(r) for r in report.proportions]}
    columns = ["percentile"]
    for k in ks:
        columns += [f"ordinate_{k}", f"proportion_{k}"]
    rows = ([p] + [v for pair in zip(o, q) for v in pair]
            for p, o, q in zip(report.percentiles, report.ordinates,
                               report.proportions))
    return doc, _csv(columns, rows)


def _ensemble_config(args):
    if args.reps < 2:
        raise ValueError(f"--reps must be >= 2 for the sample statistics, "
                         f"got {args.reps}")
    if args.ensemble == "wishart":
        if args.rows is None or args.cols is None:
            raise ValueError("wishart needs --rows and --cols")
        return rmt.EnsembleConfig(ensemble="wishart", reps=args.reps,
                                  seed=args.seed, top_k=args.top_k,
                                  rows=args.rows, cols=args.cols)
    if args.n is None:
        raise ValueError(f"{args.ensemble} needs --n")
    return rmt.EnsembleConfig(ensemble=args.ensemble, size=args.n,
                              reps=args.reps, seed=args.seed,
                              top_k=args.top_k)


def cmd_simulate(args):
    cfg = _ensemble_config(args)
    if args.percentiles:
        # an unserved top k is refused before any solve or sampling
        tables = _tables(_ENSEMBLE_BETA[cfg.ensemble],
                         range(1, cfg.top_k + 1), _MOMENT_GRID)
    samples, failures = rmt.collect(cfg)
    if len(failures) > 0.001 * cfg.reps:
        first = failures[0]
        sys.stderr.write(
            f"error: {len(failures)} of {cfg.reps} reps failed "
            f"(first: rep {first.rep_index}: {first})\n")
        return 3
    stats = [dataclasses.asdict(rmt.summarize(col)) for col in samples.T]
    doc = {"seed": cfg.seed, "ensemble": cfg.ensemble,
           "failed_reps": len(failures),
           "stats": [{"k": k, **st} for k, st in enumerate(stats, 1)],
           "samples": samples.tolist()}
    lines = [f"# failed reps: {len(failures)}"]
    lines += [f"# stats k={k}: " + " ".join(f"{name}={_fmt(v)}"
                                            for name, v in st.items())
              for k, st in enumerate(stats, 1)]
    lines += _csv(("rep", "k", "lhat"),
                  ((i, j + 1, v) for i, row in enumerate(doc["samples"])
                   for j, v in enumerate(row)))
    if args.percentiles:
        doc["percentiles"], report = _percentile_report(args, samples,
                                                        tables)
        lines += ["# percentile report"] + report
    _write(args, doc, lines)
    return 0


def _read_samples_csv(path):
    """(k values, samples array with one column per k) of a sample CSV."""
    rows = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("rep,"):
                continue
            if line.startswith("percentile"):
                break
            try:
                rep, k, val = line.split(",")
                rep, k, x = int(rep), int(k), float(val)
            except ValueError:
                raise ValueError(f"malformed sample on line {lineno}: "
                                 f"{line!r}, expected rep,k,value") from None
            row = rows.setdefault(rep, {})
            if k in row:
                raise ValueError(f"duplicate sample: rep {rep} has two "
                                 f"k = {k} lines")
            row[k] = x
            if not math.isfinite(x):
                raise ValueError(f"non-finite sample: rep {rep} k = {k} "
                                 f"is {val.strip()}")
    if not rows:
        raise ValueError("no samples found in input")
    ks = sorted(set().union(*rows.values()))
    for rep in sorted(rows):
        missing = [k for k in ks if k not in rows[rep]]
        if missing:
            raise ValueError(f"incomplete samples: rep {rep} has no "
                             f"k = {', '.join(map(str, missing))}")
    return ks, np.array([[rows[r][k] for k in ks] for r in sorted(rows)])


def cmd_percentiles(args):
    ks, samples = _read_samples_csv(args.input)
    doc, lines = _percentile_report(
        args, samples, _tables(args.beta, ks, _MOMENT_GRID))
    _write(args, {"beta": args.beta, **doc}, lines)
    return 0


def _verify_aj():
    a_jet = jet.aj_sequence(8)
    a_rec = jet.aj_recursion(8)
    resid = max(abs(x - y) / max(abs(y), 1.0)
                for x, y in zip(a_jet, a_rec))
    return [("aj jets vs recursion (j <= 8)", resid, 1e-12)]


def _verify_oracle():
    # I_0 and J_0 of the served solve and of its lambda = 0.5 sweep
    pts = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0)
    sol = painleve.solve()
    half = painleve.solve_at_lambda(0.5)
    r1, r2 = (max(abs(math.exp(-d.jet_at(s).I[0])
                      - oracle.nystrom_d2(s, lam, 200)) for s in pts)
              for d, lam in ((sol, 1.0), (half, 0.5)))
    r3 = 0.0
    for s in pts:
        b = sol.jet_at(s)
        closed = math.exp(-b.I[0]) * math.cosh(b.J[0] / 2.0) ** 2
        r3 = max(r3, abs(closed - oracle.nystrom_d4(s, 200)))
    return [("d2 vs Nystrom, lambda=1", r1, 1e-8),
            ("d2 vs Nystrom, lambda=0.5", r2, 1e-6),
            ("d4 vs Nystrom, lambda=1", r3, 1e-6)]


def _verify_asymptotics():
    # reads q at orders 0 and 1
    sol = painleve.solve()
    b = sol.jet_at(-8.0)
    q0_ref = painleve.q0_asymptotic(16.0)
    q1_ref = painleve.q1_asymptotic(16.0)
    r0 = abs(b.q[0] - q0_ref) / abs(q0_ref)
    r1 = abs(b.q[1] - q1_ref) / abs(q1_ref)
    return [("q0 at x=-8 vs asymptotic series", r0, 1e-6),
            ("q1 at x=-8 vs asymptotic series", r1, 1e-4)]


def _verify_interlacing():
    # F_1(s, 4) on the default table grid [-13, 6], from the served solve
    sol = painleve.solve()
    grid = _grid(*_TABLE_GRID)
    r1, r2 = (dist.interlacing_residual(m, sol, grid) for m in (1, 2))
    return [("sup |F4(s,1) - F1(s,2)| on [-13, 6]", r1, 1e-5),
            ("sup |F4(s,2) - F1(s,4)| on [-13, 6]", r2, 1e-4)]


_CHECKS = {"aj": _verify_aj, "oracle": _verify_oracle,
           "asymptotics": _verify_asymptotics,
           "interlacing": _verify_interlacing}


def cmd_verify(args):
    rows = [(label, float(resid), tol)
            for label, resid, tol in _CHECKS[args.check]()]
    ok = all(resid <= tol for _, resid, tol in rows)
    doc = {"check": args.check, "passed": ok,
           "results": [{"label": label, "residual": resid, "threshold": tol}
                       for label, resid, tol in rows]}
    lines = [f"{label}: max residual {resid:.3e} (threshold {tol:.0e}) "
             f"{'PASS' if resid <= tol else 'FAIL'}"
             for label, resid, tol in rows]
    _write(args, doc, lines)
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="edgedist",
        description="Edge eigenvalue distributions: tables, moments, "
                    "simulation, verification.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("table", help="CDF/density tables")
    sp.add_argument("--beta", type=int, choices=_BETAS, required=True)
    sp.add_argument("--m", type=_parse_m_list, default=[1],
                    help="comma list of eigenvalue indices")
    sp.add_argument("--s", type=float, default=None,
                    help="single evaluation point")
    sp.add_argument("--s-min", type=float, default=_TABLE_GRID[0])
    sp.add_argument("--s-max", type=float, default=_TABLE_GRID[1])
    sp.add_argument("--s-step", type=float, default=_TABLE_GRID[2])
    sp.add_argument("--tw-convention", action="store_true",
                    help="beta=4 tables in the Tracy-Widom normalization "
                         "F_4(sqrt(2) s)")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("moments", help="mean/sd/skewness/kurtosis")
    sp.add_argument("--beta", type=int, choices=_BETAS, required=True)
    sp.add_argument("--m", type=_parse_m_list, default=[1])
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_moments)

    def add_sim_flags(sp, with_ensemble):
        if with_ensemble:
            sp.add_argument("--ensemble", choices=sorted(_ENSEMBLE_BETA),
                            required=True)
            sp.add_argument("--n", type=int, default=None,
                            help="matrix dimension (Gaussian ensembles)")
        sp.add_argument("--rows", type=int, default=None,
                        help="Wishart sample count n")
        sp.add_argument("--cols", type=int, default=None,
                        help="Wishart dimension p")
        sp.add_argument("--reps", type=int, required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--top-k", dest="top_k", type=int, default=1)
        sp.add_argument("--percentiles", type=_parse_levels,
                        default=None,
                        help="emit a percentile report at these levels")
        _add_output_flags(sp)

    sp = sub.add_parser("simulate", help="Monte-Carlo ensemble sampling")
    add_sim_flags(sp, with_ensemble=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("wishart", help="Wishart sampling shortcut")
    add_sim_flags(sp, with_ensemble=False)
    sp.set_defaults(func=cmd_simulate, ensemble="wishart", n=None)

    sp = sub.add_parser("percentiles",
                        help="percentile report for an existing sample CSV")
    sp.add_argument("--input", required=True, help="samples CSV path")
    sp.add_argument("--beta", type=int, choices=_BETAS, required=True)
    sp.add_argument("--percentiles", type=_parse_levels, required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_percentiles)

    sp = sub.add_parser("verify", help="cross-checks with thresholds")
    sp.add_argument("--check", required=True, choices=tuple(_CHECKS))
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    args.raw_argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except painleve.SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3
    except rmt.SampleError as exc:
        sys.stderr.write(f"sampling error (rep {exc.rep_index}): {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
