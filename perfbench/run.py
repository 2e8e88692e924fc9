"""edgedist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric,
taken from a traced pass over the same inputs plus fixed-size probes.
The metric names, units and directions are those of BENCHMARK.json.
Lines before it, starting with '#', give the same numbers for people:
units, better direction, sample counts, error rate, the machine and
environment.  See perfbench/README.md for the metric map.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# numpy and the benchmark's own modules (which import it) are imported
# after the timed import of edgedist, so that set-up time includes numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

ENSEMBLES = ("goe", "gue", "gse", "wishart")
SETUPS = 2


def metric_units():
    """(end-to-end, per-layer) metrics of BENCHMARK.json, each a dict
    name -> (unit, better) in the file's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: (m["unit"], m["better"]) for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def bootstrap():
    """Import edgedist from ./src of this checkout; (package, import seconds)."""
    if not os.path.isfile(os.path.join(SRC, "edgedist", "__init__.py")):
        raise SystemExit(f"error: no edgedist sources under {SRC}")
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import edgedist
    import edgedist.cli  # noqa: F401
    import_s = time.perf_counter() - t
    where = os.path.dirname(os.path.abspath(edgedist.__file__))
    if where != os.path.join(SRC, "edgedist"):
        raise SystemExit(f"error: edgedist imported from {where}, not {SRC}")
    return edgedist, import_s


def fingerprint():
    import numpy
    import scipy
    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        b = cfg["Build Dependencies"]["blas"]
        blas = {k: b.get(k) for k in ("name", "version",
                                      "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "EDGEDIST_THREADS": os.environ.get("EDGEDIST_THREADS"),
            "git_commit": commit or "unavailable (not a git checkout)"}


# ------------------------------------------------------------ statistics

TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def tail_of(latencies):
    """(value, percentile, n): the highest ladder percentile with at
    least 10 samples beyond it; the maximum when n < 20."""
    import numpy as np
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-9:
            return float(np.percentile(latencies, p)), p, n
    return float(max(latencies)), 100.0, n


def end_to_end(wl, setup_s, outcomes, acc, rss):
    from checks import digits
    lat = [o.latency for o in outcomes]
    tail, pct, n = tail_of(lat)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "throughput_per_s": sum(o.items for o in outcomes) / sum(lat),
        "peak_rss_mb": rss,
        "oracle_digits": digits(acc.oracle_residual),
        "interlace_digits": digits(acc.interlace_residual),
    }
    notes = [f"latency_p50_s over n={n} requests",
             f"latency_tail_s is p{pct:g} of n={n}"
             + (" (fewer than 20 samples: the maximum)" if pct == 100.0
                else ""),
             f"throughput_per_s counts {wl.item} per second of request time",
             f"oracle residual {acc.oracle_residual:.3e}, interlacing "
             f"residual {acc.interlace_residual:.3e}"]
    return metrics, notes


def class_summary(outcomes):
    by = {}
    for o in outcomes:
        c = by.setdefault(o.cls, [0, 0, 0.0])
        c[0] += 1
        c[1] += bool(o.problems)
        c[2] += o.latency
    return {k: {"n": v[0], "failed": v[1], "mean_s": v[2] / v[0]}
            for k, v in sorted(by.items())}


# ------------------------------------------------------------ per layer

def layer_metrics(spans):
    """Per-layer counts and self times from a list of spans."""
    from tracing import self_times
    selfs = self_times(spans)
    agg = {}
    for sp in spans:
        a = agg.setdefault(sp["name"], {"calls": 0, "self": 0.0, "dur": 0.0})
        a["calls"] += 1
        a["self"] += selfs[sp["id"]]
        a["dur"] += sp["end"] - sp["start"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {"cli.main.self_s": get("cli.main", "self")}
    solves = [sp for sp in spans if sp["name"] == "painleve.solve"]
    m["painleve.solve.calls"] = len(solves)
    m["painleve.solve.self_s"] = get("painleve.solve", "self")
    done = [sp for sp in solves if "order0_nodes" in sp]
    m["painleve.order0_nodes"] = (sum(sp["order0_nodes"] for sp in done)
                                  / len(done) if done else 0)
    m["painleve.sweep_steps"] = (sum(sp["sweep_steps"] for sp in done)
                                 / len(done) if done else 0)
    m["painleve.jet_at.calls"] = get("painleve.jet_at", "calls")
    m["painleve.jet_at.self_s"] = get("painleve.jet_at", "self")
    m["painleve.jet_at.tail_calls"] = sum(
        1 for sp in spans if sp["name"] == "painleve.jet_at" and sp["tail"])
    for fn in ("specfun.ai_tail", "specfun.airy_kernel", "oracle.nystrom_d2",
               "oracle.nystrom_d4"):
        m[f"{fn}.calls"] = get(fn, "calls")
        m[f"{fn}.self_s"] = get(fn, "self")
    points = sum(sp["points"] for sp in spans if sp["name"] == "dist.cdf")
    m["dist.cdf.calls"] = get("dist.cdf", "calls")
    m["dist.cdf.points"] = points
    m["dist.cdf.self_s"] = get("dist.cdf", "self")
    m["dist.cdf.us_per_point"] = (get("dist.cdf", "dur") / points * 1e6
                                  if points else 0)
    m["dist.moments.self_s"] = get("dist.moments", "self")
    collects = [sp for sp in spans if sp["name"] == "rmt.collect"]
    m["rmt.collect.calls"] = len(collects)
    m["rmt.collect.reps"] = sum(sp["reps"] for sp in collects)
    m["rmt.collect.failures"] = sum(sp.get("failures", 0) for sp in collects)
    m["rmt.collect.self_s"] = get("rmt.collect", "self")
    for ens in ENSEMBLES:
        durs = [sp["end"] - sp["start"] for sp in spans
                if sp["name"] == "rmt.sample_spectrum"
                and sp["ensemble"] == ens]
        m[f"rmt.sample_ms_per_rep.{ens}"] = (sum(durs) / len(durs) * 1e3
                                             if durs else 0)
    m["rmt.percentile_report.self_s"] = get("rmt.percentile_report", "self")
    m["trace.spans"] = len(spans)
    return m


def cli_probe(spans_dir):
    """One `table` request in a fresh traced CLI process: the cli layer."""
    path = os.path.join(spans_dir, "cli-probe.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    subprocess.run([sys.executable, os.path.join(HERE, "traced_cli.py"), path,
                    "table", "--beta", "2", "--m", "1", "--s", "0", "--json"],
                   env=env, cwd=ROOT, capture_output=True, timeout=120,
                   check=True)
    with open(path) as fh:
        doc = json.load(fh)
    return {"cli.import_s": doc["import_s"],
            "cli.main.self_s": layer_metrics(doc["spans"])["cli.main.self_s"]}


def probes(edgedist, tracer, spans_dir):
    """Fixed-size layer probes, the same in every traced run.

    Untraced: the rows of the ROADMAP baseline table (the solve at each
    jet order, dist.cdf on 1801 points, serial sample_spectrum) and one
    CLI request.  Traced, with request id "probe": the Nystrom oracle at
    n=200, one rmt.collect job of each class with its percentile report
    and one dist.moments.  No workload request calls the oracle, and
    each workload leaves some layers alone, so these spans give every
    layer a count and a self time on every workload.

    Returns (metrics, serial seconds of one job of each class).
    """
    from workloads import JOB_CLASSES, JOB_REPS, MC_GRID, MOMENT_GRID, \
        ENSEMBLE_BETA, LEVELS, job_key
    painleve, dist = edgedist.painleve, edgedist.dist
    oracle, rmt = edgedist.oracle, edgedist.rmt
    out = {}
    sol = None
    for k in range(5):
        t = time.perf_counter()
        sol = painleve.solve(painleve.SolverConfig(x_left=-13.5, jet_order=k))
        out[f"painleve.solve_order{k}_s"] = time.perf_counter() - t
    for b in (1, 2, 4):
        t = time.perf_counter()
        dist.cdf(dist.DistRequest(beta=b, m=4, s_grid=MOMENT_GRID), sol)
        out[f"dist.cdf_1801_m4_s.beta{b}"] = time.perf_counter() - t
    jobs = [rmt.EnsembleConfig(ensemble=ens, size=size, rows=rows, cols=cols,
                               reps=JOB_REPS, seed=1)
            for ens, size, rows, cols in JOB_CLASSES]
    serial_s = {}
    for cfg in jobs:
        t = time.perf_counter()
        for i in range(cfg.reps):
            rmt.sample_spectrum(cfg, i)
        serial_s[job_key(cfg)] = time.perf_counter() - t
        # the first job of an ensemble is its probe: Wishart 100x400
        out.setdefault(f"rmt.sample_spectrum_ms.{cfg.ensemble}",
                       serial_s[job_key(cfg)] / cfg.reps * 1e3)
    tracer.install(edgedist)
    tracer.request_id = "probe"
    try:
        oracle.nystrom_d2(-2.0, 1.0, 200)
        oracle.nystrom_d4(-2.0, 200)
        tables = {b: dist.cdf(dist.DistRequest(beta=b, m=1, s_grid=MC_GRID),
                              sol) for b in (1, 2, 4)}
        dist.moments(tables[2])
        for cfg in jobs:
            samples, _ = rmt.collect(cfg)
            rmt.percentile_report(samples, [tables[ENSEMBLE_BETA[
                cfg.ensemble]]], LEVELS)
    finally:
        tracer.uninstall()
    for name in ("nystrom_d2", "nystrom_d4"):
        sp = next(sp for sp in tracer.spans if sp["name"] == f"oracle.{name}"
                  and sp["request"] == "probe")
        out[f"oracle.{name}_n200_s"] = sp["end"] - sp["start"]
    out.update(cli_probe(spans_dir))
    return out, serial_s


# ------------------------------------------------------------ runs

def run_plain(wl, import_s, seconds):
    """setup_s is the import plus the median of SETUPS set-ups: one
    set-up varies too much with the machine's speed to compare."""
    from workloads import closed_loop, plan, rss_mb
    setups = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)
    outcomes = closed_loop(wl, plan(wl, seconds))
    acc = wl.finish()
    return setup_s, outcomes, acc, rss_mb()


def run_traced(wl, edgedist, tracer, seconds, spans_dir):
    """Set-up traced, then each round twice, untraced and traced, the
    order alternating from round to round so that both passes see the
    same phases of a busy machine; then the probes, traced in part.
    The per-layer metrics come from every traced span."""
    from workloads import closed_loop, plan
    wl.setup()
    tracer.uninstall()
    plain, outcomes = [], []
    for r, reqs in enumerate(plan(wl, seconds)):
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                wl.tracer = tracer
                tracer.install(edgedist)
                outcomes += closed_loop(wl, [reqs], tracer, len(outcomes))
                tracer.uninstall()
            else:
                wl.tracer = None
                plain += closed_loop(wl, [reqs])
    base = statistics.median(o.latency for o in plain)
    traced = statistics.median(o.latency for o in outcomes)
    extra, serial_s = probes(edgedist, tracer, spans_dir)
    spans = tracer.spans
    metrics = layer_metrics(spans)
    metrics["rmt.pool_speedup"] = pool_speedup(spans, serial_s)
    metrics.update(extra)
    metrics["trace.overhead_s"] = traced - base
    metrics["trace.overhead_base_s"] = base
    acc = wl.finish()
    return outcomes, acc, metrics, spans


def pool_speedup(spans, serial_s):
    """Serial sample_spectrum time of the traced jobs' reps over the
    wall time of their rmt.collect calls."""
    from workloads import JOB_REPS
    serial = wall = 0.0
    for sp in spans:
        if sp["name"] == "rmt.collect":
            serial += serial_s[tuple(sp["job"])] * sp["reps"] / JOB_REPS
            wall += sp["end"] - sp["start"]
    return serial / wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("warm-queries", "monte-carlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    end_units, layer_units = metric_units()
    edgedist, import_s = bootstrap()
    import workloads
    from tracing import Tracer

    spans_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    tracer = None
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
        tracer = Tracer()
    wl = workloads.WORKLOADS[args.workload](edgedist, args.seed, tracer)

    print(f"# edgedist benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# fingerprint: " + json.dumps(fingerprint()))
    if args.trace:
        outcomes, acc, metrics, spans = run_traced(wl, edgedist, tracer,
                                                   args.seconds, spans_dir)
        path = os.path.join(spans_dir,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(spans, fh)
        units = layer_units
        print(f"# spans: {len(spans)} written to {os.path.relpath(path, ROOT)}")
        print(f"# tracing overhead: {metrics['trace.overhead_s']:+.4g} s on "
              f"an untraced latency_p50_s of "
              f"{metrics['trace.overhead_base_s']:.4g} s")
    else:
        setup_s, outcomes, acc, rss = run_plain(wl, import_s, args.seconds)
        metrics, notes = end_to_end(wl, setup_s, outcomes, acc, rss)
        units = end_units
        for line in notes:
            print("# " + line)

    failed = sum(1 for o in outcomes if o.problems)
    print(f"# requests: {len(outcomes)}, failed: {failed}, error_rate: "
          f"{failed / len(outcomes):.4g} (lower is better)")
    print("# classes: " + json.dumps(class_summary(outcomes)))
    shown = set()
    for o in outcomes:
        for p in o.problems:
            key = (o.cls, p)
            if key not in shown and len(shown) < 8:
                shown.add(key)
                print(f"# failed {o.cls}: {p}")
    for name, (unit, better) in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit} ({better} is better)")
    result = {"correct": bool(acc.correct), "attempted": len(outcomes),
              "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, (unit, _) in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
