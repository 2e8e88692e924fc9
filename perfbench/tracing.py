"""Span tracing installed from outside the package.

A ``Tracer`` replaces public functions of the edgedist modules with
wrappers that record one span per call: name, start, end, parent span
and request id.  Spans stay in memory until the run writes them out.
Calls the wrappers cannot see (names a module bound with ``from .x
import``, such as the jet functions inside ``dist``) count towards the
self time of the calling span.
"""

import contextlib
import threading
import time

# (module, attribute path, span name); an attribute path with a dot
# names a method on a class of that module
TARGETS = (
    ("painleve", "solve", "painleve.solve"),
    ("painleve", "PainleveSolution.jet_at", "painleve.jet_at"),
    ("specfun", "ai_tail", "specfun.ai_tail"),
    ("specfun", "airy_kernel", "specfun.airy_kernel"),
    ("dist", "cdf", "dist.cdf"),
    ("dist", "moments", "dist.moments"),
    ("oracle", "nystrom_d2", "oracle.nystrom_d2"),
    ("oracle", "nystrom_d4", "oracle.nystrom_d4"),
    ("rmt", "collect", "rmt.collect"),
    ("rmt", "sample_spectrum", "rmt.sample_spectrum"),
    ("rmt", "percentile_report", "rmt.percentile_report"),
)


class Tracer:
    """Collects spans from wrapped functions; thread-safe."""

    def __init__(self):
        self.spans = []
        self.request_id = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._saved = []
        self._main_stack = self._stack()
        self.enabled = True

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        # a call on a pool thread has an empty stack of its own; its
        # parent is the span open on the caller's thread (rmt.collect)
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": self.request_id}
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            with self._lock:
                self.spans.append(span)

    def install(self, package):
        """Wrap every target in the given edgedist package."""
        for mod_name, path, span_name in TARGETS:
            owner = getattr(package, mod_name)
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            original = getattr(owner, parts[-1])
            self._saved.append((owner, parts[-1], original))
            setattr(owner, parts[-1],
                    self._wrapper(span_name, original, _ATTRS.get(span_name)))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block run untraced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrapper(self, name, fn, attrs):
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, attrs)

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        return wrapped


def _solve_attrs(args, kwargs, result):
    if result is None:
        return {}
    diag = result.diagnostics
    return {"order0_nodes": diag.get("order0", {}).get("nodes", 0),
            "sweep_steps": sum(v.get("steps", 0) for k, v in diag.items()
                               if k != "order0")}


def _jet_at_attrs(args, kwargs, result):
    sol, s = args[0], args[1] if len(args) > 1 else kwargs["s"]
    return {"tail": float(s) > sol.config.x_right}


def _cdf_attrs(args, kwargs, result):
    req = args[0] if args else kwargs["req"]
    return {"points": int(req.s_grid.size)}


def _collect_attrs(args, kwargs, result):
    cfg = args[0] if args else kwargs["config"]
    out = {"reps": cfg.reps,
           "job": [cfg.ensemble, cfg.size, cfg.rows, cfg.cols]}
    if result is not None:
        out["failures"] = len(result[1])
    return out


def _sample_attrs(args, kwargs, result):
    cfg = args[0] if args else kwargs["config"]
    return {"ensemble": cfg.ensemble}


_ATTRS = {
    "painleve.solve": _solve_attrs,
    "painleve.jet_at": _jet_at_attrs,
    "dist.cdf": _cdf_attrs,
    "rmt.collect": _collect_attrs,
    "rmt.sample_spectrum": _sample_attrs,
}


def self_times(spans):
    """Self time per span id: duration minus the time its children cover."""
    children = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        kids = sorted(((max(c["start"], sp["start"]), min(c["end"], sp["end"]))
                       for c in children.get(sp["id"], ())), key=lambda t: t[0])
        cur_lo = cur_hi = None
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp["id"]] = (sp["end"] - sp["start"]) - covered
    return out
