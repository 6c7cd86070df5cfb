"""Outside-in tracing: wrap qstrings' public functions from the benchmark's side.

A span is (id, name, start, end, parent id, operation id, outermost, info).
Spans stay in memory; `Tracer.totals()` reduces them to sums that
`layer_metrics()` turns into the per-layer metrics (adding up the totals of
several processes), and `Tracer.dump()` writes them out once the run has
ended.

Rules the wrappers keep:

* `install()` runs before `verify.registry()` builds, because the registry
  binds `theta_quotient` (as `_tq`) while it builds.
* Every module that imported a wrapped function by name gets the wrapper
  too, and `QSeries.__rmul__` / `__radd__` are patched along with
  `__mul__` / `__add__`.
* Span stacks are thread-local, so cases run by the verify runner's thread
  pool get their own parents.
* Private helpers (`_jtheta_cached`, `_divide_by_j1_cubed`, `_eval_series`,
  `_strip_reduce`) are never wrapped and no cache is ever cleared: their
  time is charged to the nearest wrapped caller. A fresh process per run
  gives fresh caches.

The counters in `info` (mul pairs, lattice denominator, fill, jtheta
repeats, evaluate passes) are computed from the operands and results seen
at the wrapped boundary, not counted inside the kernel.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, span name). Constructors are every function that
# expr dispatches a call node to, so `expr.evaluate.passes` can count them.
TARGETS = (
    ("series", "QSeries.__mul__", "series.mul"),
    ("series", "QSeries.inverse", "series.inverse"),
    ("series", "QSeries.__add__", "series.add"),
    ("series", "QSeries.compare", "series.compare"),
    ("series", "QSeries.shift", "series.reshape"),
    ("series", "QSeries.substitute_power", "series.reshape"),
    ("series", "QSeries.truncate", "series.reshape"),
    ("theta", "jtheta", "theta.jtheta"),
    ("theta", "pochhammer", "theta.pochhammer"),
    ("theta", "theta_quotient", "theta.theta_quotient"),
    ("theta", "J", "theta.J"),
    ("theta", "Jbar", "theta.Jbar"),
    ("theta", "Jm", "theta.Jm"),
    ("theta", "eta", "theta.eta"),
    ("appell", "appell_m", "appell.appell_m"),
    ("hecke", "hecke_f", "hecke.hecke_f"),
    ("hecke", "master_fnp_rhs", "hecke.rhs"),
    ("hecke", "acdivb_rhs", "hecke.rhs"),
    ("hecke", "genfn_rhs", "hecke.rhs"),
    ("hecke", "singshift_rhs", "hecke.rhs"),
    ("hecke", "g_1b1", "hecke.rhs"),
    ("hecke", "h_nn1", "hecke.rhs"),
    ("strings", "calC_hecke", "strings.calC"),
    ("strings", "calC_oracle", "strings.calC"),
    ("strings", "C_full", "strings.C_full"),
    ("strings", "level_theta_side", "strings.theta_side"),
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("verify", "run_case", "verify.run_case"),
    ("cli", "main", "cli.main"),
)
MODULES = ("series", "theta", "appell", "hecke", "strings", "expr", "verify", "cli")

# the per-layer metrics, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("series.mul.calls", "count"), ("series.mul.self_s", "s"),
    ("series.mul.pairs", "count"), ("series.mul.max_terms", "count"),
    ("series.mul.max_den", "count"), ("series.mul.fill", "ratio"),
    ("series.inverse.calls", "count"), ("series.inverse.self_s", "s"),
    ("series.inverse.total_s", "s"),
    ("series.add.self_s", "s"), ("series.compare.self_s", "s"),
    ("series.reshape.self_s", "s"),
    ("theta.jtheta.calls", "count"), ("theta.jtheta.total_s", "s"),
    ("theta.jtheta.repeat_ratio", "ratio"),
    ("theta.pochhammer.calls", "count"), ("theta.pochhammer.self_s", "s"),
    ("theta.pochhammer.total_s", "s"),
    ("theta.theta_quotient.calls", "count"), ("theta.theta_quotient.self_s", "s"),
    ("theta.theta_quotient.total_s", "s"),
    ("appell.appell_m.calls", "count"), ("appell.appell_m.self_s", "s"),
    ("appell.appell_m.total_s", "s"),
    ("hecke.hecke_f.calls", "count"), ("hecke.hecke_f.self_s", "s"),
    ("hecke.rhs.total_s", "s"),
    ("strings.calC.self_s", "s"), ("strings.calC.total_s", "s"),
    ("expr.parse.self_s", "s"), ("expr.evaluate.total_s", "s"),
    ("expr.evaluate.passes", "ratio"),
    ("verify.lhs_s", "s"), ("verify.rhs_s", "s"), ("verify.compare_s", "s"),
    ("verify.check_s", "s"), ("cli.main.self_s", "s"),
)
# counters computed from what crosses a wrapped boundary, not counted inside
# the kernel
COMPUTED = ("series.mul.pairs", "series.mul.max_den", "series.mul.fill",
            "theta.jtheta.repeat_ratio", "expr.evaluate.passes")


def _lattice_den(terms) -> int:
    return math.lcm(*{e.denominator for e in terms}) if terms else 1


def _mul_info(args, kwargs, out):
    a, b = args
    if out is None or not hasattr(b, "terms"):  # raised, or a scalar product
        return None
    n_out = len(out.terms)
    den = _lattice_den(out.terms)
    slots = 0
    if n_out and isinstance(out.trunc, Fraction):
        slots = int((out.trunc - min(out.terms)) * den)
    return (len(a.terms), len(b.terms), n_out, den, slots)


def _count_calls(node) -> int:
    """Call nodes in an expr AST."""
    n = type(node).__name__ == "Call"
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            for child in (v if isinstance(v, (list, tuple)) else (v,)):
                if dataclasses.is_dataclass(child):
                    n += _count_calls(child)
    return n


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._seen_jtheta = set()
        self._registry = None

    # -- recording -----------------------------------------------------------

    def _stack(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack, tls.active = [], defaultdict(int)
        return tls

    def _jtheta_info(self, args, kwargs, out):
        key = (args, tuple(sorted(kwargs.items())))
        with self._lock:
            seen = key in self._seen_jtheta
            self._seen_jtheta.add(key)
        return seen

    def wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tls = tracer._stack()
            stack, active = tls.stack, tls.active
            sid = next(tracer._ids)
            parent, op = stack[-1] if stack else (None, sid)
            outermost = active[name] == 0
            active[name] += 1
            stack.append((sid, op))
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:  # a call that raises still gets its span: children point to it
                t1 = time.perf_counter()
                stack.pop()
                active[name] -= 1
                extra = info(args, kwargs, out) if info else None
                tracer.spans.append((sid, name, t0, t1, parent, op, outermost, extra))

        return traced

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every target and rebind each module-level reference to it."""
        import importlib

        mods = {m: importlib.import_module(f"qstrings.{m}") for m in MODULES}
        holders = list(mods.values()) + [importlib.import_module("qstrings")]
        infos = {"series.mul": _mul_info, "theta.jtheta": self._jtheta_info,
                 "expr.evaluate": lambda args, kwargs, out: _count_calls(args[0])}
        for mod, attr, name in TARGETS:
            owner = mods[mod]
            if "." in attr:
                cls_name, _, meth = attr.partition(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[meth]
                wrapper = self.wrap(name, original, infos.get(name))
                for key, val in list(vars(owner).items()):
                    if val is original:  # __mul__ and __rmul__ share one function
                        setattr(owner, key, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, infos.get(name))
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, key, wrapper)
        verify = mods["verify"]
        registry = verify.registry
        verify.registry = functools.wraps(registry)(lambda: list(self._traced_registry(registry)))

    def _traced_registry(self, registry):
        """The registry with each case's lhs and rhs builder wrapped."""
        if self._registry is None:
            self._registry = [
                dataclasses.replace(c, lhs=self.wrap("verify.lhs", c.lhs),
                                    rhs=self.wrap("verify.rhs", c.rhs))
                for c in registry()
            ]
        return self._registry

    # -- reducing ----------------------------------------------------------------

    def totals(self) -> dict:
        """Sums (and two maxima) over the spans; `merge` adds the totals of
        several processes and `layer_metrics` turns them into metrics."""
        by_id = {s[0]: s for s in self.spans}
        child_s = defaultdict(float)
        for sid, name, t0, t1, parent, *_ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        t = defaultdict(float)
        for sid, name, t0, t1, parent, op, outermost, info in self.spans:
            dur = t1 - t0
            t[f"{name}.calls"] += 1
            t[f"{name}.self_s"] += dur - child_s[sid]
            if outermost:
                t[f"{name}.total_s"] += dur
            pname = by_id[parent][1] if parent is not None else None
            if name == "series.mul" and info:
                na, nb, nout, den, slots = info
                t["mul_pairs"] += na * nb
                t["max:mul_terms"] = max(t["max:mul_terms"], na, nb, nout)
                t["max:mul_den"] = max(t["max:mul_den"], den)
                if slots:
                    t["fill_terms"] += nout
                    t["fill_slots"] += slots
            elif name == "theta.jtheta":
                t["jtheta_repeats"] += bool(info)
            elif name == "expr.evaluate":
                t["call_nodes"] += info or 0
            elif name == "series.compare" and pname == "verify.run_case":
                t["case_compare_s"] += dur
            if pname == "expr.evaluate" and not name.startswith("series."):
                t["evaluate_ctors"] += 1
        return dict(t)

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line, after the run."""
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def merge(totals_list) -> dict:
    out = defaultdict(float)
    for t in totals_list:
        for key, val in t.items():
            out[key] = max(out[key], val) if key.startswith("max:") else out[key] + val
    return out


def layer_metrics(totals_list) -> dict:
    """The per-layer metrics of LAYER_METRICS from one or more `totals()`."""
    t = merge(totals_list)

    def ratio(a, b):
        return t[a] / t[b] if t[b] else 0.0

    out = {}
    for metric, _unit in LAYER_METRICS:
        if metric.endswith((".calls", ".self_s", ".total_s")):
            out[metric] = t[metric]
    out.update({
        "series.mul.calls": int(t["series.mul.calls"]),
        "series.inverse.calls": int(t["series.inverse.calls"]),
        "theta.jtheta.calls": int(t["theta.jtheta.calls"]),
        "theta.pochhammer.calls": int(t["theta.pochhammer.calls"]),
        "theta.theta_quotient.calls": int(t["theta.theta_quotient.calls"]),
        "appell.appell_m.calls": int(t["appell.appell_m.calls"]),
        "hecke.hecke_f.calls": int(t["hecke.hecke_f.calls"]),
        "series.mul.pairs": int(t["mul_pairs"]),
        "series.mul.max_terms": int(t["max:mul_terms"]),
        "series.mul.max_den": int(t["max:mul_den"]),
        "series.mul.fill": ratio("fill_terms", "fill_slots"),
        "theta.jtheta.repeat_ratio": ratio("jtheta_repeats", "theta.jtheta.calls"),
        "expr.evaluate.passes": ratio("evaluate_ctors", "call_nodes"),
        "verify.lhs_s": t["verify.lhs.total_s"],
        "verify.rhs_s": t["verify.rhs.total_s"],
        "verify.compare_s": t["case_compare_s"],
        "verify.check_s": t["verify.run_case.self_s"],
    })
    return {name: out[name] for name, _unit in LAYER_METRICS}
