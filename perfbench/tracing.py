"""Spans around the public entry points of each gffpin module.

`install` wraps the entry points from outside the package: methods on their
class, functions in every gffpin module namespace that holds them (so a
name imported with `from ... import` is wrapped too). Spans stay in memory
and `Tracer.dump` writes them once, at exit. `summarize` turns a dump into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

RADII = (8, 10, 11, 13, 21)  # box radii of the chain workloads


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, thread, start, end)
        self.data = defaultdict(float)  # counts and sums kept by the hooks
        self.min_hits = None
        self.lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, before=None, after=None):
        """Time `fn` as span `name`; `before` runs untimed ahead of the call
        and its result goes to `after(tracer, args, result, ctx, seconds)`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            ctx = before(*args) if before else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, threading.get_ident(), t0, t1))
            if after:
                with tracer.lock:
                    after(tracer, args, result, ctx, t1 - t0)
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "data": self.data,
                       "min_hits": self.min_hits}, fh)


# -- hooks ------------------------------------------------------------------


def _before_sweep(chain):
    return chain.pinned.copy()


def _after_sweep(tr, args, result, before, seconds):
    chain = args[0]
    n = len(before)
    radius = int(chain.region.hi[0])
    tr.data["pinning.site_visits"] += n
    tr.data["pinning.flips"] += int((before != chain.pinned).sum())
    tr.data["pinning.pinned_sites"] += int(chain.pinned.sum())
    tr.data[f"pinning.sweep_s.R{radius}"] += seconds
    tr.data[f"pinning.site_visits.R{radius}"] += n
    tr.data["pinning.audit_max_rel_err"] = max(
        tr.data["pinning.audit_max_rel_err"], chain.audit_max_rel_err)


def _after_dp_run(tr, args, result, ctx, seconds):
    kernel, n, radius = args[:3]
    tr.data["walk.dp_cell_steps"] += (2 * int(radius) + 1) ** kernel.d * int(n)


def _after_survival(tr, args, result, ctx, seconds):
    reps, n_max = int(args[3]), int(args[4])
    hits = result > 0
    tr.data["scaling.paths"] += reps
    tr.data["scaling.path_steps"] += reps * n_max
    tr.data["scaling.pairs"] += hits.size
    tr.data["scaling.hit_pairs"] += int(hits.sum())
    low = int(hits.sum(axis=0).min())
    tr.min_hits = low if tr.min_hits is None else min(tr.min_hits, low)


def _after_renewal_model(tr, args, result, ctx, seconds):
    tr.data["renewal1d.k_max"] = max(tr.data["renewal1d.k_max"], result.k_max)


def _replace_everywhere(orig, wrapped):
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gffpin" or mod_name.startswith("gffpin.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)
                hits += 1
    if not hits:
        raise RuntimeError(f"{orig.__qualname__} is bound in no gffpin module")


def install(tracer):
    """Wrap every measured entry point; returns nothing, patches in place."""
    from gffpin import cli, green, pinning, renewal1d, scaling, walk

    methods = [
        (green.Region, "__init__", "green.region_build", None, None),
        (pinning.GibbsChain, "__init__", "pinning.chain_init", None, None),
        (pinning.GibbsChain, "sweep", "pinning.sweep", _before_sweep,
         _after_sweep),
        (pinning.GibbsChain, "covariance", "pinning.observable", None, None),
    ]
    for cls, attr, name, before, after in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), before, after))
    functions = [
        (cli.run, "cli.run", None),
        (walk.kernel_from_file, "walk.kernel_load", None),
        (green.green_nstep, "walk.dp_pmf", None),
        (walk._dp_run, "walk.dp_run", _after_dp_run),
        (scaling.variance_scan, "scaling.variance_scan", None),
        (scaling.mass_scan, "scaling.mass_scan", None),
        (scaling.survival_samples, "scaling.survival", _after_survival),
        (renewal1d.renewal_model, "renewal1d.model", _after_renewal_model),
        (renewal1d.solve_lambda, "renewal1d.tilt", None),
        (renewal1d.renewal_mean, "renewal1d.moments", None),
        (renewal1d.variance_1d, "renewal1d.moments", None),
    ]
    for fn, name, after in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn, None, after))


# -- summary ----------------------------------------------------------------


def _outermost_seconds(spans, name):
    """Time in spans called `name`, not counting ones nested in another."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, parent, sname, _thread, t0, t1 in spans:
        if sname != name:
            continue
        while parent and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if not parent:
            total += t1 - t0
    return total


def _self_seconds(spans, name):
    """Duration of the spans called `name` minus their direct child spans."""
    child = defaultdict(float)
    for _sid, parent, _name, _thread, t0, t1 in spans:
        if parent:
            child[parent] += t1 - t0
    return sum(t1 - t0 - child[sid]
               for sid, _p, sname, _th, t0, t1 in spans if sname == name)


def counts(dump) -> dict:
    """Calls seen per span name, plus paths generated."""
    out = defaultdict(int)
    for span in dump["spans"]:
        out[span[2]] += 1
    out["scaling.paths"] = int(dump["data"].get("scaling.paths", 0))
    return dict(out)


def summarize(dump) -> dict:
    """Per-layer metrics of one traced CLI run, as {name: value}."""
    spans = dump["spans"]
    data = defaultdict(float, dump["data"])
    calls = counts(dump)
    visits = data["pinning.site_visits"]
    survival_s = _outermost_seconds(spans, "scaling.survival")
    path_steps = data["scaling.path_steps"]
    out = {
        "green.region_build_s": _outermost_seconds(spans, "green.region_build"),
        "pinning.chain_init_s": _outermost_seconds(spans, "pinning.chain_init"),
        "pinning.chains": calls.get("pinning.chain_init", 0),
        "pinning.sweep_s": _outermost_seconds(spans, "pinning.sweep"),
        "pinning.sweeps": calls.get("pinning.sweep", 0),
    }
    for r in RADII:
        n = data[f"pinning.site_visits.R{r}"]
        out[f"pinning.sweep_us_per_site.R{r}"] = (
            1e6 * data[f"pinning.sweep_s.R{r}"] / n if n else 0.0)
    out.update({
        "pinning.flip_frac": data["pinning.flips"] / visits if visits else 0.0,
        "pinning.pin_density": (data["pinning.pinned_sites"] / visits
                                if visits else 0.0),
        "pinning.audit_max_rel_err": data["pinning.audit_max_rel_err"],
        "pinning.observable_s": _outermost_seconds(spans, "pinning.observable"),
        "pinning.observable_calls": calls.get("pinning.observable", 0),
        "walk.dp_pmf_s": _outermost_seconds(spans, "walk.dp_pmf"),
        "walk.dp_cell_steps": data["walk.dp_cell_steps"],
        "scaling.survival_s": survival_s,
        "scaling.path_steps": path_steps,
        "scaling.path_steps_per_s": (path_steps / survival_s
                                     if survival_s else 0.0),
        "scaling.hit_frac": (data["scaling.hit_pairs"] / data["scaling.pairs"]
                             if data["scaling.pairs"] else 0.0),
        "scaling.min_hits": dump["min_hits"] or 0,
        "renewal1d.tilt_s": _outermost_seconds(spans, "renewal1d.tilt"),
        "renewal1d.moments_s": _outermost_seconds(spans, "renewal1d.moments"),
        "renewal1d.k_max": data["renewal1d.k_max"],
        "cli.self_s": _self_seconds(spans, "cli.run"),
    })
    return out
