"""Spans and work counters recorded at calls into lagsem's public functions.

The tracer wraps each function from outside and patches every ``lagsem.*``
module attribute that binds it, because lagsem modules import one another's
functions by name (``lagsem.heat.ive`` is ``lagsem.special.ive``). Spans
(name, start, end, parent, item) are kept in memory and written out when the
run ends. A span's self time is its duration minus the durations of its
child spans; a rate (``*_per_s``) divides work by the time spent inside the
call, children included. Counters are computed from arguments and results
only, so no branch logic of lagsem is repeated here.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import lagsem

TINY = np.finfo(float).tiny  # smallest normal double


def _below_tiny(result) -> int:
    return int(np.count_nonzero(np.abs(np.asarray(result)) < TINY))


def _dim(call) -> int:
    order = call()["order"]
    return order.n if isinstance(order, lagsem.MultiOrder) else lagsem.MultiOrder(order).n


def _fit_group(family_id: str) -> str:
    for prefix, group in (("hermite", "hermite"), ("product", "product2d"), ("riesz", "riesz")):
        if family_id.startswith(prefix):
            return group
    return "active1d"


# A hook adds the counters of one call: hook(add, name, call, result, seconds),
# where call() returns the bound arguments and add(key, value, keep_max=False)
# sums (or keeps the largest) value under a full metric name.
def _elements(add, name, call, res, dt):
    add(name + ".elements", np.size(res))
    add(name + ".underflow", _below_tiny(res))


def _pairs(add, name, call, res, dt):
    add(name + ".pairs", np.size(res))


def _pairs_underflow(add, name, call, res, dt):
    add(name + ".pairs", np.size(res))
    add(name + ".underflow", _below_tiny(res))


def _points(add, name, call, res, dt):
    add(name + ".points", np.size(res))


def _by_route_and_dim(add, name, call, res, dt):
    add(f"{name}.{call()['method']}.d{_dim(call)}.s", dt)


def _by_dim(add, name, call, res, dt):
    add(f"{name}.d{_dim(call)}.s", dt)


def _fit(add, name, call, res, dt):
    add(name + ".samples", res.n_samples)
    add(f"bounds.fit.{_fit_group(res.family_id)}.s", dt)


def _balls(add, name, call, res, dt):
    add(name + ".balls", len(res.radii))


def _verify_points(add, name, call, res, dt):
    bound = call()
    add(name + ".points", bound["points_per_axis"] ** len(bound["self"].box_lo))


def _slow_variation_pairs(add, name, call, res, dt):
    add(name + ".pairs", res.n_pairs)


# (module, attribute or Class.method, span name, hook, trace allocations)
TRACED = (
    ("lagsem.special", "ive", "special.ive", _elements, False),
    ("lagsem.heat", "kernel_1d_closed", "heat.kernel_1d_closed", _pairs_underflow, False),
    ("lagsem.heat", "evaluate_expansion", "heat.evaluate_expansion", _pairs, False),
    ("lagsem.heat", "kernel_nd", "heat.kernel_nd", _pairs, False),
    ("lagsem.operators", "semigroup_apply", "operators.semigroup_apply", _by_route_and_dim, False),
    ("lagsem.operators", "maximal_function", "operators.maximal_function", _by_dim, False),
    ("lagsem.operators", "square_function", "operators.square_function", _by_dim, False),
    ("lagsem.operators", "analyze", "operators.analyze", None, False),
    ("lagsem.operators", "synthesize", "operators.synthesize", None, False),
    ("lagsem.operators", "riesz_kernel", "operators.riesz_kernel", _pairs, False),
    ("lagsem.operators", "riesz_heat_composite_kernel",
     "operators.riesz_heat_composite_kernel", _pairs, False),
    ("lagsem.bounds", "fit_gaussian_bound", "bounds.fit_gaussian_bound", _fit, False),
    ("lagsem.critical", "rho", "critical.rho", _points, False),
    ("lagsem.critical", "build_covering", "critical.build_covering", _balls, False),
    ("lagsem.critical", "Covering.verify", "critical.Covering.verify", _verify_points, True),
    ("lagsem.critical", "check_slow_variation", "critical.check_slow_variation",
     _slow_variation_pairs, False),
    ("lagsem.hardy", "random_atom", "hardy.random_atom", None, False),
    ("lagsem.hardy", "check_atom", "hardy.check_atom", None, False),
    ("lagsem.hardy", "hardy_norm_maximal", "hardy.hardy_norm_maximal", None, False),
    ("lagsem.hardy", "bmo_norm", "hardy.bmo_norm", None, False),
    ("lagsem.hardy", "duality_pairing", "hardy.duality_pairing", None, False),
    ("lagsem.grids", "GridFunction.interp", "grids.GridFunction.interp", _points, False),
    ("lagsem.config", "SuiteConfig.load", "cli.config_load", None, False),
    ("lagsem.reports", "SuiteReport.to_json", "cli.report_write", None, False),
)


class Tracer:
    """Patches lagsem while installed; collects spans and counters per pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item, child seconds]
        self._stack = []
        self._counters = defaultdict(float)
        self._patches = []  # (owner, attribute, original, replacement)
        self._item = None
        self._pass_start = 0
        self._cache_before = None
        for module_name, qualname, name, hook, track_alloc in TRACED:
            owner = sys.modules[module_name]
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if classes else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, hook, track_alloc))
                self._patches.append((owner, attr, original, replacement))
            elif classes:
                self._patches.append((owner, attr, original,
                                      self._wrap(original, name, hook, track_alloc)))
            else:
                wrapped = self._wrap(original, name, hook, track_alloc)
                for mod in _lagsem_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original, wrapped))

    def _wrap(self, fn, name, hook, track_alloc):
        signature = inspect.signature(fn)
        add = self._add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self._item, 0.0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if track_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += span[2] - span[1]
            if track_alloc:
                add(name + ".peak_alloc_mb", peak / 2**20, keep_max=True)
            if hook is not None:

                def call():
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return bound.arguments

                hook(add, name, call, result, span[2] - span[1])
            return result

        return traced

    def _add(self, key, value, keep_max=False):
        value = float(value)
        if keep_max:
            self._counters[key] = max(self._counters[key], value)
        else:
            self._counters[key] += value

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin_pass(self, item):
        self._item = item
        self._pass_start = len(self.spans)
        self._counters.clear()
        self._cache_before = _expansion_cache()
        self.install()

    def end_pass(self) -> dict:
        """Uninstall and return this pass's flat per-layer values."""
        self.uninstall()
        flat = defaultdict(float, self._counters)
        for name, start, end, _, _, child in self.spans[self._pass_start:]:
            flat[name + ".calls"] += 1
            flat[name + ".s"] += end - start
            flat[name + ".self_s"] += end - start - child
        for name in {span[0] for span in self.spans[self._pass_start:]}:
            for work in ("elements", "pairs"):
                if name + "." + work in flat:
                    done = flat[name + "." + work]
                    seconds = flat[name + ".s"]
                    flat[f"{name}.{work}_per_s"] = done / seconds if seconds > 0 else 0.0
                    if name + ".underflow" in flat and done:
                        flat[name + ".underflow_share"] = flat[name + ".underflow"] / done
        hits, misses = (a - b for a, b in zip(_expansion_cache(), self._cache_before))
        flat["heat.operator_expansion.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return flat

    def write(self, path, env):
        """Write the environment, then one [name, start, end, parent, item] line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for name, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, item]) + "\n")


def _lagsem_modules():
    return [m for k, m in list(sys.modules.items()) if k == "lagsem" or k.startswith("lagsem.")]


def _expansion_cache():
    cache_info = getattr(lagsem.heat.operator_expansion, "cache_info", None)
    if cache_info is None:
        return 0, 0
    info = cache_info()
    return info.hits, info.misses
