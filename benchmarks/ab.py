"""Layer benchmark rows, run on this checkout or against another tree in one process.

Each ``bench_*.py`` file defines its rows once, as ``CASES``: a table
``name -> build(lagsem) -> (callable, work)``, where ``build`` makes the
row's inputs with the package it is given and ``work`` holds counts, the
first of them the row's work count.  ``python3 -m pytest
benchmarks/bench_operators.py`` runs the rows on this checkout
(``pytest_test``).  Run as a script, a file passes its table to ``main``:

    python3 benchmarks/bench_operators.py --parent-src ../parent/src --out layers.json

loads this checkout's ``src/lagsem`` as ``lagsem`` and the other tree's as
``lagsem_parent`` into one process, builds every row on both sides and
records whether their outputs are bit for bit equal.  In each of
``ROUNDS`` rounds the sides take turns running first; a row makes one warm
call and ``CALLS`` timed ones with the garbage collector off, and the
round keeps the least.  Per side, a row of the JSON table holds the median
round time, the round times in round order (``round_medians_s``), the work
count and work per second, ``spread`` (interquartile range over median),
the median minor page faults per timed call and the row's other counts.
``change_over_parent`` is the median over the rounds of the round's
change/parent ratio: a row's two sides run back to back, so a drift in the
host's speed between rounds, which sets most of the spread, cancels in
each ratio.

Importing this module runs BLAS on one thread, as perfbench's harness
does, which only takes effect before numpy loads, so each bench file
imports it first; it also puts this checkout's ``src`` first on the path.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import os
import resource
import sys
import time

_NUMPY_FIRST = "numpy" in sys.modules
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

ROUNDS = 21
# timed calls per round, row and side, after one warm call
CALLS = 3


def pytest_test(cases):
    """One pytest-benchmark test of every row of ``cases`` on this checkout's lagsem."""
    import lagsem
    import pytest

    @pytest.mark.parametrize("name", list(cases))
    def test_layer(benchmark, name):
        fn, work = cases[name](lagsem)
        benchmark.extra_info.update(work)
        benchmark(fn)

    return test_layer


def _load(src: str, name: str):
    """The ``lagsem`` package under ``src``, imported as ``name``."""
    init = os.path.join(src, "lagsem", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _bits(out):
    """``out`` with each array or scalar as its dtype, shape and bytes, and containers entry by entry.

    The two packages' dataclasses are different classes, so they compare by their fields.
    """
    if dataclasses.is_dataclass(out):
        return [_bits(getattr(out, f.name)) for f in dataclasses.fields(out)]
    if isinstance(out, dict):
        return [(key, _bits(value)) for key, value in out.items()]
    if isinstance(out, (list, tuple)):
        return [_bits(value) for value in out]
    a = np.asarray(out)
    return a.dtype.str, a.shape, a.tobytes()


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _time(fn) -> tuple[float, float]:
    """One warm call, then ``CALLS`` timed ones: the least time and the minor faults per timed call.

    The garbage collector is off during the timed calls, as in ``timeit``:
    a collection walks every object of both packages and their inputs, and
    would be charged to whichever call happens to set it off.
    """
    fn()
    gc.disable()
    try:
        faults = _minor_faults()
        best = float("inf")
        for _ in range(CALLS):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best, (_minor_faults() - faults) / CALLS
    finally:
        gc.enable()


def _side(times, faults, work) -> dict:
    (unit, count), *others = work.items()
    median = float(np.median(times))
    q1, q3 = np.percentile(times, [25, 75])
    return {
        "median_s": median, "round_medians_s": list(times), unit: count, f"{unit}_per_s": count / median,
        "spread": float(q3 - q1) / median, "minor_faults_per_call": float(np.median(faults)), **dict(others),
    }


def main(cases, argv=None) -> int:
    """Time every row of ``cases`` here and on ``--parent-src``, in one process; write ``--out``."""
    parser = argparse.ArgumentParser(description="compare the layer benchmarks of two trees, in one process")
    parser.add_argument("--parent-src", required=True, help="src directory of the parent checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if _NUMPY_FIRST:
        raise SystemExit("numpy was loaded before benchmarks/ab.py, so BLAS may use more than one thread")
    import lagsem

    sides = {"parent": _load(os.path.abspath(args.parent_src), "lagsem_parent"), "change": lagsem}
    built = {side: {name: build(sides[side]) for name, build in cases.items()} for side in sides}
    equal = {name: _bits(built["parent"][name][0]()) == _bits(built["change"][name][0]())
             for name in cases}
    runs = {side: {name: [] for name in cases} for side in sides}
    for rnd in range(ROUNDS):
        order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
        for name in cases:
            for side in order:
                runs[side][name].append(_time(built[side][name][0]))
    rows = []
    for name in cases:
        row = {"name": name, "outputs_equal": equal[name]}
        for side in sides:
            times, faults = zip(*runs[side][name])
            row[side] = _side(times, faults, built[side][name][1])
        ratios = np.divide(row["change"]["round_medians_s"], row["parent"]["round_medians_s"])
        row["change_over_parent"] = float(np.median(ratios))
        rows.append(row)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"rounds": ROUNDS, "calls_per_round": CALLS, "rows": rows}, fh, indent=2)
        fh.write("\n")
    return 0
