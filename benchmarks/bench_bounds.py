"""Layer benchmark of ``fit_gaussian_bound``, one row per bound family.

Every task of ``standard_bound_suite(fast=False)`` (the grids of a
``fast = false`` suite run) is one row, which fits the family on its
samples; its work count is the sample count after the family's window.
The rows are the families of this checkout's suite, each built on either
side from the suite of that side.  ``benchmarks/ab.py`` says how the rows
run: ``python3 -m pytest benchmarks/bench_bounds.py`` on this checkout,
or ``python3 benchmarks/bench_bounds.py --parent-src ../parent/src --out
layers.json`` against another tree in one process.  ``BENCH_6.json``
holds a table of an earlier, one-process-per-side form.
"""

from __future__ import annotations

import ab  # first: it runs BLAS on one thread, before numpy loads

from functools import cache, partial

import lagsem


@cache
def _tasks(package) -> dict:
    return {task.family.family_id: task for task in package.standard_bound_suite(fast=False)}


def _fit(family_id):
    def build(package):
        task = _tasks(package)[family_id]
        fit = partial(package.fit_gaussian_bound, task.family, task.samples)
        return fit, {"samples": fit().n_samples}

    return build


CASES = {f"test_fit_gaussian_bound[{family_id}]": _fit(family_id) for family_id in _tasks(lagsem)}

test_layer = ab.pytest_test(CASES)

if __name__ == "__main__":
    raise SystemExit(ab.main(CASES))
