"""Layer benchmark of ``fit_gaussian_bound``, one benchmark per bound family.

Every task of ``standard_bound_suite(fast=False)`` (the grids of a
``fast = false`` suite run) is fitted ``ROUNDS_PER_RUN`` times after one
warm-up fit, and its sample count after the family's window is recorded
in ``extra_info``.  The lagsem imports sit inside the hooks, fixtures and
benchmarks, so the module also runs as a script without lagsem on the
path.  The file is outside the Tier-1 ``testpaths``; run it with

    python3 -m pytest benchmarks/bench_bounds.py

or compare two checkouts and write a JSON table of both:

    python3 benchmarks/bench_bounds.py --parent-src ../parent/src --out layers.json

which alternates the parent's ``src`` and this checkout's
``bench_bessel.ROUNDS`` times, as ``benchmarks/bench_bessel.py`` does.
``BENCH_6.json`` holds such a table.
"""

from __future__ import annotations

import pytest

from bench_bessel import compare_checkouts

# fits per benchmark in one pytest run
ROUNDS_PER_RUN = 5


def pytest_generate_tests(metafunc):
    if "task_index" in metafunc.fixturenames:
        from lagsem.bounds import standard_bound_suite

        ids = [task.family.family_id for task in standard_bound_suite(fast=False)]
        metafunc.parametrize("task_index", range(len(ids)), ids=ids)


@pytest.fixture(scope="module")
def tasks():
    from lagsem.bounds import standard_bound_suite

    return standard_bound_suite(fast=False)


def test_fit_gaussian_bound(benchmark, tasks, task_index):
    from lagsem.bounds import fit_gaussian_bound

    task = tasks[task_index]
    args = (task.family, task.samples)
    benchmark.extra_info["samples"] = fit_gaussian_bound(*args).n_samples
    benchmark.pedantic(fit_gaussian_bound, args=args, rounds=ROUNDS_PER_RUN, warmup_rounds=1)


if __name__ == "__main__":
    raise SystemExit(compare_checkouts(__file__))
