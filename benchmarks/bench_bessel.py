"""Layer benchmarks of the Bessel and 1-D heat-kernel code.

Times ``ive`` per branch and the two 1-D kernel entry points:

- ``ive`` Riesz call: every Bessel argument of one Riesz kernel call
  (``riesz_kernel`` of order 1/2, k = 2, on 41 x 41 off-diagonal pairs in
  [0.05, 4]), replayed call by call with the same arrays, whatever branch
  each element takes.  This is the row that compares two checkouts whose
  branch rules differ;
- ``ive`` series: the arguments of that call at or below the series
  cutoff max(50, 2 alpha^2).  For orders other than half-integers these
  all take the batched power series.  Orders +-1/2 take the closed form
  on every z > 0, and the other half-integer orders up to 20.5 from
  z = max(1, alpha^2/2) on, so for them this row times a mix of series
  and closed form, and against a checkout with another branch rule its
  two sides do not do the same work;
- ``ive`` order 1/2 below 1: z in (0, 1), which the power series summed
  before the closed form took every z > 0 at orders +-1/2;
- ``ive`` order 3/2 below 1e-2: z in [1e-8, 1e-2], where the bound over
  the batch stops the power series after a few terms;
- ``ive`` anchored: arguments whose leading series term underflows, summed
  by the scalar fallback anchored at the largest term;
- ``ive`` Hankel: order-1/2 arguments above the series cutoff.  With the
  half-integer closed form they take that branch instead, so this row
  then compares the closed form with the Hankel loop it replaced;
- ``kernel_1d_closed`` and ``evaluate_expansion`` (through
  ``delta_kernel_1d`` with m = 2), on 16 times by 64 x 64 space pairs;
- the two kernel checks of the suite at ``SuiteConfig(fast=False)``:
  ``check_closed_vs_spectral`` (``kernel_spectral`` against the closed
  form on 15 x 15 pairs) and ``check_semigroup_law`` (3 x 2 pairs, each
  composed over a 768-node quadrature).

Each row's work count is its elements or pairs.  ``benchmarks/ab.py``
says how the rows run: ``python3 -m pytest benchmarks/bench_bessel.py``
on this checkout, or ``python3 benchmarks/bench_bessel.py --parent-src
../parent/src --out layers.json`` against another tree in one process.
The ``layers`` blocks of ``BENCH_4.json``, ``BENCH_7.json`` and
``BENCH_12.json`` are tables of an earlier, one-process-per-side form.
"""

from __future__ import annotations

import ab  # first: it runs BLAS on one thread, before numpy loads

from functools import partial

import numpy as np

N_PAIRS_1D = 16 * 64 * 64
SPACE_PAIRS = (
    np.geomspace(1e-3, 10.0, 16)[:, None, None],
    np.linspace(0.05, 6.0, 64)[None, :, None],
    np.linspace(0.05, 6.0, 64)[None, None, :],
)


def _riesz_calls(lagsem) -> list:
    """The (order, argument array) of every ``ive`` call one ``riesz_kernel`` call makes."""
    heat, seen = lagsem.heat, []
    real = heat.ive

    def spy(nu, z):
        seen.append((nu, np.array(z)))
        return real(nu, z)

    pts = np.linspace(0.05, 4.0, 41)
    x, y = (v.ravel() for v in np.meshgrid(pts, pts, indexing="ij"))
    off = x != y
    heat.ive = spy
    try:
        lagsem.riesz_kernel(lagsem.MultiOrder((0.5,)), (2,), x[off], y[off])
    finally:
        heat.ive = real
    return seen


def _replay(lagsem, calls):
    work = {"elements": sum(z.size for _, z in calls), "calls": len(calls)}
    return (lambda: [lagsem.ive(nu, z) for nu, z in calls]), work


def _series(lagsem):
    cutoff = lagsem.special._series_cutoff
    calls = [(nu, z[(z > 0.0) & (z <= cutoff(nu))]) for nu, z in _riesz_calls(lagsem)]
    return _replay(lagsem, [(nu, z) for nu, z in calls if z.size])


def _ive(nu, z):
    return lambda lagsem: (partial(lagsem.ive, nu, z), {"elements": z.size})


def _check(name, pairs):
    """A check of the suite at ``fast = false``."""
    return lambda lagsem: (
        partial(getattr(lagsem.suites, name), lagsem.SuiteConfig(fast=False)), {"pairs": pairs})


CASES = {
    "test_ive_riesz_call": lambda lagsem: _replay(lagsem, _riesz_calls(lagsem)),
    "test_ive_series": _series,
    "test_ive_half_below_one": _ive(0.5, np.geomspace(1e-8, 1.0, 20_001)[:-1]),
    "test_ive_series_small_z": _ive(1.5, np.geomspace(1e-8, 1e-2, 20_000)),
    # alpha log(z/2) <= -650: the leading term is not representable
    "test_ive_anchored": _ive(2.5, np.geomspace(1e-300, 1e-260, 64)),
    "test_ive_hankel": _ive(0.5, np.geomspace(60.0, 2e4, 20_000)),
    "test_kernel_1d_closed": lambda lagsem: (
        partial(lagsem.kernel_1d_closed, 0.5, *SPACE_PAIRS), {"pairs": N_PAIRS_1D}),
    "test_evaluate_expansion_delta2": lambda lagsem: (
        partial(lagsem.delta_kernel_1d, 0.5, 2, *SPACE_PAIRS), {"pairs": N_PAIRS_1D}),
    "test_check_closed_vs_spectral": _check("check_closed_vs_spectral", 15 * 15),
    "test_check_semigroup_law": _check("check_semigroup_law", 3 * 2),
}

test_layer = ab.pytest_test(CASES)

if __name__ == "__main__":
    raise SystemExit(ab.main(CASES))
