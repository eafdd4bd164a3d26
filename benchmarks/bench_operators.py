"""Layer benchmarks of the grid operators (pytest-benchmark).

Times, on the three grids of the ``grid-operators`` perfbench workload
(384 nodes for order 1/2, 24 x 24 for (1/2, 1), 8 x 8 x 8 for
(1/2, 1, 0), each a Gauss-Legendre box from 0):

- ``semigroup_apply`` at t = 1/2, by kernel and by spectral multiplier;
- ``maximal_function`` on a geometric ladder of 16, 6 and 4 times from
  twice the node spacing to 30, and on the 576-node grid of the Tier-1
  maximal tests (order 1/2, [1e-9, 12], 48 nodes per unit) with its
  default ladder of 48 times;
- ``square_function`` with its default levels and cut-off;
- ``hardy_norm_maximal`` of two 1-D atoms at p = 0.9, with the atom
  defaults (40 times, 48 source nodes): one with a 96-node evaluation
  grid, which keeps the full loop, and one with 192, which prunes;
- the four Riesz families of the standard bound suite (``fast = false``):
  ``riesz_kernel`` with k = (1,) and (2,) on the 10,100 1-D ``riesz-size``
  pairs and with k = (1, 0) on the 12,100 2-D pairs, and
  ``riesz_heat_composite_kernel`` with k = (1,) on the 10,620
  ``riesz-heat-size`` pairs, one time per pair;
- the other users of the n-D pair product, on the 19,208 pairs (one time
  per pair) of the 2-D sample set ``bounds._grid_2d(fast=False)``:
  ``delta_kernel`` at m = (1, 1), and the left-hand side of
  ``product_adjoint_family`` at m = 1, k = (0, 0), ell = (2, 2).

The grid operators and the Riesz kernels draw their 1-D factors from one
walker, ``heat._axis_factors``; the Riesz kernels and the product kernels
form their products at scattered point pairs in one place,
``heat._row_products``.  Each benchmark records its output
grid points or point pairs in ``extra_info`` as its work count, and the
minor page faults of one call, averaged over
``FAULT_CALLS`` calls after a warm-up call, as ``minor_faults_per_call``.
The lagsem imports sit inside the fixtures and benchmarks, so the module
also runs as a script without lagsem on the path.  The file is outside
the Tier-1 ``testpaths``; run it with

    python3 -m pytest benchmarks/bench_operators.py

or compare two checkouts and write a JSON table of both:

    python3 benchmarks/bench_operators.py --parent-src ../parent/src --out layers.json

which alternates the parent's ``src`` and this checkout's
``bench_bessel.ROUNDS`` times, as ``benchmarks/bench_bessel.py`` does.
``BENCH_15.json``, ``BENCH_17.json`` and ``BENCH_18.json`` hold such tables.
"""

from __future__ import annotations

import resource

import numpy as np
import pytest

from bench_bessel import compare_checkouts

# calls per page-fault count
FAULT_CALLS = 5
T = 0.5
# (id, order, axis hi, nodes per unit, maximal-function ladder steps)
GRIDS = (
    ("d1", (0.5,), 12.0, 32, 16),
    ("d2", (0.5, 1.0), 6.0, 4, 6),
    ("d3", (0.5, 1.0, 0.0), 4.0, 2, 4),
)
GRID_IDS = [g[0] for g in GRIDS]
# (id, order, k, sample set of lagsem.bounds, heat-composed)
RIESZ = (
    ("size-d1-k1", (0.5,), (1,), "_grid_riesz_1d", False),
    ("size-d1-k2", (0.5,), (2,), "_grid_riesz_1d", False),
    ("size-d2-k10", (0.5, 1.0), (1, 0), "_grid_riesz_2d", False),
    ("heat-d1-k1", (0.5,), (1,), "_grid_riesz_heat", True),
)
PRODUCTS = ("delta-d2-m11", "adjoint-d2-m1")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _record(benchmark, fn, **work):
    """Benchmark ``fn`` after counting its minor page faults per call; ``work`` names its work count."""
    fn()
    before = _minor_faults()
    for _ in range(FAULT_CALLS):
        fn()
    benchmark.extra_info.update(work)
    benchmark.extra_info["minor_faults_per_call"] = (_minor_faults() - before) / FAULT_CALLS
    benchmark(fn)


@pytest.fixture(scope="module")
def grids():
    """Per grid id: the order, a bump function on the grid and the time ladder."""
    from lagsem import Grid, GridFunction, MultiOrder, gauss_legendre_axis

    out = {}
    for name, nu, hi, per_unit, steps in GRIDS:
        order = MultiOrder(nu)
        axis = gauss_legendre_axis(0.0, hi, nodes_per_unit=per_unit, min_nodes=per_unit)
        grid = Grid((axis,) * order.n)
        pts = grid.points()
        vals = np.exp(-np.sum((pts - 1.5) ** 2, axis=-1) / 0.5)
        for j, nu_j in enumerate(nu):
            vals *= pts[:, j] ** (nu_j + 0.5)
        h = float(np.diff(axis.nodes).max())
        ladder = np.geomspace(2.0 * h, 30.0, steps)
        out[name] = (order, GridFunction(grid, vals.reshape(grid.shape)), ladder)
    return out


@pytest.mark.parametrize("method", ["kernel", "spectral"])
@pytest.mark.parametrize("dim", GRID_IDS)
def test_semigroup_apply(benchmark, grids, dim, method):
    from lagsem import semigroup_apply

    order, f, _ = grids[dim]
    _record(benchmark, lambda: semigroup_apply(order, f, T, method=method), points=f.values.size)


@pytest.mark.parametrize("dim", GRID_IDS)
def test_maximal_function(benchmark, grids, dim):
    from lagsem import maximal_function

    order, f, ladder = grids[dim]
    _record(benchmark, lambda: maximal_function(order, f, t_grid=ladder), points=f.values.size)


def test_maximal_function_fine_grid(benchmark):
    from lagsem import Grid, GridFunction, MultiOrder, maximal_function

    grid = Grid.box((1e-9,), (12.0,), nodes_per_unit=48)
    x = grid.points().ravel()
    f = GridFunction(grid, np.exp(-2.0 * (x - 3.0) ** 2))
    _record(benchmark, lambda: maximal_function(MultiOrder((0.5,)), f), points=x.size)


@pytest.mark.parametrize("dim", GRID_IDS)
def test_square_function(benchmark, grids, dim):
    from lagsem import square_function

    order, f, _ = grids[dim]
    _record(benchmark, lambda: square_function(order, f), points=f.values.size)


def test_hardy_norm_maximal_atom(benchmark, grids):
    from lagsem import hardy_norm_maximal, random_atom

    order = grids["d1"][0]
    # radius 0.0086: a 96-node evaluation grid against the atom's 48 nodes
    atom = random_atom(order, 0.9, seed=3)
    _record(benchmark, lambda: hardy_norm_maximal(order, atom, 0.9), points=96)


def test_hardy_norm_maximal_atom_192(benchmark, grids):
    from lagsem import hardy_norm_maximal, random_atom

    order = grids["d1"][0]
    # a grid-operators atom of radius 0.031: 192 evaluation nodes against
    # the atom's 48, where maximal_function takes its eigen-sum pass
    atom = random_atom(order, 0.9, seed=908297868)
    _record(benchmark, lambda: hardy_norm_maximal(order, atom, 0.9), points=192)


@pytest.mark.parametrize("case", RIESZ, ids=[r[0] for r in RIESZ])
def test_riesz(benchmark, case):
    from lagsem import MultiOrder, bounds, riesz_heat_composite_kernel, riesz_kernel

    _, nu, k, sample_set, heat = case
    order = MultiOrder(nu)
    s = getattr(bounds, sample_set)(False)
    fn = ((lambda: riesz_heat_composite_kernel(order, k, s["t"], s["x"], s["y"])) if heat
          else (lambda: riesz_kernel(order, k, s["x"], s["y"])))
    _record(benchmark, fn, pairs=len(s["x"]))


@pytest.mark.parametrize("case", PRODUCTS)
def test_pair_product(benchmark, case):
    from lagsem import MultiOrder, bounds, delta_kernel

    order = MultiOrder((0.5, 1.0))
    s = bounds._grid_2d(False)
    adjoint = bounds.product_adjoint_family(order, 1, (0, 0), (2, 2)).lhs
    fn = ((lambda: delta_kernel(order, (1, 1), s["t"], s["x"], s["y"])) if case == "delta-d2-m11"
          else (lambda: adjoint(s["t"], s["x"], s["y"])))
    _record(benchmark, fn, pairs=len(s["x"]))


if __name__ == "__main__":
    raise SystemExit(compare_checkouts(__file__))
