"""Layer benchmarks of the grid operators, the scattered-pair kernels and the covering.

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
  ``product_adjoint_family`` at m = 1, k = (0, 0), ell = (2, 2);
- ``build_covering`` and ``Covering.verify`` of the suite's
  ``critical-covering`` check: order 1/2 on [0.4, 2.4] (801 candidates,
  verified on 200 points) and order (1/2, 1) on [0.4, 1.6]^2 (481 x 481
  candidates, verified on 60 x 60 points).

The grid operators and the Riesz kernels draw their 1-D factors from one
walker, ``heat._axis_factors``; the Riesz kernels and the product kernels
form their products at scattered point pairs in one place,
``heat._row_products``.  Each row's work count is its output grid points,
point pairs, covering candidates or verified lattice points.
``benchmarks/ab.py`` says how the rows run: ``python3 -m pytest
benchmarks/bench_operators.py`` on this checkout, or ``python3
benchmarks/bench_operators.py --parent-src ../parent/src --out
layers.json`` against another tree in one process.  ``BENCH_15.json``,
``BENCH_17.json`` and ``BENCH_18.json`` hold tables of an earlier,
one-process-per-side form.
"""

from __future__ import annotations

import ab  # first: it runs BLAS on one thread, before numpy loads

from functools import partial

import numpy as np

T = 0.5
# id -> (order, axis hi, nodes per unit, maximal-function ladder steps)
GRIDS = {
    "d1": ((0.5,), 12.0, 32, 16),
    "d2": ((0.5, 1.0), 6.0, 4, 6),
    "d3": ((0.5, 1.0, 0.0), 4.0, 2, 4),
}
# id -> (order, k, sample set of lagsem.bounds, heat-composed)
RIESZ = {
    "size-d1-k1": ((0.5,), (1,), "_grid_riesz_1d", False),
    "size-d1-k2": ((0.5,), (2,), "_grid_riesz_1d", False),
    "size-d2-k10": ((0.5, 1.0), (1, 0), "_grid_riesz_2d", False),
    "heat-d1-k1": ((0.5,), (1,), "_grid_riesz_heat", True),
}
# id -> (order, box hi from 0.4, verify points per axis, candidates of the build)
COVERINGS = {"d1": ((0.5,), 2.4, 200, 801), "d2": ((0.5, 1.0), 1.6, 60, 481 * 481)}


def _on_grid(dim, op, *args, ladder=False, **kwargs):
    """A row calling ``op(order, f, *args, **kwargs)`` on grid ``dim``; ``ladder`` adds its ``t_grid``."""
    def build(lagsem):
        nu, hi, per_unit, steps = GRIDS[dim]
        order = lagsem.MultiOrder(nu)
        axis = lagsem.gauss_legendre_axis(0.0, hi, nodes_per_unit=per_unit, min_nodes=per_unit)
        grid = lagsem.Grid((axis,) * order.n)
        pts = grid.points()
        vals = np.exp(-np.sum((pts - 1.5) ** 2, axis=-1) / 0.5)
        for j, nu_j in enumerate(nu):
            vals *= pts[:, j] ** (nu_j + 0.5)
        h = float(np.diff(axis.nodes).max())
        times = {"t_grid": np.geomspace(2.0 * h, 30.0, steps)} if ladder else {}
        f = lagsem.GridFunction(grid, vals.reshape(grid.shape))
        return partial(getattr(lagsem, op), order, f, *args, **kwargs, **times), {"points": f.values.size}

    return build


def _fine_grid(lagsem):
    grid = lagsem.Grid.box((1e-9,), (12.0,), nodes_per_unit=48)
    x = grid.points().ravel()
    f = lagsem.GridFunction(grid, np.exp(-2.0 * (x - 3.0) ** 2))
    return partial(lagsem.maximal_function, lagsem.MultiOrder((0.5,)), f), {"points": x.size}


def _atom(seed, points):
    """``hardy_norm_maximal`` of the order-1/2 atom of ``seed``, evaluated on ``points`` nodes."""
    def build(lagsem):
        order = lagsem.MultiOrder((0.5,))
        atom = lagsem.random_atom(order, 0.9, seed=seed)
        return partial(lagsem.hardy_norm_maximal, order, atom, 0.9), {"points": points}

    return build


def _riesz(nu, k, sample_set, heat):
    def build(lagsem):
        s = getattr(lagsem.bounds, sample_set)(False)
        order = lagsem.MultiOrder(nu)
        fn = (partial(lagsem.riesz_heat_composite_kernel, order, k, s["t"]) if heat
              else partial(lagsem.riesz_kernel, order, k))
        return partial(fn, s["x"], s["y"]), {"pairs": len(s["x"])}

    return build


def _pair_product(adjoint):
    def build(lagsem):
        order = lagsem.MultiOrder((0.5, 1.0))
        s = lagsem.bounds._grid_2d(False)
        fn = (lagsem.bounds.product_adjoint_family(order, 1, (0, 0), (2, 2)).lhs if adjoint
              else partial(lagsem.delta_kernel, order, (1, 1)))
        return partial(fn, s["t"], s["x"], s["y"]), {"pairs": len(s["x"])}

    return build


def _covering(dim, verify):
    def build(lagsem):
        nu, hi, per_axis, candidates = COVERINGS[dim]
        covering = partial(lagsem.build_covering, lagsem.MultiOrder(nu), 0.4, hi)
        if verify:
            return partial(covering().verify, points_per_axis=per_axis), {"points": per_axis ** len(nu)}
        return covering, {"candidates": candidates}

    return build


CASES = {
    **{f"test_semigroup_apply[{dim}-{method}]": _on_grid(dim, "semigroup_apply", T, method=method)
       for dim in GRIDS for method in ("kernel", "spectral")},
    **{f"test_maximal_function[{dim}]": _on_grid(dim, "maximal_function", ladder=True) for dim in GRIDS},
    "test_maximal_function_fine_grid": _fine_grid,
    **{f"test_square_function[{dim}]": _on_grid(dim, "square_function") for dim in GRIDS},
    # radius 0.0086: a 96-node evaluation grid against the atom's 48 nodes
    "test_hardy_norm_maximal_atom": _atom(3, 96),
    # a grid-operators atom of radius 0.031: 192 evaluation nodes against
    # the atom's 48, where maximal_function takes its eigen-sum pass
    "test_hardy_norm_maximal_atom_192": _atom(908297868, 192),
    **{f"test_riesz[{name}]": _riesz(*spec) for name, spec in RIESZ.items()},
    "test_pair_product[delta-d2-m11]": _pair_product(adjoint=False),
    "test_pair_product[adjoint-d2-m1]": _pair_product(adjoint=True),
    **{f"test_build_covering[{dim}]": _covering(dim, verify=False) for dim in COVERINGS},
    **{f"test_covering_verify[{dim}]": _covering(dim, verify=True) for dim in COVERINGS},
}

test_layer = ab.pytest_test(CASES)

if __name__ == "__main__":
    raise SystemExit(ab.main(CASES))
