"""Tensor grids: multilinear interpolation against scipy's reference, and input rules."""

import math

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from lagsem import Grid, GridFunction, gauss_legendre_axis


def _sample(n, seed):
    rng = np.random.default_rng(seed)
    grid = Grid.box([0.3] * n, [1.7 + 0.2 * j for j in range(n)], nodes_per_unit=9, min_nodes=5)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    lo = np.array([ax.nodes[0] for ax in grid.axes])
    hi = np.array([ax.nodes[-1] for ax in grid.axes])
    pts = np.vstack([
        rng.uniform(0.0, 2.4, size=(4000, n)),  # inside and outside the box
        lo, hi, np.where(np.arange(n) % 2, lo, hi),  # corners of the box
        np.column_stack([np.full(50, hi[0])] + [rng.uniform(0.3, 1.7, 50)] * (n - 1)),  # a face
        grid.points()[::7],  # nodes
    ])
    reference = RegularGridInterpolator(
        tuple(ax.nodes for ax in grid.axes), f.values,
        method="linear", bounds_error=False, fill_value=0.0,
    )(pts)
    return f, pts, reference


@pytest.mark.parametrize("n", [1, 3])
def test_interp_is_scipys_bit_for_bit(n):
    f, pts, reference = _sample(n, seed=n)
    got = f.interp(pts)
    assert np.any(got == 0.0) and np.any(got != 0.0)
    assert np.array_equal(got, reference)


def test_interp_in_2d_matches_scipy_to_rounding():
    # scipy's 2-D kernel multiplies (value * w0) * w1, not value * (w0 * w1)
    f, pts, reference = _sample(2, seed=2)
    got = f.interp(pts)
    assert np.array_equal(got == 0.0, reference == 0.0)
    assert np.max(np.abs(got - reference)) <= 2e-15 * np.max(np.abs(f.values))


def test_interp_reproduces_linear_functions_and_refuses_other_dimensions():
    grid = Grid.box((0.5, 1.0), (2.0, 3.0), nodes_per_unit=6)
    pts = grid.points()
    f = GridFunction(grid, (2.0 * pts[:, 0] - pts[:, 1]).reshape(grid.shape))
    probe = np.array([[0.8, 1.3], [1.9, 2.9], [1.2, 2.0]])
    assert np.allclose(f.interp(probe), 2.0 * probe[:, 0] - probe[:, 1], rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match=r"\(M, 2\) points"):
        f.interp(np.ones((4, 3)))


def test_interp_refuses_an_axis_of_one_node():
    # one node has no cell: the fraction was 0/0, a silent NaN at the node itself
    from lagsem.grids import QuadAxis

    grid = Grid((QuadAxis([1.0], [1.0]), QuadAxis([0.5, 2.0], [1.0, 1.0])))
    f = GridFunction(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="interp needs at least two nodes per axis"):
        f.interp([[1.0, 1.0], [1.0, 3.0]])


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.0, -1.0])
def test_norm_lp_refuses_an_exponent_that_is_not_finite_and_positive(p):
    # p = nan gave a silent NaN (1.0 for |f| = 1) and p = inf gave mass^0 = 1.0,
    # which is not the sup norm
    grid = Grid.box((0.1,), (1.0,))
    f = GridFunction(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="norm_lp needs a finite exponent p > 0"):
        f.norm_lp(p)


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (0.1, math.inf), (math.nan, 1.0)])
def test_axes_and_boxes_refuse_bounds_that_are_not_finite(lo, hi):
    # an infinite bound raised OverflowError while counting panels
    with pytest.raises(ValueError, match="axis bounds must be finite"):
        gauss_legendre_axis(lo, hi)
    with pytest.raises(ValueError, match="axis bounds must be finite"):
        Grid.box((lo,), (hi,))
