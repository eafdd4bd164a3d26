"""Spectral calculus, semigroup, maximal/square functions, Riesz transforms."""

import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from lagsem import (
    Grid,
    GridFunction,
    MultiOrder,
    delta_kernel,
    SpectralCoefficients,
    analyze,
    eigenvalue_array,
    gauss_legendre_axis,
    kernel_1d_closed,
    kernel_nd,
    kernel_spectral,
    maximal_function,
    riesz_heat_composite_kernel,
    riesz_kernel,
    riesz_multiplier,
    riesz_spectral,
    semigroup_apply,
    square_function,
    synthesize,
    verify_cz_smoothness,
)
from lagsem.config import SuiteConfig
from lagsem.bounds import product_adjoint_family, product_delta_family, product_partial_family
from lagsem.heat import delta_kernel_1d, partial_delta_kernel_1d, shifted_adjoint_kernel_1d
from lagsem.special import laguerre_function_table
from lagsem.suites import check_parseval, run_suite

ORDER = MultiOrder((0.5,))


def _grid_1d(nodes_per_unit=48, hi=12.0):
    return Grid.box((1e-9,), (hi,), nodes_per_unit=nodes_per_unit)


def _phi(nu, k, x):
    return laguerre_function_table(nu, np.asarray(x), k)[k]


def _bump(grid, center=3.0, sharp=2.0):
    x = grid.points().ravel()
    return GridFunction(grid, np.exp(-sharp * (x - center) ** 2))


def test_analyze_eigenfunction_is_unit_vector():
    grid = _grid_1d()
    f = GridFunction(grid, _phi(0.5, 3, grid.points().ravel()))
    c = analyze(ORDER, f, k_max=10).coeffs
    assert abs(c[3] - 1.0) < 1e-8
    c[3] = 0.0
    assert np.max(np.abs(c)) < 1e-8


def test_analyze_linearity():
    grid = _grid_1d()
    x = grid.points().ravel()
    f = GridFunction(grid, _phi(0.5, 0, x) + 2.0 * _phi(0.5, 1, x))
    c = analyze(ORDER, f, k_max=6).coeffs
    assert abs(c[0] - 1.0) < 1e-8
    assert abs(c[1] - 2.0) < 1e-8
    assert np.max(np.abs(c[2:])) < 1e-8


def test_analyze_rejects_unstable_degrees():
    grid = _grid_1d(nodes_per_unit=16, hi=4.0)
    f = _bump(grid, center=2.0)
    with pytest.raises(ValueError):
        analyze(ORDER, f, k_max=201)


def test_round_trip_gaussian_bump():
    grid = _grid_1d()
    f = _bump(grid)
    back = synthesize(analyze(ORDER, f, k_max=60), grid)
    assert GridFunction(grid, back.values - f.values).norm_l2() / f.norm_l2() < 1e-6


def test_round_trip_two_dimensional():
    # the bump must be negligible on the coordinate axes: the basis vanishes
    # like x^(nu+1/2) there, so mass at the axes converges only slowly
    order = MultiOrder((0.5, 1.5))
    grid = Grid.box((1e-9, 1e-9), (10.0, 10.0), nodes_per_unit=24)
    pts = grid.points()
    vals = np.exp(-2.0 * ((pts[:, 0] - 3.0) ** 2 + (pts[:, 1] - 3.0) ** 2))
    f = GridFunction(grid, vals.reshape(grid.shape))
    back = synthesize(analyze(order, f, k_max=50), grid)
    assert GridFunction(grid, back.values - f.values).norm_l2() / f.norm_l2() < 1e-6


def test_parseval():
    grid = _grid_1d()
    f = _bump(grid)
    c = analyze(ORDER, f, k_max=60)
    assert abs(c.norm_l2() - f.norm_l2()) / f.norm_l2() < 1e-8


def test_parseval_check_rejects_oversized_grid_before_allocating():
    # three axes of 576 nodes would be 191102976 points, 1.5 GB per array
    config = SuiteConfig(order=(0.5, 1.0, 0.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="191102976 points") as refused:
            check_parseval(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    report = run_suite(config, "operators")
    res = {r.check_id: r for r in report.results}["parseval"]
    assert not res.passed and res.value is None
    assert res.detail == {"error": f"ValueError: {refused.value}"}


def test_synthesize_zero_coefficients():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    c = SpectralCoefficients(ORDER, np.zeros(5))
    assert np.all(synthesize(c, grid).values == 0.0)


def test_semigroup_damps_eigenfunction():
    grid = _grid_1d()
    x = grid.points().ravel()
    k, t = 2, 0.3
    lam = ORDER.eigenvalue((k,))
    f = GridFunction(grid, _phi(0.5, k, x))
    out = semigroup_apply(ORDER, f, t)
    expected = math.exp(-t * lam) * f.values
    assert np.max(np.abs(out.values - expected)) / math.exp(-t * lam) < 1e-8


def test_semigroup_strong_continuity():
    grid = _grid_1d()
    f = _bump(grid)
    out = semigroup_apply(ORDER, f, 1e-4)
    assert GridFunction(grid, out.values - f.values).norm_l2() / f.norm_l2() < 0.01


def test_semigroup_methods_agree():
    grid = _grid_1d()
    f = _bump(grid)
    a = semigroup_apply(ORDER, f, 0.5, method="spectral")
    b = semigroup_apply(ORDER, f, 0.5, method="kernel")
    assert np.max(np.abs(a.values - b.values)) < 1e-6


def test_semigroup_composition():
    grid = _grid_1d()
    f = _bump(grid)
    for method, tol in (("spectral", 1e-12), ("kernel", 1e-6)):
        two_step = semigroup_apply(ORDER, semigroup_apply(ORDER, f, 0.2, method=method), 0.3, method=method)
        one_step = semigroup_apply(ORDER, f, 0.5, method=method)
        assert np.max(np.abs(two_step.values - one_step.values)) < tol


def test_semigroup_self_adjoint():
    grid = _grid_1d()
    f = _bump(grid, center=2.5)
    g = _bump(grid, center=4.0, sharp=1.5)
    left = semigroup_apply(ORDER, f, 0.4).inner(g)
    right = f.inner(semigroup_apply(ORDER, g, 0.4))
    assert abs(left - right) < 1e-8


def test_semigroup_domain_errors():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    f = _bump(grid, center=2.0)
    with pytest.raises(ValueError):
        semigroup_apply(ORDER, f, -0.1)
    with pytest.raises(ValueError):
        semigroup_apply(ORDER, f, 0.0, method="kernel")
    with pytest.raises(ValueError):
        semigroup_apply(ORDER, f, 0.5, method="cheat")


def _axis_grid(boxes, counts):
    # unit-width boxes or less: one Gauss-Legendre panel of exactly `count` nodes
    return Grid(tuple(gauss_legendre_axis(lo, hi, nodes_per_unit=1, min_nodes=count)
                      for (lo, hi), count in zip(boxes, counts)))


def _dense_kernel_apply(order, t, f, target):
    x, y = target.points(), f.grid.points()
    kmat = kernel_nd(order, t, x[:, None, :], y[None, :, :])
    return (kmat @ (f.values * f.grid.weights_nd()).ravel()).reshape(target.shape)


@pytest.mark.parametrize(
    "nu, src_boxes, src_counts, eval_boxes, eval_counts",
    [
        ((-0.5, 1.0), [(0.5, 1.5), (0.3, 1.2)], (7, 9), [(0.6, 1.3), (0.4, 1.0)], (4, 6)),
        (
            (0.5, -0.5, 1.3),
            [(0.5, 1.5), (0.3, 1.2), (0.6, 1.4)],
            (7, 9, 5),
            [(0.6, 1.3), (0.4, 1.0), (0.5, 1.5)],
            (4, 6, 3),
        ),
    ],
    ids=["2d", "3d"],
)
def test_kernel_routes_match_dense_product_kernel(
    nu, src_boxes, src_counts, eval_boxes, eval_counts
):
    order = MultiOrder(nu)
    src = _axis_grid(src_boxes, src_counts)
    target = _axis_grid(eval_boxes, eval_counts)
    assert src.shape == src_counts and target.shape == eval_counts
    f = GridFunction(src, np.random.default_rng(5).uniform(0.5, 1.5, src.shape))

    def rel_err(got, ref):
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    got = semigroup_apply(order, f, 0.3, method="kernel", eval_grid=target).values
    assert rel_err(got, _dense_kernel_apply(order, 0.3, f, target)) <= 1e-13
    times = np.array([0.2, 0.5, 1.0])
    ref = np.max([np.abs(_dense_kernel_apply(order, t * t, f, target)) for t in times], axis=0)
    got = maximal_function(order, f, t_grid=times, eval_grid=target).values
    assert rel_err(got, ref) <= 1e-13

    # a grid with one axis fewer than the order must not be zipped short
    short = _axis_grid(eval_boxes[:-1], eval_counts[:-1])
    f_short = GridFunction(short, np.ones(short.shape))
    for source, grid in ((f, short), (f_short, target)):
        with pytest.raises(ValueError, match="grid dimension does not match the order"):
            semigroup_apply(order, source, 0.3, method="kernel", eval_grid=grid)
        with pytest.raises(ValueError, match="grid dimension does not match the order"):
            maximal_function(order, source, t_grid=times, eval_grid=grid)
        with pytest.raises(ValueError, match="grid dimension does not match the order"):
            square_function(order, source, eval_grid=grid, k_max=4)


_KERNEL_MATRIX_NUS = [-0.5, -0.3, 0.0, 0.5, 1.0, 1.3, 25.5, 80.0]


@pytest.mark.parametrize("nu", _KERNEL_MATRIX_NUS)
@pytest.mark.parametrize(
    "src_nodes, eval_nodes, n_times",
    [
        # 20 x 30 = 600 elements: 27 times per buffer, two blocks of 40 times
        (30, 20, 40),
        # 150 x 130 = 19,500 elements: one time per buffer, tiles of 126 rows
        (130, 150, 9),
    ],
    ids=["time-blocks", "row-tiles"],
)
def test_kernel_matrices_equal_per_time_kernel_bit_for_bit(nu, src_nodes, eval_nodes, n_times):
    from lagsem.grids import QuadAxis
    from lagsem.operators import _kernel_matrices

    def axis(lo, hi, count):
        # the matrices read nodes only
        return Grid((QuadAxis(np.geomspace(lo, hi, count), np.ones(count)),))

    src, target = axis(0.01, 8.0, src_nodes), axis(0.02, 6.0, eval_nodes)
    times = np.geomspace(1e-4, 900.0, n_times)
    drawn = 0
    for t, (mat,) in zip(times, _kernel_matrices(MultiOrder((nu,)), times, src, target)):
        want = kernel_1d_closed(nu, t, target.axes[0].nodes[:, None], src.axes[0].nodes[None, :])
        np.testing.assert_array_equal(mat, want)
        drawn += 1
    assert drawn == n_times


def test_maximal_takes_a_scalar_time_and_refuses_an_empty_ladder():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    f = _bump(grid, center=2.0)
    np.testing.assert_array_equal(
        maximal_function(ORDER, f, t_grid=0.5).values,
        maximal_function(ORDER, f, t_grid=np.array([0.5])).values,
    )
    for bad in ([], np.zeros((0,)), np.full((2, 2), 0.5)):
        with pytest.raises(ValueError, match="t_grid must be one time or a 1-D array"):
            maximal_function(ORDER, f, t_grid=bad)


def test_semigroup_takes_one_time():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    f = _bump(grid, center=2.0)
    for method in ("kernel", "spectral"):
        with pytest.raises(ValueError, match="^semigroup_apply takes one time$"):
            semigroup_apply(ORDER, f, np.array([0.5, 1.0]), method=method)
        np.testing.assert_array_equal(
            semigroup_apply(ORDER, f, np.array([0.5]), method=method).values,
            semigroup_apply(ORDER, f, 0.5, method=method).values,
        )


def test_maximal_eigenfunction_recovers_itself():
    # positive eigenfunction: e^(-t^2 lambda) phi_0 <= phi_0 with sup at the
    # small-t end, so M phi_0 = phi_0 up to the grid-resolution damping
    grid = _grid_1d()
    phi0 = _phi(0.5, 0, grid.points().ravel())
    m = maximal_function(ORDER, GridFunction(grid, phi0))
    ratio = m.values / phi0
    assert np.all(ratio <= 1.0 + 1e-9)
    assert np.all(ratio >= 0.9)
    assert m.norm_l2() / GridFunction(grid, phi0).norm_l2() > 0.97


def test_maximal_sign_invariance():
    grid = _grid_1d()
    f = _bump(grid)
    neg = GridFunction(grid, -f.values)
    assert np.array_equal(maximal_function(ORDER, f).values, maximal_function(ORDER, neg).values)


def test_maximal_norm_stable_under_time_refinement():
    grid = _grid_1d()
    f = _bump(grid)
    h = max(float(np.diff(ax.nodes).max()) for ax in grid.axes)
    coarse = maximal_function(ORDER, f, t_grid=np.geomspace(2.0 * h, 30.0, 48))
    fine = maximal_function(ORDER, f, t_grid=np.geomspace(2.0 * h, 30.0, 96))
    for p in (1.0, 2.0):
        a, b = coarse.norm_lp(p), fine.norm_lp(p)
        assert abs(a - b) / b < 0.01


def test_maximal_rejects_nonpositive_times():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    with pytest.raises(ValueError):
        maximal_function(ORDER, _bump(grid, center=2.0), t_grid=[0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_maximal_refuses_nan_and_infinite_times(bad):
    # refused at the t_grid check, under the time rule's own message, not
    # deep inside kernel_1d_closed
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    with pytest.raises(ValueError, match=r"time must lie in \(0, inf\)"):
        maximal_function(ORDER, _bump(grid, center=2.0), t_grid=[0.1, bad])


def _maximal_full_loop(order, f, t_grid, eval_grid=None):
    # maximal_function before its eigen-sum pass: every time's closed-form
    # matrices, contracted and maxed
    from lagsem.operators import _kernel_matrices, _per_axis

    target = eval_grid if eval_grid is not None else f.grid
    arr = f.values * f.grid.weights_nd()
    best = np.zeros(target.shape)
    for mats in _kernel_matrices(order, np.asarray(t_grid) ** 2, f.grid, target):
        np.maximum(best, np.abs(_per_axis(mats, arr)), out=best)
    return best


def _seeded_bumps(order, grid, seed):
    # three seeded Gaussian bumps times x^(nu + 1/2) per axis, as the
    # grid-operators benchmark draws its inputs
    rng = np.random.default_rng(seed)
    pts = grid.points()
    vals = np.zeros(pts.shape[0])
    for _ in range(3):
        amp = rng.uniform(-1.0, 1.0)
        center = rng.uniform(1.0, 2.5, size=order.n)
        width = rng.uniform(0.35, 0.6)
        vals += amp * np.exp(-np.sum((pts - center) ** 2, axis=-1) / (2.0 * width * width))
    for j, nu in enumerate(order.nu):
        vals *= pts[:, j] ** (nu + 0.5)
    return GridFunction(grid, vals.reshape(grid.shape))


def _bench_d1(seed):
    # the 384-node 1-D grid and 16-time ladder of the grid-operators benchmark
    axis = gauss_legendre_axis(0.0, 12.0, nodes_per_unit=32, min_nodes=32)
    grid = Grid((axis,))
    h = float(np.diff(axis.nodes).max())
    return ORDER, _seeded_bumps(ORDER, grid, seed), np.geomspace(2.0 * h, 30.0, 16)


def _ladder_grid(n_nodes, n_times, hi=12.0, seed=5):
    # n_nodes Gauss-Legendre nodes in unit panels on [0, hi], seeded bumps
    # and the benchmark's ladder of n_times from twice the node spacing to 30
    per_unit = round(n_nodes / hi)
    axis = gauss_legendre_axis(0.0, hi, nodes_per_unit=per_unit, min_nodes=per_unit)
    assert axis.nodes.size == n_nodes
    grid = Grid((axis,))
    h = float(np.diff(axis.nodes).max())
    return _seeded_bumps(ORDER, grid, seed), np.geomspace(2.0 * h, 30.0, n_times)


# (nodes per axis, times) just below and just above 2^18 kernel elements:
# 360^2 x 2 and 252^2 x 4 below, 384^2 x 2 and 132^2 x 16 above
_RULE_EDGE = {(360, 2): False, (252, 4): False, (384, 2): True, (132, 16): True}


def test_maximal_prunes_on_large_grids_only():
    from lagsem.operators import _PRUNE_ELEMENTS, _prunes

    def rule(order, grid, n_times, target=None):
        return _prunes(MultiOrder(order), np.ones(n_times), grid, target or grid)

    d1 = _bench_d1(1)[1].grid
    assert rule((0.5,), d1, 16) and rule((0.5,), _grid_1d(), 48)
    for (n_nodes, n_times), prunes in _RULE_EDGE.items():
        assert (n_times * n_nodes**2 >= _PRUNE_ELEMENTS) == prunes
        assert rule((0.5,), _ladder_grid(n_nodes, n_times)[0].grid, n_times) == prunes
    # one time has nothing to skip, however large its matrix; 256 x 256
    # nodes at 2 times are below the rule
    assert not rule((0.5,), _ladder_grid(600, 1)[0].grid, 1)
    assert not rule((0.5,), _ladder_grid(256, 2, hi=8.0)[0].grid, 2)
    # atoms: 48 source nodes and 40 times against 96 evaluation nodes stay
    # on the full loop, against 192 or 288 they prune
    atom = _axis_grid([(0.5, 1.5)], (48,))
    assert not rule((0.5,), atom, 40, _axis_grid([(0.2, 1.0)], (96,)))
    assert rule((0.5,), atom, 40, _axis_grid([(0.2, 1.0)], (192,)))
    assert rule((0.5,), atom, 40, _axis_grid([(0.2, 1.0)], (288,)))
    # the 2-D and 3-D benchmark grids, a 2-D grid whose axis matrices are
    # as large as d1's, and a grid past the tables' range
    for nu, hi, per_unit in (((0.5, 1.0), 6.0, 4), ((0.5, 1.0, 0.0), 4.0, 2), ((0.5, 1.0), 12.0, 32)):
        axis = gauss_legendre_axis(0.0, hi, nodes_per_unit=per_unit, min_nodes=per_unit)
        assert not rule(nu, Grid((axis,) * len(nu)), 48)
    assert not rule((0.5,), Grid.box((0.0,), (40.0,), nodes_per_unit=16), 48)
    assert not rule((200.0,), d1, 16)


@pytest.mark.parametrize("n_nodes, n_times", list(_RULE_EDGE))
def test_maximal_equals_full_loop_on_each_side_of_the_rule(n_nodes, n_times):
    f, ladder = _ladder_grid(n_nodes, n_times)
    np.testing.assert_array_equal(maximal_function(ORDER, f, t_grid=ladder).values,
                                  _maximal_full_loop(ORDER, f, ladder))


@pytest.mark.parametrize("seed, n_eval, prunes", [(1043323488, 96, False), (908297868, 192, True),
                                                  (1543657889, 288, True)])
def test_hardy_norm_atoms_equal_the_full_loop(monkeypatch, seed, n_eval, prunes):
    # grid-operators atoms (order 1/2, p = 0.9) with 96, 192 and 288
    # evaluation nodes, through hardy_norm_maximal and its atom defaults
    from lagsem import hardy, random_atom
    from lagsem.operators import _prunes

    calls = []

    def spy(order, f, t_grid, eval_grid):
        calls.append((order, f, t_grid, eval_grid, maximal_function(order, f, t_grid=t_grid, eval_grid=eval_grid)))
        return calls[-1][-1]

    monkeypatch.setattr(hardy, "maximal_function", spy)
    value = hardy.hardy_norm_maximal(ORDER, random_atom(ORDER, 0.9, seed=seed), 0.9).value
    ((order, f, ladder, ev, mf),) = calls
    assert ev.shape == (n_eval,) and f.grid.shape == (48,) and ladder.size == 40
    assert _prunes(order, ladder**2, f.grid, ev) == prunes
    full = _maximal_full_loop(order, f, ladder, ev)
    np.testing.assert_array_equal(mf.values, full)
    assert value == GridFunction(ev, full).norm_lp(0.9)


@pytest.mark.parametrize("support", [0.0, 3.0])
def test_pruned_maximal_of_data_without_mass_on_blocks(support):
    # f = 0, and f = 0 beyond x = support, on the 384-node benchmark grid
    # with the default ladder: the majorant's blocks of no mass, whose
    # bound is +inf at the last times, add nothing rather than NaN
    from lagsem.operators import _prunes, default_time_ladder

    grid = _bench_d1(1)[1].grid
    x = grid.points().ravel()
    f = GridFunction(grid, np.where(x < support, np.exp(-2.0 * (x - 2.0) ** 2), 0.0))
    ladder = default_time_ladder(grid)
    assert _prunes(ORDER, ladder**2, grid, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pruned = maximal_function(ORDER, f, t_grid=ladder).values
    np.testing.assert_array_equal(pruned, _maximal_full_loop(ORDER, f, ladder))


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_pruned_maximal_equals_full_loop_on_benchmark_inputs(seed):
    order, f, ladder = _bench_d1(seed)
    np.testing.assert_array_equal(maximal_function(order, f, t_grid=ladder).values,
                                  _maximal_full_loop(order, f, ladder))


@pytest.mark.parametrize("nu", [-0.5, 0.0, 1.3, 25.5])
def test_pruned_maximal_equals_full_loop_on_the_fine_grid(nu):
    # the 576-node grid of the maximal tests, on phi_0 and on a bump; every
    # 4th time of the default ladder, and for order 25.5 eight times in
    # [0.3, 3], where its Bessel factors are not in their slow range
    from lagsem.operators import default_time_ladder

    order = MultiOrder((nu,))
    grid = _grid_1d()
    x = grid.points().ravel()
    ladder = default_time_ladder(grid)[::4] if nu < 25.0 else np.geomspace(0.3, 3.0, 8)
    for values in (_phi(nu, 0, x), np.exp(-2.0 * (x - 3.0) ** 2) * x ** (nu + 0.5)):
        f = GridFunction(grid, values)
        np.testing.assert_array_equal(maximal_function(order, f, t_grid=ladder).values,
                                      _maximal_full_loop(order, f, ladder))


def test_maximal_keeps_the_full_loop_in_two_dimensions():
    # 256 x 256 nodes: each axis matrix has 2^16 entries, as many as the
    # 1-D rule asks, but n-D grids take the full loop; with an evaluation
    # grid of its own as well
    from lagsem.operators import _prunes

    order = MultiOrder((0.5, 1.0))
    axis = gauss_legendre_axis(0.0, 8.0, nodes_per_unit=32, min_nodes=32)
    grid = Grid((axis, axis))
    f = _seeded_bumps(order, grid, 3)
    ladder = np.geomspace(0.1, 30.0, 8)
    target = Grid((gauss_legendre_axis(0.5, 6.0, nodes_per_unit=48), axis))
    for ev in (grid, target):
        assert not _prunes(order, ladder**2, grid, ev)
        np.testing.assert_array_equal(maximal_function(order, f, t_grid=ladder, eval_grid=ev).values,
                                      _maximal_full_loop(order, f, ladder, ev))


def test_pruned_maximal_draws_fewer_kernel_rows(monkeypatch):
    from lagsem import heat

    drawn = []
    kernel = heat._kernel_1d

    def spy(nus, factors, x, y):
        drawn.append(np.broadcast_shapes(factors[0].shape, np.shape(x), np.shape(y)))
        return kernel(nus, factors, x, y)

    monkeypatch.setattr(heat, "_kernel_1d", spy)
    order, f, ladder = _bench_d1(5)
    pruned = maximal_function(order, f, t_grid=ladder).values
    n_pruned = sum(math.prod(s) for s in drawn)
    rows = sum(math.prod(s[:-1]) for s in drawn if s[-1] == f.values.size)
    drawn.clear()
    full = _maximal_full_loop(order, f, ladder)
    n_full = sum(math.prod(s) for s in drawn)
    np.testing.assert_array_equal(pruned, full)
    # every closed-form value the pass and the rows take, diagonals
    # included, against the full matrices: 9% when this was written, and
    # 8% of the (time, row) pairs
    assert n_full == ladder.size * f.values.size**2
    assert n_pruned < 0.2 * n_full
    assert rows < 0.15 * ladder.size * f.values.size


def test_operators_sees_no_heat_internals():
    # operators asks heat for kernel bounds by point and time; heat's time
    # factors, exponents, kernel bounds, pair-row layout and error
    # constants, and the tables' error model, stay behind heat
    import ast
    from pathlib import Path

    from lagsem import operators

    hidden = {
        "heat": {"_time_factors", "_exponents", "_log_kernel_bound", "_kernel_1d", "_block_majorant",
                 "_diagonal_bounds", "_tail_bound", "_envelope", "_pair_rows", "_row_products",
                 "_CLOSED_REL", "_FLOOR", "_UNIT", "_BLOCK"},
        "special": {"_TABLE_REL", "MAX_DEGREE"},
    }
    seen = set()
    for node in ast.walk(ast.parse(Path(operators.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            seen |= {(node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            seen.add((node.value.id, node.attr))
    assert not {(module, name) for module, name in seen if name in hidden.get(module, ())}


def _mp_kernel(nu, s, x, y):
    # the 1-D heat kernel at 40 digits
    import mpmath as mp

    r = mp.exp(-4 * mp.mpf(s))
    xy = mp.mpf(x) * mp.mpf(y)
    return (2 * mp.sqrt(r * xy) / (1 - r) * mp.exp(-(1 + r) * (mp.mpf(x) ** 2 + mp.mpf(y) ** 2) / (2 * (1 - r)))
            * mp.besseli(nu, 2 * mp.sqrt(r) * xy / (1 - r)))


@pytest.mark.parametrize("nu", [0.5, -0.5, 1.3])
def test_value_bounds_hold_against_mpmath(nu):
    # the lower and upper bounds of maximal_function's pass, called
    # directly on a small grid, against the values sum_y p_s(x, y) f(y) w(y)
    # at 40 digits and against the closed form; the times put pairs on
    # both sides of the prune switch (bounds that separate from the
    # maximum and bounds that do not) and of the halving that sets the
    # tail bound
    import mpmath as mp

    from lagsem.heat import _diagonal_bounds, _value_bounds
    from lagsem.operators import _kernel_matrices, _per_axis

    order = MultiOrder((nu,))
    # 12 nodes on [0.05, 4]
    grid = Grid((gauss_legendre_axis(0.05, 4.0, nodes_per_unit=3, min_nodes=3),))
    nodes = grid.axes[0].nodes
    f = _seeded_bumps(order, grid, 7)
    arr = f.values * grid.weights_nd()
    times = np.array([0.004, 0.02, 0.06, 0.2, 0.7, 3.0])
    lower, upper = _value_bounds(order, times, nodes, nodes, arr)
    with mp.workdps(40):
        exact = np.array([[float(abs(mp.fsum(_mp_kernel(nu, s, x, y) * mp.mpf(float(g)) for y, g in zip(nodes, arr))))
                           for x in nodes] for s in times])
    assert np.all((lower <= exact) & (exact <= upper))
    closed = np.array([np.abs(_per_axis(m, arr)) for m in _kernel_matrices(order, times, grid, grid)])
    assert np.all((lower <= closed) & (closed <= upper))
    # the prune switch: some pairs certified below the largest lower bound,
    # some not
    below = upper < np.max(lower, axis=0)
    assert below.any() and not below.all()
    # the halving s/2^j that sets the tail bound (heat._tail_bound) differs
    # between the times
    diag = _diagonal_bounds(nu, times, nodes)
    gap = np.multiply.outer(1.0 - 0.5 ** np.arange(len(diag)), times) * (4.0 * 201 + 2.0 * nu + 2.0)
    halving = np.argmin(np.exp(-gap)[..., None] * diag, axis=0)
    assert len(np.unique(halving)) > 1


def test_time_rule_names_its_interval_in_every_caller():
    # heat kernels take t in (0, inf] (inf is their t -> inf limit, 0), the
    # semigroup and the composite Riesz kernel [0, inf), the maximal
    # function's time grid (0, inf); NaN is refused everywhere
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    f = _bump(grid, center=2.0)
    callers = {
        r"\(0, inf\]": (
            lambda t: kernel_1d_closed(0.5, t, 1.0, 1.5),
            lambda t: delta_kernel_1d(0.5, 2, np.array([0.5, t]), 1.0, 1.5),
            lambda t: kernel_spectral(ORDER, t, 1.0, 1.5, 10),
        ),
        r"\[0, inf\)": (
            lambda t: semigroup_apply(ORDER, f, t),
            lambda t: riesz_heat_composite_kernel(ORDER, (1,), t, 0.7, 1.5),
            lambda t: riesz_heat_composite_kernel(ORDER, (1,), np.array([0.1, t]), _X1[:2], _Y1[:2]),
        ),
        r"\(0, inf\)": (lambda t: maximal_function(ORDER, f, t_grid=[0.1, t]),),
    }
    refused = {
        r"\(0, inf\]": (0.0, -1.0, math.nan, -math.inf),
        r"\[0, inf\)": (-1e-300, math.nan, math.inf),
        r"\(0, inf\)": (0.0, math.nan, math.inf),
    }
    for interval, calls in callers.items():
        for call in calls:
            for t in refused[interval]:
                with pytest.raises(ValueError, match=r"^time must lie in " + interval + "$"):
                    call(t)
    assert kernel_1d_closed(0.5, math.inf, 1.0, 1.5) == 0.0
    assert kernel_spectral(ORDER, math.inf, 1.0, 1.5, 10) == 0.0
    assert riesz_heat_composite_kernel(ORDER, (1,), 0.0, 0.7, 1.5) == riesz_kernel(ORDER, (1,), 0.7, 1.5)


def test_square_function_of_zero():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    z = GridFunction(grid, np.zeros(grid.shape))
    assert np.all(square_function(ORDER, z).values == 0.0)


def test_square_function_homogeneity():
    grid = _grid_1d(nodes_per_unit=24)
    f = _bump(grid)
    doubled = GridFunction(grid, 2.0 * f.values)
    a = square_function(ORDER, f)
    b = square_function(ORDER, doubled)
    assert np.max(np.abs(b.values - 2.0 * a.values)) < 1e-12


def test_square_function_l2_constant_across_profiles():
    # vertical Plancherel: int (t^2 lam e^(-t^2 lam))^2 dt/t = 1/8 for every
    # eigenvalue, so ||Sf||_2 / ||f||_2 is one constant for all f
    grid = _grid_1d()
    ratios = []
    for center, sharp in ((2.0, 2.0), (3.0, 2.0), (4.5, 1.5)):
        f = _bump(grid, center=center, sharp=sharp)
        ratios.append(square_function(ORDER, f).norm_l2() / f.norm_l2())
    for r in ratios:
        assert 0.45 < r < 0.55
    assert max(ratios) / min(ratios) < 1.1


def test_square_function_peak_memory_is_two_distance_matrices():
    # squared distances are summed one axis at a time in a scratch matrix
    # that later holds each level's cone indicator: two (N, M) float arrays,
    # where an (N, M, n) difference array takes three
    grid = Grid.box((0.5, 0.5), (3.5, 3.5), nodes_per_unit=8, min_nodes=4)
    pts = grid.points()
    f = GridFunction(grid, np.exp(-np.sum((pts - 2.0) ** 2, axis=1)).reshape(grid.shape))
    tracemalloc.start()
    try:
        square_function(MultiOrder((0.5, 1.0)), f, n_levels=4, k_max=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * pts.shape[0] ** 2 * 8


def test_square_function_cone_validation():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    with pytest.raises(ValueError):
        square_function(ORDER, _bump(grid, center=2.0), t_lo=2.0, t_hi=1.0)


_CONE_RANGE = "cone truncation needs 0 < t_lo < t_hi < inf"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_levels": 1}, "the cone needs n_levels >= 2"),
        ({"n_levels": 0}, "the cone needs n_levels >= 2"),
        ({"t_hi": math.inf}, _CONE_RANGE),
        ({"t_hi": math.nan}, _CONE_RANGE),
        ({"t_lo": math.nan}, _CONE_RANGE),
        ({"t_lo": -math.inf}, _CONE_RANGE),
    ],
    ids=["one-level", "no-level", "inf-t_hi", "nan-t_hi", "nan-t_lo", "minus-inf-t_lo"],
)
def test_square_function_refuses_degenerate_cone(kwargs, message):
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    with pytest.raises(ValueError, match=message):
        square_function(ORDER, _bump(grid, center=2.0), k_max=10, **kwargs)


def _square_function_per_level(order, f, eval_grid, n_levels, k_max):
    """square_function with one analysis and one synthesis per cone level."""
    target = eval_grid if eval_grid is not None else f.grid
    coeffs = analyze(order, f, k_max)
    lam = coeffs.eigenvalues()
    t_lo = 0.03 / math.sqrt(float(lam.max()))
    t_hi = 5.0 / math.sqrt(float(lam.min()))
    levels = np.geomspace(t_lo, t_hi, n_levels)
    dlog = math.log(t_hi / t_lo) / (n_levels - 1)
    w_log = np.full(n_levels, dlog)
    w_log[0] = w_log[-1] = 0.5 * dlog
    xpts, ypts = target.points(), f.grid.points()
    wy = f.grid.weights_nd().ravel()
    d2 = np.zeros((xpts.shape[0], ypts.shape[0]))
    for j in range(order.n):
        d2 += np.subtract.outer(xpts[:, j], ypts[:, j]) ** 2
    acc = np.zeros(xpts.shape[0])
    for t, w in zip(levels, w_log):
        g = synthesize(coeffs.damped(t * t * lam * np.exp(-t * t * lam)), f.grid)
        inner = (d2 < t * t).astype(float) @ (wy * g.values.ravel() ** 2)
        acc += w * t ** (-order.n) * inner
    return np.sqrt(acc).reshape(target.shape)


@pytest.mark.parametrize(
    "nu, other_eval_grid",
    [((0.5,), False), ((0.5,), True), ((-0.5, 1.0), False), ((0.5, 1.0, 0.0), False)],
)
def test_square_function_matches_per_level_synthesis(nu, other_eval_grid):
    order = MultiOrder(nu)
    # 8 nodes per axis, 9 on the evaluation grid's axes
    grid = Grid.box((0.1,) * order.n, (4.0,) * order.n, nodes_per_unit=2, min_nodes=2)
    pts = grid.points()
    f = GridFunction(grid, np.exp(-np.sum((pts - 1.5) ** 2, axis=1)).reshape(grid.shape))
    eval_grid = None
    if other_eval_grid:
        eval_grid = Grid.box((0.3,) * order.n, (3.0,) * order.n, nodes_per_unit=3, min_nodes=3)
    got = square_function(order, f, eval_grid=eval_grid, n_levels=12, k_max=24).values
    assert np.array_equal(got, _square_function_per_level(order, f, eval_grid, 12, k_max=24))


def test_square_function_builds_one_table_per_axis(monkeypatch):
    from lagsem import operators

    calls = []

    def spy(nu, x, k_max):
        calls.append(nu)
        return laguerre_function_table(nu, x, k_max)

    monkeypatch.setattr(operators, "laguerre_function_table", spy)
    order = MultiOrder((0.5, 1.0))
    grid = Grid.box((0.1, 0.1), (4.0, 4.0), nodes_per_unit=2, min_nodes=2)
    square_function(order, GridFunction(grid, np.ones(grid.shape)), n_levels=8, k_max=10)
    assert calls == [0.5, 1.0]


def test_riesz_multiplier_ground_value():
    # one lowering on phi_1 at the Hermite endpoint: -2 sqrt(1) / sqrt(5)
    order = MultiOrder((-0.5,))
    got = riesz_multiplier(order, (1,), (1,))
    assert got == pytest.approx(-2.0 / math.sqrt(5.0), rel=1e-15)
    c = SpectralCoefficients(order, np.array([0.0, 1.0, 0.0]))
    out = riesz_spectral(order, (1,), c)
    assert out.order == MultiOrder((0.5,))
    assert out.coeffs[0] == pytest.approx(-0.89442719099991587856, rel=1e-15)
    assert np.max(np.abs(out.coeffs[1:])) == 0.0


def test_riesz_annihilates_ground_state():
    c = SpectralCoefficients(ORDER, np.array([1.0, 0.0, 0.0]))
    out = riesz_spectral(ORDER, (1,), c)
    assert np.all(out.coeffs == 0.0)


def test_riesz_contraction_on_random_vectors():
    rng = np.random.default_rng(0)
    orders = [ORDER, MultiOrder((-0.5,)), MultiOrder((1.7,))]
    for trial in range(200):
        order = orders[trial % len(orders)]
        c = SpectralCoefficients(order, rng.standard_normal(31))
        for variant in ("single_power", "stepwise"):
            out = riesz_spectral(order, (1,), c, variant=variant)
            assert out.norm_l2() <= c.norm_l2() * (1.0 + 1e-10)


def test_riesz_contraction_two_dimensional():
    rng = np.random.default_rng(1)
    order = MultiOrder((0.5, 1.0))
    for _ in range(30):
        c = SpectralCoefficients(order, rng.standard_normal((16, 16)))
        out = riesz_spectral(order, (1, 1), c)
        assert out.norm_l2() <= c.norm_l2() * (1.0 + 1e-10)
        assert out.order == MultiOrder((1.5, 2.0))


def test_riesz_variants_coincide_for_first_order():
    for m in ((1,), (4,), (9,)):
        a = riesz_multiplier(ORDER, (1,), m, variant="single_power")
        b = riesz_multiplier(ORDER, (1,), m, variant="stepwise")
        assert a == pytest.approx(b, rel=1e-15)


def test_riesz_variant_exact_relation():
    # stepwise / single_power = lambda^(|k|/2) / prod_i sqrt(lambda - 2i)
    for k, m in (((2,), (5,)), ((3,), (4,)), ((2,), (2,))):
        lam = ORDER.eigenvalue(m)
        single = riesz_multiplier(ORDER, k, m, variant="single_power")
        stepwise = riesz_multiplier(ORDER, k, m, variant="stepwise")
        expected = lam ** (sum(k) / 2.0)
        for i in range(sum(k)):
            expected /= math.sqrt(lam - 2.0 * i)
        assert stepwise / single == pytest.approx(expected, rel=1e-12)


_NUS = (-0.5, 0.0, 0.5, 1.3)


@pytest.mark.parametrize("variant", ["single_power", "stepwise"])
@pytest.mark.parametrize("ks, k_max", [
    ([(1,), (2,), (3,), (5,)], 30),
    ([(1, 0), (0, 1), (1, 1), (2, 1)], 12),
    ([(1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 0, 1)], 6),
])
def test_riesz_multiplier_point_table_and_grid_are_equal(ks, k_max, variant):
    # one formula behind the point and the grid view, so they agree to the last bit
    n = len(ks[0])
    for i in range(len(_NUS)):
        order = MultiOrder(tuple(_NUS[(i + j) % len(_NUS)] for j in range(n)))
        ones = SpectralCoefficients(order, np.ones((k_max + 1,) * n))
        for k in ks:
            grid = riesz_spectral(order, k, ones, variant).coeffs
            for m in itertools.product(*[range(kj, k_max + 1) for kj in k]):
                point = riesz_multiplier(order, k, m, variant)
                assert grid[tuple(mj - kj for mj, kj in zip(m, k))] == point, (order, k, m)


def test_eigenvalue_array_matches_multi_index_eigenvalue():
    order = MultiOrder((1.3, -0.5, 0.0))
    lam = eigenvalue_array(order, 5)
    for m in itertools.product(range(6), repeat=3):
        assert lam[m] == order.eigenvalue(m)


def test_riesz_commutes_with_heat_damping():
    # lowering shifts every eigenvalue down by 2|k|, so damping before the
    # transform equals damping after with the shifted spectrum
    rng = np.random.default_rng(7)
    c = SpectralCoefficients(ORDER, rng.standard_normal(31))
    t = 0.37
    left = riesz_spectral(ORDER, (1,), c.damped(np.exp(-t * c.eigenvalues())))
    base = riesz_spectral(ORDER, (1,), c)
    right = base.damped(np.exp(-t * (base.eigenvalues() + 2.0)))
    assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12


def test_riesz_index_validation():
    c = SpectralCoefficients(ORDER, np.ones(4))
    with pytest.raises(ValueError):
        riesz_spectral(ORDER, (0,), c)
    with pytest.raises(ValueError):
        riesz_spectral(ORDER, (-1,), c)
    with pytest.raises(ValueError):
        riesz_spectral(ORDER, (1, 1), c)
    with pytest.raises(ValueError):
        riesz_multiplier(ORDER, (2,), (1,))
    with pytest.raises(ValueError):
        riesz_multiplier(ORDER, (1,), (1,), variant="other")
    # a non-integer or negative index is refused, not truncated to the
    # integer below it
    for call in (
        lambda: riesz_kernel(ORDER, (1.5,), 0.5, 1.0),
        lambda: riesz_multiplier(ORDER, (1,), (3.7,)),
        lambda: riesz_heat_composite_kernel(ORDER, (-1,), 0.1, 0.5, 1.0),
    ):
        with pytest.raises(ValueError, match="each a nonnegative integer"):
            call()
    with pytest.raises(ValueError, match=r"\|k\| >= 1"):
        riesz_kernel(ORDER, (0,), 0.5, 1.0)


def test_riesz_kernels_refuse_points_of_another_dimension():
    order = MultiOrder((0.5, 1.0))
    for call in (
        lambda: riesz_kernel(order, (1, 0), np.ones(3), 2 * np.ones(3)),
        lambda: riesz_kernel(order, (1, 0), np.ones((2, 3)), 2 * np.ones((2, 3))),
        lambda: riesz_kernel(order, (1, 0), 1.0, 2.0),
        lambda: riesz_heat_composite_kernel(order, (1, 0), 0.1, np.ones(2), 2 * np.ones(3)),
        lambda: riesz_kernel(ORDER, (1,), np.ones((3, 2)), 2 * np.ones((3, 2))),
    ):
        with pytest.raises(ValueError, match="point dimension does not match order dimension"):
            call()


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
def test_riesz_kernels_refuse_points_off_the_open_orthant(bad):
    # an infinite distance used to turn the time ladder into NaN, and the
    # call failed on the time rule after numpy's "invalid value" warning
    order2 = MultiOrder((0.5, 1.0))
    calls = (
        lambda: riesz_kernel(ORDER, (1,), [1.0], [bad]),
        lambda: riesz_kernel(ORDER, (1,), np.array([bad, 1.0]), np.array([2.0, 2.0])),
        lambda: riesz_kernel(order2, (1, 0), np.array([[1.0, bad]]), np.array([[2.0, 2.0]])),
        lambda: riesz_heat_composite_kernel(ORDER, (2,), 0.1, [1.0], [bad]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(ValueError, match="space arguments must be strictly positive"):
                call()


def test_riesz_kernel_regression_value():
    # pinned against an independent high-accuracy evaluation of the damped
    # spectral series composed with the t -> 0 limit
    got = riesz_kernel(ORDER, (1,), 0.7, 1.5)
    assert got == pytest.approx(0.1486624971834888, rel=1e-12)


# pair batches at distances 0.5 ... 14, evaluated in one call each
_X1 = np.array([0.3, 0.3, 0.6, 1.0, 0.2, 0.4])
_Y1 = _X1 + np.array([0.5, 1.0, 2.0, 4.0, 8.0, 14.0])
_X2 = np.array([[0.3, 0.5], [0.5, 0.3], [1.0, 1.0], [0.4, 0.9], [0.3, 0.3]])
_Y2 = _X2 + np.array([[0.5, 0.0], [0.0, 1.0], [2.0, 2.0], [6.0, 1.0], [9.0, 9.0]])

# recorded with the v panels doubling up to e * max distance (t up to ~400),
# before they stopped at the spectral-gap cutoff
RIESZ_PINS = [
    (lambda: riesz_kernel(ORDER, (1,), _X1, _Y1), [
        0.14234145617721022, 0.03499721062509956, 0.0051942250475731505,
        1.0327050785499532e-06, 1.4028848261859224e-17, 1.4360088291994872e-47]),
    (lambda: riesz_kernel(ORDER, (2,), _X1, _Y1), [
        0.16611829121470992, 0.08300636914978489, 0.01400562962732568,
        3.605834989501753e-06, 1.2849778330950409e-16, 8.662178836066467e-47]),
    (lambda: riesz_kernel(MultiOrder((0.5, 1.0)), (1, 0), _X2, _Y2), [
        0.2027931647757666, -0.010280126072447852, 2.135452457088193e-05,
        7.671891089297113e-13, 8.889525980588831e-42]),
    (lambda: riesz_heat_composite_kernel(ORDER, (1,), 1e-2, _X1, _Y1), [
        0.18270583070350416, 0.03686881408923072, 0.005278774902031966,
        1.0417677147223782e-06, 1.4105128209604107e-17, 1.4419999422173595e-47]),
    (lambda: riesz_heat_composite_kernel(ORDER, (1,), 1.0, _X1, _Y1), [
        -4.5281024217472336e-05, 1.0794160776340599e-05, 0.0001397907192382419,
        2.276324156468949e-07, 2.2447164903057976e-17, 3.713919047546125e-47]),
    # lam0 t_shift = 60 and 90: the shift already damps the whole integrand,
    # so the time cutoff must not count it
    (lambda: riesz_heat_composite_kernel(ORDER, (1,), 20.0, _X1, _Y1), [
        -7.726107861889397e-63, 1.6408341223694464e-63, 2.516636797539941e-62,
        4.773719614027065e-65, 9.521041921124568e-75, 7.38424854394877e-104]),
    (lambda: riesz_heat_composite_kernel(ORDER, (1,), 30.0, _X1, _Y1), [
        -3.0714753459149915e-93, 6.523053578443491e-94, 1.0004763092158155e-92,
        1.897768237888582e-95, 3.785042359090986e-105, 2.935570892392495e-134]),
    (lambda: riesz_heat_composite_kernel(ORDER, (2,), 20.0, _X1, _Y1), [
        -9.733980954771577e-63, 2.0672566811897514e-63, 1.585332168229689e-62,
        1.8042964182095508e-65, 1.799307796108305e-74, 6.977459023706878e-104]),
    (lambda: riesz_heat_composite_kernel(MultiOrder((0.5, 1.0)), (1, 0), 20.0, _X2, _Y2), [
        -2.1658146162355772e-98, -6.299305240754209e-98, 2.747204613309982e-98,
        6.04000469444321e-104, 4.297884843402885e-131]),
]


@pytest.mark.parametrize("case", range(len(RIESZ_PINS)))
def test_riesz_kernels_pinned_across_distances(case):
    fn, want = RIESZ_PINS[case]
    np.testing.assert_allclose(fn(), want, rtol=1e-13, atol=0.0)


# the short-span pairs of the riesz-composite-limit check: x = 0.7, gaps 0.3 and 1.0
_SHORT_X = np.array([0.7, 0.7])
_SHORT_Y = np.array([1.0, 1.7])


@pytest.mark.parametrize("t_shift", [0.0, 1.0, 25.0])
def test_riesz_time_nodes_stop_at_spectral_gap_cutoff(monkeypatch, t_shift):
    # the v panels double until lam0 v^2 >= 60, whatever the shift and the
    # pair span, so the last one ends below twice the crossing v and no
    # node lies past shift + 4 * 60 / lam0
    from lagsem import operators

    times = []

    def spy(nu, m, t, x, y):
        times.append(float(np.max(t)))
        return delta_kernel_1d(nu, m, t, x, y)

    monkeypatch.setattr(operators, "delta_kernel_1d", spy)
    lam0 = 2.0 * ORDER.total + 2.0 * ORDER.n
    for x, y in ((_X1, _Y1), (_SHORT_X[:1], _SHORT_Y[:1]), (_SHORT_X[1:], _SHORT_Y[1:])):
        times.clear()
        riesz_heat_composite_kernel(ORDER, (1,), t_shift, x, y)
        assert lam0 * (max(times) - t_shift) < 4.0 * 60.0
        assert lam0 * (max(times) - t_shift) > 60.0


# Reference copies of the Riesz time integral and of the n-D pair product
# as they were before each axis factor was evaluated once per distinct
# coordinate row, on blocks of ladder nodes: every 1-D factor on every pair
# (at every node), multiplied in axis order.  The rows and the blocks may
# not change a single bit.


def _frozen_axis_product(t, x, y, factors):
    val = factors[0](t, x[..., 0], y[..., 0])
    for j in range(1, len(factors)):
        val = val * factors[j](t, x[..., j], y[..., j])
    return val


def _frozen_ladder(order, k, d):
    """(s, weight) per node of the v-ladder that every pair of a batch at distances d runs."""
    from lagsem.grids import _leggauss

    lam0 = order.degree_eigenvalue(0)
    bounds = [0.0, max(float(d.min()) / 16.0, 1e-6)]
    while lam0 * bounds[-1] ** 2 < 60.0:
        bounds.append(bounds[-1] * 2.0)
    nodes, weights = _leggauss(16)
    ladder = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        vs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        ladder += [(v * v, w * 2.0 * v ** (sum(k) - 1)) for v, w in zip(vs, ws)]
    return ladder


def _frozen_riesz_time_integral(order, k, x, y, t_shift):
    from lagsem.special import gammaln

    xx = np.asarray(x, dtype=float).reshape(-1, order.n)
    yy = np.asarray(y, dtype=float).reshape(-1, order.n)
    d = np.linalg.norm(xx - yy, axis=-1)
    factors = [functools.partial(delta_kernel_1d, nu, m) for nu, m in zip(order.nu, k)]
    total = np.zeros(d.shape)
    for t, c in _frozen_ladder(order, k, d):
        total += c * _frozen_axis_product(t_shift + t, xx, yy, factors)
    total *= math.exp(-gammaln(sum(k) / 2.0))
    return total


def _riesz_block_cases():
    from lagsem.bounds import _grid_riesz_2d

    lat = _grid_riesz_2d(fast=False)
    order2 = MultiOrder((0.5, 1.0))
    order3 = MultiOrder((0.5, 1.0, 0.0))
    rng = np.random.default_rng(7)
    # per-pair shifts that repeat, on pairs whose rows repeat too
    xs = np.repeat(_X1, 4)
    ys = np.tile(_Y1, 4)
    shifts = rng.choice([0.0, 1e-2, 0.3], size=xs.size)
    x3 = rng.choice([0.4, 0.9, 1.7], size=(40, 3))
    y3 = rng.choice([0.5, 1.1, 2.3], size=(40, 3))
    # 130 * 129 = 16,770 distinct rows, more than _BLOCK: row tiles per node
    pts = np.linspace(0.05, 4.0, 130)
    x1, y1 = np.repeat(pts, pts.size), np.tile(pts, pts.size)
    keep = x1 != y1
    # far pairs, whose Gaussians span hundreds of decades along the ladder:
    # every window start from the first panel to the last few
    xf, yf = np.repeat(np.geomspace(0.05, 30.0, 40), 24), np.tile(np.linspace(0.05, 4.0, 24), 40)
    apart = np.abs(xf - yf) > 1e-3
    xf, yf = xf[apart], yf[apart]
    # one time per pair, near and far pairs mixed: windows differ by pair and by time
    times = rng.choice([0.0, 1e-3, 3e-2, 1.0], size=xf.size)
    # both points far out, where the cross factor exp(-c x y) moves each
    # pair's peak, and high orders, where the Bessel factor (z/2)^nu does
    pb = np.geomspace(0.05, 30.0, 40)
    xb, yb = np.repeat(pb, pb.size), np.tile(pb, pb.size)
    xh, yh = np.exp(rng.uniform(math.log(0.01), math.log(4.0), size=(2, 200, 3)))
    # high orders on far pairs, where the Bessel factor's asymptotes are
    # loosest near z ~ nu on every axis
    xv = np.exp(rng.uniform(math.log(0.05), math.log(30.0), size=(300, 3)))
    yv = rng.uniform(0.05, 4.0, size=(300, 3))
    return {
        "2d-lattice": (order2, (1, 0), lat["x"], lat["y"], 0.0),
        "per-pair-shift": (ORDER, (2,), xs, ys, shifts),
        "one-pair": (ORDER, (1,), np.array([0.7]), np.array([1.0]), 1e-8),
        "3d": (order3, (1, 0, 1), x3, y3, 0.1),
        "1d-rows": (ORDER, (1,), x1[keep], y1[keep], 0.0),
        "far-pairs": (ORDER, (2,), xf, yf, 0.0),
        "per-pair-windows": (ORDER, (1,), xf, yf, times),
        "far-both": (ORDER, (1,), xb[xb != yb], yb[xb != yb], 0.0),
        "high-orders": (MultiOrder((20.0, 20.0, -0.5)), (3, 0, 1), xh, yh, 0.0),
        "high-orders-far": (MultiOrder((40.5, 40.5, 40.5)), (1, 0, 1), xv, yv, 0.0),
    }


@pytest.mark.parametrize("case", ["2d-lattice", "per-pair-shift", "one-pair", "3d", "1d-rows", "far-pairs",
                                  "per-pair-windows", "far-both", "high-orders", "high-orders-far"])
def test_riesz_rows_and_node_blocks_keep_every_bit(case):
    order, k, x, y, t_shift = _riesz_block_cases()[case]
    want = _frozen_riesz_time_integral(order, k, x, y, t_shift)
    if np.ndim(t_shift) == 0 and t_shift == 0.0:
        np.testing.assert_array_equal(riesz_kernel(order, k, x, y), want)
    np.testing.assert_array_equal(riesz_heat_composite_kernel(order, k, t_shift, x, y), want)


@pytest.mark.parametrize("case", ["1d-rows", "far-pairs", "per-pair-windows", "far-both", "high-orders-far"])
def test_riesz_window_cases_start_at_several_panels(monkeypatch, case):
    # the exactness of these cases above covers pairs that skip panels
    from lagsem import heat

    first_panels, firsts = heat._first_panels, []

    def spy(*args):
        firsts.append(first_panels(*args))
        return firsts[-1]

    monkeypatch.setattr(heat, "_first_panels", spy)
    order, k, x, y, t_shift = _riesz_block_cases()[case]
    riesz_heat_composite_kernel(order, k, t_shift, x, y)
    assert np.unique(firsts[0]).size >= 3


@pytest.mark.parametrize("case", ["far-pairs", "per-pair-windows", "far-both", "high-orders", "high-orders-far"])
def test_riesz_windows_skip_only_kernel_values_far_below_the_largest(monkeypatch, case):
    # at the upper end of every skipped panel the pair's heat kernel lies
    # at least _WINDOW_EXPONENT below its largest value at the panel ends;
    # a threshold taken from the bound's own maximum fails this at orders
    # 40.5, where the bound overstates the kernel near z ~ nu
    from lagsem import heat

    first_panels, seen = heat._first_panels, []

    def spy(nus, t, rows, pair_row, bounds):
        seen.append((bounds, first_panels(nus, t, rows, pair_row, bounds)))
        return seen[-1][1]

    monkeypatch.setattr(heat, "_first_panels", spy)
    order, k, x, y, t_shift = _riesz_block_cases()[case]
    riesz_heat_composite_kernel(order, k, t_shift, x, y)
    (bounds, first), = seen
    x, y = (np.reshape(a, (-1, order.n)) for a in (x, y))
    ends = np.broadcast_to(t_shift, first.shape) + np.square(bounds[1:, None])
    with np.errstate(divide="ignore"):
        log_kernel = sum(np.log(kernel_1d_closed(nu, ends, x[:, j], y[:, j])) for j, nu in enumerate(order.nu))
    skipped = np.arange(len(bounds) - 1)[:, None] < first
    assert skipped.any()
    gap = log_kernel.max(axis=0) - np.where(skipped, log_kernel, -np.inf).max(axis=0)
    assert np.all(gap[first > 0] >= heat._WINDOW_EXPONENT)


def test_riesz_pair_alone_stays_within_the_stated_spread_of_its_batch_value():
    # the ladder starts at the batch's d_min / 16, so a pair evaluated alone
    # takes other nodes; riesz_kernel states the spread on the 10,100
    # riesz-size pairs, largest at the first two pairs below
    from lagsem.bounds import _grid_riesz_1d

    s = _grid_riesz_1d(fast=False)
    x, y = s["x"], s["y"]
    worst = [np.flatnonzero(np.isclose(x, a) & np.isclose(y, b))[0] for a, b in ((2.9335, 2.894), (4.0, 3.9605))]
    pick = np.array([*worst, *range(0, x.size, 97)])
    for k, rel in (((1,), 1e-14), ((2,), None)):
        batch = riesz_kernel(ORDER, k, x, y)[pick]
        alone = np.array([riesz_kernel(ORDER, k, a, b) for a, b in zip(x[pick], y[pick])])
        spread = np.abs(alone - batch)
        assert np.all(spread * np.abs(x[pick] - y[pick]) <= 1e-12), k
        if rel is not None:
            assert np.all(spread <= rel * np.abs(batch)), k


def _frozen_first_panels(nus, t, rows, pair_row, bounds):
    # heat._first_panels as one chunk: a (far pairs, panels) array at once
    from lagsem.heat import _WINDOW_EXPONENT, _exponents, _kernel_1d, _log_kernel_bound, _time_factors

    ends = np.square(bounds[1:, None])
    axes = [(nu, t_col[0] if t_col else t, x_row, y_row, at)
            for nu, (*t_col, x_row, y_row), at in zip(nus, rows, pair_row)]
    rise = 0.0
    for _, t_row, x_row, y_row, at in axes:
        gauss, _ = _exponents(_time_factors(ends[[0, -1]] + t_row), x_row - y_row, x_row, y_row)
        rise = rise + np.take(gauss[1] - gauss[0], at)
    first = np.zeros(pair_row[0].size, dtype=int)
    far = np.flatnonzero(rise >= _WINDOW_EXPONENT)
    if not far.size:
        return first
    bound, drawn = np.zeros((far.size, len(bounds) - 1)), []
    for nu, t_row, x_row, y_row, at in axes:
        used = np.zeros(x_row.size, dtype=bool)
        used[at[far]] = True
        at = np.cumsum(used)[at[far]] - 1
        s = ends + (t_row[used] if t_row.ndim else t_row)
        x_row, y_row = x_row[used], y_row[used]
        with np.errstate(divide="ignore"):
            log_xy = np.log(x_row * y_row)
        per_row = _log_kernel_bound(nu, _time_factors(s), x_row - y_row, x_row, y_row, log_xy).T
        per_row[~np.isfinite(per_row).all(axis=1)] = np.inf
        bound += np.take(per_row, at, axis=0)
        drawn.append((nu, np.broadcast_to(s, per_row.shape[::-1]), x_row, y_row, at))
    peak = np.argmax(bound, axis=1)
    value = 0.0
    for nu, s, x_row, y_row, at in drawn:
        need = np.zeros((x_row.size, s.shape[0]), dtype=bool)
        need[at, peak] = True
        row, panel = np.nonzero(need)
        (kernel,) = _kernel_1d((nu,), _time_factors(s[panel, row]), x_row[row], y_row[row])
        log_kernel = np.empty(need.shape)
        with np.errstate(divide="ignore"):
            log_kernel[row, panel] = np.log(kernel)
        value = value + log_kernel[at, peak]
    first[far] = np.argmin(bound < (value - _WINDOW_EXPONENT)[:, None], axis=1)
    return first


@pytest.mark.parametrize("case", ["1d-rows", "2d-lattice", "high-orders-far"])
def test_first_panels_in_chunks_equal_one_chunk(monkeypatch, case):
    # far pairs are estimated _BLOCK // panels at a time, on per-row bounds
    # drawn per chunk (1d-rows) or once (the lattice's 110 rows per axis);
    # every value is elementwise, so the windows are those of one
    # (pairs, panels) array
    from lagsem import heat

    first_panels, far_bounds, checked, chunks = heat._first_panels, heat._far_bounds, [], []

    def spy(*args):
        got = first_panels(*args)
        np.testing.assert_array_equal(got, _frozen_first_panels(*args))
        checked.append(got)
        return got

    def chunk_spy(*args):
        bound = far_bounds(*args)
        assert bound.size <= heat._BLOCK
        chunks.append(bound.shape[0])
        return bound

    monkeypatch.setattr(heat, "_first_panels", spy)
    monkeypatch.setattr(heat, "_far_bounds", chunk_spy)
    order, k, x, y, t_shift = _riesz_block_cases()[case]
    riesz_kernel(order, k, x, y)
    (first,) = checked
    assert (first > 0).any()
    # each chunk is summed twice, for the peaks and for the windows
    if case != "high-orders-far":
        assert len(chunks) > 2


@pytest.mark.parametrize("nu", [-0.5, -0.2, 0.0, 0.3, 0.5, 1.0, 2.5, 40.5])
def test_log_kernel_bound_lies_above_the_kernel_and_peaks_once(nu):
    from lagsem.heat import _log_kernel_bound, _time_factors

    t = np.geomspace(1e-6, 20.0, 200)[:, None]
    pts = np.geomspace(0.01, 30.0, 25)
    x, y = np.repeat(pts, pts.size), np.tile(pts, pts.size)
    bound = _log_kernel_bound(nu, _time_factors(t), x - y, x, y, np.log(x * y))
    with np.errstate(divide="ignore"):
        log_kernel = np.log(kernel_1d_closed(nu, t, x, y))
    assert np.all(np.isfinite(bound))
    # below e^(-690) the kernel's factors reach subnormals, which round coarsely
    normal = log_kernel > -690.0
    assert normal.mean() > 0.5
    assert np.all(log_kernel[normal] <= bound[normal] + 1e-12 * np.abs(bound[normal]))
    # rises, then falls: the sign of its steps changes at most once, from + to -
    falls = np.diff(bound, axis=0) < 0.0
    assert np.all(falls[1:] >= falls[:-1])


@pytest.mark.parametrize("nu", [-0.5, -0.2, 0.0, 0.5, 1.3, 25.5])
def test_block_majorant_lies_above_the_kernel_on_its_block(nu):
    from lagsem.heat import _block_majorant

    t = np.geomspace(1e-4, 500.0, 30)[:, None, None]
    x = np.geomspace(0.01, 20.0, 20)[:, None]
    lo = np.array([0.02, 0.5, 1.0, 3.0, 8.0])
    hi = lo + np.array([0.01, 0.3, 1.0, 0.5, 4.0])
    bound = _block_majorant(nu, t, x - np.clip(x, lo, hi), x * lo, np.log(x * hi))
    ys = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 25)
    kernel = kernel_1d_closed(nu, t[..., None], x[..., None], ys)
    # below e^(-666) the kernel's factors reach subnormals, which round coarsely
    normal = kernel > 1e-290
    assert normal.mean() > 0.3
    assert np.all(np.broadcast_to(bound[..., None], kernel.shape)[normal] >= kernel[normal])
    # not finite only where sqrt(r) = e^(-2t) underflows, and +inf there
    gone = np.exp(-2.0 * t) == 0.0
    assert np.all(np.isinf(bound[np.broadcast_to(gone, bound.shape)]))
    assert np.all(np.isfinite(bound[~np.broadcast_to(gone, bound.shape)]))


def test_riesz_windows_skip_the_panels_far_pairs_cannot_use(monkeypatch):
    # on the 10,100 pairs of the riesz-size family the 1-D factors see
    # under 3/4 of the elements of every pair on the whole ladder
    from lagsem import heat
    from lagsem.bounds import _grid_riesz_1d

    kernel_1d, elements = heat._kernel_1d, []

    def spy(nus, factors, x, y):
        elements.append(math.prod(np.broadcast_shapes(factors[0].shape, x.shape, y.shape)))
        return kernel_1d(nus, factors, x, y)

    monkeypatch.setattr(heat, "_kernel_1d", spy)
    samples = _grid_riesz_1d(fast=False)
    x, y = samples["x"], samples["y"]
    assert x.size == 10_100
    riesz_kernel(ORDER, (1,), x, y)
    full = x.size * len(_frozen_ladder(ORDER, (1,), np.abs(x - y)))
    assert sum(elements) < 0.75 * full


def _pair_product_cases():
    """Per case, an order, a time and two point arrays."""
    from lagsem.bounds import _grid_2d

    g2 = _grid_2d(fast=False)
    rng = np.random.default_rng(11)
    order2 = MultiOrder((0.5, 1.0))
    return {
        "2d-grid": (order2, g2["t"], g2["x"], g2["y"]),
        "3d-scalar-t": (MultiOrder((0.5, 1.0, 0.0)), 0.3,
                        rng.choice([0.4, 0.9, 1.7], size=(30, 3)), rng.choice([0.5, 1.1, 2.3], size=(30, 3))),
        "broadcast": (order2, rng.uniform(0.05, 1.0, size=(4, 1)),
                      rng.uniform(0.3, 2.5, size=(4, 1, 2)), rng.uniform(0.3, 2.5, size=(1, 5, 2))),
        "1d-flat": (ORDER, np.geomspace(0.01, 3.0, 40), rng.uniform(0.1, 3.0, 40), rng.uniform(0.1, 3.0, 40)),
        "one-pair": (order2, 0.4, np.array([0.7, 1.3]), np.array([1.1, 0.9])),
        "empty": (order2, 0.4, np.empty((0, 2)), np.empty((0, 2))),
    }


def _pair_product_calls(order):
    """Per name, a call (t, x, y) through the pair product and the factor lists its frozen value sums."""
    n, nu = order.n, order.nu
    first = (1,) + (0,) * (n - 1)
    last = (0,) * (n - 1) + (1,)

    def factors(fn, *indices):
        return [functools.partial(fn, *a) for a in zip(nu, *indices)]

    adjoint = [factors(shifted_adjoint_kernel_1d, [int(ax == which) for ax in range(n)], (0,) * n, (2,) * n)
               for which in range(n)]
    return {
        "kernel_nd": (lambda t, x, y: kernel_nd(order, t, x, y), [factors(kernel_1d_closed)]),
        "delta_kernel": (lambda t, x, y: delta_kernel(order, (1,) * n, t, x, y),
                         [factors(delta_kernel_1d, (1,) * n)]),
        "product-delta": (product_delta_family(order, first).lhs, [factors(delta_kernel_1d, first)]),
        "product-partial": (product_partial_family(order, first, last).lhs,
                            [factors(partial_delta_kernel_1d, first, last)]),
        "product-adjoint-m0": (product_adjoint_family(order, 0, first, first).lhs,
                               [factors(shifted_adjoint_kernel_1d, (0,) * n, first, first)]),
        "product-adjoint-m1": (product_adjoint_family(order, 1, (0,) * n, (2,) * n).lhs, adjoint),
    }


@pytest.mark.parametrize("case", ["2d-grid", "3d-scalar-t", "broadcast", "1d-flat", "one-pair", "empty"])
def test_pair_product_keeps_every_bit_of_the_per_pair_axis_loop(case):
    order, t, x, y = _pair_product_cases()[case]
    # the frozen loop reads 1-D flat coordinates as one column
    xp, yp = (a[:, None] if order.n == 1 else a for a in (x, y))
    for name, (call, factor_lists) in _pair_product_calls(order).items():
        got = call(t, x, y)
        terms = [_frozen_axis_product(t, xp, yp, f) for f in factor_lists]
        want = terms[0] if len(terms) == 1 else sum(terms)
        assert type(got) is type(want), name
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_product_families_draw_each_axis_factor_once_per_distinct_row(monkeypatch):
    # the 2-D sample set pairs 8 times with 49 x 49 points, 19,208 pairs, but
    # an axis has only 8 x 7 x 7 = 392 distinct rows (t, x_j, y_j)
    from lagsem import heat
    from lagsem.bounds import standard_bound_suite

    kernel_1d, rows = heat._kernel_1d, []

    def spy(nus, factors, x, y):
        rows.append(np.broadcast_shapes(x.shape, y.shape)[-1])
        return kernel_1d(nus, factors, x, y)

    monkeypatch.setattr(heat, "_kernel_1d", spy)
    tasks = [task for task in standard_bound_suite() if task.family.family_id.startswith("product")]
    assert len(tasks) == 7
    for task in tasks:
        task.family.lhs(task.samples["t"], task.samples["x"], task.samples["y"])
    assert rows and set(rows) == {392}


def test_kernel_nd_names_the_time_rule():
    # four times against three point pairs failed with numpy's broadcast text
    x = np.full((3, 2), 0.7)
    with pytest.raises(ValueError, match="time must be a scalar or one time per point pair"):
        kernel_nd(MultiOrder((0.5, 1.0)), np.ones(4), x, x + 0.5)


def _budget_runs(route):
    """Per case name, a call that draws factors through the per-axis walker on one route."""
    if route == "riesz":
        pts = np.linspace(0.05, 4.0, 101)
        xs, ys = np.repeat(pts, pts.size), np.tile(pts, pts.size)
        keep = xs != ys
        cases = _riesz_block_cases()
        cases["1d-wide"] = (ORDER, (1,), xs[keep], ys[keep], 0.0)
        return {name: (lambda c=c: riesz_heat_composite_kernel(c[0], c[1], c[4], c[2], c[3]))
                for name, c in cases.items()}
    times = np.geomspace(0.05, 3.0, 40)
    wide = Grid.box((0.0,), (1000.0,), nodes_per_unit=20)
    cases = {
        # (order, source, target, times)
        "384x384": (ORDER, Grid.box((0.0,), (12.0,), nodes_per_unit=32), None, times[:2]),
        "atom-96x48": (ORDER, _axis_grid([(0.5, 1.5)], (48,)), _axis_grid([(0.2, 1.0)], (96,)), times),
        "2d-24x24": (MultiOrder((0.5, 1.0)), _axis_grid([(0.0, 1.0)] * 2, (24, 24)), None, times),
        "wide-row": (ORDER, wide, _axis_grid([(0.2, 0.8)], (3,)), times[:2]),
    }
    return {name: (lambda c=c: maximal_function(c[0], GridFunction(c[1], np.ones(c[1].shape)),
                                                t_grid=c[3], eval_grid=c[2]))
            for name, c in cases.items()}


# calls per case: 42 rows of 384 per call; 3 times of 96 x 48 per call;
# 28 times of 24 x 24 per call and axis; one 20,000-node row per call; for
# the Riesz cases, as many nodes per call as fit with the rows live at the
# call's last node (the one pair and the per-pair shifts take the whole
# ladder in one call, the 2-D lattice two calls per axis), and row tiles
# past 16,384
_BUDGET_CALLS = {
    "grid": {"384x384": 2 * 10, "atom-96x48": 14, "2d-24x24": 2 * 2, "wide-row": 2 * 3},
    "riesz": {"2d-lattice": 2 * 2, "per-pair-shift": 1, "one-pair": 1, "3d": 3,
              "1d-rows": 235, "1d-wide": 112, "far-pairs": 8, "per-pair-windows": 11,
              "far-both": 11, "high-orders": 6, "high-orders-far": 6},
}


@pytest.mark.parametrize("route", ["grid", "riesz"])
def test_factor_calls_stay_within_their_element_budget(monkeypatch, route):
    # a call of the walker's 1-D factor holds at most _BLOCK elements, unless
    # one row alone has more; a grid row is one target node against every
    # source node, a Riesz row one distinct coordinate row at one node
    from lagsem import heat, operators

    factor = {"grid": kernel_1d_closed, "riesz": delta_kernel_1d}[route]
    calls = []

    def spy(*args):
        out = factor(*args)
        calls.append((out.size, math.prod(out.shape[2:])))
        return out

    # operators draws the full matrices and the Riesz factors, heat the
    # rows of the pruned maximal pass
    for module in (heat, operators):
        monkeypatch.setattr(module, factor.__name__, spy)
    n_calls = {}
    for name, run in _budget_runs(route).items():
        calls.clear()
        run()
        assert all(size <= max(heat._BLOCK, row) for size, row in calls), name
        n_calls[name] = len(calls)
    assert n_calls == _BUDGET_CALLS[route]


@pytest.mark.parametrize("t_shift", [0.0, 1e-8])
@pytest.mark.parametrize("pair", [0, 1], ids=["gap0.3", "gap1.0"])
def test_riesz_ladder_matches_adaptive_quadrature_on_short_spans(pair, t_shift):
    # the v-ladder against adaptive quad of the same t-integral,
    # (1/Gamma(1/2)) int_0^inf t^(-1/2) delta p_(t + shift)(x, y) dt
    x, y = _SHORT_X[pair], _SHORT_Y[pair]
    d2 = (y - x) ** 2

    def integrand(t):
        return t**-0.5 * delta_kernel_1d(0.5, 1, t_shift + t, x, y)

    cuts = [0.0, d2 / 16.0, d2, 1.0, 10.0, np.inf]
    spans = zip(cuts, cuts[1:])
    want = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0] for a, b in spans)
    want /= math.sqrt(math.pi)
    if t_shift == 0.0:
        got = riesz_kernel(ORDER, (1,), x, y)
    else:
        got = riesz_heat_composite_kernel(ORDER, (1,), t_shift, x, y)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_riesz_kernel_rejects_diagonal():
    with pytest.raises(ValueError):
        riesz_kernel(ORDER, (1,), 1.3, 1.3)


def test_riesz_kernels_of_empty_batches_are_empty():
    empty = np.array([])
    for got in (
        riesz_kernel(ORDER, (1,), empty, empty),
        riesz_heat_composite_kernel(ORDER, (1,), 0.1, empty, empty),
    ):
        assert isinstance(got, np.ndarray) and got.shape == (0,)
    rows = np.empty((0, 2))
    assert riesz_kernel(MultiOrder((0.5, 1.0)), (1, 0), rows, rows).shape == (0,)


def test_composite_kernel_reproduces_spectral_action():
    # quadrature-apply the mollified kernel to phi_1; the action must be the
    # damped multiplier -2/sqrt(lam_1) e^(-t lam_1) on phi_0 of the shifted
    # order.  The raw kernel is principal-value singular, so the undamped
    # version admits no plain-quadrature check.
    grid = _grid_1d(nodes_per_unit=96)
    y = grid.points().ravel()
    w = grid.weights_nd().ravel()
    phi1 = _phi(0.5, 1, y)
    lam1 = ORDER.eigenvalue((1,))
    t = 1e-2
    for x in (0.9, 1.7):
        kvals = riesz_heat_composite_kernel(ORDER, (1,), t, np.full_like(y, x), y)
        got = float(np.sum(w * kvals * phi1))
        expected = -2.0 / math.sqrt(lam1) * math.exp(-t * lam1) * float(_phi(1.5, 0, np.asarray(x)))
        assert abs(got - expected) / abs(expected) < 1e-10


def test_composite_kernel_tends_to_riesz_kernel():
    x, y = 0.7, 1.5
    base = riesz_kernel(ORDER, (1,), x, y)
    near = riesz_heat_composite_kernel(ORDER, (1,), 1e-9, x, y)
    assert abs(near - base) / abs(base) < 1e-6


def test_composite_kernel_decays_monotonically_in_time():
    x, y = 0.7, 1.5
    times = (x - y) ** 2 * np.geomspace(1.0, 50.0, 12)
    vals = [abs(riesz_heat_composite_kernel(ORDER, (1,), t, x, y)) for t in times]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_composite_kernel_time_validation():
    with pytest.raises(ValueError, match=r"time must lie in \[0, inf\)"):
        riesz_heat_composite_kernel(ORDER, (1,), -1.0, 0.7, 1.5)
    with pytest.raises(ValueError, match=r"time must lie in \[0, inf\)"):
        riesz_heat_composite_kernel(ORDER, (1,), np.array([0.1, np.nan, 0.3]), _X1[:3], _Y1[:3])
    # two times cannot broadcast against three pairs
    with pytest.raises(ValueError, match="one time per point pair"):
        riesz_heat_composite_kernel(ORDER, (1,), np.array([0.1, 0.2]), _X1[:3], _Y1[:3])


def test_cz_smoothness_check_passes():
    report = verify_cz_smoothness(ORDER, (1,))
    assert not report["skipped"]
    assert report["passed"]
    assert report["size_drift"] < 0.05
    assert report["smoothness_exponent"] >= ORDER.holder_exponent - 0.05
    assert math.isfinite(report["size_sup_fine"])


def test_cz_smoothness_refuses_three_dimensional_orders():
    # a lattice that locates the size sup beyond 1-D has too many pairs;
    # the Hermite skip still comes first
    for order, k in (((0.5, 1.0), (1, 0)), ((0.5, 1.0, 0.5), (1, 0, 0))):
        with pytest.raises(ValueError, match="1-D orders only"):
            verify_cz_smoothness(MultiOrder(order), k)
    assert verify_cz_smoothness(MultiOrder((0.5, -0.5, 1.0)), (1, 0, 0))["skipped"]
    assert verify_cz_smoothness(MultiOrder((-0.5, 1.0)), (0, 1))["skipped"]


def test_cz_smoothness_skips_hermite_endpoint():
    report = verify_cz_smoothness(MultiOrder((-0.5,)), (1,))
    assert report["skipped"]
    assert report["gamma"] == 0.0
