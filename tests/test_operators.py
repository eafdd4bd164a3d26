"""Spectral calculus, semigroup, maximal/square functions, Riesz transforms."""

import math

import numpy as np
import pytest

from lagsem import (
    Grid,
    GridFunction,
    MultiOrder,
    SpectralCoefficients,
    analyze,
    gauss_legendre_axis,
    kernel_nd,
    maximal_function,
    riesz_heat_composite_kernel,
    riesz_kernel,
    riesz_multiplier,
    riesz_multiplier_table,
    riesz_spectral,
    semigroup_apply,
    square_function,
    synthesize,
    verify_cz_smoothness,
)
from lagsem.special import laguerre_function_table

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
    assert (back - f).norm_l2() / f.norm_l2() < 1e-6


def test_round_trip_two_dimensional():
    # the bump must be negligible on the coordinate axes: the basis vanishes
    # like x^(nu+1/2) there, so mass at the axes converges only slowly
    order = MultiOrder((0.5, 1.5))
    grid = Grid.box((1e-9, 1e-9), (10.0, 10.0), nodes_per_unit=24)
    pts = grid.points()
    vals = np.exp(-2.0 * ((pts[:, 0] - 3.0) ** 2 + (pts[:, 1] - 3.0) ** 2))
    f = GridFunction(grid, vals.reshape(grid.shape))
    back = synthesize(analyze(order, f, k_max=50), grid)
    assert (back - f).norm_l2() / f.norm_l2() < 1e-6


def test_parseval():
    grid = _grid_1d()
    f = _bump(grid)
    c = analyze(ORDER, f, k_max=60)
    assert abs(c.norm_l2() - f.norm_l2()) / f.norm_l2() < 1e-8


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
    assert (out - f).norm_l2() / f.norm_l2() < 0.01


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


def test_square_function_cone_validation():
    grid = _grid_1d(nodes_per_unit=16, hi=6.0)
    with pytest.raises(ValueError):
        square_function(ORDER, _bump(grid, center=2.0), t_lo=2.0, t_hi=1.0)


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


def test_riesz_multiplier_table_keys():
    order = MultiOrder((0.5, 1.0))
    table = riesz_multiplier_table(order, (1, 2), k_max=4)
    assert set(table) == {f"{a},{b}" for a in range(1, 5) for b in range(2, 5)}
    assert all(abs(v) < 1.0 for v in table.values())
    assert table["1,2"] == riesz_multiplier(order, (1, 2), (1, 2))


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


def test_riesz_kernel_regression_value():
    # pinned against an independent high-accuracy evaluation of the damped
    # spectral series composed with the t -> 0 limit
    got = riesz_kernel(ORDER, (1,), 0.7, 1.5)
    assert got == pytest.approx(0.1486624971834888, rel=1e-12)


def test_riesz_kernel_rejects_diagonal():
    with pytest.raises(ValueError):
        riesz_kernel(ORDER, (1,), 1.3, 1.3)


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
    with pytest.raises(ValueError):
        riesz_heat_composite_kernel(ORDER, (1,), -1.0, 0.7, 1.5)
    with pytest.raises(ValueError):
        riesz_heat_composite_kernel(ORDER, (1,), np.array([0.1, 0.2]), 0.7, 1.5)


def test_cz_smoothness_check_passes():
    report = verify_cz_smoothness(ORDER, (1,))
    assert not report["skipped"]
    assert report["passed"]
    assert report["size_drift"] < 0.05
    assert report["smoothness_exponent"] >= ORDER.holder_exponent - 0.05
    assert math.isfinite(report["size_sup_fine"])


def test_cz_smoothness_skips_hermite_endpoint():
    report = verify_cz_smoothness(MultiOrder((-0.5,)), (1,))
    assert report["skipped"]
    assert report["gamma"] == 0.0
