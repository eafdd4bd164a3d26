"""Atoms, minimizing polynomials, oscillation norms, and duality pairing."""

import math

import numpy as np
import pytest

from lagsem import (
    Atom,
    Ball,
    Grid,
    GridFunction,
    MultiOrder,
    bmo_norm,
    check_atom,
    duality_pairing,
    gauss_legendre_axis,
    hardy_norm_maximal,
    minimizing_polynomial,
    moment_degree,
    random_atom,
    rho,
)
from lagsem.hardy import ball_grid
from lagsem.operators import default_time_ladder, maximal_function

ORDER = MultiOrder((0.5,))


def test_moment_degree_values():
    assert moment_degree(ORDER, 1.0) == 0
    assert moment_degree(ORDER, 0.9) == 0
    assert moment_degree(ORDER, 0.5) == 1
    assert moment_degree(MultiOrder((0.5, 1.0)), 0.5) == 2
    with pytest.raises(ValueError):
        moment_degree(ORDER, 1.5)
    with pytest.raises(ValueError):
        moment_degree(ORDER, 0.0)


def test_check_atom_odd_step_is_valid():
    # sign flip across the center: zero mean by node symmetry of the rule,
    # sup exactly at the size bound |B|^(-1) = 1/(2r)
    ball = Ball((1.0,), 0.01)
    grid = ball_grid(ball)
    x = grid.points().ravel()
    vals = np.where(x < 1.0, 50.0, -50.0)
    atom = Atom(ORDER, 1.0, ball, GridFunction(grid, vals))
    report = check_atom(atom)
    assert report["passed"]
    assert report["size_ok"] and report["support_ok"] and report["moments_ok"]
    assert report["sup"] == 50.0
    assert report["sup_bound"] == pytest.approx(50.0)
    assert not report["radius_exceeds_critical"]


def test_check_atom_constant_fails_moments():
    ball = Ball((1.0,), 0.01)
    grid = ball_grid(ball)
    vals = np.full(grid.shape, 50.0)
    atom = Atom(ORDER, 1.0, ball, GridFunction(grid, vals))
    report = check_atom(atom)
    assert not report["passed"]
    assert report["size_ok"]
    assert not report["moments_ok"]
    assert abs(report["moments"]["0"]) > 0.5


def test_check_atom_critical_radius_needs_no_moments():
    # at radius exactly rho the moment condition is vacuous, so even a
    # constant profile is a valid atom
    center = 1.0
    crit = float(rho(ORDER, np.array([[center]]))[0])
    ball = Ball((center,), crit)
    grid = ball_grid(ball)
    pts = grid.points()
    vals = np.where(ball.contains(pts), 1.0 / ball.volume, 0.0)
    atom = Atom(ORDER, 1.0, ball, GridFunction(grid, vals.reshape(grid.shape)))
    report = check_atom(atom)
    assert report["passed"]
    assert report["moments"] == {}
    assert not report["radius_exceeds_critical"]


def test_check_atom_oversized_radius_flagged_not_failed():
    center = 1.0
    crit = float(rho(ORDER, np.array([[center]]))[0])
    ball = Ball((center,), 1.5 * crit)
    grid = ball_grid(ball)
    pts = grid.points()
    vals = np.where(ball.contains(pts), 0.5 / ball.volume, 0.0)
    atom = Atom(ORDER, 1.0, ball, GridFunction(grid, vals.reshape(grid.shape)))
    report = check_atom(atom)
    assert report["radius_exceeds_critical"]
    assert report["passed"]


def test_random_atoms_always_valid():
    for seed in range(8):
        for p in (0.8, 1.0):
            atom = random_atom(ORDER, p, seed=seed)
            report = check_atom(atom)
            assert report["passed"], (seed, p, report)


def test_random_atom_two_dimensional():
    order = MultiOrder((0.5, 1.0))
    atom = random_atom(order, 0.9, seed=3)
    report = check_atom(atom)
    assert report["passed"]
    assert atom.ball.ndim == 2


def test_random_atom_moments_nearly_exact():
    # the projection uses the same Gram system as the validity check, so
    # moments vanish at solver precision, far below the 1e-10 tolerance
    atom = random_atom(ORDER, 1.0, seed=11)
    w = atom.func.grid.weights_nd().ravel()
    vals = atom.func.values.ravel()
    l1 = float(np.sum(w * np.abs(vals)))
    assert abs(float(np.sum(w * vals))) < 1e-12 * l1


def test_random_atom_seeds_differ():
    a = random_atom(ORDER, 1.0, seed=1)
    b = random_atom(ORDER, 1.0, seed=2)
    assert a.ball != b.ball or np.max(np.abs(a.func.values - b.func.values)) > 0.0


def test_minimizing_polynomial_fixes_polynomials():
    ball = Ball((1.5,), 0.3)
    grid = ball_grid(ball)
    x = (grid.points().ravel() - 1.5) / 0.3
    g = GridFunction(grid, 0.3 + 0.5 * x - 0.2 * x**2)
    fit = minimizing_polynomial(g, ball, degree=2)
    inside = ball.contains(grid.points())
    residual = np.abs(g.values.ravel() - fit.evaluate(grid.points()))[inside]
    assert np.max(residual) < 1e-10
    assert fit.cond >= 1.0 and math.isfinite(fit.cond)


def test_minimizing_polynomial_degree_zero_is_ball_average():
    ball = Ball((1.5,), 0.3)
    grid = ball_grid(ball)
    x = grid.points().ravel()
    g = GridFunction(grid, x)
    fit = minimizing_polynomial(g, ball, degree=0)
    w = grid.weights_nd().ravel() * ball.contains(grid.points())
    avg = float(np.sum(w * x)) / float(np.sum(w))
    assert fit.coeffs[0] == pytest.approx(avg, rel=1e-13)


def test_minimizing_polynomial_idempotent():
    ball = Ball((1.5,), 0.3)
    grid = ball_grid(ball)
    x = grid.points().ravel()
    g = GridFunction(grid, np.sin(3.0 * x))
    fit = minimizing_polynomial(g, ball, degree=2)
    reduced = GridFunction(grid, g.values.ravel() - fit.evaluate(grid.points()))
    refit = minimizing_polynomial(reduced, ball, degree=2)
    assert np.max(np.abs(refit.coeffs)) < 1e-12


def test_minimizing_polynomial_moment_residuals():
    ball = Ball((1.5,), 0.3)
    grid = ball_grid(ball)
    x = grid.points().ravel()
    g = GridFunction(grid, np.exp(np.cos(2.0 * x)))
    fit = minimizing_polynomial(g, ball, degree=2)
    pts = grid.points()
    w = grid.weights_nd().ravel() * ball.contains(pts)
    resid = g.values.ravel() - fit.evaluate(pts)
    l1 = float(np.sum(w * np.abs(g.values.ravel())))
    scaled = (pts.ravel() - 1.5) / 0.3
    for power in (0, 1, 2):
        assert abs(float(np.sum(w * resid * scaled**power))) < 1e-10 * l1


def test_minimizing_polynomial_weighted_moments():
    ball = Ball((1.5,), 0.3)
    grid = ball_grid(ball)
    pts = grid.points()
    x = pts.ravel()
    cutoff = np.clip(1.0 - ((x - 1.5) / 0.3) ** 2, 0.0, None) ** 3
    g = GridFunction(grid, np.cos(4.0 * x))
    fit = minimizing_polynomial(g, ball, degree=1, weight=cutoff)
    w = grid.weights_nd().ravel() * ball.contains(pts) * cutoff
    resid = g.values.ravel() - fit.evaluate(pts)
    l1 = float(np.sum(w * np.abs(g.values.ravel())))
    scaled = (x - 1.5) / 0.3
    for power in (0, 1):
        assert abs(float(np.sum(w * resid * scaled**power))) < 1e-12 * l1


def test_minimizing_polynomial_coefficient_size():
    # scaled-monomial coefficients stay comparable to the ball average of
    # |g|; this is the derivative bound in the unit-ball normalization
    ball = Ball((1.5,), 0.3)
    grid = ball_grid(ball)
    x = grid.points().ravel()
    g = GridFunction(grid, np.sin(5.0 * x) + 0.5)
    fit = minimizing_polynomial(g, ball, degree=2)
    w = grid.weights_nd().ravel() * ball.contains(grid.points())
    avg = float(np.sum(w * np.abs(g.values.ravel()))) / float(np.sum(w))
    assert np.max(np.abs(fit.coeffs)) <= 10.0 * avg


def _smooth_field(seed):
    grid = Grid.box((0.05,), (4.0,), nodes_per_unit=48)
    x = grid.points().ravel()
    rng = np.random.default_rng(seed)
    vals = np.zeros_like(x)
    for _ in range(4):
        c = rng.uniform(0.5, 3.0)
        s = rng.uniform(0.3, 1.0)
        vals += rng.normal() * np.exp(-((x - c) / s) ** 2)
    return GridFunction(grid, vals)


def test_bmo_constant_killed_by_polynomial_branch():
    grid = Grid.box((0.05,), (4.0,), nodes_per_unit=32)
    f = GridFunction(grid, np.full(grid.shape, 2.7))
    report = bmo_norm(ORDER, f, radius_factors=(0.125, 0.25, 0.5))
    assert report.value < 1e-10
    assert report.n_balls > 0


def test_bmo_constant_survives_size_branch():
    grid = Grid.box((0.05,), (4.0,), nodes_per_unit=32)
    f = GridFunction(grid, np.full(grid.shape, 2.7))
    report = bmo_norm(ORDER, f, radius_factors=(0.5, 1.0))
    assert report.size_sup == pytest.approx(2.7, rel=1e-10)
    assert report.value == pytest.approx(2.7, rel=1e-10)


def test_bmo_q_independence():
    ratios = []
    for seed in range(20):
        f = _smooth_field(seed)
        n1 = bmo_norm(ORDER, f, q=1.0).value
        n2 = bmo_norm(ORDER, f, q=2.0).value
        if n1 > 0:
            ratios.append(n2 / n1)
    assert len(ratios) == 20
    for r in ratios:
        assert 0.999 <= r <= 10.0


def test_bmo_report_round_trip():
    f = _smooth_field(0)
    report = bmo_norm(ORDER, f, q=2.0)
    blob = report.to_json_dict()
    assert blob["q"] == 2.0
    assert blob["value"] == report.value
    assert blob["n_balls"] == report.n_balls


def test_bmo_parameter_validation():
    f = _smooth_field(1)
    with pytest.raises(ValueError):
        bmo_norm(ORDER, f, p=1.5)
    with pytest.raises(ValueError):
        bmo_norm(ORDER, f, q=0.5)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_bmo_refuses_an_averaging_exponent_that_is_not_finite(q):
    # q = inf raised every average to the power 1/q = 0, and q = nan was reported as given
    with pytest.raises(ValueError, match="averaging exponent q must be finite and >= 1"):
        bmo_norm(ORDER, _smooth_field(1), q=q)


@pytest.mark.parametrize("radius_factors", [(), (1e6,)], ids=["no-factor", "no-ball-inside"])
def test_bmo_refuses_an_empty_ball_family(radius_factors):
    with pytest.raises(ValueError, match="the ball family is empty"):
        bmo_norm(ORDER, _smooth_field(1), radius_factors=radius_factors)


def test_bmo_refuses_a_function_of_another_dimension():
    flat = Grid.box((0.5, 0.5), (2.5, 2.5), nodes_per_unit=8)
    with pytest.raises(ValueError, match="grid dimension does not match the order"):
        bmo_norm(ORDER, GridFunction(flat, np.ones(flat.shape)))


@pytest.mark.parametrize("p", [0.0, 1.5, math.nan])
def test_exponent_rule_is_named_by_every_caller(p):
    f = _smooth_field(1)
    for call in (
        lambda: moment_degree(ORDER, p),
        lambda: hardy_norm_maximal(ORDER, f, p),
        lambda: bmo_norm(ORDER, f, p=p),
        lambda: Atom(ORDER, p, Ball((1.0,), 0.05), f),
    ):
        with pytest.raises(ValueError, match=r"exponent p must lie in \(0, 1\]"):
            call()


def test_hardy_norm_of_zero():
    grid = Grid.box((0.05,), (4.0,), nodes_per_unit=24)
    z = GridFunction(grid, np.zeros(grid.shape))
    assert hardy_norm_maximal(ORDER, z, 1.0).value == 0.0


def test_hardy_norm_scaling_at_p_one():
    atom = random_atom(ORDER, 1.0, seed=5)
    base = hardy_norm_maximal(ORDER, atom, 1.0)
    doubled = Atom(
        ORDER, 1.0, atom.ball,
        GridFunction(atom.func.grid, 2.0 * atom.func.values),
    )
    scaled = hardy_norm_maximal(ORDER, doubled, 1.0)
    assert scaled.value == pytest.approx(2.0 * base.value, rel=1e-10)
    assert base.value > 0.0
    assert math.isfinite(base.value)


def test_hardy_norm_reports_the_default_ladder_it_used():
    grid = Grid.box((0.05,), (4.0,), nodes_per_unit=24)
    f = GridFunction(grid, np.exp(-((grid.points().ravel() - 2.0) ** 2)))
    rep = hardy_norm_maximal(ORDER, f, 1.0)
    ladder = default_time_ladder(grid)
    assert rep.n_times == ladder.size == 48
    assert rep.value == maximal_function(ORDER, f, t_grid=ladder).norm_lp(1.0)


def test_default_ladder_refuses_an_axis_of_one_node():
    grid = Grid((gauss_legendre_axis(0.0, 0.5, nodes_per_unit=1, min_nodes=1),))
    f = GridFunction(grid, np.ones(grid.shape))
    calls = (
        lambda: default_time_ladder(grid),
        lambda: maximal_function(ORDER, f),
        lambda: hardy_norm_maximal(ORDER, f, 1.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="default_time_ladder needs at least two nodes per axis"):
            call()


def test_hardy_norm_takes_a_scalar_time_and_refuses_an_empty_ladder():
    atom = random_atom(ORDER, 0.9, seed=4)
    one = hardy_norm_maximal(ORDER, atom, 0.9, t_grid=0.5)
    assert one.n_times == 1
    assert one.value == hardy_norm_maximal(ORDER, atom, 0.9, t_grid=np.array([0.5])).value
    with pytest.raises(ValueError, match="t_grid must be one time or a 1-D array"):
        hardy_norm_maximal(ORDER, atom, 0.9, t_grid=[])


def test_hardy_norm_rejects_bad_exponent():
    atom = random_atom(ORDER, 1.0, seed=6)
    with pytest.raises(ValueError):
        hardy_norm_maximal(ORDER, atom, 1.2)


def test_duality_constant_against_zero_mean_atom():
    atom = random_atom(ORDER, 1.0, seed=8)
    f = GridFunction(atom.func.grid, np.full(atom.func.grid.shape, 3.0))
    assert abs(duality_pairing(ORDER, f, atom)) < 1e-10


def test_duality_self_pairing_is_one():
    atom = random_atom(ORDER, 1.0, seed=9)
    norm_sq = atom.func.norm_l2() ** 2
    f = GridFunction(atom.func.grid, atom.func.values / norm_sq)
    assert duality_pairing(ORDER, f, atom) == pytest.approx(1.0, rel=1e-12)


def test_duality_refuses_an_atom_or_function_of_another_order():
    atom = random_atom(MultiOrder((1.0,)), 1.0, seed=8)
    f = GridFunction(atom.func.grid, np.ones(atom.func.grid.shape))
    assert duality_pairing(1.0, f, atom) == duality_pairing(MultiOrder((1.0,)), f, atom)
    with pytest.raises(ValueError, match=r"the atom has order \(1.0,\), not the order \(0.5,\)"):
        duality_pairing(ORDER, f, atom)
    flat = Grid.box((0.5, 0.5), (2.5, 2.5), nodes_per_unit=8)
    with pytest.raises(ValueError, match="grid dimension does not match the order"):
        duality_pairing(1.0, GridFunction(flat, np.ones(flat.shape)), atom)


def test_atom_order_rule_is_named_by_every_caller():
    # an order-1/2 atom in an order-1 Hardy norm gave a finite number instead of an error
    atom = random_atom(ORDER, 1.0, seed=8)
    f = GridFunction(atom.func.grid, np.ones(atom.func.grid.shape))
    other = MultiOrder((1.0,))
    for call in (lambda: hardy_norm_maximal(other, atom, 1.0), lambda: duality_pairing(other, f, atom)):
        with pytest.raises(ValueError, match=r"the atom has order \(0.5,\), not the order \(1.0,\)"):
            call()


def test_duality_bilinearity():
    atom = random_atom(ORDER, 1.0, seed=10)
    grid = atom.func.grid
    x = grid.points().ravel()
    f = GridFunction(grid, np.sin(x))
    g = GridFunction(grid, np.exp(-x))
    combo = GridFunction(grid, 2.5 * f.values + g.values)
    left = duality_pairing(ORDER, combo, atom)
    right = 2.5 * duality_pairing(ORDER, f, atom) + duality_pairing(ORDER, g, atom)
    assert left == pytest.approx(right, abs=1e-12)
