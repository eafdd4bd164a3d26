"""Critical function, slow variation, and covering construction tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagsem import (
    MultiOrder,
    SuiteConfig,
    build_covering,
    check_slow_variation,
    rho,
    rho_axis,
    run_suite,
)


def test_rho_direct_values():
    # (1/16) min{1/2, 1, 2} = 1/32
    assert rho(MultiOrder((0.5,)), (2.0,)) == 1 / 32
    # endpoint order: active set empty, (1/16) min{2, 1} = 1/16
    assert rho(MultiOrder((-0.5,)), (0.5,)) == 1 / 16
    # mixed orders: only the second axis contributes its coordinate;
    # (1/16) min{1/sqrt(9.01), 1, 0.1} = 0.1/16
    got = rho(MultiOrder((-0.5, 1.0)), (3.0, 0.1))
    assert got == 0.1 / 16


def test_rho_axis_values():
    assert rho_axis(-0.5, 3.0) == pytest.approx(1 / 48, rel=1e-15)
    assert rho_axis(0.0, 0.2) == pytest.approx(0.0125, rel=1e-15)


def test_rho_upper_bounds_from_min():
    rng = np.random.default_rng(3)
    order = MultiOrder((-0.5, 0.3, 2.0))
    x = rng.uniform(0.05, 5.0, size=(500, 3))
    vals = rho(order, x)
    norms = np.linalg.norm(x, axis=-1)
    assert np.all(vals <= 1 / 16 + 1e-15)
    assert np.all(vals <= 1 / (16 * norms) + 1e-15)
    for j in order.active_axes:
        assert np.all(vals <= x[:, j] / 16 + 1e-15)


def test_rho_equivalent_to_axiswise_min():
    # 1/|x| >= (1/sqrt n) min_j (1/x_j) gives the two-sided comparison
    rng = np.random.default_rng(11)
    order = MultiOrder((0.5, 1.0))
    x = rng.uniform(0.05, 5.0, size=(1000, 2))
    full = rho(order, x)
    axiswise = np.minimum(rho_axis(0.5, x[:, 0]), rho_axis(1.0, x[:, 1]))
    ratio = full / axiswise
    assert np.all(ratio <= 1.0 + 1e-15)
    assert np.all(ratio >= 1 / math.sqrt(2) - 1e-15)


def test_rho_domain_error():
    with pytest.raises(ValueError):
        rho(MultiOrder((0.5,)), (0.0,))
    with pytest.raises(ValueError):
        rho_axis(0.5, -1.0)


def test_slow_variation_one_dimensional():
    report = check_slow_variation(MultiOrder((1.0,)), n_pairs=10**4, seed=5)
    assert report.n_pairs == 10**4
    assert report.violations == []
    assert report.passed
    assert 0.5 <= report.min_ratio <= report.max_ratio <= 2.0


def test_slow_variation_two_dimensional():
    report = check_slow_variation(MultiOrder((-0.5, 0.3)), n_pairs=10**4, seed=6)
    assert report.violations == []
    assert report.passed


def test_slow_variation_same_point_ratio_one():
    order = MultiOrder((0.7,))
    x = np.array([[1.3]])
    assert rho(order, x) / rho(order, x) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(min_value=-0.5, max_value=3.0),
    x=st.floats(min_value=0.05, max_value=8.0),
    u=st.floats(min_value=-1.0, max_value=1.0),
)
def test_slow_variation_pointwise(nu, x, u):
    # y inside 4 B(x, rho(x)) implies rho(y) within a factor two of rho(x)
    order = MultiOrder((nu,))
    rx = float(rho(order, (x,)))
    y = x + 4.0 * rx * u
    if y <= 0.0:
        return
    ry = float(rho(order, (y,)))
    assert 0.5 * rx <= ry <= 2.0 * rx


def test_covering_single_ball_for_tiny_box():
    # the box is much smaller than the local critical radius, so the greedy
    # packing accepts exactly one center and its bump is identically 1
    order = MultiOrder((0.5,))
    cov = build_covering(order, 1.0, 1.018)
    assert len(cov.balls()) == 1
    pts = np.linspace(1.0, 1.018, 50)[:, None]
    bumps = cov.bump_values(pts)
    assert np.max(np.abs(bumps[0] - 1.0)) < 1e-15


def test_covering_one_dimensional_box():
    order = MultiOrder((0.5,))
    cov = build_covering(order, 0.5, 2.0)
    report = cov.verify(points_per_axis=1000)
    assert report["covers_box"]
    assert report["fifth_radius_disjoint"]
    # maximal fifth-radius packing is fairly dense; the measured overlap
    # constant on this box is 5
    assert report["max_overlap"] <= 6
    assert report["partition_sum_error"] < 1e-12
    for ball in cov.balls():
        expected = rho(order, np.asarray(ball.center)[None, :])[0]
        assert ball.radius == pytest.approx(float(expected))


def test_covering_bumps_supported_in_balls():
    order = MultiOrder((0.5,))
    cov = build_covering(order, 0.5, 2.0)
    pts = np.linspace(0.5, 2.0, 400)[:, None]
    bumps = cov.bump_values(pts)
    assert np.all(bumps >= 0.0)
    assert np.all(bumps <= 1.0 + 1e-15)
    assert np.max(np.abs(bumps.sum(axis=0) - 1.0)) < 1e-12
    for i, ball in enumerate(cov.balls()):
        outside = ~ball.contains(pts)
        assert np.all(bumps[i][outside] == 0.0)


def test_covering_two_dimensional_box():
    order = MultiOrder((0.5, 1.0))
    cov = build_covering(order, 0.4, 1.6)
    report = cov.verify(points_per_axis=120)
    assert report["covers_box"]
    assert report["fifth_radius_disjoint"]
    assert report["partition_sum_error"] < 1e-12
    assert report["max_overlap"] <= 25


@pytest.mark.parametrize(
    "nu, lo, hi", [((0.5, 1.0), 0.6, 0.8), ((0.5, 1.0, 0.0), 0.7, 0.8)], ids=["2d", "3d"]
)
def test_covering_matches_plain_greedy(nu, lo, hi):
    # reference: the same lexicographic lattice, each candidate checked
    # against every accepted center
    order = MultiOrder(nu)
    probe = np.stack(
        np.meshgrid(*[np.linspace(lo, hi, 41)] * order.n, indexing="ij"), axis=-1
    ).reshape(-1, order.n)
    spacing = float(np.min(rho(order, probe))) / 10.0
    axis = np.arange(lo, hi + 0.5 * spacing, spacing)
    lattice = np.stack(np.meshgrid(*[axis] * order.n, indexing="ij"), axis=-1).reshape(-1, order.n)
    centers, radii = [], []
    for cand, rc in zip(lattice, rho(order, lattice)):
        if centers:
            d2 = np.sum((np.asarray(centers) - cand) ** 2, axis=-1)
            if np.any(d2 < ((np.asarray(radii) + rc) / 5.0) ** 2):
                continue
        centers.append(cand)
        radii.append(rc)
    cov = build_covering(order, lo, hi)
    assert np.array_equal(cov.centers, np.asarray(centers))
    assert np.array_equal(cov.radii, np.asarray(radii))


@pytest.mark.parametrize(
    "nu, lo, hi", [((0.5,), 0.1, 6.0), ((0.5, 1.0), 0.4, 1.0)], ids=["1d", "2d"]
)
def test_covering_verify_matches_dense_checks(nu, lo, hi):
    cov = build_covering(MultiOrder(nu), lo, hi)
    mid = 0.5 * (np.asarray(cov.box_lo) + np.asarray(cov.box_hi))
    keep = np.linalg.norm(cov.centers - mid, axis=1) > 0.12
    holed = type(cov)(cov.order, cov.box_lo, cov.box_hi, cov.centers[keep], cov.radii[keep])
    # a copy of one ball moved 1e-9 along x_0, so it clashes with that ball
    # alone and sorts right after it; taken at both ends and on both sides
    # of the first 256-ball block of the x_0-sorted disjointness sweep
    by_x0 = np.argsort(cov.centers[:, 0], kind="stable")
    shift = np.eye(len(nu))[0] * 1e-9
    clashes = [
        type(cov)(
            cov.order, cov.box_lo, cov.box_hi,
            np.vstack([cov.centers, cov.centers[i] + shift]), np.append(cov.radii, cov.radii[i]),
        )
        for i in by_x0[[0, 254, 255, 256, -1]]
    ]
    for c in [cov, holed, *clashes]:
        axis = [np.linspace(a, b, 40) for a, b in zip(c.box_lo, c.box_hi)]
        pts = np.stack(np.meshgrid(*axis, indexing="ij"), axis=-1).reshape(-1, len(nu))
        rel = np.linalg.norm(pts[None] - c.centers[:, None], axis=-1) / c.radii[:, None]
        dist = np.linalg.norm(c.centers[:, None] - c.centers[None], axis=-1)
        np.fill_diagonal(dist, np.inf)
        report = c.verify(points_per_axis=40)
        assert report["fifth_radius_disjoint"] == bool(
            np.all(dist >= (c.radii[:, None] + c.radii[None]) / 5.0 - 1e-12)
        )
        assert report["max_overlap"] == int((rel < 1.0).sum(axis=0).max())
        assert report["max_cover_margin"] == pytest.approx(float(rel.min(axis=0).max()), rel=1e-12)
    assert cov.verify(40)["fifth_radius_disjoint"]
    assert not any(c.verify(40)["fifth_radius_disjoint"] for c in clashes)
    assert not holed.verify(40)["covers_box"]


def test_covering_rejects_boundary_box():
    with pytest.raises(ValueError):
        build_covering(MultiOrder((0.5,)), 0.0, 1.0)


def test_covering_rejects_oversized_lattice_before_allocating():
    # the 3-D lattice on [0.4, 1.6]^3 has 533^3 candidates, 3.6 GB as an array
    order = MultiOrder((0.5, 1.0, 0.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="151419437 candidates"):
            build_covering(order, 0.4, 1.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    report = run_suite(SuiteConfig(order=order.nu), "critical")
    covering = {r.check_id: r for r in report.results}["critical-covering"]
    assert not covering.passed
    assert "151419437 candidates" in covering.detail["error"]


def test_covering_json_round_trip():
    cov = build_covering(MultiOrder((0.5,)), 0.8, 1.4)
    blob = cov.to_json_dict()
    assert len(blob["balls"]) == len(cov.balls())
    for entry, ball in zip(blob["balls"], cov.balls()):
        assert entry["radius"] == ball.radius
        assert tuple(entry["center"]) == tuple(ball.center)
