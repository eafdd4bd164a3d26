"""Acceptance criteria for the verification suite.

Each test covers one numbered criterion, prints a single PASS/FAIL line
on the live terminal (bypassing pytest capture), and asserts both the
numeric tolerance and the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from lagsem import (
    MultiOrder,
    build_covering,
    check_slow_variation,
    ive,
)
from lagsem.bounds import (
    fit_gaussian_bound,
    minimal_decay_constant,
    standard_bound_suite,
)
from lagsem.grids import Grid, gauss_legendre_axis
from lagsem.hardy import bmo_norm, duality_pairing, hardy_norm_maximal, random_atom
from lagsem.heat import delta_kernel_1d, kernel_1d_closed, kernel_nd, kernel_spectral
from lagsem.operators import (
    SpectralCoefficients,
    eigenvalue_array,
    riesz_multiplier,
    riesz_spectral,
    verify_cz_smoothness,
)
from lagsem.special import laguerre_function_table


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def _finish(announce, num, name, ok, detail, elapsed, budget):
    in_budget = elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    announce(f"{status} criterion-{num:02d} {name}: {detail} [{elapsed:.1f}s/{budget:.0f}s]")
    assert ok, f"criterion-{num:02d} {name}: {detail}"
    assert in_budget, f"criterion-{num:02d} over budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_eigen_relation(announce):
    start = time.perf_counter()
    axis = gauss_legendre_axis(0.0, 12.0, nodes_per_unit=64)
    worst = 0.0
    for nu in (-0.5, 0.0, 1.3):
        table = laguerre_function_table(nu, axis.nodes, 10)
        for t in (0.1, 1.0):
            kmat = kernel_1d_closed(nu, t, axis.nodes[:, None], axis.nodes[None, :])
            for k in range(11):
                applied = kmat @ (axis.weights * table[k])
                resid = applied - math.exp(-t * (4 * k + 2 * nu + 2)) * table[k]
                num = float(np.sum(axis.weights * resid**2))
                den = float(np.sum(axis.weights * table[k] ** 2))
                worst = max(worst, math.sqrt(num / den))
    _finish(
        announce, 1, "eigen-relation residual", worst < 1e-6,
        f"worst L2 rel {worst:.3e} < 1e-6", time.perf_counter() - start, 5.0,
    )


def test_criterion_02_closed_vs_spectral(announce):
    start = time.perf_counter()
    x1 = np.linspace(0.3, 2.5, 20)
    worst1 = 0.0
    order1 = MultiOrder((0.5,))
    for t in (0.25, 0.5, 1.0):
        closed = kernel_1d_closed(0.5, t, x1[:, None], x1[None, :])
        for i, xi in enumerate(x1):
            for j, yj in enumerate(x1):
                spectral_val = kernel_spectral(order1, t, xi, yj, 60)
                worst1 = max(worst1, abs(closed[i, j] - spectral_val) / abs(closed[i, j]))

    order2 = MultiOrder((0.0, 1.3))
    X = np.stack([np.linspace(0.3, 2.2, 20), np.linspace(0.5, 2.4, 20)], axis=-1)
    Y = np.stack([np.linspace(0.4, 2.3, 20), np.linspace(0.35, 2.1, 20)], axis=-1)
    worst2 = 0.0
    for t in (0.25, 0.5, 1.0):
        closed = kernel_nd(order2, t, X[:, None, :], Y[None, :, :])
        for i in range(20):
            for j in range(20):
                spectral_val = kernel_spectral(order2, t, X[i], Y[j], 40)
                worst2 = max(worst2, abs(closed[i, j] - spectral_val) / abs(closed[i, j]))
    worst = max(worst1, worst2)
    _finish(
        announce, 2, "closed vs spectral kernel", worst < 1e-8,
        f"worst rel 1-D {worst1:.3e}, 2-D {worst2:.3e} < 1e-8",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_03_semigroup_law(announce):
    start = time.perf_counter()
    axis = gauss_legendre_axis(0.0, 12.0, nodes_per_unit=64)
    worst1 = 0.0
    for x in (0.5, 1.2, 2.0):
        for y in (0.8, 1.5):
            for t in (0.1, 0.5):
                for s in (0.1, 0.5):
                    left = kernel_1d_closed(0.5, t, x, axis.nodes)
                    right = kernel_1d_closed(0.5, s, axis.nodes, y)
                    comp = float(np.sum(axis.weights * left * right))
                    direct = float(kernel_1d_closed(0.5, t + s, x, y))
                    worst1 = max(worst1, abs(comp - direct) / abs(direct))

    order2 = MultiOrder((0.0, 1.3))
    quad = Grid(tuple(gauss_legendre_axis(0.0, 10.0, nodes_per_unit=32) for _ in range(2)))
    pts = quad.points()
    w = quad.weights_nd().ravel()
    worst2 = 0.0
    for xpt in (np.array([0.5, 0.8]), np.array([1.5, 1.2])):
        ypt = np.array([0.9, 1.4])
        for t in (0.1, 0.5):
            for s in (0.1, 0.5):
                left = kernel_nd(order2, t, xpt[None, :], pts)
                right = kernel_nd(order2, s, pts, ypt[None, :])
                comp = float(np.sum(w * left * right))
                direct = float(kernel_nd(order2, t + s, xpt[None, :], ypt[None, :])[0])
                worst2 = max(worst2, abs(comp - direct) / abs(direct))
    worst = max(worst1, worst2)
    _finish(
        announce, 3, "semigroup law under quadrature", worst < 1e-6,
        f"worst rel 1-D {worst1:.3e}, 2-D {worst2:.3e} < 1e-6",
        time.perf_counter() - start, 60.0,
    )


def test_criterion_04_bessel_identities(announce):
    start = time.perf_counter()
    ok = True
    notes = []

    # derivative identity d/dz (z^-a I_a) = z^-a I_{a+1}
    worst = 0.0
    for alpha in (-0.5, 0.0, 0.8, 1.7):
        for z in (0.5, 1.0, 5.0, 20.0):
            h = 1e-5 * z
            f = lambda zz: zz ** (-alpha) * math.exp(zz) * float(ive(alpha, zz))
            deriv = (f(z + h) - f(z - h)) / (2 * h)
            want = z ** (-alpha) * math.exp(z) * float(ive(alpha + 1, z))
            worst = max(worst, abs(deriv - want) / abs(want))
    ok &= worst < 1e-6
    notes.append(f"derivative {worst:.1e}")

    # three-term difference identity
    z = np.geomspace(0.1, 50.0, 25)
    worst = 0.0
    for alpha in (-0.5, 0.0, 1.7):
        lhs = ive(alpha, z) - ive(alpha + 2, z)
        rhs = (2 * (alpha + 1) / z) * ive(alpha + 1, z)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    ok &= worst < 1e-12
    notes.append(f"difference {worst:.1e}")

    # neighbor gap bound
    gap_ok = True
    for alpha in (-0.5, 0.0, 1.7):
        gap = np.abs(ive(alpha, z) - ive(alpha + 1, z))
        gap_ok &= bool(np.all(gap < (4 * alpha + 6) * ive(alpha + 1, z) / z))
    ok &= gap_ok
    notes.append(f"neighbor bound {gap_ok}")

    # small argument power law
    worst = 0.0
    for alpha in (-0.5, 0.0, 0.5, 1.7, 4.0):
        got = float(ive(alpha, 1e-6)) * math.exp(1e-6) / (1e-6) ** alpha
        want = 1.0 / (2.0**alpha * math.gamma(alpha + 1.0))
        worst = max(worst, abs(got - want) / abs(want))
    ok &= worst < 1e-4
    notes.append(f"small-z {worst:.1e}")

    _finish(
        announce, 4, "Bessel identity suite", bool(ok), "; ".join(notes),
        time.perf_counter() - start, 2.0,
    )


def _numeric_delta(nu, f, x, h):
    stencil = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    return stencil + (x - (nu + 0.5) / x) * f(x)


def test_criterion_05_delta_kernels_vs_finite_differences(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for i in range(50):
        nu = (-0.5, 0.0, 0.7, 1.3)[i % 4]
        t = rng.uniform(0.1, 1.2)
        x = rng.uniform(0.4, 2.2)
        y = rng.uniform(0.4, 2.2)
        base = lambda xx: kernel_1d_closed(nu, t, xx, y)

        got = float(delta_kernel_1d(nu, 1, t, x, y))
        want = _numeric_delta(nu, base, x, 1e-4)
        worst = max(worst, abs(got - want) / abs(want))

        got = float(delta_kernel_1d(nu, 2, t, x, y))
        inner = lambda xx: _numeric_delta(nu, base, xx, 1e-3)
        want = _numeric_delta(nu, inner, x, 1e-3)
        worst = max(worst, abs(got - want) / abs(want))
    _finish(
        announce, 5, "derivative kernels vs finite differences", worst < 1e-5,
        f"worst rel {worst:.3e} < 1e-5 on 100 random samples",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_06_bound_fit_suite(announce):
    start = time.perf_counter()
    tasks = standard_bound_suite(fast=False)
    ok = True
    min_samples = None
    c_lo, c_hi = math.inf, 0.0
    worst_family = ""
    for task in tasks:
        n_raw = int(np.asarray(task.samples["x"]).shape[0])
        min_samples = n_raw if min_samples is None else min(min_samples, n_raw)
        ok &= n_raw >= 10**4
        rep = fit_gaussian_bound(task.family, task.samples)
        good = rep.passed and math.isfinite(rep.fitted_C) and len(rep.violations) == 0
        if not good:
            ok = False
            worst_family = rep.family_id
        if task.family.gaussian:
            c = minimal_decay_constant(task.family, task.samples)
            if c is None or not 1.0 <= c <= 8.0:
                ok = False
                worst_family = rep.family_id
            else:
                c_lo, c_hi = min(c_lo, c), max(c_hi, c)
    detail = (
        f"{len(tasks)} families fit, min samples {min_samples}, "
        f"minimal decay constants in [{c_lo:.2f}, {c_hi:.2f}]"
    )
    if worst_family:
        detail += f"; offender {worst_family}"
    _finish(announce, 6, "bound-fit suite", bool(ok), detail, time.perf_counter() - start, 300.0)


def test_criterion_07_riesz_contraction(announce):
    start = time.perf_counter()
    worst_mult = 0.0
    orders_1d = [MultiOrder((v,)) for v in (-0.5, 0.0, 0.5, 1.3)]
    for order in orders_1d:
        for kk in (1, 2, 3):
            for variant in ("single_power", "stepwise"):
                for m in range(kk, kk + 30):
                    worst_mult = max(
                        worst_mult, abs(riesz_multiplier(order, (kk,), (m,), variant))
                    )
    order2 = MultiOrder((0.5, 1.0))
    for k in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)):
        for variant in ("single_power", "stepwise"):
            for m1 in range(k[0], k[0] + 8):
                for m2 in range(k[1], k[1] + 8):
                    worst_mult = max(
                        worst_mult, abs(riesz_multiplier(order2, k, (m1, m2), variant))
                    )

    rng = np.random.default_rng(77)
    worst_ratio = 0.0
    for i in range(200):
        order = orders_1d[i % 4]
        k = ((1,), (2,), (3,))[i % 3]
        variant = ("single_power", "stepwise")[i % 2]
        coeffs = rng.normal(size=26)
        c = SpectralCoefficients(order, coeffs)
        out = riesz_spectral(order, k, c, variant=variant)
        worst_ratio = max(worst_ratio, out.norm_l2() / c.norm_l2())
    ok = worst_mult <= 1.0 and worst_ratio <= 1.0 + 1e-10
    _finish(
        announce, 7, "spectral Riesz contraction", ok,
        f"max multiplier {worst_mult:.6f} <= 1, max L2 ratio {worst_ratio:.12f}",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_08_cz_size_and_smoothness(announce):
    start = time.perf_counter()
    ok = True
    notes = []
    for nu in (0.0, 0.5, 1.0):
        rep = verify_cz_smoothness(MultiOrder((nu,)), (1,))
        good = (
            not rep["skipped"]
            and rep["passed"]
            and math.isfinite(rep["size_sup_fine"])
            and rep["size_drift"] < 0.05
            and rep["smoothness_exponent"] >= rep["gamma"] - 0.05
        )
        ok &= good
        notes.append(
            f"nu={nu}: drift {rep['size_drift']:.4f}, exponent {rep['smoothness_exponent']:.2f}"
            f" >= {rep['gamma'] - 0.05:.2f}"
        )
    _finish(
        announce, 8, "CZ size and smoothness", bool(ok), "; ".join(notes),
        time.perf_counter() - start, 180.0,
    )


def test_criterion_09_uniform_atom_bound(announce):
    start = time.perf_counter()
    order = MultiOrder((0.5,))
    ok = True
    worst_norm = 0.0
    worst_drift = 0.0
    for pi, p in enumerate((0.8, 1.0)):
        for i in range(50):
            atom = random_atom(order, p, seed=1000 * pi + i)
            r = atom.ball.radius
            base = hardy_norm_maximal(
                order, atom, p, t_grid=np.geomspace(r / 10.0, 8.0, 40)
            ).value
            fine = hardy_norm_maximal(
                order, atom, p, t_grid=np.geomspace(r / 10.0, 8.0, 80)
            ).value
            drift = abs(fine - base) / base
            worst_norm = max(worst_norm, fine)
            worst_drift = max(worst_drift, drift)
            ok &= math.isfinite(base) and base > 0.0 and drift < 0.05
    _finish(
        announce, 9, "uniform atom maximal bound", bool(ok),
        f"100 atoms, max norm {worst_norm:.4f} finite, max t-grid drift {worst_drift:.2e} < 5%",
        time.perf_counter() - start, 120.0,
    )


def test_criterion_10_duality_pairing_bound(announce):
    start = time.perf_counter()
    order = MultiOrder((0.5,))
    p = 0.9
    grid = Grid.box((0.05,), (4.0,), nodes_per_unit=48)

    def band_function(seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=16) * np.exp(-0.25 * eigenvalue_array(order, 15))
        from lagsem.operators import synthesize

        return synthesize(SpectralCoefficients(order, coeffs), grid)

    fs = [band_function(s) for s in range(10)]
    atoms = [random_atom(order, p, seed=500 + i) for i in range(10)]
    atoms_fine = [random_atom(order, p, seed=500 + i, nodes_per_axis=96) for i in range(10)]

    def max_ratio(atom_set, nodes_per_axis):
        worst = 0.0
        for f in fs:
            dual = bmo_norm(order, f, p=p, nodes_per_axis=nodes_per_axis).value
            for atom in atom_set:
                worst = max(worst, abs(duality_pairing(order, f, atom)) / dual)
        return worst

    coarse = max_ratio(atoms, 64)
    fine = max_ratio(atoms_fine, 128)
    drift = abs(fine - coarse) / coarse
    ok = math.isfinite(coarse) and coarse > 0.0 and drift < 0.05
    _finish(
        announce, 10, "duality pairing bound", ok,
        f"100 pairs, max |<f,a>|/bmo {coarse:.4f}, refinement drift {drift:.2e} < 5%",
        time.perf_counter() - start, 120.0,
    )


def test_criterion_11_slow_variation(announce):
    start = time.perf_counter()
    ok = True
    notes = []
    for i, nu in enumerate(((0.5,), (-0.5,), (0.0, 1.3))):
        rep = check_slow_variation(MultiOrder(nu), n_pairs=10**4, seed=40 + i)
        ok &= rep.passed and rep.violations == [] and rep.n_pairs == 10**4
        notes.append(f"nu={nu}: ratios [{rep.min_ratio:.3f}, {rep.max_ratio:.3f}]")
    _finish(
        announce, 11, "critical function slow variation", bool(ok),
        "0 violations per case; " + "; ".join(notes),
        time.perf_counter() - start, 2.0,
    )


def test_criterion_12_covering_invariants(announce):
    start = time.perf_counter()
    ok = True
    notes = []
    for order, hi, ppa in (
        (MultiOrder((0.5,)), 2.4, 200),
        (MultiOrder((0.5, 1.0)), 1.6, 100),
    ):
        cov = build_covering(order, 0.4, hi)
        v = cov.verify(points_per_axis=ppa)
        good = (
            v["fifth_radius_disjoint"]
            and v["covers_box"]
            and v["partition_sum_error"] < 1e-12
        )
        ok &= good
        notes.append(
            f"{order.n}-D: {v['n_balls']} balls, disjoint {v['fifth_radius_disjoint']}, "
            f"covers {v['covers_box']}, partition err {v['partition_sum_error']:.1e}"
        )
    _finish(
        announce, 12, "covering invariants", bool(ok), "; ".join(notes),
        time.perf_counter() - start, 10.0,
    )
