"""Named verification checks grouped into runnable suites.

Each check is a function of the suite configuration returning a
CheckResult; run_suite executes a named group and wraps the results in a
SuiteReport.  Checks that are inherently one-dimensional use the first
axis of the configured order.
"""

from __future__ import annotations

import time

import numpy as np

from .bounds import fit_gaussian_bound, standard_bound_suite
from .config import SuiteConfig
from .critical import build_covering, check_slow_variation
from .grids import Grid, GridFunction, gauss_legendre_axis
from .heat import kernel_1d_closed, kernel_1d_raw, kernel_spectral
from .operators import (
    SpectralCoefficients,
    analyze,
    eigenvalue_array,
    riesz_heat_composite_kernel,
    riesz_kernel,
    riesz_multiplier,
    synthesize,
)
from .reports import CheckResult, SuiteReport
from .special import MultiOrder, ive, laguerre_function_table
from .hardy import bmo_norm, check_atom, duality_pairing, hardy_norm_maximal, random_atom

__all__ = ["SUITE_NAMES", "run_suite"]


def _order(config: SuiteConfig) -> MultiOrder:
    return MultiOrder(config.order)


def _axis_nu(config: SuiteConfig) -> float:
    return float(config.order[0])


def _line_grid(hi: float = 12.0, per_unit: int = 64) -> Grid:
    return Grid((gauss_legendre_axis(0.0, hi, nodes_per_unit=per_unit),))


def check_bessel_identities(config: SuiteConfig) -> CheckResult:
    z = np.geomspace(1e-3, 300.0, 25 if config.fast else 60)
    worst = 0.0
    for alpha in (-0.5, 0.0, 0.5, 1.3, 4.0):
        low, mid, high = ive(alpha, z), ive(alpha + 1.0, z), ive(alpha + 2.0, z)
        resid = np.abs(low - high - 2.0 * (alpha + 1.0) / z * mid) / np.abs(low)
        worst = max(worst, float(resid.max()))
    return CheckResult("bessel-recurrence", worst < 1e-10, worst, {"tolerance": 1e-10})


def check_laguerre_orthonormality(config: SuiteConfig) -> CheckResult:
    nu = _axis_nu(config)
    k_max = 8 if config.fast else 15
    axis = gauss_legendre_axis(0.0, 12.0, nodes_per_unit=96)
    table = laguerre_function_table(nu, axis.nodes, k_max)
    gram = (table * axis.weights) @ table.T
    err = float(np.max(np.abs(gram - np.eye(k_max + 1))))
    return CheckResult("laguerre-orthonormality", err < 1e-8, err, {"k_max": k_max})


def check_closed_vs_raw(config: SuiteConfig) -> CheckResult:
    nu = _axis_nu(config)
    x = np.linspace(0.2, 3.0, 20)
    worst = 0.0
    for t in (0.1, 1.0):
        a = kernel_1d_closed(nu, t, x[:, None], x[None, :])
        b = kernel_1d_raw(nu, t, x[:, None], x[None, :])
        worst = max(worst, float(np.max(np.abs(a - b) / np.abs(a))))
    return CheckResult("kernel-closed-vs-raw", worst < 1e-10, worst, {})


def check_closed_vs_spectral(config: SuiteConfig) -> CheckResult:
    nu = _axis_nu(config)
    order = MultiOrder((nu,))
    x = np.linspace(0.3, 2.5, 8 if config.fast else 15)
    t = 0.5
    worst = 0.0
    for xi in x:
        for yj in x:
            closed = float(kernel_1d_closed(nu, t, xi, yj))
            spectral = kernel_spectral(order, t, xi, yj, config.k_max)
            worst = max(worst, abs(closed - spectral) / abs(closed))
    return CheckResult("kernel-closed-vs-spectral", worst < 1e-8, worst, {"k_max": config.k_max})


def check_semigroup_law(config: SuiteConfig) -> CheckResult:
    nu = _axis_nu(config)
    axis = gauss_legendre_axis(0.0, 12.0, nodes_per_unit=64)
    t = s = 0.25
    xs = np.array([0.5, 1.2, 2.0])
    ys = np.array([0.8, 1.5])
    worst = 0.0
    for x in xs:
        left = kernel_1d_closed(nu, t, x, axis.nodes)
        for y in ys:
            right = kernel_1d_closed(nu, s, axis.nodes, y)
            composed = float(np.sum(axis.weights * left * right))
            direct = kernel_1d_closed(nu, t + s, x, y)
            worst = max(worst, abs(composed - direct) / abs(direct))
    return CheckResult("semigroup-law", worst < 1e-6, worst, {"t": t, "s": s})


def check_eigenrelation(config: SuiteConfig) -> CheckResult:
    # residual measured in L2, not pointwise: phi_k has interior zeros
    nu = _axis_nu(config)
    axis = gauss_legendre_axis(0.0, 12.0, nodes_per_unit=64)
    table = laguerre_function_table(nu, axis.nodes, 7)
    worst = 0.0
    for t in (0.1, 1.0):
        kmat = kernel_1d_closed(nu, t, axis.nodes[:, None], axis.nodes[None, :])
        for k in (0, 3, 7):
            applied = kmat @ (axis.weights * table[k])
            resid = applied - np.exp(-t * (4 * k + 2 * nu + 2)) * table[k]
            num = float(np.sum(axis.weights * resid**2))
            den = float(np.sum(axis.weights * table[k] ** 2))
            worst = max(worst, np.sqrt(num / den))
    return CheckResult("semigroup-eigenrelation", worst < 1e-6, worst, {})


def check_slow_variation_suite(config: SuiteConfig) -> CheckResult:
    rep = check_slow_variation(
        _order(config), n_pairs=2000 if config.fast else 10000, seed=config.seed
    )
    dev = max(2.0 - rep.min_ratio * 2.0, rep.max_ratio / 2.0 - 1.0)
    return CheckResult(
        "critical-slow-variation",
        rep.passed,
        dev,
        {"n_pairs": rep.n_pairs, "min_ratio": rep.min_ratio, "max_ratio": rep.max_ratio},
    )


def check_covering(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    try:
        cov = build_covering(order, 0.4, 1.6 if order.n > 1 else 2.4)
    except ValueError as exc:  # e.g. a 3-D lattice over the candidate limit
        return CheckResult("critical-covering", False, None, {"error": f"ValueError: {exc}"})
    v = cov.verify(points_per_axis=60 if order.n > 1 else 200)
    passed = (
        v["fifth_radius_disjoint"]
        and v["covers_box"]
        and v["partition_sum_error"] < 1e-12
    )
    return CheckResult("critical-covering", passed, v["partition_sum_error"], v)


def check_multiplier_contraction(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    k = tuple(1 if i == 0 else 0 for i in range(order.n))
    worst = 0.0
    for variant in ("single_power", "stepwise"):
        for m in range(1, 40):
            idx = tuple(m if i == 0 else 0 for i in range(order.n))
            worst = max(worst, abs(riesz_multiplier(order, k, idx, variant)))
    return CheckResult("riesz-multiplier-contraction", worst < 1.0, worst, {})


def check_variant_relation(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    k = tuple(2 if i == 0 else 0 for i in range(order.n))
    worst = 0.0
    for m in range(2, 30):
        idx = tuple(m if i == 0 else 0 for i in range(order.n))
        single = riesz_multiplier(order, k, idx, "single_power")
        step = riesz_multiplier(order, k, idx, "stepwise")
        lam = order.eigenvalue(idx)
        expected = single * lam / np.sqrt(lam * (lam - 2.0))
        worst = max(worst, abs(step - expected) / abs(expected))
    return CheckResult("riesz-variant-relation", worst < 1e-12, worst, {})


def _random_band_function(config: SuiteConfig, grid: Grid, k_max: int = 25) -> GridFunction:
    order = _order(config)
    rng = np.random.default_rng(config.seed)
    shape = (k_max + 1,) * order.n
    coeffs = rng.normal(size=shape) * np.exp(-0.25 * eigenvalue_array(order, k_max))
    return synthesize(SpectralCoefficients(order, coeffs), grid)


def check_parseval(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    grid = Grid(tuple(gauss_legendre_axis(0.0, 12.0, nodes_per_unit=48) for _ in range(order.n)))
    f = _random_band_function(config, grid)
    coeffs = analyze(order, f, 25)
    err = abs(f.norm_l2() - coeffs.norm_l2()) / coeffs.norm_l2()
    return CheckResult("parseval", err < 1e-8, err, {})


def check_composite_limit(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    k = tuple(1 if i == 0 else 0 for i in range(order.n))
    base = np.array([0.7] * order.n)
    worst = 0.0
    for gap in (0.3, 1.0):
        x = base
        y = base + gap / np.sqrt(order.n)
        kr = riesz_kernel(order, k, x if order.n > 1 else float(x[0]), y if order.n > 1 else float(y[0]))
        kc = riesz_heat_composite_kernel(
            order, k, 1e-8, x if order.n > 1 else float(x[0]), y if order.n > 1 else float(y[0])
        )
        worst = max(worst, abs(kr - kc) / abs(kr))
    return CheckResult("riesz-composite-limit", worst < 1e-6, worst, {})


def check_bound_families(config: SuiteConfig) -> CheckResult:
    detail = {}
    passed = True
    worst_c = 0.0
    for task in standard_bound_suite(fast=config.fast):
        rep = fit_gaussian_bound(task.family, task.samples, task.fixed_c)
        detail[rep.family_id] = rep.fitted_C
        passed &= rep.passed
        worst_c = max(worst_c, rep.fitted_C)
    return CheckResult("gaussian-bound-families", passed, worst_c, detail)


def check_atoms(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    passed = True
    worst = 0.0
    for i in range(config.n_atoms):
        atom = random_atom(order, config.atom_p, seed=config.seed + i)
        rep = check_atom(atom)
        passed &= rep["passed"]
        if rep["moments"]:
            worst = max(worst, max(abs(v) for v in rep["moments"].values()))
    return CheckResult("atom-validity", passed, worst, {"n_atoms": config.n_atoms})


def check_hardy_norm(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    if order.n > 1:
        return CheckResult("hardy-norm-finite", True, None, {"skipped": "1-D check"})
    atom = random_atom(order, config.atom_p, seed=config.seed)
    rep = hardy_norm_maximal(order, atom, config.atom_p)
    ok = np.isfinite(rep.value) and rep.value > 0.0
    return CheckResult("hardy-norm-finite", bool(ok), rep.value, rep.to_json_dict())


def check_duality(config: SuiteConfig) -> CheckResult:
    order = _order(config)
    if order.n > 1:
        return CheckResult("duality-bounded", True, None, {"skipped": "1-D check"})
    grid = _line_grid(8.0, per_unit=96)
    f = _random_band_function(config, grid, k_max=15)
    norm = bmo_norm(order, f, p=config.atom_p)
    worst = 0.0
    for i in range(3):
        atom = random_atom(order, config.atom_p, seed=config.seed + 100 + i)
        worst = max(worst, abs(duality_pairing(order, f, atom)))
    ok = np.isfinite(worst) and np.isfinite(norm.value)
    return CheckResult(
        "duality-bounded", bool(ok), worst, {"dual_norm": norm.value, "n_atoms": 3}
    )


SUITES = {
    "special": [check_bessel_identities, check_laguerre_orthonormality],
    "kernel": [
        check_closed_vs_raw,
        check_closed_vs_spectral,
        check_semigroup_law,
        check_eigenrelation,
    ],
    "critical": [check_slow_variation_suite, check_covering],
    "operators": [
        check_multiplier_contraction,
        check_variant_relation,
        check_parseval,
        check_composite_limit,
    ],
    "bounds": [check_bound_families],
    "hardy": [check_atoms, check_hardy_norm, check_duality],
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(config: SuiteConfig, suite: str = "all") -> SuiteReport:
    """Run one named suite (or all of them) and collect a report."""
    config.validate()
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    checks = []
    for name in SUITES if suite == "all" else (suite,):
        checks.extend(SUITES[name])
    results = []
    for fn in checks:
        start = time.perf_counter()
        try:
            res = fn(config)
        except Exception as exc:  # a crashing check is a failing check
            res = CheckResult(fn.__name__, False, None, {"error": f"{type(exc).__name__}: {exc}"})
        res.seconds = time.perf_counter() - start
        results.append(res)
    return SuiteReport(suite, config, results)
