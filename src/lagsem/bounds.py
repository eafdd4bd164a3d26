"""Gaussian bound families for the kernel estimates and a sampling fitter.

Each family packages the left-hand side (some derivative of the heat
kernel, or a Riesz kernel) together with the claimed majorant

    C * P(t, x, y) * exp(-|x - y|^2 / (c t)),

where P collects the time powers, the decay in the critical-scale
weight, and any extra exponential time factor.  The fitter evaluates the
ratio on a deterministic sample grid, reports the smallest admissible C
(the max ratio), and locates the smallest decay constant c for which the
far tail of the sample does not blow past the near-diagonal ratios.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .critical import critical_weight, rho
from .grids import cross_pairs, lattice
from .heat import (
    axis_product,
    delta_kernel,
    delta_kernel_1d,
    kernel_1d_closed,
    operator_expansion,
    evaluate_expansion,
    partial_delta_kernel_1d,
    shifted_adjoint_kernel_1d,
)
from .operators import _check_riesz_index, riesz_heat_composite_kernel, riesz_kernel
from .special import MultiOrder, as_order

__all__ = [
    "BoundFamily",
    "BoundFitReport",
    "FitTask",
    "fit_gaussian_bound",
    "minimal_decay_constant",
    "product_samples_1d",
    "product_samples_2d",
    "pair_samples",
    "standard_bound_suite",
]

DEFAULT_DECAY_CONSTANT = 4.0


@dataclass
class BoundFitReport:
    """Result of fitting one bound family on a sample set."""

    family_id: str
    fitted_C: float
    fixed_c: float
    exponent_gamma: float
    n_samples: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return math.isfinite(self.fitted_C) and not self.violations

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundFamily:
    """One claimed bound: |lhs| <= C * prefactor * exp(-dist^2/(c t))."""

    family_id: str
    order: MultiOrder
    decay_exponent: float
    lhs: Callable
    prefactor: Callable
    gaussian: bool = True
    region: Optional[Callable] = None
    t_lo: float = 0.0
    t_hi: float = math.inf


@dataclass(frozen=True)
class FitTask:
    family: BoundFamily
    samples: dict


def _rows(points) -> np.ndarray:
    """Points as (N, n) rows; a 1-d input is a list of 1-D coordinates."""
    p = np.atleast_1d(np.asarray(points, float))
    return p[:, None] if p.ndim == 1 else p


def _samples(t_vals, x_points, y_points, drop_diagonal: bool = False) -> dict:
    """Every (t, x_i, y_j) sample, t-major then x-major.

    1-D samples come back as flat coordinate arrays.  With
    ``drop_diagonal`` the pairs x_i = y_j are left out, and without times
    ``t`` is None.
    """
    X, Y = cross_pairs(_rows(x_points), _rows(y_points))
    if drop_diagonal:
        keep = np.linalg.norm(X - Y, axis=-1) > 1e-12
        X, Y = X[keep], Y[keep]
    T = None
    if t_vals is not None:
        t = np.ravel(np.asarray(t_vals, float))
        (T, X), (_, Y) = cross_pairs(t, X), cross_pairs(t, Y)
    if X.shape[1] == 1:
        X, Y = X[:, 0], Y[:, 0]
    return {"t": T, "x": X, "y": Y}


def product_samples_1d(t_vals, x_vals, y_vals) -> dict:
    """All (t, x, y) triples of three 1-D coordinate lists."""
    return _samples(t_vals, np.ravel(x_vals), np.ravel(y_vals))


def product_samples_2d(t_vals, coord_vals) -> dict:
    """All times against all pairs of points of the square lattice coord_vals^2."""
    pts = lattice(coord_vals, coord_vals)
    return _samples(t_vals, pts, pts)


def pair_samples(x_points, y_points, t_vals=None) -> dict:
    """Cross product of spatial points, equal pairs dropped; optional times."""
    return _samples(t_vals, x_points, y_points, drop_diagonal=True)


def _dist2(x, y):
    if x.ndim == 1:
        return (x - y) ** 2
    return np.sum((x - y) ** 2, axis=-1)


def _filter(family: BoundFamily, samples: dict):
    t, x, y = samples["t"], samples["x"], samples["y"]
    if t is None:
        return None, np.asarray(x, float), np.asarray(y, float)
    t = np.asarray(t, float)
    mask = (t > family.t_lo) & (t < family.t_hi)
    if family.region is not None:
        mask &= family.region(t, x, y)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return t[mask], x[mask], y[mask]


def _base_and_gap(family: BoundFamily, samples: dict):
    t, x, y = _filter(family, samples)
    lhs = np.abs(family.lhs(t, x, y))
    pref = family.prefactor(t, x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        base = lhs / pref
    if family.gaussian:
        gap = _dist2(x, y) / t
    else:
        gap = np.zeros_like(base)
    return base, gap, t, x, y


def fit_gaussian_bound(
    family: BoundFamily, samples: dict, c: float = DEFAULT_DECAY_CONSTANT
) -> BoundFitReport:
    """Fit the smallest C with |lhs| <= C * prefactor * exp(-d^2/(c t)).

    fitted_C is the max ratio over the sample set by construction, so the
    violation list is empty unless a ratio fails to be finite (vanishing
    or non-finite right-hand side).
    """
    base, gap, t, x, y = _base_and_gap(family, samples)
    with np.errstate(over="ignore"):
        ratios = base * np.exp(gap / c)
    finite = np.isfinite(ratios)
    violations = [
        {
            "t": None if t is None else float(t[i]),
            "x": np.atleast_1d(x[i]).tolist(),
            "y": np.atleast_1d(y[i]).tolist(),
            "ratio": float(ratios[i]),
        }
        for i in np.nonzero(~finite)[0][:20]
    ]
    fitted = float(ratios[finite].max()) if np.any(finite) else math.inf
    return BoundFitReport(
        family_id=family.family_id,
        fitted_C=fitted,
        fixed_c=c if family.gaussian else 0.0,
        exponent_gamma=family.decay_exponent,
        n_samples=int(ratios.size),
        violations=violations,
    )


def minimal_decay_constant(
    family: BoundFamily, samples: dict, margin: float = 2.0
) -> Optional[float]:
    """Smallest c in [1, 8] at which the fitted constant stops inflating.

    The fitted constant is monotone decreasing in c; below the true decay
    rate it blows up exponentially with the largest sampled d^2/t, while
    polynomial derivative factors only inflate it by a bounded amount.
    The reported value is the smallest c whose constant stays within
    ``margin`` of the constant at c = 8 (bisected 24 times), which brackets
    the sharp rate up to that slack.  Returns None for families with no Gaussian factor
    and +inf when the reference constant itself is not finite.
    """
    if not family.gaussian:
        return None
    base, gap, *_ = _base_and_gap(family, samples)

    def fitted(c: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.max(base * np.exp(gap / c)))

    ref = fitted(8.0)
    if not math.isfinite(ref):
        return math.inf

    def passes(c: float) -> bool:
        return fitted(c) <= margin * ref

    if passes(1.0):
        return 1.0
    a, b = 1.0, 8.0
    for _ in range(24):
        mid = 0.5 * (a + b)
        if passes(mid):
            b = mid
        else:
            a = mid
    return b


# ---------------------------------------------------------------------------
# family constructors


def _w_weight(order: MultiOrder, t, x, y, exponent: float):
    return critical_weight(order, np.sqrt(t), x, y) ** (-exponent)


def _gaussian_family(family_id, order, lhs, time_factor, gamma=None, **window) -> BoundFamily:
    """|lhs| <= C * time_factor(t, x, y) * W^-gamma * exp(-d^2/(c t)).

    W is the critical-scale weight 1 + sqrt(t)/rho(x) + sqrt(t)/rho(y);
    ``window`` holds the BoundFamily fields region, t_lo and t_hi.
    """
    order = as_order(order)
    if gamma is None:
        # 1-D: nu + 1/2, which is 0 (no weight) at the Hermite endpoint;
        # n-D: nu_min + 1/2 over the active axes, inf when none is active
        gamma = order.nu[0] + 0.5 if order.n == 1 else order.nu_min + 0.5
    gamma = float(gamma)
    return BoundFamily(
        family_id=family_id,
        order=order,
        decay_exponent=gamma,
        lhs=lhs,
        prefactor=lambda t, x, y: time_factor(t, x, y) * _w_weight(order, t, x, y, gamma),
        **window,
    )


def heat_size_family(nu: float) -> BoundFamily:
    """Kernel size: p_t <= C e^(-t/2) t^(-1/2) Gaussian * W^-(nu+1/2)."""
    return _gaussian_family(
        f"heat-size[nu={nu}]", (nu,),
        lambda t, x, y: kernel_1d_closed(nu, t, x, y),
        lambda t, x, y: np.exp(-0.5 * t) / np.sqrt(t),
    )


def delta_size_family(nu: float, k: int) -> BoundFamily:
    return _gaussian_family(
        f"delta-size[nu={nu},k={k}]", (nu,),
        lambda t, x, y: delta_kernel_1d(nu, k, t, x, y),
        lambda t, x, y: t ** (-(k + 1) / 2.0),
    )


def hermite_delta_family(k: int, n_decay: int) -> BoundFamily:
    """Order -1/2 axis: delta^k kernel with arbitrary-order weight decay."""
    return _gaussian_family(
        f"hermite-delta[k={k},N={n_decay}]", (-0.5,),
        lambda t, x, y: delta_kernel_1d(-0.5, k, t, x, y),
        lambda t, x, y: t ** (-(k + 1) / 2.0),
        gamma=n_decay,
    )


def hermite_weighted_partial_family(ell: int, k: int, n_decay: int) -> BoundFamily:
    """Order -1/2 axis: |x^l (d/dx)^k p_t| with e^(-t/4) global decay."""
    return _gaussian_family(
        f"hermite-weighted-partial[l={ell},k={k},N={n_decay}]", (-0.5,),
        lambda t, x, y: x**ell * partial_delta_kernel_1d(-0.5, k, 0, t, x, y),
        lambda t, x, y: np.exp(-t / 4.0) * t ** (-(ell + k + 1) / 2.0),
        gamma=n_decay,
    )


def _offdiag(t, x, y):
    return (x * y < t) | (y < 0.5 * x) | (y > 2.0 * x)


def offdiag_moment_family(nu: float, k: int, m: int) -> BoundFamily:
    """Small time, off-diagonal region: |(x/sqrt t)^k delta^m p_t|."""
    return _gaussian_family(
        f"offdiag-moment[nu={nu},k={k},m={m}]", (nu,),
        lambda t, x, y: (x / np.sqrt(t)) ** k * delta_kernel_1d(nu, m, t, x, y),
        lambda t, x, y: t ** (-(m + 1) / 2.0),
        region=_offdiag,
        t_hi=1.0,
    )


def large_time_moment_family(nu: float, k: int, m: int) -> BoundFamily:
    """t >= 1: |x^k delta^m p_t| with global decay e^(-t/2^(m+2))."""
    rate = 1.0 / 2 ** (m + 2)
    return _gaussian_family(
        f"large-time-moment[nu={nu},k={k},m={m}]", (nu,),
        lambda t, x, y: x**k * delta_kernel_1d(nu, m, t, x, y),
        lambda t, x, y: np.exp(-rate * t) * t ** (-(m + 1) / 2.0),
        t_lo=1.0,
    )


def near_diagonal_family(nu: float, m: int) -> BoundFamily:
    """Small time near the diagonal: |delta^m p| plus the order-difference term."""
    if m < 1:
        raise ValueError("the near-diagonal family needs m >= 1")
    exp_base = operator_expansion(("delta",) * (m - 1), nu)
    exp_shift = operator_expansion(("delta",) * (m - 1), nu, base_shift=1)

    def lhs(t, x, y):
        main = np.abs(delta_kernel_1d(nu, m, t, x, y))
        diff = evaluate_expansion(exp_base, nu, t, x, y) - evaluate_expansion(
            exp_shift, nu, t, x, y
        )
        return main + (x / t) * np.abs(diff)

    return _gaussian_family(
        f"near-diagonal[nu={nu},m={m}]", (nu,), lhs,
        lambda t, x, y: t ** (-(m + 1) / 2.0),
        region=lambda t, x, y: ~_offdiag(t, x, y),
        t_hi=1.0,
    )


def _partial_time_factor(order: MultiOrder, k: int, j: int):
    """[rho(x)^-k + t^(-k/2)] t^(-(j+n)/2) for |k| partial and |j| annihilation derivatives."""

    def time_factor(t, x, y):
        return (rho(order, x) ** (-float(k)) + t ** (-k / 2.0)) * t ** (-(j + order.n) / 2.0)

    return time_factor


def partial_delta_family(nu: float, k: int, j: int) -> BoundFamily:
    """|(d/dx)^k delta^j p_t| against [rho(x)^-k + t^(-k/2)] t^(-(j+1)/2)."""
    order = MultiOrder((nu,))
    return _gaussian_family(
        f"partial-delta-size[nu={nu},k={k},j={j}]", order,
        lambda t, x, y: partial_delta_kernel_1d(nu, k, j, t, x, y),
        _partial_time_factor(order, k, j),
    )


def adjoint_shifted_family(nu: float, m: int, k: int, ell: int) -> BoundFamily:
    """|L^m (delta*)^k p^(nu+ell)| for ell >= k + 2m."""
    if ell < k + 2 * m:
        raise ValueError("order shift must be at least k + 2m")
    return _gaussian_family(
        f"adjoint-shifted-size[nu={nu},m={m},k={k},ell={ell}]", (nu,),
        lambda t, x, y: shifted_adjoint_kernel_1d(nu, m, k, ell, t, x, y),
        lambda t, x, y: t ** (-(k + 2 * m + 1) / 2.0),
    )


def product_delta_family(order: MultiOrder, m) -> BoundFamily:
    """n-D product kernel: |delta^m p_t| <= C t^(-(n+|m|)/2) Gaussian W^-(nu_min+1/2)."""
    order = as_order(order)
    m = order.index(m)
    return _gaussian_family(
        f"product-delta-size[nu={list(order.nu)},m={list(m)}]", order,
        lambda t, x, y: delta_kernel(order, m, t, x, y),
        lambda t, x, y: t ** (-(order.n + sum(m)) / 2.0),
    )


def product_partial_family(order: MultiOrder, k, j) -> BoundFamily:
    """n-D mixed partial/annihilation derivative size bound."""
    order = as_order(order)
    k, j = order.index(k), order.index(j)

    def lhs(t, x, y):
        return axis_product(
            order, x, y,
            lambda ax, xa, ya: partial_delta_kernel_1d(order.nu[ax], k[ax], j[ax], t, xa, ya),
        )

    return _gaussian_family(
        f"product-partial-size[nu={list(order.nu)},k={list(k)},j={list(j)}]", order,
        lhs, _partial_time_factor(order, sum(k), sum(j)),
    )


def product_adjoint_family(order: MultiOrder, m: int, k, ell) -> BoundFamily:
    """n-D |L^m (delta*)^k p^(nu+ell)|; generator powers distribute over axes."""
    order = as_order(order)
    k, ell = order.index(k), order.index(ell)
    if m not in (0, 1):
        raise ValueError("only generator powers 0 and 1 are implemented in n-D")

    def lhs(t, x, y):
        def term(which):  # the generator acts on axis `which` only (None: nowhere)
            return axis_product(
                order, x, y,
                lambda ax, xa, ya: shifted_adjoint_kernel_1d(
                    order.nu[ax], int(ax == which), k[ax], ell[ax], t, xa, ya
                ),
            )

        if m == 0:
            return term(None)
        return sum(term(which) for which in range(order.n))  # L = sum_j L_j

    return _gaussian_family(
        f"product-adjoint-size[nu={list(order.nu)},m={m},k={list(k)},ell={list(ell)}]", order,
        lhs,
        lambda t, x, y: t ** (-(sum(k) + 2 * m + order.n) / 2.0),
    )


def _riesz_family(name: str, order: MultiOrder, k, kernel) -> BoundFamily:
    """|kernel(order, k, t, x, y)| <= C |x-y|^(-n) (1 + |x-y|/rho(x) + |x-y|/rho(y))^(-gamma).

    No Gaussian factor: the bound is uniform in t.
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    gamma = order.nu_min + 0.5

    def prefactor(t, x, y):
        d = np.sqrt(_dist2(x, y))
        return d ** (-float(order.n)) * critical_weight(order, d, x, y) ** (-gamma)

    return BoundFamily(
        family_id=f"{name}[nu={list(order.nu)},k={list(k)}]",
        order=order,
        decay_exponent=gamma,
        lhs=lambda t, x, y: kernel(order, k, t, x, y),
        prefactor=prefactor,
        gaussian=False,
    )


def riesz_size_family(order: MultiOrder, k) -> BoundFamily:
    """Riesz kernel size |K(x,y)| |x-y|^n (1 + |x-y|/rho)^gamma <= C."""
    return _riesz_family(
        "riesz-size", order, k, lambda order, k, t, x, y: riesz_kernel(order, k, x, y)
    )


def riesz_heat_size_family(order: MultiOrder, k) -> BoundFamily:
    """Heat-composed Riesz kernels, uniform in the extra time parameter."""
    return _riesz_family("riesz-heat-size", order, k, riesz_heat_composite_kernel)


# ---------------------------------------------------------------------------
# standard suite


def _grid_1d(fast: bool) -> dict:
    t = np.geomspace(0.01, 10.0, 12 if fast else 20)
    xy = np.linspace(0.1, 4.0, 24 if fast else 50)
    return product_samples_1d(t, xy, xy)

def _grid_2d(fast: bool) -> dict:
    t = np.geomspace(0.01, 10.0, 5 if fast else 8)
    c = np.linspace(0.3, 3.0, 5 if fast else 7)
    return product_samples_2d(t, c)


def _grid_riesz_1d(fast: bool) -> dict:
    pts = np.linspace(0.05, 4.0, 41 if fast else 101)
    return pair_samples(pts, pts)


def _grid_riesz_2d(fast: bool) -> dict:
    cx = np.linspace(0.3, 3.0, 6 if fast else 10)
    cy = np.linspace(0.35, 3.05, 7 if fast else 11)
    return pair_samples(lattice(cx, cx), lattice(cy, cy))


def _grid_riesz_heat(fast: bool) -> dict:
    pts = np.linspace(0.05, 4.0, 25 if fast else 60)
    return pair_samples(pts, pts, t_vals=[0.01, 0.1, 1.0])


def standard_bound_suite(fast: bool = False) -> list[FitTask]:
    """Every bound family with its standard deterministic sample grid."""
    g1 = _grid_1d(fast)
    g2 = _grid_2d(fast)
    order2 = MultiOrder((0.5, 1.0))
    tasks = [
        # order -1/2 axis (plain Hermite-type derivative bounds)
        FitTask(hermite_weighted_partial_family(0, 1, 1), g1),
        FitTask(hermite_weighted_partial_family(0, 1, 2), g1),
        FitTask(hermite_weighted_partial_family(1, 1, 2), g1),
        FitTask(hermite_weighted_partial_family(0, 2, 2), g1),
        FitTask(hermite_delta_family(1, 1), g1),
        FitTask(hermite_delta_family(1, 2), g1),
        FitTask(hermite_delta_family(2, 1), g1),
        FitTask(hermite_delta_family(2, 2), g1),
        # active orders, 1-D
        FitTask(heat_size_family(0.5), g1),
        FitTask(heat_size_family(1.0), g1),
        FitTask(offdiag_moment_family(0.5, 1, 0), g1),
        FitTask(offdiag_moment_family(0.5, 1, 1), g1),
        FitTask(offdiag_moment_family(0.5, 2, 1), g1),
        FitTask(large_time_moment_family(0.5, 1, 0), g1),
        FitTask(large_time_moment_family(0.5, 1, 1), g1),
        FitTask(large_time_moment_family(0.5, 2, 2), g1),
        FitTask(near_diagonal_family(0.5, 1), g1),
        FitTask(near_diagonal_family(0.5, 2), g1),
        FitTask(delta_size_family(0.5, 1), g1),
        FitTask(delta_size_family(0.5, 2), g1),
        FitTask(delta_size_family(1.3, 1), g1),
        FitTask(partial_delta_family(0.5, 1, 0), g1),
        FitTask(partial_delta_family(0.5, 1, 1), g1),
        FitTask(partial_delta_family(0.5, 2, 0), g1),
        FitTask(adjoint_shifted_family(0.5, 0, 1, 1), g1),
        FitTask(adjoint_shifted_family(0.5, 0, 2, 2), g1),
        FitTask(adjoint_shifted_family(0.5, 1, 0, 2), g1),
        FitTask(adjoint_shifted_family(0.5, 1, 1, 3), g1),
        # two-dimensional product bounds
        FitTask(product_delta_family(order2, (0, 0)), g2),
        FitTask(product_delta_family(order2, (1, 0)), g2),
        FitTask(product_delta_family(order2, (1, 1)), g2),
        FitTask(product_partial_family(order2, (1, 0), (0, 0)), g2),
        FitTask(product_partial_family(order2, (1, 0), (0, 1)), g2),
        FitTask(product_adjoint_family(order2, 0, (1, 0), (1, 0)), g2),
        FitTask(product_adjoint_family(order2, 1, (0, 0), (2, 2)), g2),
        # singular integral kernels
        FitTask(riesz_size_family(MultiOrder((0.5,)), (1,)), _grid_riesz_1d(fast)),
        FitTask(riesz_size_family(MultiOrder((0.5,)), (2,)), _grid_riesz_1d(fast)),
        FitTask(riesz_size_family(order2, (1, 0)), _grid_riesz_2d(fast)),
        FitTask(riesz_heat_size_family(MultiOrder((0.5,)), (1,)), _grid_riesz_heat(fast)),
    ]
    return tasks
