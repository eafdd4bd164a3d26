"""Operators built on the Laguerre expansion.

Spectral analysis/synthesis against the eigenfunction basis, the
semigroup in spectral and kernel form, the vertical maximal function,
the area square function, and Riesz transforms.  The Riesz transform is
available three ways: as a spectral multiplier (two variants that differ
by an exact eigenvalue factor), as an off-diagonal kernel obtained from
the time integral of derivative heat kernels, and composed with an extra
semigroup smoothing step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_legendre

from .critical import rho
from .grids import Grid, GridFunction
from .heat import delta_kernel, kernel_1d_closed
from .special import MultiOrder, as_order, laguerre_function_table

__all__ = [
    "DEFAULT_KMAX",
    "SpectralCoefficients",
    "analyze",
    "synthesize",
    "eigenvalue_array",
    "semigroup_apply",
    "maximal_function",
    "square_function",
    "riesz_multiplier",
    "riesz_multiplier_table",
    "riesz_spectral",
    "riesz_kernel",
    "riesz_heat_composite_kernel",
    "verify_cz_smoothness",
]

DEFAULT_KMAX = 60


@dataclass(frozen=True)
class SpectralCoefficients:
    """Coefficients against the normalized eigenfunction basis of an order."""

    order: MultiOrder
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != self.order.n:
            raise ValueError("coefficient array rank must equal the dimension")
        object.__setattr__(self, "coeffs", c)

    @property
    def k_max(self) -> int:
        return self.coeffs.shape[0] - 1

    def eigenvalues(self) -> np.ndarray:
        return eigenvalue_array(self.order, self.k_max)

    def norm_l2(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs**2)))

    def damped(self, factors: np.ndarray) -> "SpectralCoefficients":
        return SpectralCoefficients(self.order, self.coeffs * factors)


def eigenvalue_array(order: MultiOrder, k_max: int) -> np.ndarray:
    """Eigenvalues 4|k| + 2|nu| + 2n on the full coefficient index grid."""
    total = np.zeros((k_max + 1,) * order.n)
    for ax in range(order.n):
        shape = [1] * order.n
        shape[ax] = k_max + 1
        total = total + np.arange(k_max + 1, dtype=float).reshape(shape)
    return 4.0 * total + 2.0 * order.total + 2.0 * order.n


def _tables(order: MultiOrder, grid: Grid, k_max: int) -> list[np.ndarray]:
    return [
        laguerre_function_table(nu_j, axis.nodes, k_max)
        for nu_j, axis in zip(order.nu, grid.axes)
    ]


def analyze(order: MultiOrder, f: GridFunction, k_max: int = DEFAULT_KMAX) -> SpectralCoefficients:
    """Expansion coefficients <f, phi_k> for all multi-indices up to k_max."""
    order = as_order(order)
    if f.grid.ndim != order.n:
        raise ValueError("grid dimension does not match the order")
    arr = f.values * f.grid.weights_nd()
    for ax, table in enumerate(_tables(order, f.grid, k_max)):
        # contracted axes stack in front, so original axis `ax` stays at `ax`
        arr = np.tensordot(table, arr, axes=(1, ax))
    return SpectralCoefficients(order, arr.transpose(tuple(reversed(range(order.n)))))


def synthesize(coeffs: SpectralCoefficients, grid: Grid) -> GridFunction:
    """Evaluate sum_k c_k phi_k on a quadrature grid."""
    order = coeffs.order
    if grid.ndim != order.n:
        raise ValueError("grid dimension does not match the order")
    arr = coeffs.coeffs
    for table in _tables(order, grid, coeffs.k_max):
        arr = np.tensordot(arr, table, axes=(0, 0))
    return GridFunction(grid, arr)


def _kernel_apply(order: MultiOrder, t: float, f: GridFunction, target: Grid) -> np.ndarray:
    """Integrate the product kernel against f at the nodes of ``target``.

    The kernel is a product of 1-D kernels, so the integral factors into
    one (target nodes) x (source nodes) matrix per axis.
    """
    if f.grid.ndim != order.n or target.ndim != order.n:
        raise ValueError("grid dimension does not match the order")
    arr = f.values * f.grid.weights_nd()
    for nu_j, ev, src in zip(order.nu, target.axes, f.grid.axes):
        kmat = kernel_1d_closed(nu_j, t, ev.nodes[:, None], src.nodes[None, :])
        # contracting the leading axis and appending the new one cycles
        # the axes back into order after n steps
        arr = np.tensordot(arr, kmat, axes=(0, 1))
    return arr


def semigroup_apply(
    order: MultiOrder,
    f: GridFunction,
    t: float,
    method: str = "spectral",
    k_max: int = DEFAULT_KMAX,
    eval_grid: Grid | None = None,
) -> GridFunction:
    """Apply e^(-tL) to a grid function.

    The spectral route damps expansion coefficients by e^(-t lambda_k) and
    needs the coefficients to resolve f; the kernel route integrates the
    closed-form kernel against f over its grid box, so f must be
    (numerically) supported inside the box.
    """
    order = as_order(order)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("time must be finite and nonnegative")
    target = eval_grid if eval_grid is not None else f.grid
    if method == "spectral":
        coeffs = analyze(order, f, k_max)
        lam = coeffs.eigenvalues()
        return synthesize(coeffs.damped(np.exp(-t * lam)), target)
    if method == "kernel":
        if t == 0.0:
            raise ValueError("the kernel route needs t > 0")
        return GridFunction(target, _kernel_apply(order, t, f, target))
    raise ValueError("method must be 'spectral' or 'kernel'")


def maximal_function(
    order: MultiOrder,
    f: GridFunction,
    t_grid=None,
    eval_grid: Grid | None = None,
) -> GridFunction:
    """Vertical maximal function sup_t |e^(-t^2 L) f| on a time grid.

    Uses the closed-form kernel, so it stays accurate for data that lives
    far below the spectral cutoff scale.  Kernels narrower than the node
    spacing of the source grid cannot be integrated accurately, so the
    default time ladder starts at twice the coarsest spacing; the small-t
    endpoint then recovers |f| up to O(spacing^2) damping.
    """
    order = as_order(order)
    if t_grid is None:
        h = max(float(np.diff(ax.nodes).max()) for ax in f.grid.axes)
        t_grid = np.geomspace(2.0 * h, 30.0, 48)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise ValueError("time grid must be strictly positive")
    target = eval_grid if eval_grid is not None else f.grid
    best = np.zeros(target.shape)
    for t in t_grid:
        np.maximum(best, np.abs(_kernel_apply(order, t * t, f, target)), out=best)
    return GridFunction(target, best)


def square_function(
    order: MultiOrder,
    f: GridFunction,
    eval_grid: Grid | None = None,
    n_levels: int = 48,
    k_max: int = 80,
    t_lo: float | None = None,
    t_hi: float | None = None,
) -> GridFunction:
    """Area square function over the truncated cone |x - y| < t.

    Sf(x)^2 = int int_{|x-y|<t} |t^2 (L u)(y, t^2)|^2 dy dt / t^(n+1)
    with u(s) = e^(-sL) f, evaluated spectrally on a geometric ladder of
    times.  For data away from the boundary of the orthant this satisfies
    the exact L^2 identity ||Sf||_2^2 = (omega_n / 8) ||f||_2^2.
    """
    order = as_order(order)
    coeffs = analyze(order, f, k_max)
    lam = coeffs.eigenvalues()
    lam_min = float(lam.min())
    lam_max = float(lam.max())
    if t_lo is None:
        t_lo = 0.03 / math.sqrt(lam_max)
    if t_hi is None:
        t_hi = 5.0 / math.sqrt(lam_min)
    if not 0.0 < t_lo < t_hi:
        raise ValueError("cone truncation needs 0 < t_lo < t_hi")
    levels = np.geomspace(t_lo, t_hi, n_levels)
    dlog = math.log(t_hi / t_lo) / (n_levels - 1)
    w_log = np.full(n_levels, dlog)
    w_log[0] = w_log[-1] = 0.5 * dlog

    target = eval_grid if eval_grid is not None else f.grid
    xpts = target.points()
    ypts = f.grid.points()
    wy = f.grid.weights_nd().ravel()
    d2 = np.sum((xpts[:, None, :] - ypts[None, :, :]) ** 2, axis=-1)

    acc = np.zeros(xpts.shape[0])
    n = order.n
    for t, w in zip(levels, w_log):
        g = synthesize(coeffs.damped(t * t * lam * np.exp(-t * t * lam)), f.grid)
        g2 = wy * g.values.ravel() ** 2
        inner = (d2 < t * t).astype(float) @ g2
        acc += w * t ** (-n) * inner
    return GridFunction(target, np.sqrt(acc).reshape(target.shape))


# ---------------------------------------------------------------------------
# Riesz transforms


def _check_riesz_index(order: MultiOrder, k) -> tuple[int, ...]:
    k = tuple(int(v) for v in np.atleast_1d(k))
    if len(k) != order.n:
        raise ValueError("derivative multi-index length must match the dimension")
    if any(v < 0 for v in k) or sum(k) == 0:
        raise ValueError("derivative multi-index must be nonnegative with |k| >= 1")
    return k


def riesz_multiplier(order: MultiOrder, k, m, variant: str = "single_power") -> float:
    """Spectral multiplier of the Riesz transform at one source index m.

    single_power divides delta^k phi_m by lambda_m^(|k|/2); stepwise
    interleaves one inverse square root per annihilation step, using the
    eigenvalue of the order-shifted basis reached so far (lambda_m - 2i
    at step i).  Both send phi_m^nu to a multiple of phi_(m-k)^(nu+k).
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    m = tuple(int(v) for v in np.atleast_1d(m))
    if len(m) != order.n or any(mj < kj for mj, kj in zip(m, k)):
        raise ValueError("source index must dominate the derivative index")
    lam = order.eigenvalue(m)
    amp = 1.0
    for mj, kj in zip(m, k):
        for i in range(kj):
            amp *= -2.0 * math.sqrt(mj - i)
    if variant == "single_power":
        return amp * lam ** (-sum(k) / 2.0)
    if variant == "stepwise":
        for step in range(sum(k)):
            amp /= math.sqrt(lam - 2.0 * step)
        return amp
    raise ValueError("variant must be 'single_power' or 'stepwise'")


def _riesz_multiplier_grid(order: MultiOrder, k, k_max: int, variant: str) -> np.ndarray:
    """Multipliers on the target index grid alpha = m - k, vectorized."""
    n = order.n
    alpha = [np.arange(k_max + 1, dtype=float).reshape([k_max + 1 if a == ax else 1 for a in range(n)])
             for ax in range(n)]
    lam = eigenvalue_array(order, k_max) + 4.0 * sum(k)
    amp = np.ones_like(lam)
    for ax in range(n):
        for i in range(1, k[ax] + 1):
            amp = amp * (-2.0) * np.sqrt(alpha[ax] + i)
    if variant == "single_power":
        return amp * lam ** (-sum(k) / 2.0)
    if variant == "stepwise":
        for step in range(sum(k)):
            amp = amp / np.sqrt(lam - 2.0 * step)
        return amp
    raise ValueError("variant must be 'single_power' or 'stepwise'")


def riesz_spectral(
    order: MultiOrder,
    k,
    coeffs: SpectralCoefficients,
    variant: str = "single_power",
) -> SpectralCoefficients:
    """Riesz transform in coefficient space.

    Input coefficients live in the basis of ``order``; the output lives in
    the basis of the order shifted by k, indexed by alpha = m - k.  Both
    variants are contractions (every multiplier has magnitude < 1).
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    if coeffs.order != order:
        raise ValueError("coefficients were computed for a different order")
    k_max = coeffs.k_max
    mult = _riesz_multiplier_grid(order, k, k_max, variant)
    src = coeffs.coeffs
    shifted = src[tuple(slice(kj, None) for kj in k)]
    out = np.zeros_like(src)
    out[tuple(slice(0, k_max + 1 - kj) for kj in k)] = shifted
    out = out * mult
    return SpectralCoefficients(order.shifted(k), out)


def riesz_multiplier_table(
    order: MultiOrder, k, k_max: int = 20, variant: str = "single_power"
) -> dict:
    """Multipliers keyed by the comma-joined source multi-index."""
    order = as_order(order)
    k = _check_riesz_index(order, k)
    table = {}
    for m in itertools.product(*[range(kj, k_max + 1) for kj in k]):
        table[",".join(str(v) for v in m)] = riesz_multiplier(order, k, m, variant)
    return table


def _pair_arrays(order: MultiOrder, x, y):
    """Point pairs as (N, n) arrays, their distances, and whether x was one point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 or (order.n > 1 and x.ndim == 1)
    xx = np.atleast_1d(x).reshape(-1, order.n)
    yy = np.atleast_1d(y).reshape(-1, order.n)
    return xx, yy, np.linalg.norm(xx - yy, axis=-1), scalar


def _riesz_time_integral(order: MultiOrder, k, x, y, t_shift: float = 0.0):
    """(1/Gamma(|k|/2)) int_0^inf t^(|k|/2 - 1) delta^k p_(t + shift) dt.

    The substitution t = v^2 makes the integrand smooth through t = 0 for
    off-diagonal pairs; geometric panels in v resolve every pair scale at
    once, and log-spaced panels cover large times until the spectral-gap
    decay makes the remainder negligible.
    """
    xx, yy, d, scalar = _pair_arrays(order, x, y)
    if np.any(d < 1e-9):
        raise ValueError("the kernel is singular on the diagonal; x and y must differ")
    s = sum(k) / 2.0
    lam0 = 2.0 * order.total + 2.0 * order.n

    v_small = max(float(d.min()) / 16.0, 1e-6)
    v_hi = math.e * float(d.max())
    bounds = [0.0, v_small]
    while bounds[-1] < v_hi:
        bounds.append(bounds[-1] * 2.0)
    nodes16, weights16 = roots_legendre(16)
    total = np.zeros(d.shape)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        vs = 0.5 * (hi - lo) * nodes16 + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights16
        for v, w in zip(vs, ws):
            g = delta_kernel(order, k, t_shift + v * v, xx, yy)
            total += w * 2.0 * v ** (sum(k) - 1) * g

    # remaining large-time part, integrated in log time
    a = bounds[-1] ** 2
    nodes24, weights24 = roots_legendre(24)
    while lam0 * a < 60.0:
        lo_u, hi_u = math.log(a), math.log(a) + 4.0
        us = 0.5 * (hi_u - lo_u) * nodes24 + 0.5 * (hi_u + lo_u)
        ws = 0.5 * (hi_u - lo_u) * weights24
        for u, w in zip(us, ws):
            tt = math.exp(u)
            g = delta_kernel(order, k, t_shift + tt, xx, yy)
            total += w * tt**s * g
        a = math.exp(hi_u)

    total *= math.exp(-gammaln(s))
    return float(total[0]) if scalar else total


def riesz_kernel(order: MultiOrder, k, x, y):
    """Off-diagonal kernel of the Riesz transform delta^k L^(-|k|/2)."""
    order = as_order(order)
    k = _check_riesz_index(order, k)
    return _riesz_time_integral(order, k, x, y, t_shift=0.0)


def riesz_heat_composite_kernel(order: MultiOrder, k, t, x, y):
    """Kernel of the Riesz transform composed with e^(-tL).

    Equals the Riesz kernel with every heat time shifted by t, so it tends
    to riesz_kernel as t -> 0 and is bounded by the same size estimates
    uniformly in t.
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    if np.ndim(t) != 0:
        raise ValueError("time must be a scalar")
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("time must be finite and nonnegative")
    return _riesz_time_integral(order, k, x, y, t_shift=t)


def verify_cz_smoothness(
    order: MultiOrder,
    k,
    coarse: int = 25,
    drift_tol: float = 0.05,
) -> dict:
    """Size and smoothness diagnostics for the Riesz kernel.

    Checks that the weighted size quantity |K| d^n W^gamma has a finite
    sup that is stable under doubling the pair grid, and that the kernel
    vanishes at the boundary of the orthant at least like the Hoelder
    rate gamma = min(1, min_j nu_j + 1/2), measured by log-log regression
    along a ray x -> 0.  Orders with gamma below 1/4 are skipped: the
    stated rate is then too degenerate for a stable regression.  This uses
    the raw minimum over all axes, not the active-set convention, so any
    axis at the Hermite endpoint forces a skip.
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    gamma = min(1.0, min(order.nu) + 0.5)
    if gamma < 0.25:
        return {"gamma": gamma, "skipped": True}

    def weighted_sup(n_pts: int) -> float:
        c = np.linspace(0.1, 3.0, n_pts)
        if order.n == 1:
            xs = np.repeat(c, n_pts)
            ys = np.tile(c, n_pts)
        else:
            pts = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)
            sub = pts[:: max(1, pts.shape[0] // 60)]
            xs = np.repeat(sub, sub.shape[0], axis=0)
            ys = np.tile(sub, (sub.shape[0], 1))
        dd = np.linalg.norm(np.atleast_2d(xs.reshape(-1, order.n) - ys.reshape(-1, order.n)), axis=-1)
        keep = dd > 1e-9
        xs = xs.reshape(-1, order.n)[keep]
        ys = ys.reshape(-1, order.n)[keep]
        dd = dd[keep]
        vals = np.abs(riesz_kernel(order, k, xs.squeeze(), ys.squeeze()))
        w = 1.0 + dd / rho(order, xs) + dd / rho(order, ys)
        return float(np.max(vals * dd ** float(order.n) * w**gamma))

    sup_coarse = weighted_sup(coarse)
    sup_fine = weighted_sup(2 * coarse - 1)
    drift = abs(sup_fine - sup_coarse) / sup_fine

    # boundary decay rate along the first axis
    slopes = []
    for y0 in (1.5, 2.5):
        xs = 0.2 * 2.0 ** -np.arange(6, dtype=float)
        if order.n == 1:
            xpts, ypts = xs, np.full_like(xs, y0)
        else:
            xpts = np.column_stack([xs] + [np.full_like(xs, 1.0)] * (order.n - 1))
            ypts = np.column_stack([np.full_like(xs, y0)] + [np.full_like(xs, 1.0)] * (order.n - 1))
        vals = np.abs(riesz_kernel(order, k, xpts, ypts))
        slope = float(np.polyfit(np.log(xs), np.log(vals), 1)[0])
        slopes.append(slope)
    smoothness = min(slopes)

    return {
        "gamma": gamma,
        "skipped": False,
        "size_sup_coarse": sup_coarse,
        "size_sup_fine": sup_fine,
        "size_drift": drift,
        "smoothness_exponent": smoothness,
        "passed": math.isfinite(sup_fine) and drift < drift_tol and smoothness >= gamma - 0.05,
    }
