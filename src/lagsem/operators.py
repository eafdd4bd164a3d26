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

import math
from dataclasses import dataclass

import numpy as np

from .critical import critical_weight
from .grids import Grid, GridFunction, _leggauss, cross_pairs
from .heat import delta_kernel_1d, kernel_1d_closed
from .special import (
    MultiOrder,
    _check_time,
    _points,
    as_order,
    gammaln,
    laguerre_function_table,
)

__all__ = [
    "DEFAULT_KMAX",
    "SpectralCoefficients",
    "analyze",
    "synthesize",
    "eigenvalue_array",
    "semigroup_apply",
    "maximal_function",
    "square_function",
    "default_time_ladder",
    "riesz_multiplier",
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
    return order.degree_eigenvalue(sum(np.ix_(*[np.arange(k_max + 1)] * order.n)))


def _tables(order: MultiOrder, grid: Grid, k_max: int) -> list[np.ndarray]:
    return [
        laguerre_function_table(nu_j, axis.nodes, k_max)
        for nu_j, axis in zip(order.nu, grid.axes)
    ]


def _check_grids(order: MultiOrder, *grids: Grid) -> None:
    """The grid rule: every grid has one axis per component of the order."""
    if any(grid.ndim != order.n for grid in grids):
        raise ValueError("grid dimension does not match the order")


def _per_axis(mats, arr: np.ndarray) -> np.ndarray:
    """arr with axis j contracted against the second axis of mats[j], for every j."""
    for ax, mat in enumerate(mats):
        # contracted axes stack in front, so original axis `ax` stays at `ax`
        arr = np.tensordot(mat, arr, axes=(1, ax))
    return arr.transpose(tuple(reversed(range(arr.ndim))))


def analyze(order: MultiOrder, f: GridFunction, k_max: int = DEFAULT_KMAX) -> SpectralCoefficients:
    """Expansion coefficients <f, phi_k> for all multi-indices up to k_max."""
    order = as_order(order)
    _check_grids(order, f.grid)
    arr = f.values * f.grid.weights_nd()
    return SpectralCoefficients(order, _per_axis(_tables(order, f.grid, k_max), arr))


def synthesize(coeffs: SpectralCoefficients, grid: Grid) -> GridFunction:
    """Evaluate sum_k c_k phi_k on a quadrature grid."""
    order = coeffs.order
    _check_grids(order, grid)
    tables = _tables(order, grid, coeffs.k_max)
    return GridFunction(grid, _per_axis([table.T for table in tables], coeffs.coeffs))


def _kernel_apply(order: MultiOrder, t: float, f: GridFunction, target: Grid) -> np.ndarray:
    """Integrate the product kernel against f at the nodes of ``target``.

    The kernel is a product of 1-D kernels, so the integral factors into
    one (target nodes) x (source nodes) matrix per axis.
    """
    _check_grids(order, f.grid, target)
    kmats = [
        kernel_1d_closed(nu_j, t, ev.nodes[:, None], src.nodes[None, :])
        for nu_j, ev, src in zip(order.nu, target.axes, f.grid.axes)
    ]
    return _per_axis(kmats, f.values * f.grid.weights_nd())


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
    _check_time(t, strict=False)
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


def default_time_ladder(grid: Grid) -> np.ndarray:
    """48 geometric times from twice the coarsest node spacing of ``grid`` to 30."""
    h = max(float(np.diff(ax.nodes).max()) for ax in grid.axes)
    return np.geomspace(2.0 * h, 30.0, 48)


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
        t_grid = default_time_ladder(f.grid)
    t_grid = _check_time(t_grid, strict=True)
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
    target = eval_grid if eval_grid is not None else f.grid
    _check_grids(order, target)
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

    xpts = target.points()
    ypts = f.grid.points()
    wy = f.grid.weights_nd().ravel()
    # squared distances one axis at a time in one scratch matrix, which
    # then holds each level's cone indicator
    d2 = np.zeros((xpts.shape[0], ypts.shape[0]))
    buf = np.empty_like(d2)
    for j in range(xpts.shape[1]):
        d2 += np.square(np.subtract.outer(xpts[:, j], ypts[:, j], out=buf), out=buf)

    acc = np.zeros(xpts.shape[0])
    n = order.n
    for t, w in zip(levels, w_log):
        g = synthesize(coeffs.damped(t * t * lam * np.exp(-t * t * lam)), f.grid)
        g2 = wy * g.values.ravel() ** 2
        inner = np.less(d2, t * t, out=buf) @ g2
        acc += w * t ** (-n) * inner
    return GridFunction(target, np.sqrt(acc).reshape(target.shape))


# ---------------------------------------------------------------------------
# Riesz transforms


def _check_riesz_index(order: MultiOrder, k) -> tuple[int, ...]:
    k = order.index(k)
    if sum(k) == 0:
        raise ValueError("a Riesz transform needs a derivative multi-index with |k| >= 1")
    return k


def _riesz_multipliers(order: MultiOrder, k: tuple, alpha, variant: str) -> np.ndarray:
    """Riesz multipliers at broadcastable target indices alpha_j = m_j - k_j.

    Each value rounds as it would alone: the amplitude takes -2 sqrt(m_j - i)
    for i = 0, 1, ..., and lambda_m^(-|k|/2) is a libm power per distinct
    total degree (numpy's array power differs in the last bit).
    """
    if variant not in ("single_power", "stepwise"):
        raise ValueError("variant must be 'single_power' or 'stepwise'")
    m = [np.asarray(a) + kj for a, kj in zip(alpha, k)]
    degree = sum(m)
    amp = np.ones(np.shape(degree))
    for mj, kj in zip(m, k):
        for i in range(kj):
            amp = amp * (-2.0 * np.sqrt(mj - i))
    if variant == "single_power":
        levels, where = np.unique(degree, return_inverse=True)
        power = [float(order.degree_eigenvalue(int(d))) ** (-sum(k) / 2.0) for d in levels]
        return amp * np.array(power)[where].reshape(amp.shape)
    lam = order.degree_eigenvalue(degree)
    for step in range(sum(k)):
        amp = amp / np.sqrt(lam - 2.0 * step)
    return amp


def riesz_multiplier(order: MultiOrder, k, m, variant: str = "single_power") -> float:
    """Spectral multiplier of the Riesz transform at one source index m.

    single_power divides delta^k phi_m by lambda_m^(|k|/2); stepwise
    interleaves one inverse square root per annihilation step, using the
    eigenvalue of the order-shifted basis reached so far (lambda_m - 2i
    at step i).  Both send phi_m^nu to a multiple of phi_(m-k)^(nu+k).
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    m = order.index(m)
    if any(mj < kj for mj, kj in zip(m, k)):
        raise ValueError("source index must dominate the derivative index")
    return float(_riesz_multipliers(order, k, [mj - kj for mj, kj in zip(m, k)], variant))


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
    mult = _riesz_multipliers(order, k, np.ix_(*[np.arange(k_max + 1)] * order.n), variant)
    src = coeffs.coeffs
    shifted = src[tuple(slice(kj, None) for kj in k)]
    out = np.zeros_like(src)
    out[tuple(slice(0, k_max + 1 - kj) for kj in k)] = shifted
    out = out * mult
    return SpectralCoefficients(order.shifted(k), out)


def _pair_arrays(order: MultiOrder, x, y):
    """Point pairs as (N, n) rows, their distances, and the pairs' broadcast leading shape."""
    x, y = np.broadcast_arrays(*_points(order.n, x, y))
    xx, yy = x.reshape(-1, order.n), y.reshape(-1, order.n)
    return xx, yy, np.linalg.norm(xx - yy, axis=-1), x.shape[:-1]


_GAP_CUTOFF = 60.0
# (node, row) elements per delta_kernel_1d call of the Riesz ladder: 128 KB
# per temporary
_BLOCK = 2**14


def _distinct_rows(cols):
    """Distinct rows of equal-length columns, sorted first column first, and each row's index.

    The rows come back as contiguous columns.  This is
    np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True), whose
    sort of rows as opaque records took 18 ms on 10,620 rows of three
    columns, where this lexsort takes 1 ms (2 vCPU, numpy 2.4).
    """
    by_row = np.lexsort(cols[::-1])
    cols = [c[by_row] for c in cols]
    repeat = np.ones(by_row.size - 1, dtype=bool)
    for c in cols:
        repeat &= c[1:] == c[:-1]
    first = np.concatenate(([True], ~repeat))
    inv = np.empty(by_row.size, dtype=np.intp)
    inv[by_row] = np.cumsum(first) - 1
    return [c[first] for c in cols], inv


def _riesz_time_integral(order: MultiOrder, k, x, y, t_shift=0.0):
    """(1/Gamma(|k|/2)) int_0^inf t^(|k|/2 - 1) delta^k p_(t + shift) dt.

    The shift is a scalar or broadcasts against the pairs' leading shape.  The
    substitution t = v^2 makes the integrand smooth through t = 0 for
    off-diagonal pairs, and geometric panels in v resolve every pair scale
    at once.  They run from d_min/16 to the cutoff lam0 t >= 60, with
    lam0 = 2|nu| + 2n the bottom of the spectrum: for large t the
    integrand decays like e^(-lam0 (shift + t)), so past the cutoff it is
    below e^(-60) times its size at t = 0 of the same decay, whatever the
    shift, and later panels could not change the sum.

    Each axis factor delta^(k_j) p^(nu_j) depends on the pair only through
    its distinct row (x_j, y_j), or (shift, x_j, y_j) for one shift per
    pair, so it is evaluated once per distinct row.  The ladder is walked
    in blocks of nodes, one ``delta_kernel_1d`` call per axis and block on
    (nodes, rows), with at most ``_BLOCK`` elements per call unless one
    node alone has more rows.  Every element sees the same (t, x_j, y_j)
    as a per-node call on all pairs, and each node's product is formed in
    axis order and added in ladder order, as ``axis_product`` does, so the
    sum is the same bit for bit.  (A block's ``ive`` batch spans several
    nodes; its batch-wide stops leave every bit as a full sum would.)
    """
    xx, yy, d, shape = _pair_arrays(order, x, y)
    if np.any(d < 1e-9):
        raise ValueError("the kernel is singular on the diagonal; x and y must differ")
    try:
        shift = np.broadcast_to(t_shift, shape or (1,)).ravel() if np.ndim(t_shift) else None
    except ValueError:
        raise ValueError("time must be a scalar or one time per point pair") from None
    if d.size == 0:
        return np.zeros(shape)
    lam0 = order.degree_eigenvalue(0)
    bounds = [0.0, max(float(d.min()) / 16.0, 1e-6)]
    while lam0 * bounds[-1] ** 2 < _GAP_CUTOFF:
        bounds.append(bounds[-1] * 2.0)
    nodes, weights = _leggauss(16)
    # (t, weight * dt/dv * t^(|k|/2 - 1)) per node; the power is taken per
    # scalar node, because numpy's array power can differ in the last bit
    ladder = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        vs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        ladder += [(v * v, w * 2.0 * v ** (sum(k) - 1)) for v, w in zip(vs, ws)]
    times = np.array([t for t, _ in ladder])
    # rows (shift, x_j, y_j) sort time-major, as sample sets come, so the
    # branch masks of ive keep their long runs
    rows, pair_row = zip(*(
        _distinct_rows((xx[:, j], yy[:, j]) if shift is None else (shift, xx[:, j], yy[:, j]))
        for j in range(order.n)
    ))
    block = max(1, _BLOCK // max(len(r[0]) for r in rows))
    total = np.zeros(d.shape)
    for start in range(0, len(ladder), block):
        t_block = times[start : start + block, None]
        factors = [
            delta_kernel_1d(nu, m, (t_shift if shift is None else r[0]) + t_block, r[-2], r[-1])
            for nu, m, r in zip(order.nu, k, rows)
        ]
        for i, (_, c) in enumerate(ladder[start : start + block]):
            val = factors[0][i][pair_row[0]]
            for j in range(1, order.n):
                val = val * factors[j][i][pair_row[j]]
            total += c * val
    total *= math.exp(-gammaln(sum(k) / 2.0))
    return total.reshape(shape) if shape else float(total[0])


def riesz_kernel(order: MultiOrder, k, x, y):
    """Off-diagonal Riesz kernel of delta^k L^(-|k|/2) over broadcast point arrays x, y."""
    order = as_order(order)
    k = _check_riesz_index(order, k)
    return _riesz_time_integral(order, k, x, y, t_shift=0.0)


def riesz_heat_composite_kernel(order: MultiOrder, k, t, x, y):
    """Kernel of the Riesz transform composed with e^(-tL).

    Equals the Riesz kernel with every heat time shifted by t, so it tends
    to riesz_kernel as t -> 0 and is bounded by the same size estimates
    uniformly in t.  t is one time for all pairs or broadcasts against
    them, so a sample set with one time per pair takes one call.
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    t = _check_time(t, strict=False)
    return _riesz_time_integral(order, k, x, y, t_shift=t if t.ndim else float(t))


def verify_cz_smoothness(order: MultiOrder, k) -> dict:
    """Size and smoothness diagnostics for the Riesz kernel of a 1-D order.

    Checks that the weighted size quantity |K| d W^gamma has a finite sup
    over all pairs of a lattice that drifts by less than 5% from 25 to 49
    points, and that the kernel vanishes at the boundary at least like
    the Hoelder rate gamma = min(1, min_j nu_j + 1/2), measured by log-log
    regression along a ray x -> 0.  Orders with gamma below 1/4 are
    skipped: the stated rate is then too degenerate for a stable
    regression.  This uses the raw minimum over all axes, not the
    active-set convention, so any axis at the Hermite endpoint forces a
    skip.  Orders of dimension 2 or more that are not skipped raise a
    ValueError: a lattice fine enough to locate the sup in n-D has too
    many pairs to evaluate.
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    gamma = min(1.0, min(order.nu) + 0.5)
    if gamma < 0.25:
        return {"gamma": gamma, "skipped": True}
    if order.n > 1:
        raise ValueError(
            "verify_cz_smoothness covers 1-D orders only; a lattice fine enough "
            "to locate the size sup in more than 1 dimension has too many pairs"
        )

    def weighted_sup(n_pts: int) -> float:
        pts = np.linspace(0.1, 3.0, n_pts)
        xs, ys = cross_pairs(pts, pts)
        keep = xs != ys
        xs, ys = xs[keep], ys[keep]
        dd = np.abs(xs - ys)
        vals = np.abs(riesz_kernel(order, k, xs, ys))
        return float(np.max(vals * dd * critical_weight(order, dd, xs, ys) ** gamma))

    sup_coarse = weighted_sup(25)
    sup_fine = weighted_sup(49)
    drift = abs(sup_fine - sup_coarse) / sup_fine

    # boundary decay rate along a ray x -> 0
    xs = 0.2 * 2.0 ** -np.arange(6, dtype=float)
    slopes = []
    for y0 in (1.5, 2.5):
        vals = np.abs(riesz_kernel(order, k, xs, np.full_like(xs, y0)))
        slopes.append(float(np.polyfit(np.log(xs), np.log(vals), 1)[0]))
    smoothness = min(slopes)

    return {
        "gamma": gamma,
        "skipped": False,
        "size_sup_coarse": sup_coarse,
        "size_sup_fine": sup_fine,
        "size_drift": drift,
        "smoothness_exponent": smoothness,
        "passed": math.isfinite(sup_fine) and drift < 0.05 and smoothness >= gamma - 0.05,
    }
