"""Operators built on the Laguerre expansion.

Spectral analysis/synthesis against the eigenfunction basis, the
semigroup in spectral and kernel form, the vertical maximal function,
the area square function, and Riesz transforms.  The Riesz transform is
available three ways: as a spectral multiplier (two variants that differ
by an exact eigenvalue factor), as an off-diagonal kernel obtained from
the time integral of derivative heat kernels, and composed with an extra
semigroup smoothing step.  Kernels and their bounds come from ``heat``,
asked for by point and time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .critical import critical_weight
from .grids import Grid, GridFunction, _leggauss, cross_pairs
from .heat import (
    _axis_factors,
    _certified,
    _flat_pairs,
    _ladder_sum,
    _maximal_rows,
    delta_kernel_1d,
    kernel_1d_closed,
)
from .special import MultiOrder, _check_time, as_order, gammaln, laguerre_function_table

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


def _analysis(tables, f: GridFunction) -> np.ndarray:
    """<f, phi_k> from the per-axis tables of f's grid."""
    return _per_axis(tables, f.values * f.grid.weights_nd())


def _synthesis(tables, coeffs: np.ndarray) -> np.ndarray:
    """sum_k c_k phi_k at the nodes of the per-axis tables."""
    return _per_axis([table.T for table in tables], coeffs)


def analyze(order: MultiOrder, f: GridFunction, k_max: int = DEFAULT_KMAX) -> SpectralCoefficients:
    """Expansion coefficients <f, phi_k> for all multi-indices up to k_max."""
    order = as_order(order)
    _check_grids(order, f.grid)
    return SpectralCoefficients(order, _analysis(_tables(order, f.grid, k_max), f))


def synthesize(coeffs: SpectralCoefficients, grid: Grid) -> GridFunction:
    """Evaluate sum_k c_k phi_k on a quadrature grid."""
    order = coeffs.order
    _check_grids(order, grid)
    return GridFunction(grid, _synthesis(_tables(order, grid, coeffs.k_max), coeffs.coeffs))


def _kernel_matrices(order: MultiOrder, times: np.ndarray, source: Grid, target: Grid):
    """Per-axis kernel matrices at each of ``times``, one tuple per time.

    The kernel is a product of 1-D kernels, so its integral against a grid
    function factors into one (target nodes) x (source nodes) matrix per
    axis: ``kernel_1d_closed`` on rows (target node, every source node).
    """
    _check_grids(order, source, target)
    return _axis_factors(times, [
        (partial(kernel_1d_closed, nu), (ev.nodes[:, None], src.nodes[None, :]))
        for nu, ev, src in zip(order.nu, target.axes, source.axes)
    ])


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
    t = _check_time(t, strict=False)
    if t.size != 1:
        raise ValueError("semigroup_apply takes one time")
    t = t.item()
    target = eval_grid if eval_grid is not None else f.grid
    if method == "spectral":
        coeffs = analyze(order, f, k_max)
        lam = coeffs.eigenvalues()
        return synthesize(coeffs.damped(np.exp(-t * lam)), target)
    if method == "kernel":
        if t == 0.0:
            raise ValueError("the kernel route needs t > 0")
        (mats,) = _kernel_matrices(order, np.array([t]), f.grid, target)
        return GridFunction(target, _per_axis(mats, f.values * f.grid.weights_nd()))
    raise ValueError("method must be 'spectral' or 'kernel'")


def default_time_ladder(grid: Grid) -> np.ndarray:
    """48 geometric times from twice the coarsest node spacing of ``grid`` to 30.

    Every axis needs at least two nodes, or it has no spacing.
    """
    if any(n < 2 for n in grid.shape):
        raise ValueError(
            f"default_time_ladder needs at least two nodes per axis, got grid shape {grid.shape}"
        )
    h = max(float(np.diff(ax.nodes).max()) for ax in grid.axes)
    return np.geomspace(2.0 * h, 30.0, 48)


def maximal_function(
    order: MultiOrder,
    f: GridFunction,
    t_grid=None,
    eval_grid: Grid | None = None,
) -> GridFunction:
    """Vertical maximal function sup_t |e^(-t^2 L) f| on a time grid.

    ``t_grid`` is one time or a 1-D array of at least one; it defaults to
    ``default_time_ladder(f.grid)``.  Uses the closed-form kernel, so it
    stays accurate for data that lives far below the spectral cutoff
    scale.  Kernels narrower than the node spacing of the source grid
    cannot be integrated accurately, so the default time ladder starts at
    twice the coarsest spacing; the small-t endpoint then recovers |f| up
    to O(spacing^2) damping.

    The result is the maximum over the times of the closed-form values
    |e^(-sL) f|(x), s = t^2, bit for bit.  On large 1-D ladders
    (``_prunes``) heat bounds every value first and draws the kernel only
    at the (time, target point) pairs that may set the maximum
    (``heat._maximal_rows``).
    """
    order = as_order(order)
    if t_grid is None:
        t_grid = default_time_ladder(f.grid)
    t_grid = np.atleast_1d(_check_time(t_grid, strict=True))
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be one time or a 1-D array of at least one time")
    target = eval_grid if eval_grid is not None else f.grid
    _check_grids(order, f.grid, target)
    arr = f.values * f.grid.weights_nd()
    times = t_grid * t_grid
    best = np.zeros(target.shape)
    if _prunes(order, times, f.grid, target):
        (x,), (y,) = target.axes, f.grid.axes
        mats = ((mat,) for mat in _maximal_rows(order, times, x.nodes, y.nodes, arr, best))
    else:
        mats = _kernel_matrices(order, times, f.grid, target)
    for m in mats:
        np.maximum(best, np.abs(_per_axis(m, arr)), out=best)
    return GridFunction(target, best)


# ``maximal_function`` prunes in 1-D on heat's certified range when the ladder
# has more than one time and at least _PRUNE_ELEMENTS kernel elements (times
# x target nodes x source nodes).  Against the full loop (BENCH_22.json
# `boundary`) the pass took 0.44-0.98 of its time at or above 2^18 elements
# and 1.02-8.4 below.  In n-D the contraction, which the pass does not
# shrink, dominates (81 against 51 ms on a 256 x 256 grid at 8 times).
_PRUNE_ELEMENTS = 2**18


def _prunes(order: MultiOrder, times: np.ndarray, source: Grid, target: Grid) -> bool:
    """Whether ``maximal_function`` bounds its values first (``heat._maximal_rows``).

    The bounds cost about one or two times of the full matrix on the
    384-node benchmark grid; they pay where the ladder has many elements.
    """
    if order.n != 1:
        return False
    (x,), (y,) = target.axes, source.axes
    return (
        times.size > 1
        and times.size * x.nodes.size * y.nodes.size >= _PRUNE_ELEMENTS
        and _certified(order.nu, x.nodes, y.nodes)
    )


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

    The cone runs over ``n_levels`` >= 2 geometric levels from ``t_lo``
    to ``t_hi``, which must satisfy 0 < t_lo < t_hi < inf; they default to
    0.03 / sqrt(lambda_max) and 5 / sqrt(lambda_min) of the coefficient
    grid up to ``k_max``.  Cost: the per-axis Laguerre tables of f's grid
    and the (eval points) x (source points) squared distances are built
    once per call; each level then does one synthesis on f's grid and one
    cone mat-vec.
    """
    order = as_order(order)
    target = eval_grid if eval_grid is not None else f.grid
    _check_grids(order, f.grid, target)
    if n_levels < 2:
        raise ValueError("the cone needs n_levels >= 2")
    tables = _tables(order, f.grid, k_max)
    coeffs = _analysis(tables, f)
    lam = eigenvalue_array(order, k_max)
    lam_min = float(lam.min())
    lam_max = float(lam.max())
    if t_lo is None:
        t_lo = 0.03 / math.sqrt(lam_max)
    if t_hi is None:
        t_hi = 5.0 / math.sqrt(lam_min)
    if not 0.0 < t_lo < t_hi < math.inf:
        raise ValueError("cone truncation needs 0 < t_lo < t_hi < inf")
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

    factor = np.empty_like(lam)
    damped = np.empty_like(lam)
    acc = np.zeros(xpts.shape[0])
    n = order.n
    for t, w in zip(levels, w_log):
        # t * t * lam * exp(-t * t * lam) in the operation order of that
        # expression, so every element rounds as it would there
        np.exp(np.multiply(-t * t, lam, out=damped), out=damped)
        np.multiply(np.multiply(t * t, lam, out=factor), damped, out=factor)
        g2 = wy * _synthesis(tables, np.multiply(coeffs, factor, out=damped)).ravel() ** 2
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


_GAP_CUTOFF = 60.0


def _riesz_time_integral(order: MultiOrder, k, t, x, y):
    """(1/Gamma(|k|/2)) int_0^inf s^(|k|/2 - 1) delta^k p_(t + s) ds.

    t is one time or broadcasts with the pairs, as in ``heat._flat_pairs``.
    The substitution s = v^2 makes the integrand smooth through s = 0 for
    off-diagonal pairs, and geometric panels in v resolve every pair scale
    at once.  They run from d_min/16 to the cutoff lam0 s >= 60, with
    lam0 = 2|nu| + 2n the bottom of the spectrum: for large s the
    integrand decays like e^(-lam0 (t + s)), so past the cutoff it is
    below e^(-60) times its size at s = 0 of the same decay, whatever t,
    and later panels could not change the sum.

    Each pair sums over its own window of the panels (``heat._ladder_sum``):
    it skips the leading panels on which its heat kernel stays below
    e^(-90) of its largest value on the ladder, so a skipped term of
    delta^k p lies far below half an ulp of the pair's largest term.  That
    the sum keeps every bit is not proved by this (for odd k the terms
    change sign); the tests and report digests check it against the full
    ladder.

    The ladder starts at the batch's d_min / 16, so a pair's value depends
    on the other pairs of its call: its nodes move with d_min, and near
    the diagonal the integrand holds the cancellation that
    ``heat.evaluate_expansion`` states, so the rounding moves with them.
    On the 10,100 ``riesz-size`` pairs of order 1/2, a pair evaluated
    alone differs from its batch value by up to 7.9e-15 relative at k = 1
    (2.5e-15 of |x - y|^-1), and at k = 2 by up to 8.3e-10 relative, which
    is 8.0e-13 of |x - y|^-1, at x = 4.0, y = 3.9605 (kernel 0.0244).
    Adaptive quadrature of the same integrand lies 1.6e-12 relative from
    the single-pair value there.
    """
    t, x, y, shape = _flat_pairs(order.n, t, x, y)
    d = np.linalg.norm(x - y, axis=-1)
    if np.any(d < 1e-9):
        raise ValueError("the kernel is singular on the diagonal; x and y must differ")
    lam0 = order.degree_eigenvalue(0)
    # an empty batch takes the ladder of unit distance
    bounds = [0.0, max((float(d.min()) if d.size else 1.0) / 16.0, 1e-6)]
    while lam0 * bounds[-1] ** 2 < _GAP_CUTOFF:
        bounds.append(bounds[-1] * 2.0)
    nodes, weights = _leggauss(16)
    # (s, weight * ds/dv * s^(|k|/2 - 1)) per node; the power is taken per
    # scalar node, because numpy's array power can differ in the last bit
    ladder = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        vs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        ladder += [(v * v, w * 2.0 * v ** (sum(k) - 1)) for v, w in zip(vs, ws)]
    offsets, coefs = zip(*ladder)
    factors = [partial(delta_kernel_1d, nu, m) for nu, m in zip(order.nu, k)]
    out = _ladder_sum(order.nu, t, x, y, factors, offsets, coefs, np.array(bounds))
    out *= math.exp(-gammaln(sum(k) / 2.0))
    return out.reshape(shape) if shape else float(out[0])


def riesz_kernel(order: MultiOrder, k, x, y):
    """Off-diagonal Riesz kernel of delta^k L^(-|k|/2) over broadcast point arrays x, y.

    A pair's value depends on the other pairs of the call, by up to 8.0e-13
    of |x - y|^-n on the standard 1-D sample set (``_riesz_time_integral``).

    Accuracy is established on the sample box [0.05, 4] of the bound
    families only, where the ladder matches adaptive quadrature to 1e-13
    relative (``test_riesz_ladder_matches_adaptive_quadrature_on_short_spans``).
    Outside it the ladder's first panel, [0, d_min/16], can hold the peak
    of the integrand in v and miss it: at order 1/2, k = 1, the pair
    (30, 4) alone reads +2.19e-195 where the integral is -1.656e-195.
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    return _riesz_time_integral(order, k, 0.0, x, y)


def riesz_heat_composite_kernel(order: MultiOrder, k, t, x, y):
    """Kernel of the Riesz transform composed with e^(-tL).

    Equals the Riesz kernel with every heat time shifted by t, so it tends
    to riesz_kernel as t -> 0 and is bounded by the same size estimates
    uniformly in t.  t is one time for all pairs or broadcasts against
    them, so a sample set with one time per pair takes one call.  Its
    accuracy is established on the sample box [0.05, 4] only, as for
    ``riesz_kernel``, whose ladder it shares.
    """
    order = as_order(order)
    k = _check_riesz_index(order, k)
    return _riesz_time_integral(order, k, _check_time(t, strict=False), x, y)


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
