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
from functools import partial

import numpy as np

from .critical import critical_weight
from .grids import Grid, GridFunction, _leggauss, cross_pairs
from .heat import (
    _BLOCK,
    _CLOSED_REL,
    _FLOOR,
    _UNIT,
    _axis_factors,
    _block_majorant,
    _diagonal_bounds,
    _envelope,
    _exponents,
    _flat_pairs,
    _kernel_1d,
    _log_kernel_bound,
    _pair_rows,
    _row_products,
    _tail_bound,
    _time_factors,
    delta_kernel_1d,
    kernel_1d_closed,
)
from .special import (
    _TABLE_REL,
    MAX_DEGREE,
    MultiOrder,
    _check_time,
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
    (``_prunes``) an eigen-sum pass and a majorant of the kernel first
    bound every one of them from above and below (``_value_bounds``); the
    kernel is then drawn only at the (time, target point) pairs whose
    upper bound reaches the largest lower bound or value found so far at
    the point.  Every other value is provably below the maximum and is not
    needed.
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
    if not _prunes(order, times, f.grid, target):
        for mats in _kernel_matrices(order, times, f.grid, target):
            np.maximum(best, np.abs(_per_axis(mats, arr)), out=best)
        return GridFunction(target, best)
    (nu,), (x,), (y,) = order.nu, target.axes, f.grid.axes
    lower, uppers = _value_bounds(order, times, y.nodes, x.nodes, arr)
    lower = np.max(lower, axis=0)
    # rows not drawn at a time hold 0 or the row of an earlier time, whose
    # value is already in best
    mat = np.zeros((x.nodes.size, y.nodes.size))
    for s, upper in zip(times, uppers):
        # where the upper bound lies below a lower bound of the maximum the
        # value cannot set it; NaN is drawn
        need = np.flatnonzero(~(upper < np.maximum(best, lower)))
        if need.size:
            _draw_rows(nu, s, x.nodes, y.nodes, need, mat)
            np.maximum(best, np.abs(_per_axis((mat,), arr)), out=best)
    return GridFunction(target, best)


# ``maximal_function`` prunes in 1-D when the ladder has more than one time
# (one time has nothing to skip) and at least _PRUNE_ELEMENTS kernel
# elements over all of it (times x target nodes x source nodes).  Its
# bounds also need the order at most 150, the range of ive's stated
# accuracy (``heat._CLOSED_REL``), and every node at most 30, the range of
# the Laguerre tables' measured accuracy (``special._TABLE_REL``).  Timed
# in one process against the full loop (BENCH_22.json `boundary`), the
# pass was faster in every case measured at or above 2^18 elements: 0.98
# at 384 x 384 nodes and 2 times, 0.66 at 256 x 256 and 4, 0.44 at
# 128 x 128 and 16, 0.71 and 0.59 on the atoms of ``hardy_norm_maximal``
# with 192 and 288 x 48 nodes at 40 times.  Every loss lay below it: 1.3-1.9
# at one time, 1.32 at 256 x 256 and 2 times, 1.02 at 360 x 360 and 2, and
# 1.27-8.4 on the 96 x 48 atom at 2-40 times.  In 2-D and 3-D the
# contraction, which the pass does not shrink, dominates: on a 256 x 256
# grid a product form of the pass cost 81 against 51 ms at 8 times and
# 429 against 444 ms at 48, so n-D grids keep the full loop.
_PRUNE_ELEMENTS = 2**18
_PRUNE_ORDER = 150.0
_PRUNE_NODE = 30.0


def _prunes(order: MultiOrder, times: np.ndarray, source: Grid, target: Grid) -> bool:
    """Whether ``maximal_function`` bounds its values by an eigen-sum pass first.

    The pass (the Laguerre tables, the closed-form diagonal at every time
    and its halvings, the eigen-sums and the majorant) costs about as much
    as one or two times of the full matrix on the 384-node benchmark
    grid; it pays where the ladder has many kernel elements.
    """
    if order.n != 1:
        return False
    (nu,), (x,), (y,) = order.nu, target.axes, source.axes
    return (
        times.size > 1
        and times.size * x.nodes.size * y.nodes.size >= _PRUNE_ELEMENTS
        and nu <= _PRUNE_ORDER
        and max(x.nodes.max(), y.nodes.max()) <= _PRUNE_NODE
    )


def _value_bounds(order: MultiOrder, times: np.ndarray, y: np.ndarray, x: np.ndarray, arr: np.ndarray):
    """Bounds on the 1-D closed-form values C_s(x) = |e^(-sL) f|(x) that ``maximal_function`` takes.

    ``y`` and ``x`` are the source and target nodes, ``arr`` f times the
    source weights.  Returns (lower, upper), each of shape (times, x), with
    lower <= |C_s(x)| <= upper.  Both come from the eigen-sum
    E_s(x) = sum_k e^(-s lambda_k) phi_k(x) <phi_k, f> over k <= K =
    MAX_DEGREE: |E_s(x)| plus or minus a margin.  The margin bounds three
    errors, doubled for the rounding of the bound itself:

    - the truncated tail.  The tail T(x) past K of the diagonal eigen-sum
      is read by ``heat._tail_bound`` from the closed-form diagonal at
      s/2^i, so by Cauchy-Schwarz the tail's part of the value at x is at
      most sqrt(T(x)) times sqrt(T(y)) summed against |f| w;
    - rounding and table error of the eigen-sum: gamma times Q_s(x), the
      same eigen-sum of moduli with each table entry raised by
      ``heat._envelope``;
    - the closed form's own error: ``heat._CLOSED_REL`` and the rounding
      of its contraction, times a bound on e^(-sL)(|f| w), 2 Q_s plus the
      tail part.

    The upper bound is also at most ``_majorant`` of |f| w, raised by the
    closed form's own error, which is far smaller where the eigen-sum's
    tail is not: at small s, away from f's support.  An absolute floor
    covers underflow.
    """
    (nu,) = order.nu
    a = np.abs(arr)
    # the tables' error, the contractions and the damping e^(-s lambda_k),
    # whose exponent, while the damping is not below the floor, is under 750
    gamma = 2.0 * (2 * _TABLE_REL + _UNIT * (y.size + MAX_DEGREE + 1 + 2 * 750 + 4))
    closed = 2.0 * (_CLOSED_REL + _UNIT * (y.size + 2))

    def per_node(nodes):
        # the table, its envelope, and the tail factor sqrt(T) at every time
        diag = _diagonal_bounds(nu, times, nodes)
        tail = np.sqrt(_tail_bound(diag, times, order.degree_eigenvalue(MAX_DEGREE + 1)))
        table = laguerre_function_table(nu, nodes, MAX_DEGREE)
        return table, _envelope(nu, nodes, table, gamma), tail

    tab_y, env_y, tail_y = per_node(y)
    tab_x, env_x, tail_x = (tab_y, env_y, tail_y) if x is y else per_node(x)
    damp = np.exp(-np.multiply.outer(eigenvalue_array(order, MAX_DEGREE), times))
    value = np.abs(((tab_y @ arr)[:, None] * damp).T @ tab_x)
    moduli = ((env_y @ a)[:, None] * damp).T @ env_x
    tail = tail_x * (tail_y @ a)[:, None]
    floor = _FLOOR * (1.0 + a.sum())
    margin = 2.0 * ((gamma + 2.0 * closed) * moduli + (1.0 + closed) * tail) + floor
    lower, upper = value - margin, value + margin
    # the majorant only at the times where these bounds leave a point open
    open_ = np.flatnonzero(~(upper < lower.max(axis=0)).all(axis=1))
    if open_.size:
        majorant = (1.0 + 2.0 * closed) * _majorant(nu, times[open_], y, x, a) + floor
        upper[open_] = np.minimum(upper[open_], majorant)
    return lower, upper


# Consecutive source nodes per block of ``_majorant``: on the 384-node
# benchmark grid, blocks of 8, 16, 32 and 96 nodes left 470, 490, 620 and
# 1,130 of 6,144 (time, row) pairs drawn (seeds 1, 2, 5, 7), against 1,430
# with no majorant.
_MAJORANT_NODES = 16


def _majorant(nu: float, times: np.ndarray, y: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Upper bounds on sum_y p_s(x, y) a(y), a >= 0 at the source nodes y, per time of ``times`` and target node.

    The source nodes fall into blocks of _MAJORANT_NODES consecutive
    nodes; ``heat._block_majorant`` bounds the kernel over each block's
    span, and the bounds are contracted with the block sums of a.  The
    walker ``heat._axis_factors`` draws them.
    """
    starts = np.arange(0, y.size, _MAJORANT_NODES)
    # a block of no mass adds nothing, and where its bound is +inf it would add NaN
    sums = np.add.reduceat(a, starts)
    mass = sums > 0.0
    x, lo, hi = x[:, None], np.minimum.reduceat(y, starts)[mass], np.maximum.reduceat(y, starts)[mass]
    cols, sums = (x - np.clip(x, lo, hi), x * lo, np.log(x * hi)), sums[mass]
    return np.array([mat @ sums for (mat,) in _axis_factors(times, [(partial(_block_majorant, nu), cols)])])


def _draw_rows(nu: float, s: float, x: np.ndarray, y: np.ndarray, rows: np.ndarray, mat: np.ndarray) -> None:
    """Set ``rows`` of ``mat`` to kernel_1d_closed(nu, s, x[rows], y).

    The rows go in tiles of at most ``heat._BLOCK`` elements, as
    ``heat._axis_factors`` draws them; each value is that of a call on
    every row.  Rows stay in place, so the contraction of ``mat`` rounds
    as it does on the full matrix.
    """
    t = np.array([[s]])
    step = max(1, _BLOCK // y.size)
    for lo in range(0, rows.size, step):
        r = rows[lo:lo + step]
        mat[r] = kernel_1d_closed(nu, t, x[r, None], y[None, :])


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

# A pair skips the leading v panels on which an upper bound of its heat
# kernel (``heat._log_kernel_bound``) lies more than this far in the log
# below the kernel itself at one panel end: a skipped kernel value is below
# e^(-90) ~ 8e-40 of the pair's largest one, 23 decades under the half ulp
# 2^(-53) ~ 1.1e-16, which leaves room for the factors polynomial in s, v,
# x and y that the derivative delta^k and the quadrature weights add.  The
# margin is relative, since far pairs are tiny themselves.
_WINDOW_EXPONENT = 90.0


def _first_panels(order: MultiOrder, t, rows, pair_row, bounds):
    """Per pair, the first panel of the v-ladder ``bounds`` that ``_riesz_time_integral`` sums.

    t, ``rows`` and ``pair_row`` are the pairs as ``heat._flat_pairs`` and
    ``heat._pair_rows`` give them.  The sum over axes of
    ``heat._log_kernel_bound``, drawn per row, bounds the log of the pair's
    kernel p_(t + v^2) from above and has one maximum in v.  The kernel's
    true log at the panel end where the bound is largest is at most its
    largest value, and the pair skips the leading panels whose bound at
    their upper end lies more than ``_WINDOW_EXPONENT`` below that log.
    These come before the bound's maximum, where the bound rises, so every
    node of a skipped panel lies below its panel's upper end.  Only pairs
    whose Gaussian exponent rises by the margin along the ladder are
    estimated, and a pair whose bound is not finite somewhere skips
    nothing.
    """
    ends = np.square(bounds[1:, None])
    axes = [(nu, t_col[0] if t_col else t, x_row, y_row, at)
            for nu, (*t_col, x_row, y_row), at in zip(order.nu, rows, pair_row)]
    # the rest of the bound falls in v, so a pair whose Gaussian exponent
    # rises by less than the margin along the whole ladder skips nothing
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
        # the rows of the far pairs, and each far pair's row among them
        used = np.zeros(x_row.size, dtype=bool)
        used[at[far]] = True
        at = np.cumsum(used)[at[far]] - 1
        s = ends + (t_row[used] if t_row.ndim else t_row)
        x_row, y_row = x_row[used], y_row[used]
        with np.errstate(divide="ignore"):
            log_xy = np.log(x_row * y_row)
        per_row = _log_kernel_bound(nu, _time_factors(s), x_row - y_row, x_row, y_row, log_xy).T
        # a row whose bound is not finite somewhere is +inf throughout, so
        # that its pairs skip nothing
        per_row[~np.isfinite(per_row).all(axis=1)] = np.inf
        bound += np.take(per_row, at, axis=0)
        drawn.append((nu, np.broadcast_to(s, per_row.shape[::-1]), x_row, y_row, at))
    peak = np.argmax(bound, axis=1)
    value = 0.0
    for nu, s, x_row, y_row, at in drawn:
        # the kernel once per (row, peak panel) the pairs need
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

    Each pair sums over its own window of the panels (``_first_panels``):
    it skips the leading panels on which its heat kernel stays below
    e^(-90) of its largest value on the ladder.  The derivative delta^k and
    the quadrature weights add factors polynomial in s, v, x and y, so a
    skipped term lies far below half an ulp of the pair's largest term.
    That the sum keeps every bit is not proved by this: the full ladder
    adds the skipped terms to its running sum first, and for odd k the
    terms change sign, so the sum can be smaller than its largest term.
    The tests and report digests check it against the full ladder.  The
    pairs are sorted by their first node, and ``heat._row_products`` draws
    the products of the axis factors delta^(k_j) p^(nu_j) at t + s for the
    prefix of pairs that need each node, from rows split once for the
    window estimate and the sum; each pair adds its terms in ladder order.
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
    rows, pair_row = _pair_rows(t, x, y)
    first = _first_panels(order, t, rows, pair_row, np.array(bounds)) * len(nodes)
    by_first = np.argsort(first, kind="stable")
    pair_row = [p[by_first] for p in pair_row]
    factors = [partial(delta_kernel_1d, nu, m) for nu, m in zip(order.nu, k)]
    total = np.zeros(first.size)
    for c, val in zip(coefs, _row_products(t, rows, pair_row, factors, offsets, first[by_first])):
        total[: val.size] += c * val
    total *= math.exp(-gammaln(sum(k) / 2.0))
    out = np.empty_like(total)
    out[by_first] = total
    return out.reshape(shape) if shape else float(out[0])


def riesz_kernel(order: MultiOrder, k, x, y):
    """Off-diagonal Riesz kernel of delta^k L^(-|k|/2) over broadcast point arrays x, y."""
    order = as_order(order)
    k = _check_riesz_index(order, k)
    return _riesz_time_integral(order, k, 0.0, x, y)


def riesz_heat_composite_kernel(order: MultiOrder, k, t, x, y):
    """Kernel of the Riesz transform composed with e^(-tL).

    Equals the Riesz kernel with every heat time shifted by t, so it tends
    to riesz_kernel as t -> 0 and is bounded by the same size estimates
    uniformly in t.  t is one time for all pairs or broadcasts against
    them, so a sample set with one time per pair takes one call.
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
