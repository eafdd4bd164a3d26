"""Heat kernels of the Laguerre operator and their derivative expansions.

The 1-D kernel has a closed form in terms of a scaled modified Bessel
function; the n-D kernel is the product over axes.  First-order
annihilation derivatives obey a two-term recurrence that shifts the
Bessel order up by one, so any composition of annihilation, creation and
plain partial derivatives expands into a finite signed sum of terms

    coef * r^(h/2) * (1-r)^(-s) * x^a * y^d * p_t^(nu+j)(x, y),

with r = exp(-4t).  The expansion is computed symbolically once per
operator word and order, cached, and then evaluated with vectorized
kernel calls.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .special import (
    _TABLE_ABS,
    _TABLE_REL,
    MultiOrder,
    _check_order,
    _check_space,
    _check_time,
    _multi_index,
    _points,
    as_order,
    ive,
    laguerre_function_table,
)

__all__ = [
    "kernel_1d_closed",
    "kernel_1d_raw",
    "kernel_nd",
    "axis_product",
    "kernel_spectral",
    "delta_kernel",
    "delta_kernel_1d",
    "partial_delta_kernel_1d",
    "shifted_adjoint_kernel_1d",
    "operator_expansion",
    "evaluate_expansion",
]


def _check_1d_domain(t, x, y):
    """t, x and y as float arrays, or ValueError unless t lies in (0, inf] and x, y in (0, inf).

    t = inf is allowed: the kernel is 0 there, its t -> inf limit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    t = _check_time(t, strict=True, inf_ok=True)
    _check_space(x, y)
    return t, x, y


def _time_factors(t):
    """t, r = exp(-4t), sqrt(r), 1 - r and 1 - sqrt(r) on t's own shape.

    The differences use expm1, accurate for small t.  All are computed
    before any broadcast against the space arguments, once per time rather
    than once per pair.  The arrays are at least 1-d:
    numpy's float64 scalar ``**`` goes through libm pow, which differs from
    the array loop in the last bit for some inputs.
    """
    t = np.atleast_1d(t)
    return t, np.exp(-4.0 * t), np.exp(-2.0 * t), -np.expm1(-4.0 * t), -np.expm1(-2.0 * t)


def _exponents(factors, gap, x, y):
    """The Gaussian exponent at ``gap`` and the cross exponent at x y, at the ``_time_factors`` of t.

    The 1-D kernel is q sqrt(x y) exp(gauss + cross) ive(nu, z) with
    gap = x - y, q = 2 sqrt(r) / (1 - r) and z = q x y.
    """
    t, r, sr, omr, oms = factors
    return -0.5 * (1.0 + r) / omr * gap ** 2, -oms / (1.0 + sr) * x * y


def _log_kernel_bound(nu: float, factors, gap, x_lo, y_lo, log_xy):
    """An upper bound on log kernel_1d_closed(nu, t, x, y) that has one maximum in t.

    It takes the Gaussian exponent at ``gap`` = x - y, the cross exponent
    at ``x_lo`` y_lo = x y (``_exponents``) and the rest at ``log_xy`` =
    log(x y).  The cross exponent falls with x y and the rest rises, so at
    a block's nearest distance, lower end and upper end it bounds the
    kernel over the block (``_block_majorant``).  The scaled Bessel factor
    exp(-z) I_nu(z) is bounded by (z/2)^nu / Gamma(nu + 1) (its power
    series against that of cosh z, for nu >= -1/2) and, for nu >= 1/2,
    also by 1 / sqrt(2 pi z) (the integral representation of I_nu with
    (2 - u)^(nu - 1/2) <= 2^(nu - 1/2) on [0, 2]).  In t the Gaussian
    exponent rises while the cross exponent and log(q) fall; with the
    prefactor the bound has slope nu + 1 in log(q) on its first branch and
    1/2 on its second, which it takes at small t, so its derivative times
    sinh(2t)^2 is (x - y)^2 - 4 x y sinh(t)^2 - sinh(4t) * slope: it falls
    with t, and the bound rises to its one maximum and falls after it.
    Where q or x y underflows to 0 the bound is not finite.

    The Bessel bound is loose at nu < 1/2, where only the first branch
    holds and is 1 at nu = 0 while the factor is about 1/sqrt(2 pi z), and
    at large nu, where the second branch misses exp(-nu^2/(2z)).  At
    t = 0.01 on the 384-node benchmark grid, the block majorant of the
    16-node block holding x reads up to 225 times the kernel's largest
    value on it at nu = 0 and 1.1e7 times at nu = 25.5, against within 6%
    at nu = 0.5 and 1.3 (x > 0.3).  A sharper bound on exp(-z) I_nu(z) for
    those orders is the one change that would tighten it.
    """
    t, r, sr, omr, oms = factors
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(2.0 * sr / omr)
        bound = (nu + 1.0) * log_q + ((nu + 0.5) * log_xy - nu * math.log(2.0) - math.lgamma(nu + 1.0))
        if nu >= 0.5:
            bound = np.minimum(bound, 0.5 * log_q - 0.5 * math.log(2.0 * math.pi))
        gauss, cross = _exponents(factors, gap, x_lo, y_lo)
        bound += gauss
        bound += cross
    return bound


def _block_majorant(nu: float, t, dist, x_lo, log_x_hi):
    """An upper bound on the 1-D heat kernel p_t(x, y) over every y of a block [lo, hi], lo > 0.

    The block enters through the distance from x to it, x lo and
    log(x hi): ``_log_kernel_bound`` at these, with each part at its
    largest on the block.  The exponent is raised past its rounding; where
    it is not finite the bound is +inf.  t and the block columns broadcast
    together.
    """
    log_bound = _log_kernel_bound(nu, _time_factors(t), dist, x_lo, 1.0, log_x_hi)
    log_bound[~np.isfinite(log_bound)] = np.inf
    return np.exp(log_bound + 1e-9 * (1.0 + np.abs(log_bound)))


def _kernel_1d(nus: tuple, factors, x, y) -> list:
    """kernel_1d_closed of each order in ``nus`` on checked arrays.

    Everything but the Bessel factor is computed once for all orders.  The
    Bessel factor is evaluated only where the rest of the product is
    non-zero, or where z = 0 (there ive may be infinite); elsewhere the
    product is 0.0 whatever the finite Bessel value.  Where z = 0 and
    nu < 0 the product is 0 * inf, so the limit at z -> 0,
    2 r^((nu+1)/2) (1-r)^(-(nu+1)) (x y)^(nu+1/2) / Gamma(nu+1) * gauss * cross,
    is returned instead.
    """
    t, r, sr, omr, oms = factors
    z = 2.0 * sr * x * y / omr
    pref = 2.0 * sr * np.sqrt(x * y) / omr
    gauss, cross = map(np.exp, _exponents(factors, x - y, x, y))
    head = pref * gauss * cross
    zero = z == 0.0
    need = (head != 0.0) | zero
    everywhere = bool(need.all())
    z_need = z if everywhere else z[need]
    vals = []
    for nu in nus:
        if everywhere:
            bessel = ive(nu, z_need)
        else:
            bessel = np.zeros(head.shape)
            bessel[need] = ive(nu, z_need)
        if nu < 0.0 and zero.any():
            bessel[zero] = 0.0
            val = head * bessel
            val[zero] = _zero_z_limit(nu, t, omr, x, y, gauss * cross, zero)
        else:
            val = head * bessel
        vals.append(val)
    return vals


def _zero_z_limit(nu, t, omr, x, y, tail, zero):
    """Limit of the 1-D kernel as z -> 0 for -1/2 <= nu < 0, at the ``zero`` mask.

    Each factor is formed from t, x and y on their own, so sqrt(r) or x y
    underflowing to 0 does not take the value with it.
    """
    shape = zero.shape
    t, omr, x, y, tail = (np.broadcast_to(v, shape)[zero] for v in (t, omr, x, y, tail))
    return (
        2.0 * np.exp(-2.0 * (nu + 1.0) * t) * omr ** (-(nu + 1.0))
        * x ** (nu + 0.5) * y ** (nu + 0.5) / math.gamma(nu + 1.0) * tail
    )


def kernel_1d_closed(nu: float, t, x, y):
    """One-dimensional heat kernel in the overflow-safe factorization.

    Parameters
    ----------
    nu : float
        Order, >= -1/2.
    t, x, y : array_like
        Positive time and positive space arguments; broadcast together.

    Notes
    -----
    The Gaussian factor exp(-(1+r)|x-y|^2 / (2(1-r))), the cross factor
    exp(-(1-sqrt r)/(1+sqrt r) xy) and the scaled Bessel value
    exp(-z) I_nu(z) are each bounded, so the product never overflows even
    for very small t, unlike the textbook form.
    """
    nu = _check_order(nu)
    t, x, y = _check_1d_domain(t, x, y)
    shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
    (val,) = _kernel_1d((nu,), _time_factors(t), np.atleast_1d(x), np.atleast_1d(y))
    return val.reshape(shape) if shape else float(val[0])


def kernel_1d_raw(nu: float, t, x, y):
    """Unscaled textbook form of the 1-D kernel; overflows for large xy/t.

    Kept as an independent cross-check of the factorized evaluation on
    arguments where exp(z) is representable.
    """
    nu = _check_order(nu)
    t, x, y = _check_1d_domain(t, x, y)
    t, x, y = np.broadcast_arrays(t, x, y)
    r = np.exp(-4.0 * t)
    omr = -np.expm1(-4.0 * t)
    z = 2.0 * np.sqrt(r) * x * y / omr
    if nu < 0.0 and np.any(z == 0.0):
        raise ValueError("kernel_1d_raw is 0 * inf where z underflows to 0 and nu < 0; "
                         "kernel_1d_closed returns the z -> 0 limit there")
    pref = 2.0 * np.sqrt(r * x * y) / omr
    body = np.exp(-0.5 * (1.0 + r) / omr * (x * x + y * y) + z) * ive(nu, z)
    val = pref * body
    return val if val.ndim else float(val)


# Elements per 1-D factor call of ``_axis_factors``, 128 KB per temporary:
# freed temporaries the size of a whole matrix (1.2 MB at 384 x 384) go back
# to the system and are faulted in again at the next time of the ladder.
_BLOCK = 2**14


def _axis_factors(times: np.ndarray, axes, live=None):
    """Per-axis factor arrays at each of ``times``, one tuple per time.

    ``axes`` holds one (factor, columns) pair per axis: factor(t, *columns)
    is the axis factor at times t of shape (times, 1, ...) on columns that
    broadcast to (rows, ...) of one rank on every axis, where a column of
    one row serves every row.  ``live``, if given, holds per axis the
    number of leading rows needed at each time, non-decreasing in time;
    by default every row is.  A call takes as many times as fit in
    ``_BLOCK`` elements of the live rows at its last time, or one time in
    row tiles of at most ``_BLOCK`` (unless one row has more) into a
    buffer per axis, so the times take no more calls in all than with every
    row live.  A time's arrays cover at least its live rows, last until the
    next time is drawn, and match a call per time on all rows.
    """
    shapes = [np.broadcast_shapes(*map(np.shape, cols)) for _, cols in axes]
    if live is None:
        live = [np.full(len(times), s[0]) for s in shapes]
    inner = [math.prod(s[1:]) for s in shapes]
    width = np.max([n * w for n, w in zip(live, inner)], axis=0).tolist()
    bufs = [None] * len(axes)
    start = 0
    while start < len(times):
        stop = start + 1
        while stop < len(times) and (stop + 1 - start) * width[stop] <= _BLOCK:
            stop += 1
        t = times[start:stop].reshape(-1, *[1] * len(shapes[0]))
        blocks = []
        for a, ((factor, cols), s, rows) in enumerate(zip(axes, shapes, live)):
            rows = int(rows[stop - 1])
            if rows * inner[a] <= _BLOCK:
                blocks.append(factor(t, *(c[:rows] if len(c) > 1 else c for c in cols)))
                continue
            if bufs[a] is None:
                bufs[a] = np.empty((1, *s))
            step = max(1, _BLOCK // inner[a])
            for lo in range(0, rows, step):
                hi = min(lo + step, rows)
                bufs[a][:, lo:hi] = factor(t, *(c[lo:hi] if len(c) > 1 else c for c in cols))
            blocks.append(bufs[a][:, :rows])
        yield from zip(*blocks)
        start = stop


def _distinct_rows(cols):
    """Distinct rows of equal-length columns, sorted first column first, and each row's index.

    The rows come back as contiguous columns.  This is
    np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True), whose
    sort of rows as opaque records took 18 ms on 10,620 rows of three
    columns, where this lexsort takes 1 ms (2 vCPU, numpy 2.4).
    """
    by_row = np.lexsort(cols[::-1])
    cols = [c[by_row] for c in cols]
    first = np.zeros(by_row.size, dtype=bool)
    first[:1] = True
    for c in cols:
        first[1:] |= c[1:] != c[:-1]
    inv = np.empty(by_row.size, dtype=np.intp)
    inv[by_row] = np.cumsum(first) - 1
    return [c[first] for c in cols], inv


def _flat_pairs(n: int, t, x, y):
    """The pairs of a pair product as (t, x, y, shape), flat along the pairs.

    x, y are point arrays (``special._points``) and t is one time or an
    array; ``shape`` is the broadcast shape of t and the points' leading
    shapes.  x and y come back as (pairs, n) arrays, t as a 0-d array when
    it is one time and as one time per pair otherwise.
    """
    x, y = _points(n, x, y)
    t = np.asarray(t, dtype=float)
    try:
        shape = np.broadcast_shapes(t.shape, x.shape[:-1], y.shape[:-1])
    except ValueError:
        raise ValueError("time must be a scalar or one time per point pair") from None
    x, y = (np.broadcast_to(a, (*shape, n)).reshape(-1, n) for a in (x, y))
    return (np.broadcast_to(t, shape).ravel() if t.ndim else t), x, y, shape


def _pair_rows(t, x, y):
    """The distinct rows of each axis of flat pairs (``_flat_pairs``), and each pair's row.

    A row is (t, x_j, y_j) for an array t, which sorts time-major as sample
    sets come, so the branch masks of ive keep their long runs, and
    (x_j, y_j) for one time.  Returns the rows of every axis, as columns,
    and the pairs' rows of every axis.
    """
    t_col = (t,) if t.ndim else ()
    rows, pair_row = zip(*(_distinct_rows((*t_col, x[:, j], y[:, j])) for j in range(x.shape[-1])))
    return rows, pair_row


def _row_products(t, rows, pair_row, factors, offsets, first=None):
    """Per time offset s, the product over axes j of factors[j](t + s, x_j, y_j) at the pairs, flat.

    ``rows`` and ``pair_row`` are a ``_pair_rows`` split of the pairs, in
    any order of the pairs, and t is their time as ``_flat_pairs`` returns
    it.  ``_axis_factors`` draws each axis factor once per distinct row,
    and the rows are gathered back to the pairs and multiplied in axis
    order, f_0 * f_1 * ... * f_(n-1): every value is bit for bit that of
    the factors called on all pairs, so every n-D kernel rounds the same
    way.

    ``first``, if given, is per pair the index of the first offset it
    needs, non-decreasing along the pairs.  The products at an offset then
    cover only the pairs that need it, a prefix; a row is drawn from the
    first offset one of its pairs needs, so the rows of an axis are put in
    the order of that offset, stably.
    """
    n = len(factors)
    offsets = np.asarray(offsets, dtype=float)
    if t.ndim:
        factors = [lambda s, tj, xj, yj, f=f: f(tj + s, xj, yj) for f in factors]
    else:
        offsets = t + offsets
    live, n_pairs = None, [pair_row[0].size] * len(offsets)
    if first is not None:
        at = np.arange(len(offsets))
        rows, pair_row, live = zip(*(_rows_by_first(r, p, first, at) for r, p in zip(rows, pair_row)))
        n_pairs = np.searchsorted(first, at, side="right").tolist()
    for drawn, m in zip(_axis_factors(offsets, list(zip(factors, rows)), live), n_pairs):
        val = drawn[0][pair_row[0][:m]]
        for j in range(1, n):
            val = val * drawn[j][pair_row[j][:m]]
        yield val


def _rows_by_first(rows, pair_row, first, at):
    """Distinct rows reordered by the first offset any of their pairs needs.

    Returns the rows, each pair's row in the new order and the number of
    rows needed at each offset in ``at``.
    """
    row_first = np.full(rows[0].size, first.max(initial=0))
    np.minimum.at(row_first, pair_row, first)
    by_first = np.argsort(row_first, kind="stable")
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    live = np.searchsorted(row_first[by_first], at, side="right")
    return [c[by_first] for c in rows], rank[pair_row], live


def axis_product(t, x, y, factors):
    """Product over axes j of factors[j](t, x[..., j], y[..., j]) through ``_row_products``.

    t, x and y are read by ``_flat_pairs``; the product takes its shape, a
    float for one pair.
    """
    t, x, y, shape = _flat_pairs(len(factors), t, x, y)
    (val,) = _row_products(t, *_pair_rows(t, x, y), factors, [0.0])
    return val.reshape(shape) if shape else float(val[0])


def kernel_nd(order: MultiOrder, t, x, y):
    """Product kernel on the positive orthant; x, y are point arrays (``special._points``)."""
    return delta_kernel(order, (0,) * as_order(order).n, t, x, y)


# ---------------------------------------------------------------------------
# symbolic derivative expansions
#
# A term is keyed by (h, s, a, d, j) with value coef, and stands for
#   coef * r^(h/2) * (1-r)^(-s) * x^a * y^d * p_t^(nu+j)(x, y).
# The annihilation derivative acts on the x variable.


def _add(terms: dict, key, coef: float):
    if coef == 0.0:
        return
    new = terms.get(key, 0.0) + coef
    if new == 0.0:
        terms.pop(key, None)
    else:
        terms[key] = new


def _expand_delta(terms: dict, nu: float) -> dict:
    # delta_nu = d/dx + x - (nu + 1/2)/x; on a term carrying p^(nu+j) use
    # delta_nu = delta_(nu+j) + j/x together with the one-step recurrence
    # delta_mu p^mu = -(2r/(1-r)) x p^mu + (2 sqrt r/(1-r)) y p^(mu+1).
    out: dict = {}
    for (h, s, a, d, j), coef in terms.items():
        _add(out, (h, s, a - 1, d, j), coef * (a + j))
        _add(out, (h + 2, s + 1, a + 1, d, j), -2.0 * coef)
        _add(out, (h + 1, s + 1, a, d + 1, j + 1), 2.0 * coef)
    return out


def _expand_partial(terms: dict, nu: float) -> dict:
    # d/dx = delta_nu - x + (nu + 1/2)/x applied termwise.
    out: dict = {}
    for (h, s, a, d, j), coef in terms.items():
        _add(out, (h, s, a - 1, d, j), coef * (a + nu + j + 0.5))
        _add(out, (h + 2, s + 1, a + 1, d, j), -2.0 * coef)
        _add(out, (h + 1, s + 1, a, d + 1, j + 1), 2.0 * coef)
        _add(out, (h, s, a + 1, d, j), -coef)
    return out


def _expand_scaled(terms: dict, factor: float) -> dict:
    return {key: factor * c for key, c in terms.items()}


def _expand_delta_star(terms: dict, nu: float) -> dict:
    # delta*_nu = -d/dx + x - (nu + 1/2)/x
    out = _expand_scaled(_expand_partial(terms, nu), -1.0)
    for (h, s, a, d, j), coef in terms.items():
        _add(out, (h, s, a + 1, d, j), coef)
        _add(out, (h, s, a - 1, d, j), -coef * (nu + 0.5))
    return out


def _expand_generator(terms: dict, nu: float) -> dict:
    # 1-D operator: L = delta* delta + 2(nu + 1)
    out = _expand_delta_star(_expand_delta(terms, nu), nu)
    for key, coef in terms.items():
        _add(out, key, 2.0 * (nu + 1.0) * coef)
    return out


_OPS = {
    "delta": _expand_delta,
    "partial": _expand_partial,
    "dstar": _expand_delta_star,
    "generator": _expand_generator,
}


@lru_cache(maxsize=None)
def operator_expansion(ops: tuple, nu: float, base_shift: int = 0) -> tuple:
    """Expand an operator word applied to p_t^(nu + base_shift).

    ops lists operators outermost first, e.g. ("partial", "delta") is
    d/dx applied to (delta p).  Returns a tuple of ((h, s, a, d, j), coef).
    """
    terms = {(0, 0, 0, 0, int(base_shift)): 1.0}
    for op in reversed(ops):
        terms = _OPS[op](terms, float(nu))
    return tuple(sorted(terms.items()))


def evaluate_expansion(expansion: tuple, nu: float, t, x, y):
    """Evaluate a cached expansion at broadcastable (t, x, y)."""
    t, x, y = _check_1d_domain(t, x, y)
    shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
    if not expansion:
        return np.zeros(shape) if shape else 0.0
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    factors = _time_factors(t)
    _, _, sr, omr, _ = factors
    # each kernel, time power and space power once per call, not per term
    h_set, s_set, a_set, d_set, j_set = (set(v) for v in zip(*(key for key, _ in expansion)))
    _check_order(nu + min(j_set))
    shifts = sorted(j_set)
    kernels = dict(zip(shifts, _kernel_1d(tuple(nu + j for j in shifts), factors, x, y)))
    sr_pow = {h: sr**h for h in h_set if h}
    omr_pow = {s: omr ** (-s) for s in s_set if s}
    x_pow = {a: x ** float(a) for a in a_set if a}
    y_pow = {d: y ** float(d) for d in d_set if d}
    total = np.zeros(np.broadcast_shapes(sr.shape, x.shape, y.shape))
    for (h, s, a, d, j), coef in expansion:
        # factors multiplied in a fixed order, so every term rounds the same way
        piece = coef * kernels[j]
        if h:
            piece = piece * sr_pow[h]
        if s:
            piece = piece * omr_pow[s]
        if a:
            piece = piece * x_pow[a]
        if d:
            piece = piece * y_pow[d]
        total += piece
    return total.reshape(shape) if shape else float(total[0])


def delta_kernel_1d(nu: float, m: int, t, x, y):
    """m-fold annihilation derivative of the 1-D kernel in x."""
    return partial_delta_kernel_1d(nu, 0, m, t, x, y)


def partial_delta_kernel_1d(nu: float, n_partial: int, n_delta: int, t, x, y):
    """Mixed derivative (d/dx)^k delta^j of the 1-D kernel."""
    n_partial, n_delta = _multi_index((n_partial, n_delta), 2)
    ops = ("partial",) * n_partial + ("delta",) * n_delta
    if not ops:
        return kernel_1d_closed(nu, t, x, y)
    exp = operator_expansion(ops, float(nu))
    return evaluate_expansion(exp, float(nu), t, x, y)


def shifted_adjoint_kernel_1d(nu: float, m: int, k: int, ell: int, t, x, y):
    """Generator powers and creation derivatives on an order-shifted kernel.

    Evaluates L^m (delta*)^k p_t^(nu + ell); the shift ell >= k + 2m keeps
    the composition inside the admissible order range.
    """
    m, k, ell = _multi_index((m, k, ell), 3)
    ops = ("generator",) * m + ("dstar",) * k
    exp = operator_expansion(ops, float(nu), base_shift=ell)
    return evaluate_expansion(exp, float(nu), t, x, y)


def delta_kernel(order: MultiOrder, m, t, x, y):
    """Mixed annihilation derivative of the product kernel.

    m is a multi-index; axis j receives m_j annihilation derivatives in
    the x_j variable.  x, y are point arrays, as in ``axis_product``.
    """
    order = as_order(order)
    return axis_product(t, x, y, [partial(delta_kernel_1d, *a) for a in zip(order.nu, order.index(m))])


# ---------------------------------------------------------------------------
# spectral form


# Relative accuracy granted to each kernel_1d_closed value: ive's stated
# worst case up to order 150 (3e-11, the power series) and the rounding of
# the Gaussian and cross exponentials, whose arguments lie above -746
# (about 3.3e-13).
_CLOSED_REL = 1e-10
# An absolute floor under the bounds, for what underflow takes from their
# terms: far below any value whose bits a bound is asked to separate.
_FLOOR = 1e-290
# Halvings j = 0, ..., _TAIL_HALVINGS of a time s at which ``_tail_bound``
# reads the closed-form diagonal.
_TAIL_HALVINGS = 4
_UNIT = 0.5 * float(np.finfo(float).eps)


def _diagonal_bounds(nu: float, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper bounds on p_(s/2^j)(x, x) for j = 0, ..., _TAIL_HALVINGS, times s and 1-D points x.

    Shape (_TAIL_HALVINGS + 1,) + s.shape + x.shape: ``kernel_1d_closed``
    on the diagonal, raised by its accuracy and by ``_FLOOR``, one halving
    at a time.
    """
    diag = np.empty((_TAIL_HALVINGS + 1, *np.shape(s), *x.shape))
    for j in range(_TAIL_HALVINGS + 1):
        halved = (0.5**j * s).reshape(*np.shape(s), *[1] * x.ndim)
        (diag[j],) = _kernel_1d((nu,), _time_factors(halved), x, x)
    diag *= 1.0 + 2.0 * _CLOSED_REL
    diag += _FLOOR
    return diag


def _tail_bound(diag: np.ndarray, s: np.ndarray, lam_next: float) -> np.ndarray:
    """A bound on sum over lambda_k >= lam_next of e^(-s lambda_k) phi_k(x)^2, from ``_diagonal_bounds``.

    ``diag`` bounds the full sum p_(s_j)(x, x) at s_j = s/2^j.  A term of
    the tail is at most e^(-(s - s_j) lam_next) times its term in
    p_(s_j)(x, x), and every term there is positive, so each halving gives
    e^(-(s - s_j) lam_next) p_(s_j)(x, x); the least of them is returned.
    The exponent is shrunk by 1e-12 of itself, past its rounding and exp's.
    """
    gap = np.multiply.outer(1.0 - 0.5 ** np.arange(diag.shape[0]), s) * lam_next
    decay = np.exp(-gap * (1.0 - 1e-12))
    return np.min(decay.reshape(*decay.shape, *[1] * (diag.ndim - decay.ndim)) * diag, axis=0)


def _envelope(nu: float, x: np.ndarray, table: np.ndarray, gamma: float) -> np.ndarray:
    """|table| of ``laguerre_function_table(nu, x, k)``, raised by _TABLE_ABS / gamma where x^2 <= 2 lambda_k.

    Let a sum over k of products of 2n table entries (n axes, two points)
    err by gamma <= 1 relative in rounding.  Then gamma times the same sum
    over products of these entries bounds that rounding together with the
    tables' error (``special._TABLE_REL`` and ``_TABLE_ABS``) once gamma
    exceeds 2n _TABLE_REL as well: a product with m raised factors gains
    gamma (_TABLE_ABS / gamma)^m >= _TABLE_ABS^m.
    """
    lam = 4.0 * np.arange(table.shape[0]) + 2.0 * nu + 2.0
    inside = np.square(x) <= 2.0 * lam.reshape(-1, *[1] * np.ndim(x))
    return np.abs(table) + (_TABLE_ABS / gamma) * inside


def _degree_sum(order: MultiOrder, t: float, rows: list, k_max: int) -> np.ndarray:
    """e^(-t lambda_0) times the sum over |k| <= k_max of prod_j rows[j][:, k_j] q^|k|, q = e^(-4t).

    rows[j] holds a row of k_max + 1 entries per pair.  shells[:, d] sums a
    pair's terms of total degree |k| = d first, as they have similar size;
    each further axis is convolved in.
    """
    base = math.exp(-t * order.degree_eigenvalue(0))
    damp = math.exp(-4.0 * t) ** np.arange(k_max + 1)
    rows = [np.ascontiguousarray(row * damp) for row in rows]
    shells = rows[0]
    for axis in rows[1:]:
        new = np.zeros_like(shells)
        for a in range(k_max + 1):
            new[:, a:] += shells[:, a, None] * axis[:, : k_max + 1 - a]
        shells = new
    return base * np.sum(shells, axis=-1)


def kernel_spectral(order: MultiOrder, t, x, y, k_max: int):
    """Truncated eigenfunction expansion of the heat kernel at point pairs.

    Sums exp(-t(4|k| + 2|nu| + 2n)) phi_k(x) phi_k(y) over |k| <= k_max at
    one time t, a scalar or a one-entry array.  x, y are point arrays, read
    as in ``axis_product``; the sum takes their broadcast leading shape, a
    float for one pair.

    Accuracy: within ``_spectral_error_bound`` of the kernel p_t, which
    bounds the truncated tail and the rounding, cancellation included
    (``test_spectral_error_bound_holds_in_three_dimensions``).  The tail
    part is large at small t: at t = 0.05 and k_max = 40 the bound is 3-4%
    of sqrt(p_t(x, x) p_t(y, y)) on that test's 3-D pairs.
    """
    order = as_order(order)
    (k_max,) = _multi_index(k_max, 1)
    t = _check_time(t, strict=True, inf_ok=True)
    if t.size != 1:
        raise ValueError("kernel_spectral takes one time")
    t = t.item()
    _, x, y, shape = _flat_pairs(order.n, t, x, y)

    # per axis, phi_k(x_j) phi_k(y_j) of each pair, from one table of x_j and y_j
    rows = [(tab[:, 0] * tab[:, 1]).T for tab in _pair_tables(order, x, y, k_max)]
    val = _degree_sum(order, t, rows, k_max)
    return val.reshape(shape) if shape else float(val[0])


def _pair_tables(order: MultiOrder, x: np.ndarray, y: np.ndarray, k_max: int) -> list:
    """Per axis j, the table of phi_k at x_j and y_j of (pairs, n) point arrays: (k_max + 1, 2, pairs)."""
    return [laguerre_function_table(nu, np.stack(xy), k_max) for nu, *xy in zip(order.nu, x.T, y.T)]


def _spectral_error_bound(order: MultiOrder, t: float, x: np.ndarray, y: np.ndarray, k_max: int) -> np.ndarray:
    """A bound on |kernel_spectral - p_t| at flat (pairs, n) point arrays: the accuracy ``kernel_spectral`` states.

    Each eigen-term is e^(-t lambda_k) Phi_k(x) Phi_k(y).  Two parts, each
    doubled for the rounding of the bound itself:

    - the tail past |k| = k_max.  By Cauchy-Schwarz it is at most
      sqrt(T(x, x) T(y, y)), where T(x, x), the tail on the diagonal, is
      a sum of positive terms.  Since lambda_k = 4|k| + 2|nu| + 2n, every
      term past k_max has lambda_k >= lambda_(k_max + 1), and
      ``_tail_bound`` reads T from the closed-form diagonal p = prod_j p_j
      at t/2^j;
    - rounding and table error: gamma times the sum of the terms' moduli
      over |k| <= k_max, each table entry raised by ``_envelope``.  Where
      the terms cancel, for far pairs at small t, this sum and not the
      value sets the error: on 3-D pairs in [0.3, 2.5]^3 at t = 0.05 it
      is up to about 1e6 times the value.
    """
    n = order.n
    gamma = 2.0 * (2 * n * _TABLE_REL + _UNIT * ((n + 2) * (k_max + 2) + 4 * n
                                                 + min(t * order.degree_eigenvalue(0), 750.0)))
    rows = []
    for nu, tab, xy in zip(order.nu, _pair_tables(order, x, y, k_max), zip(x.T, y.T)):
        env = _envelope(nu, np.stack(xy), tab, gamma)
        rows.append((env[:, 0] * env[:, 1]).T)
    terms = gamma * _degree_sum(order, t, rows, k_max)
    s = np.array([t])
    diag = [1.0, 1.0]
    for nu, xy in zip(order.nu, zip(x.T, y.T)):
        per_point = _diagonal_bounds(nu, s, np.stack(xy))[:, 0]
        diag = [d * p for d, p in zip(diag, per_point.transpose(1, 0, 2))]
    lam_next = order.degree_eigenvalue(k_max + 1)
    tail = np.sqrt(_tail_bound(diag[0], s, lam_next) * _tail_bound(diag[1], s, lam_next))
    return 2.0 * (terms + tail) + _FLOOR
