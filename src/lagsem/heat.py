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
from functools import lru_cache

import numpy as np

from .special import (
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
    gauss = np.exp(-0.5 * (1.0 + r) / omr * (x - y) ** 2)
    cross = np.exp(-oms / (1.0 + sr) * x * y)
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


def axis_product(order: MultiOrder, x, y, factor):
    """Product over axes j of factor(j, x[..., j], y[..., j]).

    x, y are point arrays (``special._points``); the value has their broadcast
    leading shape.  Factors multiply in axis order, f_0 * f_1 * ... * f_(n-1),
    so every n-D kernel built from 1-D kernels rounds the same way.
    """
    x, y = _points(order.n, x, y)
    val = factor(0, x[..., 0], y[..., 0])
    for j in range(1, order.n):
        val = val * factor(j, x[..., j], y[..., j])
    return val


def kernel_nd(order: MultiOrder, t, x, y):
    """Product kernel on the positive orthant; x, y are point arrays (``special._points``)."""
    order = as_order(order)
    return axis_product(order, x, y, lambda j, xj, yj: kernel_1d_closed(order.nu[j], t, xj, yj))


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
    m = order.index(m)
    return axis_product(
        order, x, y, lambda j, xj, yj: delta_kernel_1d(order.nu[j], m[j], t, xj, yj)
    )


# ---------------------------------------------------------------------------
# spectral form


def kernel_spectral(order: MultiOrder, t: float, x, y, k_max: int) -> float:
    """Truncated eigenfunction expansion of the heat kernel at one point pair.

    Sums exp(-t(4|k| + 2|nu| + 2n)) phi_k(x) phi_k(y) over |k| <= k_max.
    """
    order = as_order(order)
    (k_max,) = _multi_index(k_max, 1)
    t = float(_check_time(t, strict=True, inf_ok=True))
    x, y = _points(order.n, x, y)
    if x.size != order.n or y.size != order.n:
        raise ValueError("kernel_spectral takes one point pair")

    base = math.exp(-t * order.degree_eigenvalue(0))
    q = math.exp(-4.0 * t)
    # outer product of the per-axis products phi_k(x_j) phi_k(y_j) q^k
    terms = 1.0
    degree = 0
    for j, nuj in enumerate(order.nu):
        tab_x = laguerre_function_table(nuj, x.flat[j], k_max)
        tab_y = laguerre_function_table(nuj, y.flat[j], k_max)
        terms = np.multiply.outer(terms, tab_x * tab_y * q ** np.arange(k_max + 1))
        degree = np.add.outer(degree, np.arange(k_max + 1))
    # shell sums by total degree first, as terms of one degree have similar size
    shells = np.bincount(degree.ravel(), weights=terms.ravel())[: k_max + 1]
    return base * float(np.sum(shells))
