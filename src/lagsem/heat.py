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

from .special import MultiOrder, as_order, ive, laguerre_function_table

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


def _as_float_arrays(*vals):
    return [np.asarray(v, dtype=float) for v in vals]


def _check_1d_domain(t, x, y):
    if np.any(t <= 0.0):
        raise ValueError("time must be strictly positive")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("space arguments must be strictly positive")


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
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    t, x, y = _as_float_arrays(t, x, y)
    _check_1d_domain(t, x, y)
    t, x, y = np.broadcast_arrays(t, x, y)
    r = np.exp(-4.0 * t)
    sr = np.exp(-2.0 * t)
    omr = -np.expm1(-4.0 * t)  # 1 - r, accurate for small t
    oms = -np.expm1(-2.0 * t)  # 1 - sqrt(r)
    z = 2.0 * sr * x * y / omr
    pref = 2.0 * sr * np.sqrt(x * y) / omr
    gauss = np.exp(-0.5 * (1.0 + r) / omr * (x - y) ** 2)
    cross = np.exp(-oms / (1.0 + sr) * x * y)
    val = pref * gauss * cross * ive(nu, z)
    return val if val.ndim else float(val)


def kernel_1d_raw(nu: float, t, x, y):
    """Unscaled textbook form of the 1-D kernel; overflows for large xy/t.

    Kept as an independent cross-check of the factorized evaluation on
    arguments where exp(z) is representable.
    """
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    t, x, y = _as_float_arrays(t, x, y)
    _check_1d_domain(t, x, y)
    t, x, y = np.broadcast_arrays(t, x, y)
    r = np.exp(-4.0 * t)
    omr = -np.expm1(-4.0 * t)
    z = 2.0 * np.sqrt(r) * x * y / omr
    pref = 2.0 * np.sqrt(r * x * y) / omr
    body = np.exp(-0.5 * (1.0 + r) / omr * (x * x + y * y) + z) * ive(nu, z)
    val = pref * body
    return val if val.ndim else float(val)


def axis_product(order: MultiOrder, x, y, factor):
    """Product over axes j of factor(j, x[..., j], y[..., j]).

    x and y have shape (..., n).  The factors are multiplied in axis
    order, f_0 * f_1 * ... * f_(n-1), so every n-D kernel built from 1-D
    kernels rounds the same way.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (order.n,) or y.shape[-1:] != (order.n,):
        raise ValueError("point dimension does not match order dimension")
    val = factor(0, x[..., 0], y[..., 0])
    for j in range(1, order.n):
        val = val * factor(j, x[..., j], y[..., j])
    return val


def kernel_nd(order: MultiOrder, t, x, y):
    """Product kernel on the positive orthant; x, y have shape (..., n)."""
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


def _expand_mult_x(terms: dict, power: int) -> dict:
    return {(h, s, a + power, d, j): c for (h, s, a, d, j), c in terms.items()}


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
    t, x, y = _as_float_arrays(t, x, y)
    _check_1d_domain(t, x, y)
    t, x, y = np.broadcast_arrays(t, x, y)
    sr = np.exp(-2.0 * t)  # r^(1/2)
    omr = -np.expm1(-4.0 * t)
    shifts = sorted({j for (_, _, _, _, j), _ in expansion})
    kernels = {j: kernel_1d_closed(nu + j, t, x, y) for j in shifts}
    total = np.zeros(np.broadcast_shapes(t.shape, x.shape, y.shape))
    for (h, s, a, d, j), coef in expansion:
        piece = coef * np.asarray(kernels[j])
        if h:
            piece = piece * sr**h
        if s:
            piece = piece * omr ** (-s)
        if a:
            piece = piece * x ** float(a)
        if d:
            piece = piece * y ** float(d)
        total += piece
    return total if total.ndim else float(total)


def delta_kernel_1d(nu: float, m: int, t, x, y):
    """m-fold annihilation derivative of the 1-D kernel in x."""
    if m < 0 or m != int(m):
        raise ValueError("derivative count must be a nonnegative integer")
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    if m == 0:
        return kernel_1d_closed(nu, t, x, y)
    exp = operator_expansion(("delta",) * int(m), float(nu))
    return evaluate_expansion(exp, float(nu), t, x, y)


def partial_delta_kernel_1d(nu: float, n_partial: int, n_delta: int, t, x, y):
    """Mixed derivative (d/dx)^k delta^j of the 1-D kernel."""
    ops = ("partial",) * int(n_partial) + ("delta",) * int(n_delta)
    if not ops:
        return kernel_1d_closed(nu, t, x, y)
    exp = operator_expansion(ops, float(nu))
    return evaluate_expansion(exp, float(nu), t, x, y)


def shifted_adjoint_kernel_1d(nu: float, m: int, k: int, ell: int, t, x, y):
    """Generator powers and creation derivatives on an order-shifted kernel.

    Evaluates L^m (delta*)^k p_t^(nu + ell); the shift ell >= k + 2m keeps
    the composition inside the admissible order range.
    """
    ops = ("generator",) * int(m) + ("dstar",) * int(k)
    exp = operator_expansion(ops, float(nu), base_shift=int(ell))
    return evaluate_expansion(exp, float(nu), t, x, y)


def delta_kernel(order: MultiOrder, m, t, x, y):
    """Mixed annihilation derivative of the product kernel.

    m is a multi-index; axis j receives m_j annihilation derivatives in
    the x_j variable.  x, y have shape (..., n).
    """
    order = as_order(order)
    m = np.atleast_1d(np.asarray(m))
    if m.size != order.n:
        raise ValueError("derivative multi-index length does not match dimension")
    if np.any(m < 0) or not np.all(m == m.astype(int)):
        raise ValueError("derivative multi-index entries must be nonnegative integers")
    m = m.astype(int)
    return axis_product(
        order, x, y, lambda j, xj, yj: delta_kernel_1d(order.nu[j], m[j], t, xj, yj)
    )


# ---------------------------------------------------------------------------
# spectral form


def kernel_spectral(order: MultiOrder, t: float, x, y, k_max: int, with_tail: bool = False):
    """Truncated eigenfunction expansion of the heat kernel at one point pair.

    Sums exp(-t(4|k| + 2|nu| + 2n)) phi_k(x) phi_k(y) over |k| <= k_max.
    With ``with_tail`` the geometric tail bound
    (last shell magnitude) * q / (1 - q), q = exp(-4t), is returned too.
    """
    order = as_order(order)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    t = float(t)
    if t <= 0.0:
        raise ValueError("time must be strictly positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size != order.n or y.size != order.n:
        raise ValueError("point dimension does not match order dimension")

    base = math.exp(-t * (2.0 * order.total + 2.0 * order.n))
    q = math.exp(-4.0 * t)
    # per-axis products phi_k(x_j) phi_k(y_j), degree-weighted
    axis_terms = []
    for j, nuj in enumerate(order.nu):
        tab_x = laguerre_function_table(nuj, np.asarray(x[j]), k_max)
        tab_y = laguerre_function_table(nuj, np.asarray(y[j]), k_max)
        axis_terms.append(tab_x * tab_y * q ** np.arange(k_max + 1))
    if order.n == 1:
        shell = axis_terms[0]
        shell_abs = np.abs(axis_terms[0])
    else:
        full = axis_terms[0]
        full_abs = np.abs(axis_terms[0])
        for arr in axis_terms[1:]:
            full = np.multiply.outer(full, arr)
            full_abs = np.multiply.outer(full_abs, np.abs(arr))
        idx = np.indices(full.shape).sum(axis=0)
        shell = np.array([full[idx == s].sum() for s in range(k_max + 1)])
        shell_abs = np.array([full_abs[idx == s].sum() for s in range(k_max + 1)])
    value = base * float(np.sum(shell))
    if not with_tail:
        return value
    tail = base * float(shell_abs[-1]) * q / (1.0 - q) if q < 1.0 else math.inf
    return value, tail
