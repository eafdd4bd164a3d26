"""Special functions backing the Laguerre semigroup.

Scaled modified Bessel functions, Laguerre polynomials, and the
L2-normalized Laguerre eigenfunctions.  Every normalization involving
Gamma factors is accumulated in log space so degrees and orders up to a
few hundred evaluate without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "MultiOrder",
    "ScaledBesselValue",
    "as_order",
    "bessel_i_scaled",
    "ive",
    "laguerre_polynomial",
    "laguerre_function",
    "laguerre_function_table",
]

MAX_DEGREE = 200


@dataclass(frozen=True)
class MultiOrder:
    """Vector of Laguerre orders, one component per axis, each >= -1/2.

    Axes with order strictly above -1/2 are the "active" ones; they carry
    the inverse-square potential and enter the critical scale function.
    ``nu_min`` is the smallest active order (+inf when no axis is active)
    and ``holder_exponent`` is min(1, nu_min + 1/2), the smoothness
    exponent of the singular integral kernels built on top.
    """

    nu: tuple[float, ...]

    def __post_init__(self):
        raw = self.nu
        if np.isscalar(raw):
            raw = (raw,)
        comps = tuple(float(v) for v in raw)
        if not comps:
            raise ValueError("order vector needs at least one component")
        for v in comps:
            if not math.isfinite(v) or v < -0.5:
                raise ValueError(f"order components must be finite and >= -1/2, got {v}")
        object.__setattr__(self, "nu", comps)

    @property
    def n(self) -> int:
        return len(self.nu)

    @property
    def total(self) -> float:
        return float(sum(self.nu))

    @property
    def active_axes(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.nu) if v > -0.5)

    @property
    def nu_min(self) -> float:
        act = self.active_axes
        return min(self.nu[j] for j in act) if act else math.inf

    @property
    def holder_exponent(self) -> float:
        return min(1.0, self.nu_min + 0.5)

    def eigenvalue(self, k) -> float:
        """Eigenvalue 4|k| + 2|nu| + 2n attached to the multi-index k."""
        k = np.atleast_1d(np.asarray(k))
        if k.size != self.n:
            raise ValueError("multi-index length does not match dimension")
        return float(4.0 * k.sum() + 2.0 * self.total + 2.0 * self.n)

    def shifted(self, delta) -> "MultiOrder":
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        if delta.size != self.n:
            raise ValueError("shift length does not match dimension")
        return MultiOrder(tuple(v + d for v, d in zip(self.nu, delta)))


def as_order(order) -> MultiOrder:
    """``order`` itself if it is a MultiOrder, otherwise MultiOrder(order)."""
    return order if isinstance(order, MultiOrder) else MultiOrder(order)


@dataclass(frozen=True)
class ScaledBesselValue:
    """Value of exp(-z) * I_order(z) together with its inputs."""

    order: float
    argument: float
    scaled_value: float


def _series_cutoff(alpha: float) -> float:
    # Beyond this point the Hankel expansion converges to machine accuracy;
    # below it the power series is summed (all terms positive, no cancellation).
    return max(50.0, 2.0 * alpha * alpha)


def _ive_series_batch(alpha: float, z: np.ndarray) -> np.ndarray:
    """Scaled power series with a shared term count.

    Valid whenever the leading term exp(alpha*log(z/2) - z)/Gamma(alpha+1)
    is representable; callers route other elements to the anchored scalar
    fallback.
    """
    q = 0.25 * z * z
    term = np.exp(alpha * np.log(0.5 * z) - z - gammaln(alpha + 1.0))
    total = term.copy()
    zmax = float(z.max())
    # index of the largest term, plus slack for the tail to fall below eps
    kpk = max(0.0, 0.5 * (-(alpha + 2.0) + math.sqrt(alpha * alpha + 4.0 * 0.25 * zmax * zmax)))
    k_stop = int(kpk + 12.0 * math.sqrt(kpk + 1.0) + 40.0)
    for k in range(k_stop):
        term *= q / ((k + 1.0) * (alpha + k + 1.0))
        total += term
        if (k & 15) == 15 and float(term.max()) <= 1e-18 * float(total.min()):
            break
    return total


def _ive_series_anchored(alpha: float, z: float) -> float:
    # Anchor the recurrence at the largest term so neither end can
    # underflow; used when the leading term is not representable.
    q = 0.25 * z * z
    kpk = max(0, int(0.5 * (-(alpha + 2.0) + math.sqrt(alpha * alpha + 4.0 * q))))
    log_peak = (
        (alpha + 2.0 * kpk) * math.log(0.5 * z)
        - z
        - math.lgamma(kpk + 1.0)
        - math.lgamma(alpha + kpk + 1.0)
    )
    total = 1.0
    term = 1.0
    k = kpk
    while True:
        term *= q / ((k + 1.0) * (alpha + k + 1.0))
        total += term
        k += 1
        if term < 1e-18 * total or k > kpk + 10_000_000:
            break
    term = 1.0
    k = kpk
    while k > 0:
        term *= k * (alpha + k) / q
        total += term
        k -= 1
        if term < 1e-18 * total:
            break
    return math.exp(log_peak + math.log(total))


def _ive_asymptotic(alpha: float, z: np.ndarray) -> np.ndarray:
    # Hankel expansion of exp(-z) I_alpha(z); the exponentially small
    # reflection term is below 1e-40 for z >= 50 and is dropped.
    mu = 4.0 * alpha * alpha
    term = np.ones_like(z)
    total = np.ones_like(z)
    prev = np.inf
    for k in range(1, 301):
        term = term * ((2.0 * k - 1.0) ** 2 - mu) / (8.0 * k * z)
        mag = float(np.abs(term).max())
        if mag >= prev:
            break
        total += term
        prev = mag
        if mag <= 1e-18:
            break
    return total / np.sqrt(2.0 * math.pi * z)


def ive(alpha: float, z):
    """exp(-z) * I_alpha(z) for z >= 0, vectorized over z.

    Power series below max(50, 2*alpha^2), Hankel expansion above.  The
    scaled form never overflows; relative accuracy is ~1e-13 across the
    admissible range alpha > -1.
    """
    alpha = float(alpha)
    if not alpha > -1.0:
        raise ValueError(f"Bessel order must be > -1, got {alpha}")
    zz = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zz)) or np.any(zz < 0.0):
        raise ValueError("Bessel argument must be finite and >= 0")
    flat = np.atleast_1d(zz).ravel().copy()
    out = np.empty_like(flat)

    zero = flat == 0.0
    if np.any(zero):
        out[zero] = 1.0 if alpha == 0.0 else (0.0 if alpha > 0.0 else np.inf)

    pos = ~zero
    zp = flat[pos]
    res = np.empty_like(zp)
    big = zp > _series_cutoff(alpha)
    if np.any(big):
        res[big] = _ive_asymptotic(alpha, zp[big])
    small = ~big
    if np.any(small):
        zs = zp[small]
        lead = alpha * np.log(0.5 * zs) - zs - gammaln(alpha + 1.0)
        safe = lead > -650.0
        vals = np.empty_like(zs)
        if np.any(safe):
            vals[safe] = _ive_series_batch(alpha, zs[safe])
        if np.any(~safe):
            vals[~safe] = [_ive_series_anchored(alpha, float(v)) for v in zs[~safe]]
        res[small] = vals
    out[pos] = res

    if zz.ndim == 0:
        return float(out[0])
    return out.reshape(zz.shape)


def bessel_i_scaled(alpha: float, z: float) -> ScaledBesselValue:
    """Evaluate the exponentially scaled modified Bessel function.

    Parameters
    ----------
    alpha : float
        Order, must be > -1 (orders >= -1/2 are the ones used by the
        heat kernels).
    z : float
        Nonnegative argument.

    Returns
    -------
    ScaledBesselValue
        Record holding exp(-z) * I_alpha(z).
    """
    return ScaledBesselValue(float(alpha), float(z), float(ive(alpha, float(z))))


def laguerre_polynomial(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^alpha(x) by the forward recurrence.

    The three-term recurrence is stable in the oscillatory regime used by
    the eigenfunctions.  Total function of (alpha, x); k must be a
    nonnegative integer.
    """
    if k != int(k) or k < 0:
        raise ValueError("degree must be a nonnegative integer")
    k = int(k)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - x
    for i in range(1, k):
        prev, cur = cur, ((2.0 * i + 1.0 + alpha - x) * cur - (i + alpha) * prev) / (i + 1.0)
    return cur if cur.ndim else float(cur)


def laguerre_function_table(nu: float, x, k_max: int) -> np.ndarray:
    """Normalized Laguerre functions phi_k at 1-D points, all degrees at once.

    Parameters
    ----------
    nu : float
        Order, >= -1/2.
    x : array_like
        Strictly positive evaluation points.
    k_max : int
        Largest degree; the table has shape (k_max + 1,) + x.shape.

    Notes
    -----
    Runs the three-term recurrence on sqrt(k!/Gamma(k+nu+1)) L_k^nu(x^2)
    so the normalization never leaves the representable range, then
    multiplies by sqrt(2) x^(nu+1/2) exp(-x^2/2).
    """
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    if k_max < 0 or k_max > MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_DEGREE}]")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("evaluation points must be strictly positive")
    y = x * x
    outer = np.exp(0.5 * math.log(2.0) + (nu + 0.5) * np.log(x) - 0.5 * y)
    table = np.empty((k_max + 1,) + x.shape, dtype=float)
    prev = np.zeros_like(y)
    cur = np.full_like(y, math.exp(-0.5 * math.lgamma(nu + 1.0)))
    table[0] = cur * outer
    for k in range(k_max):
        nxt = ((2.0 * k + 1.0 + nu - y) * cur - math.sqrt(k * (k + nu)) * prev) / math.sqrt(
            (k + 1.0) * (k + 1.0 + nu)
        )
        prev, cur = cur, nxt
        table[k + 1] = cur * outer
    return table


def laguerre_function(k, order: MultiOrder, x) -> float:
    """Normalized eigenfunction phi_k at a point of the positive orthant.

    k is a multi-index with one entry per axis; the value is the product
    of the 1-D normalized Laguerre functions.
    """
    order = as_order(order)
    kk = np.atleast_1d(np.asarray(k))
    if kk.size != order.n:
        raise ValueError("multi-index length does not match order dimension")
    if np.any(kk < 0) or not np.all(kk == kk.astype(int)):
        raise ValueError("multi-index entries must be nonnegative integers")
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if xx.size != order.n:
        raise ValueError("point dimension does not match order dimension")
    if np.any(xx <= 0.0):
        raise ValueError("points must lie in the open positive orthant")
    val = 1.0
    for kj, nuj, xj in zip(kk.astype(int), order.nu, xx):
        val *= float(laguerre_function_table(nuj, np.asarray(xj), kj)[kj])
    return val
