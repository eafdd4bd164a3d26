"""Special functions backing the Laguerre semigroup.

Scaled modified Bessel functions and the L2-normalized Laguerre
eigenfunctions.  Every normalization involving Gamma factors is
accumulated in log space so degrees and orders up to a few hundred
evaluate without overflow.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiOrder",
    "as_order",
    "gammaln",
    "ive",
    "laguerre_function",
    "laguerre_function_table",
]

MAX_DEGREE = 200
# Error model of ``laguerre_function_table`` up to MAX_DEGREE, some three
# times its measured worst case: a table entry is within _TABLE_REL of
# itself, plus _TABLE_ABS where x^2 <= 2 lambda_k (lambda_k = 4k + 2 nu + 2),
# plus an underflow floor.
_TABLE_REL = 5e-13
_TABLE_ABS = 1e-12

_LOG2 = math.log(2.0)
_TINY = float(np.finfo(float).tiny)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_order(nu) -> float:
    """The order rule: nu as a float, or ValueError unless it is finite and >= -1/2."""
    nu = float(nu)
    if not (math.isfinite(nu) and nu >= -0.5):
        raise ValueError(f"order must be finite and >= -1/2, got {nu}")
    return nu


def _multi_index(k, n: int) -> tuple[int, ...]:
    """The multi-index rule: k (a scalar if n = 1) as n nonnegative ints, else ValueError.

    The entries keep their own types (an object array), so a bool among ints
    is refused rather than read as 0 or 1.
    """
    entries = np.atleast_1d(np.asarray(k, dtype=object)).tolist()
    if len(entries) != n or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and v >= 0 and float(v).is_integer()
        for v in entries
    ):
        raise ValueError(f"multi-index needs n = {n} entries, each a nonnegative integer; got {k!r}")
    return tuple(int(v) for v in entries)


def _check_space(*coords) -> None:
    """The coordinate rule: ValueError unless every coordinate lies in (0, inf); NaN fails both."""
    if not all(c.size == 0 or (c.min() > 0.0 and c.max() < math.inf) for c in coords):
        raise ValueError("space arguments must be strictly positive and finite")


def _points(n: int, *arrays) -> tuple[np.ndarray, ...]:
    """The point-array rule: each array as floats of shape (..., n), or ValueError.

    In 1-D a scalar or a (1,) array is one point and a flat array lists
    coordinates.  Coordinates pass ``_check_space``; leading shapes broadcast.
    """
    out = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if n == 1 and a.ndim <= 1:
            a = a.reshape((1,) if a.size == 1 else (-1, 1))
        if a.shape[-1:] != (n,):
            raise ValueError("point dimension does not match order dimension")
        out.append(a)
    _check_space(*out)
    try:
        if len({a.shape for a in out}) > 1:
            np.broadcast_shapes(*(a.shape[:-1] for a in out))
    except ValueError:
        raise ValueError("point counts differ: leading shapes do not broadcast") from None
    return tuple(out)


def _check_time(t, strict: bool, inf_ok: bool = False) -> np.ndarray:
    """The time rule: t as a float array, or ValueError unless every entry lies in (0, inf).

    ``strict=False`` admits t = 0 too, and ``inf_ok`` admits t = inf, for
    the heat kernels, which are 0 there (their t -> inf limit).  NaN is
    refused either way.  The message names the interval.
    """
    t = np.asarray(t, dtype=float)
    above = t > 0.0 if strict else t >= 0.0
    if not np.all(above & (t <= math.inf if inf_ok else t < math.inf)):
        interval = ("(" if strict else "[") + "0, inf" + ("]" if inf_ok else ")")
        raise ValueError(f"time must lie in {interval}")
    return t


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
        comps = tuple(_check_order(v) for v in raw)
        if not comps:
            raise ValueError("order vector needs at least one component")
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

    def index(self, k) -> tuple[int, ...]:
        """k as a multi-index of this dimension: n nonnegative integers, else ValueError."""
        return _multi_index(k, self.n)

    def eigenvalue(self, k) -> float:
        """Eigenvalue 4|k| + 2|nu| + 2n attached to the multi-index k."""
        return float(self.degree_eigenvalue(sum(self.index(k))))

    def degree_eigenvalue(self, degree):
        """Eigenvalue 4|k| + 2|nu| + 2n of the total degree |k| (int or integer array)."""
        return 4.0 * degree + 2.0 * self.total + 2.0 * self.n

    def shifted(self, delta) -> "MultiOrder":
        """The order nu + delta reached by the multi-index delta of derivatives."""
        return MultiOrder(tuple(v + d for v, d in zip(self.nu, self.index(delta))))


def as_order(order) -> MultiOrder:
    """``order`` itself if it is a MultiOrder, otherwise MultiOrder(order)."""
    return order if isinstance(order, MultiOrder) else MultiOrder(order)


# Cephes lgam (S. L. Moshier, Cephes Mathematical Library), the routine
# behind scipy.special.gammaln: _LGAM_A is the Stirling correction series,
# _LGAM_B / _LGAM_C the rational approximation on [2, 3).  Kept in its
# operation order, it returns scipy's value bit for bit; math.lgamma does
# not (lgamma(3.0) is 0.693147180559945, not log 2).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_MAX = 2.556348e305


def _polevl(x: float, coef) -> float:
    """Horner evaluation, highest coefficient first (Cephes polevl).

    np.polyval gives the same bits but takes over ten times as long on a scalar.
    """
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def gammaln(x: float) -> float:
    """log Gamma(x) for scalar x > 0: a port of Cephes lgam.

    Below 13 the argument is shifted into [2, 3) by the recurrence and the
    rational approximation is applied there; from 13 on Stirling's series
    is used, with its correction dropped above 1e8.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gammaln needs x > 0, got {x}")
    if x < 13.0:
        z, shift, u = 1.0, 0.0, x
        while u >= 3.0:
            shift -= 1.0
            u = x + shift
            z *= u
        while u < 2.0:
            z /= u
            shift += 1.0
            u = x + shift
        if u == 2.0:
            return math.log(z)
        x += shift - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _series_cutoff(alpha: float) -> float:
    # Beyond this point the Hankel expansion converges to machine accuracy;
    # below it the power series is summed (all terms positive, no cancellation).
    return max(50.0, 2.0 * alpha * alpha)


# Largest half-integer order given the closed form.  Below 2 alpha^2 the
# closed form replaces the power series and is always far cheaper.  Above
# it, it replaces a Hankel loop of 9-15 terms by its own alpha - 1/2 terms
# and an exp: per element it took 1.4-2.1 times the Hankel time for
# alpha = 0.5 to 20.5, then 2.0-2.4 at 25.5-30.5 and 3.1-3.9 at 40.5-60.5
# (z in [2 alpha^2, 16 alpha^2], 20k elements).  Accuracy does not limit
# it: 2.2e-16 to 7.8e-16 relative up to alpha = 300.5.
_HALF_INTEGER_CAP = 20.5


def _closed_form_start(alpha: float) -> float:
    """Smallest z given the closed form of half-integer orders; inf for other orders.

    Orders +-1/2 have no Hankel terms, and their form is exact on every
    z > 0, so they start at 0.  Other half-integer orders start at
    max(1, alpha^2/2): from there on each Hankel term is at most 1/k of
    the one before, so the finite sum has no cancellation to speak of.
    """
    if abs(alpha) == 0.5:
        return 0.0
    if -0.5 <= alpha <= _HALF_INTEGER_CAP and (alpha + 0.5).is_integer():
        return max(1.0, 0.5 * alpha * alpha)
    return math.inf


def _log_half(z: np.ndarray) -> np.ndarray:
    """log(z/2) of positive z.

    For subnormal z the product 0.5*z loses bits or underflows to 0, so
    log z - log 2 is formed there instead.
    """
    if float(z.min()) >= _TINY:
        return np.log(0.5 * z)
    with np.errstate(divide="ignore"):
        return np.where(z < _TINY, np.log(z) - _LOG2, np.log(0.5 * z))


def _series_term_count(alpha: float, zmax: float) -> int:
    """Terms after the first that the batched series adds for arguments up to zmax.

    The count is the index of the largest term plus slack for the tail to
    fall below eps, cut short where an a-priori bound stops the sum
    earlier.  For every element, term k over term 0 is at most
    ratio_k = prod_(i<k) q_max / ((i+1)(alpha+i+1)), q_max = zmax^2/4, and
    the total is at least term 0.  Once ratio_k < 1e-18 (it has then
    passed its peak, so every later factor is below 1) no term from k on
    is above 1e-18 of any element's total: adding it would not change a
    bit, by the same argument as the retirement in ``_ive_series_batch``.
    """
    kpk = max(0.0, 0.5 * (-(alpha + 2.0) + math.sqrt(alpha * alpha + 4.0 * 0.25 * zmax * zmax)))
    k_stop = int(kpk + 12.0 * math.sqrt(kpk + 1.0) + 40.0)
    q_max, ratio = 0.25 * zmax * zmax, 1.0
    for k in range(k_stop):
        ratio *= q_max / ((k + 1.0) * (alpha + k + 1.0))
        if ratio < 1e-18:
            return k
    return k_stop


def _ive_series_batch(alpha: float, z: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """Scaled power series with a shared term count.

    ``lead`` is alpha*log(z/2) - z - log Gamma(alpha+1), the log of the
    leading term; it must be > -650 so the term is representable.
    Callers route other elements to the anchored scalar fallback.

    The sum runs for ``_series_term_count`` terms.  Every 16 terms the
    elements whose term has fallen to 1e-18 of their total are written
    out and dropped.  Before its peak an element's term is at least
    total/(k+1), so only elements past their peak retire; from there on
    every further term is below half an ulp of the total, and adding it
    would not change a bit.
    """
    q = 0.25 * z * z
    term = np.exp(lead)
    total = term.copy()
    out = total
    idx = np.arange(z.size)
    for k in range(_series_term_count(alpha, float(z.max()))):
        term *= q / ((k + 1.0) * (alpha + k + 1.0))
        total += term
        if (k & 15) == 15:
            live = term > 1e-18 * total
            if not live.all():
                out[idx] = total
                if not live.any():
                    return out
                idx, term, total, q = idx[live], term[live], total[live], q[live]
    out[idx] = total
    return out


def _ive_series_anchored(alpha: float, z: float) -> float:
    # Anchor the recurrence at the largest term so neither end can
    # underflow; used when the leading term is not representable.
    q = 0.25 * z * z
    kpk = max(0, int(0.5 * (-(alpha + 2.0) + math.sqrt(alpha * alpha + 4.0 * q))))
    log_half = math.log(0.5 * z) if z >= _TINY else math.log(z) - _LOG2
    log_peak = (
        (alpha + 2.0 * kpk) * log_half
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


def _hankel_terms(alpha: float, z: np.ndarray):
    """Terms k = 1, 2, ... of the Hankel sum P(-1/z) = sum_k (-1)^k a_k(alpha) z^-k.

    a_k(alpha) is DLMF 10.17.1 with 4 alpha^2 = mu; at alpha = n + 1/2 every
    term from k = n + 1 on is exactly 0.
    """
    mu = 4.0 * alpha * alpha
    term = np.ones_like(z)
    for k in itertools.count(1):
        term = term * ((2.0 * k - 1.0) ** 2 - mu) / (8.0 * k * z)
        yield term


def _ive_asymptotic(alpha: float, z: np.ndarray) -> np.ndarray:
    """Hankel expansion (2 pi z)^(-1/2) P(-1/z) of exp(-z) I_alpha(z), for z above the series cutoff.

    Used for every order except the half-integers up to 20.5, which take
    the closed form instead.  The reflection term is below 1e-40 relative
    for z >= 50 and is dropped.  The sum stops at its smallest term
    (array-wide) or once every term is below 1e-18: 9 to 15 terms above
    the cutoff.  Against mpmath (40 digits) it is within 4.4e-16 relative
    on z from the cutoff to max(2e4, 16 times the cutoff), measured for 15
    orders from 0 to 150.
    """
    total = np.ones_like(z)
    prev = np.inf
    for term in itertools.islice(_hankel_terms(alpha, z), 300):
        mag = float(np.abs(term).max())
        if mag >= prev:
            break
        total += term
        prev = mag
        if mag <= 1e-18:
            break
    return total / np.sqrt(2.0 * math.pi * z)


def _ive_half_integer(alpha: float, z: np.ndarray) -> np.ndarray:
    """Closed form of exp(-z) I_alpha(z) at alpha = n + 1/2 (DLMF 10.49.8).

    (2 pi z)^(-1/2) [P(-1/z) + (-1)^(n+1) exp(-2z) P(1/z)], where the
    Hankel polynomial P ends at k = n.  Every one of its n terms is summed:
    at small z they grow before they end, so there is no early stop.  Both
    sums run in term order; P(1/z) flips the sign of the odd terms.
    Summing even and odd terms apart and combining them at the end would
    cancel: up to 1.3e-15 off at alpha = 10.5 to 20.5, against 6.7e-16 in
    term order.

    At alpha = +-1/2 there are no terms, and the form is
    (1 -+ exp(-2z)) / (sqrt(2 pi) sqrt(z)) (DLMF 10.39.1), on every z > 0:
    1 - exp(-2z) is taken as -expm1(-2z), so it keeps its bits as z -> 0.
    The product 2 pi z rounds in the subnormal range (a single sqrt(2 pi z)
    was off by 2.3e-2 below z = 1e-300), so the root stays two factors.
    """
    if abs(alpha) == 0.5:
        head = -np.expm1(-2.0 * z) if alpha > 0.0 else 1.0 + np.exp(-2.0 * z)
        return head / (_SQRT_2PI * np.sqrt(z))
    n = round(alpha - 0.5)
    down, up = 1.0, 1.0
    for k, term in zip(range(1, n + 1), _hankel_terms(alpha, z)):
        down = down + term
        up = up - term if k & 1 else up + term
    sign = 1.0 if n % 2 else -1.0
    return (down + sign * np.exp(-2.0 * z) * up) / np.sqrt(2.0 * math.pi * z)


def _by_mask(mask: np.ndarray, where_true, where_false) -> np.ndarray:
    """where_true(sel) where ``mask`` holds and where_false(sel) elsewhere.

    ``sel`` indexes the caller's arrays.  A uniform mask (also an empty
    one) passes ``...``, so the common single-branch call skips the
    gather and the scatter.
    """
    if mask.all():
        return where_true(...)
    if not mask.any():
        return where_false(...)
    rest = ~mask
    out = np.empty(mask.shape)
    out[mask] = where_true(mask)
    out[rest] = where_false(rest)
    return out


def _ive_positive(alpha: float, z: np.ndarray) -> np.ndarray:
    """ive on positive z: closed form or Hankel above their cutoffs, power series below."""
    start = _closed_form_start(alpha)
    if start < math.inf:
        upper, above = _ive_half_integer, z >= start
    else:
        upper, above = _ive_asymptotic, z > _series_cutoff(alpha)
    return _by_mask(
        above,
        lambda s: upper(alpha, z[s]),
        lambda s: _ive_small(alpha, z[s]),
    )


def _ive_small(alpha: float, z: np.ndarray) -> np.ndarray:
    """Power series on positive z below the cutoff."""
    lead = alpha * _log_half(z) - z - gammaln(alpha + 1.0)
    return _by_mask(
        lead > -650.0,
        lambda s: _ive_series_batch(alpha, z[s], lead[s]),
        lambda s: np.array([_ive_series_anchored(alpha, float(v)) for v in z[s]]),
    )


def ive(alpha: float, z):
    """exp(-z) * I_alpha(z) for z >= 0, vectorized over z.

    Branches, by order:

    - alpha = +-1/2: the exact closed form (``_ive_half_integer``) on
      every z > 0;
    - other half-integer alpha = n + 1/2 with 3/2 <= alpha <= 20.5: the
      exact closed form from z = max(1, alpha^2/2) on, the power series
      below;
    - every other order: the power series up to max(50, 2*alpha^2), the
      Hankel expansion above.

    The power series is summed in a batch while its leading term is
    representable, and by the scalar sum anchored at its largest term
    otherwise.  The scaled form never overflows.  The batched series adds
    no term that an a-priori bound over the whole batch shows cannot
    change a bit, and it stops summing an element once its own terms can
    no longer change its total, so converged elements retire early; both
    stops leave every bit as a full sum would.

    Relative accuracy against mpmath (40 digits), by branch:

    - closed form at alpha = +-1/2: within 5e-16 on z in [5e-324, 2e4],
      subnormal z included (``test_ive_half_orders_closed_form_against_mpmath``);
    - closed form at the other half-integers: within 4.4e-16 on z from
      max(1, alpha^2/2) to 2e4 (``test_ive_half_integer_orders_against_mpmath``);
    - Hankel expansion: within 4.4e-16 for 0 <= alpha <= 150;
    - power series, on z in [1e-8, the cutoff]: within about 1e-14 for
      -1/2 < alpha <= 3.5, 4e-14 at alpha = 10.5, 8e-14 at 20.5 and 1e-13
      at 30 (``test_ive_against_mpmath_sweep``), but only 2e-11 at alpha
      = 80 and 3e-11 at alpha = 150: for z near 1e4 the anchored sum forms
      the log of its peak term from parts near 1e5 in size, and their
      rounding is what remains.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise ValueError(f"Bessel order must be finite and > -1, got {alpha}")
    zz = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zz)) or np.any(zz < 0.0):
        raise ValueError("Bessel argument must be finite and >= 0")
    flat = np.atleast_1d(zz).ravel()
    at_zero = 1.0 if alpha == 0.0 else (0.0 if alpha > 0.0 else np.inf)
    out = _by_mask(
        flat == 0.0,
        lambda s: np.full(flat[s].shape, at_zero),
        lambda s: _ive_positive(alpha, flat[s]),
    )

    if zz.ndim == 0:
        return float(out[0])
    return out.reshape(zz.shape)


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

    Accuracy up to MAX_DEGREE, against the same recurrence in mpmath at
    40 digits, for nu in {-1/2, 0, 1/2, 1.3, 3.7, 25.5, 80, 150} and x in
    [1e-4, 30] (``test_laguerre_table_against_mpmath``):

    - where x^2 <= lambda_k = 4k + 2 nu + 2 (the oscillatory region) the
      error is absolute: within 1.0e-13 for x >= 1/2 (2.2e-14 for
      nu <= 1.3) and within 2.2e-13 for x < 1/2, where |phi_k| <= 1.06;
    - beyond it the error is relative: within 7.6e-14 for nu <= 80 and
      1.7e-13 at nu = 150, down to values of 1e-280; below that it is
      absolute, at most 6.1e-294.

    ``_TABLE_REL`` and ``_TABLE_ABS`` state this with room to spare.
    """
    nu = _check_order(nu)
    (k_max,) = _multi_index(k_max, 1)
    if k_max > MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_DEGREE}]")
    x = np.asarray(x, dtype=float)
    _check_space(x)
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


def laguerre_function(k, order: MultiOrder, x):
    """Normalized eigenfunction phi_k at the point array x (``_points``), a float for one point.

    k has one entry per axis; the value is the product of the 1-D normalized Laguerre functions.
    """
    order = as_order(order)
    kk = order.index(k)
    (x,) = _points(order.n, x)
    val = 1.0
    for j, (kj, nuj) in enumerate(zip(kk, order.nu)):
        val = val * laguerre_function_table(nuj, x[..., j], kj)[kj]
    return val if np.ndim(val) else float(val)
