"""Tests for scaled Bessel functions, Laguerre polynomials, and eigenfunctions.

Frozen reference values were computed with mpmath at 40 digits and with
exact Fraction arithmetic; the formulas used are quoted next to each value.
"""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from lagsem import (
    Ball,
    Grid,
    GridFunction,
    MultiOrder,
    build_covering,
    delta_kernel,
    ive,
    kernel_nd,
    kernel_spectral,
    laguerre_function,
    laguerre_function_table,
    laguerre_polynomial,
    minimizing_polynomial,
    rho,
    rho_axis,
    riesz_heat_composite_kernel,
    riesz_kernel,
    special,
)
from lagsem.critical import critical_weight
from lagsem.hardy import ball_grid

mp.mp.dps = 40


def lag_exact(k, alpha, x):
    # forward three-term recurrence in exact rationals:
    # (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}
    a, xx = Fraction(alpha), Fraction(x)
    p_prev, p = Fraction(1), Fraction(1) + a - xx
    if k == 0:
        return p_prev
    for i in range(1, k):
        p_prev, p = p, ((2 * i + 1 + a - xx) * p - (i + a) * p_prev) / (i + 1)
    return p


def test_ive_half_integer_closed_form():
    # e^{-1} sqrt(2/pi) sinh(1), from I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    assert math.isclose(float(ive(0.5, 1.0)), 0.34495131388824462599, rel_tol=1e-14)
    # e^{-2} sqrt(1/pi) cosh(2), from I_{-1/2}(z) = sqrt(2/(pi z)) cosh z
    assert math.isclose(float(ive(-0.5, 2.0)), 0.28726153811240115694, rel_tol=1e-14)


def test_ive_at_zero():
    assert float(ive(0.0, 0.0)) == 1.0
    assert float(ive(1.0, 0.0)) == 0.0


def test_ive_large_argument_asymptotic():
    # leading large-z behavior e^{-z} I_2(z) -> 1/sqrt(2 pi z); the next
    # correction is -15/(8z) relative, so agreement with the rounded
    # constant below is at the 1e-4 level, not better
    assert math.isclose(float(ive(2.0, 1e4)), 0.003989, rel_tol=1e-4)
    # 40-digit value for the same point
    assert math.isclose(float(ive(2.0, 1e4)), 0.0039886748199655353739, rel_tol=1e-13)


def test_ive_against_mpmath_sweep():
    # large orders carry their own measured accuracy (worst case on this
    # sweep: 8.2e-14 at alpha = 30, 1.8e-11 at alpha = 80 and z = 1e4,
    # 3.1e-11 at alpha = 150 and z = 2e4)
    tolerances = {alpha: 1e-12 for alpha in (-0.5, -0.3, 0.0, 0.5, 1.0, 1.7, 3.2, 10.0)}
    tolerances.update({30.0: 2e-13, 80.0: 3e-11, 150.0: 5e-11})
    zs = [1e-8, 1e-3, 0.1, 0.9, 2.0, 7.3, 25.0, 80.0, 400.0, 1e4, 2e4]
    for alpha, tol in tolerances.items():
        for z in zs:
            want = float(mp.exp(-z) * mp.besseli(alpha, z))
            got = float(ive(alpha, z))
            assert math.isclose(got, want, rel_tol=tol), (alpha, z, got, want)


# Half-integer orders from 3/2 on: (tolerance below the closed-form switch,
# tolerance at and above it).  Below the switch the power series is
# unchanged.  At and above it the closed form measured 2.2e-16 to 3.3e-16
# on this sweep, where the series and Hankel branches it replaced were off
# by 1.3e-15 (3/2, 5/2), 3.6e-15 (7/2), 2.9e-15 (11/2), 7.8e-15 (21/2) and
# 1.2e-14 (41/2).  43/2 is the first order above the cap and keeps the
# series and Hankel branches (1.5e-14 measured).  Orders +-1/2 take the
# closed form on every z > 0 (test_ive_half_orders_closed_form_against_mpmath).
HALF_INTEGER_TOLERANCES = {
    1.5: (1e-14, 1e-15),
    2.5: (1e-14, 1e-15),
    3.5: (3e-14, 1e-15),
    5.5: (3e-14, 1e-15),
    10.5: (6e-14, 1e-15),
    20.5: (1e-13, 1e-15),
    21.5: (1e-13, 3e-14),
}


@pytest.mark.parametrize("alpha", sorted(HALF_INTEGER_TOLERANCES))
def test_ive_half_integer_orders_against_mpmath(alpha):
    below_tol, above_tol = HALF_INTEGER_TOLERANCES[alpha]
    switch = max(1.0, 0.5 * alpha * alpha)
    edge = [np.nextafter(switch, 0.0), switch, np.nextafter(switch, math.inf)]
    z = np.concatenate([np.geomspace(1e-8, 2e4, 49), edge])
    got = ive(alpha, z)
    for zi, gi in zip(z, got):
        want = float(mp.exp(-mp.mpf(zi)) * mp.besseli(alpha, mp.mpf(zi)))
        tol = below_tol if zi < switch else above_tol
        assert math.isclose(gi, want, rel_tol=tol), (alpha, zi, gi, want)
    # the branch rule: series one ulp below the switch, closed form from it on
    assert special._closed_form_start(alpha) == (switch if alpha <= 20.5 else math.inf)
    upper = special._ive_small if alpha > 20.5 else special._ive_half_integer
    np.testing.assert_array_equal(got[-3:-2], special._ive_small(alpha, z[-3:-2]))
    np.testing.assert_array_equal(got[-2:], upper(alpha, z[-2:]))


@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_ive_half_orders_closed_form_against_mpmath(alpha):
    # I_(+-1/2)(z) = sqrt(2/(pi z)) (sinh z or cosh z) is taken on every
    # z > 0; measured within 3.8e-16 on each band, where the power series
    # it replaced below z = 1 reached 3.5e-14 on [1e-300, 1e-8] and 6.3e-14
    # on subnormals
    rng = np.random.default_rng(12)
    bands = [(1e-300, 1e-8), (1e-8, 1.0), (1.0, 50.0), (50.0, 2e4)]
    z = np.concatenate(
        [[5e-324, 1e-323, 1e-320, 1e-310, float(np.finfo(float).tiny)],
         rng.uniform(5e-324, 2.2e-308, 20)]
        + [np.exp(rng.uniform(math.log(lo), math.log(hi), 40)) for lo, hi in bands]
    )
    got = ive(alpha, z)
    for zi, gi in zip(z, got):
        want = float(mp.exp(-mp.mpf(zi)) * mp.besseli(alpha, mp.mpf(zi)))
        assert math.isclose(gi, want, rel_tol=5e-16), (alpha, zi, gi, want)
    # the branch rule: the closed form from z = 0 on, so no series at all
    assert special._closed_form_start(alpha) == 0.0
    np.testing.assert_array_equal(got, special._ive_half_integer(alpha, z))


@pytest.mark.parametrize("alpha, z", [(2.5, 1.0), (4.5, 2.0), (6.5, 4.0)])
def test_ive_half_integer_sums_growing_terms(alpha, z):
    # below the switch the Hankel terms grow before the sum ends; a stop at
    # the first term no smaller than the one before (as the asymptotic
    # series does) would drop most of the sum
    zz = np.array([z])
    mags = [abs(float(t[0])) for t, _ in zip(special._hankel_terms(alpha, zz), range(2))]
    assert mags[1] >= mags[0] >= 1.0
    want = float(mp.exp(-mp.mpf(z)) * mp.besseli(alpha, mp.mpf(z)))
    got = float(special._ive_half_integer(alpha, zz)[0])
    assert math.isclose(got, want, rel_tol=1e-14), (alpha, z, got, want)


@pytest.mark.parametrize("z", [5e-324, 1e-320])
def test_ive_at_subnormal_argument(z):
    # z/2 underflows or loses bits here; a subnormal result is only
    # representable to one unit of 5e-324
    for alpha in (0.0, 0.5, 1.0, -0.5):
        want = float(mp.exp(-mp.mpf(z)) * mp.besseli(alpha, mp.mpf(z)))
        for got in (ive(alpha, z), ive(alpha, np.array([z, 1.0]))[0]):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=5e-324), (alpha, z, got, want)


def test_ive_vectorized_matches_scalar():
    z = np.geomspace(1e-6, 1e3, 200)
    vec = ive(1.3, z)
    for zi, vi in zip(z[::17], vec[::17]):
        assert vi == float(ive(1.3, float(zi)))


# ---------------------------------------------------------------------------
# exactness of the early-retiring series
#
# Reference copy of the batched series as it was before converged elements
# retired: one shared term count, every element summed until the global
# break, and ive's branch composition with a copy and a gather per branch.
# Retiring elements and skipping gathers may not change a single bit.


def _frozen_series_batch(alpha, z):
    q = 0.25 * z * z
    term = np.exp(alpha * special._log_half(z) - z - gammaln(alpha + 1.0))
    total = term.copy()
    zmax = float(z.max())
    kpk = max(0.0, 0.5 * (-(alpha + 2.0) + math.sqrt(alpha * alpha + 4.0 * 0.25 * zmax * zmax)))
    k_stop = int(kpk + 12.0 * math.sqrt(kpk + 1.0) + 40.0)
    for k in range(k_stop):
        term *= q / ((k + 1.0) * (alpha + k + 1.0))
        total += term
        if (k & 15) == 15 and float(term.max()) <= 1e-18 * float(total.min()):
            break
    return total


def _frozen_ive(alpha, z):
    zz = np.asarray(z, dtype=float)
    flat = np.atleast_1d(zz).ravel().copy()
    out = np.empty_like(flat)
    zero = flat == 0.0
    if np.any(zero):
        out[zero] = 1.0 if alpha == 0.0 else (0.0 if alpha > 0.0 else np.inf)
    pos = ~zero
    zp = flat[pos]
    res = np.empty_like(zp)
    big = zp > special._series_cutoff(alpha)
    if np.any(big):
        res[big] = special._ive_asymptotic(alpha, zp[big])
    small = ~big
    if np.any(small):
        res[small] = _frozen_small(alpha, zp[small])
    out[pos] = res
    return float(out[0]) if zz.ndim == 0 else out.reshape(zz.shape)


def _frozen_small(alpha, zs):
    lead = alpha * special._log_half(zs) - zs - gammaln(alpha + 1.0)
    safe = lead > -650.0
    vals = np.empty_like(zs)
    if np.any(safe):
        vals[safe] = _frozen_series_batch(alpha, zs[safe])
    if np.any(~safe):
        vals[~safe] = [special._ive_series_anchored(alpha, float(v)) for v in zs[~safe]]
    return vals


EXACT_ALPHAS = (-0.5, -0.3, 0.0, 0.5, 1.3, 4.5, 30.0, 150.0)


@pytest.mark.parametrize("alpha", EXACT_ALPHAS)
def test_ive_series_retirement_is_bit_identical(alpha):
    rng = np.random.default_rng(7)
    cut = special._series_cutoff(alpha)
    # orders with a closed-form branch (-1/2, 1/2, 9/2) compose other
    # branches than the frozen ive, so for them the series branch alone is
    # held to the frozen series, on every positive element
    closed_form = special._closed_form_start(alpha) < math.inf

    def check(z):
        if closed_form:
            pos = z[z > 0.0]
            if pos.size:
                np.testing.assert_array_equal(special._ive_small(alpha, pos), _frozen_small(alpha, pos))
        else:
            np.testing.assert_array_equal(ive(alpha, z), _frozen_ive(alpha, z))

    # every element on the series branch, z spread over decades as in a
    # Riesz time integral; one array also spans the subnormal range
    for lo in (1e-6, 1e-2, 1.0):
        check(np.exp(rng.uniform(math.log(lo), math.log(cut), 3000)))
    check(np.geomspace(5e-324, cut, 3000))
    # zero, series, anchored (lead <= -650) and Hankel elements in one array
    mixed = np.concatenate([
        [0.0, 0.0, 5e-324],
        np.geomspace(1e-300, 1e-20, 200),
        np.exp(rng.uniform(math.log(1e-3), math.log(cut), 1500)),
        rng.uniform(cut, 4.0 * cut, 300),
    ])
    rng.shuffle(mixed)
    mixed = mixed[:2000].reshape(40, 50)
    check(mixed)
    for v in mixed.ravel()[:60]:
        if closed_form:
            check(np.array([v]))
            continue
        got = ive(alpha, float(v))
        assert type(got) is float
        assert got == _frozen_ive(alpha, float(v))


@pytest.mark.parametrize("zmax", [1e-2, 1.12])
@pytest.mark.parametrize("alpha", EXACT_ALPHAS + (1.5, 2.5))
def test_ive_series_a_priori_stop_is_bit_identical(alpha, zmax):
    # on these arrays the bound over the batch stops the sum before the
    # first retirement check (k = 15), so the stop alone is held to the
    # frozen series; at alpha = 150 most leading terms underflow, and the
    # two sums must agree there too
    assert special._series_term_count(alpha, zmax) < 15
    rng = np.random.default_rng(11)
    z = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(zmax), 3000)), [zmax]])
    lead = alpha * special._log_half(z) - z - gammaln(alpha + 1.0)
    np.testing.assert_array_equal(special._ive_series_batch(alpha, z, lead), _frozen_series_batch(alpha, z))


@pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=["1d", "2d"])
def test_ive_of_empty_input(shape):
    got = ive(0.5, np.empty(shape))
    assert got.shape == shape


def test_scaled_bessel_value_fields_and_bounds():
    # e^{-z} I_alpha(z) <= 1 for alpha >= 0
    for alpha in (0.0, 0.4, 2.0, 9.0):
        z = np.geomspace(1e-6, 1e4, 80)
        v = ive(alpha, z)
        assert np.all(v >= 0.0)
        assert np.all(v <= 1.0 + 1e-15)


def test_ive_domain_errors():
    with pytest.raises(ValueError):
        ive(0.5, -1.0)
    with pytest.raises(ValueError):
        ive(-1.2, 1.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and > -1"):
            ive(alpha, 1.0)


def test_gammaln_is_scipys_bit_for_bit():
    # one sweep per branch of Cephes lgam: the recurrence into [2, 3) below
    # 13, Stirling with the A series on [13, 1000), the short correction
    # from 1000 on and the bare Stirling sum above 1e8
    rng = np.random.default_rng(17)
    xs = np.concatenate([
        np.geomspace(1e-3, 1e9, 3001),
        rng.uniform(1e-3, 13.0, 2000),
        rng.uniform(13.0, 1000.0, 2000),
        rng.uniform(1000.0, 1e8, 1000),
        np.arange(1, 401) * 0.5,
        [np.nextafter(13.0, 0.0), 13.0, np.nextafter(1000.0, 0.0), 1000.0, 1e8,
         np.nextafter(1e8, np.inf), 1e300, 3e305],
    ])
    got = np.array([special.gammaln(x) for x in xs])
    assert np.array_equal(got, gammaln(xs))


def test_gammaln_matches_scipy_at_every_argument_the_suites_use(monkeypatch):
    from lagsem import operators
    from lagsem.config import SuiteConfig
    from lagsem.suites import run_suite

    port, seen = special.gammaln, set()

    def recording(x):
        seen.add(float(x))
        return port(x)

    # alpha + 1 in the Bessel series and |k|/2 in the Riesz time integral
    monkeypatch.setattr(special, "gammaln", recording)
    monkeypatch.setattr(operators, "gammaln", recording)
    run_suite(SuiteConfig(), "all")
    # 2.5 is the series of alpha = 3/2; alpha = 1/2 takes no series
    assert {2.0, 2.3, 2.5, 7.5} <= seen
    for x in sorted(seen):
        assert port(x) == gammaln(x), x


def test_gammaln_domain_errors():
    for x in (0.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="x > 0"):
            special.gammaln(x)


def test_bessel_derivative_identity():
    # d/dz (z^{-a} I_a(z)) = z^{-a} I_{a+1}(z), central differences
    for alpha in (-0.5, 0.0, 0.8, 1.7):
        for z in (0.5, 1.0, 5.0, 20.0):
            h = 1e-5 * z

            def f(zz):
                return zz ** (-alpha) * math.exp(zz) * float(ive(alpha, zz))

            deriv = (f(z + h) - f(z - h)) / (2 * h)
            want = z ** (-alpha) * math.exp(z) * float(ive(alpha + 1, z))
            assert math.isclose(deriv, want, rel_tol=1e-6), (alpha, z)


def test_bessel_difference_identity():
    # I_a(z) - I_{a+2}(z) = (2(a+1)/z) I_{a+1}(z); scaled values cancel e^z
    z = np.geomspace(0.1, 50.0, 25)
    for alpha in (-0.5, 0.0, 1.7):
        lhs = ive(alpha, z) - ive(alpha + 2, z)
        rhs = (2 * (alpha + 1) / z) * ive(alpha + 1, z)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs))
        assert np.all(lhs > 0.0)


def test_bessel_neighbor_bound():
    z = np.geomspace(0.1, 50.0, 25)
    for alpha in (-0.5, 0.0, 1.7):
        gap = np.abs(ive(alpha, z) - ive(alpha + 1, z))
        assert np.all(gap < (4 * alpha + 6) * ive(alpha + 1, z) / z)


def test_bessel_small_z_law():
    # I_a(z)/z^a -> 1/(2^a Gamma(a+1)) as z -> 0
    z = 1e-6
    for alpha in (-0.5, 0.0, 0.5, 1.7, 4.0):
        got = float(ive(alpha, z)) * math.exp(z) / z**alpha
        want = 1.0 / (2.0**alpha * math.gamma(alpha + 1.0))
        assert math.isclose(got, want, rel_tol=1e-4), alpha


def test_laguerre_polynomial_low_degrees():
    assert laguerre_polynomial(0, 1.3, 4.7) == 1.0
    # L_1^a(x) = 1 + a - x
    assert laguerre_polynomial(1, 0.5, 2.0) == -0.5
    # exact rational recurrence gives L_5^{-1/2}(3) = 153/1280
    assert math.isclose(laguerre_polynomial(5, -0.5, 3.0), 153 / 1280, rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=40),
    alpha=st.floats(min_value=-0.5, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=25.0),
)
@example(k=22, alpha=0.0, x=2.5)  # L_22^0(2.5) = 1.34e-5, next to a zero
def test_laguerre_polynomial_matches_exact_recurrence(k, alpha, x):
    # binary floats are rationals, so the Fraction recurrence is an exact
    # oracle for the same inputs
    want = float(lag_exact(k, alpha, x))
    got = float(laguerre_polynomial(k, alpha, x))
    assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-300)


def test_laguerre_function_frozen_values():
    # phi_0^{-1/2}(0.7) = sqrt(2/Gamma(1/2)) e^{-0.245}
    got = laguerre_function((0,), MultiOrder((-0.5,)), (0.7,))
    assert math.isclose(got, 0.83142940795387949283, rel_tol=1e-13)
    # phi_0^0(1) = sqrt(2) e^{-1/2}
    got = laguerre_function((0,), MultiOrder((0.0,)), (1.0,))
    assert math.isclose(got, 0.85776388496070679648, rel_tol=1e-13)
    # phi_3^{1/2}(1.2), mpmath laguerre/gamma evaluation
    got = laguerre_function((3,), MultiOrder((0.5,)), (1.2,))
    assert math.isclose(got, -0.58222096286541942765, rel_tol=1e-13)


def test_laguerre_function_tensorizes():
    order = MultiOrder((0.5, 1.3))
    got = laguerre_function((2, 4), order, (0.9, 1.4))
    want = laguerre_function((2,), MultiOrder((0.5,)), (0.9,)) * laguerre_function(
        (4,), MultiOrder((1.3,)), (1.4,)
    )
    assert math.isclose(got, want, rel_tol=1e-13)


def test_laguerre_function_high_degree_no_overflow():
    # log-domain normalization keeps k = 200 finite
    table = laguerre_function_table(0.5, np.linspace(0.1, 6.0, 50), 200)
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table[200])) > 0.0


def _mp_laguerre_table(nu, xs, k_max):
    # the recurrence of laguerre_function_table in mpmath at 40 digits
    nu = mp.mpf(nu)
    out = np.empty((k_max + 1, len(xs)))
    for i, x in enumerate(xs):
        x = mp.mpf(float(x))
        y = x * x
        outer = mp.sqrt(2) * x ** (nu + mp.mpf(0.5)) * mp.exp(-y / 2)
        prev, cur = mp.mpf(0), 1 / mp.sqrt(mp.gamma(nu + 1))
        out[0, i] = float(cur * outer)
        for k in range(k_max):
            prev, cur = cur, ((2 * k + 1 + nu - y) * cur - mp.sqrt(k * (k + nu)) * prev) / mp.sqrt(
                (k + 1) * (k + 1 + nu))
            out[k + 1, i] = float(cur * outer)
    return out


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.3, 3.7, 25.5, 80.0, 150.0])
def test_laguerre_table_against_mpmath(nu):
    # the accuracy laguerre_function_table states up to MAX_DEGREE, on
    # every third point of the sweep it was measured on, and the error
    # model (special._TABLE_REL, _TABLE_ABS) that the maximal function's
    # bounds rest on
    from lagsem.special import _TABLE_ABS, _TABLE_REL, MAX_DEGREE

    xs = np.concatenate([np.geomspace(1e-4, 0.5, 25, endpoint=False), np.linspace(0.5, 30.0, 150)])[::3]
    with mp.workdps(40):
        want = _mp_laguerre_table(nu, xs, MAX_DEGREE)
        # the reference recurrence is the normalized Laguerre polynomial
        for k, i in ((0, 10), (37, 20), (MAX_DEGREE, 40)):
            x, a = mp.mpf(float(xs[i])), mp.mpf(nu)
            direct = (mp.sqrt(2 * mp.gamma(k + 1) / mp.gamma(k + a + 1)) * x ** (a + mp.mpf(0.5))
                      * mp.exp(-x * x / 2) * mp.laguerre(k, a, x * x))
            assert want[k, i] == pytest.approx(float(direct), rel=1e-14, abs=1e-300)
    got = laguerre_function_table(nu, xs, MAX_DEGREE)
    err = np.abs(got - want)
    lam = 4.0 * np.arange(MAX_DEGREE + 1)[:, None] + 2.0 * nu + 2.0
    inside = xs**2 <= lam
    small = np.broadcast_to(xs < 0.5, err.shape)
    assert np.all(err[inside & ~small] <= (2.2e-14 if nu <= 1.3 else 1.0e-13))
    assert np.all(err[inside & small] <= 2.2e-13)
    big = np.abs(want) >= 1e-280
    beyond = ~inside & big
    assert np.all(err[beyond] <= (7.6e-14 if nu <= 80.0 else 1.7e-13) * np.abs(want[beyond]))
    assert np.all(err[~big] <= 6.1e-294)
    assert np.all(err <= _TABLE_REL * np.abs(got) + _TABLE_ABS * (xs**2 <= 2.0 * lam) + 1e-290)


def test_laguerre_function_domain_error():
    with pytest.raises(ValueError):
        laguerre_function((0,), MultiOrder((0.5,)), (0.0,))


def test_orthonormality_under_quadrature():
    for nu in (-0.5, 0.0, 1.3):
        grid = Grid.box((1e-9,), (14.0,), nodes_per_unit=48)
        x = grid.axes[0].nodes
        w = grid.axes[0].weights
        table = laguerre_function_table(nu, x, 20)
        gram = (table * w) @ table.T
        assert np.max(np.abs(gram - np.eye(21))) < 1e-8, nu


def test_multi_order_derived_fields():
    order = MultiOrder((-0.5, 0.2, 1.0))
    assert order.n == 3
    assert order.active_axes == (1, 2)
    assert order.nu_min == 0.2
    assert math.isclose(order.holder_exponent, 0.7)
    # all axes at the endpoint: no active axis, exponent convention is 1
    hermite = MultiOrder((-0.5, -0.5))
    assert hermite.active_axes == ()
    assert hermite.holder_exponent == 1.0
    assert math.isclose(MultiOrder((0.5,)).eigenvalue((3,)), 4 * 3 + 2 * 0.5 + 2)


@pytest.mark.parametrize("k", [(-2,), (1.5,), (1, 0), (math.nan,), (math.inf,), (True,)])
def test_multi_index_rule_is_named_by_every_caller(k):
    order = MultiOrder((0.5,))
    calls = (
        order.index,
        order.eigenvalue,
        lambda kk: laguerre_function(kk, order, (1.0,)),
        lambda kk: laguerre_polynomial(kk, 0.5, 1.0),
        lambda kk: laguerre_function_table(0.5, [1.0], kk),
        lambda kk: kernel_spectral(order, 0.5, 1.0, 1.2, kk),
    )
    for call in calls:
        with pytest.raises(ValueError, match="each a nonnegative integer"):
            call(k)


def test_multi_index_takes_integral_entries_of_any_type():
    order = MultiOrder((0.5, 1.0))
    for k in ((2, 0), [2.0, 0.0], np.array([2, 0]), np.array([2.0, 0.0])):
        got = order.index(k)
        assert got == (2, 0) and all(type(v) is int for v in got)
    assert MultiOrder((0.5,)).index(3) == (3,)


def test_multi_order_rejects_bad_components():
    with pytest.raises(ValueError):
        MultiOrder((-0.6,))
    with pytest.raises(ValueError):
        MultiOrder(())


# ---------------------------------------------------------------------------
# the point-array rule, special._points

_O2 = MultiOrder((0.5, 1.0))

# every function that takes points, on a 2-D order; rho_axis takes one
# axis of x
_POINT_CALLS = {
    "rho": lambda x, y: rho(_O2, x),
    "rho_axis": lambda x, y: rho_axis(0.5, np.ravel(x)),
    "critical_weight": lambda x, y: critical_weight(_O2, 0.1, x, y),
    "kernel_nd": lambda x, y: kernel_nd(_O2, 0.5, x, y),
    "delta_kernel": lambda x, y: delta_kernel(_O2, (1, 0), 0.5, x, y),
    "riesz_kernel": lambda x, y: riesz_kernel(_O2, (1, 0), x, y),
    "riesz_heat_composite_kernel": (
        lambda x, y: riesz_heat_composite_kernel(_O2, (1, 0), 0.1, x, y)
    ),
    "kernel_spectral": lambda x, y: kernel_spectral(_O2, 0.5, x, y, 10),
    "laguerre_function": lambda x, y: laguerre_function((1, 2), _O2, x),
    "Ball.contains": lambda x, y: Ball((1.0, 1.0), 0.5).contains(x),
}

_SPACE = "space arguments must be strictly positive and finite"
_BAD_POINTS = {
    "inf": ([[1.0, math.inf]], [[1.5, 2.0]], _SPACE),
    "-inf": ([[-math.inf, 1.0]], [[1.5, 2.0]], _SPACE),
    "nan": ([[1.0, math.nan]], [[1.5, 2.0]], _SPACE),
    "dimension": (
        [[1.0, 1.5, 2.0]], [[1.5, 2.0, 2.5]], "point dimension does not match order dimension"
    ),
    "count": (np.ones((3, 2)), 2.0 * np.ones((4, 2)), "point counts differ"),
}
# rho_axis has no dimension, and rho, rho_axis, laguerre_function and
# Ball.contains take one array
_NOT_APPLICABLE = {
    ("rho_axis", "dimension"),
    ("rho_axis", "count"),
    ("rho", "count"),
    ("laguerre_function", "count"),
    ("Ball.contains", "count"),
}


@pytest.mark.parametrize(
    "name,case",
    [(n, c) for n in _POINT_CALLS for c in _BAD_POINTS if (n, c) not in _NOT_APPLICABLE],
)
def test_point_rule_refuses_bad_points_by_name_in_every_caller(name, case):
    x, y, message = _BAD_POINTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            _POINT_CALLS[name](np.asarray(x), np.asarray(y))


def test_point_rule_reads_1d_scalars_flat_arrays_and_rows_alike():
    o1 = MultiOrder((0.5,))
    xs, ys = np.array([0.5, 1.0, 2.0]), np.array([1.0, 1.7, 0.6])
    calls = {
        "kernel_nd": lambda x, y: kernel_nd(o1, 0.5, x, y),
        "delta_kernel": lambda x, y: delta_kernel(o1, (2,), 0.5, x, y),
        "riesz_kernel": lambda x, y: riesz_kernel(o1, (1,), x, y),
        "rho": lambda x, y: rho(o1, x),
        "critical_weight": lambda x, y: critical_weight(o1, 0.3, x, y),
        "kernel_spectral": lambda x, y: kernel_spectral(o1, 0.5, x, y, 10),
    }
    for name, call in calls.items():
        flat = call(xs, ys)
        assert flat.shape == (3,), name
        np.testing.assert_array_equal(call(xs[:, None], ys[:, None]), flat, err_msg=name)
        scalars = [call(x, y) for x, y in zip(xs, ys)]
        assert all(type(v) is float for v in scalars), name
        # the Riesz ladder starts at the batch's smallest distance, so one
        # pair alone takes other nodes
        np.testing.assert_allclose(scalars, flat, rtol=1e-12, atol=0.0, err_msg=name)
        # a one-element flat array is one point, as a scalar is
        assert call(xs[:1], ys[:1]) == scalars[0], name


def test_critical_weight_takes_one_point_of_an_n_d_order():
    x, y = np.array([1.0, 1.0]), np.array([1.5, 0.5])
    want = critical_weight(_O2, 0.1, x[None], y[None])
    assert want.shape == (1,)
    assert critical_weight(_O2, 0.1, x, y) == want[0]


def test_riesz_kernel_keeps_the_leading_shape_of_its_points():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.5, 2.0, size=(3, 4, 2))
    y = x + 0.25
    got = riesz_kernel(_O2, (1, 0), x, y)
    assert got.shape == (3, 4)
    flat = riesz_kernel(_O2, (1, 0), x.reshape(-1, 2), y.reshape(-1, 2))
    np.testing.assert_array_equal(got, flat.reshape(3, 4))
    # a per-pair time broadcasts against the same leading shape
    t = rng.uniform(0.05, 0.5, size=(3, 4))
    got = riesz_heat_composite_kernel(_O2, (1, 0), t, x, y)
    flat = riesz_heat_composite_kernel(_O2, (1, 0), t.ravel(), x.reshape(-1, 2), y.reshape(-1, 2))
    np.testing.assert_array_equal(got, flat.reshape(3, 4))
    rows = riesz_heat_composite_kernel(_O2, (1, 0), t[0], x, y)
    np.testing.assert_array_equal(rows[0], got[0])
    with pytest.raises(ValueError, match="one time per point pair"):
        riesz_heat_composite_kernel(_O2, (1, 0), t.ravel(), x, y)


def test_one_point_as_a_row_is_that_point():
    x, y = np.array([1.0, 2.0]), np.array([1.2, 1.5])
    row = laguerre_function((1, 2), _O2, x[None])
    assert row.shape == (1,) and row[0] == laguerre_function((1, 2), _O2, x)
    want = kernel_spectral(_O2, 0.5, x, y, 10)
    row = kernel_spectral(_O2, 0.5, x[None], y[None], 10)
    assert row.shape == (1,) and row[0] == want
    # two pairs give the two per-pair values
    both = kernel_spectral(_O2, 0.5, np.stack([x, y]), y, 10)
    assert both.tolist() == [want, kernel_spectral(_O2, 0.5, y, y, 10)]


def test_balls_coverings_and_fits_read_1d_flat_arrays_as_points():
    o1 = MultiOrder((0.5,))
    xs = np.array([0.8, 1.2, 1.5])
    ball = Ball((1.0,), 0.4)
    np.testing.assert_array_equal(ball.contains(xs), [True, True, False])
    np.testing.assert_array_equal(ball.contains(xs[:, None]), [True, True, False])
    cov = build_covering(o1, 0.4, 1.6)
    np.testing.assert_array_equal(cov.bump_values(xs), cov.bump_values(xs[:, None]))
    assert cov.bump_values(xs).shape == (len(cov.radii), 3)
    grid = ball_grid(ball)
    fit = minimizing_polynomial(GridFunction(grid, grid.points().ravel() ** 2), ball, degree=2)
    np.testing.assert_array_equal(fit.evaluate(xs), fit.evaluate(xs[:, None]))
    np.testing.assert_allclose(fit.evaluate(xs), xs**2, rtol=1e-10)
