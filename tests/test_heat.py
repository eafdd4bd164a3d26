"""Heat kernel tests: closed form, spectral sums, derivative kernels.

Frozen kernel values come from three independent 40-digit computations
that agree to all printed digits: the Bessel closed form assembled in
mpmath, the truncated eigenfunction sum, and (for half-integer orders)
even/odd symmetrizations of the harmonic-oscillator kernel
(2 pi sinh 2t)^{-1/2} exp(-coth(2t)(x^2+y^2)/2 + xy/sinh 2t).
"""

import itertools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagsem import (
    MultiOrder,
    delta_kernel,
    delta_kernel_1d,
    gauss_legendre_axis,
    kernel_1d_closed,
    kernel_1d_raw,
    kernel_nd,
    kernel_spectral,
    laguerre_function,
    laguerre_function_table,
)
from lagsem import heat
from lagsem.critical import rho, rho_axis
from lagsem.heat import operator_expansion, partial_delta_kernel_1d, shifted_adjoint_kernel_1d
from lagsem.special import ive

FROZEN = [
    # (nu, t, x, y, value)
    (-0.5, 0.5, 1.0, 1.0, 0.27409712636799282765),
    (0.5, 0.5, 1.0, 1.0, 0.18955154344319245564),
    (-0.5, 0.2, 0.8, 1.9, 0.093876490204744071585),
    (0.5, 0.2, 0.8, 1.9, 0.093761916494729591252),
    (0.5, 0.3, 1.2, 0.8, 0.30973268373766408682),
    (1.3, 1.0, 0.4, 2.2, 0.0010749084817423800812),
    (0.0, 0.05, 2.0, 2.1, 0.97486804771004401905),
]


def test_closed_form_frozen_values():
    for nu, t, x, y, want in FROZEN:
        got = float(kernel_1d_closed(nu, t, x, y))
        assert math.isclose(got, want, rel_tol=1e-13), (nu, t, x, y)


def test_hermite_case_equals_truncated_spectral_sum():
    # sum_{k<=60} e^{-(4k+1)t} phi_k(1)^2 at t = 0.5 (mpmath, 40 digits);
    # the tail beyond k = 60 is below e^{-120}
    want = 0.27409712636799282765
    got = float(kernel_1d_closed(-0.5, 0.5, 1.0, 1.0))
    assert abs(got - want) / want < 1e-10


def test_symmetry_in_x_y():
    for nu, t, x, y, _ in FROZEN:
        a = float(kernel_1d_closed(nu, t, x, y))
        b = float(kernel_1d_closed(nu, t, y, x))
        assert abs(a - b) <= 1e-14 * abs(a)


@settings(max_examples=80, deadline=None)
@given(
    nu=st.floats(min_value=-0.5, max_value=3.0),
    t=st.floats(min_value=0.01, max_value=5.0),
    x=st.floats(min_value=0.05, max_value=4.0),
    y=st.floats(min_value=0.05, max_value=4.0),
)
def test_positivity_and_symmetry_random(nu, t, x, y):
    v = float(kernel_1d_closed(nu, t, x, y))
    w = float(kernel_1d_closed(nu, t, y, x))
    assert v > 0.0
    assert abs(v - w) <= 1e-13 * v


def test_closed_vs_raw_form():
    # the raw Bessel form overflows for small t; compare where it is finite
    t = np.geomspace(0.05, 4.0, 12)[:, None, None]
    x = np.linspace(0.1, 4.0, 18)[None, :, None]
    y = np.linspace(0.1, 4.0, 18)[None, None, :]
    for nu in (-0.5, 0.0, 0.5, 1.3):
        closed = kernel_1d_closed(nu, t, x, y)
        raw = kernel_1d_raw(nu, t, x, y)
        ok = np.isfinite(raw)
        assert ok.mean() > 0.9
        rel = np.abs(closed[ok] - raw[ok]) / np.abs(raw[ok])
        assert np.max(rel) < 1e-10, nu


def test_closed_vs_spectral_sum_1d():
    order = MultiOrder((0.5,))
    for t in (0.25, 0.5, 1.0):
        for x, y in [(0.4, 0.4), (0.9, 1.7), (2.5, 3.1), (1.0, 0.1)]:
            spectral_val = kernel_spectral(order, t, (x,), (y,), k_max=60)
            closed = float(kernel_1d_closed(0.5, t, x, y))
            assert abs(spectral_val - closed) / closed < 1e-10, (t, x, y)


def test_kernel_nd_is_product_of_axes():
    order = MultiOrder((0.5, 1.3))
    t, x, y = 0.4, (1.2, 0.7), (0.9, 1.8)
    got = float(kernel_nd(order, t, x, y))
    want = float(kernel_1d_closed(0.5, t, x[0], y[0])) * float(
        kernel_1d_closed(1.3, t, x[1], y[1])
    )
    assert math.isclose(got, want, rel_tol=1e-13)


def test_kernel_nd_vs_2d_spectral_sum():
    order = MultiOrder((0.5, 1.3))
    t = 0.5
    for x, y in [((0.8, 1.1), (1.4, 0.6)), ((2.0, 0.5), (1.9, 0.7))]:
        spectral_val = kernel_spectral(order, t, x, y, k_max=40)
        closed = float(kernel_nd(order, t, x, y))
        assert abs(spectral_val - closed) / closed < 1e-8, (x, y)


def test_long_time_decay_ratio_bounded():
    # at nu = 0, x = y = 1 the kernel decays like e^{-2t}, so its ratio to
    # the envelope e^{-t/2}/sqrt(t) is finite and shrinks with t
    t = np.linspace(1.0, 20.0, 39)
    vals = kernel_1d_closed(0.0, t, 1.0, 1.0)
    ratio = vals / (np.exp(-t / 2) / np.sqrt(t))
    assert np.all(np.isfinite(ratio))
    assert np.all(np.diff(ratio) < 0.0)


def test_difference_of_orders_identity():
    # p^a - p^{a+2} = 2(a+1) (1-r)/(2 sqrt(r) x y) p^{a+1}, r = e^{-4t}
    t = np.geomspace(0.05, 2.0, 10)[:, None]
    xy = np.array([[0.3, 0.5], [1.0, 1.0], [2.2, 0.9], [3.5, 3.0]])
    x, y = xy[:, 0][None, :], xy[:, 1][None, :]
    for alpha in (-0.5, 0.0, 0.5, 1.3):
        r = np.exp(-4 * t)
        lhs = kernel_1d_closed(alpha, t, x, y) - kernel_1d_closed(alpha + 2, t, x, y)
        rhs = 2 * (alpha + 1) * (1 - r) / (2 * np.sqrt(r) * x * y) * kernel_1d_closed(
            alpha + 1, t, x, y
        )
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10, alpha


def _numeric_delta(nu, f, x, h=1e-4):
    # delta = d/dx + x - (nu + 1/2)/x via 5-point central differences
    stencil = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    return stencil + (x - (nu + 0.5) / x) * f(x)


def test_delta_kernel_first_order_vs_finite_differences():
    cases = [(0.5, 0.3, 1.2, 0.8), (1.3, 0.7, 0.5, 1.9), (-0.5, 0.2, 1.0, 1.4)]
    for nu, t, x, y in cases:
        got = float(delta_kernel_1d(nu, 1, t, x, y))
        want = _numeric_delta(nu, lambda xx: kernel_1d_closed(nu, t, xx, y), x)
        assert abs(got - want) / abs(want) < 1e-6, (nu, t, x, y)


def test_delta_kernel_second_order_vs_nested_finite_differences():
    # the second-order derivative iterates the same operator, not the
    # order-shifted one: delta_nu (delta_nu p)
    cases = [(0.5, 0.3, 1.2, 0.8), (1.3, 0.6, 1.5, 0.9), (-0.5, 0.4, 0.8, 1.1)]
    for nu, t, x, y in cases:
        got = float(delta_kernel_1d(nu, 2, t, x, y))
        inner = lambda xx: delta_kernel_1d(nu, 1, t, xx, y)
        want = _numeric_delta(nu, inner, x)
        assert abs(got - want) / abs(want) < 1e-5, (nu, t, x, y)


def test_delta_kernel_nd_wrapper():
    order = MultiOrder((0.5, 1.3))
    t, x, y = 0.4, (1.2, 0.7), (0.9, 1.8)
    got = float(delta_kernel(order, (1, 0), t, x, y))
    want = float(delta_kernel_1d(0.5, 1, t, x[0], y[0])) * float(
        kernel_1d_closed(1.3, t, x[1], y[1])
    )
    assert math.isclose(got, want, rel_tol=1e-12)


def test_delta_kernel_on_diagonal_small_time_scaling():
    # at x = y both the kernel and t^{-(n+|m|)/2} blow up at the same rate;
    # their ratio must stay bounded as t -> 0
    for m in (1, 2):
        t = np.geomspace(1e-4, 1e-2, 9)
        vals = np.abs(delta_kernel_1d(0.5, m, t, 1.3, 1.3))
        ratio = vals * t ** ((1 + m) / 2)
        assert np.all(np.isfinite(ratio))
        assert np.max(ratio) < 10.0 * max(np.min(ratio), 1e-30)


def test_semigroup_law_single_pair():
    # int p_t(x,z) p_s(z,y) dz = p_{t+s}(x,y) under panel quadrature
    nu, t, s, x, y = 0.5, 0.1, 0.5, 1.2, 0.6
    axis = gauss_legendre_axis(1e-9, 12.0, nodes_per_unit=64)
    nodes, weights = axis.nodes, axis.weights
    conv = float(np.sum(weights * kernel_1d_closed(nu, t, x, nodes) * kernel_1d_closed(nu, s, nodes, y)))
    direct = float(kernel_1d_closed(nu, t + s, x, y))
    assert abs(conv - direct) / direct < 1e-6


def test_eigen_relation_single_mode():
    # int p_t(x,y) phi_k(y) dy = e^{-t(4k+2nu+2)} phi_k(x)
    nu, k, t, x = 1.3, 3, 0.7, 1.1
    order = MultiOrder((nu,))
    axis = gauss_legendre_axis(1e-9, 12.0, nodes_per_unit=64)
    nodes, weights = axis.nodes, axis.weights
    table = laguerre_function_table(nu, nodes, k)
    integral = float(np.sum(weights * kernel_1d_closed(nu, t, x, nodes) * table[k]))
    want = math.exp(-t * order.eigenvalue((k,))) * laguerre_function((k,), order, (x,))
    assert abs(integral - want) / abs(want) < 1e-6


def test_lowering_identity_on_eigenfunctions():
    # delta phi_k^nu = -2 sqrt(k) phi_{k-1}^{nu+1}, numeric delta on phi
    for nu in (0.5, 1.3):
        order = MultiOrder((nu,))
        up = MultiOrder((nu + 1,))
        for k in (1, 2, 4):
            for x in (0.6, 1.1, 2.3):
                f = lambda xx: laguerre_function((k,), order, (xx,))
                got = _numeric_delta(nu, np.vectorize(f), x, h=1e-3)
                want = -2 * math.sqrt(k) * laguerre_function((k - 1,), up, (x,))
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (nu, k, x)


def test_domain_errors():
    with pytest.raises(ValueError):
        kernel_1d_closed(0.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        kernel_1d_closed(0.5, 1.0, -1.0, 1.0)
    # two pairs give the two per-pair values
    order = MultiOrder((0.5,))
    both = kernel_spectral(order, 0.5, (1.0, 2.0), (1.0,), k_max=10)
    assert both.shape == (2,)
    assert both.tolist() == [kernel_spectral(order, 0.5, x, 1.0, k_max=10) for x in (1.0, 2.0)]


def test_nan_arguments_are_refused_by_name():
    nan = math.nan
    order = MultiOrder((0.5,))
    with pytest.raises(ValueError, match=r"time must lie in \(0, inf\]"):
        kernel_spectral(order, nan, 1.0, 1.5, 10)
    with pytest.raises(ValueError, match="space arguments must be strictly positive"):
        kernel_spectral(order, 0.5, nan, 1.5, 10)
    for kernel in (kernel_1d_closed, lambda nu, t, x, y: delta_kernel_1d(nu, 2, t, x, y)):
        with pytest.raises(ValueError, match=r"time must lie in \(0, inf\]"):
            kernel(0.5, np.array([0.5, nan]), 1.0, 1.5)
        with pytest.raises(ValueError, match="space arguments must be strictly positive"):
            kernel(0.5, 0.5, np.array([1.0, nan]), 1.5)
    with pytest.raises(ValueError, match="space arguments must be strictly positive and finite"):
        rho(order, np.array([[1.0], [nan]]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_space_arguments_are_refused_by_name(bad):
    kernels = (kernel_1d_closed, lambda nu, t, x, y: delta_kernel_1d(nu, 1, t, x, y))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kernel in kernels:
            for x, y in ((bad, 1.0), (1.0, np.array([1.0, bad]))):
                with pytest.raises(ValueError, match="space arguments must be strictly positive"):
                    kernel(0.5, 1.0, x, y)
            # t = inf is the t -> inf limit, and the kernel is 0 there
            assert kernel(0.5, math.inf, 1.0, 2.0) == 0.0


def test_infinite_points_are_refused_by_name_in_the_spectral_layer():
    # these used to return NaN after numpy's "invalid value encountered in
    # subtract" warning; the point rule now refuses them before any arithmetic
    inf = math.inf
    order = MultiOrder((0.5,))
    calls = (
        lambda: laguerre_function_table(0.5, [inf], 3),
        lambda: laguerre_function_table(0.5, np.array([1.0, inf]), 3),
        lambda: laguerre_function((1,), order, (inf,)),
        lambda: kernel_spectral(order, 0.5, inf, 1.5, 10),
        lambda: kernel_spectral(order, 0.5, 1.5, inf, 10),
        lambda: kernel_spectral(MultiOrder((0.5, 1.0)), 0.5, (1.0, inf), (1.5, 1.5), 10),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(ValueError, match="space arguments must be strictly positive"):
                call()


@pytest.mark.parametrize("nu", [math.inf, math.nan, -0.6])
def test_order_rule_is_named_by_every_caller(nu):
    calls = (
        lambda: MultiOrder((nu,)),
        lambda: laguerre_function_table(nu, [1.0], 2),
        lambda: kernel_1d_closed(nu, 0.5, 1.0, 1.2),
        lambda: kernel_1d_raw(nu, 0.5, 1.0, 1.2),
        lambda: delta_kernel_1d(nu, 1, 0.5, 1.0, 1.2),
        lambda: partial_delta_kernel_1d(nu, 1, 0, 0.5, 1.0, 1.2),
        lambda: rho_axis(nu, 1.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="order must be finite and >= -1/2"):
            call()


def test_derivative_counts_follow_the_multi_index_rule():
    order = MultiOrder((0.5, 1.0))
    x, y = np.array([1.0, 1.2]), np.array([1.3, 0.9])
    calls = (
        lambda: delta_kernel(order, (1.5, 0), 0.5, x, y),
        lambda: delta_kernel(order, (1,), 0.5, x, y),
        lambda: delta_kernel_1d(0.5, -1, 0.5, 1.0, 1.2),
        lambda: partial_delta_kernel_1d(0.5, -1, 0, 0.5, 1.0, 1.2),
        lambda: shifted_adjoint_kernel_1d(0.5, 0, 1.5, 2, 0.5, 1.0, 1.2),
        # a bool among ints is no count, though numpy would read it as one
        lambda: delta_kernel(order, (True, 0), 0.5, x, y),
        lambda: delta_kernel_1d(0.5, True, 0.5, 1.0, 1.2),
    )
    for call in calls:
        with pytest.raises(ValueError, match="each a nonnegative integer"):
            call()


# ---------------------------------------------------------------------------
# exactness of the hoisted evaluation
#
# Reference copies of the broadcast-first evaluation: every time factor is
# computed once per pair and the Bessel factor everywhere.  The kernels
# compute time factors once per time, space powers once per call and skip
# the Bessel factor where the rest of the product is 0.0; none of that may
# change a single bit.


def _reference_kernel_1d(nu, t, x, y):
    t, x, y = (np.asarray(v, dtype=float) for v in (t, x, y))
    t, x, y = np.broadcast_arrays(t, x, y)
    r = np.exp(-4.0 * t)
    sr = np.exp(-2.0 * t)
    omr = -np.expm1(-4.0 * t)
    oms = -np.expm1(-2.0 * t)
    z = 2.0 * sr * x * y / omr
    pref = 2.0 * sr * np.sqrt(x * y) / omr
    gauss = np.exp(-0.5 * (1.0 + r) / omr * (x - y) ** 2)
    cross = np.exp(-oms / (1.0 + sr) * x * y)
    val = pref * gauss * cross * ive(nu, z)
    if nu < 0.0:
        # z = 0 makes the product 0 * inf; the kernel is its limit there
        limit = (
            2.0 * np.exp(-2.0 * (nu + 1.0) * t) * omr ** (-(nu + 1.0))
            * x ** (nu + 0.5) * y ** (nu + 0.5) / math.gamma(nu + 1.0) * (gauss * cross)
        )
        val = np.where(z == 0.0, limit, val)
    return val if val.ndim else float(val)


def _reference_expansion(ops, nu, t, x, y, base_shift=0):
    expansion = operator_expansion(ops, float(nu), base_shift)
    t, x, y = (np.asarray(v, dtype=float) for v in (t, x, y))
    t, x, y = np.broadcast_arrays(t, x, y)
    sr = np.exp(-2.0 * t)
    omr = -np.expm1(-4.0 * t)
    shifts = sorted({j for (_, _, _, _, j), _ in expansion})
    kernels = {j: _reference_kernel_1d(nu + j, t, x, y) for j in shifts}
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


_PTS = np.array([1e-200, 0.05, 0.3, 0.9, 1.7, 4.0, 8.0, 30.0])
EXACT_CASES = [
    # (t, x, y); far pairs at small t underflow the Gaussian factor, x = y = 30
    # at large t underflows the cross factor, and z = 0 where x y or sqrt(r)
    # underflows (x = 1e-200, t = 400)
    pytest.param(0.37, 0.9, 1.7, id="scalar"),
    pytest.param(np.float64(2e-3), np.array(0.3), np.array(8.0), id="0-d"),
    pytest.param(1e-3, _PTS[:, None], _PTS[None, :], id="scalar-t"),
    pytest.param(np.array(0.05), _PTS[:, None], _PTS[None, :], id="0-d-t"),
    pytest.param(
        np.array([1e-4, 1e-2, 0.5, 3.0, 40.0, 400.0])[:, None, None],
        _PTS[None, :, None],
        _PTS[None, None, :],
        id="array-t",
    ),
    pytest.param(np.geomspace(1e-3, 50.0, 8), _PTS, 1.1, id="array-t-scalar-y"),
]


@pytest.mark.parametrize("t, x, y", EXACT_CASES)
def test_kernels_equal_broadcast_first_reference(t, x, y):
    def same(call, want):
        bad = ~np.isfinite(want)
        if not bad.any():
            got = call(t, x, y)
            if np.ndim(want) == 0:
                assert type(got) is float
            np.testing.assert_array_equal(got, want)
            return
        # x = 1e-200 overflows a term's x^a: the error names the first such
        # pair, and with x = 1 there every other value keeps its bits
        named = (float(np.broadcast_to(v, bad.shape)[bad][0]) for v in (t, x, y))
        with pytest.raises(ValueError, match=re.escape("t = {!r}, x = {!r}, y = {!r}".format(*named))):
            call(t, x, y)
        keep = ~bad & (np.broadcast_to(x, bad.shape) != 1e-200)
        got = np.broadcast_to(call(t, np.where(x == 1e-200, 1.0, x), y), bad.shape)
        np.testing.assert_array_equal(got[keep], want[keep])

    # the references overflow x^a at x = 1e-200, and z = 0 gives 0 * inf for nu < 0
    with np.errstate(all="ignore"):
        for nu in (-0.5, 0.0, 0.5, 1.3):
            same(lambda t, x, y: kernel_1d_closed(nu, t, x, y), _reference_kernel_1d(nu, t, x, y))
            for m in (1, 2, 3):
                same(lambda t, x, y: delta_kernel_1d(nu, m, t, x, y),
                     _reference_expansion(("delta",) * m, nu, t, x, y))
            for n_partial, n_delta in ((1, 0), (1, 1), (2, 1)):
                ops = ("partial",) * n_partial + ("delta",) * n_delta
                same(lambda t, x, y: partial_delta_kernel_1d(nu, n_partial, n_delta, t, x, y),
                     _reference_expansion(ops, nu, t, x, y))
            for m, k, ell in ((0, 1, 1), (0, 2, 2), (1, 0, 2), (1, 1, 3)):
                ops = ("generator",) * m + ("dstar",) * k
                same(lambda t, x, y: shifted_adjoint_kernel_1d(nu, m, k, ell, t, x, y),
                     _reference_expansion(ops, nu, t, x, y, base_shift=ell))


@pytest.mark.parametrize("call", [
    lambda: shifted_adjoint_kernel_1d(0.5, 1, 1, 3, 1e-3, 1e-200, 0.3),
    lambda: partial_delta_kernel_1d(0.5, 2, 1, 1e-3, 1e-200, 0.3),
], ids=["adjoint", "partial"])
def test_expansion_names_a_value_that_is_not_finite(call):
    # x^a with a < 0 overflows at x = 1e-200 while the kernel times it is
    # finite or 0: the value would be NaN or inf, so the error names the pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("t = 0.001, x = 1e-200, y = 0.3")):
            call()


def test_expansions_equal_reference_at_many_scalar_times():
    # a float64 scalar sqrt(r)**h rounds differently from the array loop for
    # a few per cent of times, so one scalar time would rarely show it
    x, y = _PTS[1:6, None], _PTS[None, 1:6]
    for t in np.geomspace(1e-3, 5.0, 60):
        for m in (2, 3):
            np.testing.assert_array_equal(
                delta_kernel_1d(0.5, m, float(t), x, y),
                _reference_expansion(("delta",) * m, 0.5, float(t), x, y),
            )


def test_bessel_factor_skipped_only_where_the_product_is_zero(monkeypatch):
    # the array-t case skips pairs with an underflowed Gaussian or cross
    # factor, and still evaluates the pairs with z = 0
    seen = []

    def spy(nu, z):
        seen.append(np.array(z))
        return ive(nu, z)

    monkeypatch.setattr(heat, "ive", spy)
    t, x, y = EXACT_CASES[4].values
    with np.errstate(all="ignore"):
        val = kernel_1d_closed(0.5, t, x, y)
    assert len(seen) == 1
    assert 0 < seen[0].size < val.size
    assert np.any(seen[0] == 0.0)


def test_bessel_arguments_shared_across_orders(monkeypatch):
    # delta^2 needs the kernels of orders nu, nu + 1 and nu + 2; they share
    # z and the skip mask, computed once, so ive gets the same array per order
    seen = []

    def spy(nu, z):
        seen.append((nu, z))
        return ive(nu, z)

    monkeypatch.setattr(heat, "ive", spy)
    t, x, y = EXACT_CASES[4].values
    with np.errstate(all="ignore"):
        val = delta_kernel_1d(0.5, 2, t, x, y)
    assert [nu for nu, _ in seen] == [0.5, 1.5, 2.5]
    z0 = seen[0][1]
    assert 0 < z0.size < val.size
    assert all(z is z0 for _, z in seen[1:])


def _mp_kernel_1d(nu, t, x, y):
    nu, t, x, y = (mp.mpf(v) for v in (nu, t, x, y))
    r = mp.exp(-4 * t)
    z = 2 * mp.sqrt(r) * x * y / (1 - r)
    pref = 2 * mp.sqrt(r * x * y) / (1 - r)
    return pref * mp.exp(-(1 + r) / (2 * (1 - r)) * (x * x + y * y)) * mp.besseli(nu, z)


@pytest.mark.parametrize("nu, t, x, y", [
    (-0.5, 400.0, 1.0, 1.0),  # sqrt(r) underflows
    (-0.5, 1.0, 1e-200, 1e-200),  # x y underflows
    (-0.25, 1.0, 1e-200, 1e-200),
])
def test_negative_order_kernel_at_underflowed_bessel_argument(nu, t, x, y):
    # z = 0 makes the product 0 * inf; the kernel takes its limit there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel_1d_closed(nu, t, x, y)
        arr = kernel_1d_closed(nu, np.array([t, 0.5]), x, y)
    with mp.workdps(40):
        want = float(_mp_kernel_1d(nu, t, x, y))
    assert want > 0.0
    assert math.isclose(got, want, rel_tol=1e-13), (got, want)
    assert arr[0] == got


@pytest.mark.parametrize("t, x, y", [
    (400.0, 1.0, 1.0),  # sqrt(r) underflows
    (1.0, 1e-200, 1e-200),  # x y underflows
])
def test_raw_kernel_refuses_underflowed_bessel_argument(t, x, y):
    # the textbook form is 0 * inf there; the error names the closed form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kernel_1d_closed"):
            kernel_1d_raw(-0.5, t, x, y)
        with pytest.raises(ValueError, match="kernel_1d_closed"):
            kernel_1d_raw(-0.5, np.array([t, 0.5]), x, y)


def test_small_times_keep_the_stated_accuracy_or_name_the_overflow():
    # at nu = 1/2 and x = y = 1 the two terms of delta p_t are each about
    # p_t / (2t) and cancel to about t p_t: the value is within a few ulps of
    # the terms (against mpmath at 400 digits), and where a term, z or the
    # prefactor overflows a ValueError names the time and the points (NaN,
    # -inf and ive's own error before)
    eps = np.finfo(float).eps
    with mp.workdps(400):
        for t in (1e-8, 1e-12, 1e-16, 1e-100):
            kernel = [_mp_kernel_1d(nu, t, 1.0, 1.0) for nu in (0.5, 1.5)]
            r = mp.exp(-4 * mp.mpf(t))
            want = float(2 * (mp.sqrt(r) * kernel[1] - r * kernel[0]) / (1 - r))
            term = float(kernel[0]) / (2.0 * t)
            assert abs(delta_kernel_1d(0.5, 1, t, 1.0, 1.0) - want) <= 4.0 * eps * term, t
    lost = [(0.5, 1, 1e-250, 1.0, 1.0), (-0.5, 1, 1e-300, 1e-300, 1e-300)]
    lost += [(nu, 2, t, 1.0, 1.0) for nu in (-0.5, 0.0, 0.5, 25.5, 150.0) for t in (1e-150, 1e-200, 1e-300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu, m, t, x, y in lost:
            with pytest.raises(ValueError, match=f"t = {t!r}, x = {x!r}, y = {y!r}"):
                delta_kernel_1d(nu, m, t, x, y)
        for nu in (-0.5, 0.5, 150.0):
            with pytest.raises(ValueError, match=r"t = 1e-300, x = 1000000.0, y = 1000000.0 .* overflows"):
                kernel_1d_closed(nu, 1e-300, 1e6, 1e6)
            with pytest.raises(ValueError, match="t = 1e-300"):
                kernel_1d_closed(nu, np.array([1.0, 1e-300]), 1e6, 1e6)


def test_spectral_sum_over_total_degree_in_three_dimensions():
    # the sum keeps exactly the multi-indices with |k| <= k_max
    order = MultiOrder((0.5, -0.5, 1.3))
    t, x, y, k_max = 0.7, (0.9, 1.4, 0.6), (1.1, 0.8, 1.7), 6
    want = 0.0
    for k in itertools.product(range(k_max + 1), repeat=3):
        if sum(k) <= k_max:
            want += (math.exp(-t * order.eigenvalue(k))
                     * laguerre_function(k, order, x) * laguerre_function(k, order, y))
    assert kernel_spectral(order, t, x, y, k_max) == pytest.approx(want, rel=1e-13)


def _spectral_one_pair(order, t, x, y, k_max):
    # kernel_spectral as it was when it took one pair: the outer product of
    # the per-axis terms, summed by total degree with bincount
    order = MultiOrder(order)
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    base = math.exp(-t * order.degree_eigenvalue(0))
    q = math.exp(-4.0 * t)
    terms = 1.0
    degree = 0
    for j, nuj in enumerate(order.nu):
        tab_x = laguerre_function_table(nuj, x.flat[j], k_max)
        tab_y = laguerre_function_table(nuj, y.flat[j], k_max)
        terms = np.multiply.outer(terms, tab_x * tab_y * q ** np.arange(k_max + 1))
        degree = np.add.outer(degree, np.arange(k_max + 1))
    shells = np.bincount(degree.ravel(), weights=terms.ravel())[: k_max + 1]
    return base * float(np.sum(shells))


_CHECK_POINTS = np.linspace(0.3, 2.5, 15)


@pytest.mark.parametrize(
    "order,k_maxes",
    [((0.5,), (6, 10, 40, 80)), ((-0.5,), (6, 10, 40, 80)), ((1.3,), (6, 10, 40, 80)),
     ((0.5, 1.0), (6, 40)), ((0.0, -0.5), (6, 40))],
)
def test_spectral_batch_equals_its_one_pair_sum_in_one_and_two_dimensions(order, k_maxes):
    # 1-D on the pairs of the kernel-closed-vs-spectral check, 2-D on a
    # lattice of its points: the degree shells add each term in the order
    # bincount did, so every value keeps its bits
    n = len(order)
    pts = _CHECK_POINTS if n == 1 else _CHECK_POINTS[::4]
    grid = np.stack(np.meshgrid(*[pts] * n, indexing="ij"), axis=-1).reshape(-1, n)
    x, y = grid[:, None, :], grid[None, :, :]
    for t in (0.05, 0.5, 2.0):
        for k_max in k_maxes:
            got = kernel_spectral(order, t, x, y, k_max)
            want = [[_spectral_one_pair(order, t, a, b, k_max) for b in grid] for a in grid]
            np.testing.assert_array_equal(got, want, err_msg=f"{order} t={t} k_max={k_max}")


def test_spectral_batch_near_its_one_pair_sum_in_three_dimensions():
    # from 3-D on the shells associate the products differently.  By
    # Cauchy-Schwarz the terms of a pair sum to at most sqrt(S(x, x) S(y, y)),
    # S the same sum on the diagonal, where every term is positive; rounding
    # is a small part of that scale, and of the value wherever the terms do
    # not cancel to far below it, as they do for far pairs at small t
    order = (0.5, -0.5, 1.3)
    rng = np.random.default_rng(11)
    x, y = rng.uniform(0.3, 2.5, size=(2, 12, 3))
    y[:6] = x[:6] + rng.uniform(-0.1, 0.1, size=(6, 3))
    for t in (0.05, 0.5, 2.0):
        for k_max in (6, 40):
            got = kernel_spectral(order, t, x, y, k_max)
            want = np.array([_spectral_one_pair(order, t, a, b, k_max) for a, b in zip(x, y)])
            scale = np.sqrt(kernel_spectral(order, t, x, x, k_max) * kernel_spectral(order, t, y, y, k_max))
            err = np.abs(got - want)
            assert np.all(err <= 1e-14 * scale), (t, k_max)
            plain = np.abs(want) >= 1e-3 * scale
            assert np.all(err[plain] <= 1e-12 * np.abs(want[plain])), (t, k_max)
            assert plain[:6].all()


def test_spectral_error_bound_holds_in_three_dimensions():
    # the accuracy kernel_spectral states (heat._spectral_error_bound),
    # against the closed form within its own accuracy, on the pairs of the
    # test above.  At t = 0.05 and k_max = 40 the tail dominates; at
    # t = 0.5 it is negligible, and the rounding term, which counts the
    # cancellation of far pairs, is what bounds the error
    from lagsem.heat import _CLOSED_REL, _spectral_error_bound

    order = MultiOrder((0.5, -0.5, 1.3))
    rng = np.random.default_rng(11)
    x, y = rng.uniform(0.3, 2.5, size=(2, 12, 3))
    y[:6] = x[:6] + rng.uniform(-0.1, 0.1, size=(6, 3))
    for t in (0.05, 0.5, 2.0):
        for k_max in (6, 40):
            closed = kernel_nd(order, t, x, y)
            err = np.abs(kernel_spectral(order, t, x, y, k_max) - closed)
            bound = _spectral_error_bound(order, t, x, y, k_max)
            assert np.all(err <= bound + order.n * _CLOSED_REL * np.abs(closed)), (t, k_max)
    for t, lo, hi in ((0.5, 0.0, 1e-9), (0.05, 1e-3, np.inf)):
        scale = np.sqrt(kernel_nd(order, t, x, x) * kernel_nd(order, t, y, y))
        bound = _spectral_error_bound(order, t, x, y, 40)
        assert np.all((lo * scale <= bound) & (bound <= hi * scale)), t


def test_spectral_takes_one_time():
    order = MultiOrder((0.5, 1.0))
    x, y = np.array([[1.0, 2.0], [0.7, 1.1]]), np.array([1.2, 1.5])
    np.testing.assert_array_equal(
        kernel_spectral(order, np.array([0.5]), x, y, 10), kernel_spectral(order, 0.5, x, y, 10)
    )
    assert kernel_spectral(order, np.array([0.5]), x[0], y, 10) == kernel_spectral(order, 0.5, x[0], y, 10)
    with pytest.raises(ValueError, match="^kernel_spectral takes one time$"):
        kernel_spectral(order, np.array([0.5, 1.0]), x, y, 10)


def test_empty_expansion_evaluates_to_zero():
    assert heat.evaluate_expansion((), 0.5, 0.3, 1.0, 2.0) == 0.0
    assert isinstance(heat.evaluate_expansion((), 0.5, 0.3, 1.0, 2.0), float)
    got = heat.evaluate_expansion((), 0.5, np.array([0.1, 0.2]), _PTS[:3, None, None], 1.0)
    np.testing.assert_array_equal(got, np.zeros((3, 1, 2)))
