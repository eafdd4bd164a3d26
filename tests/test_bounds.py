"""Gaussian bound fitting, sample builders, and the standard bound suite."""

import math

import numpy as np
import pytest

from lagsem import MultiOrder
from lagsem.bounds import (
    BoundFamily,
    fit_gaussian_bound,
    heat_size_family,
    minimal_decay_constant,
    pair_samples,
    product_adjoint_family,
    product_delta_family,
    product_partial_family,
    product_samples_1d,
    product_samples_2d,
    riesz_heat_size_family,
    riesz_size_family,
    standard_bound_suite,
)


def _small_grid():
    return product_samples_1d(np.geomspace(0.05, 5.0, 8), np.linspace(0.2, 3.0, 12),
                              np.linspace(0.2, 3.0, 12))


def test_product_samples_1d_shape():
    s = product_samples_1d([0.1, 1.0], [0.5, 1.0, 1.5], [2.0])
    assert s["t"].shape == s["x"].shape == s["y"].shape == (6,)
    assert np.all(s["t"][:3] == 0.1)


def test_product_samples_2d_shape():
    s = product_samples_2d([0.1, 1.0], [0.5, 1.5, 2.5])
    assert s["x"].shape == s["y"].shape == (2 * 9 * 9, 2)
    assert s["t"].shape == (2 * 9 * 9,)


def test_pair_samples_drop_diagonal():
    s = pair_samples([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert s["t"] is None
    assert s["x"].shape == (6,)
    assert np.all(np.abs(s["x"] - s["y"]) > 1e-12)


def test_pair_samples_with_times():
    s = pair_samples([1.0, 2.0], [1.0, 2.0], t_vals=[0.1, 0.5, 2.0])
    assert s["x"].shape == (6,)
    assert s["t"].shape == (6,)
    assert sorted(set(s["t"])) == [0.1, 0.5, 2.0]


def test_pair_samples_read_rows_as_points_and_flat_lists_as_coordinates():
    s = pair_samples([[1.0, 2.0]], [[3.0, 4.0]])  # one 2-D point each
    assert np.array_equal(s["x"], [[1.0, 2.0]]) and np.array_equal(s["y"], [[3.0, 4.0]])
    s = pair_samples([1.0], [2.0, 3.0])
    assert np.array_equal(s["x"], [1.0, 1.0]) and np.array_equal(s["y"], [2.0, 3.0])


def test_report_fields_and_json():
    rep = fit_gaussian_bound(heat_size_family(0.5), _small_grid())
    assert rep.passed
    assert rep.violations == []
    assert rep.fitted_C > 0.0
    assert rep.n_samples == 8 * 12 * 12
    blob = rep.to_json_dict()
    assert set(blob) == {
        "family_id", "fitted_C", "fixed_c", "exponent_gamma",
        "n_samples", "violations",
    }
    assert blob["fixed_c"] == 4.0


def test_fitted_constant_monotone_in_decay_rate():
    fam = heat_size_family(0.5)
    grid = _small_grid()
    c_vals = [3.0, 4.0, 6.0, 8.0]
    fits = [fit_gaussian_bound(fam, grid, c=c).fitted_C for c in c_vals]
    assert all(a >= b for a, b in zip(fits, fits[1:]))


def test_too_small_decay_rate_overflows_to_violations():
    # claiming e^(-d^2/(2t)) decay is sharper than the kernel's true rate,
    # so far-separated small-t pairs overflow the ratio and get recorded
    fam = heat_size_family(0.5)
    grid = product_samples_1d([0.01], [0.1], [3.9])
    rep = fit_gaussian_bound(fam, grid, c=2.0)
    assert not rep.passed
    assert len(rep.violations) == 1
    assert rep.violations[0]["t"] == 0.01


def test_zero_prefactor_flags_violations():
    fam = BoundFamily(
        family_id="degenerate",
        order=MultiOrder((0.5,)),
        decay_exponent=0.0,
        lhs=lambda t, x, y: np.ones_like(x),
        prefactor=lambda t, x, y: np.zeros_like(x),
        gaussian=False,
    )
    rep = fit_gaussian_bound(fam, _small_grid())
    assert not rep.passed
    assert rep.fitted_C == math.inf
    assert 0 < len(rep.violations) <= 20


def test_time_window_filters_samples():
    fam = heat_size_family(0.5)
    windowed = BoundFamily(
        family_id=fam.family_id + "-late",
        order=fam.order,
        decay_exponent=fam.decay_exponent,
        lhs=fam.lhs,
        prefactor=fam.prefactor,
        gaussian=fam.gaussian,
        t_lo=1.0,
    )
    grid = _small_grid()
    full = fit_gaussian_bound(fam, grid)
    late = fit_gaussian_bound(windowed, grid)
    assert 0 < late.n_samples < full.n_samples


def test_minimal_decay_constant_near_kernel_rate():
    # the closed-form kernel decays like e^(-d^2/(4t(1+o(1)))) in the
    # small-time regime, so the bracketed constant lands near 4
    from lagsem.bounds import _grid_1d

    c_min = minimal_decay_constant(heat_size_family(0.5), _grid_1d(fast=True))
    assert 3.5 < c_min < 4.8


def test_minimal_decay_constant_none_without_gaussian():
    fam = riesz_size_family(MultiOrder((0.5,)), (1,))
    samples = pair_samples(np.linspace(0.2, 2.0, 9), np.linspace(0.25, 2.05, 9))
    assert minimal_decay_constant(fam, samples) is None


def test_a_window_that_leaves_no_sample_fits_inf_in_both_fitters():
    # t_lo = 1 against times below 1: minimal_decay_constant raised numpy's
    # "zero-size array to reduction operation maximum"
    from lagsem.bounds import large_time_moment_family

    fam = large_time_moment_family(0.5, 1, 0)
    samples = product_samples_1d([0.1, 0.5], [0.5, 1.0], [0.7, 1.2])
    rep = fit_gaussian_bound(fam, samples)
    assert rep.n_samples == 0 and rep.fitted_C == math.inf
    assert minimal_decay_constant(fam, samples) == math.inf


def test_minimal_decay_constant_monotone_in_margin():
    fam = heat_size_family(0.5)
    grid = _small_grid()
    loose = minimal_decay_constant(fam, grid, margin=4.0)
    tight = minimal_decay_constant(fam, grid, margin=1.5)
    assert loose <= tight


def test_riesz_heat_family_takes_one_call_per_sample_set():
    # one time per pair in one call gives the bits of one call per distinct time
    from lagsem.bounds import _grid_riesz_heat
    from lagsem.operators import riesz_heat_composite_kernel

    order = MultiOrder((0.5,))
    samples = _grid_riesz_heat(fast=True)
    t, x, y = samples["t"], samples["x"], samples["y"]
    per_time = np.empty(t.shape)
    for tv in np.unique(t):
        at = t == tv
        per_time[at] = riesz_heat_composite_kernel(order, (1,), float(tv), x[at], y[at])
    assert np.array_equal(riesz_heat_size_family(order, (1,)).lhs(t, x, y), per_time)


def test_weight_exponent_at_the_hermite_endpoint():
    # 1-D Gaussian families weight with nu + 1/2 = 0 at nu = -1/2; Riesz and
    # n-D families use nu_min + 1/2 over the active axes, inf when none is
    # active, so the prefactor vanishes and no finite constant fits
    s1 = product_samples_1d([0.3, 1.0], np.linspace(0.2, 2.0, 5), np.linspace(0.2, 2.0, 5))
    heat = heat_size_family(-0.5)
    assert heat.decay_exponent == 0.0
    assert math.isfinite(fit_gaussian_bound(heat, s1).fitted_C)
    pairs = pair_samples(np.linspace(0.2, 2.0, 5), np.linspace(0.25, 2.05, 5), t_vals=[0.5])
    hermite = MultiOrder((-0.5,))
    for fam in (riesz_size_family(hermite, (1,)), riesz_heat_size_family(hermite, (1,))):
        assert fam.decay_exponent == math.inf
        assert fit_gaussian_bound(fam, pairs).fitted_C == math.inf
    fam = product_delta_family(MultiOrder((-0.5, -0.5)), (1, 0))
    assert fam.decay_exponent == math.inf
    s2 = product_samples_2d([0.3, 1.0], np.linspace(0.3, 2.0, 4))
    assert fit_gaussian_bound(fam, s2).fitted_C == math.inf


def test_standard_suite_fast_grid_all_pass():
    tasks = standard_bound_suite(fast=True)
    ids = [task.family.family_id for task in tasks]
    assert len(ids) == len(set(ids))
    assert len(tasks) >= 30
    for task in tasks:
        rep = fit_gaussian_bound(task.family, task.samples)
        assert rep.passed, rep.family_id
        assert math.isfinite(rep.fitted_C)
        assert rep.n_samples > 0


# (family id, decay_exponent, gaussian, t_lo, t_hi, n_samples, fitted_C) of
# every standard_bound_suite(fast=True) task; fitted_C changes in the last
# bits when a prefactor is evaluated in another order or a Bessel branch
# changes (the half-integer closed form moved 19 of them by up to 4.2e-15;
# numpy's 16-node Gauss-Legendre rule in the Riesz ladder, in place of
# scipy's, moved the last three Riesz rows by up to 1.3e-15; orders +-1/2
# taking the closed form on every z > 0 moved 17 of them by up to 1.7e-15)
FAMILY_TABLE = [
    ('hermite-weighted-partial[l=0,k=1,N=1]', 1.0, True, 0.0, math.inf, 6912, 46.994638467177175),
    ('hermite-weighted-partial[l=0,k=1,N=2]', 2.0, True, 0.0, math.inf, 6912, 1038.6938931241934),
    ('hermite-weighted-partial[l=1,k=1,N=2]', 2.0, True, 0.0, math.inf, 6912, 3183.6133570352285),
    ('hermite-weighted-partial[l=0,k=2,N=2]', 2.0, True, 0.0, math.inf, 6912, 8237.856129007083),
    ('hermite-delta[k=1,N=1]', 1.0, True, 0.0, math.inf, 6912, 46.89148035968682),
    ('hermite-delta[k=1,N=2]', 2.0, True, 0.0, math.inf, 6912, 690.7949216588498),
    ('hermite-delta[k=2,N=1]', 1.0, True, 0.0, math.inf, 6912, 913.6091972055996),
    ('hermite-delta[k=2,N=2]', 2.0, True, 0.0, math.inf, 6912, 8222.482774850394),
    ('heat-size[nu=0.5]', 1.0, True, 0.0, math.inf, 6912, 14.101676913686978),
    ('heat-size[nu=1.0]', 1.5, True, 0.0, math.inf, 6912, 78.03088303225806),
    ('offdiag-moment[nu=0.5,k=1,m=0]', 1.0, True, 0.0, 1.0, 2345, 249.97764787886018),
    ('offdiag-moment[nu=0.5,k=1,m=1]', 1.0, True, 0.0, 1.0, 2345, 4781.497437168125),
    ('offdiag-moment[nu=0.5,k=2,m=1]', 1.0, True, 0.0, 1.0, 2345, 191259.897486725),
    ('large-time-moment[nu=0.5,k=1,m=0]', 1.0, True, 1.0, math.inf, 2304, 1.1980618018415194),
    ('large-time-moment[nu=0.5,k=1,m=1]', 1.0, True, 1.0, math.inf, 2304, 0.010048305329820702),
    ('large-time-moment[nu=0.5,k=2,m=2]', 1.0, True, 1.0, math.inf, 2304, 0.011041490683043024),
    ('near-diagonal[nu=0.5,m=1]', 1.0, True, 0.0, 1.0, 2263, 26.415585601399222),
    ('near-diagonal[nu=0.5,m=2]', 1.0, True, 0.0, 1.0, 2263, 249.32562489483058),
    ('delta-size[nu=0.5,k=1]', 1.0, True, 0.0, math.inf, 6912, 119.53743592920313),
    ('delta-size[nu=0.5,k=2]', 1.0, True, 0.0, math.inf, 6912, 2283.4174676328926),
    ('delta-size[nu=1.3,k=1]', 1.8, True, 0.0, math.inf, 6912, 1718.3449344790185),
    ('partial-delta-size[nu=0.5,k=1,j=0]', 1.0, True, 0.0, math.inf, 6912, 16.470402213252356),
    ('partial-delta-size[nu=0.5,k=1,j=1]', 1.0, True, 0.0, math.inf, 6912, 314.62756839274914),
    ('partial-delta-size[nu=0.5,k=2,j=0]', 1.0, True, 0.0, math.inf, 6912, 144.41098208478084),
    ('adjoint-shifted-size[nu=0.5,m=0,k=1,ell=1]', 1.0, True, 0.0, math.inf, 6912, 121.95225231833548),
    ('adjoint-shifted-size[nu=0.5,m=0,k=2,ell=2]', 1.0, True, 0.0, math.inf, 6912, 2274.4358926227796),
    ('adjoint-shifted-size[nu=0.5,m=1,k=0,ell=2]', 1.0, True, 0.0, math.inf, 6912, 2066.0350692385878),
    ('adjoint-shifted-size[nu=0.5,m=1,k=1,ell=3]', 1.0, True, 0.0, math.inf, 6912, 37054.75041285821),
    ('product-delta-size[nu=[0.5, 1.0],m=[0, 0]]', 1.0, True, 0.0, math.inf, 3125, 1.7256923053099895),
    ('product-delta-size[nu=[0.5, 1.0],m=[1, 0]]', 1.0, True, 0.0, math.inf, 3125, 12.820388646453194),
    ('product-delta-size[nu=[0.5, 1.0],m=[1, 1]]', 1.0, True, 0.0, math.inf, 3125, 169.89342863167522),
    ('product-partial-size[nu=[0.5, 1.0],k=[1, 0],j=[0, 0]]', 1.0, True, 0.0, math.inf, 3125, 2.298582236702296),
    ('product-partial-size[nu=[0.5, 1.0],k=[1, 0],j=[0, 1]]', 1.0, True, 0.0, math.inf, 3125, 26.904503034973484),
    ('product-adjoint-size[nu=[0.5, 1.0],m=0,k=[1, 0],ell=[1, 0]]', 1.0, True, 0.0, math.inf, 3125, 13.079377676775374),
    ('product-adjoint-size[nu=[0.5, 1.0],m=1,k=[0, 0],ell=[2, 2]]', 1.0, True, 0.0, math.inf, 3125, 301.95178104167326),
    ('riesz-size[nu=[0.5],k=[1]]', 1.0, False, 0.0, math.inf, 1640, 16.4668758544484),
    ('riesz-size[nu=[0.5],k=[2]]', 1.0, False, 0.0, math.inf, 1640, 28.419000524124993),
    ('riesz-size[nu=[0.5, 1.0],k=[1, 0]]', 1.0, False, 0.0, math.inf, 1764, 5.629032611889193),
    ('riesz-heat-size[nu=[0.5],k=[1]]', 1.0, False, 0.0, math.inf, 1800, 23.63222211816702),
]


def test_families_refuse_bad_multi_indices_when_built():
    order2 = MultiOrder((0.5, 1.0))
    builds = (
        lambda: product_delta_family(order2, (1.9, 0)),
        lambda: product_delta_family(order2, (-1, 0)),
        lambda: product_partial_family(order2, (1, 0, 0), (0, 0)),
        lambda: product_adjoint_family(order2, 0, (1, 0), (0.5, 0)),
        lambda: riesz_size_family(order2, (-1, 2)),
    )
    for build in builds:
        with pytest.raises(ValueError, match="each a nonnegative integer"):
            build()
    with pytest.raises(ValueError, match=r"\|k\| >= 1"):
        riesz_heat_size_family(MultiOrder((0.5,)), (0,))


def test_standard_suite_family_table_is_pinned():
    got = []
    for task in standard_bound_suite(fast=True):
        fam = task.family
        rep = fit_gaussian_bound(fam, task.samples)
        got.append((fam.family_id, fam.decay_exponent, fam.gaussian, fam.t_lo, fam.t_hi,
                    rep.n_samples, rep.fitted_C))
    assert got == FAMILY_TABLE


# fitted_C of the same tasks before half-integer Bessel orders took the
# closed form; a deliberate numeric change may move each by rounding only
FITTED_C_BEFORE_CLOSED_FORM = [
    46.99463846717724,
    1038.6938931241934,
    3183.61335703523,
    8237.856129007096,
    46.8914803596868,
    690.79492165885,
    913.6091972055976,
    8222.482774850378,
    14.101676913686978,
    78.03088303225806,
    249.97764787886018,
    4781.497437168124,
    191259.89748672498,
    1.1980618018415194,
    0.0100483053298207,
    0.011041490683043022,
    26.41558560139922,
    249.32562489483072,
    119.5374359292031,
    2283.4174676328926,
    1718.3449344790185,
    16.470402213252353,
    314.62756839274914,
    144.41098208478084,
    121.95225231833534,
    2274.4358926227806,
    2066.0350692385887,
    37054.75041285824,
    1.7256923053099895,
    12.820388646453234,
    169.89342863167573,
    2.298582236702296,
    26.904503034973533,
    13.07937767677532,
    301.95178104167275,
    16.466875854448393,
    28.419000524124957,
    5.629032611889189,
    23.63222211816703,
]


def test_family_table_within_rounding_of_its_previous_values():
    assert len(FITTED_C_BEFORE_CLOSED_FORM) == len(FAMILY_TABLE)
    for row, before in zip(FAMILY_TABLE, FITTED_C_BEFORE_CLOSED_FORM):
        assert abs(row[-1] - before) <= 1e-13 * abs(before), row[0]


# reference sample builders, each its own meshgrid or repeat/tile cross product


def _reference_product_samples_1d(t_vals, x_vals, y_vals):
    T, X, Y = np.meshgrid(
        np.asarray(t_vals, float), np.asarray(x_vals, float), np.asarray(y_vals, float),
        indexing="ij",
    )
    return {"t": T.ravel(), "x": X.ravel(), "y": Y.ravel()}


def _reference_product_samples_2d(t_vals, coord_vals):
    c = np.asarray(coord_vals, float)
    pts = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)
    t = np.asarray(t_vals, float)
    nt, npt = t.size, pts.shape[0]
    T = np.repeat(t, npt * npt)
    X = np.tile(np.repeat(pts, npt, axis=0), (nt, 1))
    Y = np.tile(np.tile(pts, (npt, 1)), (nt, 1))
    return {"t": T, "x": X, "y": Y}


def _reference_pair_samples(x_points, y_points, t_vals=None):
    x = np.atleast_2d(np.asarray(x_points, float))
    y = np.atleast_2d(np.asarray(y_points, float))
    if x.shape[0] == 1 and x.shape[1] > 1 and y.shape[0] == 1:
        x, y = x.T, y.T
    X = np.repeat(x, y.shape[0], axis=0)
    Y = np.tile(y, (x.shape[0], 1))
    keep = np.linalg.norm(X - Y, axis=-1) > 1e-12
    X, Y = X[keep], Y[keep]
    if t_vals is None:
        return {"t": None, "x": X.squeeze(), "y": Y.squeeze()}
    t = np.asarray(t_vals, float)
    m = X.shape[0]
    return {
        "t": np.repeat(t, m),
        "x": np.tile(X, (t.size, 1)).squeeze(),
        "y": np.tile(Y, (t.size, 1)).squeeze(),
    }


@pytest.mark.parametrize("fast", [True, False])
def test_sample_builders_match_reference_on_standard_grids(fast):
    from lagsem.bounds import _grid_1d, _grid_2d, _grid_riesz_1d, _grid_riesz_2d, _grid_riesz_heat

    def lat(c):
        return np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)

    t1 = np.geomspace(0.01, 10.0, 12 if fast else 20)
    xy = np.linspace(0.1, 4.0, 24 if fast else 50)
    t2 = np.geomspace(0.01, 10.0, 5 if fast else 8)
    c2 = np.linspace(0.3, 3.0, 5 if fast else 7)
    r1 = np.linspace(0.05, 4.0, 41 if fast else 101)
    cx = np.linspace(0.3, 3.0, 6 if fast else 10)
    cy = np.linspace(0.35, 3.05, 7 if fast else 11)
    rh = np.linspace(0.05, 4.0, 25 if fast else 60)
    pairs = [
        (_grid_1d(fast), _reference_product_samples_1d(t1, xy, xy)),
        (_grid_2d(fast), _reference_product_samples_2d(t2, c2)),
        (_grid_riesz_1d(fast), _reference_pair_samples(r1, r1)),
        (_grid_riesz_2d(fast), _reference_pair_samples(lat(cx), lat(cy))),
        (_grid_riesz_heat(fast), _reference_pair_samples(rh, rh, t_vals=[0.01, 0.1, 1.0])),
    ]
    for got, want in pairs:
        for key in ("t", "x", "y"):
            if want[key] is None:
                assert got[key] is None
            else:
                assert got[key].dtype == want[key].dtype
                assert np.array_equal(got[key], want[key]), key
