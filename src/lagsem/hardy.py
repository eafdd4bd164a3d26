"""Atoms at the critical scale, maximal-function quasi-norms, and the
dual oscillation norm.

An atom for exponent p is supported in a ball B whose radius does not
exceed the critical radius at its center, is bounded by |B|^(-1/p), and
has vanishing moments up to degree floor(n(1/p - 1)) whenever the radius
is strictly below critical.  The dual norm combines a local oscillation
branch (radii below critical, polynomial part removed) with a plain size
branch at and above the critical radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .critical import Ball, rho
from .grids import Grid, GridFunction, gauss_legendre_axis, lattice
from .operators import _check_grids, default_time_ladder, maximal_function
from .special import MultiOrder, _points, as_order

__all__ = [
    "Atom",
    "NormReport",
    "BmoReport",
    "PolynomialFit",
    "moment_degree",
    "ball_grid",
    "minimizing_polynomial",
    "check_atom",
    "random_atom",
    "hardy_norm_maximal",
    "bmo_norm",
    "duality_pairing",
]


def _check_exponent(p) -> float:
    """The exponent rule: p as a float, or ValueError unless 0 < p <= 1."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"the atomic exponent p must lie in (0, 1], got {p}")
    return p


def _check_atom_order(order: MultiOrder, atom: Atom) -> None:
    """The atom-order rule: an atom enters an operator of its own order only."""
    if atom.order != order:
        raise ValueError(
            f"the atom has order {atom.order.nu}, not the order {order.nu} it is used with"
        )


def moment_degree(order: MultiOrder, p: float) -> int:
    """Highest vanishing-moment degree required of an atom for exponent p."""
    p = _check_exponent(p)
    order = as_order(order)
    return int(math.floor(order.n * (1.0 / p - 1.0)))


def ball_grid(ball: Ball, nodes_per_axis: int = 48) -> Grid:
    """Quadrature grid on the bounding box of a ball inside the orthant."""
    axes = []
    for c in ball.center:
        lo = c - ball.radius
        if lo <= 0.0:
            raise ValueError("ball must lie inside the orthant: center - radius > 0 on every axis")
        axes.append(gauss_legendre_axis(lo, c + ball.radius, min_nodes=nodes_per_axis))
    return Grid(tuple(axes))


def _monomials(degree: int, n: int) -> list[tuple[int, ...]]:
    return [
        beta
        for beta in itertools.product(range(degree + 1), repeat=n)
        if sum(beta) <= degree
    ]


def _monomial_values(ball: Ball, betas, pts: np.ndarray) -> np.ndarray:
    scaled = (pts - np.asarray(ball.center)) / ball.radius
    vals = np.ones((len(betas), pts.shape[0]))
    for i, beta in enumerate(betas):
        for ax, b in enumerate(beta):
            if b:
                vals[i] *= scaled[:, ax] ** b
    return vals


@dataclass(frozen=True)
class PolynomialFit:
    """Best-L2 polynomial on a ball in centered, radius-scaled monomials."""

    ball: Ball
    betas: tuple
    coeffs: np.ndarray
    cond: float

    def evaluate(self, pts) -> np.ndarray:
        pts = _points(self.ball.ndim, pts)[0].reshape(-1, self.ball.ndim)
        return self.coeffs @ _monomial_values(self.ball, self.betas, pts)


# Monomial-table elements below which the fit's sums over the points stay in
# BLAS, which may split larger sums across threads: with OpenBLAS 0.3.31 on
# 2 threads the 3-D atom grid's 110,592 points did, and every product of
# fewer than 8,192 elements tried (1-D and 2-D atoms of degree 0) did not.
_SERIAL_BLAS = 8192


def minimizing_polynomial(
    f: GridFunction, ball: Ball, degree: int, weight=None
) -> PolynomialFit:
    """Polynomial of bounded degree minimizing the L2(ball) deviation from f.

    An optional nonnegative weight (array on the grid of f) replaces the
    plain ball indicator; with a weight w the fit makes every moment
    int w (f - q) x^beta vanish exactly, which is how atoms get their
    cancellation.
    """
    pts = f.grid.points()
    w = f.grid.weights_nd().ravel() * ball.contains(pts)
    if weight is not None:
        w = w * np.asarray(weight, dtype=float).ravel()
    if np.all(w <= 0.0):
        raise ValueError("the ball does not meet the grid")
    betas = _monomials(degree, f.grid.ndim)
    basis = _monomial_values(ball, betas, pts)
    weighted = basis * w
    if basis.size < _SERIAL_BLAS:
        gram, rhs = weighted @ basis.T, weighted @ f.values.ravel()
    else:  # einsum sums over the points in one order, whatever the BLAS threads
        gram, rhs = np.einsum("ip,jp->ij", weighted, basis), np.einsum("ip,p->i", weighted, f.values.ravel())
    coeffs = np.linalg.solve(gram, rhs)
    return PolynomialFit(ball, tuple(betas), coeffs, float(np.linalg.cond(gram)))


@dataclass(frozen=True)
class Atom:
    order: MultiOrder
    p: float
    ball: Ball
    func: GridFunction

    def __post_init__(self):
        _check_exponent(self.p)


def check_atom(atom: Atom) -> dict:
    """Verify the three atom properties; radii above critical only warn.

    Returns a dict with the measured sup, the allowed bound, the scaled
    moment values, and boolean fields; ``passed`` means support and size
    hold and, when the radius is below the critical radius at the center,
    all required moments vanish to 1e-10 relative to the L1 mass.
    """
    order, ball = atom.order, atom.ball
    pts = atom.func.grid.points()
    vals = atom.func.values.ravel()
    w = atom.func.grid.weights_nd().ravel()
    inside = ball.contains(pts)

    sup = float(np.max(np.abs(vals)))
    bound = ball.volume ** (-1.0 / atom.p)
    size_ok = sup <= bound * (1.0 + 1e-12)
    outside_max = float(np.max(np.abs(vals) * (~inside))) if np.any(~inside) else 0.0
    support_ok = outside_max <= 1e-12 * max(sup, 1.0)

    critical = rho(order, ball.center)

    moments = {}
    moments_ok = True
    if ball.radius < critical:
        l1 = float(np.sum(w * np.abs(vals)))
        betas = _monomials(moment_degree(order, atom.p), order.n)
        basis = _monomial_values(ball, betas, pts)
        for beta, row in zip(betas, basis):
            m = float(np.sum(w * vals * row))
            moments[",".join(map(str, beta))] = m
            moments_ok &= abs(m) <= 1e-10 * l1

    return {
        "sup": sup,
        "sup_bound": bound,
        "size_ok": size_ok,
        "support_ok": support_ok,
        "radius": ball.radius,
        "critical_radius": critical,
        "radius_exceeds_critical": ball.radius > critical,
        "moments": moments,
        "moments_ok": moments_ok,
        "passed": bool(size_ok and support_ok and moments_ok),
    }


def _radial_bump(pts: np.ndarray, center: np.ndarray, scale: float) -> np.ndarray:
    u2 = np.sum(((pts - center) / scale) ** 2, axis=-1)
    return np.where(u2 < 1.0, (1.0 - np.minimum(u2, 1.0)) ** 3, 0.0)


def random_atom(
    order: MultiOrder,
    p: float,
    seed=None,
    nodes_per_axis: int = 48,
) -> Atom:
    """Draw a random atom: bumps minus their moment-matching polynomial.

    The center is uniform in [0.5, 2.5]^n, the radius log-uniform in
    [critical/8, critical), so the moment condition always applies.  A few
    random bumps are multiplied by a smooth ball cutoff; subtracting the
    cutoff-weighted minimizing polynomial kills the required moments
    exactly, and the result is rescaled to saturate the size bound.
    """
    order = as_order(order)
    rng = np.random.default_rng(seed)
    for _ in range(10):  # a degenerate draw is retried
        center = rng.uniform(0.5, 2.5, size=order.n)
        critical = rho(order, center)
        radius = critical * math.exp(rng.uniform(math.log(1.0 / 8.0), 0.0)) * 0.999
        ball = Ball(tuple(center), radius)
        grid = ball_grid(ball, nodes_per_axis)
        pts = grid.points()

        cutoff = _radial_bump(pts, center, radius)
        raw = np.zeros(pts.shape[0])
        for _ in range(3):
            direction = rng.normal(size=order.n)
            direction /= np.linalg.norm(direction)
            bc = center + direction * rng.uniform(0.0, 0.5 * radius)
            raw += rng.uniform(-1.0, 1.0) * _radial_bump(pts, bc, rng.uniform(0.3, 0.6) * radius)
        # project raw under the cutoff weight so that cutoff*(raw - q) has
        # exactly vanishing moments
        g = GridFunction(grid, raw.reshape(grid.shape))
        fit = minimizing_polynomial(g, ball, moment_degree(order, p), weight=cutoff)
        vals = cutoff * (raw - fit.evaluate(pts))
        sup = float(np.max(np.abs(vals)))
        if sup < 1e-10 * max(float(np.max(np.abs(raw * cutoff))), 1e-300):
            continue
        vals = vals / (sup * ball.volume ** (1.0 / p))
        return Atom(order, p, ball, GridFunction(grid, vals.reshape(grid.shape)))
    raise RuntimeError("random atom construction degenerated repeatedly")


@dataclass(frozen=True)
class NormReport:
    value: float
    p: float
    n_times: int
    eval_lo: tuple
    eval_hi: tuple

    def to_json_dict(self) -> dict:
        return asdict(self)


def hardy_norm_maximal(
    order: MultiOrder,
    f,
    p: float,
    t_grid=None,
    eval_grid: Grid | None = None,
) -> NormReport:
    """Quasi-norm (int |Mf|^p)^(1/p) of the vertical maximal function.

    Accepts a grid function or an atom of ``order``.  For atoms the
    defaults adapt to the atom scale: times start an order of magnitude
    below the radius and the evaluation box is a thirty-radius dilation of
    the support (truncation outside contributes only the far tail of
    |Mf|^p).
    """
    order = as_order(order)
    _check_exponent(p)
    if isinstance(f, Atom):
        _check_atom_order(order, f)
        ball = f.ball
        if t_grid is None:
            t_grid = np.geomspace(ball.radius / 10.0, 8.0, 40)
        if eval_grid is None:
            axes = []
            for c in ball.center:
                lo = max(1e-4, c - 30.0 * ball.radius)
                axes.append(gauss_legendre_axis(lo, c + 30.0 * ball.radius, min_nodes=96))
            eval_grid = Grid(tuple(axes))
        f = f.func
    elif eval_grid is None:
        eval_grid = f.grid
    if t_grid is None:
        t_grid = default_time_ladder(f.grid)
    mf = maximal_function(order, f, t_grid=t_grid, eval_grid=eval_grid)
    lo = tuple(float(ax.nodes.min()) for ax in eval_grid.axes)
    hi = tuple(float(ax.nodes.max()) for ax in eval_grid.axes)
    return NormReport(mf.norm_lp(p), p, np.atleast_1d(t_grid).size, lo, hi)


@dataclass(frozen=True)
class BmoReport:
    value: float
    oscillation_sup: float
    size_sup: float
    n_balls: int
    p: float
    q: float = 1.0

    def to_json_dict(self) -> dict:
        return asdict(self)


def bmo_norm(
    order: MultiOrder,
    f: GridFunction,
    p: float = 1.0,
    q: float = 1.0,
    radius_factors=(0.125, 0.25, 0.5, 1.0, 2.0),
    nodes_per_axis: int = 64,
) -> BmoReport:
    """Two-branch oscillation norm over a deterministic multiscale family.

    Balls are centered on the lattice 0.4, 0.4 + h, ..., 3.2 per axis
    (h = 0.2 in 1-D, 0.4 otherwise).  Balls with radius below the critical
    radius contribute the L^q mean deviation from the minimizing
    polynomial; larger balls contribute the plain L^q mean of |f|.  Both are scaled by |B|^(1 - 1/p); the reported
    value is the sup over the family.  Averages use local quadrature with
    the function interpolated from its grid, so f should be resolved on
    scales around rho/8.  Different q give comparable values (the space
    does not depend on q); q = 1 is the default, and q must be finite and
    >= 1.  f lives on a grid of the order's dimension, and at least one
    ball of the family must lie inside the orthant.
    """
    order = as_order(order)
    degree = moment_degree(order, p)
    if not 1.0 <= q < math.inf:
        raise ValueError(f"the averaging exponent q must be finite and >= 1, got {q}")
    _check_grids(order, f.grid)
    scale_exp = 1.0 / p - 1.0
    axis = np.arange(0.4, 3.2001, 0.2 if order.n == 1 else 0.4)
    centers = lattice(*[axis] * order.n)

    osc_sup = 0.0
    size_sup = 0.0
    n_balls = 0
    for center in centers:
        crit = rho(order, center)
        for factor in radius_factors:
            r = factor * crit
            if np.any(center - r <= 0.0):
                continue
            ball = Ball(tuple(center), r)
            local = ball_grid(ball, nodes_per_axis)
            pts = local.points()
            w = local.weights_nd().ravel() * ball.contains(pts)
            mass = float(np.sum(w))
            vals = f.interp(pts)
            n_balls += 1
            if r < crit:
                fit = minimizing_polynomial(GridFunction(local, vals.reshape(local.shape)), ball, degree)
                dev = (float(np.sum(w * np.abs(vals - fit.evaluate(pts)) ** q)) / mass) ** (1.0 / q)
                osc_sup = max(osc_sup, dev / ball.volume**scale_exp)
            else:
                avg = (float(np.sum(w * np.abs(vals) ** q)) / mass) ** (1.0 / q)
                size_sup = max(size_sup, avg / ball.volume**scale_exp)
    if n_balls == 0:
        raise ValueError(
            "the ball family is empty: no radius factor gives a ball inside the orthant"
        )
    return BmoReport(max(osc_sup, size_sup), osc_sup, size_sup, n_balls, p, q)


def duality_pairing(order: MultiOrder, f: GridFunction, atom: Atom) -> float:
    """Integral of f against an atom, on the atom's own grid.

    The pairing extends continuously to the dual space: its size is
    controlled by the two-branch oscillation norm of f uniformly over
    atoms, which is what the verification suite samples.  The atom must be
    an atom of ``order`` and f must live on a grid of its dimension.
    """
    order = as_order(order)
    _check_atom_order(order, atom)
    _check_grids(order, f.grid)
    grid = atom.func.grid
    if f.grid is grid:
        fv = f.values.ravel()
    else:
        fv = f.interp(grid.points())
    w = grid.weights_nd().ravel()
    return float(np.sum(w * fv * atom.func.values.ravel()))
