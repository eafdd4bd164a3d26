"""Critical scale function, its slow variation, and Vitali-type coverings."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .grids import lattice
from .special import MultiOrder, _check_order, _check_space, _points, as_order

__all__ = [
    "rho",
    "rho_axis",
    "critical_weight",
    "check_slow_variation",
    "SlowVariationReport",
    "Ball",
    "Covering",
    "build_covering",
]

# Largest candidate lattice build_covering accepts.  The greedy sweep holds
# the whole lattice and its radii, so memory and time grow with this count;
# the 2-D covering of [0.4, 1.6]^2 has 231,361 candidates.
MAX_COVERING_CANDIDATES = 1_000_000


def rho(order: MultiOrder, x):
    """Critical scale (1/16) min{1/|x|, 1, x_j for active axes}.

    x is a point array (``special._points``); returns its leading shape, a
    float for one point.  The constant entry 1 is always part of the
    minimum, so rho <= 1/16 everywhere.
    """
    order = as_order(order)
    (x,) = _points(order.n, x)
    norm = np.sqrt(np.sum(x * x, axis=-1))
    val = np.minimum(1.0 / norm, 1.0)
    for j in order.active_axes:
        val = np.minimum(val, x[..., j])
    val = val / 16.0
    return val if val.ndim else float(val)


def critical_weight(order: MultiOrder, s, x, y):
    """Weight 1 + s/rho(x) + s/rho(y) at scale s; x, y are point arrays (``special._points``)."""
    x, y = _points(as_order(order).n, x, y)
    return 1.0 + s / rho(order, x) + s / rho(order, y)


def rho_axis(nu_j: float, x_j):
    """Per-axis critical scale: min{x, 1/x}/16 for active orders, min{1, 1/x}/16 otherwise."""
    nu_j = _check_order(nu_j)
    x = np.asarray(x_j, dtype=float)
    _check_space(x)
    first = x if nu_j > -0.5 else np.ones_like(x)
    val = np.minimum(first, 1.0 / x) / 16.0
    return val if val.ndim else float(val)


@dataclass
class SlowVariationReport:
    """Outcome of the two-sided comparability check on dilated balls."""

    n_pairs: int
    min_ratio: float
    max_ratio: float
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_slow_variation(
    order: MultiOrder,
    n_pairs: int = 10_000,
    seed: int = 7,
) -> SlowVariationReport:
    """Sample pairs y in 4B(x, rho(x)) and verify rho(y)/rho(x) in [1/2, 2].

    Base points are log-uniform in [0.05, 10]^n, companions uniform in the
    dilated ball intersected with the open orthant.
    """
    if not isinstance(n_pairs, numbers.Integral) or isinstance(n_pairs, bool) or n_pairs < 1:
        raise ValueError(f"n_pairs must be a positive integer, got {n_pairs!r}")
    order = as_order(order)
    rng = np.random.default_rng(seed)
    n = order.n
    # a fixed sampling box, not the suite config's box_lo/box_hi
    xs = np.exp(rng.uniform(math.log(0.05), math.log(10.0), size=(n_pairs, n)))
    rx = rho(order, xs)
    # draw offsets uniformly in the dilated ball, resampling until the
    # companion stays inside the orthant; sqrt(u.dot(u)) is
    # np.linalg.norm(u) for a 1-D u, and Python floats round as numpy's
    ys = np.empty_like(xs)
    for i, r in enumerate(rx.tolist()):
        x = xs[i].tolist()
        for _ in range(100):
            u = rng.standard_normal(n)
            norm = math.sqrt(u.dot(u))
            radius = 4.0 * r * rng.uniform() ** (1.0 / n)
            cand = [xj + radius * (uj / norm) for xj, uj in zip(x, u.tolist())]
            if min(cand) > 0.0:
                ys[i] = cand
                break
        else:
            ys[i] = x
    ry = rho(order, ys)
    ratios = ry / rx
    bad = (ratios < 0.5) | (ratios > 2.0)
    violations = [
        {"x": xs[i].tolist(), "y": ys[i].tolist(), "ratio": float(ratios[i])}
        for i in np.nonzero(bad)[0][:50]
    ]
    return SlowVariationReport(
        n_pairs=n_pairs,
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        violations=violations,
    )


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "center", center)
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")

    @property
    def ndim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        n = self.ndim
        return float(
            math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * self.radius**n
        )

    def contains(self, pts) -> np.ndarray:
        (pts,) = _points(self.ndim, pts)
        d = np.linalg.norm(pts - np.asarray(self.center), axis=-1)
        return d < self.radius


def _bump_profile(u2: np.ndarray) -> np.ndarray:
    # C^2 compactly supported profile (1 - u^2)^3 on u < 1, from u2 = u^2
    core = np.clip(1.0 - u2, 0.0, None)
    return core * core * core


@dataclass
class Covering:
    """Balls B(x_i, rho(x_i)) covering a box, with fifth-radius disjointness."""

    order: MultiOrder
    box_lo: tuple
    box_hi: tuple
    centers: np.ndarray
    radii: np.ndarray

    def bump_values(self, pts) -> np.ndarray:
        """Normalized partition functions at M points (``special._points``), shape (n_balls, M)."""
        pts = _points(self.order.n, pts)[0].reshape(-1, self.order.n)
        d = np.linalg.norm(pts[None, :, :] - self.centers[:, None, :], axis=-1)
        u = d / self.radii[:, None]
        raw = _bump_profile(u * u)
        denom = raw.sum(axis=0)
        if np.any(denom <= 0.0):
            raise ValueError("partition undefined: a point is not interior to any ball")
        return raw / denom[None, :]

    def verify(self, points_per_axis: int = 200) -> dict:
        """Invariant checks: disjointness, coverage, overlap bound, partition sum.

        The checks run on a lattice of ``points_per_axis`` points per axis
        from the box's lower corner to its upper one, so an integer (not a
        bool) of at least two.
        """
        if not isinstance(points_per_axis, numbers.Integral) or isinstance(points_per_axis, bool):
            raise ValueError(f"points_per_axis must be an integer, got {points_per_axis!r}")
        if points_per_axis < 2:
            raise ValueError(f"points_per_axis must be at least 2, got {points_per_axis}")
        axes = [np.linspace(a, b, points_per_axis) for a, b in zip(self.box_lo, self.box_hi)]
        r_max = float(self.radii.max())

        # pairwise fifth-radius disjointness: a pair can only conflict when
        # its first coordinates are within 2 r_max / 5, so each block of
        # balls sorted by x_0 is compared with a band of the sorted list
        disjoint = True
        m = len(self.radii)
        by_x0 = np.argsort(self.centers[:, 0], kind="stable")
        x0 = self.centers[by_x0, 0]
        reach = 2.0 * r_max / 5.0 * (1.0 + 1e-9)
        for start in range(0, m, 256):
            rows = by_x0[start : start + 256]
            band = x0[start : start + 256]
            cols = by_x0[
                np.searchsorted(x0, band[0] - reach) : np.searchsorted(x0, band[-1] + reach, "right")
            ]
            dist = np.linalg.norm(self.centers[rows, None, :] - self.centers[None, cols, :], axis=-1)
            thresh = (self.radii[rows, None] + self.radii[None, cols]) / 5.0
            dist[rows[:, None] == cols[None, :]] = np.inf
            if not np.all(dist >= thresh - 1e-12):
                disjoint = False
                break

        # coverage, overlap and partition sums on tiles of about one ball
        # diameter per axis, each against the balls that can reach the tile
        # (in ball order, so the sums are those of the dense computation)
        max_overlap = 0
        worst_margin = 0.0
        partition_err = 0.0
        inv_r2 = 1.0 / self.radii**2
        steps = [max(1, int(2.0 * r_max / (ax[1] - ax[0]))) for ax in axes]
        for corner in itertools.product(*[range(0, ax.size, s) for ax, s in zip(axes, steps)]):
            tile = [ax[c : c + s] for ax, c, s in zip(axes, corner, steps)]
            block = lattice(*tile)
            gap = np.maximum(block.min(axis=0) - self.centers, 0.0) + np.maximum(
                self.centers - block.max(axis=0), 0.0
            )
            near = np.flatnonzero(np.einsum("ij,ij->i", gap, gap) < (1.001 * self.radii) ** 2)
            diff = block[None, :, :] - self.centers[near, None, :]
            rel2 = np.einsum("ijk,ijk->ij", diff, diff) * inv_r2[near, None]
            if near.size == 0 or rel2.min(axis=0).max() >= 1.0:
                # a point outside every nearby ball: its margin needs all balls
                diff = block[None, :, :] - self.centers[:, None, :]
                rel2 = np.einsum("ijk,ijk->ij", diff, diff) * inv_r2[:, None]
            inside = rel2 < 1.0
            max_overlap = max(max_overlap, int(inside.sum(axis=0).max()))
            worst_margin = max(worst_margin, math.sqrt(float(rel2.min(axis=0).max())))
            raw = _bump_profile(rel2)
            sums = raw.sum(axis=0)
            if np.any(sums <= 0.0):
                partition_err = math.inf
            else:
                partition_err = max(
                    partition_err, float(np.abs((raw / sums[None, :]).sum(axis=0) - 1.0).max())
                )
        return {
            "n_balls": int(len(self.radii)),
            "fifth_radius_disjoint": disjoint,
            "covers_box": bool(worst_margin < 1.0),
            "max_cover_margin": worst_margin,
            "max_overlap": max_overlap,
            "partition_sum_error": partition_err,
        }

    def to_json_dict(self) -> dict:
        return {
            "order": list(self.order.nu),
            "box_lo": list(self.box_lo),
            "box_hi": list(self.box_hi),
            "balls": [
                {"center": list(map(float, c)), "radius": float(r)}
                for c, r in zip(self.centers, self.radii)
            ],
        }


def build_covering(order: MultiOrder, box_lo, box_hi) -> Covering:
    """Greedy maximal packing of fifth-radius balls at the critical scale.

    Candidate centers sweep a lattice with spacing min(rho)/10 in
    lexicographic order; a candidate is accepted when its fifth-radius
    ball is disjoint from all previously accepted ones.  By slow
    variation the accepted full-radius balls cover the box.

    The box must stay at least 0.05 away from the coordinate
    hyperplanes; coverings of boxes touching the boundary are not defined.
    """
    order = as_order(order)
    lo = np.broadcast_to(np.asarray(box_lo, dtype=float), (order.n,)).copy()
    hi = np.broadcast_to(np.asarray(box_hi, dtype=float), (order.n,)).copy()
    if np.any(hi <= lo):
        raise ValueError("box needs hi > lo componentwise")
    if np.any(lo < 0.05):
        raise ValueError("box must keep a margin of 0.05 from the boundary")

    probe = lattice(*[np.linspace(a, b, 41) for a, b in zip(lo, hi)])
    rho_min = float(np.min(rho(order, probe)))
    spacing = rho_min / 10.0

    axes = [np.arange(a, b + 0.5 * spacing, spacing) for a, b in zip(lo, hi)]
    n_candidates = math.prod(ax.size for ax in axes)
    if n_candidates > MAX_COVERING_CANDIDATES:
        raise ValueError(
            f"covering lattice would have {n_candidates} candidates "
            f"(limit {MAX_COVERING_CANDIDATES}); use a smaller box"
        )
    candidates = lattice(*axes)
    lattice_rho = rho(order, candidates)

    # sweep the lattice row by row (the last axis varies fastest).  A row is
    # checked at once against the balls accepted in earlier rows, then
    # greedily along its own axis.  Conflicts only reach 2 r_cap / 5, and the
    # accepted centers stay in lexicographic order, so sorted by x_0.
    reach = 2.0 * float(np.max(lattice_rho)) / 5.0
    row_len = axes[-1].size
    acc_pts = np.empty_like(candidates)
    acc_r = np.empty_like(lattice_rho)
    n_acc = 0
    for start in range(0, candidates.shape[0], row_len):
        cand = candidates[start : start + row_len]
        rc = lattice_rho[start : start + row_len]
        free = np.ones(row_len, dtype=bool)
        if order.n > 1 and n_acc:
            first = int(np.searchsorted(acc_pts[:n_acc, 0], cand[0, 0] - reach))
            prefix_gap = np.abs(acc_pts[first:n_acc, :-1] - cand[0, :-1])
            prev = first + np.flatnonzero(np.all(prefix_gap <= reach, axis=1))
            d2 = np.sum((acc_pts[None, prev] - cand[:, None]) ** 2, axis=-1)
            free = ~np.any(d2 < ((acc_r[None, prev] + rc[:, None]) / 5.0) ** 2, axis=1)
        row: list[tuple[float, float]] = []
        for j in np.flatnonzero(free).tolist():
            x, r = float(cand[j, -1]), float(rc[j])
            clash = False
            for xa, ra in reversed(row):
                if x - xa >= reach:
                    break
                t = (ra + r) / 5.0
                if (x - xa) * (x - xa) < t * t:
                    clash = True
                    break
            if clash:
                continue
            row.append((x, r))
            acc_pts[n_acc] = cand[j]
            acc_r[n_acc] = r
            n_acc += 1
    centers, radii = acc_pts[:n_acc], acc_r[:n_acc]
    return Covering(
        order=order,
        box_lo=tuple(map(float, lo)),
        box_hi=tuple(map(float, hi)),
        centers=np.asarray(centers),
        radii=np.asarray(radii),
    )
