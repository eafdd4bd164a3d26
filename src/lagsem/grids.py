"""Tensor-product Gauss-Legendre grids on boxes in the positive orthant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import RegularGridInterpolator

__all__ = ["QuadAxis", "Grid", "GridFunction", "gauss_legendre_axis"]


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre_axis(lo: float, hi: float, nodes_per_unit: int = 64, min_nodes: int = 16):
    """Composite Gauss-Legendre rule on [lo, hi].

    The interval is split into roughly unit-length panels with
    ``nodes_per_unit`` nodes each; short intervals get a single panel with
    at least ``min_nodes`` nodes.  Nodes are strictly interior, so grids
    that start at 0 never touch the boundary of the orthant.
    """
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError("axis needs hi > lo")
    if lo < 0.0:
        raise ValueError("axes must stay in the closed positive half-line")
    width = hi - lo
    n_panels = max(1, int(math.ceil(width)))
    per_panel = max(min_nodes, int(round(nodes_per_unit * width / n_panels)))
    base_x, base_w = _leggauss(per_panel)
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(a + half * (base_x + 1.0))
        weights.append(half * base_w)
    return QuadAxis(np.concatenate(nodes), np.concatenate(weights))


@dataclass(frozen=True)
class QuadAxis:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-D arrays")


@dataclass(frozen=True)
class Grid:
    """Tensor product of quadrature axes."""

    axes: tuple[QuadAxis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))

    @classmethod
    def box(cls, lo, hi, nodes_per_unit: int = 64, min_nodes: int = 16) -> "Grid":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box corners must have the same dimension")
        return cls(
            tuple(
                gauss_legendre_axis(a, b, nodes_per_unit=nodes_per_unit, min_nodes=min_nodes)
                for a, b in zip(lo, hi)
            )
        )

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.nodes.size for ax in self.axes)

    def weights_nd(self) -> np.ndarray:
        w = self.axes[0].weights
        for ax in self.axes[1:]:
            w = np.multiply.outer(w, ax.weights)
        return w

    def points(self) -> np.ndarray:
        """All nodes as an (N, ndim) array in C order."""
        mesh = np.meshgrid(*(ax.nodes for ax in self.axes), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class GridFunction:
    """Samples of a function on a Grid, with quadrature-backed norms."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )

    def integrate(self) -> float:
        return float(np.sum(self.grid.weights_nd() * self.values))

    def inner(self, other: "GridFunction") -> float:
        if other.grid is not self.grid and other.grid.shape != self.grid.shape:
            raise ValueError("grid mismatch in inner product")
        return float(np.sum(self.grid.weights_nd() * self.values * other.values))

    def norm_l2(self) -> float:
        return math.sqrt(max(0.0, float(np.sum(self.grid.weights_nd() * self.values**2))))

    def norm_lp(self, p: float) -> float:
        """(integral of |f|^p)^(1/p); a quasi-norm for p < 1."""
        if p <= 0:
            raise ValueError("p must be positive")
        mass = float(np.sum(self.grid.weights_nd() * np.abs(self.values) ** p))
        return mass ** (1.0 / p)

    def interp(self, pts) -> np.ndarray:
        """Linear interpolation at (M, ndim) points, zero outside the box."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        itp = RegularGridInterpolator(
            tuple(ax.nodes for ax in self.grid.axes),
            self.values,
            method="linear",
            bounds_error=False,
            fill_value=0.0,
        )
        return itp(pts)

    def __add__(self, other):
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - other.values)

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)
