"""The two benchmark workloads: inputs, one pass, and the outputs a pass gates.

Each workload is one closed-loop caller: a pass calls lagsem's public
functions one after another and returns ``(outputs, timings)``. ``outputs``
maps a name to a number that the correctness gate compares against the
reference recorded in ``reference.json``; ``timings`` holds per-check
seconds that lagsem reports itself (only ``suite-1d`` has them).

The benchmark seed picks one of ``N_FAMILIES`` input families, and every
input of a pass is drawn from that family number, so each family has a
recorded reference. lagsem receives only the generated inputs.

Importing this module imports lagsem, so the set-up time measured around
that import includes it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

import lagsem
from lagsem import cli
from lagsem.grids import Grid, GridFunction, gauss_legendre_axis

N_FAMILIES = 32

# Gate kinds, stated before any run of the changed code:
#   ("exact",)        the value must equal the reference
#   ("rel", tol)      |value - ref| <= tol * |ref|
#   ("ceiling", f)    an error measure at rounding level: value <= f * max(ref, 1e-16)
#   ("below", limit)  value < limit, whatever the reference
REL = ("rel", 1e-6)
ROUNDING = ("ceiling", 100.0)
EXACT = ("exact",)


def family_of(seed: int) -> int:
    return seed % N_FAMILIES


def passes_gate(kind: tuple, value: float, ref: float) -> bool:
    value, ref = float(value), float(ref)
    if kind[0] == "exact":
        return value == ref
    if kind[0] == "rel":
        return abs(value - ref) <= kind[1] * abs(ref)
    if kind[0] == "ceiling":
        return value <= kind[1] * max(ref, 1e-16)
    if kind[0] == "below":
        return value < kind[1]
    raise ValueError(f"unknown gate kind {kind!r}")


def check_outputs(wl, outputs, reference: dict):
    """Gate one pass; return (outputs checked, outputs failed).

    A pass that raised (``outputs is None``) fails every output.
    """
    if outputs is None:
        return len(reference), len(reference)
    failed = 0
    for name, ref in reference.items():
        value = outputs.get(name)
        if value is None or ref is None:
            ok = value is None and ref is None and name in outputs
        else:
            ok = passes_gate(wl.gate_kind(name), value, ref)
        if not ok:
            failed += 1
            print(f"gate failed: {wl.name} {name} = {value!r}, reference {ref!r}", file=sys.stderr)
    return len(reference), failed


class Suite1D:
    """``lagsem run --suite all`` in-process, order 0.5, ``fast = false``."""

    name = "suite-1d"
    # check values that measure an error at rounding level; the other
    # check values are quantities compared by relative tolerance
    ROUNDING_CHECKS = {
        "bessel-recurrence",
        "laguerre-orthonormality",
        "kernel-closed-vs-raw",
        "kernel-closed-vs-spectral",
        "semigroup-law",
        "semigroup-eigenrelation",
        "critical-covering",
        "riesz-variant-relation",
        "parseval",
        "riesz-composite-limit",
        "atom-validity",
    }

    def make_inputs(self, seed: int, workdir: str) -> dict:
        config = os.path.join(workdir, f"{self.name}-family{family_of(seed)}.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"order = 0.5\nfast = false\nseed = {family_of(seed)}\n")
        report = os.path.join(workdir, f"{self.name}-{os.getpid()}.json")
        return {"config": config, "out": report}

    def warm_up(self, inputs: dict) -> None:
        # fills the lru_cache state of operator_expansion and _leggauss
        lagsem.delta_kernel_1d(0.5, 1, 0.5, np.array([0.8, 1.2]), np.array([1.0, 1.4]))
        gauss_legendre_axis(0.0, 1.0)

    def run_pass(self, inputs: dict):
        argv = ["run", "--suite", "all", "--config", inputs["config"], "--out", inputs["out"]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(inputs["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        outputs = {
            "exit_code": code,
            "n_checks": report["n_checks"],
            "n_passed": report["n_passed"],
        }
        for check in report["checks"]:
            outputs["check." + check["check_id"]] = check["value"]
            if check["check_id"] == "gaussian-bound-families":
                for family_id, fitted in check["detail"].items():
                    outputs["fit." + family_id] = fitted
        return outputs, report["timings"]

    def gate_kind(self, name: str) -> tuple:
        if name.startswith("check.") and name[6:] in self.ROUNDING_CHECKS:
            return ROUNDING
        if name.startswith(("check.", "fit.")):
            return REL
        return EXACT


def _bump_function(order, grid: Grid, rng) -> GridFunction:
    """Three seeded Gaussian bumps times x^(nu + 1/2) per axis, on the grid."""
    pts = grid.points()
    vals = np.zeros(pts.shape[0])
    for _ in range(3):
        amp = rng.uniform(-1.0, 1.0)
        center = rng.uniform(1.0, 2.5, size=order.n)
        width = rng.uniform(0.35, 0.6)
        vals += amp * np.exp(-np.sum((pts - center) ** 2, axis=-1) / (2.0 * width * width))
    for j, nu in enumerate(order.nu):
        vals *= pts[:, j] ** (nu + 0.5)
    return GridFunction(grid, vals.reshape(grid.shape))


def _ladder(grid: Grid, steps: int) -> np.ndarray:
    # the same start as maximal_function's default ladder, fewer steps
    h = max(float(np.diff(ax.nodes).max()) for ax in grid.axes)
    return np.geomspace(2.0 * h, 30.0, steps)


class GridOperators:
    """Semigroup, maximal, square and Hardy/BMO operators on 1-D, 2-D and 3-D grids."""

    name = "grid-operators"
    T = 0.5
    N_ATOMS = 10
    P = 0.9
    # (order, axis hi, nodes per unit, time-ladder steps, run square_function)
    DIMS = (
        ((0.5,), 12.0, 32, 16, True),  # 384 nodes
        ((0.5, 1.0), 6.0, 4, 6, True),  # 24 x 24
        ((0.5, 1.0, 0.0), 4.0, 2, 4, False),  # 8 x 8 x 8
    )

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(family_of(seed))
        dims = []
        for nu, hi, per_unit, steps, square in self.DIMS:
            order = lagsem.MultiOrder(nu)
            axis = gauss_legendre_axis(0.0, hi, nodes_per_unit=per_unit, min_nodes=per_unit)
            grid = Grid((axis,) * order.n)
            dims.append((order, _bump_function(order, grid, rng), _ladder(grid, steps), square))
        atom_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.N_ATOMS)]
        return {"dims": dims, "atom_seeds": atom_seeds}

    def warm_up(self, inputs: dict) -> None:
        order, f, ladder, _ = inputs["dims"][0]
        lagsem.maximal_function(order, f, t_grid=ladder[-1:])

    def run_pass(self, inputs: dict):
        out = {}
        for order, f, ladder, square in inputs["dims"]:
            key = f"d{order.n}"
            by_kernel = lagsem.semigroup_apply(order, f, self.T, method="kernel")
            by_spectrum = lagsem.semigroup_apply(order, f, self.T, method="spectral")
            diff = np.linalg.norm(by_kernel.values - by_spectrum.values)
            out[key + ".route_diff"] = diff / np.linalg.norm(by_spectrum.values)
            out[key + ".semigroup_norm"] = by_kernel.norm_l2()
            mf = lagsem.maximal_function(order, f, t_grid=ladder)
            out[key + ".maximal_norm"] = mf.norm_l2()
            out[key + ".maximal_max"] = float(mf.values.max())
            if square:
                out[key + ".square_norm"] = lagsem.square_function(order, f).norm_l2()
        order, f = inputs["dims"][0][:2]
        for i, seed in enumerate(inputs["atom_seeds"]):
            atom = lagsem.random_atom(order, self.P, seed=seed)
            out[f"atom{i}.passed"] = int(lagsem.check_atom(atom)["passed"])
            out[f"atom{i}.hardy_norm"] = lagsem.hardy_norm_maximal(order, atom, self.P).value
            out[f"atom{i}.pairing"] = lagsem.duality_pairing(order, f, atom)
        out["bmo_norm"] = lagsem.bmo_norm(order, f, p=self.P).value
        return out, {}

    def gate_kind(self, name: str) -> tuple:
        if name.endswith(".route_diff"):
            return ("below", 1e-10)
        if name.endswith(".passed"):
            return EXACT
        return REL


WORKLOADS = {w.name: w for w in (Suite1D(), GridOperators())}
