"""Layer benchmarks of the Bessel and 1-D heat-kernel code (pytest-benchmark).

Times ``ive`` per branch and the two 1-D kernel entry points:

- ``ive`` Riesz call: every Bessel argument of one Riesz kernel call
  (``riesz_kernel`` of order 1/2, k = 2, on 41 x 41 off-diagonal pairs in
  [0.05, 4]), replayed call by call with the same arrays, whatever branch
  each element takes.  This is the row that compares two checkouts whose
  branch rules differ;
- ``ive`` series: the arguments of that call at or below the series
  cutoff max(50, 2 alpha^2).  For orders other than half-integers these
  all take the batched power series.  Orders +-1/2 take the closed form
  on every z > 0, and the other half-integer orders up to 20.5 from
  z = max(1, alpha^2/2) on, so for them this row times a mix of series
  and closed form, and against a checkout with another branch rule its
  two sides do not do the same work;
- ``ive`` order 1/2 below 1: z in (0, 1), which the power series summed
  before the closed form took every z > 0 at orders +-1/2;
- ``ive`` order 3/2 below 1e-2: z in [1e-8, 1e-2], where the bound over
  the batch stops the power series after a few terms;
- ``ive`` anchored: arguments whose leading series term underflows, summed
  by the scalar fallback anchored at the largest term;
- ``ive`` Hankel: order-1/2 arguments above the series cutoff.  With the
  half-integer closed form they take that branch instead, so this row
  then compares the closed form with the Hankel loop it replaced;
- ``kernel_1d_closed`` and ``evaluate_expansion`` (through
  ``delta_kernel_1d`` with m = 2), on 16 times by 64 x 64 space pairs;
- the two kernel checks of the suite at ``SuiteConfig(fast=False)``:
  ``check_closed_vs_spectral`` (``kernel_spectral`` against the closed
  form on 15 x 15 pairs) and ``check_semigroup_law`` (3 x 2 pairs, each
  composed over a 768-node quadrature).  Both run on any checkout that
  has ``lagsem.suites``, so they compare two checkouts whose kernel
  signatures differ.

Each benchmark records its work count (elements or pairs) in
``extra_info``.  The lagsem imports sit inside the benchmarks, so the
module also runs as a script without lagsem on the path.  The file is
outside the Tier-1 ``testpaths``; run it with

    python3 -m pytest benchmarks/bench_bessel.py

or compare two checkouts and write a JSON table of both:

    python3 benchmarks/bench_bessel.py --parent-src ../parent/src --out layers.json

which runs the benchmarks on the parent's ``src`` and on this checkout's,
alternating, ``ROUNDS`` times each, and records each benchmark's median
over the rounds' medians.  The ``layers`` blocks of ``BENCH_4.json``,
``BENCH_7.json`` and ``BENCH_12.json`` are such tables.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

N_PAIRS_1D = 16 * 64 * 64
# rounds per checkout in the two-checkout comparison
ROUNDS = 5


@pytest.fixture(scope="module")
def riesz_calls():
    from lagsem import MultiOrder, heat, riesz_kernel

    seen = []
    real = heat.ive

    def spy(nu, z):
        seen.append((nu, np.array(z)))
        return real(nu, z)

    pts = np.linspace(0.05, 4.0, 41)
    x, y = (v.ravel() for v in np.meshgrid(pts, pts, indexing="ij"))
    off = x != y
    heat.ive = spy
    try:
        riesz_kernel(MultiOrder((0.5,)), (2,), x[off], y[off])
    finally:
        heat.ive = real
    return seen


@pytest.fixture(scope="module")
def riesz_arguments(riesz_calls):
    from lagsem.special import _series_cutoff

    series = [(nu, z[(z > 0.0) & (z <= _series_cutoff(nu))]) for nu, z in riesz_calls]
    return [(nu, z) for nu, z in series if z.size]


@pytest.fixture(scope="module")
def space_pairs():
    t = np.geomspace(1e-3, 10.0, 16)[:, None, None]
    pts = np.linspace(0.05, 6.0, 64)
    return t, pts[None, :, None], pts[None, None, :]


def test_ive_riesz_call(benchmark, riesz_calls):
    from lagsem import ive

    benchmark.extra_info["elements"] = sum(z.size for _, z in riesz_calls)
    benchmark.extra_info["calls"] = len(riesz_calls)
    benchmark(lambda: [ive(nu, z) for nu, z in riesz_calls])


def test_ive_series(benchmark, riesz_arguments):
    from lagsem import ive

    benchmark.extra_info["elements"] = sum(z.size for _, z in riesz_arguments)
    benchmark.extra_info["calls"] = len(riesz_arguments)
    benchmark(lambda: [ive(nu, z) for nu, z in riesz_arguments])


def test_ive_half_below_one(benchmark):
    from lagsem import ive

    z = np.geomspace(1e-8, 1.0, 20_001)[:-1]
    benchmark.extra_info["elements"] = z.size
    benchmark(ive, 0.5, z)


def test_ive_series_small_z(benchmark):
    from lagsem import ive

    z = np.geomspace(1e-8, 1e-2, 20_000)
    benchmark.extra_info["elements"] = z.size
    benchmark(ive, 1.5, z)


def test_ive_anchored(benchmark):
    from lagsem import ive

    # alpha log(z/2) <= -650: the leading term is not representable
    z = np.geomspace(1e-300, 1e-260, 64)
    benchmark.extra_info["elements"] = z.size
    benchmark(ive, 2.5, z)


def test_ive_hankel(benchmark):
    from lagsem import ive

    z = np.geomspace(60.0, 2e4, 20_000)
    benchmark.extra_info["elements"] = z.size
    benchmark(ive, 0.5, z)


def test_kernel_1d_closed(benchmark, space_pairs):
    from lagsem import kernel_1d_closed

    benchmark.extra_info["pairs"] = N_PAIRS_1D
    benchmark(kernel_1d_closed, 0.5, *space_pairs)


def test_evaluate_expansion_delta2(benchmark, space_pairs):
    from lagsem import delta_kernel_1d

    benchmark.extra_info["pairs"] = N_PAIRS_1D
    benchmark(delta_kernel_1d, 0.5, 2, *space_pairs)


def test_check_closed_vs_spectral(benchmark):
    from lagsem.config import SuiteConfig
    from lagsem.suites import check_closed_vs_spectral

    benchmark.extra_info["pairs"] = 15 * 15
    benchmark(check_closed_vs_spectral, SuiteConfig(fast=False))


def test_check_semigroup_law(benchmark):
    from lagsem.config import SuiteConfig
    from lagsem.suites import check_semigroup_law

    benchmark.extra_info["pairs"] = 3 * 2
    benchmark(check_semigroup_law, SuiteConfig(fast=False))


def _run(bench_file: str, src: str, json_path: str) -> dict:
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", bench_file,
         "-o", f"pythonpath={src}", f"--benchmark-json={json_path}"],
        check=True, stdout=subprocess.DEVNULL,
    )
    with open(json_path, encoding="utf-8") as fh:
        return {b["name"]: b for b in json.load(fh)["benchmarks"]}


def compare_checkouts(bench_file: str, argv=None) -> int:
    """Run the benchmarks of ``bench_file`` on two checkouts and write both.

    The parent's ``src`` and this checkout's alternate ``ROUNDS`` times,
    and each benchmark's row holds its median over the rounds' medians,
    its work count (the ``pairs``, ``elements``, ``samples`` or ``points``
    entry of ``extra_info``) per second, and the median over the rounds of
    every other ``extra_info`` entry.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description="compare the layer benchmarks of two checkouts")
    parser.add_argument("--parent-src", required=True, help="src directory of the parent checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent_src), "change": os.path.join(root, "src")}
    medians = {side: {} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(ROUNDS):
            # alternate which side runs first
            order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs = _run(bench_file, sides[side], os.path.join(tmp, f"{side}-{rnd}.json"))
                for name, b in runs.items():
                    medians[side].setdefault(name, []).append((b["stats"]["median"], b["extra_info"]))
    rows = []
    for name in sorted(medians["change"]):
        row = {"name": name}
        for side in sides:
            vals = sorted(m for m, _ in medians[side][name])
            extra = medians[side][name][0][1]
            unit = next(u for u in ("pairs", "elements", "samples", "points") if u in extra)
            med = float(np.median(vals))
            row[side] = {"median_s": med, "round_medians_s": vals, unit: extra[unit],
                         f"{unit}_per_s": extra[unit] / med}
            for key in sorted(extra.keys() - {unit}):
                row[side][key] = float(np.median([e[key] for _, e in medians[side][name]]))
        row["change_over_parent"] = row["change"]["median_s"] / row["parent"]["median_s"]
        rows.append(row)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"rounds": ROUNDS, "rows": rows}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(compare_checkouts(__file__))
