"""Command-line interface.

Subcommands: ``run`` executes a verification suite and optionally writes
a JSON report, ``dump`` writes kernel tables as CSV for external
comparison, ``config-check`` validates a configuration file and prints
its normalized form.  Exit codes: 0 success, 1 failed checks, 2 bad
usage or configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import ConfigError, SuiteConfig
from .heat import kernel_nd
from .operators import riesz_kernel
from .special import MultiOrder
from .suites import SUITE_NAMES, run_suite

__all__ = ["main", "dump_kernel"]


def _load_config(args) -> SuiteConfig:
    config = SuiteConfig.load(args.config) if args.config else SuiteConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config.validate()


def _dump_pairs(config: SuiteConfig, n_points: int):
    """Deterministic pair set: 1-D uses the full coordinate product, higher
    dimensions pair points along the main diagonal of the box."""
    order = MultiOrder(config.order)
    lo = max(config.box_lo, 0.05)
    coords = np.linspace(lo, config.box_hi, n_points)
    if order.n == 1:
        x = np.repeat(coords, n_points)[:, None]
        y = np.tile(coords, n_points)[:, None]
    else:
        diag = coords[:, None] * np.ones(order.n)
        x = np.repeat(diag, n_points, axis=0)
        y = np.tile(diag, (n_points, 1))
    return order, x, y


def dump_kernel(kind: str, config: SuiteConfig, out, t_values=(0.25, 1.0), k=None, n_points: int = 25) -> dict:
    """Write a kernel table as CSV; returns row/skip counts.

    ``heat`` rows are ``t,x...,y...,value,family``; ``riesz`` rows are
    ``x...,y...,k,value`` with the derivative multi-index joined by
    semicolons.  Diagonal pairs are skipped for the singular Riesz kernel
    and reported in the returned counts.
    """
    order, x, y = _dump_pairs(config, n_points)
    n = order.n
    xcols = [f"x{i+1}" for i in range(n)] if n > 1 else ["x"]
    ycols = [f"y{i+1}" for i in range(n)] if n > 1 else ["y"]
    rows = 0
    skipped = 0
    if kind == "heat":
        family = f"heat[nu={','.join(repr(float(v)) for v in order.nu)}]"
        out.write(",".join(["t", *xcols, *ycols, "value", "family"]) + "\n")
        for t in t_values:
            vals = kernel_nd(order, float(t), x, y)
            for xi, yi, v in zip(x, y, vals):
                coords = [repr(float(c)) for c in (*xi, *yi)]
                out.write(",".join([repr(float(t)), *coords, repr(float(v)), family]) + "\n")
                rows += 1
        return {"rows": rows, "skipped": skipped}
    if kind == "riesz":
        kvec = tuple(int(v) for v in (k if k is not None else [1] + [0] * (n - 1)))
        keep = np.linalg.norm(x - y, axis=-1) > 1e-12
        skipped = int(np.sum(~keep))
        xk, yk = x[keep], y[keep]
        vals = riesz_kernel(order, kvec, xk.squeeze(axis=-1) if n == 1 else xk,
                            yk.squeeze(axis=-1) if n == 1 else yk)
        kstr = ";".join(str(v) for v in kvec)
        out.write(",".join([*xcols, *ycols, "k", "value"]) + "\n")
        for xi, yi, v in zip(xk, yk, np.atleast_1d(vals)):
            coords = [repr(float(c)) for c in (*xi, *yi)]
            out.write(",".join([*coords, kstr, repr(float(v))]) + "\n")
            rows += 1
        return {"rows": rows, "skipped": skipped}
    raise ValueError("kind must be 'heat' or 'riesz'")


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run_suite(config, args.suite)
    for res in report.results:
        status = "PASS" if res.passed else "FAIL"
        value = "" if res.value is None else f" value={res.value:.6g}"
        print(f"{status} {res.check_id}{value}")
    print(f"{report.n_passed}/{len(report.results)} checks passed")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timings=True))
    return 0 if report.all_passed else 1


def _cmd_dump(args) -> int:
    config = _load_config(args)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        counts = dump_kernel(
            args.kind, config, fh, t_values=args.t, k=args.k, n_points=args.points
        )
    if counts["skipped"]:
        print(
            f"warning: skipped {counts['skipped']} diagonal pairs where the kernel is singular",
            file=sys.stderr,
        )
    print(f"wrote {counts['rows']} rows to {args.out}")
    return 0


def _cmd_config_check(args) -> int:
    config = _load_config(args)
    sys.stdout.write(config.to_text())
    print("configuration ok", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagsem",
        description="verification harness for Laguerre semigroup kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a verification suite")
    p_run.add_argument("--config", help="path to a key=value config file")
    p_run.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p_run.add_argument("--out", help="write the JSON report here")
    p_run.add_argument("--seed", type=int, help="override the configured seed")
    p_run.set_defaults(fn=_cmd_run)

    p_dump = sub.add_parser("dump", help="dump a kernel table as CSV")
    p_dump.add_argument("--kind", required=True, choices=("heat", "riesz"))
    p_dump.add_argument("--config", help="path to a key=value config file")
    p_dump.add_argument("--out", required=True, help="CSV output path")
    p_dump.add_argument("--t", type=float, action="append", default=None,
                        help="heat kernel time (repeatable)")
    p_dump.add_argument("--k", type=int, action="append", default=None,
                        help="derivative index, one per axis (repeatable)")
    p_dump.add_argument("--points", type=int, default=25)
    p_dump.set_defaults(fn=_cmd_dump)

    p_check = sub.add_parser("config-check", help="validate a config file")
    p_check.add_argument("--config", help="path to a key=value config file")
    p_check.set_defaults(fn=_cmd_config_check)

    args = parser.parse_args(argv)
    if getattr(args, "t", None) is None and args.command == "dump":
        args.t = [0.25, 1.0]
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
