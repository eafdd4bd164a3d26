"""SHA-256 digests of `lagsem run --suite all` reports, without timings.

Runs the full suite for the four gate configurations (the default,
``fast = false``, and ``order = 0.5, 1.0`` and ``order = 0.5, 1.0, 0.0``
each with ``fast = false``), drops
the ``timings`` block of each JSON report and prints one digest per
configuration.  Two checkouts produce the same numbers when their digests
agree:

    python3 scripts/report_digest.py                      # this checkout
    python3 scripts/report_digest.py --src ../other/src   # another one

With ``--parent-src`` the suite also runs on a second tree, and for each
configuration every report field that differs between the two is listed
with its relative change; a field is named by its path, with checks keyed
by their id (``checks[parseval].value``).  A deliberate numeric change
passes when no fitted constant (``checks[gaussian-bound-families].detail``)
moved by more than 1e-13 relative and no field that is not a number
changed; otherwise the exit code is 1:

    python3 scripts/report_digest.py --parent-src ../parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIGS = {
    "default": "",
    "slow": "fast = false\n",
    "slow-2d": "order = 0.5, 1.0\nfast = false\n",
    "slow-3d": "order = 0.5, 1.0, 0.0\nfast = false\n",
}


def stripped_report(src: str, config_text: str, workdir: str, name: str) -> str:
    """Run the suite on the package under ``src`` and return the report without timings."""
    cfg = os.path.join(workdir, f"{name}.cfg")
    out = os.path.join(workdir, f"{name}.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "lagsem.cli", "run", "--suite", "all", "--config", cfg, "--out", out],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # 1 only means some check failed
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"lagsem run failed for {name} (exit code {proc.returncode})")
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timings", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


FITTED = "checks[gaussian-bound-families].detail."
# the largest relative change a deliberate numeric change may make to a fitted constant
MAX_FITTED_REL = 1e-13


def flatten(node, path: str = "") -> dict:
    """Leaf values of a report by path; list items with a check_id are keyed by it."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            out.update(flatten(value, f"{path}.{key}" if path else str(key)))
        return out
    if isinstance(node, list) and node and all(isinstance(v, dict) and "check_id" in v for v in node):
        out = {}
        for value in node:
            out.update(flatten(value, f"{path}[{value['check_id']}]"))
        return out
    return {path: node}


def changed_fields(parent: dict, change: dict) -> list:
    """(path, parent value, changed value, relative change or None) of each differing field."""
    old, new = flatten(parent), flatten(change)
    rows = []
    for path in sorted(set(old) | set(new)):
        a, b = old.get(path), new.get(path)
        if a == b:
            continue
        numeric = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (a, b))
        rel = abs(b - a) / abs(a) if numeric and a != 0 else (math.inf if numeric else None)
        rows.append((path, a, b, rel))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the lagsem package (default: this checkout)")
    parser.add_argument("--parent-src", default=None,
                        help="also list the report fields that differ from the reports of this lagsem tree")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    ok = True
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in CONFIGS.items():
            body = stripped_report(src, text, workdir, name)
            print(f"{hashlib.sha256(body.encode()).hexdigest()}  {name}")
            if args.parent_src is None:
                continue
            parent = stripped_report(os.path.abspath(args.parent_src), text, workdir, f"{name}-parent")
            print(f"{hashlib.sha256(parent.encode()).hexdigest()}  {name} (parent)")
            rows = changed_fields(json.loads(parent), json.loads(body))
            for path, a, b, rel in rows:
                bad = rel is None or (path.startswith(FITTED) and rel > MAX_FITTED_REL)
                ok = ok and not bad
                change = "not a number" if rel is None else f"rel {rel:.2e}"
                print(f"    {'OVER ' if bad else ''}{path}: {a!r} -> {b!r} ({change})")
            print(f"    {len(rows)} fields changed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
