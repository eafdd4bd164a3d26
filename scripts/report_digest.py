"""SHA-256 digests of `lagsem run --suite all` reports, without timings.

Runs the full suite for the four gate configurations (the default,
``fast = false``, and ``order = 0.5, 1.0`` and ``order = 0.5, 1.0, 0.0``
each with ``fast = false``), drops
the ``timings`` block of each JSON report and prints one digest per
configuration.  Two checkouts produce the same numbers when their digests
agree:

    python3 scripts/report_digest.py                      # this checkout
    python3 scripts/report_digest.py --src ../other/src   # another one
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the lagsem package (default: this checkout)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in CONFIGS.items():
            body = stripped_report(src, text, workdir, name)
            print(f"{hashlib.sha256(body.encode()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
