"""Structured results for verification runs.

A report is JSON-serializable and deterministic for a fixed config and
seed except for the wall-clock block, which lives under its own key so
consumers comparing runs can drop it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .config import SuiteConfig

__all__ = ["CheckResult", "SuiteReport"]


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    value: float | None = None
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "passed": bool(self.passed),
            "value": None if self.value is None else float(self.value),
            "detail": self.detail,
        }


@dataclass
class SuiteReport:
    suite: str
    config: SuiteConfig
    results: list

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "version": __version__,
            "suite": self.suite,
            "config": self.config.to_json_dict(),
            "n_checks": len(self.results),
            "n_passed": self.n_passed,
            "all_passed": self.all_passed,
            "checks": [r.to_json_dict() for r in self.results],
            "timings": {r.check_id: round(r.seconds, 6) for r in self.results},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
