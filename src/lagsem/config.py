"""Flat key=value configuration for the verification suites.

The format is one ``key = value`` pair per line, ``#`` comments, blank
lines ignored.  Parsing is strict: unknown keys and malformed values are
errors that name the offending field, and a config survives a
dump/parse round trip unchanged.  A config checks its types and ranges
when it is constructed, also by ``dataclasses.replace``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .hardy import _check_exponent
from .special import MultiOrder

__all__ = ["ConfigError", "SuiteConfig"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the field."""


@dataclass(frozen=True)
class SuiteConfig:
    order: tuple = (0.5,)
    k_max: int = 40
    seed: int = 7
    fast: bool = True
    atom_p: float = 0.9
    n_atoms: int = 5
    box_lo: float = 0.05
    box_hi: float = 4.0

    def __post_init__(self):
        # each field takes the type of its default, so the config is
        # hashable and its text form reads back to an equal config
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f.name, type(f.default), getattr(self, f.name)))
        self.validate()

    def validate(self) -> "SuiteConfig":
        _by_rule("order", MultiOrder, self.order)
        if len(self.order) > 3:
            raise ConfigError("order: at most three axes are supported")
        if not 0 <= self.k_max <= 200:
            raise ConfigError("k_max: must lie in [0, 200]")
        if self.seed < 0:
            raise ConfigError("seed: must be a non-negative integer")
        _by_rule("atom_p", _check_exponent, self.atom_p)
        if self.n_atoms < 1:
            raise ConfigError("n_atoms: must be at least 1")
        if not 0.0 <= self.box_lo < self.box_hi < math.inf:
            raise ConfigError("box_lo/box_hi: need 0 <= box_lo < box_hi < inf")
        return self

    def to_text(self) -> str:
        return "".join(
            f"{f.name} = {_FORMS[type(f.default)][1](getattr(self, f.name))}\n"
            for f in fields(self)
        )

    @classmethod
    def from_text(cls, text: str) -> "SuiteConfig":
        kinds = {f.name: type(f.default) for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in kinds:
                raise ConfigError(f"{key}: unknown configuration key")
            try:
                values[key] = _FORMS[kinds[key]][0](val)
            except ValueError:
                raise ConfigError(f"{key}: cannot parse value {val!r}") from None
        return cls(**values)

    @classmethod
    def load(cls, path) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(f.default, tuple) else value
        return out


def _by_rule(name: str, rule, value) -> None:
    """rule(value), its ValueError raised again as a ConfigError that names the field."""
    try:
        rule(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _typed(name: str, kind: type, value):
    """value as the type of its field's default; a ConfigError names the field otherwise."""
    if kind is tuple and not isinstance(value, str):
        try:
            return tuple(float(v) for v in value)
        except (TypeError, ValueError):
            pass
    elif kind is float and isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    elif type(value) is kind:  # int and bool exactly: a bool is no int here
        return value
    raise ConfigError(f"{name}: must be of type {kind.__name__}")


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(text)


# (parse, format) of a field's text form, by the type of the field's default
_FORMS = {
    tuple: (
        lambda text: tuple(float(part) for part in text.split(",") if part.strip() != ""),
        lambda value: ",".join(repr(float(v)) for v in value),
    ),
    bool: (_parse_bool, lambda value: "true" if value else "false"),
    int: (int, repr),
    float: (float, repr),
}
