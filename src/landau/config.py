"""Run configuration: built-in defaults, JSON config files, LANDAU_* environment
variables, and command-line overrides, merged in fixed precedence order."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from .primes import DEFAULT_CONVENTION, PrimeConvention

ENV_PREFIX = "LANDAU_"


class ConfigError(ValueError):
    """A malformed setting; the message always starts with the key name."""


def default_workers() -> int:
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Config:
    convention: PrimeConvention = DEFAULT_CONVENTION
    workers: int = field(default_factory=default_workers)
    checkpoint_dir: str = "."

    def as_dict(self) -> dict[str, Any]:
        """The settings in field order, the convention by its value."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["convention"] = self.convention.value
        return out

    def echo(self) -> str:
        """One-line rendering for report headers."""
        return " ".join(f"{k}={v}" for k, v in self.as_dict().items())


_KEYS = tuple(f.name for f in fields(Config))


def _parse_convention(value: Any, key: str) -> PrimeConvention:
    if isinstance(value, PrimeConvention):
        return value
    if isinstance(value, str):
        try:
            return PrimeConvention(value.strip().lower())
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected include1 or exclude1, got {value!r}")


def _parse_positive_int(value: Any, key: str) -> int:
    if isinstance(value, str):
        try:
            value = int(value.strip(), 10)
        except ValueError:
            raise ConfigError(f"{key}: expected a positive integer, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected a positive integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{key}: expected a positive integer, got {value}")
    return value


def _parse_dir(value: Any, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key}: expected a non-empty path, got {value!r}")
    return value


_PARSERS = {
    "convention": _parse_convention,
    "workers": _parse_positive_int,
    "checkpoint_dir": _parse_dir,
}


def _read_config_file(path: str) -> dict[str, Any]:
    import json  # only a config file needs it

    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected a JSON object in {path}")
    for key in raw:
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown configuration key in {path}")
    return raw


def load_config(
    path: str | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> Config:
    """Merge settings with precedence: overrides (CLI) > env > file > defaults.

    The file is named either by `path` or by the LANDAU_CONFIG variable; a
    file named explicitly must exist.  Malformed values raise ConfigError
    with the offending key first in the message.
    """
    if env is None:
        env = os.environ
    settings: dict[str, Any] = {}

    file_path = path if path is not None else env.get(ENV_PREFIX + "CONFIG")
    if file_path:
        settings.update(_read_config_file(file_path))

    for key in _KEYS:
        value = env.get(ENV_PREFIX + key.upper())
        if value is not None:
            settings[key] = value

    if overrides:
        for key, value in overrides.items():
            if key not in _KEYS:
                raise ConfigError(f"{key}: unknown configuration key")
            if value is not None:
                settings[key] = value

    parsed = {key: _PARSERS[key](value, key) for key, value in settings.items()}
    return Config(**parsed)
