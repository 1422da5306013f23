"""Channel configuration files and sweep specifications.

Config files are flat INI-style key-value text with one section per
channel kind; every key must be a known parameter of that channel and
every value must parse as a float.  Unknown sections or keys are errors,
not warnings, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .mechanisms import (
    HyperfineElectronChannel,
    NuclearImpurityChannel,
    ParamagneticImpurityChannel,
    PhononRamanChannel,
)

__all__ = [
    "UsageError",
    "CHANNELS",
    "CHANNEL_KINDS",
    "PARAMS",
    "SWEEPABLE",
    "SweepSpec",
    "parse_grid",
    "grid_values",
    "read_channel_config",
    "build_channel",
]


class UsageError(ValueError):
    """Bad user input: unknown keys, malformed grids, missing files."""


# The channel dataclasses are the one place a channel's parameters are
# named; config keys, sweep parameters and report parameters derive from
# their fields.
CHANNELS = {
    "hyperfine": HyperfineElectronChannel,
    "phonon": PhononRamanChannel,
    "paramagnetic": ParamagneticImpurityChannel,
    "nuclear": NuclearImpurityChannel,
}
CHANNEL_KINDS = tuple(CHANNELS)

# Dataclass fields fixed by the physics (couplings, geometry, material),
# never set from a config file or swept.
_FIXED_FIELDS = frozenset(
    {"gamma_i", "gamma_s", "gamma_imp", "min_distance", "material", "constants"}
)

# Keys accepted in a config section, per channel kind.
PARAMS: dict[str, tuple[str, ...]] = {
    kind: tuple(f.name for f in fields(cls) if f.name not in _FIXED_FIELDS)
    for kind, cls in CHANNELS.items()
}

# Parameters a sweep may vary.  "ratio" sweeps field/temperature at the
# channel's fixed temperature by adjusting the field.
SWEEPABLE: dict[str, frozenset[str]] = {
    kind: frozenset(params)
    | ({"ratio"} if {"field", "temperature"} <= set(params) else set())
    for kind, params in PARAMS.items()
}


def read_channel_config(path: str) -> dict[str, dict[str, float]]:
    """Parse and validate a config file into {section: {key: value}}."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    result: dict[str, dict[str, float]] = {}
    for section in parser.sections():
        if section not in PARAMS:
            raise UsageError(f"unknown config section: [{section}]")
        known = PARAMS[section]
        values: dict[str, float] = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise UsageError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = float(raw)
            except ValueError as exc:
                raise UsageError(
                    f"key {key!r} in [{section}] is not a number: {raw!r}"
                ) from exc
        result[section] = values
    return result


def build_channel(kind: str, params: dict[str, float] | None = None):
    """Instantiate a channel from config-section parameters."""
    params = dict(params or {})
    if kind not in CHANNEL_KINDS:
        raise UsageError(f"unknown channel kind: {kind!r}")
    unknown = set(params) - set(PARAMS[kind])
    if unknown:
        raise UsageError(f"unknown parameters for {kind}: {sorted(unknown)}")
    try:
        return CHANNELS[kind](**params)
    except ValueError as exc:
        raise UsageError(f"invalid {kind} parameters: {exc}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over a channel."""

    kind: str
    param: str
    grid_min: float
    grid_max: float
    count: int
    scale: str  # "lin" or "log"
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise UsageError(f"unknown channel kind: {self.kind!r}")
        if self.param not in SWEEPABLE[self.kind]:
            raise UsageError(
                f"parameter {self.param!r} is not sweepable for {self.kind}"
            )
        if self.scale not in ("lin", "log"):
            raise UsageError("grid scale must be 'lin' or 'log'")
        if self.count < 2:
            raise UsageError("grid needs at least 2 points")
        if not self.grid_min < self.grid_max:
            raise UsageError("grid min must be below max")
        if self.scale == "log" and self.grid_min <= 0.0:
            raise UsageError("log grids require a positive minimum")
        if not (math.isfinite(self.grid_min) and math.isfinite(self.grid_max)):
            raise UsageError("grid bounds must be finite")


def parse_grid(text: str) -> tuple[float, float, int, str]:
    """Parse 'min:max:count:lin|log'."""
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError("grid must be min:max:count:lin|log")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"malformed grid {text!r}") from exc
    return lo, hi, count, parts[3]


def grid_values(spec: SweepSpec) -> np.ndarray:
    if spec.scale == "lin":
        return np.linspace(spec.grid_min, spec.grid_max, spec.count)
    return np.geomspace(spec.grid_min, spec.grid_max, spec.count)
