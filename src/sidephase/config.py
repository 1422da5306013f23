"""Channel configuration files and sweep specifications.

Config files are flat INI-style key-value text with one section per
channel kind; every key must be a known parameter of that channel and
every value must parse as a float.  Unknown sections or keys are errors,
not warnings, so typos cannot silently fall back to defaults.

The grammar, line by line after stripping surrounding whitespace: blank
lines and lines starting with ``#`` or ``;`` are skipped (there are no
inline comments); ``[name]`` opens the section ``name``, which must be a
channel kind (``[DEFAULT]`` is not one); any other line is ``key = value``
or ``key: value``, split at its first ``=`` or ``:``, with the key
lower-cased.  Indentation has no meaning: there are no continuation lines
and no interpolation.  A section or a key given twice is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from .mechanisms import (
    HyperfineElectronChannel,
    NuclearImpurityChannel,
    ParamagneticImpurityChannel,
    PhononRamanChannel,
)

if TYPE_CHECKING:
    import numpy as np

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
# named; config keys, sweep parameters and report parameters are their
# fields.  Couplings, cutoff and material come from the constants registry.
CHANNELS = {
    "hyperfine": HyperfineElectronChannel,
    "phonon": PhononRamanChannel,
    "paramagnetic": ParamagneticImpurityChannel,
    "nuclear": NuclearImpurityChannel,
}
CHANNEL_KINDS = tuple(CHANNELS)

# Keys accepted in a config section, per channel kind.
PARAMS: dict[str, tuple[str, ...]] = {
    kind: tuple(f.name for f in fields(cls)) for kind, cls in CHANNELS.items()
}

# Parameters a sweep may vary.  "ratio" sweeps field/temperature at the
# channel's fixed temperature by adjusting the field (SweepSpec.params_at).
SWEEPABLE: dict[str, frozenset[str]] = {
    kind: frozenset(params)
    | ({"ratio"} if {"field", "temperature"} <= set(params) else set())
    for kind, params in PARAMS.items()
}


def read_channel_config(path: str) -> dict[str, dict[str, float]]:
    """Parse and validate a config file into {section: {key: value}}."""
    result: dict[str, dict[str, float]] = {}
    section = ""
    values: dict[str, float] | None = None  # the open section's values
    try:
        # The read stays inside the try: a decoding error surfaces while
        # iterating.  The encoding is the locale default.
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line[0] in "#;":
                    continue
                if line[0] == "[" and line[-1] == "]":
                    section = line[1:-1]
                    if section not in PARAMS:
                        raise UsageError(f"unknown config section: [{section}]")
                    if section in result:
                        raise _malformed(path, number, f"section [{section}] repeated")
                    values = result[section] = {}
                    continue
                key, sep, raw = line.partition("=")
                if ":" in key:
                    key, sep, raw = line.partition(":")
                if not sep:
                    raise _malformed(path, number, f"{line!r} is not [section] or key = value")
                if values is None:
                    raise _malformed(path, number, f"{line!r} comes before any [section]")
                key = key.strip().lower()
                if not key:
                    raise _malformed(path, number, f"empty key in {line!r}")
                if key in values:
                    raise _malformed(path, number, f"key {key!r} repeated in [{section}]")
                if key not in PARAMS[section]:
                    raise UsageError(f"unknown key {key!r} in section [{section}]")
                raw = raw.strip()
                try:
                    values[key] = float(raw)
                except ValueError as exc:
                    raise UsageError(
                        f"key {key!r} in [{section}] is not a number: {raw!r}"
                    ) from exc
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path!r}") from None
    except IsADirectoryError:
        raise UsageError(f"config file is a directory: {path!r}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file is not {exc.encoding} text: {path!r}") from None
    return result


def _malformed(path: str, number: int, detail: str) -> UsageError:
    return UsageError(f"malformed config file {path}: line {number}: {detail}")


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

    def params_at(self, value: float) -> dict[str, float]:
        """The channel parameters at one grid value: fixed, then the swept one.

        A ratio sweep sets field = value * temperature, at the fixed
        temperature or else the channel's default.
        """
        if self.param == "ratio":
            temperature = self.fixed.get("temperature", CHANNELS[self.kind].temperature)
            return {**self.fixed, "field": value * temperature}
        return {**self.fixed, self.param: value}


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
    import numpy as np

    if spec.scale == "lin":
        return np.linspace(spec.grid_min, spec.grid_max, spec.count)
    # np.geomspace's points, each power taken by Python's float pow (the
    # platform libm) rather than numpy's power loop, whose AVX-512 form
    # rounds apart from the others.  The ends are the bounds, as there, so
    # only the interior points are powers: 10.0 ** log10(hi) can overflow.
    exponents = np.linspace(math.log10(spec.grid_min), math.log10(spec.grid_max), spec.count)
    interior = [10.0 ** y for y in exponents[1:-1].tolist()]
    return np.array([spec.grid_min, *interior, spec.grid_max])
