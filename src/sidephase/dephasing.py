"""Dephasing functional for Gaussian noise with exponential correlation.

For frequency noise with autocorrelation <dw(0) dw(t)> = variance *
exp(-|t|/tau_c), the coherence envelope is exp(-Gamma(t)) with

    Gamma(t) = variance * tau_c^2 * (t/tau_c - 1 + exp(-t/tau_c)).

The static limit (tau_c -> inf) is Gamma = variance t^2 / 2 and the
motional-narrowing limit is Gamma = variance tau_c t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

__all__ = [
    "ExponentialCorrelation",
    "DecoherenceProfile",
    "gamma_exact",
    "gamma_static",
    "coherence_envelope",
    "decoherence_time",
    "build_profile",
    "bisect_increasing",
    "CONVENTIONS",
]

# Decoherence-time conventions, see decoherence_time.
CONVENTIONS = ("static", "markovian", "unit-gamma")

# Below this t/tau_c the closed form loses digits to cancellation and the
# quartic series is used instead (its truncation error there is ~1e-20
# relative, so the branches join far tighter than the 1e-12 requirement).
_SERIES_SWITCH = 1e-6


@dataclass(frozen=True)
class ExponentialCorrelation:
    """Noise spectrum: variance in (rad/s)^2, correlation time in s.

    tau_c = math.inf flags static (frozen) noise and routes the functional
    to the quadratic closed form, avoiding inf arithmetic.
    """

    variance: float
    tau_c: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.variance < math.inf:
            raise ValueError("variance must be finite and nonnegative")
        if not self.tau_c > 0.0:
            raise ValueError("tau_c must be positive (math.inf for static noise)")

    @property
    def is_static(self) -> bool:
        return math.isinf(self.tau_c)


def _gamma_kernel(x: float) -> float:
    """x - 1 + exp(-x), accurate to ~1e-15 relative for all x >= 0.

    Plain x + expm1(-x) keeps only ~x/eps digits once x is small; below
    0.05 the alternating series sum_{n>=2} (-x)^n/n! is summed instead.
    """
    if x < 0.05:
        term = 0.5 * x * x
        total = term
        n = 2
        while True:
            n += 1
            term *= -x / n
            total += term
            if abs(term) <= 1e-17 * abs(total):
                return total
    return x + math.expm1(-x)


def gamma_static(correlation: ExponentialCorrelation, t: float) -> float:
    """Frozen-noise limit: variance * t^2 / 2."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return 0.5 * correlation.variance * t * t


def gamma_exact(correlation: ExponentialCorrelation, t: float) -> float:
    """Dephasing exponent Gamma(t) for the exponential correlation."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if correlation.is_static:
        return gamma_static(correlation, t)
    x = t / correlation.tau_c
    scale = correlation.variance * correlation.tau_c * correlation.tau_c
    if x < _SERIES_SWITCH:
        return scale * (x * x / 2.0 - x ** 3 / 6.0 + x ** 4 / 24.0)
    return scale * _gamma_kernel(x)


def coherence_envelope(correlation: ExponentialCorrelation, t: float) -> float:
    """exp(-Gamma(t))."""
    return math.exp(-gamma_exact(correlation, t))


def bisect_increasing(func, lo: float, hi: float, rtol: float) -> float:
    """Root of an increasing func on [lo, hi] by bisection.

    Requires func(lo) <= 0 <= func(hi); converges to rtol relative width,
    or stops after 200 halvings.
    """
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError("root is not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * mid:
            return mid
        if func(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decoherence_time(
    correlation: ExponentialCorrelation,
    convention: str = "static",
) -> float:
    """Decoherence time under one of three conventions.

    static      : variance^(-1/2)
    markovian   : (variance * tau_c)^(-1); rejected for static noise
    unit-gamma  : the t solving Gamma(t) = 1, bisected to 1e-9 relative

    Zero variance returns math.inf under every convention.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention: {convention!r}")
    if correlation.variance == 0.0:
        return math.inf
    if convention == "static":
        return correlation.variance ** -0.5
    if convention == "markovian":
        if correlation.is_static:
            raise ValueError("markovian convention is undefined for static noise")
        return 1.0 / (correlation.variance * correlation.tau_c)
    # unit-gamma: Gamma is strictly increasing and unbounded, so a bracket
    # always exists; start from the static-limit guess and expand.
    hi = correlation.variance ** -0.5
    while gamma_exact(correlation, hi) < 1.0:
        hi *= 2.0
    return bisect_increasing(
        lambda t: gamma_exact(correlation, t) - 1.0, 0.0, hi, rtol=1e-9
    )


@dataclass(frozen=True, eq=False)
class DecoherenceProfile:
    """Sampled Gamma(t): paired time and exponent sequences."""

    times: tuple[float, ...]
    gamma_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.gamma_values):
            raise ValueError("times and gamma_values must have equal length")
        prev_t = -math.inf
        prev_g = -1e-15
        for t, g in zip(self.times, self.gamma_values):
            if t < 0.0 or t <= prev_t:
                raise ValueError("times must be nonnegative and increasing")
            if g < prev_g - 1e-15:
                raise ValueError("gamma_values must be nondecreasing")
            prev_t, prev_g = t, g
        if any(g < 0.0 for g in self.gamma_values):
            raise ValueError("gamma_values must be nonnegative")

    def envelopes(self) -> tuple[float, ...]:
        return tuple(math.exp(-g) for g in self.gamma_values)

    def write_csv(self, stream: TextIO) -> None:
        stream.write("t_seconds,gamma,envelope\n")
        for t, g, e in zip(self.times, self.gamma_values, self.envelopes()):
            stream.write(f"{t:.17g},{g:.17g},{e:.17g}\n")


def build_profile(
    correlation: ExponentialCorrelation,
    times: Sequence[float] | Iterable[float],
) -> DecoherenceProfile:
    ts = tuple(float(t) for t in times)
    return DecoherenceProfile(
        times=ts,
        gamma_values=tuple(gamma_exact(correlation, t) for t in ts),
    )
