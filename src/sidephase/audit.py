"""Audit of the published silicon-register estimates.

Every quantitative claim the package models is recomputed from the
registered constants and compared against the published number.  Verdicts
are a fixed function of the computed/published ratio:

    match           within 15%
    approx          within a factor of 2
    typo-suspected  within 15% of a nonzero power of ten (decade slip)
    discrepant      anything else

The audit never fails; disagreement is its product, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    ELECTRON,
    SILICON,
    SILICON_29,
    boltzmann_ratio,
    spin_half_variance,
    spin_half_variance_full_arg,
)
from .dephasing import decoherence_time
from .mechanisms import (
    _FIELD,
    _SPIN_TEMPERATURE,
    _TEMPERATURE,
    CUTOFF_VOLUME,
    HyperfineElectronChannel,
    PhononRamanChannel,
    _dipolar_variance,
    channel_to_correlation,
    max_nuclear_impurity_concentration,
    max_paramagnetic_concentration,
    phonon_rate,
    required_field_temperature_ratio,
)

__all__ = ["AuditEntry", "build_audit", "render_table", "classify_ratio"]

# The B/T operating point quoted with most estimates: exactly 20.0 in binary64.
_REFERENCE_RATIO = _FIELD / _TEMPERATURE  # T/K
_TARGET_TIME = 1.0  # s, the dephasing time the thresholds and bounds keep


@dataclass(frozen=True)
class AuditEntry:
    claim_id: str
    description: str
    published_value: float
    computed_value: float
    units: str
    ratio: float
    verdict: str


def classify_ratio(ratio: float) -> str:
    """Verdict from the computed/published ratio alone."""
    if ratio <= 0.0 or not math.isfinite(ratio):
        return "discrepant"
    if 1.0 / 1.15 <= ratio <= 1.15:
        return "match"
    if 0.5 <= ratio <= 2.0:
        return "approx"
    exponent = math.log10(ratio)
    nearest = round(exponent)
    if nearest != 0 and abs(exponent - nearest) <= math.log10(1.15):
        return "typo-suspected"
    return "discrepant"


def _entry(
    claim_id: str, description: str, published: float, computed: float, units: str
) -> AuditEntry:
    ratio = computed / published
    return AuditEntry(
        claim_id, description, published, computed, units, ratio, classify_ratio(ratio)
    )


def build_audit() -> list[AuditEntry]:
    """Recompute every published estimate and classify the agreement.

    Each claim is one row of the table below: id, description, published
    value, computed value, units.  The rows share the operating point,
    read from mechanisms as the channels' defaults are, and the values
    computed once above the table; the descriptions are formatted from the
    same constants.
    """
    at_point = f"B = {_FIELD:g} T, T = {_TEMPERATURE:g} K"
    at_ratio = f"B/T = {_REFERENCE_RATIO:g}"
    target = f"a {_TARGET_TIME:g} s"
    hyperfine = HyperfineElectronChannel()
    x_ref = hyperfine.x
    phonon = PhononRamanChannel()
    # Dipolar variance per (concentration * cutoff volume), before thermal
    # suppression; the published number appears to have a flipped decade
    # exponent, which the ratio exposes.
    per_site_fraction = _dipolar_variance(1.0, ELECTRON.gamma, 1.0) / CUTOFF_VOLUME
    nuclear_bound = max_nuclear_impurity_concentration(_TARGET_TIME, _FIELD, _SPIN_TEMPERATURE)
    table = [
        ("polarization-ratio", f"electron Zeeman-to-thermal ratio at {at_point}",
         27.0, x_ref, "dimensionless"),
        ("hyperfine-threshold-ratio", f"B/T needed for {target} static hyperfine dephasing time",
         30.0, required_field_temperature_ratio(SILICON.hyperfine_constant, _TARGET_TIME), "T/K"),
        ("hyperfine-dephasing-time", f"static hyperfine dephasing time at {at_ratio} T/K",
         1e-3, decoherence_time(channel_to_correlation(hyperfine), "static"), "s"),
        ("phonon-rate-prefactor", "Raman rate coefficient of (T/Theta)^7 (factorial form)",
         0.75e4, phonon_rate(phonon, "factorial-approx") / (phonon.t_over_theta ** 7), "1/s"),
        ("paramagnetic-prefactor-full", "dipolar variance per site fraction, no thermal factor",
         33.4e-13, per_site_fraction, "1/s^2"),
        ("paramagnetic-prefactor-suppressed",
         f"dipolar variance per site fraction at {at_ratio} T/K",
         0.74e3, per_site_fraction * spin_half_variance(x_ref), "1/s^2"),
        ("paramagnetic-concentration-bound",
         f"paramagnetic impurity bound for {target} dephasing time",
         0.7e20, max_paramagnetic_concentration(_TARGET_TIME, _REFERENCE_RATIO) * 1e-6, "1/cm^3"),
        ("impurity-polarization-temperature",
         "spin temperature where the host nuclear Zeeman ratio reaches 1",
         _SPIN_TEMPERATURE, boltzmann_ratio(SILICON_29.gamma, _FIELD, 1.0), "K"),
        ("impurity-concentration-bound", f"host nuclear-spin fraction bound for {target} time "
         "(literal thermal factor; large disagreement is the finding)",
         4.5e-2, nuclear_bound.percent_of_sites, "% of sites"),
        ("thermal-variance-forms", "full-argument variance form vs the exponential approximation "
         f"the thresholds rely on, at the {at_ratio} operating point",
         math.exp(-x_ref), spin_half_variance_full_arg(x_ref), "dimensionless"),
        ("site-density-vs-lattice-cube", "quoted site density vs the literal inverse "
         "lattice-constant cube (the quoted value matches 8 atoms per cubic cell)",
         SILICON.site_density * 1e-6, SILICON.lattice_constant ** -3 * 1e-6, "1/cm^3"),
    ]
    return [_entry(*row) for row in table]


def render_table(entries: list[AuditEntry]) -> str:
    """Fixed-width text table, one line per claim."""
    header = (
        f"{'claim':34} {'published':>13} {'computed':>13} "
        f"{'ratio':>11} verdict"
    )
    lines = [header, "-" * len(header)]
    for e in entries:
        lines.append(
            f"{e.claim_id:34} {e.published_value:>13.4g} "
            f"{e.computed_value:>13.4g} {e.ratio:>11.4g} {e.verdict}"
        )
    return "\n".join(lines)
