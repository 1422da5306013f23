"""Pure-dephasing decoherence estimates for silicon spin registers.

Importing the package loads the constants, the qubit algebra, the dephasing
functional, the channels and the audit, none of which needs numpy.  The
montecarlo and register modules and their names (the ensemble engine and
the register error model) are imported, with numpy, on first access.
"""

from .constants import (
    CONSTANTS,
    ELECTRON,
    NATURAL_SI29_ABUNDANCE_PERCENT,
    PHOSPHORUS_31,
    SILICON,
    SILICON_29,
    SPECIES,
    MaterialParams,
    PhysicalConstants,
    SpinSpecies,
    boltzmann_ratio,
    spin_half_variance,
    spin_half_variance_full_arg,
)
from .qubit import (
    BlochState,
    DensityMatrix,
    apply_dephasing,
    dephased_eigenvalues,
    density_from_bloch,
    fidelity,
    limiting_populations,
)
from .dephasing import (
    DecoherenceProfile,
    ExponentialCorrelation,
    build_profile,
    coherence_envelope,
    decoherence_time,
    gamma_exact,
    gamma_static,
)
from .mechanisms import (
    ConcentrationBound,
    HyperfineElectronChannel,
    NuclearImpurityChannel,
    ParamagneticImpurityChannel,
    PhononRamanChannel,
    ThresholdUnattainableError,
    UnsupportedChannelError,
    channel_to_correlation,
    debye_integral,
    hyperfine_variance,
    max_nuclear_impurity_concentration,
    max_paramagnetic_concentration,
    nuclear_impurity_variance,
    paramagnetic_variance,
    phonon_rate,
    required_field_temperature_ratio,
)
from .audit import AuditEntry, build_audit, render_table

__version__ = "0.1.0"

# The Monte Carlo engine and the register error model need numpy.  These
# modules, and the names taken from them, resolve on first access (PEP 562),
# so that importing the package, or the CLI for a closed-form report, does
# not load numpy.
_LAZY = {
    name: module
    for module, names in {
        "montecarlo": (
            "montecarlo",
            "CoherenceComparison",
            "DegenerateStatisticsError",
            "EnsembleCoherence",
            "PlanRejectedError",
            "SimulationPlan",
            "accumulate_phase",
            "compare_to_analytic",
            "ensemble_coherence",
            "generate_trajectory",
        ),
        "register": (
            "register",
            "EnsembleErrorReport",
            "ErrorSampler",
            "ensemble_average_state",
            "error_phase",
            "error_probability",
            "error_unitary",
            "ground_fidelity",
            "perturbed_ground_state",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value
