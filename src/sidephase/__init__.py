"""Pure-dephasing decoherence estimates for silicon spin registers.

Importing the package loads the constants, the qubit algebra, the dephasing
functional, the channels and the audit, none of which needs numpy, and
exports every name in their __all__.  The montecarlo and register modules
and their names (the ensemble engine and the register error model) are
imported, with numpy, on first access.
"""

from .constants import *
from .qubit import *
from .dephasing import *
from .mechanisms import *
from .audit import *

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
            "index_normals",
            "standard_error",
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
