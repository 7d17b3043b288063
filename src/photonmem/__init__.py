"""Optimal photon storage and retrieval in Lambda-type atomic media.

Computes how well a light pulse can be mapped onto a collective atomic
spin wave and back, given only the optical depth and detuning of the
medium: the optimal spin-wave shape and maximum efficiency, shaped control
fields storing arbitrary smooth inputs at that maximum, photon-echo style
fast storage, and a full space-time simulator of the underlying equations
used as the ground truth for everything else.
"""

__version__ = "0.1.0"

from .core import (
    ControlField,
    ConvergenceError,
    EfficiencyBreakdown,
    FieldMode,
    GridError,
    InstabilityError,
    MediumParams,
    PhotonMemError,
    ShapingError,
    SpaceGrid,
    SpinWave,
    TimeGrid,
    flip,
    make_reference_input,
    mode_norm2,
    nondimensionalize_doc,
    normalized_mode,
    normalized_spinwave,
    resample_spinwave,
    spinwave_norm2,
    time_reverse,
)
from .kernel import kernel_eval, optimal_spin_wave, retrieval_efficiency
from .adiabatic import (
    AdiabaticityWarning,
    DecayFunction,
    ShapingResult,
    StorageControlResult,
    optimal_storage_control,
    retrieve_adiabatic,
    shape_retrieval_control,
    store_adiabatic,
)
from .fast import FastInputResult, optimal_fast_input, pi_pulse, retrieve_fast
from .simulator import (
    AuditReport,
    EnsembleState,
    SimulationResult,
    energy_audit,
    simulate_fast_storage,
    simulate_retrieval,
    simulate_storage,
)
from .optimizer import (
    CompositeControls,
    IterationTrace,
    forward_max_efficiency,
    iterate_retrieval,
    optimize_storage_retrieval,
)
# bound so ``import photonmem`` alone reaches ``photonmem.cli.main``
from . import cli

__all__ = [
    "__version__",
    "MediumParams",
    "TimeGrid",
    "SpaceGrid",
    "FieldMode",
    "ControlField",
    "SpinWave",
    "EfficiencyBreakdown",
    "PhotonMemError",
    "GridError",
    "ConvergenceError",
    "InstabilityError",
    "ShapingError",
    "AdiabaticityWarning",
    "flip",
    "time_reverse",
    "mode_norm2",
    "spinwave_norm2",
    "normalized_mode",
    "normalized_spinwave",
    "resample_spinwave",
    "nondimensionalize_doc",
    "kernel_eval",
    "retrieval_efficiency",
    "optimal_spin_wave",
    "DecayFunction",
    "retrieve_adiabatic",
    "store_adiabatic",
    "ShapingResult",
    "shape_retrieval_control",
    "StorageControlResult",
    "optimal_storage_control",
    "retrieve_fast",
    "pi_pulse",
    "optimal_fast_input",
    "FastInputResult",
    "EnsembleState",
    "SimulationResult",
    "AuditReport",
    "simulate_storage",
    "simulate_retrieval",
    "simulate_fast_storage",
    "energy_audit",
    "IterationTrace",
    "CompositeControls",
    "iterate_retrieval",
    "optimize_storage_retrieval",
    "forward_max_efficiency",
    "make_reference_input",
]
