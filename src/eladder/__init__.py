"""Energy-ladder dynamics of slow electrons in a velocity-matched field.

The package simulates how a low-energy electron's momentum spectrum
evolves while it co-propagates with a strong optical wave: populations
hop between photon sidebands, the quadratic part of the electron
dispersion confines the hopping, and the interplay produces spectral
trapping, collapse and revival, pair oscillations, and ladder-tilt
oscillations.  Everything is expressed in eV / fs / nm units.
"""
from ._version import __version__
from .analysis import (
    asymmetry,
    bloch_oscillation_report,
    classify_regime,
    collapse_times,
    fringe_check,
    population_transfer,
    revival_period,
    sweep,
    trap_width,
)
from .config import RunConfig, parse_config, render_config
from .errors import (
    ConfigError,
    ExportError,
    InsufficientSpanError,
    IntegrationError,
    LadderError,
    ResourceLimitError,
    SweepError,
    TruncationError,
    ValidationError,
)
from .ladder import (
    LadderHamiltonian,
    LadderState,
    ModelVariant,
    adaptive_truncation,
    build_hamiltonian,
    initial_gaussian,
    initial_plane_wave,
)
from .oracles import (
    BesselSolution,
    TwoLevelSolution,
    bessel_population,
    pendellosung_population,
    two_level_reduction,
)
from .persist import (
    OutputBundle,
    export_spectrogram,
    import_spectrogram,
    spectrogram_hash,
    write_bundle,
)
from .physics import (
    CouplingSet,
    ElectronParams,
    FieldParams,
    coupling_set,
    critical_angle_cosine,
    electron_from_energy,
    grating_period_for,
    make_field,
    matched_field,
    phase_matched_wavevector,
    photon_energy_from_wavelength,
    ponderomotive_ratio,
    recoil_ratio,
)
from .propagate import (
    Decomposition,
    PropagationConfig,
    Spectrogram,
    centroid_and_spread,
    decompose,
    dense_oracle_compare,
    propagate,
)
from .scenario import InitialSpec, Matching, Scenario, run_scenario

__all__ = [
    "__version__",
    "BesselSolution",
    "ConfigError",
    "CouplingSet",
    "Decomposition",
    "ElectronParams",
    "ExportError",
    "FieldParams",
    "InitialSpec",
    "InsufficientSpanError",
    "IntegrationError",
    "LadderError",
    "LadderHamiltonian",
    "LadderState",
    "Matching",
    "ModelVariant",
    "OutputBundle",
    "PropagationConfig",
    "ResourceLimitError",
    "RunConfig",
    "Scenario",
    "Spectrogram",
    "SweepError",
    "TruncationError",
    "TwoLevelSolution",
    "ValidationError",
    "adaptive_truncation",
    "asymmetry",
    "bessel_population",
    "bloch_oscillation_report",
    "build_hamiltonian",
    "centroid_and_spread",
    "classify_regime",
    "collapse_times",
    "coupling_set",
    "critical_angle_cosine",
    "decompose",
    "dense_oracle_compare",
    "electron_from_energy",
    "export_spectrogram",
    "fringe_check",
    "grating_period_for",
    "import_spectrogram",
    "initial_gaussian",
    "initial_plane_wave",
    "make_field",
    "matched_field",
    "parse_config",
    "pendellosung_population",
    "phase_matched_wavevector",
    "photon_energy_from_wavelength",
    "ponderomotive_ratio",
    "population_transfer",
    "propagate",
    "recoil_ratio",
    "render_config",
    "revival_period",
    "run_scenario",
    "spectrogram_hash",
    "sweep",
    "trap_width",
    "two_level_reduction",
    "write_bundle",
]
