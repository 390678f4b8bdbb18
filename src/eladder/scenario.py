"""A Scenario bundles everything needed to produce one Spectrogram.

This is the shared currency between the CLI, the parameter sweeps, and the
bundled figure reproductions: physical inputs, matching mode, model
variant, initial state recipe, and propagation settings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .ladder import (
    LadderState,
    ModelVariant,
    TRUNCATION_CAP,
    adaptive_truncation,
    build_hamiltonian,
    initial_gaussian,
    initial_plane_wave,
    sigma_from_energy_width,
)
from .physics import (
    ElectronParams,
    FieldParams,
    coupling_set,
    electron_from_energy,
    make_field,
    phase_matched_wavevector,
)
from .propagate import (Decomposition, PropagationConfig, Spectrogram,
                        decompose, propagate)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Matching:
    """How the longitudinal wavevector is chosen.

    mode "phase_matched": k_z = omega / v0 (field phase velocity equals the
    electron velocity; the value field is unused).  mode "grating_period":
    k_z = 2 pi / value with the period in nm.  mode "wavevector": k_z =
    value in 1/nm.
    """

    mode: str = "phase_matched"
    value: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("phase_matched", "grating_period", "wavevector"):
            raise ValidationError(f"unknown matching mode {self.mode!r}")
        if self.mode == "phase_matched" and self.value is not None:
            raise ValidationError("phase-matched mode takes no value")
        if self.mode != "phase_matched":
            if self.value is None or self.value <= 0:
                raise ValidationError(f"matching mode {self.mode} needs a "
                                      "positive value")

    def wavevector_for(self, e: ElectronParams, photon_energy: float) -> float:
        if self.mode == "phase_matched":
            return phase_matched_wavevector(e, photon_energy)
        if self.mode == "grating_period":
            return TWO_PI / self.value
        return self.value


@dataclass(frozen=True)
class InitialSpec:
    """Recipe for the initial ladder state.

    kind "plane": single sideband at `center`.
    kind "gaussian": packet centered at `center`; the width is either
    `width_energy` (eV, interpreted per `width_convention`: "fwhm" or
    "rms" of the population in energy) or directly `width_sidebands`
    (the Gaussian sigma in sideband units).  Exactly one width must be set.
    """

    kind: str = "plane"
    center: int = 0
    width_energy: float | None = None
    width_convention: str = "fwhm"
    width_sidebands: float | None = None
    chirp: float = 0.0
    offset_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("plane", "gaussian"):
            raise ValidationError(f"unknown initial-state kind {self.kind!r}")
        if self.kind == "gaussian":
            set_count = (self.width_energy is not None) + (
                self.width_sidebands is not None
            )
            if set_count != 1:
                raise ValidationError(
                    "gaussian initial state needs exactly one of "
                    "width_energy / width_sidebands"
                )
        elif self.width_energy is not None or self.width_sidebands is not None:
            raise ValidationError("plane-wave initial state takes no width")

    def sigma(self, photon_energy: float) -> float:
        if self.width_sidebands is not None:
            return self.width_sidebands
        return sigma_from_energy_width(
            self.width_energy, photon_energy, self.width_convention
        )

    def build(self, n_max: int, photon_energy: float) -> LadderState:
        if self.kind == "plane":
            return initial_plane_wave(n_max, self.center)
        return initial_gaussian(
            n_max,
            self.sigma(photon_energy),
            center=self.center,
            chirp=self.chirp,
            offset_phase=self.offset_phase,
        )


@dataclass(frozen=True)
class Scenario:
    """One complete, runnable simulation setup."""

    kinetic_energy: float           # eV
    amplitude: float                # V/nm
    photon_energy: float            # eV
    propagation: PropagationConfig
    initial_phase: float = 0.0      # rad
    matching: Matching = Matching()
    variant: ModelVariant = ModelVariant.full()
    initial: InitialSpec = InitialSpec()
    n_max: int | None = None        # None -> adaptive truncation
    truncation_cap: int = TRUNCATION_CAP

    def __post_init__(self) -> None:
        if self.truncation_cap < 1:
            raise ValidationError(
                f"truncation cap must be at least 1, got {self.truncation_cap}")

    def electron(self) -> ElectronParams:
        return electron_from_energy(self.kinetic_energy)

    def field(self) -> FieldParams:
        e = self.electron()
        k_z = self.matching.wavevector_for(e, self.photon_energy)
        return make_field(self.amplitude, self.photon_energy, k_z,
                          self.initial_phase)


def _initial_guess_n(sc: Scenario) -> int:
    """A lattice half-width that certainly holds the initial state."""
    if sc.initial.kind == "plane":
        return max(4, abs(sc.initial.center) + 2)
    sigma = sc.initial.sigma(sc.photon_energy)
    return max(8, int(math.ceil(abs(sc.initial.center) + 16.0 * sigma)))


def decompose_scenario(sc: Scenario) -> Decomposition:
    """The decomposition a run of sc propagates with: of the Hamiltonian on
    sc.n_max, or the one the truncation search accepts when n_max is None."""
    e = sc.electron()
    f = sc.field()
    if sc.n_max is not None:
        return decompose(build_hamiltonian(e, f, sc.variant, sc.n_max))
    probe = sc.initial.build(_initial_guess_n(sc), sc.photon_energy)
    return adaptive_truncation(
        e, f, sc.variant, probe, sc.propagation.t_end,
        hard_cap=sc.truncation_cap,
    )


def run_scenario(sc: Scenario, dec: Decomposition | None = None) -> Spectrogram:
    """Propagate sc's initial state on dec, by default decompose_scenario(sc).
    The spectrogram metadata records the resolved physics so analysis code
    can consume it without re-deriving."""
    e = sc.electron()
    f = sc.field()
    cs = coupling_set(e, f)
    if dec is None:
        dec = decompose_scenario(sc)
    s0 = sc.initial.build(dec.n_max, sc.photon_energy)
    metadata = {
        "kinetic_energy": sc.kinetic_energy,
        "amplitude": sc.amplitude,
        "photon_energy": sc.photon_energy,
        "initial_phase": f.initial_phase,
        "wavevector": f.wavevector,
        "matching_mode": sc.matching.mode,
        "model_kind": sc.variant.kind,
        "quadratic_scale": sc.variant.quadratic_scale,
        "beta": cs.beta,
        "kappa_mag": cs.kappa_mag,
        "ponderomotive": cs.ponderomotive,
        "detuning": sc.variant.detuning(cs),
        "nath_rho": cs.nath_rho,
        "initial_kind": sc.initial.kind,
        "initial_center": sc.initial.center,
    }
    return propagate(dec, s0, sc.propagation, metadata=metadata)


def trap_cycle_estimate(beta: float, kappa_mag: float) -> float:
    """Characteristic confinement oscillation time pi hbar / sqrt(beta kappa).

    Used to auto-size sweep time spans; both couplings must be positive."""
    from .constants import HBAR

    if beta <= 0 or kappa_mag <= 0:
        raise ValidationError("cycle estimate needs positive beta and kappa")
    return math.pi * HBAR / math.sqrt(beta * kappa_mag)
