"""Electron kinematics, optical field parameters, and derived couplings.

The electron is always treated relativistically: for kinetic energy E0 the
Lorentz factor is gamma = 1 + E0 / (m c^2), the speed follows from
v = c * sqrt(1 - gamma^-2), and the momentum is p = gamma * m * v.  At the
energies this package targets (tens to hundreds of eV) the classical
expressions would be wrong only at the 0.1% level, but the exact relations
cost nothing.

From an electron and a field the ladder couplings are derived:

    beta   = (hbar k_z)^2 / (2 m)          quadratic on-site energy, eV
    |kappa|= E_f hbar k_0 / (2 m omega)    nearest-neighbour hop, eV
    arg kappa = phi_0 + pi/2
    delta  = E_f hbar / (2 m omega)        hop per unit wavevector, eV nm
    U_p    = E_f^2 / (4 m omega^2)         cycle-averaged quiver energy, eV
    detuning = hbar (omega - v_0 k_z)      linear on-site slope, eV

with k_0 = p_0 / hbar.  The Nath ratio rho = beta / |kappa| discriminates
the hopping-dominated regime (rho << 1) from the on-site-dominated one
(rho >> 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    ELECTRON_MASS,
    HBAR,
    LIGHT_SPEED,
    REST_ENERGY,
)
from .errors import ValidationError

TWO_PI = 2.0 * math.pi

# Detunings below this many photon energies are snapped to exactly zero so
# that a phase-matched construction yields an identically vanishing linear
# term instead of a rounding remnant.
DETUNING_SNAP = 1e-12


def wrap_phase(phi: float) -> float:
    """Map an angle onto the interval (-pi, pi]."""
    phi = math.remainder(phi, TWO_PI)
    if phi <= -math.pi:
        phi += TWO_PI
    return phi


@dataclass(frozen=True)
class ElectronParams:
    """Kinematic parameters of the incident electron.

    kinetic_energy  eV
    momentum        eV fs / nm
    velocity        nm / fs
    lorentz_factor  dimensionless
    """

    kinetic_energy: float
    momentum: float
    velocity: float
    lorentz_factor: float

    def __post_init__(self) -> None:
        if self.kinetic_energy <= 0:
            raise ValidationError("electron kinetic energy must be positive")
        if self.lorentz_factor < 1 or self.velocity >= LIGHT_SPEED:
            raise ValidationError("electron kinematics out of physical range")


@dataclass(frozen=True)
class FieldParams:
    """Optical field parameters.

    amplitude          V / nm  (equals the energy gradient e*E in eV/nm)
    photon_energy      eV
    angular_frequency  rad / fs
    wavevector         longitudinal wavevector k_z, 1 / nm
    initial_phase      rad, stored in (-pi, pi]
    """

    amplitude: float
    photon_energy: float
    angular_frequency: float
    wavevector: float
    initial_phase: float

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValidationError("field amplitude must be non-negative")
        if self.photon_energy <= 0 or self.wavevector <= 0:
            raise ValidationError("photon energy and wavevector must be positive")
        object.__setattr__(self, "initial_phase", wrap_phase(self.initial_phase))


@dataclass(frozen=True)
class CouplingSet:
    """Derived model coefficients for one electron/field combination.

    nath_rho is None when the field amplitude vanishes (the ratio
    beta / |kappa| is then undefined rather than infinite).
    """

    beta: float
    kappa_mag: float
    delta: float
    ponderomotive: float
    detuning: float
    nath_rho: float | None


def electron_from_energy(kinetic_energy: float) -> ElectronParams:
    """Build electron kinematics from the kinetic energy in eV."""
    if kinetic_energy <= 0:
        raise ValidationError("kinetic energy must be positive, got "
                              f"{kinetic_energy!r}")
    gamma = 1.0 + kinetic_energy / REST_ENERGY
    velocity = LIGHT_SPEED * math.sqrt(1.0 - 1.0 / gamma**2)
    momentum = gamma * ELECTRON_MASS * velocity
    return ElectronParams(kinetic_energy, momentum, velocity, gamma)


def photon_energy_from_wavelength(wavelength: float) -> float:
    """Photon energy in eV for a free-space wavelength in nm."""
    if wavelength <= 0:
        raise ValidationError("wavelength must be positive")
    return TWO_PI * HBAR * LIGHT_SPEED / wavelength


def phase_matched_wavevector(e: ElectronParams, photon_energy: float) -> float:
    """Longitudinal wavevector k_z that makes the phase velocity omega / k_z
    equal to the electron velocity, in 1/nm."""
    if photon_energy <= 0:
        raise ValidationError("photon energy must be positive")
    omega = photon_energy / HBAR
    return omega / e.velocity


def grating_period_for(e: ElectronParams, photon_energy: float) -> float:
    """Spatial period 2 pi / k_z of the velocity-matched structure, nm."""
    return TWO_PI / phase_matched_wavevector(e, photon_energy)


def make_field(
    amplitude: float,
    photon_energy: float,
    wavevector: float,
    initial_phase: float = 0.0,
) -> FieldParams:
    """Assemble FieldParams, deriving the angular frequency from the photon
    energy."""
    return FieldParams(
        amplitude=amplitude,
        photon_energy=photon_energy,
        angular_frequency=photon_energy / HBAR,
        wavevector=wavevector,
        initial_phase=initial_phase,
    )


def matched_field(
    e: ElectronParams,
    amplitude: float,
    photon_energy: float,
    initial_phase: float = 0.0,
) -> FieldParams:
    """FieldParams with the wavevector chosen by velocity matching."""
    return make_field(
        amplitude, photon_energy, phase_matched_wavevector(e, photon_energy),
        initial_phase,
    )


def coupling_set(e: ElectronParams, f: FieldParams) -> CouplingSet:
    """Derive all ladder coefficients for an electron/field pair.

    The detuning hbar (omega - v0 k_z) is snapped to exactly zero when it is
    below DETUNING_SNAP photon energies, so velocity-matched construction
    yields an identically zero linear term.
    """
    omega = f.angular_frequency
    k0 = e.momentum / HBAR
    beta = (HBAR * f.wavevector) ** 2 / (2.0 * ELECTRON_MASS)
    delta = f.amplitude * HBAR / (2.0 * ELECTRON_MASS * omega)
    kappa_mag = delta * k0
    ponderomotive = f.amplitude**2 / (4.0 * ELECTRON_MASS * omega**2)
    detuning = HBAR * (omega - e.velocity * f.wavevector)
    if abs(detuning) < DETUNING_SNAP * f.photon_energy:
        detuning = 0.0
    rho = beta / kappa_mag if kappa_mag > 0 else None
    return CouplingSet(
        beta=beta,
        kappa_mag=kappa_mag,
        delta=delta,
        ponderomotive=ponderomotive,
        detuning=detuning,
        nath_rho=rho,
    )


def recoil_ratio(e: ElectronParams, photon_energy: float) -> float:
    """Relative velocity change sqrt(photon_energy / kinetic_energy) caused
    by a single quantum exchange."""
    if photon_energy < 0:
        raise ValidationError("photon energy must be non-negative")
    return math.sqrt(photon_energy / e.kinetic_energy)


def ponderomotive_ratio(e: ElectronParams, f: FieldParams) -> float:
    """Ratio of the quadratic to the linear field coupling, E_f / (omega p).

    Uses the classical momentum p = sqrt(2 m E0): this ratio is a
    bookkeeping aid for field-strength regimes, quoted in the literature
    with the simple dispersion, and keeping that convention makes the
    reference values comparable.
    """
    p_classical = math.sqrt(2.0 * ELECTRON_MASS * e.kinetic_energy)
    return f.amplitude / (f.angular_frequency * p_classical)


def critical_angle_cosine(
    e: ElectronParams, photon_energy: float, phase_velocity: float
) -> float:
    """Cosine of the field-to-beam angle at which a quantum exchange
    conserves energy and momentum.

    Returns the raw value of

        (v_p / v) * (1 + (hw / 2E) * (1 - (c / v_p)^2))

    with E the total relativistic energy.  The result may lie outside
    [-1, 1]; that is meaningful output (no real angle exists) and is NOT
    clamped, so test -1 <= cosine <= 1 before taking an arccos.
    """
    if phase_velocity <= 0:
        raise ValidationError("phase velocity must be positive")
    total_energy = e.lorentz_factor * REST_ENERGY
    correction = (photon_energy / (2.0 * total_energy)) * (
        1.0 - (LIGHT_SPEED / phase_velocity) ** 2
    )
    return (phase_velocity / e.velocity) * (1.0 + correction)

