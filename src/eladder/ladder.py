"""Tight-binding Hamiltonian on the photon-sideband ladder.

Sideband index n labels the electron state shifted by n quanta; the lattice
holds n in [-N, N] stored at array position n + N.  The Hamiltonian is kept
as its three bands:

    diagonal[i]  on-site energy of n = i - N                (real, eV)
    hop_1[i]     coupling between n = i - N and n + 1       (complex, eV)
    hop_2[i]     coupling between n = i - N and n + 2       (complex, eV)

Hermiticity is automatic: the conjugate bands are implied, never stored.

The full model carries, per site n,

    diagonal:  -n * detuning + n^2 (hbar k_z)^2 / (2 gamma^3 m) - U_p
    hop_1:     delta * (k_0 + (n + 1/2) k_z) * exp(i (phi_0 + pi/2))
    hop_2:     -(U_p / 2) * exp(2 i phi_0)

where the half-step in the hop wavevector is what makes the two adjacent
rows agree: k_{n+1} - k_z/2 = k_n + k_z/2.  Flags on ModelVariant switch
the ponderomotive terms, the n-dependence of the hop, and the gamma^3
curvature correction individually, and the quadratic term can be scaled
(quadratic_scale=0 isolates the linear-slope dynamics used by the mismatch
studies).  The simplified model is the same formula with the ponderomotive
and hop-asymmetry terms off, and gamma^3 off unless its flag is set:

    diagonal:  -n * detuning + beta n^2       (beta / gamma^3 with the flag)
    hop_1:     |kappa| exp(i (phi_0 + pi/2))
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .constants import ELECTRON_MASS, HBAR
from .errors import ResourceLimitError, TruncationError, ValidationError
from .physics import CouplingSet, ElectronParams, FieldParams, coupling_set

if TYPE_CHECKING:
    from .propagate import Decomposition

NORM_TOLERANCE = 1e-8
TAIL_GUARD = 1e-10
EDGE_AMPLITUDE = 1e-12
TRUNCATION_START = 64
TRUNCATION_CAP = 4096


@dataclass(frozen=True)
class ModelVariant:
    """Which terms of the ladder Hamiltonian are active.

    kind is "full" or "simplified"; it sets no term itself.  The
    simplified kind requires the ponderomotive and hop-asymmetry flags to be
    off (its defining approximation), which the factory methods below
    arrange, and defaults the gamma^3 flag to off.
    detuning_override, when set, replaces the derived linear slope (eV).
    quadratic_scale multiplies the n^2 term; 0 turns it off.
    """

    kind: str
    include_ponderomotive: bool = True
    include_recoil_asymmetry: bool = True
    include_gamma_cubed: bool = True
    detuning_override: float | None = None
    quadratic_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("full", "simplified"):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.kind == "simplified" and (
            self.include_ponderomotive or self.include_recoil_asymmetry
        ):
            raise ValidationError(
                "the simplified model excludes ponderomotive and "
                "hop-asymmetry terms by definition"
            )

    def detuning(self, cs: CouplingSet) -> float:
        """The linear slope of the on-site term, eV: detuning_override
        when set, else the one the couplings derive."""
        if self.detuning_override is not None:
            return self.detuning_override
        return cs.detuning

    @classmethod
    def full(cls, **kwargs) -> "ModelVariant":
        return cls(kind="full", **kwargs)

    @classmethod
    def simplified(
        cls,
        detuning_override: float | None = None,
        quadratic_scale: float = 1.0,
        include_gamma_cubed: bool = False,
    ) -> "ModelVariant":
        return cls(
            kind="simplified",
            include_ponderomotive=False,
            include_recoil_asymmetry=False,
            include_gamma_cubed=include_gamma_cubed,
            detuning_override=detuning_override,
            quadratic_scale=quadratic_scale,
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def band_matrix(diagonal: np.ndarray, hop_1: np.ndarray,
                hop_2: np.ndarray) -> np.ndarray:
    """The Hermitian matrix with these bands on and above the diagonal and
    their conjugates below it; real when all three bands are."""
    dim = len(diagonal)
    m = np.zeros((dim, dim), dtype=np.result_type(diagonal, hop_1, hop_2))
    i = np.arange(dim)
    m[i, i] = diagonal
    m[i[:-1], i[1:]] = hop_1
    m[i[1:], i[:-1]] = np.conj(hop_1)
    m[i[:-2], i[2:]] = hop_2
    m[i[2:], i[:-2]] = np.conj(hop_2)
    return m


@dataclass(frozen=True)
class LadderHamiltonian:
    """Banded Hermitian operator over sideband indices -N..N."""

    n_max: int
    diagonal: np.ndarray   # float, length 2N+1
    hop_1: np.ndarray      # complex, length 2N
    hop_2: np.ndarray      # complex, length 2N-1
    variant: ModelVariant

    def __post_init__(self) -> None:
        dim = 2 * self.n_max + 1
        if self.diagonal.shape != (dim,):
            raise ValidationError("diagonal band has wrong length")
        if self.hop_1.shape != (dim - 1,) or self.hop_2.shape != (dim - 2,):
            raise ValidationError("hop band has wrong length")
        _read_only(self.diagonal)
        _read_only(self.hop_1)
        _read_only(self.hop_2)

    @property
    def dim(self) -> int:
        return 2 * self.n_max + 1

    def indices(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    def to_dense(self) -> np.ndarray:
        """Expand the bands into a full complex matrix."""
        return band_matrix(self.diagonal, self.hop_1, self.hop_2)

    def apply(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Banded matrix-vector product H @ a."""
        if out is None:
            out = np.empty_like(a)
        np.multiply(self.diagonal, a, out)
        out[:-1] += self.hop_1 * a[1:]
        out[1:] += np.conj(self.hop_1) * a[:-1]
        out[:-2] += self.hop_2 * a[2:]
        out[2:] += np.conj(self.hop_2) * a[:-2]
        return out

    def spectral_bound(self) -> float:
        """Gershgorin bound on the spectral radius, eV."""
        r = np.abs(self.diagonal).astype(float)
        h1 = np.abs(self.hop_1)
        r[:-1] += h1
        r[1:] += h1
        h2 = np.abs(self.hop_2)
        r[:-2] += h2
        r[2:] += h2
        return float(r.max())


def build_hamiltonian(
    e: ElectronParams,
    f: FieldParams,
    variant: ModelVariant,
    n_max: int,
) -> LadderHamiltonian:
    """Assemble the banded Hamiltonian for 2*n_max+1 sidebands."""
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    cs = coupling_set(e, f)
    n = np.arange(-n_max, n_max + 1, dtype=float)
    detuning = variant.detuning(cs)
    phase = f.initial_phase + math.pi / 2.0

    gamma_cubed = e.lorentz_factor**3 if variant.include_gamma_cubed else 1.0
    curvature = (HBAR * f.wavevector) ** 2 / (2.0 * gamma_cubed * ELECTRON_MASS)
    diagonal = -n * detuning + variant.quadratic_scale * curvature * n**2
    if variant.include_ponderomotive:
        diagonal = diagonal - cs.ponderomotive
    k0 = e.momentum / HBAR
    if variant.include_recoil_asymmetry:
        hop_k = k0 + (n[:-1] + 0.5) * f.wavevector
    else:
        hop_k = np.full(2 * n_max, k0)
    hop_1 = cs.delta * hop_k * np.exp(1j * phase)
    if variant.include_ponderomotive:
        hop_2 = np.full(
            2 * n_max - 1,
            -(cs.ponderomotive / 2.0) * np.exp(2j * f.initial_phase),
            dtype=complex,
        )
    else:
        hop_2 = np.zeros(2 * n_max - 1, dtype=complex)

    return LadderHamiltonian(
        n_max=n_max,
        diagonal=np.ascontiguousarray(diagonal, dtype=float),
        hop_1=np.ascontiguousarray(hop_1, dtype=complex),
        hop_2=np.ascontiguousarray(hop_2, dtype=complex),
        variant=variant,
    )


@dataclass(frozen=True)
class LadderState:
    """Complex amplitudes over sidebands -N..N at one instant."""

    amplitudes: np.ndarray
    time: float
    n_max: int

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (2 * self.n_max + 1,):
            raise ValidationError("amplitude vector has wrong length")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValidationError(
                f"state norm {norm!r} deviates from 1 beyond {NORM_TOLERANCE}"
            )
        _read_only(self.amplitudes)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def initial_plane_wave(n_max: int, center: int = 0) -> LadderState:
    """A single occupied sideband (by default n = 0)."""
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    if abs(center) > n_max:
        raise TruncationError("plane-wave index falls outside the lattice")
    a = np.zeros(2 * n_max + 1, dtype=complex)
    a[n_max + center] = 1.0
    return LadderState(a, 0.0, n_max)


def initial_gaussian(
    n_max: int,
    width_sidebands: float,
    center: int = 0,
    chirp: float = 0.0,
    offset_phase: float = 0.0,
) -> LadderState:
    """Normalized Gaussian wavepacket over sidebands.

    Amplitudes follow exp(-(n - c)^2 / (4 sigma^2)) times the quadratic and
    linear phase factors exp(i (chirp (n-c)^2 + offset_phase (n-c))).  The
    amplitude at the lattice edge must not exceed EDGE_AMPLITUDE of the
    peak, otherwise a TruncationError suggests enlarging n_max.
    """
    if width_sidebands <= 0:
        raise ValidationError("width must be positive")
    n = np.arange(-n_max, n_max + 1, dtype=float)
    rel = n - center
    envelope = np.exp(-(rel**2) / (4.0 * width_sidebands**2))
    edge = max(envelope[0], envelope[-1])
    if edge > EDGE_AMPLITUDE:
        raise TruncationError(
            f"edge amplitude {edge:.2e} of peak exceeds {EDGE_AMPLITUDE:.0e}; "
            f"increase n_max beyond {n_max}"
        )
    a = envelope * np.exp(1j * (chirp * rel**2 + offset_phase * rel))
    a = a / np.linalg.norm(a)
    return LadderState(a.astype(complex), 0.0, n_max)


def sigma_from_energy_width(
    width_ev: float, photon_energy: float, convention: str = "fwhm"
) -> float:
    """Convert a population energy width into the Gaussian sigma in
    sideband units.

    "fwhm": width_ev is the full width at half maximum of |a_n|^2 on the
    energy axis; |a_n|^2 ~ exp(-n^2 / (2 sigma^2)) gives
    FWHM = 2 sqrt(2 ln 2) sigma photon quanta.
    "rms": width_ev is the standard deviation of |a_n|^2 in energy.
    """
    if width_ev <= 0 or photon_energy <= 0:
        raise ValidationError("widths and photon energy must be positive")
    quanta = width_ev / photon_energy
    if convention == "fwhm":
        return quanta / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    if convention == "rms":
        return quanta
    raise ValidationError(f"unknown width convention {convention!r}")


def _embed(state: LadderState, n_max: int) -> LadderState:
    """Re-express a state on a lattice of different half-width, padding with
    zeros or cropping exact-zero tails."""
    if n_max == state.n_max:
        return state
    a = np.zeros(2 * n_max + 1, dtype=complex)
    lo = min(state.n_max, n_max)
    src = state.amplitudes[state.n_max - lo : state.n_max + lo + 1]
    if n_max < state.n_max:
        lost = 1.0 - float(np.sum(np.abs(src) ** 2))
        if lost > 1e-14:
            raise TruncationError("embedding would discard population")
    a[n_max - lo : n_max + lo + 1] = src
    return LadderState(a / np.linalg.norm(a), state.time, n_max)


def _support_n(state: LadderState, floor: float = TAIL_GUARD) -> int:
    """Smallest half-width whose exterior holds less than `floor` mass."""
    pops = state.populations()
    n = np.abs(np.arange(-state.n_max, state.n_max + 1))
    for cand in range(1, state.n_max + 1):
        if float(pops[n >= cand].sum()) < floor:
            return cand
    return state.n_max


def _edge_n(state: LadderState) -> int:
    """Smallest half-width N such that no amplitude at |n| >= N exceeds
    EDGE_AMPLITUDE of the peak: a lattice of half-width N passes the edge
    rule of initial_gaussian, and cropping the state to it loses no more
    than roundoff."""
    a = np.abs(state.amplitudes)
    n = np.abs(np.arange(-state.n_max, state.n_max + 1))
    above = n[a > EDGE_AMPLITUDE * a.max()]
    return int(above.max()) + 1 if above.size else 0


def adaptive_truncation(
    e: ElectronParams,
    f: FieldParams,
    variant: ModelVariant,
    state: LadderState,
    t_max: float,
    start: int = TRUNCATION_START,
    hard_cap: int = TRUNCATION_CAP,
    guard: float = TAIL_GUARD,
) -> Decomposition:
    """Find a lattice half-width that keeps the population of the outer two
    sites below `guard` up to the time horizon, and return the decomposition
    of the Hamiltonian on it; its n_max is the size.

    No size is below the support of the initial state: two sites beyond its
    `guard` mass, and wide enough that its edge amplitudes pass the rule of
    initial_gaussian.  With no field the dynamics is diagonal, so the answer
    is that support; otherwise the search tries max(start, support),
    doubling, and returns the first size that passes a trial evolution
    sampled along the horizon.  A failed trial's decomposition is dropped
    before the next one is made.  Any size above hard_cap raises
    ResourceLimitError.
    """
    from .propagate import PropagationConfig, decompose, propagate  # avoids cycle

    if t_max <= 0:
        raise ValidationError("time horizon must be positive")
    n_try = max(_support_n(state, guard) + 2, _edge_n(state))
    if f.amplitude != 0.0:
        n_try = max(start, n_try)
    while True:
        if n_try > hard_cap:
            raise ResourceLimitError(
                f"truncation search exceeded the cap of {hard_cap} sidebands"
            )
        dec = decompose(build_hamiltonian(e, f, variant, n_try))
        if f.amplitude == 0.0:
            return dec
        trial = _embed(state, n_try)
        cfg = PropagationConfig(t_end=t_max, sample_interval=t_max / 32.0)
        spec = propagate(dec, trial, cfg)
        n_abs = np.abs(dec.h.indices())
        tail = spec.populations[:, n_abs >= n_try - 2].sum(axis=1)
        if float(tail.max()) < guard:
            return dec
        del dec
        n_try *= 2
