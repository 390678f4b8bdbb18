"""Closed-form reference solutions.

These are deliberately independent of the propagator so each can check the
other.  Two solvable limits exist:

* With the quadratic on-site term removed (hopping only, constant kappa),
  a plane-wave start populates sidebands as squared Bessel functions,
  P_n(t) = J_n(2 |kappa| t / hbar)^2.
* With a dominant quadratic term, the pair n = +1 / n = -1 forms an
  effective two-level system bridged by n = 0 in second order, oscillating
  with the standard Rabi formula.

In between, the trap is a quantum pendulum, beta n^2 + 2 |kappa| cos(theta)
in the gauge: a plane start at n = 0 stays inside the separatrix edge, and
the trap cycle estimate is the pendulum's small-swing period.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import ValidationError
from .ladder import LadderHamiltonian


@dataclass(frozen=True)
class BesselSolution:
    """Hopping-only closed form, parameterized by the hop magnitude."""

    kappa_mag: float

    def __post_init__(self) -> None:
        if self.kappa_mag < 0:
            raise ValidationError("kappa magnitude must be non-negative")

    def argument(self, t: float) -> float:
        return 2.0 * self.kappa_mag * t / HBAR


def bessel_population(sol: BesselSolution, n, t: float):
    """P_n(t) = J_n(2 |kappa| t / hbar)^2.

    `n` may be a scalar or an integer array; the field phase drops out of
    the populations entirely.
    """
    from scipy.special import jv  # local: keeps scipy out of the CLI import

    if t < 0:
        raise ValidationError("time must be non-negative")
    return jv(n, sol.argument(t)) ** 2


@dataclass(frozen=True)
class TwoLevelSolution:
    """Effective two-level reduction of a Bragg-confined pair."""

    effective_coupling: float   # eV
    detuning_gap: float         # eV, on-site energy difference of the pair
    levels: tuple[int, int] = (1, -1)

    def __post_init__(self) -> None:
        if self.levels[0] == self.levels[1]:
            raise ValidationError("the level pair must be distinct")
        if self.effective_coupling < 0:
            raise ValidationError("coupling must be non-negative")

    @property
    def rabi_energy(self) -> float:
        return math.sqrt(self.effective_coupling**2 + self.detuning_gap**2 / 4.0)

    @property
    def transfer_amplitude(self) -> float:
        """Peak population reachable on the second level."""
        r = self.rabi_energy
        if r == 0.0:
            return 0.0
        return (self.effective_coupling / r) ** 2

    @property
    def period(self) -> float:
        """Full population-return period, fs."""
        r = self.rabi_energy
        if r == 0.0:
            return math.inf
        return math.pi * HBAR / r


def pendellosung_population(sol: TwoLevelSolution, t) -> tuple:
    """Populations (P_level1, P_level2) at time t for a start in level 1.

    P_2(t) = A sin^2(sqrt(Omega^2 + gap^2/4) t / hbar) with the transfer
    amplitude A = Omega^2 / (Omega^2 + gap^2/4).
    """
    r = sol.rabi_energy
    phase = np.asarray(t, dtype=float) * (r / HBAR)
    p2 = sol.transfer_amplitude * np.sin(phase) ** 2
    p1 = 1.0 - p2
    if np.isscalar(t):
        return float(p1), float(p2)
    return p1, p2


def two_level_reduction(
    h: LadderHamiltonian, pair: tuple[int, int] = (1, -1)
) -> TwoLevelSolution:
    """Build the effective two-level model for a sideband pair.

    The pair couples in second order through the site midway between it,
    Omega = |h(a,m)| |h(m,b)| / (E_a - E_m) with m the midpoint.
    """
    a, b = pair
    if abs(a) > h.n_max or abs(b) > h.n_max:
        raise ValidationError("pair lies outside the lattice")
    ia, ib = a + h.n_max, b + h.n_max
    gap = float(h.diagonal[ia] - h.diagonal[ib])

    if (a + b) % 2 != 0:
        raise ValidationError("the pair needs an integer midpoint")
    m = (a + b) // 2
    im = m + h.n_max
    if abs(a - m) != 1:
        raise ValidationError("the pair must be two sites apart")

    def hop(i: int, j: int) -> complex:
        lo = min(i, j)
        return complex(h.hop_1[lo])

    energy_split = float(h.diagonal[ia] - h.diagonal[im])
    if energy_split == 0.0:
        raise ValidationError("bridge site is degenerate with the pair")
    coupling = abs(hop(ia, im) * hop(im, ib)) / energy_split
    return TwoLevelSolution(abs(coupling), gap, (a, b))


def separatrix_edge(beta: float, kappa_mag: float) -> float:
    """Largest |n| a plane start at n = 0 reaches, sqrt(4 |kappa| / beta).

    The separatrix of beta n^2 + 2 |kappa| cos(theta) through the start."""
    if beta <= 0 or kappa_mag < 0:
        raise ValidationError("separatrix needs positive beta and kappa >= 0")
    return math.sqrt(4.0 * kappa_mag / beta)


def trap_cycle_estimate(beta: float, kappa_mag: float) -> float:
    """Characteristic confinement oscillation time pi hbar / sqrt(beta kappa).

    Used to auto-size sweep time spans; both couplings must be positive."""
    if beta <= 0 or kappa_mag <= 0:
        raise ValidationError("cycle estimate needs positive beta and kappa")
    return math.pi * HBAR / math.sqrt(beta * kappa_mag)
