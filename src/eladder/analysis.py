"""Observable extraction from spectrograms.

Conventions used throughout:

* "populated" means a population at or above a threshold (default 1e-3 of
  the unit total).  That floor sits well above the integrator noise floor
  and tracks the visible extent of a log-scale population map.
* Extremum times of smooth series are refined by fitting a parabola through
  the three samples around each discrete extremum.
* The absorption side is n > 0 (energy gain), the emission side n < 0.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .errors import (
    InsufficientSpanError,
    LadderError,
    SweepError,
    ValidationError,
)
from .oracles import separatrix_edge, trap_cycle_estimate
from .physics import CouplingSet, coupling_set, electron_from_energy
from .propagate import (POPULATION_THRESHOLD, Decomposition, Spectrogram,
                        centroid_and_spread)
from .scenario import (InitialSpec, Scenario, decompose_scenario,
                       run_scenario)

PRESENCE_FLOOR = 1e-9
BLOCH_PROMINENCE = 0.5       # of the per-side moment's largest value
FRINGE_PROMINENCE = 2.0      # peak over its lower neighbour
FRINGE_WING = 10             # sidebands inside a populated edge
FRINGE_MINIMUM = 2           # maxima that make a fringe row
TRANSFER_LEVEL = 0.5         # target population that counts a transfer
TRANSFER_REARM = 0.35        # and the level the detector re-arms below

RAMAN_NATH_LIMIT = 0.1
BRAGG_LIMIT = 10.0


# --------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class TrapReport:
    width: float                 # eV between extreme populated sidebands
    n_min: int
    n_max: int
    threshold: float


@dataclass(frozen=True)
class RegimeLabel:
    rho: float
    label: str

    def __post_init__(self) -> None:
        expected = _label_for(self.rho)
        if self.label != expected:
            raise ValidationError(
                f"label {self.label!r} inconsistent with rho={self.rho!r}"
            )


def _label_for(rho: float) -> str:
    if rho < RAMAN_NATH_LIMIT:
        return "RamanNath"
    if rho > BRAGG_LIMIT:
        return "Bragg"
    return "Intermediate"


@dataclass(frozen=True)
class AsymmetryReport:
    """Difference |n+| - |n-| of the per-side population peaks.

    delta_n is None when either side carries no population above the
    presence floor."""

    delta_n: int | None
    time: float


@dataclass(frozen=True)
class BlochReport:
    period_absorption: float
    period_emission: float
    max_n_absorption: int
    max_n_emission: int


@dataclass(frozen=True)
class FringeReport:
    found: bool
    first_time: float | None
    max_count: int


@dataclass(frozen=True)
class TransferReport:
    """Hysteresis analysis of a two-component exchange."""

    crossing_times: tuple[float, ...]
    periods: tuple[float, ...]
    leak_max: float


# --------------------------------------------------------------------------
# series helpers

def _interp_extrema(times: np.ndarray, series: np.ndarray, kind: str) -> list[float]:
    """Times of local extrema, refined by a three-point parabola."""
    y = -series if kind == "max" else series
    out: list[float] = []
    for i in range(1, len(y) - 1):
        if y[i] < y[i - 1] and y[i] <= y[i + 1]:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            if denom > 0:
                shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
                out.append(float(times[i] + shift * (times[i + 1] - times[i])))
            else:
                out.append(float(times[i]))
    return out


# --------------------------------------------------------------------------
# observables

def trap_width(
    spec: Spectrogram, threshold: float = POPULATION_THRESHOLD
) -> TrapReport:
    """Energy span between the extreme sidebands whose max-over-time
    population reaches the threshold."""
    envelope = spec.populations.max(axis=0)
    n = spec.sideband_indices
    hit = np.nonzero(envelope >= threshold)[0]
    photon = spec.metadata.get("photon_energy")
    if photon is None:
        raise ValidationError("spectrogram metadata lacks photon_energy")
    if hit.size == 0:
        peak = int(n[int(np.argmax(envelope))])
        return TrapReport(0.0, peak, peak, threshold)
    n_lo, n_hi = int(n[hit[0]]), int(n[hit[-1]])
    return TrapReport((n_hi - n_lo) * photon, n_lo, n_hi, threshold)


def asymmetry(spec: Spectrogram, time: float) -> AsymmetryReport:
    """Peak-position difference between the absorption and emission sides
    at the sample nearest to `time`."""
    i = int(np.argmin(np.abs(spec.times - time)))
    row = spec.populations[i]
    n = spec.sideband_indices
    pos, neg = n > 0, n < 0
    if (row[pos].max(initial=0.0) < PRESENCE_FLOOR
            or row[neg].max(initial=0.0) < PRESENCE_FLOOR):
        return AsymmetryReport(None, float(spec.times[i]))
    n_pos = int(n[pos][np.argmax(row[pos])])
    n_neg = int(n[neg][np.argmax(row[neg])])
    return AsymmetryReport(abs(n_pos) - abs(n_neg), float(spec.times[i]))


def collapse_times(spec: Spectrogram) -> list[float]:
    """Times where the spread stops growing and refocusing begins: the
    local maxima of the population variance."""
    moments = centroid_and_spread(spec)
    return _interp_extrema(moments.times, moments.variance, "max")


def revival_period(spec: Spectrogram) -> float:
    """Mean spacing between successive minima of the spread series.

    Needs at least two minima inside the sampled span; shorter runs raise
    InsufficientSpanError."""
    moments = centroid_and_spread(spec)
    if float(moments.variance.max()) <= 1e-12:
        raise InsufficientSpanError("spread never grows; nothing to time")
    minima = _interp_extrema(moments.times, moments.variance, "min")
    if len(minima) < 2:
        raise InsufficientSpanError(
            f"found {len(minima)} spread minima; need at least 2"
        )
    gaps = np.diff(minima)
    return float(gaps.mean())


def classify_regime(cs: CouplingSet) -> RegimeLabel:
    """Bucket the coupling ratio rho into RamanNath / Intermediate / Bragg."""
    if cs.nath_rho is None:
        raise ValidationError("rho is undefined at zero field; unclassifiable")
    return RegimeLabel(cs.nath_rho, _label_for(cs.nath_rho))


def bloch_oscillation_report(spec: Spectrogram) -> BlochReport:
    """Per-side oscillation periods and maximal excursions under a linear
    on-site slope.

    The per-side envelope observable is the unnormalized first moment
    M+-(t) = sum over the side of |n| P_n(t); its prominent maxima (above
    BLOCH_PROMINENCE of the series max) time the oscillation, and the
    excursion is the outermost sideband reaching POPULATION_THRESHOLD.  A
    run without detuning has no such oscillation and is rejected.
    """
    detuning = spec.metadata.get("detuning")
    if detuning is not None and detuning == 0.0:
        raise ValidationError(
            "spectrogram comes from a matched run; there is no linear slope "
            "to oscillate against"
        )
    n = spec.sideband_indices
    p = spec.populations
    sides = {"absorption": n > 0, "emission": n < 0}
    periods: dict[str, float] = {}
    extents: dict[str, int] = {}
    for name, mask in sides.items():
        moment = p[:, mask] @ np.abs(n[mask]).astype(float)
        peaks = _interp_extrema(spec.times, moment, "max")
        top = float(moment.max())
        dt = float(spec.times[1] - spec.times[0])
        prominent = [
            t for t in peaks
            if moment[int(round((t - spec.times[0]) / dt))]
            > BLOCH_PROMINENCE * top
        ]
        if len(prominent) < 2:
            raise InsufficientSpanError(
                f"{name} side shows {len(prominent)} prominent peaks; "
                "need at least 2"
            )
        periods[name] = float(np.mean(np.diff(prominent)))
        envelope = p[:, mask].max(axis=0)
        hit = np.abs(n[mask])[envelope >= POPULATION_THRESHOLD]
        extents[name] = int(hit.max()) if hit.size else 0
    return BlochReport(
        period_absorption=periods["absorption"],
        period_emission=periods["emission"],
        max_n_absorption=extents["absorption"],
        max_n_emission=extents["emission"],
    )


def fringe_count_in_row(row: np.ndarray, n: np.ndarray) -> int:
    """Count interference maxima within FRINGE_WING sidebands of the
    populated edges of one spectrum row, excluding the central site.  A
    maximum counts when it reaches POPULATION_THRESHOLD and stands
    FRINGE_PROMINENCE times above its lower neighbour."""
    populated = n[row >= POPULATION_THRESHOLD]
    if populated.size == 0:
        return 0
    best = 0
    half = (len(row) - 1) // 2
    for edge, sign in ((int(populated.max()), +1), (int(populated.min()), -1)):
        if sign > 0:
            lo, hi = max(edge - FRINGE_WING, 1), edge
        else:
            lo, hi = edge, min(edge + FRINGE_WING, -1)
        count = 0
        for k in range(lo + 1, hi):
            i = k + half
            if (row[i] >= POPULATION_THRESHOLD
                    and row[i] > row[i - 1] and row[i] > row[i + 1]):
                shoulder = min(row[i - 1], row[i + 1])
                if shoulder <= 0 or row[i] / shoulder >= FRINGE_PROMINENCE:
                    count += 1
        best = max(best, count)
    return best


def fringe_check(spec: Spectrogram) -> FringeReport:
    """Scan the run for edge fringes: FRINGE_MINIMUM or more interference
    maxima near a populated edge (see fringe_count_in_row)."""
    n = spec.sideband_indices
    first: float | None = None
    best = 0
    for i, t in enumerate(spec.times):
        c = fringe_count_in_row(spec.populations[i], n)
        best = max(best, c)
        if c >= FRINGE_MINIMUM and first is None:
            first = float(t)
    return FringeReport(found=first is not None, first_time=first, max_count=best)


def _column(n: np.ndarray, site: int) -> int:
    """Array column of sideband `site`."""
    hit = np.nonzero(n == site)[0]
    if hit.size == 0:
        raise ValidationError(
            f"sideband {site} lies outside the lattice "
            f"({int(n[0])}..{int(n[-1])})")
    return int(hit[0])


def population_transfer(
    spec: Spectrogram,
    target: int,
    pair: tuple[int, int] | None = None,
) -> TransferReport:
    """Time the periodic population exchange onto `target`.

    The target population is boxcar-smoothed over three beat periods
    2 pi hbar / (E_1 - E_0), estimated from the diagonal curvature in the
    metadata, and each upward crossing of TRANSFER_LEVEL marks one
    transfer; the detector re-arms when the smoothed series falls below
    TRANSFER_REARM.  Crossing times are refined by linear interpolation.
    `pair`, when given, also reports the worst-case population leak outside
    those two sites.  A site off the lattice raises ValidationError.
    """
    n = spec.sideband_indices
    series = spec.populations[:, _column(n, target)]
    leak = 0.0
    if pair is not None:
        kept = spec.populations[:, [_column(n, m) for m in pair]].sum(axis=1)
        leak = float((1.0 - kept).max())
    dt = float(spec.times[1] - spec.times[0])

    curvature = spec.metadata.get("beta")
    if curvature is None or curvature <= 0:
        raise ValidationError(
            "metadata lacks a usable beta for the smoothing window")
    smooth_time = 3.0 * 2.0 * math.pi * HBAR / curvature
    width = max(3, int(round(smooth_time / dt)))
    kernel = np.ones(width) / width
    smooth = np.convolve(series, kernel, mode="same")

    crossings: list[float] = []
    armed = True
    for i in range(1, len(smooth)):
        if armed and smooth[i - 1] < TRANSFER_LEVEL <= smooth[i]:
            frac = ((TRANSFER_LEVEL - smooth[i - 1])
                    / (smooth[i] - smooth[i - 1]))
            crossings.append(float(spec.times[i - 1] + frac * dt))
            armed = False
        elif not armed and smooth[i] < TRANSFER_REARM:
            armed = True

    periods = tuple(float(b - a) for a, b in zip(crossings, crossings[1:]))
    return TransferReport(tuple(crossings), periods, leak)


# --------------------------------------------------------------------------
# parameter sweeps

SWEEP_AXES = ("energy", "field", "phase", "photon_energy")
SWEEP_OBSERVABLES = ("trap_width", "revival_period", "rho")


@dataclass(frozen=True)
class SweepRow:
    index: int
    axis: str
    value: float
    observable: str
    result: float | None
    error: str | None = None


def _scenario_at(base: Scenario, axis: str, value: float) -> Scenario:
    """base moved to `value` on `axis`.

    A phase point keeps the base field phase phi0 and shifts the start's
    linear phase instead: the field phase is a gauge, so phase phi0 + a
    with offset_phase o has the populations of phi0 with offset o + a.
    Every phase point thus has the base Hamiltonian, bit for bit.
    """
    if axis == "energy":
        return replace(base, kinetic_energy=float(value))
    if axis == "field":
        return replace(base, amplitude=float(value))
    if axis == "phase":
        shift = float(value) - base.initial_phase
        return replace(base, initial=replace(
            base.initial, offset_phase=base.initial.offset_phase + shift))
    if axis == "photon_energy":
        return replace(base, photon_energy=float(value))
    raise ValidationError(f"unknown sweep axis {axis!r}")


def _auto_sized(sc: Scenario) -> Scenario:
    """Give a sweep point a time span of two confinement cycles and let the
    lattice size follow the trap extent."""
    e = electron_from_energy(sc.kinetic_energy)
    cs = coupling_set(e, sc.field())
    span = 2.0 * trap_cycle_estimate(cs.beta, cs.kappa_mag)
    cfg = replace(sc.propagation, t_end=span, sample_interval=span / 400.0)
    edge = separatrix_edge(cs.beta, cs.kappa_mag)
    margin = abs(sc.initial.center) + 8
    if sc.initial.kind == "gaussian":
        margin += int(math.ceil(8.0 * sc.initial.sigma(sc.photon_energy)))
    n_max = int(math.ceil(1.8 * edge)) + 20 + margin
    return replace(sc, propagation=cfg, n_max=n_max)


def _rho(sc: Scenario) -> float:
    cs = coupling_set(electron_from_energy(sc.kinetic_energy), sc.field())
    if cs.nath_rho is None:
        raise ValidationError("rho undefined at zero field")
    return cs.nath_rho


def _observe(sc: Scenario, dec: Decomposition, observable: str,
             threshold: float) -> float:
    spec = run_scenario(sc, dec)
    if observable == "trap_width":
        return trap_width(spec, threshold).width
    return revival_period(spec)


def _attempt(call, *args):
    """call(*args), or the per-point error it raised."""
    try:
        return call(*args)
    except (LadderError, ValueError) as exc:
        return exc


def sweep_starts(
    axis: str,
    grid,
    base: Scenario,
    starts: Sequence[InitialSpec],
    observable: str,
    threshold: float = POPULATION_THRESHOLD,
) -> list[list[SweepRow]]:
    """Evaluate an observable along one parameter axis for several starts.

    Returns one row list per start (an InitialSpec standing in for base's
    own), each in grid order.  At every grid point each start is sized by
    _auto_sized, the Hamiltonian is built and decomposed once on the widest
    of those lattices, and every start runs on that decomposition; a
    narrower start thus gains sites beyond its own trap.  A point reuses
    the previous point's decomposition when its widest lattice has the same
    Hamiltonian inputs, as every phase point does (see _scenario_at), and
    a decomposition that failed is not tried again for that lattice: its
    error goes into each of the lattice's rows.  A point whose widest
    lattice exceeds the base's truncation_cap fails for every start.

    An empty grid or a non-finite grid value raises ValidationError before
    any point runs.  Per-point failures are recorded in the row and the
    sweep continues; if every point of a start fails, SweepError carries
    that start's first message.  No decomposition is kept after the call
    returns.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}")
    if observable not in SWEEP_OBSERVABLES:
        raise ValidationError(f"observable must be one of {SWEEP_OBSERVABLES}")
    values = [float(v) for v in grid]
    if not values:
        raise ValidationError("sweep grid is empty")
    if not all(map(math.isfinite, values)):
        raise ValidationError("every sweep grid value must be finite")

    columns: list[list[SweepRow]] = [[] for _ in starts]
    lattice = dec = None
    for i, v in enumerate(values):
        try:
            at = [_scenario_at(replace(base, initial=s), axis, v)
                  for s in starts]
            if observable == "rho":
                outcomes = [_rho(at[0])] * len(starts)
            else:
                sized = [_auto_sized(sc) for sc in at]
                widest = max(sized, key=lambda sc: sc.n_max)
                key = replace(widest, initial=base.initial,
                              propagation=base.propagation)
                if key != lattice:
                    lattice, dec = key, _attempt(decompose_scenario, widest)
                outcomes = [
                    dec if isinstance(dec, Exception)
                    else _attempt(_observe, sc, dec, observable, threshold)
                    for sc in sized
                ]
        except (LadderError, ValueError) as exc:
            outcomes = [exc] * len(starts)
        for column, out in zip(columns, outcomes):
            if isinstance(out, Exception):
                column.append(SweepRow(i, axis, v, observable, None,
                                       error=str(out)))
            else:
                column.append(SweepRow(i, axis, v, observable, out))
    for column in columns:
        if all(r.error is not None for r in column):
            raise SweepError(
                f"every grid point failed; first error: {column[0].error}")
    return columns


def sweep(
    axis: str,
    grid,
    base: Scenario,
    observable: str,
    threshold: float = POPULATION_THRESHOLD,
) -> list[SweepRow]:
    """Evaluate an observable along one parameter axis: sweep_starts with
    base's own start alone, so each point runs on its own sized lattice.

    Rows come back in grid order.  Per-point failures are recorded in the
    row and the sweep continues; if every point fails, SweepError carries
    the first message.  Phase points differ only in the start's linear
    phase (see _scenario_at), so they share one Hamiltonian, decomposed
    once.

    The base's t_end, sample_interval and n_max (config keys
    propagation.t_end, propagation.sample_interval and truncation.n_max)
    are ignored: _auto_sized runs each point for two trap cycles, sampled
    400 times, on a lattice sized to its own trap.  A point whose lattice
    exceeds the base's truncation_cap fails with ResourceLimitError.
    """
    return sweep_starts(axis, grid, base, [base.initial], observable,
                        threshold)[0]
