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
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .errors import (
    InsufficientSpanError,
    LadderError,
    SweepError,
    ValidationError,
)
from .physics import CouplingSet, coupling_set, electron_from_energy
from .propagate import (POPULATION_THRESHOLD, Decomposition, Spectrogram,
                        centroid_and_spread)
from .scenario import (Scenario, decompose_scenario, run_scenario,
                       trap_cycle_estimate)

PRESENCE_FLOOR = 1e-9

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
    window: tuple[float, float]  # fs


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


def _window_slice(spec: Spectrogram, window: tuple[float, float] | None):
    if window is None:
        return slice(None), (float(spec.times[0]), float(spec.times[-1]))
    lo, hi = window
    if hi <= lo:
        raise ValidationError("window must have positive extent")
    mask = (spec.times >= lo) & (spec.times <= hi)
    if not mask.any():
        raise ValidationError("window lies outside the sampled span")
    idx = np.nonzero(mask)[0]
    return slice(idx[0], idx[-1] + 1), (lo, hi)


# --------------------------------------------------------------------------
# observables

def trap_width(
    spec: Spectrogram,
    threshold: float = POPULATION_THRESHOLD,
    window: tuple[float, float] | None = None,
) -> TrapReport:
    """Energy span between the extreme sidebands whose max-over-time
    population inside the window reaches the threshold."""
    sl, win = _window_slice(spec, window)
    envelope = spec.populations[sl].max(axis=0)
    n = spec.sideband_indices
    hit = np.nonzero(envelope >= threshold)[0]
    photon = spec.metadata.get("photon_energy")
    if photon is None:
        raise ValidationError("spectrogram metadata lacks photon_energy")
    if hit.size == 0:
        peak = int(n[int(np.argmax(envelope))])
        return TrapReport(0.0, peak, peak, threshold, win)
    n_lo, n_hi = int(n[hit[0]]), int(n[hit[-1]])
    return TrapReport((n_hi - n_lo) * photon, n_lo, n_hi, threshold, win)


def asymmetry(
    spec: Spectrogram, time: float, floor: float = PRESENCE_FLOOR
) -> AsymmetryReport:
    """Peak-position difference between the absorption and emission sides
    at the sample nearest to `time`."""
    i = int(np.argmin(np.abs(spec.times - time)))
    row = spec.populations[i]
    n = spec.sideband_indices
    pos, neg = n > 0, n < 0
    if row[pos].max(initial=0.0) < floor or row[neg].max(initial=0.0) < floor:
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


def bloch_oscillation_report(
    spec: Spectrogram,
    threshold: float = POPULATION_THRESHOLD,
    prominence: float = 0.5,
) -> BlochReport:
    """Per-side oscillation periods and maximal excursions under a linear
    on-site slope.

    The per-side envelope observable is the unnormalized first moment
    M+-(t) = sum over the side of |n| P_n(t); its prominent maxima (above
    `prominence` of the series max) time the oscillation.  A run without
    detuning has no such oscillation and is rejected.
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
            if moment[int(round((t - spec.times[0]) / dt))] > prominence * top
        ]
        if len(prominent) < 2:
            raise InsufficientSpanError(
                f"{name} side shows {len(prominent)} prominent peaks; "
                "need at least 2"
            )
        periods[name] = float(np.mean(np.diff(prominent)))
        envelope = p[:, mask].max(axis=0)
        hit = np.abs(n[mask])[envelope >= threshold]
        extents[name] = int(hit.max()) if hit.size else 0
    return BlochReport(
        period_absorption=periods["absorption"],
        period_emission=periods["emission"],
        max_n_absorption=extents["absorption"],
        max_n_emission=extents["emission"],
    )


def fringe_count_in_row(
    row: np.ndarray,
    n: np.ndarray,
    threshold: float = POPULATION_THRESHOLD,
    prominence: float = 2.0,
    wing: int = 10,
) -> int:
    """Count interference maxima within `wing` sidebands of the populated
    edges of one spectrum row, excluding the central site."""
    populated = n[row >= threshold]
    if populated.size == 0:
        return 0
    best = 0
    half = (len(row) - 1) // 2
    for edge, sign in ((int(populated.max()), +1), (int(populated.min()), -1)):
        if sign > 0:
            lo, hi = max(edge - wing, 1), edge
        else:
            lo, hi = edge, min(edge + wing, -1)
        count = 0
        for k in range(lo + 1, hi):
            i = k + half
            if row[i] >= threshold and row[i] > row[i - 1] and row[i] > row[i + 1]:
                shoulder = min(row[i - 1], row[i + 1])
                if shoulder <= 0 or row[i] / shoulder >= prominence:
                    count += 1
        best = max(best, count)
    return best


def fringe_check(
    spec: Spectrogram,
    threshold: float = POPULATION_THRESHOLD,
    prominence: float = 2.0,
    wing: int = 10,
    minimum: int = 2,
) -> FringeReport:
    """Scan the run for edge fringes: `minimum` or more interference maxima
    near a populated edge."""
    n = spec.sideband_indices
    first: float | None = None
    best = 0
    for i, t in enumerate(spec.times):
        c = fringe_count_in_row(spec.populations[i], n, threshold, prominence, wing)
        best = max(best, c)
        if c >= minimum and first is None:
            first = float(t)
    return FringeReport(found=first is not None, first_time=first, max_count=best)


def population_transfer(
    spec: Spectrogram,
    target: int,
    pair: tuple[int, int] | None = None,
    level: float = 0.5,
    rearm: float = 0.35,
    smooth_time: float | None = None,
) -> TransferReport:
    """Time the periodic population exchange onto `target`.

    The target population is boxcar-smoothed (window `smooth_time`, by
    default three beat periods 2 pi hbar / (E_1 - E_0) estimated from the
    diagonal curvature in the metadata) and each upward crossing of `level`
    marks one transfer; the detector re-arms when the smoothed series falls
    below `rearm`.  Crossing times are refined by linear interpolation.
    `pair`, when given, also reports the worst-case population leak outside
    those two sites.
    """
    n = spec.sideband_indices
    col = int(np.nonzero(n == target)[0][0])
    series = spec.populations[:, col]
    dt = float(spec.times[1] - spec.times[0])

    if smooth_time is None:
        curvature = spec.metadata.get("beta")
        if curvature is None or curvature <= 0:
            raise ValidationError(
                "smoothing window not given and metadata lacks a usable beta"
            )
        smooth_time = 3.0 * 2.0 * math.pi * HBAR / curvature
    width = max(3, int(round(smooth_time / dt)))
    kernel = np.ones(width) / width
    smooth = np.convolve(series, kernel, mode="same")

    crossings: list[float] = []
    armed = True
    for i in range(1, len(smooth)):
        if armed and smooth[i - 1] < level <= smooth[i]:
            frac = (level - smooth[i - 1]) / (smooth[i] - smooth[i - 1])
            crossings.append(float(spec.times[i - 1] + frac * dt))
            armed = False
        elif not armed and smooth[i] < rearm:
            armed = True

    leak = 0.0
    if pair is not None:
        cols = [int(np.nonzero(n == m)[0][0]) for m in pair]
        kept = spec.populations[:, cols].sum(axis=1)
        leak = float((1.0 - kept).max())

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


def _auto_sized(sc: Scenario, cycles: float = 2.0) -> Scenario:
    """Give a sweep point a time span of a fixed number of confinement
    cycles and let the lattice size follow the trap extent."""
    e = electron_from_energy(sc.kinetic_energy)
    cs = coupling_set(e, sc.field())
    span = cycles * trap_cycle_estimate(cs.beta, cs.kappa_mag)
    cfg = replace(sc.propagation, t_end=span, sample_interval=span / 400.0)
    edge = math.sqrt(4.0 * cs.kappa_mag / cs.beta)
    margin = abs(sc.initial.center) + 8
    if sc.initial.kind == "gaussian":
        margin += int(math.ceil(8.0 * sc.initial.sigma(sc.photon_energy)))
    n_max = int(math.ceil(1.8 * edge)) + 20 + margin
    return replace(sc, propagation=cfg, n_max=n_max)


def _evaluate_point(
    base: Scenario, axis: str, value: float, observable: str, threshold: float,
    dec: Decomposition | None,
) -> float:
    sc = _scenario_at(base, axis, value)
    if observable == "rho":
        cs = coupling_set(electron_from_energy(sc.kinetic_energy), sc.field())
        if cs.nath_rho is None:
            raise ValidationError("rho undefined at zero field")
        return cs.nath_rho
    spec = run_scenario(_auto_sized(sc), dec)
    if observable == "trap_width":
        return trap_width(spec, threshold).width
    if observable == "revival_period":
        return revival_period(spec)
    raise ValidationError(f"unknown observable {observable!r}")


def sweep(
    axis: str,
    grid,
    base: Scenario,
    observable: str,
    threshold: float = POPULATION_THRESHOLD,
) -> list[SweepRow]:
    """Evaluate an observable along one parameter axis.

    Rows come back in grid order.  Per-point failures are recorded in the
    row and the sweep continues; if every point fails, SweepError carries
    the first message.  Phase points differ only in the start's linear
    phase (see _scenario_at), so they share one Hamiltonian: the sweep
    decomposes it once and runs every point on that decomposition.

    The base's t_end, sample_interval, n_max and truncation_cap (config
    keys propagation.t_end, propagation.sample_interval, truncation.n_max
    and truncation.cap) are ignored: _auto_sized runs each point for two
    trap cycles, sampled 400 times, on a lattice sized to its own trap.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}")
    if observable not in SWEEP_OBSERVABLES:
        raise ValidationError(f"observable must be one of {SWEEP_OBSERVABLES}")
    values = [float(v) for v in grid]
    if not values:
        raise ValidationError("sweep grid is empty")

    rows = []
    shared = None
    for i, v in enumerate(values):
        try:
            if axis == "phase" and observable != "rho" and shared is None:
                shared = decompose_scenario(_auto_sized(base))
            result = _evaluate_point(base, axis, v, observable, threshold,
                                     shared)
            rows.append(SweepRow(i, axis, v, observable, result))
        except (LadderError, ValueError) as exc:
            rows.append(SweepRow(i, axis, v, observable, None, error=str(exc)))
    if all(r.error is not None for r in rows):
        raise SweepError(f"every grid point failed; first error: {rows[0].error}")
    return rows
