"""Time evolution of ladder states under a constant banded Hamiltonian.

One production route and one independent oracle:

* propagate, the eigensolve (metadata method "dense"): diagonalize the
  Hermitian matrix once (one numpy.linalg.eigh call) and apply
  exp(-i H t / hbar) exactly at every sample time.  Exact up to eigensolver
  roundoff; cost grows with the matrix dimension cubed.  The field phase
  enters a physical ladder only as a gauge: with d_n = exp(i n theta),
  conj(d) H d has the bands hop_1 exp(i theta) and hop_2 exp(2 i theta).
  theta is read off the largest hop_1 entry (half the argument of the
  largest hop_2 entry when hop_1 vanishes), which makes both bands real, so
  the solve runs on a real symmetric matrix.  Bands whose imaginary residue
  after this gauge exceeds GAUGE_RESIDUE relative to the largest band entry
  (generic complex bands) are solved as the complex matrix, with theta = 0.
  The route returns populations only, which never see the row phase d, and
  rebuilds them from the kept modes: after the start's weights w = V^dagger
  conj(d) a0 (two real products on the real gauge), it drops modes
  smallest-|w| first while the dropped |w| sum to at most PRUNE_BOUND.
  Since |v_k(n)| <= 1, that moves no amplitude by more than the bound and
  no population by more than 2 bound + bound^2.  A narrow start in the trap
  leaves most modes idle: the README run keeps 64 of 129.  The phase table
  c_k(t_j) = w_k exp(-i (E_k - <E>) t_j / hbar) of the k kept modes is laid
  out T x k.  <E> = sum |w_k|^2 E_k / sum |w_k|^2 is the start's mean
  energy; it adds a common phase that populations do not see, and it keeps
  the phases of the heavy modes, and so their roundoff, small.  The offset
  t_j = j dt comes from the sample index, not from the times.  Writing
  j = b q + r with b = ceil(sqrt(n)) for the n on-grid samples, each entry
  is the product of a block factor (the weight folded in) and an offset
  factor, so a call takes about 2 sqrt(T) k exponentials instead of T k;
  an off-grid final sample (t_end not a multiple of dt) gets its own.
  Populations are (c_re V^T)^2 + (c_im V^T)^2 on the real gauge, two real
  products that write the C-ordered T x dim result, squared in place, and
  |c V^T|^2 on the complex fallback.  decompose(h) makes the
  eigendecomposition a Decomposition
  value, dim^2 floats (8.4 MB at dim 1025), and propagate takes it, so the
  caller decides how long it lives and who shares it: the lattice a
  truncation search accepts is diagonalized once for the trial and the run
  together, and a phase sweep once for all its points.
* the oracle, reached only through dense_oracle_compare: a Chebyshev series
  of exp(-i H span / hbar) on the three complex bands (Tal-Ezer and
  Kosloff, J. Chem. Phys. 81, 3967, 1984), one per sample span.  The
  series runs on the Gershgorin interval [lo, hi] = [min(d_i - r_i),
  max(d_i + r_i)], r_i the off-diagonal row sums: with centre
  c = (lo + hi) / 2 and half-width a = (hi - lo) / 2 it expands
  exp(-i (H - c) span / hbar) in (H - c) / a, so the coefficients are
  (-i)^k J_k(a span / hbar), and each span's result is multiplied by
  exp(-i c span / hbar), which keeps the amplitudes exact and not only
  the populations.  The ladder's spectrum is one-sided (-2.5 to 26.5 eV
  on the README lattice, interval [-2.6, 27.3] eV), so a 20 fs span takes
  507 terms there where the symmetric bound [-27.3, 27.3] eV took 894.
  The series is cut after its last Bessel term of magnitude
  tolerance / (number of spans) or more, with tolerance 1e-9; a = 0
  leaves one term, the identity.  Each term is one product of the stacked
  bands, pre-scaled by 2 / a, with the five shifted windows of a
  zero-padded copy of the previous term, one column sum, one subtraction
  and one accumulation, on three rotating buffers.  It shares no code
  with the eigensolve.  Deterministic by construction: no adaptive
  controller state, no randomness.

Norm drift is measured and asserted against norm_drift_limit, never hidden
by renormalization; the drift series rides along in the Spectrogram.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import HBAR
from .errors import IntegrationError, ValidationError
from .ladder import LadderHamiltonian, LadderState, band_matrix

GAUGE_RESIDUE = 1e-12
PRUNE_BOUND = 1e-14
# "Populated" means a population at or above this share of the unit total.
POPULATION_THRESHOLD = 1e-3


@dataclass(frozen=True)
class PropagationConfig:
    """How to run one propagation.

    t_end is the duration measured from the state's own time.
    """

    t_end: float
    sample_interval: float
    norm_drift_limit: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.t_end > 0) or not (self.sample_interval > 0):
            raise ValidationError("t_end and sample_interval must be positive")
        if not (self.norm_drift_limit > 0):
            raise ValidationError("norm_drift_limit must be positive")


@dataclass(frozen=True)
class Spectrogram:
    """Sampled population history P_n(t) with its quality record."""

    times: np.ndarray             # fs, length T
    populations: np.ndarray       # T x (2N+1)
    norm_drift_series: np.ndarray # |row sum - 1| per sample
    n_max: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for a in (self.times, self.populations, self.norm_drift_series):
            a.setflags(write=False)

    @property
    def sideband_indices(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)


def _sample_grid(cfg: PropagationConfig) -> tuple[int, bool]:
    """(n, off_grid): the grid's offsets from its start are j sample_interval
    for j < n, then t_end itself when off_grid."""
    dt = cfg.sample_interval
    n = int(np.floor(cfg.t_end / dt + 1e-9)) + 1
    return n, (n - 1) * dt < cfg.t_end - 1e-9 * dt


def _sample_times(t0: float, cfg: PropagationConfig) -> np.ndarray:
    n, off_grid = _sample_grid(cfg)
    times = t0 + cfg.sample_interval * np.arange(n)
    return np.append(times, t0 + cfg.t_end) if off_grid else times


def _phases(offsets: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """exp(-i w t) for the angular frequencies w, one row per offset t."""
    return np.exp(-1j * np.outer(offsets, rates))


def _phase_table(energies: np.ndarray, weights: np.ndarray,
                 cfg: PropagationConfig) -> np.ndarray:
    """T x k table w_k exp(-i (E_k - <E>) t_j / hbar) over the offsets t_j
    of cfg's grid, <E> the weights' mean energy.  With j = b q + r and
    b = ceil(sqrt(n)), an on-grid entry is the block factor at t = b q dt,
    weight included, times the offset factor at t = r dt; an off-grid final
    row has its own exponential."""
    n, off_grid = _sample_grid(cfg)
    dt = cfg.sample_interval
    b = math.isqrt(n - 1) + 1
    blocks = -(-n // b)
    mass = np.abs(weights) ** 2
    rates = (energies - mass @ energies / mass.sum()) / HBAR
    table = np.empty((blocks * b + off_grid, len(rates)), dtype=complex)
    np.multiply(
        (_phases(dt * np.arange(0, blocks * b, b), rates) * weights)[:, None],
        _phases(dt * np.arange(b), rates),
        out=table[: blocks * b].reshape(blocks, b, -1),
    )
    if off_grid:
        table[n] = weights * _phases(np.array([cfg.t_end]), rates)[0]
    return table[: n + off_grid]


def _real_form(h: LadderHamiltonian) -> tuple[float, np.ndarray]:
    """theta and conj(d) H d, d_n = exp(i n theta), as a real symmetric
    matrix; (0.0, the complex matrix) when no theta makes both hop bands
    real to GAUGE_RESIDUE."""
    if np.any(h.hop_1):
        theta = -float(np.angle(h.hop_1[np.argmax(np.abs(h.hop_1))]))
    else:
        theta = -0.5 * float(np.angle(h.hop_2[np.argmax(np.abs(h.hop_2))]))
    hop_1 = h.hop_1 * np.exp(1j * theta)
    hop_2 = h.hop_2 * np.exp(2j * theta)
    scale = max(np.abs(b).max() for b in (h.diagonal, hop_1, hop_2))
    residue = max(np.abs(hop_1.imag).max(), np.abs(hop_2.imag).max())
    if residue > GAUGE_RESIDUE * scale:
        return 0.0, h.to_dense()
    return theta, band_matrix(h.diagonal, hop_1.real, hop_2.real)


def _kept_modes(weights: np.ndarray) -> np.ndarray:
    """Mask of the modes a reconstruction needs: every mode except the
    smallest-|w| ones whose |w| sum to at most PRUNE_BOUND."""
    magnitude = np.abs(weights)
    order = np.argsort(magnitude)
    kept = np.ones(len(weights), dtype=bool)
    kept[order[np.cumsum(magnitude[order]) <= PRUNE_BOUND]] = False
    return kept


@dataclass(frozen=True)
class Decomposition:
    """The eigendecomposition of h's real form: conj(d) H d = V diag(E) V^T
    with d_n = exp(i n theta) (V unitary on the complex fallback).  The
    arrays are read-only."""

    h: LadderHamiltonian
    theta: float
    energies: np.ndarray
    modes: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.energies, self.modes):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.h.dim

    @property
    def n_max(self) -> int:
        return self.h.n_max

    def populations(self, a0: np.ndarray, cfg: PropagationConfig) -> np.ndarray:
        """Read-only, C-ordered T x dim populations of a0 evolved under h on
        cfg's sample grid (offsets from the start), from the kept modes.

        The T x k phase table comes from _phase_table, and the result from
        one real product per part (one complex product on the complex
        fallback) against the kept modes.
        """
        x = np.exp(-1j * self.theta * np.arange(self.dim)) * a0
        if np.iscomplexobj(self.modes):
            weights = self.modes.conj().T @ x
        else:
            weights = self.modes.T @ x.real + 1j * (self.modes.T @ x.imag)
        kept = _kept_modes(weights)
        modes = self.modes[:, kept]
        table = _phase_table(self.energies[kept], weights[kept], cfg)
        if np.iscomplexobj(modes):
            amplitudes = table @ modes.T
            p = amplitudes.real * amplitudes.real
            p += amplitudes.imag * amplitudes.imag
        else:
            p = table.real @ modes.T
            p *= p
            im = table.imag @ modes.T
            im *= im
            p += im
        p.setflags(write=False)
        return p


def decompose(h: LadderHamiltonian) -> Decomposition:
    """Diagonalize h's real form: one numpy.linalg.eigh call."""
    theta, m = _real_form(h)
    energies, modes = np.linalg.eigh(m)
    return Decomposition(h, theta, energies, modes)


def _bessel_terms(x: float, cut: float) -> np.ndarray:
    """(-i)^k J_k(x) for k = 0 up to the last term of magnitude >= cut.

    By Jacobi-Anger, exp(-i x cos t) = sum_k (-i)^k J_k(x) exp(i k t), so
    the terms are the FFT of exp(-i x cos t) on m points, aliased by
    J_(m-k)(x).  J_(x+a)(x) falls off on the scale x^(1/3), so m/2 beyond
    x + 12 x^(1/3) + 64 keeps that aliasing far below double roundoff.
    """
    m = 2 ** math.ceil(math.log2(2.0 * x + 24.0 * np.cbrt(x) + 128.0))
    c = np.fft.fft(np.exp(-1j * x * np.cos(2.0 * np.pi / m * np.arange(m))))
    c = c[: m // 2] / m
    return c[: np.nonzero(np.abs(c) >= cut)[0][-1] + 1]


def _evolve_banded(
    h: LadderHamiltonian, a0: np.ndarray, times: np.ndarray,
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, int]:
    """Chebyshev series on the bands, one per sample span, on the centred
    Gershgorin interval.

    Returns (amplitude history, series terms summed over the spans).
    """
    spans = np.diff(times)
    lo, hi = h.spectral_interval()
    centre, half_width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    cut = tolerance / len(spans)
    dim = h.dim
    # Row j of the stack multiplies a[n + j - 2], so the five rows of
    # 2 X, X = (H - centre) / half_width, act on the five windows of a
    # zero-padded copy of a, and X a is half their column sum.
    stack = np.zeros((5, dim), dtype=complex)
    stack[0, 2:] = np.conj(h.hop_2)
    stack[1, 1:] = np.conj(h.hop_1)
    stack[2] = h.diagonal - centre
    stack[3, :-1] = h.hop_1
    stack[4, :-2] = h.hop_2
    if half_width > 0:
        stack *= 2.0 / half_width
    pads = np.zeros((3, dim + 4), dtype=complex)
    windows = [sliding_window_view(p, dim) for p in pads]
    vectors = [p[2:-2] for p in pads]
    products = np.empty((5, dim), dtype=complex)
    history = np.empty((len(times), dim), dtype=complex)
    history[0] = a0
    total = 0
    for i, span in enumerate(spans, 1):
        c = _bessel_terms(half_width * span / HBAR, cut)
        total += len(c)
        out = history[i]
        np.multiply(c[0], history[i - 1], out=out)
        if len(c) > 1:
            # T_(k+1)(X) a = 2 X T_k(X) a - T_(k-1)(X) a
            prev, cur, nxt = 0, 1, 2
            vectors[prev][:] = history[i - 1]
            np.multiply(stack, windows[prev], out=products)
            np.add.reduce(products, axis=0, out=vectors[cur])
            out += c[1] * vectors[cur]
            vectors[cur] *= 0.5
            for ck in 2.0 * c[2:]:
                np.multiply(stack, windows[cur], out=products)
                np.add.reduce(products, axis=0, out=vectors[nxt])
                vectors[nxt] -= vectors[prev]
                out += ck * vectors[nxt]
                prev, cur, nxt = cur, nxt, prev
        out *= np.exp(-1j * centre * span / HBAR)
    return history, total


def propagate(
    dec: Decomposition,
    s0: LadderState,
    cfg: PropagationConfig,
    metadata: dict | None = None,
) -> Spectrogram:
    """Evolve s0 under dec's Hamiltonian and sample populations on a grid.

    The grid starts at the state's own time, steps by sample_interval, and
    always includes the final time.  Raises IntegrationError when the norm
    drifts beyond cfg.norm_drift_limit.
    """
    if s0.amplitudes.shape[0] != dec.dim:
        raise ValidationError(
            f"state dimension {s0.amplitudes.shape[0]} does not match "
            f"Hamiltonian dimension {dec.dim}"
        )
    times = _sample_times(s0.time, cfg)
    populations = dec.populations(s0.amplitudes, cfg)
    drift = np.abs(populations.sum(axis=1) - 1.0)
    worst = float(drift.max())
    if not (worst <= cfg.norm_drift_limit):
        raise IntegrationError(
            f"norm drift {worst:.3e} exceeds the limit {cfg.norm_drift_limit:.1e}"
        )

    meta = {
        "n_max": dec.n_max,
        "t_end": cfg.t_end,
        "sample_interval": cfg.sample_interval,
        "norm_drift_limit": cfg.norm_drift_limit,
        "max_norm_drift": worst,
        "method": "dense",
    }
    if metadata:
        meta.update(metadata)
    return Spectrogram(
        times=times,
        populations=populations,
        norm_drift_series=drift,
        n_max=dec.n_max,
        metadata=meta,
    )


def dense_oracle_compare(dec: Decomposition, s0: LadderState, t: float) -> float:
    """Max-abs population discrepancy at time t between the
    Chebyshev-series oracle on dec.h and the eigendecomposition dec.

    The oracle sums one series over the span t on the centred Gershgorin
    interval of dec.h's bands, cut at 1e-9; it reads only the bands, not
    dec's modes or energies.  The series takes a bit more than
    (hi - lo) t / (2 hbar) terms, each linear in the dimension.
    """
    if t <= 0:
        raise ValidationError("comparison time must be positive")
    cfg = PropagationConfig(t_end=t, sample_interval=t)
    times = _sample_times(s0.time, cfg)
    banded, _ = _evolve_banded(dec.h, s0.amplitudes, times)
    p_banded = np.abs(banded[-1]) ** 2
    p_dense = dec.populations(s0.amplitudes, cfg)[-1]
    return float(np.abs(p_banded - p_dense).max())


@dataclass(frozen=True)
class MomentSeries:
    """First and second moments of the sideband distribution over time."""

    times: np.ndarray
    centroid: np.ndarray
    variance: np.ndarray
    n_low: np.ndarray
    n_high: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.times, self.centroid, self.variance, self.n_low, self.n_high):
            a.setflags(write=False)


def centroid_and_spread(spec: Spectrogram) -> MomentSeries:
    """Per-sample centroid <n>, variance <n^2>-<n>^2, and the extreme
    sideband indices whose population reaches POPULATION_THRESHOLD (falling
    back to the argmax when nothing does)."""
    index = spec.sideband_indices
    n = index.astype(float)
    p = spec.populations
    centroid = p @ n
    variance = p @ n**2 - centroid**2
    above = p >= POPULATION_THRESHOLD
    hit = above.any(axis=1)
    peak = np.argmax(p, axis=1)
    first = np.where(hit, np.argmax(above, axis=1), peak)
    last = np.where(hit, p.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1), peak)
    return MomentSeries(
        times=spec.times.copy(),
        centroid=centroid,
        variance=variance,
        n_low=index[first],
        n_high=index[last],
    )
