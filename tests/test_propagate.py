"""Sampling grids, the eigensolve and its Chebyshev-series oracle, the
real gauge of the eigensolve, the Decomposition value, its mode pruning,
and moment extraction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eladder import (
    IntegrationError,
    ModelVariant,
    ValidationError,
    build_hamiltonian,
    coupling_set,
    electron_from_energy,
    initial_plane_wave,
    matched_field,
)
from eladder.constants import HBAR
from eladder.ladder import LadderHamiltonian, LadderState, initial_gaussian
from eladder.propagate import (
    PRUNE_BOUND,
    MomentSeries,
    PropagationConfig,
    Spectrogram,
    _bessel_terms,
    _evolve_banded,
    _kept_modes,
    _phase_table,
    _real_form,
    _sample_grid,
    _sample_times,
    centroid_and_spread,
    decompose,
    dense_oracle_compare,
    propagate,
)
from eladder.figures import (
    BRAGG_ENERGY_EV,
    BRAGG_FIELD_V_NM,
    BRAGG_PHOTON_EV,
    _trap_scenario,
)
from eladder.scenario import (
    InitialSpec,
    Scenario,
    decompose_scenario,
    run_scenario,
)

from conftest import trap_scenario


@pytest.fixture(scope="module")
def small_h(trap_electron, trap_field):
    return build_hamiltonian(trap_electron, trap_field, ModelVariant.full(), 8)


@pytest.fixture(scope="module")
def small_dec(small_h):
    return decompose(small_h)


@pytest.fixture(scope="module")
def small_state():
    return initial_plane_wave(8)


def eigensolve(h, s0, cfg):
    """propagate on a fresh decomposition of h."""
    return propagate(decompose(h), s0, cfg)


def chebyshev(h, s0, cfg):
    """The Chebyshev-series oracle on propagate's sample grid, as a
    Spectrogram; it checks no drift limit."""
    times = _sample_times(s0.time, cfg)
    amplitudes, _ = _evolve_banded(h, s0.amplitudes, times)
    populations = np.abs(amplitudes) ** 2
    return Spectrogram(times, populations,
                       np.abs(populations.sum(axis=1) - 1.0), h.n_max)


def null_hamiltonian(n_max):
    """All bands zero: evolution is the identity, any dimension is cheap."""
    e = electron_from_energy(100.0)
    f = matched_field(e, 0.0, photon_energy=1.54)
    variant = ModelVariant.simplified(detuning_override=0.0, quadratic_scale=0.0)
    return build_hamiltonian(e, f, variant, n_max)


class TestSampleGrid:
    def test_divisible_span_has_no_extra_point(self, small_dec, small_state):
        cfg = PropagationConfig(t_end=6.0, sample_interval=0.5)
        spec = propagate(small_dec, small_state, cfg)
        assert len(spec.times) == 13
        assert spec.times[0] == 0.0
        assert spec.times[-1] == 6.0
        assert np.allclose(np.diff(spec.times), 0.5, atol=1e-12)

    def test_remainder_appends_exact_final_time(self, small_dec, small_state):
        cfg = PropagationConfig(t_end=1.0, sample_interval=0.3)
        spec = propagate(small_dec, small_state, cfg)
        assert np.allclose(spec.times[:4], [0.0, 0.3, 0.6, 0.9])
        assert spec.times[-1] == 1.0

    def test_grid_starts_at_state_time(self, small_dec, small_state):
        shifted = LadderState(small_state.amplitudes.copy(), 2.5, 8)
        cfg = PropagationConfig(t_end=0.9, sample_interval=0.3)
        spec = propagate(small_dec, shifted, cfg)
        assert spec.times[0] == 2.5
        assert np.isclose(spec.times[-1], 3.4)

    def test_arrays_are_read_only(self, small_dec, small_state):
        cfg = PropagationConfig(t_end=1.0, sample_interval=0.5)
        spec = propagate(small_dec, small_state, cfg)
        with pytest.raises(ValueError):
            spec.times[0] = -1.0
        with pytest.raises(ValueError):
            spec.populations[0, 0] = 2.0


class TestRoutes:
    def test_dense_and_banded_agree_everywhere(self, small_h, small_dec,
                                               small_state):
        cfg = PropagationConfig(t_end=6.0, sample_interval=0.5)
        dense = propagate(small_dec, small_state, cfg)
        banded = chebyshev(small_h, small_state, cfg)
        assert np.abs(dense.populations - banded.populations).max() < 1e-9

    def test_dense_oracle_compare(self, small_dec, small_state):
        assert dense_oracle_compare(small_dec, small_state, 6.0) < 1e-9

    def test_propagate_is_the_eigensolve_at_every_size(self):
        h = null_hamiltonian(513)
        cfg = PropagationConfig(t_end=1.0, sample_interval=0.5)
        spec = propagate(decompose(h), initial_plane_wave(513), cfg)
        assert h.dim == 1027
        assert spec.metadata["method"] == "dense"
        assert spec.metadata["max_norm_drift"] < 1e-12

    def test_oracle_on_a_zero_spectrum(self):
        # one series term per span, and the identity keeps the norm exact
        h = null_hamiltonian(513)
        times = np.array([0.0, 0.5, 1.0])
        amplitudes, terms = _evolve_banded(
            h, initial_plane_wave(513).amplitudes, times)
        drift = np.abs((np.abs(amplitudes) ** 2).sum(axis=1) - 1.0)
        assert terms == len(times) - 1
        assert drift.max() == 0.0

    def test_oracle_rejects_nonpositive_time(self, small_dec, small_state):
        with pytest.raises(ValidationError):
            dense_oracle_compare(small_dec, small_state, 0.0)


class TestBesselTerms:
    @pytest.mark.parametrize("x", [0.3, 10.0, 150.0, 960.0, 4032.0])
    def test_terms_match_scipy_bessel(self, x):
        # 960 and 4032 sit where 2^ceil(log2(2x + 128)) FFT points alias
        # J_(x+64)(x) of 4e-9 and 7e-6 into the terms kept
        from scipy.special import jv
        c = _bessel_terms(x, 1e-12)
        k = np.arange(len(c))
        assert np.abs(c - (-1j) ** k * jv(k, x)).max() < 1e-12
        assert abs(jv(len(c), x)) < 1e-12 <= abs(jv(len(c) - 1, x))


class TestQualityRecord:
    BASE_KEYS = {"n_max", "t_end", "sample_interval", "norm_drift_limit",
                 "max_norm_drift", "method"}

    def test_dense_metadata(self, small_dec, small_state):
        cfg = PropagationConfig(t_end=1.0, sample_interval=0.5)
        spec = propagate(small_dec, small_state, cfg)
        assert set(spec.metadata) == self.BASE_KEYS
        assert spec.metadata["method"] == "dense"
        assert spec.metadata["n_max"] == 8
        assert spec.metadata["t_end"] == 1.0

    def test_oracle_sums_at_least_one_term_per_span(self, small_h,
                                                    small_state):
        times = np.linspace(0.0, 6.0, 13)
        _, terms = _evolve_banded(small_h, small_state.amplitudes, times)
        assert terms >= len(times) - 1

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_looser_tolerance_cuts_the_series_shorter(self, tol):
        h, state, dense = trap_packet(0.3, 0.0, "full", n_max=32, t_end=8.0)
        tight, tight_terms = _evolve_banded(h, state.amplitudes, dense.times)
        loose, loose_terms = _evolve_banded(h, state.amplitudes, dense.times,
                                            tol)
        assert loose_terms < tight_terms
        assert np.abs(np.abs(loose) ** 2 - dense.populations).max() < tol
        assert np.abs(np.abs(tight) ** 2 - dense.populations).max() < 1e-9

    def test_caller_metadata_is_merged(self, small_dec, small_state):
        cfg = PropagationConfig(t_end=1.0, sample_interval=0.5)
        spec = propagate(small_dec, small_state, cfg, metadata={"tag": "x"})
        assert spec.metadata["tag"] == "x"
        assert self.BASE_KEYS <= set(spec.metadata)


class TestGuards:
    @pytest.mark.parametrize("kw", [
        dict(t_end=0.0, sample_interval=0.5),
        dict(t_end=1.0, sample_interval=-0.5),
        dict(t_end=1.0, sample_interval=0.5, norm_drift_limit=-1e-8),
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ValidationError):
            PropagationConfig(**kw)

    def test_state_dimension_must_match(self, small_dec):
        with pytest.raises(ValidationError):
            propagate(small_dec, initial_plane_wave(7),
                      PropagationConfig(t_end=1.0, sample_interval=0.5))

    def test_norm_drift_is_asserted_not_repaired(self, small_dec, small_state):
        # A state norm just inside the construction tolerance still trips a
        # tighter drift limit; nothing renormalizes it away.
        off = small_state.amplitudes * (1.0 + 5e-9)
        state = LadderState(off, 0.0, 8)
        cfg = PropagationConfig(t_end=1.0, sample_interval=0.5,
                                norm_drift_limit=1e-12)
        with pytest.raises(IntegrationError, match="norm drift"):
            propagate(small_dec, state, cfg)


def complex_reference(h, a0, times):
    """Amplitudes from the complex eigendecomposition of the full matrix."""
    energies, modes = np.linalg.eigh(h.to_dense())
    weights = modes.conj().T @ a0
    phases = np.exp(-1j * np.outer(energies, times - times[0]) / HBAR)
    return (modes @ (phases * weights[:, None])).T


def trap_packet(phase, offset, kind, n_max=32, t_end=8.0, evolve=eigensolve):
    e = electron_from_energy(100.0)
    f = matched_field(e, 1.0, 1.54, initial_phase=phase)
    variant = ModelVariant.full() if kind == "full" else ModelVariant.simplified()
    h = build_hamiltonian(e, f, variant, n_max)
    state = initial_gaussian(n_max, 1.5, offset_phase=offset)
    cfg = PropagationConfig(t_end=t_end, sample_interval=t_end / 8)
    return h, state, evolve(h, state, cfg)


PHASES = st.floats(min_value=-math.pi, max_value=math.pi)


class TestRealGauge:
    @given(PHASES, PHASES, st.sampled_from(["full", "simplified"]),
           st.sampled_from([16, 32, 64]))
    @settings(max_examples=20, deadline=None)
    def test_gauged_solve_matches_complex_solve(self, phase, offset, kind, n_max):
        h, state, spec = trap_packet(phase, offset, kind, n_max)
        assert not np.iscomplexobj(_real_form(h)[1])
        ref = np.abs(complex_reference(h, state.amplitudes, spec.times)) ** 2
        assert np.abs(spec.populations - ref).max() < 1e-12

    def test_hop_2_only_bands_are_gauged(self):
        n_max = 12
        dim = 2 * n_max + 1
        h = LadderHamiltonian(n_max, np.linspace(-1.0, 2.0, dim),
                              np.zeros(dim - 1, dtype=complex),
                              np.full(dim - 2, 0.7 * np.exp(0.4j)),
                              ModelVariant.full())
        assert not np.iscomplexobj(_real_form(h)[1])
        # A plane start at n = 0 cannot see theta; a random complex one can.
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a0 /= np.linalg.norm(a0)
        cfg = PropagationConfig(t_end=5.0, sample_interval=1.0)
        ref = np.abs(complex_reference(h, a0, _sample_times(0.0, cfg))) ** 2
        assert np.abs(decompose(h).populations(a0, cfg) - ref).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_generic_complex_bands_keep_the_complex_solve(self, seed):
        rng = np.random.default_rng(seed)
        n_max = int(rng.integers(4, 9))
        dim = 2 * n_max + 1
        h = LadderHamiltonian(
            n_max, rng.normal(0.0, 1.0, dim),
            rng.normal(0.0, 0.5, dim - 1) + 1j * rng.normal(0.0, 0.5, dim - 1),
            rng.normal(0.0, 0.2, dim - 2) + 1j * rng.normal(0.0, 0.2, dim - 2),
            ModelVariant.full())
        theta, m = _real_form(h)
        assert theta == 0.0 and np.array_equal(m, h.to_dense())
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = LadderState(amp / np.linalg.norm(amp), 0.0, n_max)
        cfg = PropagationConfig(t_end=float(rng.uniform(0.3, 1.0)),
                                sample_interval=0.25)
        dense = eigensolve(h, state, cfg)
        banded = chebyshev(h, state, cfg)
        assert np.abs(dense.populations - banded.populations).max() < 1e-9


class TestDecomposition:
    """Callers hold the eigendecomposition, so each ladder is solved once."""

    def test_accepted_truncation_lattice_is_solved_once(self, eigh_calls):
        readme = trap_scenario(InitialSpec(), None, 60.0, 0.05)
        run_scenario(readme)
        assert eigh_calls == [129]

        eigh_calls.clear()
        wide = Scenario(kinetic_energy=200.0, amplitude=4.0, photon_energy=0.8,
                        propagation=PropagationConfig(t_end=60.0,
                                                      sample_interval=0.5))
        run_scenario(wide)
        assert eigh_calls == [129, 257, 513, 1025]

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_a_reused_decomposition_matches_a_fresh_one(self, seed, gauged):
        rng = np.random.default_rng(seed)
        h = trap_like_bands(rng, gauged)
        held = decompose(h)
        t_end = float(rng.uniform(0.1, 20.0))
        cfg = PropagationConfig(t_end=t_end, sample_interval=t_end / 8)
        for kind in ("plane", "packet", "complex", "plane", "packet"):
            a0 = random_start(rng, kind, h.n_max).amplitudes
            assert np.array_equal(held.populations(a0, cfg),
                                  decompose(h).populations(a0, cfg))

    def test_arrays_are_read_only(self, small_dec):
        for a in (small_dec.energies, small_dec.modes):
            with pytest.raises(ValueError):
                a[0] = 0.0


def full_mode_reference(dec, a0, cfg):
    """Populations rebuilt from every mode of the route's own
    eigendecomposition, on the route's own phase table."""
    table = _phase_table(dec.energies, start_weights(dec, a0), cfg)
    return np.abs(table @ dec.modes.T) ** 2


def start_weights(dec, a0):
    d = np.exp(1j * dec.theta * np.arange(dec.dim))
    return dec.modes.conj().T @ (d.conj() * a0)


def trap_like_bands(rng, gauged):
    """A random pentadiagonal ladder with a quadratic on-site term, so that
    its modes are localized and a narrow start leaves most of them idle."""
    n_max = int(rng.integers(8, 65))
    dim = 2 * n_max + 1
    n = np.arange(-n_max, n_max + 1)
    diagonal = rng.uniform(0.02, 0.5) * n**2 + rng.uniform(-0.5, 0.5) * n
    hop_1 = rng.choice([-1.0, 1.0], dim - 1) * rng.uniform(0.2, 1.0, dim - 1)
    hop_2 = rng.choice([-1.0, 1.0], dim - 2) * rng.uniform(0.0, 0.1, dim - 2)
    return phased_ladder(rng, gauged, diagonal, hop_1, hop_2)


def phased_ladder(rng, gauged, diagonal, hop_1, hop_2):
    """The ladder with random hop phases: gauged bands share one phase per
    hop order; the others are generic."""
    if gauged:
        phi = rng.uniform(-math.pi, math.pi)
        hop_1 = hop_1 * np.exp(1j * phi)
        hop_2 = hop_2 * np.exp(2j * phi)
    else:
        hop_1 = hop_1 * np.exp(1j * rng.uniform(-math.pi, math.pi, len(hop_1)))
        hop_2 = hop_2 * np.exp(1j * rng.uniform(-math.pi, math.pi, len(hop_2)))
    return LadderHamiltonian(len(diagonal) // 2, diagonal, hop_1, hop_2,
                             ModelVariant.full())


def random_start(rng, kind, n_max):
    dim = 2 * n_max + 1
    if kind == "complex":
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return LadderState(amp / np.linalg.norm(amp), 0.0, n_max)
    reach = (n_max - 6) // 2
    center = int(rng.integers(-reach, reach + 1))
    if kind == "plane":
        return initial_plane_wave(n_max, center)
    widest = (n_max - abs(center)) / 16.0
    return initial_gaussian(n_max, rng.uniform(0.5, max(0.6, widest)),
                            center=center, chirp=rng.uniform(-1.0, 1.0),
                            offset_phase=rng.uniform(-math.pi, math.pi))


class TestModePruning:
    """The dense route drops the smallest-weight modes whose weights sum to
    at most PRUNE_BOUND.  Since |v_k(n)| <= 1, no amplitude moves by more
    than the bound, and no population by more than 2 bound + bound^2."""

    POPULATION_BOUND = 2.0 * PRUNE_BOUND + PRUNE_BOUND**2

    def test_dropped_weight_stays_at_or_under_the_bound(self):
        weights = np.array([1.0, 6e-15, 3e-15, 0.5j, 4e-15, 2e-16])
        assert _kept_modes(weights).tolist() == [True, True, False, True,
                                                 False, False]
        assert _kept_modes(np.full(4, 1e-16)).sum() == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
           st.sampled_from(["plane", "packet", "complex"]))
    @settings(max_examples=40, deadline=None)
    def test_pruned_populations_match_every_mode(self, seed, gauged, kind):
        rng = np.random.default_rng(seed)
        h = trap_like_bands(rng, gauged)
        assert np.iscomplexobj(_real_form(h)[1]) is not gauged
        state = random_start(rng, kind, h.n_max)
        t_end = float(rng.uniform(0.1, 20.0))
        cfg = PropagationConfig(t_end=t_end, sample_interval=t_end / 8)
        dec = decompose(h)
        spec = propagate(dec, state, cfg)
        ref = full_mode_reference(dec, state.amplitudes, cfg)
        assert np.abs(spec.populations - ref).max() <= self.POPULATION_BOUND
        assert spec.norm_drift_series.max() <= cfg.norm_drift_limit

    def test_nothing_is_pruned_when_every_mode_carries_weight(self):
        rng = np.random.default_rng(3)
        dec = decompose(trap_like_bands(rng, gauged=False))
        a0 = dec.modes @ np.exp(1j * rng.uniform(-math.pi, math.pi, dec.dim))
        a0 /= np.linalg.norm(a0)
        assert _kept_modes(start_weights(dec, a0)).all()
        cfg = PropagationConfig(t_end=4.0, sample_interval=0.5)
        ref = full_mode_reference(dec, a0, cfg)
        assert np.abs(dec.populations(a0, cfg) - ref).max() <= \
            self.POPULATION_BOUND

    def test_readme_ladder_keeps_64_of_129_modes(self, trap_electron,
                                                 trap_field):
        h = build_hamiltonian(trap_electron, trap_field, ModelVariant.full(), 64)
        a0 = initial_plane_wave(64).amplitudes
        assert _kept_modes(start_weights(decompose(h), a0)).sum() == 64


def one_exponential_per_entry(dec, a0, cfg):
    """Populations with one exponential per phase-table entry, at the grid
    offsets j dt and, off the grid, t_end."""
    weights = start_weights(dec, a0)
    kept = _kept_modes(weights)
    offsets = _sample_times(0.0, cfg)
    phases = np.exp(-1j * np.outer(dec.energies[kept], offsets) / HBAR)
    return np.abs(dec.modes[:, kept] @ (phases * weights[kept, None])).T ** 2


def longdouble_reference(dec, a0, cfg):
    """Populations from phases taken in np.longdouble and rounded once."""
    weights = start_weights(dec, a0)
    kept = _kept_modes(weights)
    n, off_grid = _sample_grid(cfg)
    dt = np.longdouble(cfg.sample_interval)
    offsets = np.arange(n, dtype=np.longdouble) * dt
    if off_grid:
        offsets = np.append(offsets, np.longdouble(cfg.t_end))
    angle = np.outer(offsets, dec.energies[kept].astype(np.longdouble))
    angle /= np.longdouble(HBAR)
    table = (np.cos(angle) - 1j * np.sin(angle)).astype(complex) * weights[kept]
    return np.abs(table @ dec.modes[:, kept].T) ** 2


def moderate_bands(rng, gauged):
    """Random pentadiagonal bands of a few eV, so that one exponential per
    entry stays a reference to well below 1e-12 over 30 fs."""
    n_max = int(rng.integers(8, 25))
    dim = 2 * n_max + 1
    n = np.arange(-n_max, n_max + 1)
    diagonal = rng.uniform(-3.0, 3.0, dim) + 0.01 * n**2
    return phased_ladder(rng, gauged, diagonal, rng.uniform(0.2, 1.0, dim - 1),
                         rng.uniform(0.0, 0.2, dim - 2))


PRIMES = [p for p in range(2, 3002)
          if all(p % q for q in range(2, math.isqrt(p) + 1))]
# On-grid sample counts n around the block size b = ceil(sqrt(n)).
ON_GRID_COUNTS = st.one_of(
    st.just(2),
    st.integers(1, 54).map(lambda r: r * r),
    st.tuples(st.integers(2, 54), st.sampled_from([-1, 1])).map(
        lambda s: s[0] ** 2 + s[1]),
    st.sampled_from(PRIMES),
)


class TestPhaseTable:
    """The phase table is built from block and offset factors, with about
    2 sqrt(T) k exponentials for k kept modes."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), ON_GRID_COUNTS,
           st.booleans(), st.booleans(),
           st.sampled_from(["plane", "packet", "complex"]),
           st.sampled_from([0.0, 2.5, 1234.5678]))
    @settings(max_examples=40, deadline=None)
    def test_awkward_grids_match_one_exponential_per_entry(
            self, seed, n, off_grid, gauged, kind, t0):
        rng = np.random.default_rng(seed)
        h = moderate_bands(rng, gauged)
        assert np.iscomplexobj(_real_form(h)[1]) is not gauged
        off_grid = off_grid or n == 1
        dt = float(rng.uniform(1.0, 30.0)) / max(n - 1, 1)
        t_end = (n - 1 + float(rng.uniform(0.1, 0.9)) * off_grid) * dt
        cfg = PropagationConfig(t_end=t_end, sample_interval=dt)
        assert _sample_grid(cfg) == (n, off_grid)
        a0 = random_start(rng, kind, h.n_max).amplitudes
        dec = decompose(h)

        sizes = []
        exp = np.exp

        def counted_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "exp", counted_exp)
            p = dec.populations(a0, cfg)
        rows = n + off_grid
        assert p.shape == (rows, dec.dim)
        assert p.flags.c_contiguous and not p.flags.writeable
        assert np.abs(p - one_exponential_per_entry(dec, a0, cfg)).max() < 1e-12

        k = int(_kept_modes(start_weights(dec, a0)).sum())
        assert max(sizes) <= max(dec.dim, k * (math.isqrt(rows) + 2))
        assert sum(sizes) <= k * (2.0 * math.sqrt(rows) + 3.0) + dec.dim

        spec = propagate(dec, LadderState(a0, t0, h.n_max), cfg)
        assert spec.times[0] == t0 and len(spec.times) == rows
        assert np.array_equal(spec.populations, p)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is no wider than float64 here")
class TestPhaseAccuracy:
    """The largest phases of the presets: fig2b's 3500 fs Bragg run and
    fig1d's 3001 samples, against phases taken in extended precision."""

    @pytest.mark.parametrize("sc, samples", [
        pytest.param(Scenario(
            kinetic_energy=BRAGG_ENERGY_EV, amplitude=BRAGG_FIELD_V_NM,
            photon_energy=BRAGG_PHOTON_EV, initial=InitialSpec(center=1),
            propagation=PropagationConfig(t_end=3500.0, sample_interval=2.0),
            n_max=12), 1751, id="fig2b"),
        pytest.param(_trap_scenario(InitialSpec(), n_max=128, t_end=60.0,
                                    sample=0.02), 3001, id="fig1d"),
    ])
    def test_within_1e_12_of_longdouble_phases(self, sc, samples):
        dec = decompose_scenario(sc)
        a0 = sc.initial.build(dec.n_max, sc.photon_energy).amplitudes
        p = dec.populations(a0, sc.propagation)
        assert len(p) == samples
        ref = longdouble_reference(dec, a0, sc.propagation)
        assert np.abs(p - ref).max() < 1e-12


ROUTES = [pytest.param(eigensolve, id="dense"),
          pytest.param(chebyshev, id="banded")]


class TestRouteProperties:
    """Closed-form limits that the eigensolve and its oracle must both
    meet, at dim <= 129."""

    @pytest.mark.parametrize("evolve", ROUTES)
    @given(st.floats(min_value=0.05, max_value=5.0), PHASES,
           st.floats(min_value=0.1, max_value=24.0))
    @settings(max_examples=20, deadline=None)
    def test_hopping_only_ladder_is_a_bessel_comb(self, evolve, amplitude,
                                                  phase, x):
        """P_n(t) = J_n(2 |kappa| t / hbar)^2; x is the final argument,
        and J_64(24) keeps the lattice edge out of reach."""
        from scipy.special import jv
        e = electron_from_energy(100.0)
        f = matched_field(e, amplitude, 1.54, initial_phase=phase)
        kappa = coupling_set(e, f).kappa_mag
        flat = ModelVariant.simplified(detuning_override=0.0, quadratic_scale=0.0)
        h = build_hamiltonian(e, f, flat, 64)
        t = x * HBAR / (2.0 * kappa)
        spec = evolve(h, initial_plane_wave(64), PropagationConfig(
            t_end=t, sample_interval=t / 4))
        n = spec.sideband_indices
        ref = jv(n, 2.0 * kappa * (spec.times[:, None] - spec.times[0]) / HBAR) ** 2
        assert np.abs(spec.populations - ref).max() < 1e-9

    @pytest.mark.parametrize("evolve", ROUTES)
    @given(st.floats(min_value=20.0, max_value=200.0),
           st.floats(min_value=0.1, max_value=3.0), PHASES,
           st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=20, deadline=None)
    def test_simplified_model_is_mirror_symmetric(self, evolve, energy,
                                                  amplitude, phase, t_end):
        """At zero detuning the on-site term beta n^2 and a plane start at
        n = 0 are even in n, so P_n(t) = P_-n(t) on the symmetric lattice."""
        e = electron_from_energy(energy)
        f = matched_field(e, amplitude, 1.54, initial_phase=phase)
        h = build_hamiltonian(e, f, ModelVariant.simplified(detuning_override=0.0), 64)
        spec = evolve(h, initial_plane_wave(64), PropagationConfig(
            t_end=t_end, sample_interval=t_end / 4))
        p = spec.populations
        assert np.abs(p - p[:, ::-1]).max() < 1e-10

    @pytest.mark.parametrize("evolve", ROUTES)
    @given(PHASES, PHASES, PHASES, st.sampled_from(["full", "simplified"]))
    @settings(max_examples=15, deadline=None)
    def test_field_phase_is_a_gauge(self, evolve, phase, offset, alpha, kind):
        """H(phi0 + alpha) = G^dagger H(phi0) G with G = diag(exp(i n alpha)),
        so shifting the packet's linear phase by -alpha undoes the shift."""
        _, _, base = trap_packet(phase, offset, kind, t_end=20.0, evolve=evolve)
        _, _, moved = trap_packet(phase + alpha, offset - alpha, kind,
                                  t_end=20.0, evolve=evolve)
        assert np.abs(base.populations - moved.populations).max() < 1e-10

    @pytest.mark.parametrize("evolve", ROUTES)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_norm_stays_within_the_limit(self, evolve, seed):
        """Random pentadiagonal bands of trap-like size (eV), a random
        normalised start and a random span of up to 20 fs."""
        rng = np.random.default_rng(seed)
        n_max = int(rng.integers(4, 65))
        dim = 2 * n_max + 1
        h = LadderHamiltonian(
            n_max, rng.uniform(-3.0, 3.0, dim),
            rng.normal(0.0, 1.0, dim - 1) + 1j * rng.normal(0.0, 1.0, dim - 1),
            rng.normal(0.0, 0.1, dim - 2) + 1j * rng.normal(0.0, 0.1, dim - 2),
            ModelVariant.full())
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = LadderState(amp / np.linalg.norm(amp), 0.0, n_max)
        t_end = float(rng.uniform(0.1, 20.0))
        cfg = PropagationConfig(t_end=t_end, sample_interval=t_end / 4)
        spec = evolve(h, state, cfg)
        drift = np.abs(spec.populations.sum(axis=1) - 1.0)
        assert drift.max() <= cfg.norm_drift_limit
        assert np.array_equal(drift, spec.norm_drift_series)


def handmade_spectrogram():
    times = np.array([0.0, 1.0, 2.0])
    pops = np.array([
        [0.0, 0.25, 0.5, 0.25, 0.0],
        [0.0, 0.0, 1e-4, 0.9999, 0.0],
        [1e-4, 6e-4, 2e-4, 1e-4, 0.0],   # everything below threshold
    ])
    drift = np.abs(pops.sum(axis=1) - 1.0)
    return Spectrogram(times=times, populations=pops,
                       norm_drift_series=drift, n_max=2)


class TestMoments:
    def test_centroid_variance_and_edges(self):
        spec = handmade_spectrogram()
        m = centroid_and_spread(spec, threshold=1e-3)
        n = np.arange(-2, 3, dtype=float)
        for i in range(3):
            assert np.isclose(m.centroid[i], spec.populations[i] @ n, rtol=1e-12)
            expected_var = spec.populations[i] @ n**2 - (spec.populations[i] @ n) ** 2
            assert np.isclose(m.variance[i], expected_var, rtol=1e-12)
        assert (m.n_low[0], m.n_high[0]) == (-1, 1)
        assert (m.n_low[1], m.n_high[1]) == (1, 1)

    def test_edge_fallback_uses_argmax(self):
        m = centroid_and_spread(handmade_spectrogram(), threshold=1e-3)
        assert m.n_low[2] == m.n_high[2] == -1

    def test_moment_arrays_read_only(self):
        m = centroid_and_spread(handmade_spectrogram())
        with pytest.raises(ValueError):
            m.centroid[0] = 9.0
        assert isinstance(m, MomentSeries)

    def test_sideband_indices(self):
        spec = handmade_spectrogram()
        assert np.array_equal(spec.sideband_indices, [-2, -1, 0, 1, 2])
