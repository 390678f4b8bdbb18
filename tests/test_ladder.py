"""Hamiltonian assembly, initial states, and the truncation search."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eladder import (
    ModelVariant,
    ResourceLimitError,
    TruncationError,
    ValidationError,
    adaptive_truncation,
    build_hamiltonian,
    coupling_set,
    electron_from_energy,
    initial_gaussian,
    initial_plane_wave,
    matched_field,
)
from eladder.constants import ELECTRON_MASS, HBAR
from eladder.ladder import (
    LadderHamiltonian,
    LadderState,
    sigma_from_energy_width,
)


def reference_dense(e, f, variant, n_max):
    """Dense matrix rebuilt from the model definition, written naively."""
    cs = coupling_set(e, f)
    dim = 2 * n_max + 1
    h = np.zeros((dim, dim), dtype=complex)
    detuning = (variant.detuning_override if variant.detuning_override
                is not None else cs.detuning)
    k0 = e.momentum / HBAR
    for i in range(dim):
        n = i - n_max
        if variant.kind == "simplified":
            h[i, i] = -n * detuning + variant.quadratic_scale * cs.beta * n * n
        else:
            g3 = e.lorentz_factor**3 if variant.include_gamma_cubed else 1.0
            curv = (HBAR * f.wavevector) ** 2 / (2.0 * g3 * ELECTRON_MASS)
            h[i, i] = -n * detuning + variant.quadratic_scale * curv * n * n
            if variant.include_ponderomotive:
                h[i, i] -= cs.ponderomotive
    up = np.exp(1j * (f.initial_phase + math.pi / 2.0))
    for i in range(dim - 1):
        n = i - n_max
        if variant.kind == "simplified" or not variant.include_recoil_asymmetry:
            k_eff = k0
        else:
            k_eff = k0 + (n + 0.5) * f.wavevector
        h[i, i + 1] = cs.delta * k_eff * up
        h[i + 1, i] = np.conj(h[i, i + 1])
    if variant.kind == "full" and variant.include_ponderomotive:
        g = -(cs.ponderomotive / 2.0) * np.exp(2j * f.initial_phase)
        for i in range(dim - 2):
            h[i, i + 2] = g
            h[i + 2, i] = np.conj(g)
    return h


class TestBuild:
    @pytest.mark.parametrize("variant", [
        ModelVariant.full(),
        ModelVariant.simplified(),
        ModelVariant.full(include_gamma_cubed=False),
        ModelVariant.full(include_ponderomotive=False),
        ModelVariant.full(include_recoil_asymmetry=False),
        ModelVariant.full(quadratic_scale=0.0),
        ModelVariant.simplified(detuning_override=0.25),
    ])
    def test_matches_naive_dense_assembly(self, trap_electron, trap_field,
                                          variant):
        h = build_hamiltonian(trap_electron, trap_field, variant, 6)
        ref = reference_dense(trap_electron, trap_field, variant, 6)
        assert np.abs(h.to_dense() - ref).max() < 1e-15

    def test_hermitian_by_construction(self, trap_electron, trap_field):
        h = build_hamiltonian(trap_electron, trap_field,
                              ModelVariant.full(), 8).to_dense()
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_hop_asymmetry_direction(self, trap_electron, trap_field):
        # the upward hop out of n = 0 is slightly stronger than the
        # downward one, and the ratio is pinned
        h = build_hamiltonian(trap_electron, trap_field,
                              ModelVariant.full(), 8)
        ratio = abs(h.hop_1[8]) / abs(h.hop_1[7])
        assert ratio > 1.0
        assert ratio == pytest.approx(1.007730518761629, rel=1e-12)

    def test_simplified_hop_is_uniform(self, trap_electron, trap_field,
                                       trap_couplings):
        h = build_hamiltonian(trap_electron, trap_field,
                              ModelVariant.simplified(), 8)
        assert np.allclose(np.abs(h.hop_1), trap_couplings.kappa_mag,
                           rtol=1e-15)
        assert np.abs(h.hop_2).max() == 0.0

    def test_simplified_honours_gamma_cubed(self, trap_electron, trap_field,
                                            trap_couplings):
        h = build_hamiltonian(
            trap_electron, trap_field,
            ModelVariant.simplified(detuning_override=0.3,
                                    include_gamma_cubed=True), 8)
        n = np.arange(-8, 9)
        g3 = trap_electron.lorentz_factor**3
        expected = -n * 0.3 + trap_couplings.beta * n**2 / g3
        assert g3 > 1.0 + 1e-4
        assert np.allclose(h.diagonal, expected, rtol=1e-14, atol=0.0)

    def test_quadratic_scale_zero_leaves_linear_diagonal(self, trap_electron,
                                                         trap_field):
        h = build_hamiltonian(trap_electron, trap_field,
                              ModelVariant.full(quadratic_scale=0.0), 8)
        steps = np.diff(h.diagonal)
        assert np.allclose(steps, steps[0], atol=1e-14)

    def test_detuning_override_sets_slope(self, trap_electron, trap_field):
        h = build_hamiltonian(
            trap_electron, trap_field,
            ModelVariant.simplified(detuning_override=0.3,
                                    quadratic_scale=0.0), 4)
        assert np.allclose(np.diff(h.diagonal), -0.3, atol=1e-14)

    def test_rejects_tiny_lattice(self, trap_electron, trap_field):
        with pytest.raises(ValidationError):
            build_hamiltonian(trap_electron, trap_field,
                              ModelVariant.full(), 0)

    def test_simplified_excludes_full_terms(self):
        with pytest.raises(ValidationError):
            ModelVariant(kind="simplified", include_ponderomotive=True,
                         include_recoil_asymmetry=False)
        with pytest.raises(ValidationError):
            ModelVariant(kind="nonsense")

    @given(st.floats(min_value=10.0, max_value=1000.0),
           st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=0.5, max_value=6.0),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=30, deadline=None)
    def test_hermiticity_over_parameters(self, energy, amp, photon, phase):
        e = electron_from_energy(energy)
        f = matched_field(e, amp, photon, initial_phase=phase)
        h = build_hamiltonian(e, f, ModelVariant.full(), 5).to_dense()
        assert np.abs(h - h.conj().T).max() == 0.0


class TestOperator:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spectral_interval_contains_the_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        n_max = int(rng.integers(1, 33))
        dim = 2 * n_max + 1
        # each band zero or of its own scale; the offset makes the
        # spectrum one-sided
        s0, s1, s2 = rng.choice([0.0, 1.0], 3) * 10.0 ** rng.uniform(-3, 2, 3)
        diagonal = rng.uniform(-1e3, 1e3) + s0 * rng.normal(size=dim)
        hop_1 = s1 * (rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1))
        hop_2 = s2 * (rng.normal(size=dim - 2) + 1j * rng.normal(size=dim - 2))
        h = LadderHamiltonian(n_max, diagonal, hop_1, hop_2,
                              ModelVariant.full())
        energies = np.linalg.eigvalsh(h.to_dense())
        lo, hi = h.spectral_interval()
        slack = 1e-12 * max(abs(lo), abs(hi))
        assert lo - slack <= energies[0]
        assert energies[-1] <= hi + slack

    def test_band_shapes_validated(self):
        with pytest.raises(ValidationError):
            LadderHamiltonian(2, np.zeros(5), np.zeros(5, complex),
                              np.zeros(3, complex), ModelVariant.full())


class TestStates:
    def test_plane_wave_is_one_hot(self):
        s = initial_plane_wave(6, center=2)
        p = s.populations()
        assert p[8] == 1.0
        assert p.sum() == 1.0
        with pytest.raises(TruncationError):
            initial_plane_wave(4, center=5)

    def test_gaussian_normalized_and_centered(self):
        s = initial_gaussian(48, width_sidebands=3.0, center=4)
        p = s.populations()
        n = np.arange(-48, 49)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(p @ n) == pytest.approx(4.0, abs=1e-9)
        sig = math.sqrt(float(p @ (n - 4.0) ** 2))
        assert sig == pytest.approx(3.0, rel=1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["width_sidebands", "chirp",
                                      "offset_phase"])
    def test_gaussian_rejects_non_finite_parameters(self, name, value):
        kwargs = {"width_sidebands": 3.0, name: value}
        with pytest.raises(ValidationError, match="finite"):
            initial_gaussian(48, **kwargs)

    def test_gaussian_needs_room(self):
        with pytest.raises(TruncationError):
            initial_gaussian(4, width_sidebands=6.0)

    def test_width_conventions(self):
        # fwhm of |a|^2 in energy = 2 sqrt(2 ln 2) sigma_E
        sig = sigma_from_energy_width(7.5, 1.54, convention="fwhm")
        assert sig == pytest.approx(
            7.5 / (2.0 * math.sqrt(2.0 * math.log(2.0))) / 1.54, rel=1e-12)
        rms = sigma_from_energy_width(7.5, 1.54, convention="rms")
        assert rms == pytest.approx(7.5 / 1.54, rel=1e-12)
        with pytest.raises(ValidationError):
            sigma_from_energy_width(7.5, 1.54, convention="sigma")

    def test_norm_is_enforced(self):
        bad = np.zeros(5, dtype=complex)
        bad[2] = 1.1
        with pytest.raises(ValidationError):
            LadderState(bad, 0.0, 2)

    def test_nan_amplitude_is_rejected(self):
        bad = np.zeros(5, dtype=complex)
        bad[2] = complex("nan")
        with pytest.raises(ValidationError, match="norm nan"):
            LadderState(bad, 0.0, 2)


class TestTruncation:
    def test_trap_drive_auto_size(self, trap_electron, trap_field):
        n = adaptive_truncation(trap_electron, trap_field,
                                ModelVariant.full(), initial_plane_wave(1),
                                60.0).n_max
        assert n == 64

    def test_tail_guard_holds_at_returned_size(self, trap_electron,
                                               trap_field):
        from eladder.propagate import PropagationConfig, decompose, propagate

        n = adaptive_truncation(trap_electron, trap_field,
                                ModelVariant.full(), initial_plane_wave(1),
                                20.0).n_max
        h = build_hamiltonian(trap_electron, trap_field,
                              ModelVariant.full(), n)
        spec = propagate(decompose(h), initial_plane_wave(n),
                         PropagationConfig(t_end=20.0, sample_interval=0.5))
        tail = spec.populations[:, np.abs(spec.sideband_indices) >= n - 2]
        assert float(tail.sum(axis=1).max()) < 1e-10

    def test_zero_field_uses_state_support(self, trap_electron):
        f = matched_field(trap_electron, 0.0, 1.54)
        state = initial_gaussian(32, width_sidebands=2.0)
        n = adaptive_truncation(trap_electron, f, ModelVariant.full(),
                                state, 50.0).n_max
        # diagonal dynamics: support of the start plus the safety margin
        assert n < 32

    def test_cap_is_enforced(self, eigh_calls):
        # The simulate_wide couplings fail the tail guard at 64, 128 and 256
        # and pass at 512, so a cap of 256 is reached after three trials.
        e = electron_from_energy(200.0)
        with pytest.raises(ResourceLimitError, match="cap of 256"):
            adaptive_truncation(e, matched_field(e, 4.0, 0.8),
                                ModelVariant.full(), initial_plane_wave(1),
                                60.0, hard_cap=256)
        assert eigh_calls == [129, 257, 513]

    def test_cap_is_enforced_without_a_field(self, trap_electron):
        f = matched_field(trap_electron, 0.0, 1.54)
        state = initial_gaussian(1600, width_sidebands=100.0)
        with pytest.raises(ResourceLimitError):
            adaptive_truncation(trap_electron, f, ModelVariant.full(),
                                state, 10.0, hard_cap=256)

    @pytest.mark.parametrize("amplitude", [0.0, 1.0])
    def test_gaussian_size_passes_the_edge_rule(self, trap_electron,
                                                amplitude):
        f = matched_field(trap_electron, amplitude, 1.54)
        probe = initial_gaussian(160, width_sidebands=10.0)
        n = adaptive_truncation(trap_electron, f, ModelVariant.full(),
                                probe, 10.0).n_max
        assert n < probe.n_max
        initial_gaussian(n, width_sidebands=10.0)
        with pytest.raises(TruncationError):
            initial_gaussian(n - 1, width_sidebands=10.0)
