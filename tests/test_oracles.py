"""Closed-form references and their agreement with the lattice propagator."""
import math

import numpy as np
import pytest
from scipy.special import jv

from eladder import (
    ModelVariant,
    ValidationError,
    build_hamiltonian,
    coupling_set,
    electron_from_energy,
    initial_plane_wave,
    matched_field,
)
from eladder.constants import HBAR
from eladder.oracles import (
    BesselSolution,
    TwoLevelSolution,
    bessel_population,
    pendellosung_population,
    separatrix_edge,
    trap_cycle_estimate,
    two_level_reduction,
)
from eladder.propagate import PropagationConfig, decompose, propagate


class TestBesselForm:
    def test_initial_condition(self):
        sol = BesselSolution(0.01)
        p = bessel_population(sol, np.arange(-5, 6), 0.0)
        assert p[5] == 1.0
        assert np.all(p[np.arange(11) != 5] == 0.0)

    def test_sum_rule(self):
        # sum_n J_n(x)^2 = 1 once the lattice is wide enough for the argument
        sol = BesselSolution(0.01)
        p = bessel_population(sol, np.arange(-60, 61), 3.0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_mirror_symmetry(self):
        sol = BesselSolution(0.005)
        n = np.arange(1, 8)
        assert np.allclose(bessel_population(sol, n, 2.0),
                           bessel_population(sol, -n, 2.0), rtol=0, atol=1e-15)

    def test_argument_is_linear(self):
        assert BesselSolution(0.02).argument(3.0) == pytest.approx(
            2.0 * 0.02 * 3.0 / HBAR)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BesselSolution(-0.1)
        with pytest.raises(ValidationError):
            bessel_population(BesselSolution(0.1), 0, -1.0)


class TestBesselAgainstLattice:
    def test_hopping_only_ladder_reproduces_bessel(self, trap_electron, trap_field):
        # Remove the on-site terms and the lattice must land exactly on the
        # closed form out to argument 20.
        cs = coupling_set(trap_electron, trap_field)
        t = 20.0 * HBAR / (2.0 * cs.kappa_mag)
        variant = ModelVariant.simplified(detuning_override=0.0, quadratic_scale=0.0)
        h = build_hamiltonian(trap_electron, trap_field, variant, 48)
        spec = propagate(decompose(h), initial_plane_wave(48),
                         PropagationConfig(t_end=t, sample_interval=t))
        n = np.arange(-48, 49)
        reference = jv(n, 2.0 * cs.kappa_mag * t / HBAR) ** 2
        assert np.abs(spec.populations[-1] - reference).max() < 1e-12


class TestSeparatrix:
    def test_edge_is_the_turning_point(self):
        beta, kappa = 0.37, 2.9
        edge = separatrix_edge(beta, kappa)
        # the start's energy 2|kappa| (n = 0 at the top of the cosine)
        # equals the edge's beta n^2 - 2|kappa| (at its bottom)
        assert math.isclose(beta * edge**2 - 2.0 * kappa, 2.0 * kappa,
                            rel_tol=1e-12)

    def test_plane_start_fills_the_separatrix_and_no_more(self,
                                                           simplified_run):
        spec = simplified_run.spec
        assert spec.metadata["detuning"] == 0.0
        edge = separatrix_edge(spec.metadata["beta"],
                               spec.metadata["kappa_mag"])
        n = np.abs(spec.sideband_indices)

        def beyond(fraction):
            return spec.populations[:, n > fraction * edge].sum(axis=1).max()

        assert beyond(0.9) > 0.05
        assert beyond(1.2) < 1e-6

    def test_validation(self):
        with pytest.raises(ValidationError):
            separatrix_edge(0.0, 1.0)
        with pytest.raises(ValidationError):
            separatrix_edge(1.0, -1.0)
        with pytest.raises(ValidationError):
            trap_cycle_estimate(1.0, 0.0)
        assert separatrix_edge(1.0, 0.0) == 0.0


class TestTwoLevelForm:
    def test_rabi_energy_and_amplitude(self):
        sol = TwoLevelSolution(0.002, 0.001)
        r = math.sqrt(0.002**2 + 0.001**2 / 4.0)
        assert sol.rabi_energy == pytest.approx(r, rel=1e-15)
        assert sol.transfer_amplitude == pytest.approx((0.002 / r) ** 2, rel=1e-15)
        assert sol.period == pytest.approx(math.pi * HBAR / r, rel=1e-15)

    def test_resonant_pair_transfers_fully(self):
        sol = TwoLevelSolution(0.005, 0.0)
        assert sol.transfer_amplitude == 1.0
        assert sol.period == pytest.approx(math.pi * HBAR / 0.005)

    def test_zero_coupling_never_transfers(self):
        sol = TwoLevelSolution(0.0, 0.0)
        assert sol.transfer_amplitude == 0.0
        assert sol.period == math.inf

    def test_population_history(self):
        sol = TwoLevelSolution(0.002, 0.001)
        p1, p2 = pendellosung_population(sol, 0.0)
        assert (p1, p2) == (1.0, 0.0)
        ts = np.linspace(0.0, 3.0 * sol.period, 400)
        a1, a2 = pendellosung_population(sol, ts)
        assert np.abs(a1 + a2 - 1.0).max() < 1e-14
        assert a2.max() <= sol.transfer_amplitude + 1e-14
        # peak lands exactly at the half period, zero at the full period
        _, peak = pendellosung_population(sol, sol.period / 2.0)
        assert peak == pytest.approx(sol.transfer_amplitude, rel=1e-12)
        _, back = pendellosung_population(sol, sol.period)
        assert back < 1e-28

    def test_validation(self):
        with pytest.raises(ValidationError):
            TwoLevelSolution(0.002, 0.0, levels=(1, 1))
        with pytest.raises(ValidationError):
            TwoLevelSolution(-0.002, 0.0)


@pytest.fixture(scope="module")
def bragg_hamiltonian():
    e = electron_from_energy(16.0)
    f = matched_field(e, 0.1, photon_energy=4.0)
    return build_hamiltonian(e, f, ModelVariant.full(), 12)


class TestReduction:
    def test_bridge_matches_handmade_dense_formula(self, bragg_hamiltonian):
        h = bragg_hamiltonian
        sol = two_level_reduction(h, (1, -1))
        d = h.to_dense()
        ia, im, ib = 1 + h.n_max, h.n_max, -1 + h.n_max
        local = abs(d[ia, im]) * abs(d[im, ib]) / (d[ia, ia].real - d[im, im].real)
        assert sol.effective_coupling == pytest.approx(abs(local), rel=1e-14)

    def test_bridge_frozen_values(self, bragg_hamiltonian):
        sol = two_level_reduction(bragg_hamiltonian, (1, -1))
        assert sol.effective_coupling == pytest.approx(0.0015181346279615488, rel=1e-12)
        assert sol.detuning_gap == 0.0
        assert sol.period == pytest.approx(1362.0885856997759, rel=1e-12)

    def test_validation(self, bragg_hamiltonian):
        h = bragg_hamiltonian
        with pytest.raises(ValidationError):
            two_level_reduction(h, (20, -1))
        with pytest.raises(ValidationError):
            two_level_reduction(h, (1, 0))
        with pytest.raises(ValidationError):
            two_level_reduction(h, (2, -2))

    def test_degenerate_bridge_site_is_rejected(self, trap_electron, trap_field):
        flat = ModelVariant.simplified(detuning_override=0.0, quadratic_scale=0.0)
        h = build_hamiltonian(trap_electron, trap_field, flat, 4)
        with pytest.raises(ValidationError, match="degenerate"):
            two_level_reduction(h, (1, -1))
