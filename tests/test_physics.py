"""Kinematics, field construction, and coupling coefficients.

The closed forms here are recomputed locally from the shared constants
rather than calling back into the functions under test, so each check has
an independent reference.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eladder import (
    ValidationError,
    coupling_set,
    critical_angle_cosine,
    electron_from_energy,
    grating_period_for,
    make_field,
    matched_field,
    phase_matched_wavevector,
    photon_energy_from_wavelength,
)
from eladder.constants import (
    ELECTRON_MASS,
    HBAR,
    LIGHT_SPEED,
    REST_ENERGY,
)
from eladder.physics import (
    ponderomotive_ratio,
    recoil_ratio,
    wrap_phase,
)


class TestKinematics:
    def test_hundred_ev_reference_values(self):
        e = electron_from_energy(100.0)
        assert e.lorentz_factor == pytest.approx(1.000195695118356, rel=1e-14)
        assert e.velocity == pytest.approx(5.930099251621092, rel=1e-13)
        assert e.momentum == pytest.approx(33.72294894766725, rel=1e-13)

    def test_gamma_matches_energy_defn(self):
        e = electron_from_energy(250.0)
        assert e.lorentz_factor == pytest.approx(1.0 + 250.0 / REST_ENERGY,
                                                 rel=1e-15)

    def test_velocity_momentum_consistent(self):
        e = electron_from_energy(37.5)
        assert e.momentum == pytest.approx(
            e.lorentz_factor * ELECTRON_MASS * e.velocity, rel=1e-14)

    def test_energy_momentum_invariant(self):
        # (E0 + mc^2)^2 - (pc)^2 must stay (mc^2)^2
        e = electron_from_energy(123.4)
        total = e.kinetic_energy + REST_ENERGY
        inv = total**2 - (e.momentum * LIGHT_SPEED) ** 2
        assert inv == pytest.approx(REST_ENERGY**2, rel=1e-12)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValidationError):
            electron_from_energy(0.0)
        with pytest.raises(ValidationError):
            electron_from_energy(-5.0)


class TestMatching:
    def test_wavevector_puts_phase_velocity_on_beam(self):
        e = electron_from_energy(100.0)
        k = phase_matched_wavevector(e, 1.54)
        assert (1.54 / HBAR) / k == pytest.approx(e.velocity, rel=1e-15)

    def test_grating_period_near_ir(self):
        # 100 eV beam and a near-infrared drive need a ~16 nm structure
        e = electron_from_energy(100.0)
        hw = photon_energy_from_wavelength(800.0)
        assert hw == pytest.approx(1.5498024802951402, rel=1e-12)
        period = grating_period_for(e, hw)
        assert period == pytest.approx(15.824545530417828, rel=1e-12)
        # independent route: distance covered in one optical cycle
        cycle = 2.0 * math.pi * HBAR / hw
        assert period == pytest.approx(e.velocity * cycle, rel=1e-13)

    def test_recoil_ratio_orders(self):
        slow = recoil_ratio(electron_from_energy(50.0), 1.54)
        fast = recoil_ratio(electron_from_energy(200e3), 1.54)
        assert slow == pytest.approx(math.sqrt(1.54 / 50.0), rel=1e-15)
        assert slow == pytest.approx(0.17549928774784243, rel=1e-12)
        assert fast == pytest.approx(0.0027748873851023217, rel=1e-12)
        assert round(math.log10(slow)) == -1
        assert round(math.log10(fast)) == -3

    @given(st.floats(min_value=1.0, max_value=1000.0),
           st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_recoil_monotone_in_energy(self, energy, photon):
        lo = recoil_ratio(electron_from_energy(energy), photon)
        hi = recoil_ratio(electron_from_energy(energy * 4.0), photon)
        assert hi < lo


class TestFieldParams:
    def test_phase_wrapped_into_interval(self):
        e = electron_from_energy(100.0)
        f = matched_field(e, 1.0, 1.54, initial_phase=3.0 * math.pi)
        assert f.initial_phase == pytest.approx(math.pi, abs=1e-12)
        assert -math.pi < f.initial_phase <= math.pi

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=80)
    def test_wrap_phase_is_idempotent_mod_two_pi(self, phi):
        w = wrap_phase(phi)
        assert -math.pi < w <= math.pi
        assert math.remainder(w - phi, 2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-9)

    def test_angular_frequency_and_period(self):
        f = make_field(1.0, 1.54, 0.5)
        assert f.angular_frequency == pytest.approx(1.54 / HBAR, rel=1e-15)
        assert f.grating_period == pytest.approx(2.0 * math.pi / 0.5,
                                                 rel=1e-15)

    def test_rejects_bad_field(self):
        with pytest.raises(ValidationError):
            make_field(-1.0, 1.54, 0.5)
        with pytest.raises(ValidationError):
            make_field(1.0, 0.0, 0.5)
        with pytest.raises(ValidationError):
            make_field(1.0, 1.54, -0.2)


class TestCouplings:
    def test_against_local_formulas(self, trap_electron, trap_field,
                                    trap_couplings):
        e, f, cs = trap_electron, trap_field, trap_couplings
        omega = f.angular_frequency
        beta = (HBAR * f.wavevector) ** 2 / (2.0 * ELECTRON_MASS)
        delta = f.amplitude * HBAR / (2.0 * ELECTRON_MASS * omega)
        kappa = delta * (e.momentum / HBAR)
        pond = f.amplitude**2 / (4.0 * ELECTRON_MASS * omega**2)
        assert cs.beta == pytest.approx(beta, rel=1e-14)
        assert cs.kappa_mag == pytest.approx(kappa, rel=1e-14)
        assert cs.ponderomotive == pytest.approx(pond, rel=1e-14)
        assert cs.nath_rho == pytest.approx(beta / kappa, rel=1e-14)

    def test_trap_drive_reference_rho(self, trap_couplings):
        assert trap_couplings.nath_rho == pytest.approx(
            0.004678934071165681, rel=1e-12)

    def test_matched_detuning_snaps_to_zero(self, trap_couplings):
        assert trap_couplings.detuning == 0.0

    def test_mismatched_detuning(self):
        e = electron_from_energy(100.0)
        f = make_field(1.0, 1.54, 2.0 * math.pi / 23.0)
        cs = coupling_set(e, f)
        expected = 1.54 - HBAR * e.velocity * f.wavevector
        assert cs.detuning == pytest.approx(expected, rel=1e-12)
        assert cs.detuning == pytest.approx(0.47369913423543825, rel=1e-12)

    def test_zero_field_leaves_rho_undefined(self):
        e = electron_from_energy(100.0)
        f = matched_field(e, 0.0, 1.54)
        cs = coupling_set(e, f)
        assert cs.kappa_mag == 0.0
        assert cs.nath_rho is None

    @given(st.floats(min_value=1e-4, max_value=100.0),
           st.floats(min_value=5.0, max_value=5000.0),
           st.floats(min_value=0.2, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_field_homogeneity(self, amplitude, energy, photon):
        e = electron_from_energy(energy)
        one = coupling_set(e, matched_field(e, amplitude, photon))
        two = coupling_set(e, matched_field(e, 2.0 * amplitude, photon))
        assert two.kappa_mag == 2.0 * one.kappa_mag
        assert two.delta == 2.0 * one.delta
        assert two.ponderomotive == 4.0 * one.ponderomotive
        assert two.beta == one.beta

    def test_ponderomotive_ratio_formula_and_linearity(self):
        e = electron_from_energy(50.0)
        hw = photon_energy_from_wavelength(800.0)
        f1 = matched_field(e, 2.0, hw)
        f2 = matched_field(e, 10.0, hw)
        r1, r2 = ponderomotive_ratio(e, f1), ponderomotive_ratio(e, f2)
        p_classical = math.sqrt(2.0 * ELECTRON_MASS * 50.0)
        assert r1 == pytest.approx(
            2.0 / (f1.angular_frequency * p_classical), rel=1e-14)
        assert r2 / r1 == pytest.approx(5.0, rel=1e-14)


class TestCriticalAngle:
    def test_matches_local_formula(self):
        # the photon-recoil correction uses the total relativistic energy
        e = electron_from_energy(100.0)
        vp = 0.5 * e.velocity
        full = critical_angle_cosine(e, 1.54, vp)
        total = e.lorentz_factor * REST_ENERGY
        corr = (1.54 / (2.0 * total)) * (1.0 - (LIGHT_SPEED / vp) ** 2)
        assert full == pytest.approx(0.5 * (1.0 + corr), rel=1e-12)

    def test_swift_beam_correction_negligible(self):
        e = electron_from_energy(200e3)
        c = critical_angle_cosine(e, 1.54, e.velocity)
        assert abs(c - 1.0) < 1e-4

    def test_matched_slow_beam_evaluates_literally(self):
        # percent-level downward shift, still an allowed angle
        e = electron_from_energy(100.0)
        c = critical_angle_cosine(e, 1.54, e.velocity)
        assert c == pytest.approx(0.9961, abs=2e-4)

    def test_value_not_clamped(self):
        # a phase velocity above the beam velocity gives cos > 1: no real
        # angle, and the function must report the raw value
        e = electron_from_energy(100.0)
        c = critical_angle_cosine(e, 0.0, 2.0 * e.velocity)
        assert c == pytest.approx(2.0, rel=1e-15)


class TestWavelength:
    def test_round_trip(self):
        hw = photon_energy_from_wavelength(532.0)
        back = 2.0 * math.pi * HBAR * LIGHT_SPEED / hw
        assert back == pytest.approx(532.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            photon_energy_from_wavelength(0.0)
