"""Observable extraction: widths, collapses, asymmetry, oscillations, sweeps."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eladder import (
    InsufficientSpanError,
    SweepError,
    ValidationError,
    coupling_set,
    electron_from_energy,
    matched_field,
)
from eladder.analysis import (
    RegimeLabel,
    _auto_sized,
    _interp_extrema,
    asymmetry,
    bloch_oscillation_report,
    classify_regime,
    collapse_times,
    fringe_check,
    population_transfer,
    revival_period,
    sweep,
    sweep_starts,
    trap_width,
)
from eladder.constants import HBAR
from eladder.propagate import Spectrogram

from conftest import packet, timed, trap_scenario
from eladder.figures import make_figure
from eladder.scenario import InitialSpec, decompose_scenario, run_scenario


def make_spec(times, pops, metadata=None):
    times = np.asarray(times, dtype=float)
    pops = np.asarray(pops, dtype=float)
    n_max = (pops.shape[1] - 1) // 2
    return Spectrogram(times=times, populations=pops,
                       norm_drift_series=np.abs(pops.sum(axis=1) - 1.0),
                       n_max=n_max, metadata=metadata or {})


class TestExtremaHelper:
    def test_parabolic_refinement_on_a_sine(self):
        t = np.linspace(0.0, 2.0, 201)
        y = np.sin(2.0 * np.pi * t / 0.7)
        maxima = _interp_extrema(t, y, "max")
        assert np.allclose(maxima, [0.175, 0.875, 1.575], atol=1e-3)
        minima = _interp_extrema(t, y, "min")
        assert np.allclose(minima, [0.525, 1.225, 1.925], atol=1e-3)

    def test_flat_series_has_no_extrema(self):
        t = np.linspace(0.0, 1.0, 11)
        assert _interp_extrema(t, np.ones_like(t), "max") == []


class TestCollapseAndRevival:
    def test_collapse_times(self, plane_run):
        c = collapse_times(plane_run.spec)
        expected = [8.469986, 21.896703, 33.329627, 46.365325, 58.771699]
        assert len(c) == len(expected)
        assert np.allclose(c, expected, atol=1e-3)

    def test_first_collapse_lands_early(self, plane_run):
        c = collapse_times(plane_run.spec)
        assert 7.0 <= c[0] <= 10.5

    def test_revival_period(self, plane_run):
        assert revival_period(plane_run.spec) == pytest.approx(
            12.169424431236044, abs=1e-6)

    def test_short_run_raises(self):
        short = timed(trap_scenario(InitialSpec(), 96, 6.0, 0.05)).spec
        with pytest.raises(InsufficientSpanError):
            revival_period(short)


class TestTrapWidth:
    def test_plane_run_width(self, plane_run):
        rep = trap_width(plane_run.spec)
        assert rep.width == pytest.approx(92.4, abs=1e-9)
        assert (rep.n_min, rep.n_max) == (-28, 32)
        assert rep.threshold == 1e-3

    def test_packet_run_width(self, packet_run):
        rep = trap_width(packet_run.spec)
        assert rep.width == pytest.approx(81.62, abs=1e-9)
        assert (rep.n_min, rep.n_max) == (-25, 28)

    def test_width_shrinks_with_tighter_threshold(self, plane_run):
        spec = plane_run.spec
        w = [trap_width(spec, threshold=th).width for th in (1e-4, 1e-3, 1e-2)]
        assert w[0] >= w[1] >= w[2] > 0.0

    def test_missing_photon_metadata(self):
        spec = make_spec([0.0, 1.0], [[0.0, 1.0, 0.0]] * 2)
        with pytest.raises(ValidationError, match="photon_energy"):
            trap_width(spec)

    def test_nothing_above_threshold_collapses_to_a_point(self, plane_run):
        rep = trap_width(plane_run.spec, threshold=2.0)
        assert rep.width == 0.0
        assert rep.n_min == rep.n_max


class TestAsymmetry:
    def test_full_model_is_skewed_at_first_collapse(self, plane_run):
        c = collapse_times(plane_run.spec)
        rep = asymmetry(plane_run.spec, c[0])
        assert rep.delta_n == 4
        assert rep.time == pytest.approx(c[0], abs=0.05)

    def test_simplified_model_stays_symmetric(self, simplified_run):
        spec = simplified_run.spec
        for t in (5.0, 10.0, 15.0, 20.0):
            assert asymmetry(spec, t).delta_n == 0

    def test_simplified_populations_mirror_exactly(self, simplified_run):
        p = simplified_run.spec.populations
        assert np.abs(p - p[:, ::-1]).max() < 1e-12

    def test_empty_side_returns_none(self):
        spec = make_spec([0.0, 1.0], [[0.0, 0.0, 1.0, 0.0, 0.0]] * 2)
        assert asymmetry(spec, 0.0).delta_n is None


class TestRegime:
    def test_trap_point_is_raman_nath(self, trap_couplings):
        label = classify_regime(trap_couplings)
        assert label.label == "RamanNath"
        assert label.rho == pytest.approx(0.004678934071165681, rel=1e-12)

    def test_bragg_point(self):
        e = electron_from_energy(16.0)
        cs = coupling_set(e, matched_field(e, 0.1, photon_energy=4.0))
        assert classify_regime(cs).label == "Bragg"

    @pytest.mark.parametrize("rho,label", [
        (0.05, "RamanNath"),
        (0.1, "Intermediate"),   # boundaries belong to the middle bucket
        (5.0, "Intermediate"),
        (10.0, "Intermediate"),
        (10.5, "Bragg"),
    ])
    def test_bucket_boundaries(self, rho, label):
        assert RegimeLabel(rho, label).label == label

    def test_inconsistent_label_is_rejected(self):
        with pytest.raises(ValidationError):
            RegimeLabel(0.05, "Bragg")

    def test_zero_field_is_unclassifiable(self, trap_electron):
        cs = coupling_set(trap_electron,
                          matched_field(trap_electron, 0.0, photon_energy=1.54))
        with pytest.raises(ValidationError):
            classify_regime(cs)


class TestBlochOscillation:
    def test_tilted_ladder_report(self, mismatched_run):
        rep = bloch_oscillation_report(mismatched_run.spec)
        assert rep.period_absorption == pytest.approx(9.363999762413869, rel=1e-6)
        assert rep.period_emission == pytest.approx(8.30400192037717, rel=1e-6)
        assert rep.max_n_absorption == 15
        assert rep.max_n_emission == 12
        # curvature on: sides disagree in both period and reach
        assert rep.max_n_absorption != rep.max_n_emission
        assert abs(rep.period_absorption - rep.period_emission) > 0.5

    def test_control_without_curvature_is_symmetric(self, mismatched_run,
                                                    mismatched_control_run):
        rep = bloch_oscillation_report(mismatched_control_run.spec)
        assert rep.max_n_absorption == rep.max_n_emission == 13
        assert rep.period_absorption == pytest.approx(rep.period_emission,
                                                      rel=1e-9)
        detuning = mismatched_run.spec.metadata["detuning"]
        ideal = 2.0 * math.pi * HBAR / abs(detuning)
        assert rep.period_absorption == pytest.approx(ideal, rel=1e-8)

    def test_control_populations_mirror(self, mismatched_control_run):
        p = mismatched_control_run.spec.populations
        assert np.abs(p - p[:, ::-1]).max() < 1e-12

    def test_matched_run_is_rejected(self, plane_run):
        with pytest.raises(ValidationError):
            bloch_oscillation_report(plane_run.spec)


class TestFringes:
    def test_packet_run_shows_edge_fringes(self, packet_run):
        rep = fringe_check(packet_run.spec)
        assert rep.found
        assert rep.first_time == pytest.approx(33.05, abs=1e-6)
        assert rep.max_count == 3

    def test_minimum_injection_suppresses_them(self, packet_shifted_run):
        rep = fringe_check(packet_shifted_run.spec)
        assert not rep.found
        assert rep.first_time is None
        assert rep.max_count == 0


class TestPopulationTransfer:
    def test_bragg_exchange_timing(self, bragg_run):
        rep = population_transfer(bragg_run.spec, target=-1, pair=(1, -1))
        assert len(rep.crossing_times) == 3
        assert np.allclose(rep.crossing_times,
                           [345.6526, 1717.0819, 3088.4222], atol=0.5)
        assert np.allclose(rep.periods, [1371.429241, 1371.340352], atol=0.5)
        # successive periods agree far inside the 10 percent budget
        assert abs(rep.periods[0] - rep.periods[1]) / rep.periods[0] < 1e-3

    def test_leak_outside_the_pair_stays_small(self, bragg_run):
        rep = population_transfer(bragg_run.spec, target=-1, pair=(1, -1))
        assert rep.leak_max == pytest.approx(0.03000984446104371, abs=1e-9)
        assert rep.leak_max < 0.05

    def test_missing_beta_metadata(self):
        spec = make_spec([0.0, 1.0, 2.0], [[0.0, 0.0, 1.0, 0.0, 0.0]] * 3)
        with pytest.raises(ValidationError, match="beta"):
            population_transfer(spec, target=1)

    @pytest.mark.parametrize("target,pair", [(3, None), (-1, (1, -3))])
    def test_site_off_the_lattice(self, target, pair):
        spec = make_spec([0.0, 1.0, 2.0], [[0.0, 0.0, 1.0, 0.0, 0.0]] * 3,
                         {"beta": 1.0})
        with pytest.raises(ValidationError, match=r"sideband -?3 lies outside"):
            population_transfer(spec, target=target, pair=pair)


@pytest.fixture(scope="module")
def base():
    return trap_scenario(InitialSpec(), 16, 2.0, 0.5)


class TestSweep:
    def test_rho_over_photon_energy(self, base):
        grid = np.geomspace(0.2, 20.0, 5)
        rows = sweep("photon_energy", grid, base, "rho")
        assert [r.index for r in rows] == [0, 1, 2, 3, 4]
        assert rows[0].result == pytest.approx(1.0248840874954667e-05, rel=1e-12)
        assert rows[2].result == pytest.approx(0.010248840874954672, rel=1e-12)
        assert rows[4].result == pytest.approx(10.24884087495467, rel=1e-12)
        # rho grows as the cube of the drive frequency
        assert rows[4].result / rows[0].result == pytest.approx(1e6, rel=1e-9)

    def test_bad_point_is_recorded_not_fatal(self, base):
        rows = sweep("energy", [100.0, -5.0, 50.0], base, "rho")
        assert rows[0].error is None
        assert rows[1].result is None
        assert "positive" in rows[1].error
        assert rows[2].error is None

    def test_every_point_failing_raises(self, base):
        with pytest.raises(SweepError):
            sweep("energy", [-1.0, -2.0], base, "rho")

    def test_axis_and_observable_validation(self, base):
        with pytest.raises(ValidationError):
            sweep("mass", [1.0], base, "rho")
        with pytest.raises(ValidationError):
            sweep("energy", [100.0], base, "entropy")
        with pytest.raises(ValidationError):
            sweep("energy", [], base, "rho")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_grid_value_is_rejected(self, base, value):
        with pytest.raises(ValidationError, match="finite"):
            sweep("energy", [100.0, value], base, "rho")
        with pytest.raises(ValidationError, match="finite"):
            sweep_starts("field", [value], base, [base.initial], "rho")


class TestPhaseSweep:
    """Phase points keep the base Hamiltonian and move the start's linear
    phase instead, which the field-phase gauge makes exact."""

    # Off-centre and chirped, with its own linear phase, on a base field
    # phase of 0.3 rad: a wrong sign or a dropped base phase shows.
    GRID = [-2.5, -0.9, 0.3, 1.7, 2.9]

    @pytest.fixture(scope="class")
    def packet_base(self):
        initial = InitialSpec(kind="gaussian", center=4, width_sidebands=3.0,
                              chirp=0.05, offset_phase=0.5)
        return trap_scenario(initial, None, 60.0, 0.05, phase=0.3)

    @pytest.fixture(scope="class")
    def per_point(self, packet_base):
        """Each point run at its own field phase."""
        return [run_scenario(_auto_sized(replace(packet_base, initial_phase=v)))
                for v in self.GRID]

    def test_widths_equal_per_point_runs(self, packet_base, per_point):
        rows = sweep("phase", self.GRID, packet_base, "trap_width")
        assert [r.result for r in rows] == [trap_width(s).width
                                            for s in per_point]
        assert len({r.result for r in rows}) > 2

    def test_revival_periods_equal_per_point_runs(self, packet_base,
                                                  per_point):
        rows = sweep("phase", self.GRID, packet_base, "revival_period")
        for row, spec in zip(rows, per_point):
            assert row.result == pytest.approx(revival_period(spec), rel=1e-9)

    def test_non_finite_phase_is_rejected_before_any_start_is_built(
            self, packet_base):
        # a NaN phase would reach initial_gaussian as the offset phase
        with pytest.raises(ValidationError, match="finite"):
            sweep("phase", [0.0, math.nan], packet_base, "trap_width")

    def test_fig3c_grid_is_solved_once(self, tmp_path, eigh_calls):
        make_figure("fig3c", tmp_path)
        assert len(eigh_calls) == 1


class TestSweepStarts:
    """Starts swept together share each grid point's widest lattice and its
    one decomposition; that changes no start's result."""

    STARTS = (InitialSpec(), packet())

    @pytest.fixture(scope="class")
    def plane_base(self):
        return trap_scenario(InitialSpec(), None, 60.0, 0.05)

    @pytest.mark.parametrize("axis, grid", [
        ("energy", [40.0, 130.0]),
        ("field", [0.4, 1.4]),
        ("phase", [-2.0, 0.5, 2.5]),
    ])
    def test_each_start_reads_as_its_own_sweep(self, plane_base, axis, grid):
        together = sweep_starts(axis, grid, plane_base, self.STARTS,
                                "trap_width")
        for start, rows in zip(self.STARTS, together):
            alone = sweep(axis, grid, replace(plane_base, initial=start),
                          "trap_width")
            assert rows == alone

    @staticmethod
    def _plane_widths(base, energy, field):
        """The plane start's trap width on its own sized lattice and on the
        packet's wider one."""
        at = replace(base, kinetic_energy=energy, amplitude=field)
        own = _auto_sized(at)
        wide = _auto_sized(replace(at, initial=packet()))
        assert wide.n_max > own.n_max
        return (trap_width(run_scenario(own)).width,
                trap_width(run_scenario(own, decompose_scenario(wide))).width)

    def test_plane_width_holds_on_the_packet_lattice_at_fig3_points(
            self, plane_base):
        points = ([(e, 1.0) for e in np.arange(20.0, 200.0 + 1.0, 20.0)]
                  + [(100.0, f) for f in np.arange(0.2, 2.0 + 0.01, 0.2)])
        moved = []
        for e, f in points:
            own, wide = self._plane_widths(plane_base, float(e), float(f))
            if own != wide:
                moved.append((e, f, own, wide))
        assert moved == []

    @settings(max_examples=10, deadline=None)
    @given(energy=st.floats(20.0, 200.0), field=st.floats(0.2, 2.0))
    def test_plane_width_holds_on_the_packet_lattice(self, plane_base,
                                                     energy, field):
        own, wide = self._plane_widths(plane_base, energy, field)
        assert own == wide

    def test_failed_shared_decomposition_is_tried_once(self, monkeypatch):
        attempts = []

        def failing(m):
            attempts.append(m.shape[0])
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        grid = -np.pi + 2.0 * np.pi * np.arange(1, 17) / 16.0
        base = trap_scenario(packet(), None, 60.0, 0.05)
        with pytest.raises(SweepError, match="did not converge"):
            sweep("phase", grid, base, "trap_width")
        assert len(attempts) == 1

    def test_a_failed_lattice_fails_each_start(self, plane_base,
                                               monkeypatch):
        eigh = np.linalg.eigh
        widest = _auto_sized(replace(plane_base, kinetic_energy=40.0,
                                     initial=packet()))
        failing_dim = 2 * widest.n_max + 1

        def fails_at(m):
            if m.shape[0] == failing_dim:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", fails_at)
        plane, pkt = sweep_starts("energy", [40.0, 130.0], plane_base,
                                  self.STARTS, "trap_width")
        for rows in (plane, pkt):
            assert rows[0].result is None
            assert "did not converge" in rows[0].error
            assert rows[1].error is None
