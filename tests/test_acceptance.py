"""End-to-end verification gate.

Twelve checks, each printing exactly one PASS/FAIL line (visible even under
pytest's capture) and then asserting. Tolerances are pinned here, not
imported, so a change in the package cannot silently move the goalposts.
"""
import numpy as np
from scipy.special import jv

from eladder import (
    ModelVariant,
    build_hamiltonian,
    coupling_set,
    electron_from_energy,
    initial_plane_wave,
    matched_field,
)
from eladder.analysis import (
    asymmetry,
    bloch_oscillation_report,
    classify_regime,
    collapse_times,
    fringe_check,
    fringe_count_in_row,
    population_transfer,
    revival_period,
    sweep,
    trap_width,
)
from eladder.constants import HBAR
from eladder.ladder import LadderHamiltonian, LadderState
from eladder.physics import (
    grating_period_for,
    photon_energy_from_wavelength,
    ponderomotive_ratio,
    recoil_ratio,
)
from eladder.propagate import (
    PropagationConfig,
    decompose,
    dense_oracle_compare,
    propagate,
)
from eladder.scenario import InitialSpec

import conftest
from conftest import packet, trap_scenario

NORM_BUDGET = 1e-8
RUNTIME_BUDGET_S = 60.0
COMB_TOL = 1e-6
COMB_SHORT_TOL = 1e-3
COLLAPSE_WINDOW_FS = (7.0, 10.5)
SKEW_RANGE = (1, 5)
TRAP_RHO_RANGE = (1e-3, 1e-2)
PAIR_RHO_RANGE = (3.0, 30.0)
LEAK_BUDGET = 0.05
PERIOD_AGREEMENT = 0.10
WIDTH_BAND_EV = (10.0, 1000.0)
RATIO_TOL = 0.05
GEOMETRY_TOL = 0.10
CONTROL_PERIOD_TOL = 0.02
SUITE_TOL = 1e-6
FRINGE_MINIMUM = 2


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {num:02d} {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_01_norm_conservation_and_runtime(plane_run, packet_run, bragg_run,
                                          mismatched_run):
    runs = {
        "packet": packet_run,
        "plane": plane_run,
        "pair": bragg_run,
        "tilted": mismatched_run,
    }
    worst_drift = max(float(r.spec.norm_drift_series.max())
                      for r in runs.values())
    slowest = max(r.seconds for r in runs.values())
    ok = worst_drift < NORM_BUDGET and slowest < RUNTIME_BUDGET_S
    _verdict(1, "norm-and-runtime", ok,
             f"worst drift {worst_drift:.2e} (budget {NORM_BUDGET:.0e}), "
             f"slowest scenario {slowest:.1f} s (budget {RUNTIME_BUDGET_S:.0f} s)")


def test_02_sideband_comb_limit(trap_electron, trap_field, trap_couplings):
    # Hopping-only lattice against the closed-form comb out to argument 20.
    kappa = trap_couplings.kappa_mag
    t20 = 20.0 * HBAR / (2.0 * kappa)
    n = np.arange(-48, 49)
    flat = ModelVariant.simplified(quadratic_scale=0.0)
    h = build_hamiltonian(trap_electron, trap_field, flat, 48)
    spec = propagate(decompose(h), initial_plane_wave(48), PropagationConfig(
        t_end=t20, sample_interval=t20 / 40.0))
    worst_flat = max(
        float(np.abs(row - jv(n, 2.0 * kappa * t / HBAR) ** 2).max())
        for t, row in zip(spec.times, spec.populations))

    # With the quadratic term back in, the comb survives only at early times.
    curved = build_hamiltonian(trap_electron, trap_field,
                               ModelVariant.simplified(), 48)
    early = propagate(decompose(curved), initial_plane_wave(48),
                      PropagationConfig(t_end=2.0, sample_interval=0.05))
    worst_early = max(
        float(np.abs(row - jv(n, 2.0 * kappa * t / HBAR) ** 2).max())
        for t, row in zip(early.times, early.populations))

    ok = worst_flat < COMB_TOL and worst_early < COMB_SHORT_TOL
    _verdict(2, "sideband-comb-limit", ok,
             f"flat ladder {worst_flat:.2e} (< {COMB_TOL:.0e}), "
             f"curved to 2 fs {worst_early:.2e} (< {COMB_SHORT_TOL:.0e})")


def test_03_first_collapse_window(plane_run):
    first = collapse_times(plane_run.spec)[0]
    lo, hi = COLLAPSE_WINDOW_FS
    ok = lo <= first <= hi
    _verdict(3, "first-collapse-window", ok,
             f"first spread maximum at {first:.3f} fs (window [{lo}, {hi}])")


def test_04_spectral_skew(plane_run, simplified_run):
    collapse = collapse_times(plane_run.spec)[0]
    skew = asymmetry(plane_run.spec, collapse).delta_n
    lo, hi = SKEW_RANGE
    full_ok = skew is not None and lo <= skew <= hi

    probes = [5.0, 10.0, 15.0, 20.0]
    reduced = [asymmetry(simplified_run.spec, t).delta_n for t in probes]
    reduced_ok = all(d == 0 for d in reduced)
    mirror = float(np.abs(simplified_run.spec.populations
                          - simplified_run.spec.populations[:, ::-1]).max())

    ok = full_ok and reduced_ok and mirror < 1e-12
    _verdict(4, "spectral-skew", ok,
             f"full model delta_n {skew} in [{lo}, {hi}]; reduced model "
             f"delta_n {set(reduced)} with mirror residual {mirror:.1e}")


def test_05_regime_classification(trap_couplings):
    trap = classify_regime(trap_couplings)
    e = electron_from_energy(16.0)
    pair = classify_regime(coupling_set(e, matched_field(e, 0.1, 4.0)))
    trap_ok = (TRAP_RHO_RANGE[0] <= trap.rho <= TRAP_RHO_RANGE[1]
               and trap.label == "RamanNath")
    pair_ok = (PAIR_RHO_RANGE[0] <= pair.rho <= PAIR_RHO_RANGE[1]
               and pair.label == "Bragg")
    ok = trap_ok and pair_ok
    _verdict(5, "regime-classification", ok,
             f"trap rho {trap.rho:.3e} -> {trap.label}; "
             f"pair rho {pair.rho:.3f} -> {pair.label}")


def test_06_pair_confinement(bragg_run):
    report = population_transfer(bragg_run.spec, target=-1, pair=(1, -1))
    periods = report.periods
    spread = (max(periods) - min(periods)) / min(periods) if len(periods) > 1 \
        else None
    ok = (report.leak_max < LEAK_BUDGET and spread is not None
          and spread < PERIOD_AGREEMENT)
    _verdict(6, "pair-confinement", ok,
             f"leak {report.leak_max:.4f} (< {LEAK_BUDGET}), transfer spacing "
             f"{[round(p, 1) for p in periods]} fs, spread "
             f"{(spread if spread is not None else float('nan')):.2e} "
             f"(< {PERIOD_AGREEMENT})")


def test_07_trap_width_phenomenology(plane_run, packet_run):
    plane = trap_scenario(InitialSpec(), None, 60.0, 0.05)
    pkt = trap_scenario(packet(), None, 60.0, 0.05)

    def widths(axis, grid, base):
        return [r.result for r in sweep(axis, grid, base, "trap_width")]

    def rising(values):
        return all(b > a for a, b in zip(values, values[1:]))

    energy_grid = np.arange(20.0, 200.0 + 1.0, 20.0)
    field_grid = np.arange(0.2, 2.0 + 0.01, 0.2)
    energy_ok = (rising(widths("energy", energy_grid, plane))
                 and rising(widths("energy", energy_grid, pkt)))
    field_ok = (rising(widths("field", field_grid, plane))
                and rising(widths("field", field_grid, pkt)))

    phase_grid = -np.pi + 2.0 * np.pi * np.arange(1, 17) / 16.0
    w = np.array(widths("phase", phase_grid, pkt))
    lo = phase_grid[np.isclose(w, w.min(), rtol=0, atol=1e-9)]
    hi = phase_grid[np.isclose(w, w.max(), rtol=0, atol=1e-9)]
    residual = min(abs(abs(float(np.angle(np.exp(1j * (a - b))))) - np.pi)
                   for a in hi for b in lo)
    step = 2.0 * np.pi / 16.0
    phase_ok = residual <= step + 1e-9

    w_plane = trap_width(plane_run.spec).width
    w_packet = trap_width(packet_run.spec).width
    band_ok = all(WIDTH_BAND_EV[0] <= v <= WIDTH_BAND_EV[1]
                  for v in (w_plane, w_packet))

    ok = energy_ok and field_ok and phase_ok and band_ok
    _verdict(7, "trap-width-phenomenology", ok,
             f"rising with energy {energy_ok}, with field {field_ok}; "
             f"extrema offset residual {residual:.2e} rad (<= step {step:.3f}); "
             f"widths {w_plane:.1f}/{w_packet:.1f} eV in {WIDTH_BAND_EV}")


# Tabulated target values for the field-to-momentum ratio eA/p at an 800 nm
# drive; rows are (kinetic energy eV, field V/nm, expected ratio).
REFERENCE_RATIOS = [
    (50.0, 0.09, 1.6e-3),
    (50.0, 2.0, 3.5e-2),
    (50.0, 10.0, 1.7e-1),
    (50.0, 100.0, 1.7),
    (50.0, 1000.0, 17.7),
    (5.0, 0.09, 5e-3),
    (5.0, 2.0, 1.1e-1),
    (5.0, 10.0, 1.12),
    (5.0, 100.0, 11.2),
    (5.0, 1000.0, 112.0),
]


def test_08_field_momentum_ratio_table():
    photon = photon_energy_from_wavelength(800.0)
    rows = []
    for energy, field, expected in REFERENCE_RATIOS:
        e = electron_from_energy(energy)
        got = ponderomotive_ratio(e, matched_field(e, field, photon))
        rel = abs(got - expected) / expected
        rows.append((energy, field, expected, got, rel))
        print(f"    ratio E0={energy:>6.1f} eV Ef={field:>7.2f} V/nm: "
              f"computed {got:.4g}, target {expected:.4g}, "
              f"deviation {100.0 * rel:.2f}%")
    misses = [r for r in rows if r[4] > RATIO_TOL]
    # The target values are not jointly reachable: the ratio is linear in
    # the field, but the 5 eV column pairs (2, 0.11) with (10, 1.12), a
    # 10.18x value jump over a 5x field step. No linear formula satisfies
    # both to 5%, so the three inconsistent entries fail here on purpose.
    ok = not misses
    _verdict(8, "field-momentum-ratio-table", ok,
             f"{len(rows) - len(misses)}/{len(rows)} rows within "
             f"{RATIO_TOL:.0%}; misses: "
             + (", ".join(f"(E0={m[0]:g}, Ef={m[1]:g}) off {100*m[4]:.1f}%"
                          for m in misses) or "none"))


def test_09_matching_geometry():
    photon = photon_energy_from_wavelength(800.0)
    period = grating_period_for(electron_from_energy(100.0), photon)
    period_ok = abs(period - 15.0) / 15.0 <= GEOMETRY_TOL

    slow = recoil_ratio(electron_from_energy(50.0), 1.54)
    fast = recoil_ratio(electron_from_energy(200e3), 1.54)
    orders_ok = (round(float(np.log10(slow))) == -1
                 and round(float(np.log10(fast))) == -3)

    ok = period_ok and orders_ok
    _verdict(9, "matching-geometry", ok,
             f"grating period {period:.3f} nm "
             f"({100*abs(period-15)/15:.1f}% from 15 nm); recoil ratios "
             f"{slow:.3e} / {fast:.3e} at orders 1e-1 / 1e-3")


def test_10_tilted_ladder_asymmetry(mismatched_run, mismatched_control_run):
    spec = mismatched_run.spec
    report = bloch_oscillation_report(spec)
    edge = max(float(spec.populations[:, 0].max()),
               float(spec.populations[:, -1].max()))
    bounded = edge < 1e-8
    lopsided = (report.max_n_absorption != report.max_n_emission
                and abs(report.period_absorption - report.period_emission)
                > 0.5)

    control = bloch_oscillation_report(mismatched_control_run.spec)
    ideal = 2.0 * np.pi * HBAR / abs(spec.metadata["detuning"])
    sym = (control.max_n_absorption == control.max_n_emission
           and abs(control.period_absorption - control.period_emission)
           / ideal < 1e-6)
    period_ok = abs(control.period_absorption - ideal) / ideal \
        < CONTROL_PERIOD_TOL

    ok = bounded and lopsided and sym and period_ok
    _verdict(10, "tilted-ladder-asymmetry", ok,
             f"edge population {edge:.1e}; reach +{report.max_n_absorption}/"
             f"-{report.max_n_emission}, periods "
             f"{report.period_absorption:.3f}/{report.period_emission:.3f} fs; "
             f"control period {control.period_absorption:.6f} fs vs ideal "
             f"{ideal:.6f} fs")


def test_11_integrator_cross_validation():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        n_max = int(rng.integers(8, 257))
        dim = 2 * n_max + 1
        diag = rng.normal(0.0, 1.0, dim)
        hop1 = rng.normal(0.0, 0.5, dim - 1) + 1j * rng.normal(0.0, 0.5, dim - 1)
        hop2 = rng.normal(0.0, 0.2, dim - 2) + 1j * rng.normal(0.0, 0.2, dim - 2)
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
        t = float(rng.uniform(1.0, 20.0))
        h = LadderHamiltonian(n_max, diag, hop1, hop2, ModelVariant.full())
        err = dense_oracle_compare(decompose(h), LadderState(amp, 0.0, n_max),
                                   t)
        worst = max(worst, err)
    ok = worst < SUITE_TOL
    _verdict(11, "integrator-cross-validation", ok,
             f"50 seeded systems (dim <= 513, t <= 20 fs), worst population "
             f"discrepancy {worst:.2e} (< {SUITE_TOL:.0e})")


def test_12_edge_fringes_and_phase_delay(plane_run, packet_run,
                                         packet_shifted_run):
    spec = packet_run.spec
    two_cycles = 2.0 * revival_period(spec)
    late = [i for i, t in enumerate(spec.times) if t >= two_cycles]
    best_late = max(fringe_count_in_row(spec.populations[i],
                                        spec.sideband_indices)
                    for i in late)
    base = fringe_check(spec)
    fringes_ok = best_late >= FRINGE_MINIMUM and base.found

    shifted = fringe_check(packet_shifted_run.spec)
    delayed = (not shifted.found) or (shifted.first_time > base.first_time)

    ok = fringes_ok and delayed
    _verdict(12, "edge-fringes-and-phase-delay", ok,
             f"{best_late} fringes after {two_cycles:.1f} fs (first at "
             f"{base.first_time:.2f} fs); shifted start "
             + ("never detects in the span" if not shifted.found else
                f"first detects at {shifted.first_time:.2f} fs"))
