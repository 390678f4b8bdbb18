"""Canned parameter sets that regenerate the headline data files.

Each entry in FIGURES writes one or more plain-text tables into an output
directory and returns the paths.  The presets pin every physical knob so
the same file comes out on every machine; nothing here is tunable on
purpose.  Use `eladder figure <name> --out DIR` from the command line.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .analysis import classify_regime, sweep
from .ladder import build_hamiltonian
from .oracles import pendellosung_population, two_level_reduction
from .persist import TEXT_FORMAT, export_spectrogram, write_table
from .physics import coupling_set, electron_from_energy, matched_field
from .propagate import PropagationConfig, centroid_and_spread
from .scenario import InitialSpec, Matching, Scenario, run_scenario

# The workhorse drive: a near-infrared field, moderate strength, phase
# zero, hopping well above the on-site quadratic term.
TRAP_FIELD_V_NM = 1.0
TRAP_PHOTON_EV = 1.54
TRAP_ENERGY_EV = 100.0
PACKET_WIDTH_EV = 7.5

# Weak-field, hard-photon drive where only one sideband pair talks.
BRAGG_ENERGY_EV = 16.0
BRAGG_PHOTON_EV = 4.0
BRAGG_FIELD_V_NM = 0.1

MISMATCH_PERIOD_NM = 23.0


def _packet() -> InitialSpec:
    return InitialSpec(kind="gaussian", width_energy=PACKET_WIDTH_EV,
                       width_convention="fwhm")


def _trap_scenario(initial: InitialSpec, n_max: int, t_end: float,
                   sample: float, phase: float = 0.0,
                   matching: Matching = Matching()) -> Scenario:
    return Scenario(
        kinetic_energy=TRAP_ENERGY_EV,
        amplitude=TRAP_FIELD_V_NM,
        photon_energy=TRAP_PHOTON_EV,
        propagation=PropagationConfig(t_end=t_end, sample_interval=sample),
        initial_phase=phase,
        matching=matching,
        initial=initial,
        n_max=n_max,
    )


def _write_moments(spec, path: Path) -> None:
    m = centroid_and_spread(spec)
    rows = zip(m.times, m.centroid, m.variance, m.n_low, m.n_high)
    write_table(path, ["t_fs", "centroid_n", "variance_n2",
                       "edge_low_n", "edge_high_n"],
                [[float(a), float(b), float(c), int(d), int(e)]
                 for a, b, c, d, e in rows])


def fig1c(out: Path) -> list[Path]:
    """Packet in the trap: spectrogram plus moment/edge traces."""
    sc = _trap_scenario(_packet(), n_max=96, t_end=60.0, sample=0.05)
    spec = run_scenario(sc)
    p1 = out / "fig1c_spectrogram.txt"
    p2 = out / "fig1c_moments.txt"
    export_spectrogram(spec, p1, TEXT_FORMAT)
    _write_moments(spec, p2)
    return [p1, p2]


def fig1d(out: Path) -> list[Path]:
    """Plane-wave start: spread, stall, collapse, repeat."""
    sc = _trap_scenario(InitialSpec(), n_max=128, t_end=60.0, sample=0.02)
    spec = run_scenario(sc)
    p1 = out / "fig1d_spectrogram.txt"
    p2 = out / "fig1d_moments.txt"
    export_spectrogram(spec, p1, TEXT_FORMAT)
    _write_moments(spec, p2)
    return [p1, p2]


def fig2a(out: Path) -> list[Path]:
    """Regime map: on-site/hopping ratio over photon energy and field."""
    photons = np.geomspace(0.5, 20.0, 41)
    fields = np.geomspace(1e-4, 10.0, 41)
    electron = electron_from_energy(TRAP_ENERGY_EV)
    rows = []
    for hw in photons:
        for ef in fields:
            field = matched_field(electron, float(ef), float(hw))
            label = classify_regime(coupling_set(electron, field))
            rows.append([float(hw), float(ef), float(label.rho),
                         float(np.log10(label.rho)), label.label])
    path = out / "fig2a_regime_map.txt"
    write_table(path, ["photon_ev", "field_v_nm", "rho", "log10_rho",
                       "regime"], rows)
    return [path]


def fig2b(out: Path) -> list[Path]:
    """Two-sideband Bragg oscillation with its closed-form overlay."""
    sc = Scenario(
        kinetic_energy=BRAGG_ENERGY_EV,
        amplitude=BRAGG_FIELD_V_NM,
        photon_energy=BRAGG_PHOTON_EV,
        propagation=PropagationConfig(t_end=3500.0, sample_interval=2.0),
        initial=InitialSpec(center=1),
        n_max=12,
    )
    spec = run_scenario(sc)
    p1 = out / "fig2b_spectrogram.txt"
    export_spectrogram(spec, p1, TEXT_FORMAT)

    h = build_hamiltonian(sc.electron(), sc.field(), sc.variant, 12)
    sol = two_level_reduction(h, pair=(1, -1))
    stay, come = pendellosung_population(sol, spec.times - spec.times[0])
    up = spec.populations[:, spec.n_max + 1]
    down = spec.populations[:, spec.n_max - 1]
    rows = [
        [float(t), float(a), float(b), float(1.0 - a - b), float(c), float(d)]
        for t, a, b, c, d in zip(spec.times, up, down, stay, come)
    ]
    p2 = out / "fig2b_pair.txt"
    write_table(p2, ["t_fs", "p_up", "p_down", "leak",
                     "two_level_stay", "two_level_transfer"], rows)
    return [p1, p2]


def _width_columns(axis: str, grid, plane_base: Scenario,
                   packet_base: Scenario) -> list[list]:
    plane_rows = sweep(axis, grid, plane_base, "trap_width")
    packet_rows = sweep(axis, grid, packet_base, "trap_width")
    table = []
    for a, b in zip(plane_rows, packet_rows):
        table.append([float(a.value),
                      float("nan") if a.result is None else float(a.result),
                      float("nan") if b.result is None else float(b.result)])
    return table


def fig3a(out: Path) -> list[Path]:
    """Trap width against beam energy, plane wave and packet."""
    grid = np.arange(20.0, 200.0 + 1.0, 20.0)
    plane = _trap_scenario(InitialSpec(), n_max=None, t_end=60.0, sample=0.05)
    packet = _trap_scenario(_packet(), n_max=None, t_end=60.0, sample=0.05)
    path = out / "fig3a_width_vs_energy.txt"
    write_table(path, ["energy_ev", "width_plane_ev", "width_packet_ev"],
                _width_columns("energy", grid, plane, packet))
    return [path]


def fig3b(out: Path) -> list[Path]:
    """Trap width against drive amplitude at fixed beam energy."""
    grid = np.arange(0.2, 2.0 + 0.01, 0.2)
    plane = _trap_scenario(InitialSpec(), n_max=None, t_end=60.0, sample=0.05)
    packet = _trap_scenario(_packet(), n_max=None, t_end=60.0, sample=0.05)
    path = out / "fig3b_width_vs_field.txt"
    write_table(path, ["field_v_nm", "width_plane_ev", "width_packet_ev"],
                _width_columns("field", grid, plane, packet))
    return [path]


def fig3c(out: Path) -> list[Path]:
    """Trap width against the drive phase seen at injection (packet)."""
    grid = -np.pi + 2.0 * np.pi * np.arange(1, 17) / 16.0
    packet = _trap_scenario(_packet(), n_max=None, t_end=60.0, sample=0.05)
    rows = sweep("phase", grid, packet, "trap_width")
    table = [[float(r.value),
              float("nan") if r.result is None else float(r.result)]
             for r in rows]
    path = out / "fig3c_width_vs_phase.txt"
    write_table(path, ["phase_rad", "width_packet_ev"], table)
    return [path]


def figS1(out: Path) -> list[Path]:
    """Deliberate phase mismatch: lopsided ladder oscillations."""
    sc = _trap_scenario(
        InitialSpec(), n_max=64, t_end=30.0, sample=0.02,
        matching=Matching("grating_period", MISMATCH_PERIOD_NM),
    )
    spec = run_scenario(sc)
    p1 = out / "figS1_spectrogram.txt"
    export_spectrogram(spec, p1, TEXT_FORMAT)

    n = spec.sideband_indices
    p = spec.populations
    m_up = p[:, n > 0] @ n[n > 0].astype(float)
    m_down = p[:, n < 0] @ (-n[n < 0]).astype(float)
    rows = [[float(t), float(a), float(b)]
            for t, a, b in zip(spec.times, m_up, m_down)]
    p2 = out / "figS1_side_moments.txt"
    write_table(p2, ["t_fs", "weight_up", "weight_down"], rows)
    return [p1, p2]


FIGURES = {
    "fig1c": fig1c,
    "fig1d": fig1d,
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig3c": fig3c,
    "figS1": figS1,
}


def make_figure(name: str, out_dir) -> list[Path]:
    if name not in FIGURES:
        raise KeyError(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return FIGURES[name](out)
