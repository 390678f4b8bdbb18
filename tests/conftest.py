"""Shared scenario runs for the test suite.

The long simulations are session-scoped so the acceptance module and the
unit tests share one run each.  Every fixture returns a TimedRun so the
runtime budget can be checked without re-running anything.
"""
from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np
import pytest

from eladder import (
    ModelVariant,
    Spectrogram,
    coupling_set,
    electron_from_energy,
    matched_field,
)
from eladder.propagate import PropagationConfig
from eladder.scenario import InitialSpec, Matching, Scenario, run_scenario

TRAP_ENERGY = 100.0
TRAP_FIELD = 1.0
TRAP_PHOTON = 1.54

# Verdict lines pushed by the acceptance module; echoed after the run so
# they stay visible regardless of output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class TimedRun(NamedTuple):
    spec: Spectrogram
    seconds: float


def timed(scenario: Scenario) -> TimedRun:
    start = time.perf_counter()
    spec = run_scenario(scenario)
    return TimedRun(spec, time.perf_counter() - start)


def trap_scenario(initial: InitialSpec, n_max: int, t_end: float,
                  sample: float, phase: float = 0.0,
                  variant: ModelVariant | None = None,
                  matching: Matching = Matching()) -> Scenario:
    return Scenario(
        kinetic_energy=TRAP_ENERGY,
        amplitude=TRAP_FIELD,
        photon_energy=TRAP_PHOTON,
        propagation=PropagationConfig(t_end=t_end, sample_interval=sample),
        initial_phase=phase,
        matching=matching,
        variant=variant if variant is not None else ModelVariant.full(),
        initial=initial,
        n_max=n_max,
    )


def packet() -> InitialSpec:
    return InitialSpec(kind="gaussian", width_energy=7.5,
                       width_convention="fwhm")


@pytest.fixture(scope="session")
def trap_electron():
    return electron_from_energy(TRAP_ENERGY)


@pytest.fixture(scope="session")
def trap_field(trap_electron):
    return matched_field(trap_electron, TRAP_FIELD, TRAP_PHOTON)


@pytest.fixture(scope="session")
def trap_couplings(trap_electron, trap_field):
    return coupling_set(trap_electron, trap_field)


@pytest.fixture(scope="session")
def plane_run() -> TimedRun:
    """Plane-wave start in the trap, long span, fine sampling."""
    return timed(trap_scenario(InitialSpec(), 128, 60.0, 0.02))


@pytest.fixture(scope="session")
def packet_run() -> TimedRun:
    """Localized packet in the trap."""
    return timed(trap_scenario(packet(), 96, 60.0, 0.05))


@pytest.fixture(scope="session")
def packet_shifted_run() -> TimedRun:
    """Packet injected near the potential minimum (phase +pi/2)."""
    return timed(trap_scenario(packet(), 96, 60.0, 0.05, phase=np.pi / 2))


@pytest.fixture(scope="session")
def simplified_run() -> TimedRun:
    """Symmetric reduced model on the trap drive."""
    return timed(trap_scenario(InitialSpec(), 128, 20.0, 0.05,
                               variant=ModelVariant.simplified()))


@pytest.fixture(scope="session")
def bragg_scenario() -> Scenario:
    return Scenario(
        kinetic_energy=16.0,
        amplitude=0.1,
        photon_energy=4.0,
        propagation=PropagationConfig(t_end=3500.0, sample_interval=2.0),
        initial=InitialSpec(center=1),
        n_max=12,
    )


@pytest.fixture(scope="session")
def bragg_run(bragg_scenario) -> TimedRun:
    """Weak hard-photon drive: one sideband pair exchanging population."""
    return timed(bragg_scenario)


@pytest.fixture(scope="session")
def mismatched_run() -> TimedRun:
    """Grating period detuned off the matched value: tilted ladder."""
    return timed(trap_scenario(InitialSpec(), 64, 30.0, 0.02,
                               matching=Matching("grating_period", 23.0)))


@pytest.fixture(scope="session")
def mismatched_control_run() -> TimedRun:
    """Same tilt with the quadratic term switched off: pure ladder drop."""
    sc = trap_scenario(InitialSpec(), 64, 30.0, 0.02,
                       variant=ModelVariant.simplified(quadratic_scale=0.0),
                       matching=Matching("grating_period", 23.0))
    return timed(sc)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record the dimension of every numpy.linalg.eigh call: one per
    decompose."""
    calls = []
    eigh = np.linalg.eigh

    def counted(m):
        calls.append(m.shape[0])
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls
