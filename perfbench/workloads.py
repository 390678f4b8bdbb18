"""The benchmark's workloads: inputs made from a seed, the CLI commands that
make up one op, and the checks on every op's outputs.

Why these four (see README.md in this directory for the full notes):

* simulate_readme -- the README run; persistence dominates it.
* simulate_wide   -- a wide lattice with a four-trial truncation search and
  a dense propagation at dimension 1025; truncation and the eigensolve
  dominate it.
* figure_presets  -- all eight figure presets; many small propagations,
  the regime map, sweeps and text tables, and no truncation search.
* oracle_check    -- the only command that runs the banded RK4 route.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np

from eladder.config import parse_config
from eladder.figures import FIGURES
from eladder.persist import parse_record

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Seeds other than 0 scale the electron energy and the field amplitude by
# independent factors in [1 - JITTER, 1 + JITTER].  At 2% the edge tails
# that decide the truncation search stay at least seven decades away from
# its 1e-10 guard, so lattice sizes and trial counts do not move; the
# traced warm-up op of every run verifies that.
JITTER = 0.02

# Reference comparison: |actual - reference| <= ATOL + RTOL * |reference|
# per cell, and per-column sums within RTOL and ATOL * rows.  Loose enough
# for eigensolver roundoff, tight against any change of the physics.
RTOL = 1e-6
ATOL = 1e-9
REFERENCE_ROWS = 24

README_INPUT = {"energy": 100.0, "field": 1.0, "photon": 1.54,
                "t_end": 60.0, "sample": 0.05, "n_max": None}
WIDE_INPUT = {"energy": 200.0, "field": 4.0, "photon": 0.8,
              "t_end": 60.0, "sample": 0.5, "n_max": "auto"}

ORACLE_LINES = [("PASS", "bessel"), ("PASS", "stepper"),
                ("SKIP", "two-level"), ("PASS", "norm")]


def jittered(nominal: dict, seed: int) -> dict:
    """The nominal inputs at seed 0; energy and field jittered otherwise."""
    values = dict(nominal)
    if seed != 0:
        rng = random.Random(seed)
        values["energy"] *= 1.0 + rng.uniform(-JITTER, JITTER)
        values["field"] *= 1.0 + rng.uniform(-JITTER, JITTER)
    return values


def config_text(v: dict) -> str:
    lines = [
        f"electron.energy = {v['energy']!r} eV",
        f"field.amplitude = {v['field']!r} V/nm",
        f"field.photon_energy = {v['photon']!r} eV",
        f"propagation.t_end = {v['t_end']!r} fs",
        f"propagation.sample_interval = {v['sample']!r} fs",
    ]
    if v["n_max"] is not None:
        lines.append(f"truncation.n_max = {v['n_max']}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# tables: a compact reference (sampled rows plus column sums) and the check


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str) -> tuple[list[str], list[list]]:
    """Headers and rows of a comma-separated table written by eladder."""
    lines = text.splitlines()
    headers = [h.strip() for h in lines[0].split(",")]
    rows = [[_cell(c.strip()) for c in ln.split(",")] for ln in lines[1:] if ln]
    return headers, rows


def _sample_index(n_rows: int) -> list[int]:
    stride = max(1, math.ceil(n_rows / REFERENCE_ROWS))
    index = list(range(0, n_rows, stride))
    if index[-1] != n_rows - 1:
        index.append(n_rows - 1)
    return index


def _column_sums(rows: list[list]) -> list:
    sums = []
    for col in zip(*rows):
        numeric = all(isinstance(c, float) for c in col)
        sums.append(math.fsum(col) if numeric else None)
    return sums


def _stored(value):
    if isinstance(value, float) and abs(value) < 1e-13:
        return 0.0
    return float(f"{value:.12g}") if isinstance(value, float) else value


def table_reference(headers, rows) -> dict:
    return {
        "headers": headers,
        "n_rows": len(rows),
        "sample_index": _sample_index(len(rows)),
        "sampled_rows": [[_stored(c) for c in rows[i]]
                         for i in _sample_index(len(rows))],
        "column_sums": [None if s is None else _stored(s)
                        for s in _column_sums(rows)],
    }


def _close(a, b, atol: float) -> bool:
    if isinstance(b, str) or isinstance(a, str):
        return a == b
    return bool(np.isclose(a, b, rtol=RTOL, atol=atol, equal_nan=True))


def compare_table(label: str, ref: dict, headers, rows) -> list[str]:
    if headers != ref["headers"] or len(rows) != ref["n_rows"]:
        return [f"{label}: shape {len(rows)}x{len(headers)} differs from the "
                f"reference {ref['n_rows']}x{len(ref['headers'])}"]
    problems = []
    for i, want in zip(ref["sample_index"], ref["sampled_rows"]):
        for j, (a, b) in enumerate(zip(rows[i], want)):
            if not _close(a, b, ATOL):
                problems.append(f"{label}: row {i} column {headers[j]} is "
                                f"{a!r}, reference {b!r}")
                break
    for j, (a, b) in enumerate(zip(_column_sums(rows), ref["column_sums"])):
        if (a is None) != (b is None) or (
                b is not None and not _close(a, b, ATOL * len(rows))):
            problems.append(f"{label}: column {headers[j]} sums to {a!r}, "
                            f"reference {b!r}")
    return problems[:5]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# workloads


class Workload:
    """One workload bound to a seed and a private working directory.

    An op runs every argv in `argvs` through eladder.cli.main in turn.
    `digest` identifies an op's outputs: every op of a run, traced or not,
    must produce the warm-up op's digest.  `expect` holds the traced shape
    of one op (truncation trials, widest lattice, banded propagations),
    which jitter must not change.
    """

    name = ""
    expect: dict = {}

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.argvs: list[list[str]] = []

    def output_files(self) -> list[Path]:
        return sorted(p for p in self.out.iterdir() if p.is_file())

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.output_files())

    def digest(self, stdout: str) -> str:
        raise NotImplementedError

    def check(self, stdout: str) -> list[str]:
        """Checks made on every op."""
        return []

    def check_first(self, stdout: str, run_cli) -> list[str]:
        """Further checks made once per run, on the warm-up op."""
        return []


class Simulate(Workload):
    nominal: dict = {}
    text = False
    n_max = 0
    samples = 0

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.config = work / "input.cfg"
        self.config.write_text(config_text(jittered(self.nominal, seed)))
        self.drift_limit = parse_config(
            self.config.read_text()).scenario.propagation.norm_drift_limit
        argv = ["simulate", str(self.config), "--out", str(self.out),
                "--stem", "run"]
        self.argvs = [argv + ["--text"] if self.text else argv]

    def digest(self, stdout: str) -> str:
        found = re.search(r"content hash ([0-9a-f]{64})", stdout)
        parts = [found.group(1) if found else "missing"]
        if self.text:
            parts.append(_sha256_files([self.out / "run.txt"]))
        return " ".join(parts)

    def check(self, stdout: str) -> list[str]:
        report = json.loads((self.out / "run.analysis.json").read_text())
        problems = []
        if report["content_hash"] not in stdout:
            problems.append("analysis.json hash differs from the printed hash")
        drift = report["analysis"]["max_norm_drift"]
        if not drift <= self.drift_limit:
            problems.append(f"norm drift {drift} exceeds {self.drift_limit}")
        return problems

    def check_first(self, stdout: str, run_cli) -> list[str]:
        problems = []
        spec = parse_record((self.out / "run.record.json").read_text())
        if spec.n_max != self.n_max or len(spec.times) != self.samples:
            problems.append(f"lattice n_max {spec.n_max} with "
                            f"{len(spec.times)} samples, expected "
                            f"{self.n_max} with {self.samples}")
        if self.text:
            headers, rows = parse_table((self.out / "run.txt").read_text())
            if len(rows) != self.samples or len(headers) != 2 * self.n_max + 2:
                problems.append("text export has the wrong shape")
        if self.seed == 0:
            rows = np.column_stack([spec.times, spec.populations]).tolist()
            problems += compare_table(f"{self.name} populations",
                                      load_reference(self.name), ["t_fs"] +
                                      [str(n) for n in spec.sideband_indices],
                                      rows)
        replay = self.work / "replay"
        _, replay_out, error = run_cli([[
            "simulate", str(self.out / "run.config"), "--out", str(replay),
            "--stem", "run"]])
        if error or self.digest(stdout).split()[0] not in replay_out:
            problems.append(f"replaying the config echo changed the record "
                            f"hash {error or ''}".strip())
        return problems


class SimulateReadme(Simulate):
    name = "simulate_readme"
    nominal = README_INPUT
    text = True
    n_max = 64
    samples = 1201
    expect = {"trials": 1, "max_dim": 129, "route_banded": 0}


class SimulateWide(Simulate):
    name = "simulate_wide"
    nominal = WIDE_INPUT
    n_max = 512
    samples = 121
    expect = {"trials": 4, "max_dim": 1025, "route_banded": 0}


class FigurePresets(Workload):
    """All eight presets in one op.  The presets take no input, so the
    seed changes nothing and the reference applies at every seed."""

    name = "figure_presets"
    expect = {"trials": 0, "max_dim": 269, "route_banded": 0}

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.argvs = [["figure", name, "--out", str(self.out)]
                      for name in sorted(FIGURES)]

    def digest(self, stdout: str) -> str:
        return _sha256_files(self.output_files())

    def check_first(self, stdout: str, run_cli) -> list[str]:
        ref = load_reference(self.name)
        names = [p.name for p in self.output_files()]
        if names != sorted(ref):
            return [f"tables {names} differ from the reference {sorted(ref)}"]
        problems = []
        for path in self.output_files():
            headers, rows = parse_table(path.read_text())
            problems += compare_table(path.name, ref[path.name], headers, rows)
        return problems


class OracleCheck(Workload):
    name = "oracle_check"
    expect = {"trials": 1, "max_dim": 129, "route_banded": 0}

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.config = work / "input.cfg"
        self.config.write_text(config_text(jittered(README_INPUT, seed)))
        self.argvs = [["oracle-check", str(self.config)]]

    def digest(self, stdout: str) -> str:
        return hashlib.sha256(stdout.encode()).hexdigest()

    def check(self, stdout: str) -> list[str]:
        lines = [tuple(ln.split(":")[0].split(" ", 1))
                 for ln in stdout.splitlines()]
        if lines != ORACLE_LINES:
            return [f"oracle-check printed {lines}, expected {ORACLE_LINES}"]
        return []


WORKLOADS = {w.name: w for w in (SimulateReadme, SimulateWide, FigurePresets,
                                 OracleCheck)}
