"""Command-line surface: exit codes, output bundles, and the replay loop."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eladder
from eladder import cli, scenario
from eladder.analysis import SWEEP_AXES, SWEEP_OBSERVABLES
from eladder.cli import main
from eladder.errors import (
    ConfigError,
    ExportError,
    InsufficientSpanError,
    IntegrationError,
    LadderError,
    ResourceLimitError,
    SweepError,
    TruncationError,
    ValidationError,
)


CHEAP = """
electron.energy = 100 eV
field.amplitude = 1.0 V/nm
field.photon_energy = 1.54 eV
propagation.t_end = 2 fs
propagation.sample_interval = 0.5 fs
truncation.n_max = 16
"""

README = """
electron.energy = 100 eV
field.amplitude = 1.0 V/nm
field.photon_energy = 1.54 eV
propagation.t_end = 60 fs
propagation.sample_interval = 0.05 fs
"""

BRAGG = """
electron.energy = 16 eV
field.amplitude = 0.1 V/nm
field.photon_energy = 4.0 eV
initial.mode = plane_wave
initial.center = 1
propagation.t_end = 3000 fs
propagation.sample_interval = 4 fs
truncation.n_max = 12
"""


@pytest.fixture
def cheap_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CHEAP)
    return path


class TestSimulate:
    def test_bundle_and_replay(self, cheap_config, tmp_path, capsys):
        out1 = tmp_path / "first"
        assert main(["simulate", str(cheap_config), "--out", str(out1)]) == 0
        stdout = capsys.readouterr().out
        assert "content hash" in stdout
        record1 = json.loads((out1 / "run.record.json").read_text())
        assert (out1 / "run.analysis.json").is_file()

        # feeding the echoed config back reproduces the identical record
        out2 = tmp_path / "second"
        echo_path = out1 / "run.config"
        assert main(["simulate", str(echo_path), "--out", str(out2)]) == 0
        record2 = json.loads((out2 / "run.record.json").read_text())
        assert record1["hash"] == record2["hash"]
        assert record1["populations"] == record2["populations"]

    def test_text_sidecar(self, cheap_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", str(cheap_config), "--out", str(out),
                     "--text"]) == 0
        assert (out / "run.txt").read_text().startswith("t_fs")

    def test_analysis_report_content(self, cheap_config, tmp_path, capsys):
        out = tmp_path / "o"
        main(["simulate", str(cheap_config), "--out", str(out)])
        report = json.loads((out / "run.analysis.json").read_text())
        body = report["analysis"]
        assert body["max_norm_drift"] < 1e-8
        assert body["trap_width_ev"] is not None
        # 2 fs is too short for a revival; the report says so instead of dying
        assert "collapse_times_fs" in body


GAUSSIAN_AUTO = """
electron.energy = 100 eV
field.amplitude = {field} V/nm
field.photon_energy = 1.54 eV
initial.mode = gaussian
initial.width_sidebands = {width}
propagation.t_end = 10 fs
propagation.sample_interval = 1 fs
truncation.n_max = auto
"""


@pytest.mark.parametrize("field", [0, 1])
@pytest.mark.parametrize("width", [4, 6, 10, 20])
def test_gaussian_start_sizes_its_own_lattice(field, width, tmp_path, capsys):
    """The truncation search never returns a lattice the Gaussian builder
    rejects, and never crops the packet it was given."""
    path = tmp_path / "g.cfg"
    path.write_text(GAUSSIAN_AUTO.format(field=field, width=width))
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 0


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CHEAP.replace("100 eV", "100"))
        code = main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: category=validation" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["-5", "0"])
    def test_truncation_cap_below_1_is_2(self, cap, tmp_path, capsys):
        # n_max = auto, so a cap that parsed would fail the search as exit 3
        path = tmp_path / "cap.cfg"
        path.write_text(CHEAP.replace("truncation.n_max = 16",
                                      f"truncation.cap = {cap}"))
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: category=validation truncation cap ")
        assert "at least 1" in err

    @pytest.mark.parametrize("lines", [["truncation.n_max = 5000"],
                                       ["truncation.n_max = 64",
                                        "truncation.cap = 10"]],
                             ids=["default-cap", "cap-10"])
    def test_explicit_n_max_past_cap_is_3(self, lines, tmp_path, capsys,
                                          monkeypatch):
        def no_build(*args):
            raise AssertionError("a lattice past the cap was built")

        monkeypatch.setattr(scenario, "build_hamiltonian", no_build)
        path = tmp_path / "big.cfg"
        path.write_text(CHEAP.replace("truncation.n_max = 16",
                                      "\n".join(lines)))
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: category=numerical n_max ")
        assert "exceeds the truncation cap" in err[0]

    @pytest.mark.parametrize("line", ["propagation.method = banded",
                                      "propagation.method = dense",
                                      "propagation.step_tolerance = 1e-9"])
    def test_retired_propagation_key_is_2(self, line, tmp_path, capsys):
        path = tmp_path / "old.cfg"
        path.write_text(CHEAP + line + "\n")
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: category=validation ")
        assert f"unknown key {line.split(' = ')[0]!r}" in err

    def test_missing_config_is_4(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 4
        assert "error: category=io" in capsys.readouterr().err

    def test_unwritable_output_is_4(self, cheap_config, tmp_path, capsys):
        target = tmp_path / "file.txt"
        target.write_text("in the way")
        code = main(["simulate", str(cheap_config),
                     "--out", str(target / "sub")])
        assert code == 4

    def test_all_failing_sweep_is_3(self, cheap_config, tmp_path, capsys):
        code = main(["sweep", str(cheap_config), "--axis", "energy",
                     "--grid=-1,-2", "--observable", "rho",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "error: category=numerical" in capsys.readouterr().err

    def test_unknown_figure_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9z"])
        assert exc.value.code == 2

    def test_bad_grid_is_2(self, cheap_config, tmp_path, capsys):
        code = main(["sweep", str(cheap_config), "--axis", "energy",
                     "--grid", "1:2", "--observable", "rho",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2

    @pytest.mark.parametrize("grid", ["nan", "inf", "0.5,nan", "0:inf:3",
                                      "nan:1:2:log", "-1e308:1e308:3"])
    def test_non_finite_grid_is_2(self, grid, tmp_path, capsys):
        path = tmp_path / "packet.cfg"
        path.write_text(CHEAP.replace("truncation.n_max = 16\n", "")
                        + "initial.mode = gaussian\ninitial.width = 7.5 eV\n")
        out = tmp_path / "t.csv"
        code = main(["sweep", str(path), "--axis", "phase", f"--grid={grid}",
                     "--observable", "trap_width", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: category=validation bad grid ")
        assert not out.exists()


    NON_FINITE = [
        ("electron.energy", "nan eV"),
        ("field.amplitude", "inf V/nm"),
        ("propagation.t_end", "-inf fs"),
        ("field.phase", "1e308 pi"),      # finite number, overflows in rad
        ("analysis.threshold", "nan"),
        ("propagation.norm_drift_limit", "inf"),
    ]

    @pytest.mark.parametrize("key,value", NON_FINITE)
    def test_non_finite_number_is_2(self, key, value, tmp_path, capsys):
        kept = [ln for ln in CHEAP.splitlines() if not ln.startswith(key + " ")]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: category=validation {key}: ")
        assert "not a finite number" in err

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError(
        "Unable to allocate 16.0 GiB for an array")])
    def test_out_of_memory_is_3(self, error, cheap_config, tmp_path,
                                capsys, monkeypatch):
        def exhaust(scenario):
            raise error
        monkeypatch.setattr(cli, "run_scenario", exhaust)
        code = main(["simulate", str(cheap_config), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: category=numerical out of memory: ")
        assert err.count("\n") == 1
        assert err.split("out of memory: ", 1)[1].strip()


# category and exit code of every package error, as README documents them
DOCUMENTED = {
    ConfigError: ("validation", 2),
    ValidationError: ("validation", 2),
    TruncationError: ("numerical", 3),
    ResourceLimitError: ("numerical", 3),
    IntegrationError: ("numerical", 3),
    InsufficientSpanError: ("numerical", 3),
    SweepError: ("numerical", 3),
    ExportError: ("io", 4),
}


@pytest.mark.parametrize("klass", LadderError.__subclasses__(),
                         ids=lambda k: k.__name__)
def test_error_carries_its_category_and_exit_code(klass, cheap_config,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    category, code = DOCUMENTED[klass]
    assert (klass.category, klass.exit_code) == (category, code)

    def fail(scenario):
        raise klass("boom")
    monkeypatch.setattr(cli, "run_scenario", fail)
    assert main(["simulate", str(cheap_config), "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"error: category={category} boom\n"


class TestSweep:
    def test_rho_table(self, cheap_config, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        code = main(["sweep", str(cheap_config), "--axis", "photon_energy",
                     "--grid", "0.2:20:5:log", "--observable", "rho",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index, photon_energy, rho, error"
        assert len(lines) == 6
        assert "(5 rows, 0 failed)" in capsys.readouterr().out

    def test_partial_failure_is_recorded_in_the_table(self, cheap_config,
                                                      tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        code = main(["sweep", str(cheap_config), "--axis", "energy",
                     "--grid", "100,-5", "--observable", "rho",
                     "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "nan" in body
        assert "positive" in body
        assert "(2 rows, 1 failed)" in capsys.readouterr().out

    def test_choices_are_the_analysis_tuples(self):
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command")
        choices = {a.dest: a.choices for a in sub.choices["sweep"]._actions}
        assert choices["axis"] == SWEEP_AXES
        assert choices["observable"] == SWEEP_OBSERVABLES


class TestClassify:
    def test_trap_point(self, cheap_config, capsys):
        assert main(["classify", str(cheap_config)]) == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"RamanNath \(rho = 0\.00467893\)", out)

    def test_bragg_point(self, tmp_path, capsys):
        path = tmp_path / "b.cfg"
        path.write_text(BRAGG)
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().out.startswith("Bragg (rho = ")


# The Bragg point started at n = 0 on a searched lattice: the two-level
# line's pair run (a plane start at n = 1) shares the run's decomposition
# and prints what a run on its own lattice printed.
BRAGG_AUTO_0 = (BRAGG.replace("initial.center = 1", "initial.center = 0")
                .replace("truncation.n_max = 12\n", ""))
BRAGG_AUTO_0_LINES = [
    r"PASS bessel: max population error \S+ over 67.4 fs \(limit 1e-06\)",
    r"PASS stepper: max population difference 1\.785e-08 at 20 fs "
    r"\(limit 1e-06\)",
    r"PASS two-level: period 1371 fs vs 1362 fs \(0\.7% off, limit 15%\)",
    r"PASS norm: max drift \S+ \(limit 1\.0e-08\)",
]


@pytest.mark.parametrize("command, config, calls, lines", [
    ("simulate", README, [129], None),
    ("oracle-check", README, [97, 129], None),
    ("oracle-check", BRAGG, [97, 25], None),
    ("oracle-check", BRAGG_AUTO_0, [97, 129], BRAGG_AUTO_0_LINES),
], ids=["simulate", "oracle-check", "oracle-check-bragg",
        "oracle-check-bragg-auto-center-0"])
def test_a_command_keeps_no_decomposition(tmp_path, capsys, eigh_calls,
                                          command, config, calls, lines):
    """Run twice in one process, a command makes the same eigh calls and
    prints the same lines, record hash included: no decomposition outlives
    the command that made it, and within it each lattice is solved once
    (on the Bragg configs the stepper, two-level and norm lines share one)."""
    path = tmp_path / "run.cfg"
    path.write_text(config)
    printed = []
    for out in (tmp_path / "first", tmp_path / "second"):
        eigh_calls.clear()
        argv = [command, str(path)]
        if command == "simulate":
            argv += ["--out", str(out)]
        assert main(argv) == 0
        assert eigh_calls == calls
        printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert printed[0] == printed[1]
    if lines is not None:
        assert len(printed[0].splitlines()) == len(lines)
        for got, want in zip(printed[0].splitlines(), lines):
            assert re.fullmatch(want, got)



@pytest.mark.parametrize("name, calls", [
    ("fig3a", [123, 145, 163, 181, 197, 213, 227, 241, 255, 269]),
    ("fig3b", [139, 159, 173, 187, 197, 207, 217, 225, 233, 241]),
])
def test_a_width_figure_solves_each_grid_point_once(tmp_path, eigh_calls,
                                                    name, calls):
    """The plane and packet columns share each grid point's decomposition,
    on the packet's lattice: one eigh call per point, the same calls and the
    same table on a second run in the same process."""
    tables = []
    for out in (tmp_path / "first", tmp_path / "second"):
        eigh_calls.clear()
        assert main(["figure", name, "--out", str(out)]) == 0
        assert eigh_calls == calls
        tables.append([p.read_bytes() for p in sorted(out.iterdir())])
    assert tables[0] == tables[1]


class TestOracleCheck:
    def test_trap_config_passes(self, cheap_config, capsys):
        assert main(["oracle-check", str(cheap_config)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^PASS bessel", out, re.M)
        assert re.search(r"^PASS stepper", out, re.M)
        assert re.search(r"^SKIP two-level", out, re.M)
        assert re.search(r"^PASS norm", out, re.M)

    def test_bragg_config_exercises_two_level(self, tmp_path, capsys):
        path = tmp_path / "b.cfg"
        path.write_text(BRAGG)
        assert main(["oracle-check", str(path)]) == 0
        assert re.search(r"^PASS two-level", capsys.readouterr().out, re.M)


class TestFigure:
    def test_regime_map(self, tmp_path, capsys):
        assert main(["figure", "fig2a", "--out", str(tmp_path)]) == 0
        table = (tmp_path / "fig2a_regime_map.txt").read_text()
        assert table.splitlines()[0].startswith("photon_ev")
        assert "RamanNath" in table and "Bragg" in table


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert re.fullmatch(r"\d+\.\d+\.\d+", capsys.readouterr().out.strip())


def test_cli_import_loads_no_scipy():
    """scipy bundles its own OpenBLAS; loading it next to numpy's makes two
    thread pools compete for the same cores."""
    src = str(Path(eladder.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, eladder.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
