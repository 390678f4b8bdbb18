"""Golden outputs: every figure table and the README run's populations
against the pinned references in perfbench/reference/, with the
benchmark's own comparison rule (perfbench/workloads.py)."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from eladder.config import parse_config
from eladder.figures import FIGURES, make_figure
from eladder.scenario import run_scenario

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    for name in sorted(FIGURES):
        make_figure(name, out)
    return {p.name: p for p in sorted(out.iterdir())}


def test_every_preset_writes_the_reference_tables(tables):
    assert sorted(tables) == sorted(workloads.load_reference("figure_presets"))


@pytest.mark.parametrize(
    "name", sorted(workloads.load_reference("figure_presets")))
def test_figure_table_matches_reference(tables, name):
    ref = workloads.load_reference("figure_presets")[name]
    headers, rows = workloads.parse_table(tables[name].read_text())
    assert workloads.compare_table(name, ref, headers, rows) == []


def test_readme_populations_match_reference():
    values = workloads.jittered(workloads.README_INPUT, 0)
    spec = run_scenario(parse_config(workloads.config_text(values)).scenario)
    headers = ["t_fs"] + [str(n) for n in spec.sideband_indices]
    rows = np.column_stack([spec.times, spec.populations]).tolist()
    assert workloads.compare_table("simulate_readme",
                                   workloads.load_reference("simulate_readme"),
                                   headers, rows) == []
