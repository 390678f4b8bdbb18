"""The benchmark's own test: binding coverage, span counts, the per-op
timeout, and agreement with BENCHMARK.json.

    python3 perfbench/selftest.py

Takes about a minute.  It is a script rather than a pytest module so that
the repository's test suite does not collect it.
"""
from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys

import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=170,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import importlib

    import eladder
    import spans
    from workloads import README_INPUT, WORKLOADS, config_text

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the four workloads")
    check([m["name"] for m in bench["per_layer"]] == spans.metric_names(),
          "BENCHMARK.json lists every per-layer metric")

    # Every binding of a traced function is wrapped, and restored after.
    prop = importlib.import_module("eladder.propagate")
    original = prop.propagate
    names = ["eladder.scenario.propagate", "eladder.cli.run_scenario",
             "eladder.figures.sweep", "eladder.propagate",
             "eladder.propagate.propagate", "eladder.analysis.run_scenario",
             "eladder.cli.parse_config", "eladder.persist.record_hash"]
    tracer = spans.Tracer()
    with tracer:
        bound = tracer.bound_names()
        check(all(n in bound for n in names),
              "wrappers cover every import binding, e.g. " + ", ".join(names))
        check(eladder.propagate is prop.propagate is not original,
              "package re-export and module attribute share one wrapper")
    check(prop.propagate is original and not tracer.bound_names(),
          "leaving the tracer restores every binding")

    # An op on an hours-long route ends at the timeout as a failure.
    work = run.ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "rk4.cfg"
    cfg.write_text(config_text(README_INPUT) + "truncation.n_max = 600\n")
    elapsed, _, error = run.run_cli(
        [["simulate", str(cfg), "--out", str(work / "out")]], timeout=2.0)
    check(error is not None and "exceeded" in error and elapsed < 10.0,
          f"dim 1201 on the RK4 route stops at the timeout ({elapsed:.1f} s)")

    # Span counts at the seed, with traced and untraced outputs identical
    # (every op is checked against the warm-up op's outputs).
    expected_names = set(spans.metric_names())
    per_op = {}
    for workload, seed in [("simulate_readme", 0), ("simulate_wide", 0),
                           ("simulate_wide", 7), ("figure_presets", 0),
                           ("oracle_check", 5)]:
        result = traced_run(workload, seed)
        label = f"{workload} seed {seed}"
        check(result["correct"] and result["failed"] == 0,
              f"{label}: every op passes its checks, traced or not")
        check(set(result["metrics"]) == expected_names,
              f"{label}: reports every per-layer metric")
        per_op[label] = {k: v["value"] for k, v in result["metrics"].items()}

    trials = "ladder.adaptive_truncation.trials"
    check(per_op["simulate_wide seed 0"][trials] == 4,
          "simulate_wide: 4 truncation trials per op")
    check(per_op["simulate_wide seed 7"][trials] == 4,
          "simulate_wide: still 4 trials at a jittered seed")
    check(per_op["simulate_readme seed 0"][trials] == 1,
          "simulate_readme: 1 truncation trial per op")
    check(per_op["figure_presets seed 0"]
          ["ladder.adaptive_truncation.calls"] == 0,
          "figure_presets: no truncation search")
    for label in ("simulate_readme seed 0", "simulate_wide seed 0"):
        check(per_op[label]["persist.record_hash.calls"] == 2,
              f"{label}: record_hash runs twice per simulate")
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        work.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
