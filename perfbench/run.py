"""Run one benchmark workload against the eladder CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The loop is closed with one client:
one CLI command at a time through eladder.cli.main, in this process, with
no added threads.  Before timing, one warm-up op runs with tracing on; it
gets the once-per-run output checks and must show the workload's expected
lattice sizes and truncation trials.

--trace 0 times untraced ops for at least S seconds and at least
MIN_TIMED_OPS ops, and reports the end-to-end metrics.  --trace 1
alternates untraced and traced ops and reports the per-layer metrics.
Every op's outputs are checked; a check that fails, a nonzero exit, an
exception or the per-op timeout counts the op as failed.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_TIMED_OPS = 11      # the tail percentile needs ten samples beyond it
MIN_TRACED_OPS = 3      # per side, when tracing
OP_TIMEOUT_S = 30.0     # an op this slow has taken an hours-long route
RUN_LIMIT_S = 100.0     # start no op after this, so the run ends in time
SETUP_REPEATS = 5

# A fresh interpreter runs this up to the point where the CLI would start
# the op: import, argument parsing, and reading and parsing the config.
# perf_counter is CLOCK_MONOTONIC on Linux, so the parent can subtract its
# own start time from the printed value.
SETUP_CHILD = """\
import sys, time
from pathlib import Path
import eladder.cli
from eladder.config import parse_config
args = eladder.cli.build_parser().parse_args(sys.argv[1:])
if hasattr(args, "config"):
    parse_config(Path(args.config).read_text(encoding="utf-8"))
print(repr(time.perf_counter()))
"""


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:g} s")


def run_cli(argvs, timeout: float = OP_TIMEOUT_S):
    """Run each argv through eladder.cli.main; return (seconds, stdout,
    error or None).  Only the CLI calls are inside the timed region."""
    import eladder.cli

    out = io.StringIO()
    error = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            for argv in argvs:
                code = eladder.cli.main(argv)
                if code != 0:
                    error = f"exit code {code} from {' '.join(argv[:2])}"
                    break
    except OpTimeout as exc:
        error = str(exc)
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return elapsed, out.getvalue(), error


class Runner:
    """Runs ops of one workload and checks each against the warm-up op."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_digest = None

    def op(self, tracer=None, first=False) -> float:
        w = self.workload
        for p in w.output_files():
            p.unlink()
        self.attempted += 1
        with tracer or contextlib.nullcontext():
            elapsed, stdout, error = run_cli(w.argvs)
        problems = [error] if error else []
        if not error:
            try:
                problems += w.check(stdout)
                digest = w.digest(stdout)
                if first:
                    self.reference_digest = digest
                    problems += w.check_first(stdout, run_cli)
                elif digest != self.reference_digest:
                    problems.append("outputs differ from the warm-up op's")
            except Exception:
                problems.append(traceback.format_exc(limit=3))
        if tracer is not None:
            tracer.end_op(w.bytes_written())
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))
            print(f"failed op {self.attempted}: {problems}", file=sys.stderr)
        return elapsed

    def warm_up(self, spans) -> None:
        """First op, traced: once-per-run checks and the expected shape."""
        tracer = spans.Tracer()
        self.op(tracer, first=True)
        m = tracer.metrics(0.0)
        seen = {"trials": m[f"{spans.TRUNCATION}.trials"],
                "max_dim": m[f"{spans.PROPAGATE}.max_dim"],
                "route_banded": m[f"{spans.PROPAGATE}.route_banded"]}
        if seen != self.workload.expect:
            self.failures.append(f"warm-up shape {seen}, expected "
                                 f"{self.workload.expect}")
            print(self.failures[-1], file=sys.stderr)


def setup_seconds(workload) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *workload.argvs[0]],
            env=env, cwd=str(workload.work), capture_output=True, text=True,
            timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (value, percentile).  With eleven samples or fewer that is the minimum."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    from workloads import WORKLOADS

    start = perf_counter()
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        setup = [] if trace else setup_seconds(workload)
        runner = Runner(workload)
        runner.warm_up(spans)
        tracer = spans.Tracer() if trace else None
        plain: list[float] = []
        traced: list[float] = []
        t0 = perf_counter()
        while perf_counter() - start < RUN_LIMIT_S:
            if trace:
                enough = min(len(plain), len(traced)) >= MIN_TRACED_OPS
            else:
                enough = len(plain) >= MIN_TIMED_OPS
            if enough and perf_counter() - t0 >= seconds:
                break
            if trace and len(traced) < len(plain):
                traced.append(runner.op(tracer))
            else:
                plain.append(runner.op())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    detail = {"workload": name, "seed": seed, "trace": int(trace),
              "untraced_ops": len(plain), "traced_ops": len(traced),
              "failures": runner.failures[:10]}
    if trace:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        values = tracer.metrics(overhead)
        metrics = {k: {"value": values[k], "unit": spans.metric_unit(k)}
                   for k in spans.metric_names()}
    else:
        tail_value, tail_pct = tail(plain)
        detail.update(op_s_samples=len(plain), op_s_tail_percentile=tail_pct,
                      op_seconds=plain, setup_seconds=setup)
        metrics = {
            "op_s": {"value": statistics.median(plain), "unit": "s"},
            "op_s_tail": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
    failed = len(runner.failures)
    detail["failed_frac"] = failed / runner.attempted
    return {"detail": detail,
            "result": {"correct": failed == 0, "attempted": runner.attempted,
                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eladder" / "__init__.py").is_file():
        print(f"error: no eladder sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eladder

    if Path(eladder.__file__).resolve().parent != SRC / "eladder":
        print(f"error: eladder imported from {eladder.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
