"""Run every workload, print every metric by name with its unit, and write
a result file that records the machine and software it ran on.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--out FILE]

Each workload runs twice, each time in a fresh process: untraced for the
end-to-end metrics, then traced for the per-layer metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS copy bundled with numpy and scipy."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in _THREAD_QUERIES:
                if hasattr(lib, symbol):
                    query = getattr(lib, symbol)
                    query.restype = ctypes.c_int
                    found[Path(path).name] = query()
                    break
    return found


def _git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                               cwd=str(ROOT), capture_output=True, text=True,
                               check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head.stdout.strip() + (" with uncommitted src changes"
                                  if dirty.stdout.strip() else "")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         name, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{name} --trace {trace} exited with "
                         f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def report(name: str, plain: dict, traced: dict) -> None:
    d, r = plain["detail"], plain["result"]
    m = r["metrics"]
    notes = {
        "op_s": f"median of {d['op_s_samples']} ops",
        "op_s_tail": f"p{d['op_s_tail_percentile']:.1f} of "
                     f"{d['op_s_samples']} ops",
        "setup_s": f"median of {len(d['setup_seconds'])} fresh processes",
        "peak_rss_mb": "workload process",
    }
    print(f"{name}")
    for metric in BENCH["end_to_end"]:
        key = metric["name"]
        print(f"  {key:<14} {m[key]['value']:>12.6g} {m[key]['unit']:<6} "
              f"{notes[key]}")
    print(f"  {'failed_frac':<14} {d['failed_frac']:>12.6g} {'ratio':<6} "
          f"{r['failed']} of {r['attempted']} ops")
    t = traced["result"]
    print(f"  per-layer, traced ({traced['detail']['traced_ops']} ops; "
          f"{t['failed']} of {t['attempted']} ops failed):")
    for key, value in t["metrics"].items():
        if value["value"]:
            print(f"    {key:<44} {value['value']:>14.6g} {value['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--out", help="write the result file here")
    args = parser.parse_args()

    results = {"environment": environment(),
               "settings": {"seed": args.seed, "seconds": args.seconds},
               "workloads": {}}
    for w in BENCH["workloads"]:
        plain = run_workload(w["name"], args.seed, args.seconds, 0)
        traced = run_workload(w["name"], args.seed, args.seconds, 1)
        report(w["name"], plain, traced)
        results["workloads"][w["name"]] = {"end_to_end": plain,
                                           "per_layer": traced}
    print(json.dumps(results["environment"]))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {args.out}")
    failed = sum(r["end_to_end"]["result"]["failed"]
                 + r["per_layer"]["result"]["failed"]
                 for r in results["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
