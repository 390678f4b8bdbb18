"""Regenerate the stored reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Runs the simulate workloads at seed 0 and the figure presets once, and
stores each output table as sampled rows plus column sums.  Rerun only when
a change to the program is meant to change its outputs, and say so.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import workloads as wl

    work = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for cls in (wl.SimulateReadme, wl.SimulateWide, wl.FigurePresets):
            w = cls(0, work / cls.name)
            _, _, error = run.run_cli(w.argvs, timeout=600)
            if error:
                raise SystemExit(f"{cls.name}: {error}")
            if cls is wl.FigurePresets:
                ref = {}
                for path in w.output_files():
                    headers, rows = wl.parse_table(path.read_text())
                    ref[path.name] = wl.table_reference(headers, rows)
            else:
                spec = wl.parse_record(
                    (w.out / "run.record.json").read_text())
                rows = np.column_stack([spec.times, spec.populations]).tolist()
                headers = ["t_fs"] + [str(n) for n in spec.sideband_indices]
                ref = wl.table_reference(headers, rows)
            path = wl.REFERENCE_DIR / f"{cls.name}.json"
            path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
