"""Per-layer spans recorded from outside the eladder package.

A Tracer replaces each traced public function under every name it is bound
to in a loaded ``eladder`` module (``eladder.scenario.propagate``,
``eladder.cli.run_scenario``, ``eladder.figures.sweep``, the package-level
re-exports, ...) with a wrapper that records a span: name, start, end and
the span that was open when it was called.  Spans stay in memory; after
each op they are folded into per-function totals and dropped, so a long
run does not grow without bound.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions traced in it.  Layer metrics are named
# "<module>.<function>.<stat>".
TRACED = {
    "config": ("parse_config", "render_config"),
    "physics": ("coupling_set",),
    "ladder": ("build_hamiltonian", "adaptive_truncation"),
    "propagate": ("propagate", "dense_oracle_compare", "centroid_and_spread"),
    "analysis": ("sweep", "trap_width", "collapse_times", "asymmetry"),
    "oracles": ("bessel_population", "two_level_reduction"),
    "scenario": ("run_scenario",),
    "persist": ("record_hash", "write_bundle", "export_spectrogram",
                "write_table"),
    "figures": ("make_figure",),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)
PRESETS = ("fig1c", "fig1d", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c",
           "figS1")

PROPAGATE = "propagate.propagate"
TRUNCATION = "ladder.adaptive_truncation"


def _probe(name: str, args, kwargs, result) -> dict | None:
    """Counts read at the boundary of one call, from its inputs or result."""
    if name == PROPAGATE:
        h = args[0] if args else kwargs["h"]
        return {"dim": int(h.dim), "samples": len(result.times),
                "route": result.metadata.get("method")}
    if name == "analysis.sweep":
        return {"points": len(result),
                "failed": sum(1 for r in result if r.result is None)}
    if name == "figures.make_figure":
        return {"preset": args[0] if args else kwargs["name"]}
    return None


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.s", f"{fn}.self_s"]
    names += [f"{TRUNCATION}.trials", f"{TRUNCATION}.trial_sites",
              f"{TRUNCATION}.accepted_frac",
              f"{PROPAGATE}.sites_x_samples", f"{PROPAGATE}.max_dim",
              f"{PROPAGATE}.route_dense", f"{PROPAGATE}.route_banded",
              "analysis.sweep.points", "analysis.sweep.failed_points",
              "persist.bytes_written"]
    names += [f"figures.make_figure.{p}.s" for p in PRESETS]
    names.append("trace.overhead_frac")
    return names


def metric_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s/op"
    if name.endswith((".calls", ".trials", ".route_dense", ".route_banded",
                      ".points", ".failed_points")):
        return "count/op"
    if name.endswith((".trial_sites", ".sites_x_samples")):
        return "sites/op"
    if name.endswith(".bytes_written"):
        return "bytes/op"
    if name.endswith(".max_dim"):
        return "sites"
    return "ratio"


class Tracer:
    """Installs span-recording wrappers on every binding of the traced
    functions while active, and accumulates per-op totals."""

    def __init__(self) -> None:
        self._spans: list[list] = []
        self._stack: list[int] = []
        self.ops = 0
        self._calls = defaultdict(int)
        self._total = defaultdict(float)
        self._self = defaultdict(float)
        self._counts = defaultdict(float)
        self.max_dim = 0
        # Importing the CLI loads every module that binds a traced function.
        # eladder/__init__ rebinds the name "propagate" to the function, so
        # submodules are reached through sys.modules, not as attributes.
        importlib.import_module("eladder.cli")
        originals = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"eladder.{module}"]
            for fn in names:
                originals[id(getattr(mod, fn))] = f"{module}.{fn}"
        # (module name, namespace dict, attribute, original, wrapper)
        self._bindings = []
        wrappers = {}
        for modname, mod in sorted(sys.modules.items()):
            if modname != "eladder" and not modname.startswith("eladder."):
                continue
            for attr, value in vars(mod).items():
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._bindings.append(
                    (modname, vars(mod), attr, value, wrappers[name]))
        missing = set(originals.values()) - set(wrappers)
        if missing:
            raise RuntimeError(f"no binding found for {sorted(missing)}")

    def bound_names(self) -> set[str]:
        """Qualified attribute names currently bound to a wrapper."""
        return {f"{modname}.{attr}"
                for modname, namespace, attr, _, wrapper in self._bindings
                if namespace[attr] is wrapper}

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    None, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                stack.pop()
                span[2] = perf_counter()
            span[4] = _probe(name, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for _, namespace, attr, _, wrapper in self._bindings:
            namespace[attr] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for _, namespace, attr, original, _ in self._bindings:
            namespace[attr] = original
        self._stack.clear()

    def end_op(self, bytes_written: int) -> None:
        """Fold the spans of one finished op into the run totals."""
        spans = self._spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, info, failed in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, info, failed) in enumerate(spans):
            self._calls[name] += 1
            self._total[name] += t1 - t0
            self._self[name] += t1 - t0 - child_time[i]
            if name == TRUNCATION and not failed:
                self._counts["accepted"] += 1
            trial = (name == PROPAGATE and parent >= 0
                     and spans[parent][0] == TRUNCATION)
            if trial:
                self._counts["trials"] += 1
            if info is None:
                continue
            if name == PROPAGATE:
                self._counts["sites_x_samples"] += info["dim"] * info["samples"]
                self._counts[f"route_{info['route']}"] += 1
                self.max_dim = max(self.max_dim, info["dim"])
                if trial:
                    self._counts["trial_sites"] += info["dim"]
            elif name == "analysis.sweep":
                self._counts["points"] += info["points"]
                self._counts["failed_points"] += info["failed"]
            elif name == "figures.make_figure":
                self._counts[f"preset_{info['preset']}"] += t1 - t0
        self._counts["bytes_written"] += bytes_written
        self.ops += 1
        spans.clear()

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-op averages over every folded op, keyed by metric name."""
        n = max(self.ops, 1)
        c = self._counts
        out = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = self._calls[fn] / n
            out[f"{fn}.s"] = self._total[fn] / n
            out[f"{fn}.self_s"] = self._self[fn] / n
        out[f"{TRUNCATION}.trials"] = c["trials"] / n
        out[f"{TRUNCATION}.trial_sites"] = c["trial_sites"] / n
        out[f"{TRUNCATION}.accepted_frac"] = (
            c["accepted"] / c["trials"] if c["trials"] else 0.0)
        out[f"{PROPAGATE}.sites_x_samples"] = c["sites_x_samples"] / n
        out[f"{PROPAGATE}.max_dim"] = float(self.max_dim)
        out[f"{PROPAGATE}.route_dense"] = c["route_dense"] / n
        out[f"{PROPAGATE}.route_banded"] = c["route_banded"] / n
        out["analysis.sweep.points"] = c["points"] / n
        out["analysis.sweep.failed_points"] = c["failed_points"] / n
        out["persist.bytes_written"] = c["bytes_written"] / n
        for p in PRESETS:
            out[f"figures.make_figure.{p}.s"] = c[f"preset_{p}"] / n
        out["trace.overhead_frac"] = overhead_frac
        return out
