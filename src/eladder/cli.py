"""Command-line front end.

Subcommands:
  simulate     run one configuration, write the output bundle
  sweep        scan one parameter axis, write a table file
  classify     print the coupling-regime label for a configuration
  oracle-check compare the propagator against its closed-form checks
  figure       regenerate the pinned data files for a named figure

Exit codes: 0 success, 2 configuration or validation problem, 3 numerical
failure (integration, span, sweep, out of memory), 4 I/O failure.  Each
package error carries its own category and exit code.  Argparse usage
errors exit with 2 as usual.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .constants import HBAR
from .analysis import (
    asymmetry,
    classify_regime,
    collapse_times,
    population_transfer,
    sweep,
    trap_width,
)
from .config import RunConfig, parse_config, render_config
from .errors import ConfigError, ExportError, InsufficientSpanError, LadderError
from .figures import FIGURES, make_figure
from .ladder import ModelVariant, build_hamiltonian, initial_plane_wave
from .oracles import (
    BesselSolution,
    bessel_population,
    two_level_reduction,
)
from .persist import TEXT_FORMAT, export_spectrogram, write_bundle, write_table
from .physics import coupling_set
from .propagate import (PropagationConfig, decompose, dense_oracle_compare,
                        propagate)
from .scenario import decompose_scenario, run_scenario

NUMERICAL_EXIT = 3
IO_EXIT = 4


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ExportError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _analysis_report(spec, threshold: float) -> dict:
    """Best-effort summary; unavailable entries carry the reason."""
    report: dict = {"max_norm_drift": float(spec.norm_drift_series.max())}
    try:
        tw = trap_width(spec, threshold)
        report["trap_width_ev"] = tw.width
        report["trap_edges_n"] = [tw.n_min, tw.n_max]
    except LadderError as exc:
        report["trap_width_ev"] = None
        report["trap_width_error"] = str(exc)
    try:
        times = collapse_times(spec)
        report["collapse_times_fs"] = [float(t) for t in times]
    except LadderError as exc:
        report["collapse_times_fs"] = None
        report["collapse_error"] = str(exc)
    try:
        asym = asymmetry(spec, float(spec.times[-1]))
        report["final_asymmetry_n"] = asym.delta_n
    except LadderError as exc:
        report["final_asymmetry_n"] = None
        report["asymmetry_error"] = str(exc)
    return report


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = run_scenario(cfg.scenario)
    echo = render_config(cfg)
    report = _analysis_report(spec, cfg.threshold)
    bundle = write_bundle(args.out, args.stem, spec, echo, report)
    if args.text:
        export_spectrogram(spec, Path(args.out) / f"{args.stem}.txt",
                           TEXT_FORMAT)
    print(f"wrote {bundle.spectrogram_path}")
    print(f"wrote {bundle.analysis_path}")
    print(f"wrote {bundle.config_path}")
    print(f"content hash {bundle.content_hash}")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: comma list, or start:stop:count, or start:stop:count:log."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad grid {text!r}; use start:stop:count[:log]")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad grid {text!r}") from None
        if count < 1:
            raise ConfigError("grid count must be >= 1")
        if len(parts) == 4:
            if parts[3] != "log":
                raise ConfigError(f"bad grid suffix {parts[3]!r}")
            if start <= 0 or stop <= 0:
                raise ConfigError("log grid needs positive endpoints")
            return np.geomspace(start, stop, count)
        return np.linspace(start, stop, count)
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"bad grid {text!r}") from None


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    grid = _parse_grid(args.grid)
    rows = sweep(args.axis, grid, cfg.scenario, args.observable,
                 threshold=cfg.threshold)
    table = [
        [r.index, r.value,
         float("nan") if r.result is None else r.result,
         r.error or ""]
        for r in rows
    ]
    write_table(args.out, ["index", args.axis, args.observable, "error"],
                table)
    failed = sum(1 for r in rows if r.result is None)
    print(f"wrote {args.out} ({len(rows)} rows, {failed} failed)")
    return 0


def cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    sc = cfg.scenario
    label = classify_regime(coupling_set(sc.electron(), sc.field()))
    print(f"{label.label} (rho = {label.rho:.6g})")
    return 0


def _check_line(name: str, ok: bool | None, detail: str) -> bool:
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    print(f"{status} {name}: {detail}")
    return ok is not False


def cmd_oracle_check(args) -> int:
    cfg = _load_config(args.config)
    sc = cfg.scenario
    electron, field = sc.electron(), sc.field()
    cs = coupling_set(electron, field)
    all_ok = True

    # 1. Hopping-only ladder against the closed-form sideband comb.
    flat = ModelVariant.simplified(detuning_override=0.0, quadratic_scale=0.0)
    if cs.kappa_mag == 0.0:
        all_ok &= _check_line("bessel", None, "zero field, nothing to compare")
    else:
        t_star = 4.0 * HBAR / (2.0 * cs.kappa_mag)
        t_end = min(sc.propagation.t_end, t_star)
        n_chk = 48
        h = build_hamiltonian(electron, field, flat, n_chk)
        state = initial_plane_wave(n_chk)
        spec = propagate(decompose(h), state, PropagationConfig(
            t_end=t_end, sample_interval=t_end / 16.0))
        sol = BesselSolution(cs.kappa_mag)
        worst = 0.0
        orders = np.arange(-n_chk, n_chk + 1)
        for i, t in enumerate(spec.times):
            ref = bessel_population(sol, orders, float(t - spec.times[0]))
            worst = max(worst, float(np.abs(spec.populations[i] - ref).max()))
        all_ok &= _check_line("bessel", worst < 1e-6,
                              f"max population error {worst:.3e} over "
                              f"{t_end:.3g} fs (limit 1e-06)")

    # 2. Banded Chebyshev series against exact diagonalization, on the
    # configured run's own decomposition; every later check shares it.
    run = decompose_scenario(sc)
    t_cmp = min(sc.propagation.t_end, 20.0)
    err = dense_oracle_compare(
        run, sc.initial.build(run.n_max, sc.photon_energy), t_cmp)
    all_ok &= _check_line("stepper", err < 1e-6,
                          f"max population difference {err:.3e} at "
                          f"{t_cmp:.3g} fs (limit 1e-06)")

    # 3. Two-level reduction, only meaningful deep in the pair-coupled regime.
    if cs.nath_rho is not None and cs.nath_rho > 10.0:
        sol = two_level_reduction(run.h, pair=(1, -1))
        spec = propagate(run, initial_plane_wave(run.n_max, 1),
                         sc.propagation, metadata={"beta": cs.beta})
        try:
            transfer = population_transfer(spec, target=-1, pair=(1, -1))
            if transfer.periods:
                measured = float(np.mean(transfer.periods))
                rel = abs(measured - sol.period) / sol.period
                all_ok &= _check_line(
                    "two-level", rel < 0.15,
                    f"period {measured:.4g} fs vs {sol.period:.4g} fs "
                    f"({100 * rel:.1f}% off, limit 15%)")
            else:
                all_ok &= _check_line(
                    "two-level", None,
                    "span too short for a full transfer period")
        except InsufficientSpanError as exc:
            all_ok &= _check_line("two-level", None, str(exc))
    else:
        rho_text = "undefined" if cs.nath_rho is None else f"{cs.nath_rho:.3g}"
        all_ok &= _check_line("two-level", None,
                              f"rho = {rho_text}, pair coupling not isolated")

    # 4. Norm conservation on the configured run itself.
    spec = run_scenario(sc, run)
    drift = float(spec.norm_drift_series.max())
    limit = sc.propagation.norm_drift_limit
    all_ok &= _check_line("norm", drift <= limit,
                          f"max drift {drift:.3e} (limit {limit:.1e})")

    if not all_ok:
        print("oracle check failed", file=sys.stderr)
        return NUMERICAL_EXIT
    return 0


def cmd_figure(args) -> int:
    paths = make_figure(args.name, args.out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eladder",
        description="Sideband-ladder dynamics of slow electrons in a "
                    "velocity-matched optical field.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration")
    p.add_argument("config", help="path to a key=value config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--stem", default="run", help="basename for output files")
    p.add_argument("--text", action="store_true",
                   help="also write a delimited-text spectrogram")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="scan one parameter axis")
    p.add_argument("config", help="base configuration")
    p.add_argument("--axis", required=True,
                   choices=["energy", "field", "phase", "photon_energy"])
    p.add_argument("--grid", required=True,
                   help="comma list or start:stop:count[:log]")
    p.add_argument("--observable", required=True,
                   choices=["trap_width", "revival_period", "rho"])
    p.add_argument("--out", required=True, help="table file to write")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("classify", help="print the coupling-regime label")
    p.add_argument("config")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle-check",
                       help="compare the propagator against closed forms")
    p.add_argument("config")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("figure", help="regenerate pinned figure data")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--out", default="figures", help="output directory")
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LadderError as exc:
        print(f"error: category={exc.category} {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: category=numerical out of memory: "
              f"{str(exc) or 'allocation failed'}", file=sys.stderr)
        return NUMERICAL_EXIT
    except OSError as exc:
        print(f"error: category=io {exc}", file=sys.stderr)
        return IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
