"""Flat key = value configuration files with mandatory units.

Grammar: one `key = value` per line, `#` starts a comment, keys are
dotted lowercase names.  Every physical quantity carries a unit token
("field.amplitude = 1.0 V/nm"); a missing or wrong-dimension unit, or a
number that is not finite, is a parse error naming the key.  Unknown keys are rejected.  Parsing applies
all defaults, and `render_config` writes the fully resolved configuration
back out in canonical form; feeding that echo through `parse_config`
reproduces the RunConfig exactly.

Required keys: electron.energy, field.amplitude, one of
field.photon_energy / field.wavelength, and propagation.t_end.
Everything else has a default.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import POPULATION_THRESHOLD
from .errors import ConfigError
from .ladder import ModelVariant
from .physics import photon_energy_from_wavelength
from .propagate import PropagationConfig
from .scenario import InitialSpec, Matching, Scenario

# unit token -> factor into the internal unit of that dimension
UNITS: dict[str, dict[str, float]] = {
    "energy": {"eV": 1.0, "keV": 1e3, "meV": 1e-3},
    "field": {"V/nm": 1.0, "V/m": 1e-9, "MV/m": 1e-3, "GV/m": 1.0},
    "length": {"nm": 1.0, "um": 1e3, "m": 1e9},
    "time": {"fs": 1.0, "ps": 1e3, "as": 1e-3},
    "wavevector": {"1/nm": 1.0, "rad/nm": 1.0, "1/m": 1e-9},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0, "pi": math.pi},
}

CANONICAL_UNIT = {
    "energy": "eV",
    "field": "V/nm",
    "length": "nm",
    "time": "fs",
    "wavevector": "1/nm",
    "angle": "rad",
}

# key -> (kind, extra); kind is a dimension name from UNITS or one of
# "number", "int", "bool", "enum", "int_or_auto"
SCHEMA: dict[str, tuple] = {
    "electron.energy": ("energy",),
    "field.amplitude": ("field",),
    "field.photon_energy": ("energy",),
    "field.wavelength": ("length",),
    "field.phase": ("angle",),
    "matching.mode": ("enum", ("phase_matched",)),
    "matching.grating_period": ("length",),
    "matching.wavevector": ("wavevector",),
    "model.kind": ("enum", ("full", "simplified")),
    "model.include_ponderomotive": ("bool",),
    "model.include_recoil_asymmetry": ("bool",),
    "model.include_gamma_cubed": ("bool",),
    "model.detuning_override": ("energy",),
    "model.quadratic_scale": ("number",),
    "initial.mode": ("enum", ("plane_wave", "gaussian")),
    "initial.center": ("int",),
    "initial.width": ("energy",),
    "initial.width_sidebands": ("number",),
    "initial.width_convention": ("enum", ("fwhm", "rms")),
    "initial.chirp": ("angle",),
    "initial.offset_phase": ("angle",),
    "propagation.t_end": ("time",),
    "propagation.sample_interval": ("time",),
    "propagation.norm_drift_limit": ("number",),
    "truncation.n_max": ("int_or_auto",),
    "truncation.cap": ("int",),
    "analysis.threshold": ("number",),
}


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    threshold: float = POPULATION_THRESHOLD


def _parse_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        values[key] = value
    return values


def _quantity(key: str, raw: str, dimension: str) -> float:
    parts = raw.split()
    if len(parts) == 1:
        raise ConfigError(
            f"{key}: missing unit (expected one of "
            f"{sorted(UNITS[dimension])}, e.g. '{raw} "
            f"{CANONICAL_UNIT[dimension]}')"
        )
    if len(parts) != 2:
        raise ConfigError(f"{key}: cannot parse quantity {raw!r}")
    number, unit = parts
    if unit not in UNITS[dimension]:
        raise ConfigError(
            f"{key}: unit {unit!r} is not a {dimension} unit "
            f"(accepted: {sorted(UNITS[dimension])})"
        )
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(f"{key}: bad number {number!r}") from None
    return _finite(key, raw, value * UNITS[dimension][unit])


def _finite(key: str, raw: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {raw!r} is not a finite number")
    return value


def _plain(key: str, raw: str, kind: str, extra=None):
    if kind == "number":
        try:
            return _finite(key, raw, float(raw))
        except ValueError:
            raise ConfigError(f"{key}: bad number {raw!r}") from None
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: bad integer {raw!r}") from None
    if kind == "int_or_auto":
        if raw == "auto":
            return None
        return _plain(key, raw, "int")
    if kind == "bool":
        if raw in ("true", "false"):
            return raw == "true"
        raise ConfigError(f"{key}: expected true or false, got {raw!r}")
    if kind == "enum":
        if raw in extra:
            return raw
        raise ConfigError(f"{key}: expected one of {extra}, got {raw!r}")
    raise ConfigError(f"{key}: unhandled kind {kind}")


def _convert(key: str, raw: str):
    spec = SCHEMA[key]
    kind = spec[0]
    if kind in UNITS:
        return _quantity(key, raw, kind)
    return _plain(key, raw, kind, spec[1] if len(spec) > 1 else None)


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a RunConfig with defaults resolved."""
    raw = _parse_lines(text)
    got = {key: _convert(key, value) for key, value in raw.items()}

    def need(key: str):
        if key not in got:
            raise ConfigError(f"required key {key!r} is missing")
        return got[key]

    energy = need("electron.energy")

    if "field.photon_energy" in got and "field.wavelength" in got:
        raise ConfigError(
            "give either field.photon_energy or field.wavelength, not both"
        )
    if "field.photon_energy" in got:
        photon = got["field.photon_energy"]
    elif "field.wavelength" in got:
        photon = photon_energy_from_wavelength(got["field.wavelength"])
    else:
        raise ConfigError(
            "one of field.photon_energy / field.wavelength is required"
        )
    amplitude = need("field.amplitude")
    phase = got.get("field.phase", 0.0)

    explicit_modes = [k for k in ("matching.grating_period", "matching.wavevector")
                      if k in got]
    if len(explicit_modes) > 1:
        raise ConfigError("conflicting matching modes: " + ", ".join(explicit_modes))
    if "matching.mode" in got and explicit_modes:
        raise ConfigError(
            f"matching.mode = phase_matched conflicts with {explicit_modes[0]}"
        )
    if "matching.grating_period" in got:
        matching = Matching("grating_period", got["matching.grating_period"])
    elif "matching.wavevector" in got:
        matching = Matching("wavevector", got["matching.wavevector"])
    else:
        matching = Matching()

    kind = got.get("model.kind", "full")
    simplified = kind == "simplified"
    variant = ModelVariant(
        kind=kind,
        include_ponderomotive=got.get("model.include_ponderomotive",
                                      not simplified),
        include_recoil_asymmetry=got.get("model.include_recoil_asymmetry",
                                         not simplified),
        include_gamma_cubed=got.get("model.include_gamma_cubed", not simplified),
        detuning_override=got.get("model.detuning_override"),
        quadratic_scale=got.get("model.quadratic_scale", 1.0),
    )

    mode = got.get("initial.mode", "plane_wave")
    width_keys = [k for k in ("initial.width", "initial.width_sidebands")
                  if k in got]
    if mode == "plane_wave":
        gaussian_only = width_keys + [
            k for k in ("initial.width_convention", "initial.chirp",
                        "initial.offset_phase") if k in got
        ]
        if gaussian_only:
            raise ConfigError(
                "plane_wave initial state conflicts with gaussian keys: "
                + ", ".join(gaussian_only)
            )
        initial = InitialSpec(kind="plane", center=got.get("initial.center", 0))
    else:
        if len(width_keys) != 1:
            raise ConfigError(
                "gaussian initial state needs exactly one of initial.width / "
                "initial.width_sidebands"
            )
        if "initial.width_sidebands" in got and "initial.width_convention" in got:
            raise ConfigError(
                "initial.width_convention applies to initial.width only"
            )
        initial = InitialSpec(
            kind="gaussian",
            center=got.get("initial.center", 0),
            width_energy=got.get("initial.width"),
            width_convention=got.get("initial.width_convention", "fwhm"),
            width_sidebands=got.get("initial.width_sidebands"),
            chirp=got.get("initial.chirp", 0.0),
            offset_phase=got.get("initial.offset_phase", 0.0),
        )

    t_end = need("propagation.t_end")
    propagation = PropagationConfig(
        t_end=t_end,
        sample_interval=got.get("propagation.sample_interval", t_end / 400.0),
        norm_drift_limit=got.get("propagation.norm_drift_limit",
                                 PropagationConfig.norm_drift_limit),
    )

    scenario = Scenario(
        kinetic_energy=energy,
        amplitude=amplitude,
        photon_energy=photon,
        propagation=propagation,
        initial_phase=phase,
        matching=matching,
        variant=variant,
        initial=initial,
        n_max=got.get("truncation.n_max"),
        truncation_cap=got.get("truncation.cap", Scenario.truncation_cap),
    )
    return RunConfig(
        scenario=scenario,
        threshold=got.get("analysis.threshold", RunConfig.threshold),
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def render_config(cfg: RunConfig) -> str:
    """Write a RunConfig back out as canonical configuration text.

    The output states every resolved value explicitly, so it replays to an
    identical RunConfig.
    """
    sc = cfg.scenario
    lines = [
        f"electron.energy = {_fmt(sc.kinetic_energy)} eV",
        f"field.amplitude = {_fmt(sc.amplitude)} V/nm",
        f"field.photon_energy = {_fmt(sc.photon_energy)} eV",
        f"field.phase = {_fmt(sc.initial_phase)} rad",
    ]
    if sc.matching.mode == "phase_matched":
        lines.append("matching.mode = phase_matched")
    elif sc.matching.mode == "grating_period":
        lines.append(f"matching.grating_period = {_fmt(sc.matching.value)} nm")
    else:
        lines.append(f"matching.wavevector = {_fmt(sc.matching.value)} 1/nm")
    v = sc.variant
    lines += [
        f"model.kind = {v.kind}",
        f"model.include_ponderomotive = {str(v.include_ponderomotive).lower()}",
        "model.include_recoil_asymmetry = "
        + str(v.include_recoil_asymmetry).lower(),
        f"model.include_gamma_cubed = {str(v.include_gamma_cubed).lower()}",
        f"model.quadratic_scale = {_fmt(v.quadratic_scale)}",
    ]
    if v.detuning_override is not None:
        lines.append(f"model.detuning_override = {_fmt(v.detuning_override)} eV")
    ini = sc.initial
    if ini.kind == "plane":
        lines += [
            "initial.mode = plane_wave",
            f"initial.center = {ini.center}",
        ]
    else:
        lines += ["initial.mode = gaussian", f"initial.center = {ini.center}"]
        if ini.width_energy is not None:
            lines.append(f"initial.width = {_fmt(ini.width_energy)} eV")
            lines.append(f"initial.width_convention = {ini.width_convention}")
        else:
            lines.append(
                f"initial.width_sidebands = {_fmt(ini.width_sidebands)}"
            )
        lines += [
            f"initial.chirp = {_fmt(ini.chirp)} rad",
            f"initial.offset_phase = {_fmt(ini.offset_phase)} rad",
        ]
    p = sc.propagation
    lines += [
        f"propagation.t_end = {_fmt(p.t_end)} fs",
        f"propagation.sample_interval = {_fmt(p.sample_interval)} fs",
        f"propagation.norm_drift_limit = {_fmt(p.norm_drift_limit)}",
        "truncation.n_max = "
        + ("auto" if sc.n_max is None else str(sc.n_max)),
        f"truncation.cap = {sc.truncation_cap}",
        f"analysis.threshold = {_fmt(cfg.threshold)}",
    ]
    return "\n".join(lines) + "\n"
