"""Configuration grammar: units, defaults, conflicts, and the echo replay."""
import math

import pytest

from eladder import ConfigError, ValidationError
from eladder.config import parse_config, render_config

MINIMAL = """
electron.energy = 100 eV
field.amplitude = 1.0 V/nm
field.photon_energy = 1.54 eV
propagation.t_end = 60 fs
"""


class TestDefaults:
    def test_minimal_config_resolves_everything(self):
        cfg = parse_config(MINIMAL)
        sc = cfg.scenario
        assert sc.kinetic_energy == 100.0
        assert sc.amplitude == 1.0
        assert sc.photon_energy == 1.54
        assert sc.initial_phase == 0.0
        assert sc.matching.mode == "phase_matched"
        assert sc.initial.kind == "plane"
        assert sc.initial.center == 0
        assert sc.propagation.t_end == 60.0
        assert sc.propagation.sample_interval == pytest.approx(60.0 / 400.0)
        assert sc.propagation.norm_drift_limit == 1e-8
        assert sc.n_max is None
        assert sc.truncation_cap == 4096
        assert cfg.threshold == 1e-3

    def test_full_model_default_flags(self):
        v = parse_config(MINIMAL).scenario.variant
        assert v.kind == "full"
        assert v.include_ponderomotive
        assert v.include_recoil_asymmetry
        assert v.include_gamma_cubed
        assert v.detuning_override is None
        assert v.quadratic_scale == 1.0

    def test_simplified_kind_flips_term_defaults(self):
        v = parse_config(MINIMAL + "model.kind = simplified\n").scenario.variant
        assert v.kind == "simplified"
        assert not v.include_ponderomotive
        assert not v.include_recoil_asymmetry
        assert not v.include_gamma_cubed

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + MINIMAL.replace(
            "100 eV", "100 eV   # beam energy")
        assert parse_config(text).scenario.kinetic_energy == 100.0


class TestUnits:
    def test_energy_scales(self):
        cfg = parse_config(MINIMAL.replace("100 eV", "0.1 keV")
                                  .replace("1.54 eV", "1540 meV"))
        assert cfg.scenario.kinetic_energy == pytest.approx(100.0)
        assert cfg.scenario.photon_energy == pytest.approx(1.54)

    @pytest.mark.parametrize("token,expected", [
        ("1e8 V/m", 0.1),
        ("100 MV/m", 0.1),
        ("0.1 GV/m", 0.1),
    ])
    def test_field_scales(self, token, expected):
        cfg = parse_config(MINIMAL.replace("1.0 V/nm", token))
        assert cfg.scenario.amplitude == pytest.approx(expected)

    def test_wavelength_implies_photon_energy(self):
        text = MINIMAL.replace("field.photon_energy = 1.54 eV",
                               "field.wavelength = 800 nm")
        cfg = parse_config(text)
        assert cfg.scenario.photon_energy == pytest.approx(
            1.5498024802951402, rel=1e-12)
        micro = parse_config(text.replace("800 nm", "0.8 um"))
        assert micro.scenario.photon_energy == pytest.approx(
            cfg.scenario.photon_energy, rel=1e-12)

    @pytest.mark.parametrize("token,expected", [
        ("90 deg", math.pi / 2.0),
        ("0.5 pi", math.pi / 2.0),
        ("1.5707963267948966 rad", math.pi / 2.0),
    ])
    def test_angle_scales(self, token, expected):
        cfg = parse_config(MINIMAL + f"field.phase = {token}\n")
        assert cfg.scenario.initial_phase == pytest.approx(expected, rel=1e-12)

    def test_time_scales(self):
        cfg = parse_config(MINIMAL.replace("60 fs", "0.06 ps"))
        assert cfg.scenario.propagation.t_end == pytest.approx(60.0)

    def test_wavevector_scales(self):
        cfg = parse_config(MINIMAL + "matching.wavevector = 4e8 1/m\n")
        assert cfg.scenario.matching.mode == "wavevector"
        assert cfg.scenario.matching.value == pytest.approx(0.4)


ROUND_TRIP_CASES = [
    MINIMAL,
    MINIMAL + "initial.mode = gaussian\ninitial.width = 7.5 eV\n",
    MINIMAL + ("initial.mode = gaussian\ninitial.width = 5 eV\n"
               "initial.width_convention = rms\ninitial.center = 2\n"
               "initial.chirp = 0.3 rad\ninitial.offset_phase = 0.25 pi\n"),
    MINIMAL + "initial.mode = gaussian\ninitial.width_sidebands = 4.0\n",
    MINIMAL + "matching.grating_period = 23 nm\n",
    MINIMAL + "matching.wavevector = 0.397 1/nm\n",
    MINIMAL + ("model.kind = simplified\nmodel.detuning_override = 0.01 eV\n"
               "model.quadratic_scale = 0.5\n"),
    MINIMAL + ("field.phase = -90 deg\npropagation.norm_drift_limit = 1e-9\n"
               "propagation.sample_interval = 0.5 fs\n"
               "truncation.n_max = 48\ntruncation.cap = 512\n"
               "analysis.threshold = 0.01\n"),
]


class TestEchoReplay:
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_render_then_parse_is_identity(self, text):
        first = parse_config(text)
        assert parse_config(render_config(first)) == first

    def test_echo_is_fully_explicit(self):
        echo = render_config(parse_config(MINIMAL))
        for key in ("field.phase", "propagation.sample_interval",
                    "truncation.n_max = auto", "analysis.threshold"):
            assert key in echo


BAD_CASES = [
    ("electron.energy = 100\n" + MINIMAL.split("\n", 2)[2], "missing unit"),
    (MINIMAL + "electron.charge = 1\n", "unknown key"),
    (MINIMAL + "seed = 7\n", "unknown key"),
    (MINIMAL + "propagation.t_end = 1 fs\n", "duplicate key"),
    (MINIMAL + "field.phase =\n", "has no value"),
    (MINIMAL + "just a stray line\n", "expected 'key = value'"),
    (MINIMAL.replace("100 eV", "abc eV"), "bad number"),
    (MINIMAL.replace("100 eV", "100 fs"), "not a energy unit"),
    (MINIMAL.replace("100 eV", "100 eV extra"), "cannot parse quantity"),
    (MINIMAL + "initial.mode = fast\n", "expected one of"),
    (MINIMAL + "model.include_ponderomotive = yes\n", "expected true or false"),
    (MINIMAL + "initial.center = 1.5\n", "bad integer"),
    (MINIMAL.replace("electron.energy = 100 eV\n", ""), "electron.energy"),
    (MINIMAL.replace("field.amplitude = 1.0 V/nm\n", ""), "field.amplitude"),
    (MINIMAL.replace("propagation.t_end = 60 fs\n", ""), "propagation.t_end"),
    (MINIMAL.replace("field.photon_energy = 1.54 eV\n", ""),
     "field.photon_energy / field.wavelength"),
    (MINIMAL + "field.wavelength = 800 nm\n", "not both"),
    (MINIMAL + "matching.grating_period = 23 nm\n"
     "matching.wavevector = 0.4 1/nm\n", "conflicting matching"),
    (MINIMAL + "matching.mode = phase_matched\n"
     "matching.grating_period = 23 nm\n", "conflicts with"),
    (MINIMAL + "initial.width = 7.5 eV\n", "plane_wave initial state conflicts"),
    (MINIMAL + "initial.chirp = 0.1 rad\n", "plane_wave initial state conflicts"),
    (MINIMAL + "initial.mode = gaussian\n", "exactly one"),
    (MINIMAL + "initial.mode = gaussian\ninitial.width = 7.5 eV\n"
     "initial.width_sidebands = 4\n", "exactly one"),
    (MINIMAL + "initial.mode = gaussian\ninitial.width_sidebands = 4\n"
     "initial.width_convention = rms\n", "initial.width only"),
]


class TestRejections:
    @pytest.mark.parametrize("text,fragment", BAD_CASES)
    def test_bad_config_is_named(self, text, fragment):
        with pytest.raises(ConfigError, match="(?s)" + fragment.replace(
            "(", r"\(").replace(")", r"\)").replace("/", "/")):
            parse_config(text)

    def test_line_numbers_in_line_level_errors(self):
        try:
            parse_config(MINIMAL + "electron.charge = 1\n")
        except ConfigError as exc:
            assert "line 6" in str(exc)
        else:
            pytest.fail("unknown key was accepted")

    def test_physical_validation_still_applies(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL.replace("60 fs", "-60 fs"))
