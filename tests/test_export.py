"""Persistence: delimited tables, hashed records, and the output bundle."""
import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eladder import ExportError, __version__, persist
from eladder.config import parse_config, render_config
from eladder.persist import (
    JSON_FORMAT,
    RECORD_FORMAT,
    TEXT_FORMAT,
    _atomic_write_text,
    _cell,
    _format_rows,
    _text_chunks,
    export_spectrogram,
    import_spectrogram,
    parse_record,
    parse_text,
    render_record,
    render_table,
    spectrogram_hash,
    write_bundle,
    write_table,
)
from eladder.propagate import Spectrogram
from eladder.scenario import InitialSpec, run_scenario

from conftest import trap_scenario

# A version 1 record of `small_spec` with the config echo below, written by
# the last release that wrote version 1.
V1_RECORD = Path(__file__).parent / "data" / "small_v1.record.json"
V1_ECHO = "electron.energy = 100.0 eV\n"


@pytest.fixture(scope="module")
def small_spec():
    return run_scenario(trap_scenario(InitialSpec(), 16, 2.0, 0.5))


def render_text(spec):
    return "".join(_text_chunks(spec))


class TestTable:
    def test_floats_get_nine_significant_digits(self):
        text = render_table(["a", "b"], [[1.0 / 3.0, 2]])
        assert text.splitlines()[1] == "3.33333333e-01, 2"

    def test_ragged_row_is_rejected(self):
        with pytest.raises(ExportError, match="3 cells"):
            render_table(["a", "b"], [[1.0, 2.0, 3.0]])

    def test_write_table(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["x"], [[0.5]])
        assert path.read_text().startswith("x\n5.0")


class TestTextFormat:
    def test_header_names_sidebands(self, small_spec):
        header = render_text(small_spec).splitlines()[0]
        cols = [c.strip() for c in header.split(",")]
        assert cols[0] == "t_fs"
        assert cols[1] == f"n={-small_spec.n_max:+d}"
        assert "n=0" in cols
        assert cols[-1] == f"n=+{small_spec.n_max}"
        assert len(cols) == 2 * small_spec.n_max + 2

    def test_round_trip_accuracy(self, small_spec):
        back = parse_text(render_text(small_spec))
        assert back.n_max == small_spec.n_max
        assert np.abs(back.times - small_spec.times).max() < 1e-9
        assert np.abs(back.populations - small_spec.populations).max() < 1e-9
        assert back.metadata["source"] == TEXT_FORMAT

    def test_not_a_table(self):
        with pytest.raises(ExportError, match="t_fs"):
            parse_text("x, y\n1, 2\n")

    def test_bad_column_count(self):
        with pytest.raises(ExportError, match="2N\\+2"):
            parse_text("t_fs, n=0, n=+1\n0.0, 1.0, 0.0\n")

    def test_ragged_body(self, small_spec):
        text = render_text(small_spec)
        lines = text.splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        with pytest.raises(ExportError, match="ragged"):
            parse_text("\n".join(lines))


class TestTextFormatter:
    """The numpy formatter against `_cell`, the reference "%.8e" cell."""

    @staticmethod
    def assert_matches_cell(values):
        # one value per row, so a fallback row covers only its own value
        column = np.array(values, dtype=float).reshape(-1, 1)
        assert _format_rows(column) == "".join(
            _cell(v) + "\n" for v in column[:, 0].tolist())

    @given(st.lists(st.floats(), min_size=1, max_size=24))
    def test_equals_cell_on_any_float(self, values):
        self.assert_matches_cell(values)
        row = np.array([values])
        assert _format_rows(row) == ", ".join(
            _cell(v) for v in values) + "\n"

    def test_powers_of_ten_ties_and_edges(self):
        values = []
        for k in range(-300, 301):
            p = 10.0 ** k
            values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        for k in range(7):  # exactly representable rounding ties
            values += [(d + 0.5) * 10.0 ** k
                       for d in (100000000, 123456788, 123456789, 999999999)]
        values += [9.9999999951, 9.999999996e-5,  # carry into the exponent
                   1e-100, 1e99, 5e-324, 2.2250738585072014e-308, 0.0]
        self.assert_matches_cell(values + [-v for v in values])

    def test_export_matches_render_table_across_chunks(self, tmp_path,
                                                       monkeypatch):
        spec = run_scenario(trap_scenario(InitialSpec(), 96, 1.0, 0.002))
        rows, cols = spec.populations.shape
        assert rows > 3 * persist._CHUNK_CELLS // (cols + 1)
        assert spec.populations.min() < 1e-99
        fallback_rows = []
        line = persist._line
        monkeypatch.setattr(persist, "_line",
                            lambda row: fallback_rows.append(1) or line(row))
        path = tmp_path / "spec.txt"
        export_spectrogram(spec, path, TEXT_FORMAT)
        monkeypatch.undo()
        headers = ["t_fs"] + [("n=0" if n == 0 else f"n={n:+d}")
                              for n in range(-96, 97)]
        expected = render_table(headers, [
            [t] + row for t, row in zip(spec.times.tolist(),
                                        spec.populations.tolist())])
        assert path.read_bytes() == expected.encode("ascii")
        assert len(fallback_rows) <= rows // 100

    def test_failed_chunk_source_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "table.txt"
        target.write_text("old\n")

        def chunks():
            yield "t_fs, n=0\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            _atomic_write_text(target, chunks())
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]


class TestRecordFormat:
    def test_round_trip_is_exact(self, small_spec):
        echo = "electron.energy = 100.0 eV\n"
        back = parse_record(render_record(small_spec, config_echo=echo))
        assert np.array_equal(back.times, small_spec.times)
        assert np.array_equal(back.populations, small_spec.populations)
        assert np.array_equal(back.norm_drift_series,
                              small_spec.norm_drift_series)
        assert back.n_max == small_spec.n_max
        assert back.metadata["config_echo"] == echo
        for key, value in small_spec.metadata.items():
            assert back.metadata[key] == value

    def test_arrays_are_base64_float64(self, small_spec):
        field = json.loads(render_record(small_spec))["populations"]
        assert field["dtype"] == "<f8"
        assert field["shape"] == list(small_spec.populations.shape)
        data = base64.b64decode(field["data"])
        assert data == small_spec.populations.astype("<f8").tobytes()

    def test_tampering_is_detected(self, small_spec):
        payload = json.loads(render_record(small_spec))
        field = payload["populations"]
        data = bytearray(base64.b64decode(field["data"]))
        data[0] ^= 1
        field["data"] = base64.b64encode(bytes(data)).decode("ascii")
        with pytest.raises(ExportError, match="corrupt or edited"):
            parse_record(json.dumps(payload))

    def test_wrong_format_marker(self):
        with pytest.raises(ExportError, match=RECORD_FORMAT):
            parse_record(json.dumps({"format": "something-else"}))

    def test_unparseable_json(self):
        with pytest.raises(ExportError, match="bad record"):
            parse_record("{not json")


def _v2_record(small_spec):
    return json.loads(render_record(small_spec))


def _v1_record(small_spec):
    return json.loads(V1_RECORD.read_text())


def _drop(key):
    def edit(record):
        del record[key]
    return edit


def _set_field(key, **values):
    def edit(record):
        record[key].update(values)
    return edit


def _insert_junk(record):
    data = record["populations"]["data"]
    record["populations"]["data"] = data[:8] + "!" + data[8:]


def _make_ragged(record):
    record["populations"][1] = record["populations"][1][:-1]


MALFORMED = [
    ("v1 missing array", _v1_record, _drop("populations")),
    ("v2 missing array", _v2_record, _drop("times_fs")),
    ("v1 missing n_max", _v1_record, _drop("n_max")),
    ("v1 without hash", _v1_record, _drop("hash")),
    ("v2 without hash", _v2_record, _drop("hash")),
    ("v2 missing version", _v2_record, _drop("record_version")),
    ("v2 bad base64", _v2_record, _set_field("populations", data="A*==")),
    ("v2 junk inside base64", _v2_record, _insert_junk),
    ("v2 base64 not a string", _v2_record, _set_field("norm_drift", data=7)),
    ("v2 float32 dtype", _v2_record, _set_field("populations", dtype="<f4")),
    ("v2 big-endian dtype", _v2_record, _set_field("times_fs", dtype=">f8")),
    ("v2 shape too large", _v2_record, _set_field("populations",
                                                  shape=[6, 33])),
    ("v2 shape too small", _v2_record, _set_field("norm_drift", shape=[4])),
    ("v2 shape not integers", _v2_record, _set_field("norm_drift",
                                                     shape=["5"])),
    ("v2 wrong axes", _v2_record, _set_field("populations", shape=[165])),
    ("v1 ragged lists", _v1_record, _make_ragged),
    ("v1 not numbers", _v1_record, lambda r: r.update(times_fs="0 0.5")),
    ("format only", lambda spec: {"format": RECORD_FORMAT}, lambda r: None),
    ("top level a list", lambda spec: [1, 2], lambda r: None),
    ("top level a string", lambda spec: RECORD_FORMAT, lambda r: None),
]


# the reason a case must be refused for, where more than one could apply
REASONS = {
    "v2 bad base64": "data is not base64",
    "v2 junk inside base64": "data is not base64",
    "v2 base64 not a string": "data is not a base64 string",
}


@pytest.mark.parametrize("case, build, edit", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_record_raises_export_error(small_spec, tmp_path, case,
                                              build, edit):
    record = build(small_spec)
    edit(record)
    path = tmp_path / "bad.record.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ExportError, match=REASONS.get(case)) as caught:
        import_spectrogram(path)
    assert (caught.value.category, caught.value.exit_code) == ("io", 4)


class TestVersion1Record:
    def test_arrays_come_back_bit_for_bit(self, small_spec):
        raw = json.loads(V1_RECORD.read_text())
        assert raw["record_version"] == 1
        back = parse_record(V1_RECORD.read_text())
        for name, array in [("times_fs", back.times),
                            ("populations", back.populations),
                            ("norm_drift", back.norm_drift_series)]:
            expected = np.array(raw[name], dtype=float)
            assert array.tobytes() == expected.tobytes()
        assert back.n_max == raw["n_max"] == small_spec.n_max
        assert back.metadata["config_echo"] == V1_ECHO
        assert np.abs(back.populations - small_spec.populations).max() < 1e-12

    def test_edited_copy_fails_the_version_1_hash(self):
        raw = json.loads(V1_RECORD.read_text())
        raw["populations"][2][5] = 0.123
        with pytest.raises(ExportError, match="corrupt or edited"):
            parse_record(json.dumps(raw))


FLOATS = st.floats(width=64) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310])


@st.composite
def spectrograms(draw):
    n_max = draw(st.integers(0, 3))
    rows = draw(st.integers(1, 6))
    return Spectrogram(
        times=draw(arrays(np.float64, rows, elements=FLOATS)),
        populations=draw(arrays(np.float64, (rows, 2 * n_max + 1),
                                elements=FLOATS)),
        norm_drift_series=draw(arrays(np.float64, rows, elements=FLOATS)),
        n_max=n_max,
        metadata={"method": "dense"},
    )


def bits(array):
    return array.view(np.uint64)


class TestRecordProperties:
    @given(spectrograms())
    @settings(max_examples=40, deadline=None)
    def test_render_then_parse_is_bit_exact(self, spec):
        back = parse_record(render_record(spec, config_echo="x = 1\n"))
        assert np.array_equal(bits(back.times), bits(spec.times))
        assert np.array_equal(bits(back.populations), bits(spec.populations))
        assert np.array_equal(bits(back.norm_drift_series),
                              bits(spec.norm_drift_series))

    @given(spectrograms(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_single_element_changes_the_hash(self, spec, data):
        name = data.draw(st.sampled_from(
            ["times", "populations", "norm_drift_series"]))
        array = getattr(spec, name).copy()
        flat = bits(array).reshape(-1)
        index = data.draw(st.integers(0, flat.size - 1))
        flat[index] ^= np.uint64(1) << np.uint64(data.draw(st.integers(0, 63)))
        edited = Spectrogram(**{**spec.__dict__, name: array})
        assert spectrogram_hash(edited) != spectrogram_hash(spec)

    @given(spec=spectrograms())
    @settings(max_examples=15, deadline=None)
    def test_one_hash_everywhere(self, tmp_path_factory, spec):
        echo = "x = 1\n"
        out = tmp_path_factory.mktemp("bundle")
        bundle = write_bundle(out, "run", spec, echo, {})
        stored = json.loads(bundle.spectrogram_path.read_text())["hash"]
        assert spectrogram_hash(spec, echo) == stored == bundle.content_hash


class TestHash:
    def test_same_scenario_reproduces_the_hash(self, small_spec):
        again = run_scenario(trap_scenario(InitialSpec(), 16, 2.0, 0.5))
        assert spectrogram_hash(again) == spectrogram_hash(small_spec)

    def test_different_scenario_changes_it(self, small_spec):
        other = run_scenario(trap_scenario(InitialSpec(), 16, 2.0, 0.5,
                                           phase=0.1))
        assert spectrogram_hash(other) != spectrogram_hash(small_spec)

    def test_echo_is_part_of_the_identity(self, small_spec):
        assert (spectrogram_hash(small_spec, "a = 1\n")
                != spectrogram_hash(small_spec, "a = 2\n"))

    def test_stored_hash_matches_helper(self, small_spec):
        payload = json.loads(render_record(small_spec, config_echo="x = 1\n"))
        assert payload["hash"] == spectrogram_hash(small_spec,
                                                   config_echo="x = 1\n")


class TestExportImport:
    @pytest.mark.parametrize("fmt", [JSON_FORMAT, TEXT_FORMAT])
    def test_both_formats_import_by_sniffing(self, small_spec, tmp_path, fmt):
        path = tmp_path / "out.dat"
        export_spectrogram(small_spec, path, format=fmt)
        back = import_spectrogram(path)
        assert back.n_max == small_spec.n_max
        assert np.abs(back.populations - small_spec.populations).max() < 1e-9

    def test_unknown_format(self, small_spec, tmp_path):
        with pytest.raises(ExportError, match="unknown format"):
            export_spectrogram(small_spec, tmp_path / "x", format="parquet")

    def test_missing_directory_names_the_path(self, small_spec, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.json"
        with pytest.raises(ExportError, match="x.json"):
            export_spectrogram(small_spec, target)

    def test_missing_file_on_import(self, tmp_path):
        with pytest.raises(ExportError, match="cannot read"):
            import_spectrogram(tmp_path / "absent.json")


class TestBundle:
    def test_bundle_files_and_identity(self, small_spec, tmp_path):
        echo = render_config(parse_config(
            "electron.energy = 100 eV\nfield.amplitude = 1.0 V/nm\n"
            "field.photon_energy = 1.54 eV\npropagation.t_end = 2 fs\n"
        ))
        bundle = write_bundle(tmp_path / "runs", "demo", small_spec, echo,
                              {"note": np.float64(1.5)})
        assert bundle.spectrogram_path.name == "demo.record.json"
        assert bundle.analysis_path.name == "demo.analysis.json"
        assert bundle.config_path.name == "demo.config"
        for p in (bundle.spectrogram_path, bundle.analysis_path,
                  bundle.config_path):
            assert p.is_file()
        assert bundle.tool_version == __version__

        record = json.loads(bundle.spectrogram_path.read_text())
        assert record["hash"] == bundle.content_hash

        report = json.loads(bundle.analysis_path.read_text())
        assert report["content_hash"] == bundle.content_hash
        assert report["tool_version"] == __version__
        assert report["analysis"]["note"] == 1.5  # numpy scalars serialize

        # the config echo replays through the parser unchanged
        replay = parse_config(bundle.config_path.read_text())
        assert render_config(replay) == echo

    def test_bundle_hashes_once(self, small_spec, tmp_path, monkeypatch):
        calls = []
        original = persist.record_hash
        monkeypatch.setattr(persist, "record_hash",
                            lambda payload: calls.append(1) or original(payload))
        write_bundle(tmp_path, "once", small_spec, "x = 1\n", {})
        assert len(calls) == 1
