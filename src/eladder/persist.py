"""Reading and writing result files.

Two spectrogram formats:

* delimited-text: a comma-separated table, header ``t_fs, n=-N, ..., n=+N``
  (2N+2 columns), one row per sample time, every value printed with nine
  significant digits.  Easy to plot, lossy in the last digit.  `_cell` is
  the reference for how a value is printed.  The export formats rows in
  chunks with numpy, byte for byte as `_cell` would, and streams each chunk
  to the file, so no whole-table string is ever built.  Each cell is put
  together from lookup tables built at import: a [-]d. word (sign and lead
  digit), two 4-digit words (the mantissa split at 10**8 and 10**4) and an
  8-byte exponent-and-separator word; NUL bytes pad the short fields and
  are dropped when the chunk is joined.  A finite value whose rounding the
  numpy path cannot be sure of is formatted by Python on its own, and only
  a row holding NaN or an infinity is printed cell by cell.  `render_table`
  formats each all-float column of a figure table the same way.
* structured-record: a JSON document carrying the full-precision arrays,
  the run metadata, the tool version, and a sha256 content hash.  Importing
  it reproduces the populations exactly, and reruns of the same
  configuration produce the same hash.

  Record version 2 stores each array (``times_fs``, ``populations``,
  ``norm_drift``) as ``{"dtype": "<f8", "shape": [...], "data": ...}``, the
  data being the base64 of its little-endian float64 bytes, after NumPy's
  ``.npy`` layout (NEP 1): exact, but not readable as text.  Its hash is
  sha256 over the sorted, compact JSON of every other field except the hash,
  then, per array in that order, the compact JSON ``[name, "<f8", shape]``
  and the array's bytes.  Version 1 records, which hold the arrays as JSON
  number lists and hash the sorted, compact JSON of the whole payload, are
  still read and checked by their own rule.  A record of either version
  without its hash, or with any field malformed, raises ExportError.

All writes go through a temp-file-then-rename so a crashed run never
leaves a half-written file at the target path.
"""
from __future__ import annotations

import binascii
import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ExportError
from .propagate import Spectrogram

RECORD_FORMAT = "eladder-spectrogram"
RECORD_VERSION = 2

# The arrays of a record, in hash order, with their number of axes.
_ARRAYS = {"times_fs": 1, "populations": 2, "norm_drift": 1}
_DTYPE = "<f8"
# Base64 alphabet, then padding; a2b_base64 would skip any other character.
_BASE64 = re.compile(r"[A-Za-z0-9+/]*={0,2}")

TEXT_FORMAT = "delimited-text"
JSON_FORMAT = "structured-record"


def _atomic_write_text(path: Path, chunks) -> None:
    """Write the strings in `chunks` to `path` via a temp file and a rename."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.8e}"
    return str(value)


def _line(row) -> str:
    return ", ".join(_cell(v) for v in row)


def render_table(headers, rows) -> str:
    """Comma-separated table with 9-significant-digit floats.

    Each cell prints as `_cell` prints it.  A column of Python floats is
    formatted in one `_format_rows` call; any other column cell by cell."""
    width = len(headers)
    rows = list(rows)
    for row in rows:
        if len(row) != width:
            raise ExportError(
                f"table row has {len(row)} cells, header has {width}"
            )
    columns = []
    for column in zip(*rows):
        if all(isinstance(v, float) for v in column):
            column = _format_rows(np.array(column).reshape(-1, 1)).splitlines()
        else:
            column = [_cell(v) for v in column]
        columns.append(column)
    # a table without columns still has its empty rows
    lines = [", ".join(cells) for cells in zip(*columns)] or [""] * len(rows)
    return "\n".join([", ".join(headers)] + lines) + "\n"


def write_table(path, headers, rows) -> None:
    _atomic_write_text(Path(path), [render_table(headers, rows)])


# Cells formatted per chunk of a text export.  Each of a chunk's arrays
# stays near 128 kB, while numpy's per-call cost is spread over enough
# values to be negligible.
_CHUNK_CELLS = 1 << 14

# A formatted cell is five 4-byte words, NUL bytes being padding:
#   [-]d.  |  digits 1-4  |  digits 5-8  |  exponent and separator
# the last over two words ("e+05, ", "e-100, ", or "e+05\n" in a row's last
# cell).  The word tables are built once, at import, as little-endian
# words, so that a cell's bytes lie in memory in reading order.  None takes
# more than a few hundred Python steps or any numpy arithmetic, so building
# them adds neither import time nor resident code pages.
_EXP_MIN, _EXP_MAX = -324, 308  # decimal exponents of the finite doubles
_EXPS = _EXP_MAX - _EXP_MIN + 1


def _exponent_words(separator: bytes) -> np.ndarray:
    """One 8-byte word per exponent: "e", the exponent as "%.8e" prints it,
    then `separator`."""
    return np.frombuffer(b"".join(
        (b"e%+03d" % exp + separator).ljust(8, b"\0")
        for exp in range(_EXP_MIN, _EXP_MAX + 1)), "<u8")


_d = np.frombuffer(b"0123456789", np.uint8)
_DIGITS = np.stack(np.meshgrid(_d, _d, _d, _d, indexing="ij"),
                   axis=-1).view("<u4").ravel()  # "0000" to "9999"
del _d
# "[-]d." at 10 * sign + d
_LEAD = np.frombuffer(b"".join(b"%c%d.\0" % (sign, d) for sign in b"\0-"
                               for d in range(10)), "<u4")
# index exponent - _EXP_MIN, plus _EXPS in a row's last cell
_EXPONENT = np.concatenate([_exponent_words(b", "), _exponent_words(b"\n")])
# 10**(8 - exponent), correctly rounded; inf from 10**309 on is never sure
_SCALE = np.array([float(f"1e{8 - exp}")
                   for exp in range(_EXP_MIN, _EXP_MAX + 1)])


def _format_rows(block: np.ndarray) -> str:
    """Rows of float64 `block` as text lines, each equal to `_line(row)`.

    Each value is printed from its decimal exponent and a 9-digit integer
    mantissa, got by one scaling (the power of ten read from `_SCALE`) and
    rounded with numpy.  That equals Python's correctly rounded "%.8e"
    whenever the scaled value lies well clear of a rounding tie.  A finite
    value this cannot place with certainty -- within 1e-5 of a tie, or
    nonzero |v| outside [1e-300, 1e300) -- takes its mantissa and exponent
    from Python's own "%.8e" instead.  The mantissa splits at 10**8 (the
    lead digit) and 10**4 into table indices, and the cells' words are
    joined with the NUL padding dropped.  A row holding NaN or an infinity
    is printed by `_line`.
    """
    rows, cols = block.shape
    mag = np.abs(block)
    normal = (mag >= 1e-300) & (mag < 1e300)
    safe = np.where(normal, mag, 1.0)
    # exp holds each exponent as a table index, exponent - _EXP_MIN
    exp = np.floor(np.log10(safe)).astype(np.intp) - _EXP_MIN
    scaled = safe * _SCALE[exp]
    # log10 may land one decade off next to a power of ten
    fix = (scaled >= 1e9).view(np.int8) - (scaled < 1e8).view(np.int8)
    if fix.any():
        exp += fix
        scaled = safe * _SCALE[exp]
    rounded = np.rint(scaled)
    tie_gap = 0.5 - np.abs(scaled - rounded)
    sure = normal & (scaled >= 1e8) & (scaled < 1e9) & (tie_gap > 1e-5)
    mant = np.where(sure, rounded, 0.0).astype(np.int32)
    carry = mant == 1000000000  # 9.999999995... prints as 1.00000000e(exp+1)
    mant[carry] = 100000000
    exp += carry
    sure |= mag == 0.0  # a zero mantissa and exponent print +-0.00000000e+00

    finite = np.isfinite(block)
    redo = np.nonzero(~sure & finite)
    if redo[0].size:
        texts = [f"{v:.8e}" for v in mag[redo].tolist()]
        mant[redo] = [int(t[0] + t[2:10]) for t in texts]
        exp[redo] = [int(t[11:]) - _EXP_MIN for t in texts]
    exp[:, -1] += _EXPS

    lead = mant // 100000000
    mant -= lead * 100000000
    high = mant // 10000
    mant -= high * 10000
    lead += 10 * np.signbit(block)
    buf = np.empty((rows, cols, 5), "<u4")
    buf[..., 0] = _LEAD.take(lead)
    buf[..., 1] = _DIGITS.take(high)
    buf[..., 2] = _DIGITS.take(mant)
    buf[..., 3:] = _EXPONENT.take(exp).view("<u4").reshape(rows, cols, 2)

    lines = buf.reshape(rows, cols * 5)
    parts, start = [], 0
    for r in np.flatnonzero(~finite.all(axis=1)).tolist():
        parts.append(lines[start:r].tobytes())
        parts.append((_line(block[r].tolist()) + "\n").encode("ascii"))
        start = r + 1
    parts.append(lines[start:].tobytes())
    return b"".join(parts).translate(None, b"\0").decode("ascii")


def _column_name(n: int) -> str:
    return "n=0" if n == 0 else f"n={n:+d}"


def _text_chunks(spec: Spectrogram):
    """The delimited-text table of `spec`, as a header and row chunks."""
    names = [_column_name(int(n)) for n in spec.sideband_indices]
    yield ", ".join(["t_fs"] + names) + "\n"
    step = max(1, _CHUNK_CELLS // (spec.populations.shape[1] + 1))
    for start in range(0, len(spec.times), step):
        stop = start + step
        yield _format_rows(np.column_stack(
            (spec.times[start:stop], spec.populations[start:stop])))


def parse_text(text: str) -> Spectrogram:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("t_fs"):
        raise ExportError("not a spectrogram table: first column must be t_fs")
    headers = [h.strip() for h in lines[0].split(",")]
    n_cols = len(headers)
    if n_cols < 2 or n_cols % 2 != 0:
        raise ExportError(f"bad column count {n_cols}, expected 2N+2")
    n_max = (n_cols - 2) // 2
    try:
        data = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[1:]],
            dtype=float,
        )
    except ValueError as exc:
        raise ExportError(f"ragged spectrogram table: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != n_cols:
        raise ExportError("ragged spectrogram table")
    return Spectrogram(
        times=data[:, 0].copy(),
        populations=data[:, 1:].copy(),
        norm_drift_series=np.zeros(data.shape[0]),
        n_max=n_max,
        metadata={"source": TEXT_FORMAT},
    )


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _payload(spec: Spectrogram, config_echo: str | None) -> dict:
    payload = {
        "format": RECORD_FORMAT,
        "record_version": RECORD_VERSION,
        "tool_version": __version__,
        "n_max": int(spec.n_max),
        "metadata": _jsonable(spec.metadata),
        "times_fs": spec.times,
        "populations": spec.populations,
        "norm_drift": spec.norm_drift_series,
    }
    if config_echo is not None:
        payload["config_echo"] = config_echo
    return payload


def _compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def record_hash(payload: dict) -> str:
    """sha256 of a version 2 payload whose arrays are float64 ndarrays."""
    digest = hashlib.sha256(_compact(
        {k: v for k, v in payload.items() if k != "hash" and k not in _ARRAYS}))
    for name in _ARRAYS:
        array = np.ascontiguousarray(payload[name], dtype=_DTYPE)
        digest.update(_compact([name, _DTYPE, list(array.shape)]))
        digest.update(array)
    return digest.hexdigest()


def _v1_hash(payload: dict) -> str:
    """sha256 of a version 1 payload, its arrays being JSON number lists."""
    return hashlib.sha256(
        _compact({k: v for k, v in payload.items() if k != "hash"})).hexdigest()


def spectrogram_hash(spec: Spectrogram, config_echo: str | None = None) -> str:
    return record_hash(_payload(spec, config_echo))


def _render(payload: dict, digest: str) -> str:
    """`json.dumps(record, sort_keys=True) + "\\n"` for the record holding
    `payload` and `digest`, each array written as its base64 field.  The
    base64 alphabet needs no JSON escape, so that text is written as is."""
    record = {**payload, "hash": digest}
    parts = []
    for key in sorted(record):
        parts += [", " if parts else "{", json.dumps(key), ": "]
        if key in _ARRAYS:
            array = np.ascontiguousarray(record[key], dtype=_DTYPE)
            parts += ['{"data": "',
                      binascii.b2a_base64(array, newline=False).decode(),
                      f'", "dtype": "{_DTYPE}", '
                      f'"shape": {json.dumps(list(array.shape))}}}']
        else:
            parts.append(json.dumps(record[key], sort_keys=True))
    parts.append("}\n")
    return "".join(parts)


def render_record(spec: Spectrogram, config_echo: str | None = None) -> str:
    payload = _payload(spec, config_echo)
    return _render(payload, record_hash(payload))


def _decode_array(name: str, field) -> np.ndarray:
    """A version 2 array field as a read-only float64 ndarray."""
    if not isinstance(field, dict) or field.get("dtype") != _DTYPE:
        raise ExportError(f"bad record: {name} is not a {_DTYPE} array")
    shape = field.get("shape")
    if not (isinstance(shape, list) and all(
            type(n) is int and n >= 0 for n in shape)):
        raise ExportError(f"bad record: {name} has shape {shape!r}")
    text = field.get("data")
    if not isinstance(text, str):
        raise ExportError(f"bad record: {name} data is not a base64 string")
    if len(text) % 4 or not _BASE64.fullmatch(text):
        raise ExportError(f"bad record: {name} data is not base64")
    data = binascii.a2b_base64(text)
    if len(data) != 8 * math.prod(shape):
        raise ExportError(f"bad record: {name} holds {len(data)} bytes, "
                          f"shape {shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(data, dtype=_DTYPE).reshape(shape)


def _v1_array(name: str, field) -> np.ndarray:
    try:
        return np.array(field, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ExportError(f"bad record: {name}: {exc}") from exc


def parse_record(text: str) -> Spectrogram:
    """A record of either version; its stored hash is checked by the rule
    of its version."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExportError(f"bad record: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != RECORD_FORMAT:
        raise ExportError(f"not a {RECORD_FORMAT} record")
    version = payload.get("record_version")
    if version not in (1, 2):
        raise ExportError(f"unknown record_version {version!r}")
    missing = [k for k in ("n_max", "hash", *_ARRAYS) if k not in payload]
    if missing:
        raise ExportError(f"bad record: no {', '.join(missing)}")
    metadata = payload.get("metadata", {})
    if type(payload["n_max"]) is not int or not isinstance(metadata, dict):
        raise ExportError("bad record: n_max or metadata has the wrong type")
    decode = _decode_array if version == 2 else _v1_array
    arrays = {}
    for name, ndim in _ARRAYS.items():
        arrays[name] = decode(name, payload[name])
        if arrays[name].ndim != ndim:
            raise ExportError(f"bad record: {name} has {arrays[name].ndim} "
                              f"axes, expected {ndim}")
    actual = (record_hash({**payload, **arrays}) if version == 2
              else _v1_hash(payload))
    if payload["hash"] != actual:
        raise ExportError("record hash mismatch: file is corrupt or edited")
    metadata = dict(metadata)
    if "config_echo" in payload:
        metadata["config_echo"] = payload["config_echo"]
    return Spectrogram(
        times=arrays["times_fs"],
        populations=arrays["populations"],
        norm_drift_series=arrays["norm_drift"],
        n_max=payload["n_max"],
        metadata=metadata,
    )


def export_spectrogram(spec: Spectrogram, path, format: str = JSON_FORMAT,
                       config_echo: str | None = None) -> None:
    """Write `spec` to `path` in the requested format."""
    if format == TEXT_FORMAT:
        chunks = _text_chunks(spec)
    elif format == JSON_FORMAT:
        chunks = [render_record(spec, config_echo)]
    else:
        raise ExportError(
            f"unknown format {format!r} (use {TEXT_FORMAT} or {JSON_FORMAT})"
        )
    _atomic_write_text(Path(path), chunks)


def import_spectrogram(path) -> Spectrogram:
    """Read a spectrogram back; the format is sniffed from the content."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ExportError(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return parse_record(text)
    return parse_text(text)


@dataclass(frozen=True)
class OutputBundle:
    """Paths and identity of one simulation's output set."""

    spectrogram_path: Path
    analysis_path: Path
    config_path: Path
    tool_version: str
    content_hash: str


def write_bundle(out_dir, stem: str, spec: Spectrogram, config_echo: str,
                 analysis: dict) -> OutputBundle:
    """Write spectrogram record, analysis report, and config echo.

    The config echo is the replay handle: parsing it and rerunning gives a
    spectrogram with the same content hash.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create {out}: {exc}") from exc
    spec_path = out / f"{stem}.record.json"
    analysis_path = out / f"{stem}.analysis.json"
    config_path = out / f"{stem}.config"
    payload = _payload(spec, config_echo)
    digest = record_hash(payload)
    _atomic_write_text(spec_path, [_render(payload, digest)])
    report = {
        "tool_version": __version__,
        "content_hash": digest,
        "analysis": _jsonable(analysis),
    }
    _atomic_write_text(analysis_path, [json.dumps(report, indent=2,
                                                  sort_keys=True) + "\n"])
    _atomic_write_text(config_path, [config_echo])
    return OutputBundle(
        spectrogram_path=spec_path,
        analysis_path=analysis_path,
        config_path=config_path,
        tool_version=__version__,
        content_hash=digest,
    )
