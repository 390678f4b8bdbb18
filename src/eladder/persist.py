"""Reading and writing result files.

Two spectrogram formats:

* delimited-text: a comma-separated table, header ``t_fs, n=-N, ..., n=+N``
  (2N+2 columns), one row per sample time, every value printed with nine
  significant digits.  Easy to plot, lossy in the last digit.  `_cell` is
  the reference for how a value is printed; the export formats rows in
  chunks with numpy, byte for byte as `_cell` would, and streams each chunk
  to the file, so no whole-table string is ever built.
* structured-record: a JSON document carrying the full-precision arrays,
  the run metadata, the tool version, and a sha256 content hash.  Importing
  it reproduces the populations exactly, and reruns of the same
  configuration produce the same hash.

All writes go through a temp-file-then-rename so a crashed run never
leaves a half-written file at the target path.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ExportError
from .propagate import Spectrogram

RECORD_FORMAT = "eladder-spectrogram"
RECORD_VERSION = 1

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
    """Comma-separated table with 9-significant-digit floats."""
    width = len(headers)
    lines = [", ".join(headers)]
    for row in rows:
        if len(row) != width:
            raise ExportError(
                f"table row has {len(row)} cells, header has {width}"
            )
        lines.append(_line(row))
    return "\n".join(lines) + "\n"


def write_table(path, headers, rows) -> None:
    _atomic_write_text(Path(path), [render_table(headers, rows)])


# Cells formatted per chunk of a text export.  Each of a chunk's arrays
# stays near 128 kB, while numpy's per-call cost is spread over enough
# values to be negligible.
_CHUNK_CELLS = 1 << 14

# Bytes per cell in the formatting buffer: sign, digit, ".", 8 digits, "e",
# exponent sign, 3 exponent digits and a 2-byte separator.  A zero byte is
# padding (no minus sign, a 2-digit exponent, the line end) and is dropped.
_SLOT = 18


def _ascii(buf: np.ndarray) -> str:
    return buf[buf != 0].tobytes().decode("ascii")


def _format_rows(block: np.ndarray) -> str:
    """Rows of float64 `block` as text lines, each equal to `_line(row)`.

    Each value is printed from its decimal exponent and a 9-digit integer
    mantissa, got by one scaling and rounded with numpy.  That equals
    Python's correctly rounded "%.8e" whenever the scaled value lies well
    clear of a rounding tie.  A row holding any value this cannot place
    with certainty -- within 1e-5 of a tie, nonzero |v| outside
    [1e-300, 1e300), NaN or infinite -- is printed by `_cell` instead.
    """
    rows, cols = block.shape
    mag = np.abs(block)
    normal = (mag >= 1e-300) & (mag < 1e300)
    safe = np.where(normal, mag, 1.0)
    exp = np.floor(np.log10(safe))
    scaled = safe * 10.0 ** (8.0 - exp)
    # log10 may land one decade off next to a power of ten
    exp += (scaled >= 1e9).astype(float) - (scaled < 1e8)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = safe * 10.0 ** (8.0 - exp)
        tie_gap = np.abs(scaled - np.floor(scaled) - 0.5)
    sure = (normal & (scaled >= 1e8) & (scaled < 1e9) & (tie_gap > 1e-5))
    mant = np.where(sure, np.rint(scaled), 0.0)
    carry = mant == 1e9  # 9.999999995... prints as 1.00000000e(exp + 1)
    mant = np.where(carry, 1e8, mant).astype(np.int64)
    exp = np.where(sure, exp + carry, 0.0).astype(np.int64)
    sure |= mag == 0.0  # a zero mantissa and exponent print +-0.00000000e+00

    buf = np.empty((rows, cols, _SLOT), np.uint8)
    buf[..., 0] = np.where(np.signbit(block), ord("-"), 0)
    buf[..., 2] = ord(".")
    for pos in (10, 9, 8, 7, 6, 5, 4, 3, 1):  # last digit first
        mant, digit = np.divmod(mant, 10)
        buf[..., pos] = digit + ord("0")
    buf[..., 11] = ord("e")
    buf[..., 12] = np.where(exp < 0, ord("-"), ord("+"))
    exp = np.abs(exp)
    buf[..., 13] = np.where(exp >= 100, exp // 100 + ord("0"), 0)
    buf[..., 14] = exp // 10 % 10 + ord("0")
    buf[..., 15] = exp % 10 + ord("0")
    buf[..., 16] = ord(",")
    buf[..., 17] = ord(" ")
    buf[:, -1, 16] = ord("\n")
    buf[:, -1, 17] = 0

    lines = buf.reshape(rows, cols * _SLOT)
    parts, start = [], 0
    for r in np.flatnonzero(~sure.all(axis=1)).tolist():
        parts.append(_ascii(lines[start:r]))
        parts.append(_line(block[r].tolist()) + "\n")
        start = r + 1
    parts.append(_ascii(lines[start:]))
    return "".join(parts)


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
        "times_fs": [float(t) for t in spec.times],
        "populations": [[float(p) for p in row] for row in spec.populations],
        "norm_drift": [float(d) for d in spec.norm_drift_series],
    }
    if config_echo is not None:
        payload["config_echo"] = config_echo
    return payload


def record_hash(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "hash"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spectrogram_hash(spec: Spectrogram, config_echo: str | None = None) -> str:
    return record_hash(_payload(spec, config_echo))


def render_record(spec: Spectrogram, config_echo: str | None = None) -> str:
    payload = _payload(spec, config_echo)
    payload["hash"] = record_hash(payload)
    return json.dumps(payload, sort_keys=True) + "\n"


def parse_record(text: str) -> Spectrogram:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExportError(f"bad record: {exc}") from exc
    if payload.get("format") != RECORD_FORMAT:
        raise ExportError(f"not a {RECORD_FORMAT} record")
    stored = payload.get("hash")
    if stored is not None and stored != record_hash(payload):
        raise ExportError("record hash mismatch: file is corrupt or edited")
    metadata = dict(payload.get("metadata", {}))
    if "config_echo" in payload:
        metadata["config_echo"] = payload["config_echo"]
    return Spectrogram(
        times=np.array(payload["times_fs"], dtype=float),
        populations=np.array(payload["populations"], dtype=float),
        norm_drift_series=np.array(payload["norm_drift"], dtype=float),
        n_max=int(payload["n_max"]),
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
    digest = spectrogram_hash(spec, config_echo)
    export_spectrogram(spec, spec_path, JSON_FORMAT, config_echo)
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
