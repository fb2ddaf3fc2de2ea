"""CSV matrix files, flat config files and the binary model archive."""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ShapeError, ValidationError
from .factors import FactorModel, LagSet, RegularizationWeights
from .network import RoutingMatrix

ARCHIVE_MAGIC = "TTNMF-MODEL"
ARCHIVE_VERSION = 1

_WEIGHTS = ("lambda_temporal", "lambda_ortho", "beta_temporal", "beta_ortho")


def format_float(v) -> str:
    """17 significant digits: round-trips float64 exactly."""
    return "%.17g" % v


def _data_lines(fh):
    """The lines of fh that hold data: not blank and not a '#' comment."""
    for line in fh:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line


def _parse_cells(path) -> np.ndarray:
    """Parse path one cell at a time with float(), naming the first bad row
    or cell.  The reference parse: it runs only when numpy rejects a file."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in _data_lines(fh):
            cells = line.strip().split(",")
            r = len(rows) + 1
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(
                    f"{path}: ragged row {r}: expected {width} cells, got "
                    f"{len(cells)}")
            parsed = []
            for c, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: parse error at row {r} col {c}: "
                        f"{cell.strip()!r}") from None
            rows.append(parsed)
    return np.asarray(rows, dtype=float)


def _parse_csv(path) -> np.ndarray:
    """numpy's C reader over the data lines.  On any ValueError from it (a
    bad cell, a ragged row, a cell such as '1_0' that float() takes and numpy
    does not, or a decode error) _parse_cells reads the file again, and its
    array or error stands."""
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(_data_lines(fh), delimiter=",", comments=None,
                              dtype=float, ndmin=2)
        except ValueError:
            pass
    return _parse_cells(path)


def load_matrix_csv(path) -> np.ndarray:
    """Parse a headerless numeric CSV ('#' comments allowed) into a 2-D
    float array.  The values are not checked: that is the job of the matrix
    type the array is given to, whose cell coordinates then count data rows
    only (comment and blank lines do not count).
    """
    try:
        arr = _parse_csv(path)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    if not arr.size:
        raise ParseError(f"{path}: no data rows")
    return arr


def write_matrix_csv(path, matrix) -> None:
    """Row-major CSV, 17 significant digits, no header, \\n endings."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ShapeError("can only write 2-D matrices")
    # format_float's "%.17g" for every cell, one % operation per row; only
    # one row at a time is held as Python floats
    line = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in arr:
            fh.write(line % tuple(row.tolist()))


def parse_config_file(path) -> dict:
    """Flat key=value file; '#' comments and blank lines ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def sha256_hex(data) -> str:
    """Hex sha256 of bytes or of a C-contiguous buffer such as an ndarray."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ModelArchive:
    """Everything needed to run estimation, plus training provenance."""

    model: FactorModel
    routing: RoutingMatrix
    provenance: dict = field(default_factory=dict)
    version: int = ARCHIVE_VERSION


def save_model(path, archive: ModelArchive) -> None:
    """Line-oriented text header + length-prefixed little-endian float64 blocks.

    The header's payload_sha256 is the sha256 of everything after its
    `matrices` line: each matrix line, length prefix and data block.
    """
    m = archive.model
    lags = ",".join(str(v) for v in m.lag_set.lags) or "-"
    header = [
        f"{ARCHIVE_MAGIC} {archive.version}",
        f"dims {m.n_flows} {m.rank} {m.n_timestamps} "
        f"{archive.routing.n_links}",
        f"lags {lags}",
    ] + [f"{key} {format_float(getattr(m.weights, key))}" for key in _WEIGHTS]
    for key in sorted(archive.provenance):
        header.append(f"prov {key} {archive.provenance[key]}")
    matrices = [
        ("spatial", m.spatial),
        ("latent", m.latent),
        ("ar_weights", m.ar_weights),
        ("routing", archive.routing.entries),
    ]
    payload = []
    for name, arr in matrices:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        raw = arr.tobytes(order="C")
        payload += [f"matrix {name} {arr.shape[0]} {arr.shape[1]}\n"
                    .encode("ascii"), struct.pack("<Q", len(raw)), raw]
    digest = hashlib.sha256()
    for chunk in payload:
        digest.update(chunk)
    header.append(f"payload_sha256 {digest.hexdigest()}")
    header.append(f"matrices {len(matrices)}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.writelines(payload)


def _read_line(fh, path) -> str:
    """The next line of fh without its newline ("" at the end of the file)."""
    chunk = fh.readline()
    if chunk.endswith(b"\n"):
        chunk = chunk[:-1]
    try:
        return chunk.decode("ascii")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: non-ASCII byte in a header line") from None


def _parse(path, what, cast, value):
    """cast(value), with any ValueError (ConfigError included) as ParseError."""
    try:
        return cast(value)
    except ValueError as exc:
        raise ParseError(f"{path}: bad {what}: {exc}") from None


def _dims(text) -> tuple:
    """The four ints of a dims line: OD pairs, rank, timestamps, links."""
    values = text.split()
    if len(values) != 4:
        raise ValueError(f"expected 4 integers, got {text!r}")
    return tuple(int(v) for v in values)


def load_model(path) -> ModelArchive:
    """Inverse of save_model; matrices round-trip bit-exactly.

    A malformed or truncated archive, one that lacks a header field, or one
    whose matrix payload does not match its payload_sha256 or whose matrices
    do not have the shapes of its dims line, raises ParseError (or ShapeError
    / ValidationError naming path when well-formed factors are invalid or do
    not fit together).
    """
    with open(path, "rb") as fh:
        magic = _read_line(fh, path).split()
        if len(magic) != 2 or magic[0] != ARCHIVE_MAGIC:
            raise ParseError(f"{path}: not a model archive")
        version = _parse(path, "archive version", int, magic[1])
        if version != ARCHIVE_VERSION:
            raise ParseError(f"{path}: unsupported archive version {version}")
        fields = {}
        provenance = {}
        while True:
            line = _read_line(fh, path)
            if not line:
                raise ParseError(f"{path}: truncated header")
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(f"{path}: bad header line {line!r}")
            if parts[0] == "matrices":
                n_matrices = _parse(path, "matrix count", int, parts[1])
                break
            if parts[0] == "prov":
                provenance[parts[1]] = " ".join(parts[2:])
            else:
                fields[parts[0]] = " ".join(parts[1:])
        digest = hashlib.sha256()
        matrices = {}
        for _ in range(n_matrices):
            line = _read_line(fh, path)
            digest.update(line.encode("ascii") + b"\n")
            head = line.split()
            if len(head) != 4 or head[0] != "matrix":
                raise ParseError(f"{path}: bad matrix header {head!r}")
            name = head[1]
            rows, cols = (_parse(path, f"matrix {name} shape", int, v)
                          for v in head[2:])
            prefix = fh.read(8)
            if len(prefix) != 8:
                raise ParseError(f"{path}: truncated length prefix for {name}")
            (nbytes,) = struct.unpack("<Q", prefix)
            if min(rows, cols) < 0 or nbytes != rows * cols * 8:
                raise ParseError(
                    f"{path}: matrix {name}: {nbytes} bytes for "
                    f"{rows}x{cols} float64")
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ParseError(f"{path}: truncated matrix {name}")
            digest.update(prefix)
            digest.update(raw)
            matrices[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)

    for required in ("payload_sha256", "dims", "lags", *_WEIGHTS):
        if required not in fields:
            raise ParseError(f"{path}: missing header field {required!r}")
    if fields["payload_sha256"] != digest.hexdigest():
        raise ParseError(f"{path}: matrix payload does not match its "
                         f"payload_sha256")
    for required in ("spatial", "latent", "ar_weights", "routing"):
        if required not in matrices:
            raise ParseError(f"{path}: missing matrix {required!r}")
    n, k, t, links = _parse(path, "dims line", _dims, fields["dims"])
    for name, shape in (("spatial", (n, k)), ("latent", (k, t)),
                        ("routing", (links, n))):
        if matrices[name].shape != shape:
            raise ParseError(
                f"{path}: dims {n} {k} {t} {links} give {name} the shape "
                f"{shape}, not {matrices[name].shape}")
    lag_set = _parse(path, "lags line", LagSet.from_text, fields["lags"])
    weights = _parse(path, "penalty weights", lambda f: RegularizationWeights(
        **{key: float(f[key]) for key in _WEIGHTS}), fields)
    try:
        routing = RoutingMatrix(matrices["routing"])
        model = FactorModel.from_factors(
            matrices["spatial"], matrices["latent"], matrices["ar_weights"],
            lag_set, routing, weights)
    except (ShapeError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return ModelArchive(model=model, routing=routing, provenance=provenance)
