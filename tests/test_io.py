"""CSV parsing and writing, model archive round trip."""

import decimal
import hashlib
import math
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import ttnmf.fileio
from ttnmf import (FactorModel, LagSet, LinkFlowMatrix, ModelArchive,
                   RegularizationWeights, RoutingMatrix, TrafficMatrix,
                   load_matrix_csv, load_model, save_model, write_matrix_csv)
from ttnmf.errors import ParseError, ValidationError
from ttnmf.fileio import format_float


def test_load_routing_identity(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,0\n0,1\n")
    arr = load_matrix_csv(p)
    np.testing.assert_array_equal(arr, np.eye(2))


def test_load_non_numeric_cell(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(ParseError, match=r"row 2 col 2"):
        load_matrix_csv(p)


def test_load_negative_traffic_names_cell(tmp_path):
    # the reader keeps the value; the type names its cell, counting data
    # rows only
    p = tmp_path / "a.csv"
    p.write_text("# comment\n0,0\n\n-1,0\n")
    arr = load_matrix_csv(p)
    assert arr[1, 0] == -1.0
    with pytest.raises(ValidationError, match=r"\(2,1\) is -1.0$"):
        TrafficMatrix(arr)


def test_load_non_binary_routing_names_cell(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,0\n# comment\n0,2\n")
    arr = load_matrix_csv(p)
    assert arr[1, 1] == 2.0
    with pytest.raises(ValidationError, match=r"\(2,2\) is 2.0$"):
        RoutingMatrix(arr)


def test_load_ragged_row(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="ragged row 2"):
        load_matrix_csv(p)


def test_load_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("# header comment\n\n1,2\n# interior\n3,4\n")
    arr = load_matrix_csv(p)
    np.testing.assert_array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])


def test_load_rejects_non_finite(tmp_path):
    # the reader parses inf; the type it is given to rejects it
    p = tmp_path / "a.csv"
    p.write_text("1,inf\n")
    arr = load_matrix_csv(p)
    assert arr[0, 1] == np.inf
    with pytest.raises(ValidationError, match=r"must be finite; cell \(1,2\)"):
        LinkFlowMatrix(arr)


def test_load_empty_file(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("# nothing here\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_matrix_csv(p)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((7, 5)) * np.array([1e-9, 1.0, 1e9, np.pi, 1 / 3])
    p = tmp_path / "a.csv"
    write_matrix_csv(p, arr)
    back = load_matrix_csv(p)
    # 17 significant digits round-trip float64 exactly
    assert (back == arr).all()


def test_csv_deterministic_bytes(tmp_path):
    arr = np.array([[0.1, 2.0], [3.5, 4.25]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(p1, arr)
    write_matrix_csv(p2, arr)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")
    assert b"\r" not in p1.read_bytes()


def test_format_float_17g():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(np.pi)) == np.pi


def _small_archive():
    rng = np.random.default_rng(5)
    routing = RoutingMatrix((rng.random((4, 6)) < 0.5).astype(float))
    spatial = rng.random((6, 3))
    latent = rng.random((3, 10))
    ar = rng.random((3, 2))
    weights = RegularizationWeights(lambda_temporal=0.37, lambda_ortho=1.25,
                                    beta_temporal=0.2, beta_ortho=0.3)
    model = FactorModel.from_factors(spatial, latent, ar, LagSet((1, 2)),
                                     routing, weights)
    prov = {"traffic_sha256": "ab" * 32, "note": "round trip"}
    return ModelArchive(model=model, provenance=prov)


def test_archive_round_trip_bit_exact(tmp_path):
    arch = _small_archive()
    p = tmp_path / "model.ttnmf"
    save_model(p, arch)
    back = load_model(p)
    for name in ("spatial", "latent", "ar_weights"):
        assert (getattr(back.model, name) == getattr(arch.model, name)).all()
    assert (back.model.routing == arch.model.routing).all()
    assert back.model.lag_set.lags == (1, 2)
    assert back.model.weights == arch.model.weights
    assert back.model.weights.lambda_ortho == 1.25
    assert back.provenance == arch.provenance


def test_archive_save_is_deterministic(tmp_path):
    arch = _small_archive()
    p1, p2 = tmp_path / "m1", tmp_path / "m2"
    save_model(p1, arch)
    save_model(p2, arch)
    assert p1.read_bytes() == p2.read_bytes()


def test_archive_payload_checksum(tmp_path):
    # the header names the sha256 of all bytes after the `matrices` line
    p = tmp_path / "m"
    save_model(p, _small_archive())
    data = p.read_bytes()
    found = re.search(rb"\npayload_sha256 ([0-9a-f]{64})\nmatrices 4\n", data)
    assert found
    assert (hashlib.sha256(data[found.end():]).hexdigest().encode()
            == found.group(1))
    p.write_bytes(data[:found.start() + 1] + data[found.end(1) + 1:])
    with pytest.raises(ParseError, match="payload_sha256"):
        load_model(p)


def test_archive_bad_magic(tmp_path):
    p = tmp_path / "m"
    p.write_bytes(b"NOT-A-MODEL 1\n")
    with pytest.raises(ParseError, match="not a model archive"):
        load_model(p)


def test_archive_unsupported_version(tmp_path):
    arch = _small_archive()
    p = tmp_path / "m"
    save_model(p, arch)
    data = p.read_bytes().replace(b"TTNMF-MODEL 1\n", b"TTNMF-MODEL 9\n", 1)
    p.write_bytes(data)
    with pytest.raises(ParseError, match="version"):
        load_model(p)


def test_archive_truncated(tmp_path):
    arch = _small_archive()
    p = tmp_path / "m"
    save_model(p, arch)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 16])
    with pytest.raises(ParseError, match="truncated"):
        load_model(p)


def test_archive_matrix_beyond_the_end_is_not_read(tmp_path):
    # the header and the length prefix agree on 8e16 bytes, more than the
    # address space; 16 bytes follow.  The size is checked against the bytes
    # left in the file, so no read of that size is made.
    p = tmp_path / "m"
    save_model(p, _small_archive())
    data = p.read_bytes()
    start = data.index(b"matrix spatial")
    p.write_bytes(data[:start] + b"matrix spatial 100000000 100000000\n"
                  + struct.pack("<Q", 8 * 10 ** 16) + bytes(16))
    with pytest.raises(ParseError, match="truncated matrix spatial"):
        load_model(p)


@pytest.mark.parametrize("dims", [b"999 1 1 1", b"6 3 10 5", b"6 3 10",
                                  b"6 3 ten 4"])
def test_archive_dims_must_match_matrices(tmp_path, dims):
    # the small archive's spatial is 6 x 3, latent 3 x 10, routing 4 x 6
    p = tmp_path / "m"
    save_model(p, _small_archive())
    data = p.read_bytes()
    assert data.count(b"\ndims 6 3 10 4\n") == 1
    p.write_bytes(data.replace(b"\ndims 6 3 10 4\n",
                               b"\ndims " + dims + b"\n"))
    with pytest.raises(ParseError, match="dims"):
        load_model(p)


@pytest.mark.parametrize("field", ["dims", "lags", "lambda_temporal",
                                   "beta_ortho", "payload_sha256"])
def test_archive_missing_header_field(tmp_path, field):
    p = tmp_path / "m"
    save_model(p, _small_archive())
    data = p.read_bytes()
    line = re.search(rb"\n" + field.encode() + rb" [^\n]*\n", data)
    p.write_bytes(data[:line.start() + 1] + data[line.end():])
    with pytest.raises(ParseError, match=f"missing header field '{field}'"):
        load_model(p)


def _reference_load(path, expected_kind):
    """The per-cell parser load_matrix_csv used before numpy's C reader,
    then the value rule of the kind's matrix type cell by cell in row-major
    order: the reference for the fast path and the type it feeds."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
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
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if expected_kind == "routing":
        rules = [("routing entries must be 0 or 1", lambda v: v not in (0, 1))]
    else:
        rules = [("traffic must be finite", lambda v: not math.isfinite(v)),
                 ("observed traffic must be >= 0", lambda v: v < 0)]
    for rule, bad in rules:
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row, start=1):
                if bad(v):
                    raise ValidationError(f"{rule}; cell ({i},{j}) is {v}")
    return np.asarray(rows, dtype=float)


_TYPES = {"traffic": TrafficMatrix, "routing": RoutingMatrix}


def _outcome(load, path, kind):
    try:
        arr = load(path, kind)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return arr.shape, arr.tobytes()


def _typed_load(path, kind):
    """load_matrix_csv, then the kind's matrix type."""
    return _TYPES[kind](load_matrix_csv(path)).entries


_EDGE_INPUTS = {
    "blank lines": b"\n1,2\n\n3,4\n\n",
    "whitespace-only lines": b"  \n1,2\n\t \n3,4\n   ",
    "comment lines": b"# head\n1,2\n  # indented\n3,4\n#tail",
    "inline comment": b"1,2#x\n3,4\n",
    "spaces and tabs around cells": b" 1 ,\t2\t\n3\t, 4 \n",
    "CRLF endings": b"1,2\r\n3,4\r\n",
    "underscore digits": b"1_0,2\n3,4\n",
    "underscore after a bad cell": b"1,2\n1_0,x\n",
    "trailing comma": b"1,2,\n3,4,\n",
    "empty cell": b"1,,2\n",
    "ragged row": b"1,2,3\n4,5\n",
    "single row": b"0.5,1e-300,7,1e300\n",
    "single column": b"1\n2.5\n3e7\n",
    "single cell, no newline": b"42",
    "nan": b"1,nan\n",
    "inf": b"1,2\n-inf,3\n",
    "negative": b"1,-0.5\n",
    "negative zero": b"-0,1\n",
    "long digit strings": b"0.1000000000000000055511151231257827021181583404541015625,"
                          b"123456789012345678901234567890\n",
    "empty file": b"",
    "only comments": b"# a\n# b\n",
    "only blank lines": b"\n \n\t\n",
    # the boundaries of the plain-decimal reader (_parse_plain)
    "plain, no final newline": b"1.5,2\n3,4.25",
    "dotted and dotless cells": b"0,1.5\n2.25,3\n",
    "leading dot": b".5,1\n",
    "trailing dot": b"5.,1\n",
    "lone dot": b"1,.\n",
    "lone dot row": b"1\n.\n2\n",
    "two dots": b"1.2.3,4\n",
    "leading zeros": b"007.50,1\n",
    "uint64 overflow": b"123456789012345678901,1\n",
    "largest uint64": b"18446744073709551615,1.8446744073709551615\n",
    "28 fraction digits": b"0.0000000000000000000000000001,1\n",
    "27 fraction digits": b"0.000000000000000000000000001,1\n",
    "blank line in plain cells": b"1.5,2\n\n3,4\n",
    "row longer than the block": b",".join([b"1.25"] * 20000) + b"\n"
                                 + b",".join([b"3"] * 20000) + b"\n",
}


@pytest.mark.parametrize("name", list(_EDGE_INPUTS))
@pytest.mark.parametrize("kind", ["traffic", "routing"])
def test_load_matches_reference_parser(tmp_path, name, kind):
    p = tmp_path / "a.csv"
    p.write_bytes(_EDGE_INPUTS[name])
    assert (_outcome(_typed_load, p, kind)
            == _outcome(_reference_load, p, kind))


def test_load_reads_well_formed_files_without_per_cell_parse(tmp_path,
                                                            monkeypatch):
    def no_fallback(path):
        raise AssertionError("per-cell parse ran on a well-formed file")

    monkeypatch.setattr(ttnmf.fileio, "_parse_cells", no_fallback)
    p = tmp_path / "a.csv"
    for name in ("blank lines", "whitespace-only lines", "comment lines",
                 "spaces and tabs around cells", "CRLF endings", "single row",
                 "single column", "only comments"):
        p.write_bytes(_EDGE_INPUTS[name])
        assert (_outcome(_typed_load, p, "traffic")
                == _outcome(_reference_load, p, "traffic")), name


_needs_x87 = pytest.mark.skipif(
    not ttnmf.fileio._EXACT_DIVISION,
    reason="the plain-decimal reader needs x87 80-bit long double")


@_needs_x87
def test_plain_decimal_files_skip_the_float_readers(tmp_path, monkeypatch):
    # only the float readers iterate _data_lines
    def no_float_reader(fh):
        raise AssertionError("a float reader ran on a plain decimal file")

    monkeypatch.setattr(ttnmf.fileio, "_data_lines", no_float_reader)
    p = tmp_path / "a.csv"
    for name in ("plain, no final newline", "dotted and dotless cells",
                 "leading dot", "trailing dot", "leading zeros",
                 "largest uint64", "27 fraction digits",
                 "row longer than the block"):
        p.write_bytes(_EDGE_INPUTS[name])
        assert (_outcome(_typed_load, p, "traffic")
                == _outcome(_reference_load, p, "traffic")), name


def test_plain_decimal_reader_declines_without_x87(tmp_path, monkeypatch):
    monkeypatch.setattr(ttnmf.fileio, "_EXACT_DIVISION", False)
    p = tmp_path / "a.csv"
    p.write_bytes(b"0.1,2\n3.5,4\n")
    assert ttnmf.fileio._parse_plain(p) is None
    np.testing.assert_array_equal(load_matrix_csv(p), [[0.1, 2], [3.5, 4]])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_load_reads_a_named_pipe(tmp_path):
    # a pipe can be read only once, so the plain reader, which reads a file
    # twice, leaves it to numpy's float reader
    p = tmp_path / "pipe.csv"
    os.mkfifo(p)

    def feed():
        with open(p, "wb") as fh:
            fh.write(b"0.1,2\n3.5,4\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    arr = load_matrix_csv(p)
    writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(arr, [[0.1, 2], [3.5, 4]])


def _midpoint_texts(rng, n) -> list:
    """n cells within 5e-19 relative of a point halfway between two float64s
    (an odd 54-bit integer times a power of two, in [1e-4, 1e17)), written
    to 19 significant digits.  Many of them divide to that point exactly in
    64 bits, so float64 rounding alone would often pick the wrong side."""
    mant = rng.integers(2 ** 52, 2 ** 53, n) * 2 + 1
    exp2 = rng.integers(-66, 3, n)
    with decimal.localcontext() as ctx:
        ctx.prec = 100  # m * 2**e is exact: at most 17 + 47 digits
        return [format(decimal.Decimal(int(m)) * decimal.Decimal(2) ** int(e),
                       ".19g") for m, e in zip(mant, exp2)]


@_needs_x87
def test_plain_decimal_reader_rounds_like_float(tmp_path):
    rng = np.random.default_rng(37)
    texts = []
    for fmt, top in (("%.17g", 17), ("%.16g", 16), ("%.15g", 15),
                     ("%.17f", 2)):
        # the range in which fmt writes no exponent and, for "%.17f",
        # digits below 2**64
        values = 10.0 ** rng.uniform(-4, top, 20000)
        texts += [fmt % v for v in values.tolist()]
    mids = _midpoint_texts(rng, 50000)
    for cells in (texts, mids):
        p = tmp_path / "a.csv"
        p.write_text("\n".join(",".join(cells[i:i + 100])
                               for i in range(0, len(cells), 100)) + "\n")
        got = ttnmf.fileio._parse_plain(p)
        assert got is not None
        want = np.array([float(c) for c in cells]).reshape(got.shape)
        off = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not off.size, [cells[i] for i in off[:5]]


def test_read_peak_traced_memory_is_bounded(tmp_path):
    # the geant-cli bench estimate's shape and text; a read holds the
    # matrix and a few copies of one block of lines
    arr = np.random.default_rng(0).random((506, 672)) * 1e6
    p = tmp_path / "a.csv"
    write_matrix_csv(p, arr)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        back = load_matrix_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arr.nbytes + (1 << 20)
    assert back.tobytes() == arr.tobytes()


def test_load_matches_reference_on_random_floats(tmp_path):
    rng = np.random.default_rng(3)
    arr = np.abs(rng.standard_normal((40, 7))) * 10.0 ** rng.integers(
        -300, 300, size=(40, 7))
    p = tmp_path / "a.csv"
    p.write_text("\n".join(",".join(repr(v) for v in row)
                           for row in arr.tolist()) + "\n")
    assert (_outcome(_typed_load, p, "traffic")
            == _outcome(_reference_load, p, "traffic"))


def test_load_non_utf8_is_parse_error(tmp_path):
    p = tmp_path / "a.csv"
    p.write_bytes(b"1,2\n3,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_matrix_csv(p)


def test_write_matches_per_cell_format(tmp_path):
    big = float(2 ** 62 + 1)
    cases = [
        np.array([[-0.0, 5e-324, 1e300], [big, 123456789012.0, 0.1]]),
        np.array([[1.5], [-0.0], [5e-324]]),
        np.array([[1e300, big, -0.0, 7.0]]),
        np.zeros((2, 0)),
    ]
    p = tmp_path / "a.csv"
    for arr in cases:
        write_matrix_csv(p, arr)
        expected = "".join(",".join("%.17g" % v for v in row) + "\n"
                           for row in arr)
        assert p.read_bytes() == expected.encode()


def _per_cell_text(arr) -> bytes:
    """The oracle of write_matrix_csv: "%.17g" cell by cell."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in arr).encode()


def _writer_values(rng) -> np.ndarray:
    """Each class of float64 that the blocked writer treats apart, in both
    signs."""
    powers = 10.0 ** np.arange(-8, 20)
    near = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    odd = rng.integers(0, 2 ** 52, 2000) | 1
    magnitudes = np.concatenate([
        rng.integers(0, 2 ** 64, 4000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-300, 300, 4000),
        10.0 ** rng.uniform(-5, 18, 4000),
        *near,
        # exact ties at the 17th digit, and integers around 2**53
        (2.0 ** 52 + odd) / 4, (2.0 ** 52 + odd) / 8,
        2.0 ** 53 + np.arange(-50.0, 50.0),
        np.arange(0.0, 3.0, 0.001),
        [0.0, np.inf, np.nan, 5e-324, np.finfo(float).max,
         np.finfo(float).tiny, 1e-4, np.nextafter(1e-4, 0.0), 1e17,
         np.nextafter(1e17, 0.0)],
    ])
    return np.concatenate([magnitudes, -magnitudes])


def test_write_matches_per_cell_oracle_on_every_value_class(tmp_path):
    values = _writer_values(np.random.default_rng(31))
    square = values[:len(values) // 60 * 60].reshape(-1, 60)
    p = tmp_path / "a.csv"
    for arr in (values.reshape(-1, 1), values[None, 8000:13200], square,
                square.T, square[::3, 1::7], values[:1].reshape(1, 1),
                np.zeros((2, 0)), np.zeros((0, 3))):
        write_matrix_csv(p, arr)
        assert p.read_bytes() == _per_cell_text(arr), arr.shape


def test_write_peak_traced_memory_is_bounded(tmp_path):
    # the geant-cli bench estimate's shape; as one list of Python floats the
    # whole matrix took about 11 MB
    arr = np.random.default_rng(0).random((506, 672)) * 1e6
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write_matrix_csv(tmp_path / "a.csv", arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    np.testing.assert_array_equal(load_matrix_csv(tmp_path / "a.csv"), arr)
