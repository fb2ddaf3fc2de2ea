"""CSV matrix files and the binary model archive."""

from __future__ import annotations

import hashlib
import os
import stat
import struct
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError, ValidationError
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
    or cell.  The reference parse: it runs only when numpy's float reader
    rejects a file, and its array or error is what load_matrix_csv gives."""
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


# _parse_plain reads a file of plain decimal cells in blocks of whole lines,
# each at least _PLAIN_BLOCK bytes long, so that a read holds the output and
# a few copies of one block.  32 KiB blocks read as fast as 64 KiB ones; with
# 64 KiB blocks the geant-cli bench's peak RSS rose by 1.4 MB in 9 of 10
# runs, against 0 of 8 with 16 or 32 KiB (allocator placement; 2-vCPU
# Xeon VM).
# A cell with digits m and f of them after its dot is m / 10**f.  m < 2**64
# and 10**f (f <= 27; 5**27 < 2**63) are exact in x87 long double's 64-bit
# significand, so the division is rounded once, correctly, to 64 bits
# (Clinger, PLDI 1990).  Rounding that to float64 is correct too, unless the
# quotient lies exactly halfway between two float64s: its low 11 significand
# bits are then 0b10000000000, and float() parses the cell again.
_PLAIN_BLOCK = 1 << 15
_DOT, _COMMA, _NEWLINE = b".,\n"
_POW10_LD = np.array([10 ** f for f in range(28)], np.longdouble)
_LD_WORDS = np.dtype(np.longdouble).itemsize // 4
# nmant is the format's; the sum checks that the arithmetic keeps 64 bits
# too (x87 precision control can be set to 53 bits)
_EXACT_DIVISION = (np.finfo(np.longdouble).nmant == 63
                   and sys.byteorder == "little"
                   and np.longdouble(1) + np.longdouble(2) ** -60 != 1)


def _count_lines(fh) -> tuple:
    """(lines, bytes) of fh from its position to its end; a last line
    without "\\n" counts."""
    buf = bytearray(_PLAIN_BLOCK)
    chars = np.frombuffer(buf, np.uint8)
    lines = size = 0
    last = _NEWLINE
    while n := fh.readinto(buf):
        lines += np.count_nonzero(chars[:n] == _NEWLINE)
        size += n
        last = chars[n - 1]
    return lines + (last != _NEWLINE), size


def _plain_block(block, cols, out) -> int:
    """Write the cells of block, whole lines ending in "\\n", into the start
    of the flat array out; return how many lines that was, or 0 if block
    holds a byte other than a digit, ",", "." or "\\n", a line without
    `cols` cells, an empty cell, a cell with two dots or more than 27 digits
    after its dot, or digits of 2**64 or more."""
    buf = np.frombuffer(block, np.uint8)
    marks = np.flatnonzero(buf < ord("0"))
    kinds = buf[marks]
    is_dot = kinds == _DOT
    lines = np.count_nonzero(kinds == _NEWLINE)
    if (buf.max() > ord("9") or lines + np.count_nonzero(is_dot)
            + np.count_nonzero(kinds == _COMMA) != kinds.size
            or (is_dot[1:] & is_dot[:-1]).any()):
        return 0
    # A cell's dot, if it has one, is the mark just before its separator:
    # f = sep - dot - 1, else 0.  The first separator's index -1 reads the
    # block's last mark, its final "\n", which is not a dot.
    sep_at = np.flatnonzero(~is_dot)
    seps = marks[sep_at]
    sep_at -= 1
    f = seps - marks[sep_at]
    f -= 1
    f *= is_dot[sep_at]
    if (seps.size != lines * cols or seps.size > out.size
            or f.max() >= len(_POW10_LD)):
        return 0
    try:
        digits = np.loadtxt(block.translate(None, b".").decode("ascii")
                            .splitlines(), delimiter=",", dtype=np.uint64,
                            ndmin=2)
    except ValueError:
        return 0
    # loadtxt skips a line left empty, such as "." or a blank line
    if digits.shape != (lines, cols):
        return 0
    q = digits.reshape(-1).astype(np.longdouble)
    q /= _POW10_LD[f]
    cells = out[:seps.size]
    cells[...] = q
    for k in np.flatnonzero(q.view(np.uint32)[::_LD_WORDS] & 0x7FF
                            == 0x400).tolist():
        cells[k] = float(block[seps[k - 1] + 1 if k else 0:seps[k]])
    return lines


def _parse_plain(path):
    """The cells of path, each the float64 nearest its text, or None for
    an empty file, a first line with more cells than the file has room for,
    a block that _plain_block declines, a path that is not a regular file
    (a pipe cannot be read twice), or a platform without x87 long double
    arithmetic (see _PLAIN_BLOCK)."""
    if not (_EXACT_DIVISION and stat.S_ISREG(os.stat(path).st_mode)):
        return None
    with open(path, "rb") as fh:
        rows, size = _count_lines(fh)
        fh.seek(0)
        cols = fh.readline().count(b",") + 1
        fh.seek(0)
        # each cell has a digit and the byte after it
        if not rows or rows * cols > (size + 1) // 2:
            return None
        out = np.empty((rows, cols))
        cells = out.reshape(-1)
        done = 0
        while done < rows:
            block = fh.read(_PLAIN_BLOCK) + fh.readline()
            if not block.endswith(b"\n"):
                block += b"\n"
            lines = _plain_block(block, cols, cells[done * cols:])
            if not lines:
                return None
            done += lines
    return out


def _parse_csv(path) -> np.ndarray:
    """_parse_plain, and if it gives None, numpy's C float reader over the
    data lines.  On any ValueError from that (a bad cell, a ragged row, a
    cell such as '1_0' that float() takes and numpy does not, or a decode
    error) _parse_cells reads the file again, and its array or error stands.
    Each path rounds every cell correctly, so the array does not depend on
    which one read it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        arr = _parse_plain(path)
        if arr is not None:
            return arr
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return np.loadtxt(_data_lines(fh), delimiter=",",
                                  comments=None, dtype=float, ndmin=2)
            except ValueError:
                pass
    return _parse_cells(path)


def load_matrix_csv(path) -> np.ndarray:
    """Parse a headerless numeric CSV ('#' comments allowed) into a 2-D
    float array.  The values are not checked: that is the job of the matrix
    type the array is given to, whose cell coordinates then count data rows
    only (comment and blank lines do not count).

    Every cell is the float64 nearest its text, whichever reader of
    _parse_csv takes the file.  A file of plain decimal cells, such as
    write_matrix_csv writes for cells of 0 or in [1e-4, 1e17), is read in
    blocks of lines, so the read holds little more than the array.
    """
    try:
        arr = _parse_csv(path)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    if not arr.size:
        raise ParseError(f"{path}: no data rows")
    return arr


# write_matrix_csv formats up to _BLOCK cells at a time with numpy integer
# arithmetic.  Each cell gets one _ROW-byte row of a char block, and one
# masked gather keeps the bytes of its text:
#   col 5       the separator before the cell ("\n" before a row's first)
#   col 6       "-" for a negative cell, else the separator again
#   cols 7-23   its 17 significant digits d_0..d_16 (copy A)
#   cols 26-30  "0"s, for the "0.000" of a cell below 1 in magnitude
#   cols 31-47  the same digits again (copy B), with "." written at 31 + X
# A cell with decimal exponent X and n digits after trailing zeros are cut
# keeps cols 6..7+X and, if it has a fraction, 31+X..30+n when X >= 0, or
# cols 6 and 30+X..30+n when X < 0; a negative cell keeps col 5 as well.
# Cells that format_float writes ("0", "inf", "1e+17", ...) are copied to
# cols 7-30 and keep cols 6..6+length.
_BLOCK = 4096
_ROW = 48
_SEP, _SIGN, _A, _PAD, _B = 5, 6, 7, 26, 31
_POW10 = np.array([float(10 ** s) for s in range(23)])  # all exact
_SPLITTER = 134217729.0              # 2**27 + 1
_TEXT_CODE = 2 * 21 * 17             # the codes of (sign, X, n) come first


def _split(a, hi, lo) -> None:
    """Dekker's split a = hi + lo into two 26-bit halves, exactly."""
    np.multiply(a, _SPLITTER, out=hi)
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)
    np.subtract(a, hi, out=lo)


_POW10_HI, _POW10_LO = np.empty(23), np.empty(23)
_split(_POW10, _POW10_HI, _POW10_LO)


def _keep_masks() -> np.ndarray:
    """The kept columns of a row, indexed by (negative * 21 + X + 4) * 17 +
    n - 1 for a formatted cell and _TEXT_CODE + length for a copied text."""
    masks = np.zeros((_TEXT_CODE + 25, _ROW), bool)
    code = 0
    for neg in (0, 1):
        for x in range(-4, 17):
            for n in range(1, 18):
                m = masks[code]
                m[_SIGN - neg:_SIGN + 1] = True
                if x >= 0:
                    m[_A:_A + x + 1] = True
                    if n > x + 1:
                        m[_B + x:_B + n] = True
                else:
                    m[_B - 1 + x:_B + n] = True
                code += 1
    for length in range(25):
        masks[_TEXT_CODE + length, _SIGN:_A + length] = True
    return masks


_KEEP_MASKS = _keep_masks()


def _scaled_digits(ax, e10, out, scratch) -> None:
    """out = round-half-even(ax * 10**(16 - e10)) as int64, exactly.

    hi + lo = ax * 10**s with no rounding (Dekker's product, Numer. Math.
    18, 1971), and hi >= 2**53 is an even integer, so the rounding is
    hi + rint(lo)."""
    p_hi, p_lo, hi, a_hi, a_lo, lo = scratch
    np.subtract(16, e10, out=out)
    np.take(_POW10_HI, out, out=p_hi, mode="clip")
    np.take(_POW10_LO, out, out=p_lo, mode="clip")
    np.add(p_hi, p_lo, out=hi)
    hi *= ax
    _split(ax, a_hi, a_lo)
    np.multiply(a_hi, p_hi, out=lo)
    lo -= hi
    a_hi *= p_lo
    lo += a_hi
    p_hi *= a_lo
    lo += p_hi
    a_lo *= p_lo
    lo += a_lo
    np.rint(lo, out=lo)
    np.copyto(out, hi, casting="unsafe")
    np.copyto(hi.view(np.int64), lo, casting="unsafe")
    out += hi.view(np.int64)


def _digit_bytes(x, out, tmp) -> None:
    """out = the 8 decimal digits of each x < 10**8 as bytes 0-9, in text
    order when read as little-endian words.  x splits into two 4-digit
    lanes, then four 2-digit lanes, then eight 1-digit lanes.  Splitting
    lane v at q = v // 100 gives (v - 100 q) << 16 | q, which is
    (v << 16) - q ((100 << 16) - 1); the split at v // 10 is alike."""
    u64 = np.uint64
    np.floor_divide(x, u64(10000), out=out)
    np.multiply(out, u64(10000), out=tmp)
    np.subtract(x, tmp, out=tmp)
    tmp <<= u64(32)
    out |= tmp
    np.multiply(out, u64(10486), out=tmp)  # (v * 10486) >> 20 == v // 100
    tmp >>= u64(20)
    tmp &= u64(0x7F0000007F)
    tmp *= u64((100 << 16) - 1)
    out <<= u64(16)
    out -= tmp
    np.multiply(out, u64(103), out=tmp)    # (v * 103) >> 10 == v // 10
    tmp >>= u64(10)
    tmp &= u64(0x000F000F000F000F)
    tmp *= u64((10 << 8) - 1)
    out <<= u64(8)
    out -= tmp


def _last_byte(words, out) -> None:
    """out = the index of each word's highest nonzero byte, negative for 0.
    A word of bytes 0-9 converts to a float of the same top byte."""
    np.copyto(out.view(np.float64), words, casting="unsafe")
    out >>= 52
    out -= 1023
    out >>= 3


class _BlockFormatter:
    """The work arrays of write_matrix_csv, for blocks of up to `size`
    cells."""

    def __init__(self, size):
        self.ax = np.empty(size)
        self.in_range = np.empty(size, bool)
        self.neg = np.empty(size, bool)
        self.e10 = np.empty(size, np.intp)
        self.digits = np.empty(size, np.int64)
        self.code = np.empty(size, np.intp)
        self.scratch = np.empty((6, size))
        self.chars = np.zeros((size, _ROW), np.uint8)
        self.keep = np.empty((size, _ROW), bool)
        self.dot_cols = np.arange(_B, size * _ROW, _ROW)

    def text(self, block, row_start) -> np.ndarray:
        """The bytes of a k x m block, each cell after its separator; the
        first column's is "\\n" if row_start is True."""
        k, m = block.shape
        n = k * m
        ax, e10, d, code = (a[:n] for a in (
            self.ax, self.e10, self.digits, self.code))
        in_range, neg = self.in_range[:n], self.neg[:n]
        scratch = self.scratch[:, :n]
        chars = self.chars[:n]

        np.abs(block, out=ax.reshape(k, m))
        np.greater_equal(ax, 1e-4, out=in_range)
        in_range &= ax < 1e17
        np.signbit(block, out=neg.reshape(k, m))
        neg &= in_range
        np.copyto(ax, 1.0, where=~in_range)
        np.log10(ax, out=scratch[0])
        np.floor(scratch[0], out=scratch[0])
        np.copyto(e10, scratch[0], casting="unsafe")
        np.clip(e10, -4, 16, out=e10)
        _scaled_digits(ax, e10, d, scratch)
        # log10 may put e10 one off near a power of ten
        if d.min() < 10 ** 16 or d.max() >= 10 ** 17:
            off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
            e10[off] += np.where(d[off] < 10 ** 16, -1, 1)
            fixed = np.empty(off.size, np.int64)
            _scaled_digits(ax[off], e10[off], fixed,
                           np.empty((6, off.size)))
            d[off] = fixed

        # d = d_0 * 10**16 + u * 10**8 + v; the digits of u and v as words
        words = scratch.view(np.uint64)
        uv, dig, tmp = words[0:2], words[2:4], words[4:6]
        d = d.view(np.uint64)
        d0 = ax.view(np.uint64)
        np.floor_divide(d, np.uint64(10 ** 16), out=d0)
        np.multiply(d0, np.uint64(10 ** 16), out=tmp[0])
        np.subtract(d, tmp[0], out=uv[1])
        np.floor_divide(uv[1], np.uint64(10 ** 8), out=uv[0])
        np.multiply(uv[0], np.uint64(10 ** 8), out=tmp[0])
        uv[1] -= tmp[0]
        _digit_bytes(uv, dig, tmp)
        last = tmp.view(np.int64)
        _last_byte(dig, last)

        code[:] = neg
        code *= 21
        code += e10
        code *= 17
        # the number of digits left once trailing zeros are cut, minus one
        last[0] += 1
        last[1] += 9
        np.maximum(last[0], last[1], out=last[0])
        np.maximum(last[0], 0, out=last[0])
        code += last[0]
        code += 4 * 17

        dig |= np.uint64(0x3030303030303030)
        words = chars.view("<u8")
        words[:, 1], words[:, 2] = dig
        words[:, 4], words[:, 5] = dig
        d0 += np.uint64(ord("0"))
        chars[:, _A] = d0
        chars[:, _B] = d0
        chars[:, _PAD:_B] = ord("0")
        sep = chars[:, _SEP].reshape(k, m)
        sep[...] = ord(",")
        if row_start:
            sep[:, 0] = ord("\n")
        chars[:, _SIGN] = chars[:, _SEP]
        chars[:, _SIGN][neg] = ord("-")
        np.add(self.dot_cols[:n], e10, out=e10)
        chars.reshape(-1)[e10] = ord(".")

        texts = np.flatnonzero(~in_range)
        if texts.size:
            strs = [format_float(v)
                    for v in block[np.divmod(texts, m)].tolist()]
            code[texts] = [_TEXT_CODE + len(s) for s in strs]
            chars[texts, _A:_B] = np.frombuffer(
                "".join(s.ljust(_B - _A) for s in strs).encode("ascii"),
                np.uint8).reshape(-1, _B - _A)
        # mode="clip" takes straight into out; "raise" would buffer
        keep = np.take(_KEEP_MASKS, code, axis=0, out=self.keep[:n],
                       mode="clip")
        return chars.reshape(-1)[keep.reshape(-1)]


def write_matrix_csv(path, matrix, header=None) -> None:
    """Row-major CSV, 17 significant digits, \\n endings; header, if given,
    is the first line, also when the matrix has no rows.

    Every cell is written as format_float writes it, so an integer-valued
    cell below 1e17 reads as an integer.  Cells of magnitude in [1e-4,
    1e17) are formatted in blocks of _BLOCK cells by numpy integer
    arithmetic; the others (0, subnormals, 1e17 and above, inf and nan) by
    format_float itself, one at a time.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ShapeError("can only write 2-D matrices")
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode("utf-8") + b"\n")
        if not arr.size:
            fh.write(b"\n" * rows)
            return
        blocks = _BlockFormatter(min(arr.size, _BLOCK))
        step = max(1, _BLOCK // cols)
        skip = 1  # the separator before the first cell
        for r in range(0, rows, step):
            for c in range(0, cols, _BLOCK):
                fh.write(blocks.text(arr[r:r + step, c:c + _BLOCK],
                                     c == 0)[skip:])
                skip = 0
        fh.write(b"\n")


def sha256_hex(data) -> str:
    """Hex sha256 of bytes or of a C-contiguous buffer such as an ndarray."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ModelArchive:
    """A trained model, which carries its routing and penalty weights, plus
    training provenance."""

    model: FactorModel
    provenance: dict = field(default_factory=dict)


def save_model(path, archive: ModelArchive) -> None:
    """Line-oriented text header + length-prefixed little-endian float64 blocks.

    The header's payload_sha256 is the sha256 of everything after its
    `matrices` line: each matrix line, length prefix and data block.
    """
    m = archive.model
    lags = ",".join(str(v) for v in m.lag_set.lags) or "-"
    header = [
        f"{ARCHIVE_MAGIC} {ARCHIVE_VERSION}",
        f"dims {m.n_flows} {m.rank} {m.n_timestamps} {m.routing.shape[0]}",
        f"lags {lags}",
    ] + [f"{key} {format_float(getattr(m.weights, key))}" for key in _WEIGHTS]
    for key in sorted(archive.provenance):
        header.append(f"prov {key} {archive.provenance[key]}")
    matrices = [
        ("spatial", m.spatial),
        ("latent", m.latent),
        ("ar_weights", m.ar_weights),
        ("routing", m.routing),
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
            # a size beyond the file's end is never read: the read would
            # allocate it first
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            raw = fh.read(nbytes) if nbytes <= left else b""
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
        model = FactorModel.from_factors(
            matrices["spatial"], matrices["latent"], matrices["ar_weights"],
            lag_set, RoutingMatrix(matrices["routing"]), weights)
    except (ShapeError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return ModelArchive(model=model, provenance=provenance)
