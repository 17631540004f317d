"""Serialization for encoders, feature dumps, matrices, and heatmaps.

Encoder checkpoints use a small binary container so round trips are
bit-exact. Everything human-facing (features, alignment matrices) goes
through CSV with full-precision floats; heatmaps render to 8-bit PGM so
they can be eyeballed without plotting libraries.

Every CSV writer (here and in datagen) goes through one row writer,
_write_id_rows: integer columns, then float64 values as `%.17g`, byte for
byte what a per-value `%.17g` writer gives. It formats blocks of values
at once with a numpy kernel (_format_slots) and leaves only the rows
holding a value the kernel cannot place to a per-row %-template. The
readers parse a whole body with one np.loadtxt call and rescan the text
line by line only to name the first bad line.

A dataset CSV may have a binary copy of its arrays beside it, keyed by
the digest of the CSV's bytes, so that a reader can skip the parse when
the CSV is exactly the one the copy was written with.
"""

import contextlib
import hashlib
import itertools
import os
import secrets
import struct
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .diffcore import DenseLayer, EncoderNet
from .errors import DataFormatError

PathLike = Union[str, Path]

CHECKPOINT_MAGIC = b"MUCK"
CHECKPOINT_VERSION = 1
_FLAG_NORMALIZE = 1

DATASET_COPY_MAGIC = b"MUCD"
DATASET_COPY_VERSION = 2  # version 1 carried a 64-byte blake2b digest
# magic, version, sha256 digest of the CSV bytes, n, d
_COPY_HEAD = struct.Struct("<4sI32sQQ")
_DIGEST_CHUNK = 1 << 20


@contextlib.contextmanager
def atomic_write(path: PathLike, mode: str = "wb", **open_kw):
    """Open a new temp file in path's directory for writing and, once the
    block exits cleanly, os.replace it onto path; if the block raises, the
    temp file is removed and path is left as it was. This guards against an
    interrupted process, not against power loss: nothing is fsynced."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # say which file could not be written, not the temp name
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, mode, **open_kw) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def file_digest(path: PathLike) -> bytes:
    """sha256 digest of a file's bytes, read in fixed 1 MiB chunks
    (sha256 is hardware-accelerated on most CPUs, where it outruns blake2b)."""
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as f:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.digest()


def save_dataset_copy(path: PathLike, digest: bytes, ids: np.ndarray,
                      labels: np.ndarray, samples: np.ndarray) -> None:
    """Write a dataset's arrays in binary, keyed by the digest of its CSV.

    Layout (all little-endian): 4-byte magic, uint32 version, 32-byte
    sha256 digest of the CSV file's bytes, uint64 n, uint64 d, then ids
    and labels as int64 and the (n, d) samples as row-major float64.
    """
    n, d = samples.shape
    with atomic_write(path) as f:
        f.write(_COPY_HEAD.pack(DATASET_COPY_MAGIC, DATASET_COPY_VERSION, digest, n, d))
        for arr, dtype in ((ids, "<i8"), (labels, "<i8"), (samples, "<f8")):
            f.write(np.ascontiguousarray(arr, dtype=dtype).reshape(-1).data)


def load_dataset_copy(path: PathLike, digest: bytes, width: int):
    """The (ids, labels, samples) of a binary dataset copy, or None unless
    the copy exists and its magic, version, digest and width d all match
    and its length is exactly that of n rows. The values are not checked."""
    try:
        with open(path, "rb") as f:
            head = f.read(_COPY_HEAD.size)
            if len(head) != _COPY_HEAD.size:
                return None
            magic, version, got, n, d = _COPY_HEAD.unpack(head)
            expected = (DATASET_COPY_MAGIC, DATASET_COPY_VERSION, digest, width)
            size = _COPY_HEAD.size + 8 * n * (d + 2)
            # the length is checked before reading, so a garbled n allocates nothing
            if (magic, version, got, d) != expected or os.fstat(f.fileno()).st_size != size:
                return None
            ids = np.fromfile(f, dtype="<i8", count=n)
            labels = np.fromfile(f, dtype="<i8", count=n)
            samples = np.fromfile(f, dtype="<f8", count=n * d)
    except OSError:
        return None
    if len(ids) != n or len(labels) != n or len(samples) != n * d:  # shrank after fstat
        return None
    return ids, labels, samples.reshape(n, d)


def save_encoder(net: EncoderNet, path: PathLike) -> None:
    """Write an encoder checkpoint.

    Layout (all little-endian): 4-byte magic, uint32 version, uint32
    layer count, per layer a (uint32 in, uint32 out) pair, uint32 flags
    (bit 0: output normalization), then per layer the weight matrix in
    row-major float64 followed by the bias vector. The file is replaced
    whole, and each array is written from its own buffer, uncopied.
    """
    head = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
            struct.pack("<I", len(net.layers))]
    for layer in net.layers:
        head.append(struct.pack("<II", layer.w.shape[0], layer.w.shape[1]))
    flags = _FLAG_NORMALIZE if net.normalize_output else 0
    head.append(struct.pack("<I", flags))
    with atomic_write(path) as f:
        f.write(b"".join(head))
        for layer in net.layers:
            for arr in (layer.w, layer.b):
                f.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).data)


class _Cursor:
    """Byte reader that reports the offset of whatever failed."""

    def __init__(self, blob: np.ndarray):
        self.blob = blob
        self.pos = 0

    def skip(self, n: int, what: str) -> int:
        """Advance past n bytes; returns where they start."""
        if self.pos + n > len(self.blob):
            raise DataFormatError(
                f"checkpoint truncated at byte {self.pos}: "
                f"needed {n} bytes for {what}, have {len(self.blob) - self.pos}")
        self.pos += n
        return self.pos - n

    def take(self, n: int, what: str) -> bytes:
        at = self.skip(n, what)
        return bytes(self.blob[at:at + n])

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f8(self, count: int, what: str) -> np.ndarray:
        """The next count little-endian float64 values, a view of the blob."""
        at = self.skip(8 * count, what)
        return self.blob[at:at + 8 * count].view("<f8")


def load_encoder(path: PathLike) -> EncoderNet:
    """Read a checkpoint written by save_encoder. The file is read once,
    into one array whose slices become the weights and biases; a malformed
    one raises DataFormatError naming the file and the byte offset."""
    try:
        return _decode_encoder(np.fromfile(path, dtype=np.uint8))
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _decode_encoder(blob: np.ndarray) -> EncoderNet:
    cur = _Cursor(blob)
    magic = cur.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise DataFormatError(
            f"bad checkpoint magic at byte 0: expected {CHECKPOINT_MAGIC!r}, got {magic!r}")
    version = cur.u32("version")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"unsupported checkpoint version {version} at byte 4")
    layer_count = cur.u32("layer count")
    if layer_count == 0 or layer_count > 64:
        raise DataFormatError(
            f"implausible layer count {layer_count} at byte 8")
    shapes = []
    for i in range(layer_count):
        at = cur.pos
        n_in = cur.u32(f"layer {i} input dim")
        n_out = cur.u32(f"layer {i} output dim")
        if n_in == 0 or n_out == 0:
            raise DataFormatError(f"zero layer dimension at byte {at}")
        shapes.append((n_in, n_out))
    flags = cur.u32("flags")
    if flags & ~_FLAG_NORMALIZE:
        raise DataFormatError(f"unknown flag bits {flags:#x} at byte {cur.pos - 4}")
    layers = []
    for i, (n_in, n_out) in enumerate(shapes):
        w = cur.f8(n_in * n_out, f"layer {i} weights").reshape(n_in, n_out)
        b = cur.f8(n_out, f"layer {i} biases")
        layers.append(DenseLayer(w, b))
    if cur.pos != len(cur.blob):
        raise DataFormatError(
            f"trailing garbage: {len(cur.blob) - cur.pos} extra bytes at byte {cur.pos}")
    for prev, nxt in zip(layers, layers[1:]):
        if prev.w.shape[1] != nxt.w.shape[0]:
            raise DataFormatError(
                f"layer shapes do not chain: {prev.w.shape} then {nxt.w.shape}")
    return EncoderNet(layers, normalize_output=bool(flags & _FLAG_NORMALIZE))


# --- %.17g for float64 blocks ----------------------------------------------
#
# Every float the CSV writers emit is `%.17g` text. Python formats one
# value per call, so _format_slots does a block at once in float64 numpy
# arithmetic and leaves to the per-row %-template only the values it
# cannot place exactly. For |v| in [1e-30, 1e30):
#   1. the decimal exponent E = floor(log10 v) comes from np.log10, checked
#      where it is near an integer against 10**k held as an unevaluated
#      (hi, lo) pair of doubles;
#   2. t = v * 10**(8 - E), in [1e8, 1e9), is formed as hi + lo with
#      Dekker's error-free product (Dekker 1971), so t's integer part is
#      the top 9 of the 17 digits and 1e8 * (its fraction) rounds to the
#      low 8; both are exact integers in float64;
#   3. the digits come from 2-digit ASCII tables, as in Ryu's digit
#      generation (Adams 2018), and go into fixed byte positions of a
#      32-byte slot, with NUL wherever `%g` writes nothing (the sign, the
#      "0.000" of E in [-4, -1], the point, trailing zeros, `e+XX`);
#      bytes.translate deletes the NULs.
# The fraction of step 2 is off by far less than 1e-12, so it is rounded
# in float64 unless it is within 1e-9 of a half, where the exact value may
# be a tie that `%.17g` breaks by the round-half-even rule. Such values,
# those outside the range or subnormal, non-finite values and integers
# of two or more digits that end in zero take the per-row template. Zeros
# are placed directly ("0", "-0").

_K0 = -40  # the tables cover exponents [_K0, -_K0]
# Slot bytes: 0 sign, 1-5 "0.000" (right-aligned), 6 lead digit, 7 point,
# 8-23 the other 16 digits, 24-27 `e+XX`, 28 the separator `,` (or the
# line end in a row's last slot), 29-31 NUL.
_SLOT = 32
_CHUNK = 4096  # values formatted per call


def _pow10_pairs(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Doubles (h, l) with h the nearest double to 10**k and l the nearest
    to the remainder 10**k - h, for k in [lo, hi), from exact int ratios."""
    his, los = [], []
    for k in range(lo, hi):
        scale = 10 ** abs(k)
        h = float(scale) if k >= 0 else 1 / scale  # int / int rounds correctly
        num, den = h.as_integer_ratio()
        his.append(h)
        los.append((scale * den - num) / den if k >= 0 else (den - num * scale) / (den * scale))
    return np.array(his), np.array(los)


def _split26(a):
    """Dekker's split of a into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _exponent_tables():
    """Slot parts by exponent E (after rounding), indexed by E - _K0: the
    first 8 bytes ("0.000" prefix only), the last 8 (`e+XX` and the
    separator), whether the point follows the lead digit (exponent
    notation and E = 0; for E >= 1 _format_slots moves it, and for E < 0
    it is in the prefix), and the units digit's index (E in fixed point
    with E >= 1, else 0)."""
    exps = np.arange(_K0, -_K0 + 1)
    fixed = (exps >= -4) & (exps < 17)
    head = np.zeros((len(exps), 8), np.uint8)
    tail = np.zeros((len(exps), 8), np.uint8)
    tail[:, 4] = ord(",")
    for j, e in enumerate(exps.tolist()):
        if e < 0 and fixed[j]:
            head[j, 5 + e:6] = np.frombuffer(b"0." + b"0" * (-1 - e), np.uint8)
        elif not fixed[j]:
            tail[j, :4] = np.frombuffer(b"e%+03d" % e, np.uint8)
    units = np.where(fixed & (exps > 0), exps, 0)
    return (head.view("<u8").ravel(), tail.view("<u8").ravel(), (exps == 0) | ~fixed,
            units)


def _pair_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two ASCII bytes per uint16: "%02d" of 0..99, then the same with a
    trailing zero as NUL (for the last nonzero pair of a number); and the
    lead digit d followed by NUL (index 2d) or by the point (2d + 1)."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    pairs = np.zeros((2, 10, 10, 2), np.uint8)
    pairs[..., 0] = digits[:, None]
    pairs[..., 1] = digits
    pairs[1, :, 0, 1] = 0
    pairs[1, 0, 0, 0] = 0
    lead = np.zeros((10, 2, 2), np.uint8)
    lead[..., 0] = digits[:, None]
    lead[:, 1, 1] = ord(".")
    return pairs.view("<u2").ravel(), lead.view("<u2").ravel()


_P10_HI, _P10_LO = _pow10_pairs(_K0, -_K0 + 1)
_HEAD, _TAIL, _POINT_AFTER_LEAD, _UNITS = _exponent_tables()
_DIGIT2, _LEAD = _pair_tables()


def _at_least_pow10(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """v >= 10**k exactly, for doubles v and exponents k in the table."""
    hi = _P10_HI[k - _K0]
    return (v > hi) | ((v == hi) & (_P10_LO[k - _K0] <= 0))


def _decimal_exponent(v: np.ndarray) -> np.ndarray:
    """floor(log10 v) exactly, for doubles v in [1e-30, 1e30]: np.log10 is
    off by less than 1e-14, so only a log10 that close to an integer k
    needs the exact comparison with 10**k."""
    log = np.log10(v)
    e10 = np.floor(log).astype(np.intp)
    near = np.flatnonzero(np.abs(log - np.round(log)) < 1e-12)
    if near.size:
        pow10 = np.round(log[near]).astype(np.intp)
        e10[near] = pow10 - ~_at_least_pow10(v[near], pow10)
    return e10


def _digits17(v: np.ndarray, e10: np.ndarray):
    """The 17 significant digits of each v in [10**e10, 10**(e10 + 1)),
    rounded to nearest, as top (9 digits) and low (8 digits) in float64,
    and a mask of the values within 1e-9 of a rounding tie, which this
    rounding may break differently from `%.17g`. Where rounding reaches
    10**17, top is 1e8 and e10 is raised by one."""
    # t = v * 10**(8 - e10) as hi + lo, exact up to the table's 2**-106:
    # Dekker's product of v and the table's hi, plus v times its lo
    k = 8 - e10 - _K0
    p10 = _P10_HI[k]
    vh, vl = _split26(v)
    ph, pl = _split26(p10)
    hi = v * p10
    lo = vh * ph
    lo -= hi
    lo += vh * pl
    lo += vl * ph
    lo += vl * pl
    lo += v * _P10_LO[k]
    del k, p10, vh, vl, ph, pl
    top = np.floor(hi)
    # (hi - top) has at most 26 significant bits and 1e8 = 2**8 * 5**8 has
    # 19, so their product is exact; two-sum keeps the rounding of the sum
    frac = hi - top
    frac *= 1e8
    lo *= 1e8
    low = frac + lo
    back = low - frac
    err = low - back
    np.subtract(frac, err, out=err)
    lo -= back
    err += lo
    del frac, lo, back
    below = np.floor(low)
    low -= below
    low += err  # the fraction to round, off by far less than 1e-12
    tie = np.abs(low - 0.5) < 1e-9
    low = below + (low >= 0.5)
    carry = np.floor(low / 1e8)  # -1, 0 or 1; the quotient rounds correctly
    top += carry
    low -= carry * 1e8
    over = top >= 1e9  # the digits are 1 and zeros
    e10 += over
    top[over] = 1e8
    return top, low, tie


def _pairs_last_first(top: np.ndarray, low: np.ndarray):
    """(j, pair j) for the 8 two-digit pairs of top's low 8 digits (pairs
    0-3) and low's 8 (pairs 4-7), as floats, last pair first."""
    for base, eight in ((4, low), (0, top)):
        upper = np.floor(eight * 1e-4)  # 1e-4 errs by 5e-17 relative: floor exact
        for j, four in ((base + 2, eight - upper * 1e4), (base, upper)):
            two = np.floor(four * 1e-2)
            yield j + 1, four - two * 100
            yield j, two


def _format_slots(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lay out `%.17g` of each value of the float64 vector x, then `,`, as
    the non-NUL bytes of the rows of out, a uint8 (len(x), 32) array.
    Returns a mask of the values whose slot is not valid and which must be
    formatted by Python instead."""
    v = np.abs(x)
    zero = v == 0
    placed = ((v >= 1e-30) & (v < 1e30)) | zero
    v[~placed | zero] = 1.0
    e10 = _decimal_exponent(v)
    top, low, tie = _digits17(v, e10)
    del v
    placed &= ~tie
    top[zero] = low[zero] = e10[zero] = 0
    lead = np.floor(top * 1e-8)  # 1e-8 errs by 2e-17 relative: floor exact
    top -= lead * 1e8
    # digits 1-16 as 8 pairs; a pair is written with a trailing zero as
    # NUL, and a pair after the last nonzero one as NUL NUL
    halves = out.view("<u2")
    rest_zero = np.ones(len(x), bool)  # every pair after the current one is 0
    for j, pair in _pairs_last_first(top, low):
        pair = pair.astype(np.intp)
        halves[:, 4 + j] = _DIGIT2[pair + 100 * rest_zero]
        rest_zero &= pair == 0
    cls = e10 - _K0
    head_tail = out.view("<u8")
    head_tail[:, 0] = _HEAD[cls]
    head_tail[:, 3] = _TAIL[cls]
    out[:, 0] = np.signbit(x) * ord("-")
    halves[:, 3] = _LEAD[lead.astype(np.intp) * 2 + (_POINT_AFTER_LEAD[cls] & ~rest_zero)]
    # fixed point with 2 to 17 integer digits: digits 1..E move one byte
    # left, over the point, which follows them unless no digit does; digit
    # i is at byte 7 + i, and NUL when it is a trailing zero
    units = _UNITS[cls]
    wide = np.flatnonzero((units > 0) & placed)
    for e in np.unique(units[wide]).tolist():
        rows = wide[units[wide] == e]
        kept = out[rows, 7 + e:24] != 0  # digits e.. (the units digit on)
        units_kept = kept.any(1)
        placed[rows[~units_kept]] = False  # 10, 200, ...: zeros before the point
        rows, kept = rows[units_kept], kept[units_kept]
        out[rows, 7:7 + e] = out[rows, 8:8 + e]
        out[rows, 7 + e] = np.where(kept[:, 1:].any(1), ord("."), 0)
    return ~placed


def _write_id_rows(path: PathLike, header: str, cols: Sequence[Sequence[int]],
                   values: np.ndarray, newline: bytes = b"\n") -> None:
    """Write the header, then one `c0,...,v0,v1,...` line per row: the
    integer columns cols, then the float64 values as `%.17g`, which
    round-trips every float64 exactly. The bytes are those of a per-row
    %-template of `%d` and `%.17g` fields, which formats the rows that
    _format_slots cannot. Rows go out in chunks of about _CHUNK values
    formatted into one reused array, so no whole file is built in memory.
    The file is replaced whole (see atomic_write)."""
    n, width = values.shape
    prefix = b"%d," * len(cols)
    template = b",".join([b"%d"] * len(cols) + [b"%.17g"] * width) + newline
    cols = [np.asarray(c).tolist() for c in cols]
    step = max(1, _CHUNK // max(width, 1))
    slots = np.empty((step, width, _SLOT), np.uint8)
    end = np.frombuffer(newline, np.uint8)
    with atomic_write(path) as f:
        f.write(header.encode() + newline)
        for at in range(0, n, step):
            block = values[at:at + step]
            part = slots[:len(block)]
            redo = _format_slots(block.reshape(-1), part.reshape(-1, _SLOT))
            redo = redo.reshape(block.shape).any(1) | (width == 0)
            part[:, width - 1:, 28:28 + len(end)] = end  # no slot when width is 0
            pieces = []
            keys = zip(*[c[at:at + step] for c in cols])
            for key, vals, row, again in zip(keys, block, part, redo):
                pieces += ([template % (*key, *vals.tolist())] if again
                           else [prefix % key, row])
            f.write(b"".join(pieces).translate(None, b"\0"))


def _read_id_rows(path: PathLike, start: int, int_cols: Sequence[str], width: int,
                  what: str, quotechar: Optional[str] = None,
                  skip_blank: bool = False) -> tuple[list, np.ndarray]:
    """Parse the lines of path from line `start` on as rows of int64
    columns int_cols then `width` float64 values, with one np.loadtxt call.

    Fields are split on commas only (a `#` is not a comment) and may be
    quoted with quotechar. Blank lines are skipped but still counted when
    skip_blank is set, and are errors otherwise. Returns a contiguous int64
    array per int column and the contiguous (n, width) values. A line that
    does not parse, or that holds a non-finite value, raises DataFormatError
    naming path:line. Bytes that are not valid text read as U+FFFD, so they
    fail to parse like any other bad field.
    """
    dtype = np.dtype([(c, np.int64) for c in int_cols] + [("x", np.float64, (width,))])
    kw = dict(dtype=dtype, delimiter=",", comments=None, quotechar=quotechar, ndmin=1)
    linenos = []

    def body(f):
        for lineno, line in enumerate(itertools.islice(f, start - 1, None), start):
            if not line.isspace():
                linenos.append(lineno)
                yield line
            elif not skip_blank:
                raise DataFormatError("blank line")  # a ValueError: rescanned below

    with open(path, errors="replace") as f:
        lines = body(f)
        try:
            first = next(lines, None)
            rows = (np.empty(0, dtype) if first is None
                    else np.loadtxt(itertools.chain([first], lines), **kw))
        except ValueError as exc:
            raise _first_bad_line(path, start, len(int_cols) + width, kw, skip_blank,
                                  exc) from None
    values = np.ascontiguousarray(rows["x"])
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{linenos[bad[0]]}: non-finite {what} value")
    return [np.ascontiguousarray(rows[c]) for c in int_cols], values


def _first_bad_line(path: PathLike, start: int, n_fields: int, kw: dict,
                    skip_blank: bool, exc: ValueError) -> DataFormatError:
    """The error of _read_id_rows: rescan path from line `start` for the
    first line that does not parse on its own."""
    with open(path, errors="replace") as f:
        for lineno, line in enumerate(itertools.islice(f, start - 1, None), start):
            if line.isspace():
                if skip_blank:
                    continue
                return DataFormatError(f"{path}:{lineno}: blank line")
            # a line that parses holds only numbers, so all its commas delimit
            fields = line.count(",") + 1
            if fields != n_fields:
                return DataFormatError(
                    f"{path}:{lineno}: expected {n_fields} fields, got {fields}")
            try:
                np.loadtxt([line], **kw)
            except ValueError as line_exc:
                reason = str(line_exc).partition(" at row ")[0]
                return DataFormatError(f"{path}:{lineno}: {reason}")
    return DataFormatError(f"{path}: {exc}")


def write_feature_dump(path: PathLike, ids: Sequence[int], feats: np.ndarray) -> None:
    """Write per-sample feature rows as `id,dim0,dim1,...` CSV."""
    feats = np.asarray(feats, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    if feats.ndim != 2 or len(ids) != len(feats):
        raise DataFormatError(
            f"feature dump needs one id per row: {len(ids)} ids, shape {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise DataFormatError("refusing to write non-finite feature values")
    header = "id," + ",".join(f"dim{j}" for j in range(feats.shape[1]))
    _write_id_rows(path, header, [ids], feats)


def read_feature_dump(path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature dump back as (ids, features). The header is the first
    non-blank line; blank lines are skipped but counted in line numbers."""
    with open(path, errors="replace") as f:
        for lineno, header in enumerate(f, start=1):
            if not header.isspace():
                break
        else:
            lineno, header = 0, ""
    if not header.startswith("id,"):
        raise DataFormatError(f"{path}: missing feature dump header")
    (ids,), feats = _read_id_rows(path, lineno + 1, ("id",), header.count(","),
                                  "feature", skip_blank=True)
    return ids, feats


def write_matrix_csv(path: PathLike, values: np.ndarray,
                     row_ids: Sequence[int], col_ids: Sequence[int]) -> None:
    """Write a labeled matrix: header `id,<col ids...>`, one row per row id."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(row_ids), len(col_ids)):
        raise DataFormatError(
            f"matrix shape {values.shape} does not match "
            f"{len(row_ids)} row ids and {len(col_ids)} col ids")
    if not np.all(np.isfinite(values)):
        raise DataFormatError("refusing to write non-finite matrix values")
    header = "id," + ",".join(str(int(c)) for c in col_ids)
    _write_id_rows(path, header, [[int(r) for r in row_ids]], values)


def write_heatmap_pgm(path: PathLike, values: np.ndarray,
                      lo: float = None, hi: float = None) -> None:
    """Render a matrix to binary PGM (P5), mapping [lo, hi] onto 0..255.

    Defaults to (-r, r), r the largest absolute entry or 1 if all are 0, so
    zero maps to mid-gray and sign structure survives. Values outside the
    range clamp to the endpoints. The file is replaced whole.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise DataFormatError(f"heatmap needs a non-empty 2-d matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataFormatError("refusing to render non-finite heatmap values")
    if lo is None and hi is None:
        hi = float(np.max(np.abs(values))) or 1.0
        lo = -hi
    if lo is None or hi is None or not lo < hi:
        raise DataFormatError(f"heatmap range must satisfy lo < hi, got ({lo}, {hi})")
    scaled = (values - lo) / (hi - lo) * 255.0
    pixels = np.rint(np.clip(scaled, 0.0, 255.0)).astype(np.uint8)
    h, w = pixels.shape
    header = f"P5\n# range [{lo:.17g}, {hi:.17g}]\n{w} {h}\n255\n"
    with atomic_write(path) as f:
        f.write(header.encode("ascii") + pixels.tobytes())
