"""Serialization for encoders, feature dumps, matrices, and heatmaps.

Encoder checkpoints use a small binary container so round trips are
bit-exact. Everything human-facing (features, alignment matrices) goes
through CSV with full-precision floats; heatmaps render to 8-bit PGM so
they can be eyeballed without plotting libraries.

The CSV writers format each row with one %-template of `%d` and `%.17g`
fields, byte for byte what a per-value `%.17g` writer gives. The readers
(here and in datagen) parse a whole body with one np.loadtxt call and
rescan the text line by line only to name the first bad line.

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


def _write_id_rows(path: PathLike, header: str, ids: Sequence[int],
                   values: np.ndarray) -> None:
    """Write the header, then one `id,v0,v1,...` line per row, each made by
    one %-template; %.17g round-trips every float64 exactly. The file is
    replaced whole (see atomic_write)."""
    row = "%d," + ",".join(["%.17g"] * values.shape[1]) + "\n"
    with atomic_write(path, "w") as f:
        f.write(header + "\n")
        f.writelines(row % (i, *v.tolist()) for i, v in zip(ids, values))


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
    _write_id_rows(path, header, ids.tolist(), feats)


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
    _write_id_rows(path, header, [int(r) for r in row_ids], values)


def symmetric_range(values: np.ndarray) -> tuple[float, float]:
    """Value range centered on zero for heatmap rendering.

    Uses the largest absolute entry so zero always maps to mid-gray; an
    all-zero matrix gets the placeholder range (-1, 1).
    """
    r = float(np.max(np.abs(np.asarray(values, dtype=float)))) if np.asarray(values).size else 0.0
    if r == 0.0:
        r = 1.0
    return -r, r


def write_heatmap_pgm(path: PathLike, values: np.ndarray,
                      lo: float = None, hi: float = None) -> None:
    """Render a matrix to binary PGM (P5), mapping [lo, hi] onto 0..255.

    Defaults to a zero-centered range so sign structure survives. Values
    outside the range clamp to the endpoints. The file is replaced whole.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise DataFormatError(f"heatmap needs a non-empty 2-d matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataFormatError("refusing to render non-finite heatmap values")
    if lo is None and hi is None:
        lo, hi = symmetric_range(values)
    if lo is None or hi is None or not lo < hi:
        raise DataFormatError(f"heatmap range must satisfy lo < hi, got ({lo}, {hi})")
    scaled = (values - lo) / (hi - lo) * 255.0
    pixels = np.rint(np.clip(scaled, 0.0, 255.0)).astype(np.uint8)
    h, w = pixels.shape
    header = f"P5\n# range [{lo:.17g}, {hi:.17g}]\n{w} {h}\n255\n"
    with atomic_write(path) as f:
        f.write(header.encode("ascii") + pixels.tobytes())
