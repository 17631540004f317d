"""Serialization for encoders, feature dumps, matrices, and heatmaps.

Encoder checkpoints use a small binary container so round trips are
bit-exact. Everything human-facing (features, alignment matrices) goes
through CSV with full-precision floats; heatmaps render to 8-bit PGM so
they can be eyeballed without plotting libraries.
"""

import struct
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .diffcore import DenseLayer, EncoderNet
from .errors import DataFormatError

PathLike = Union[str, Path]

CHECKPOINT_MAGIC = b"MUCK"
CHECKPOINT_VERSION = 1
_FLAG_NORMALIZE = 1


def save_encoder(net: EncoderNet, path: PathLike) -> None:
    """Write an encoder checkpoint.

    Layout (all little-endian): 4-byte magic, uint32 version, uint32
    layer count, per layer a (uint32 in, uint32 out) pair, uint32 flags
    (bit 0: output normalization), then per layer the weight matrix in
    row-major float64 followed by the bias vector.
    """
    head = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
            struct.pack("<I", len(net.layers))]
    for layer in net.layers:
        head.append(struct.pack("<II", layer.w.shape[0], layer.w.shape[1]))
    flags = _FLAG_NORMALIZE if net.normalize_output else 0
    head.append(struct.pack("<I", flags))
    body = []
    for layer in net.layers:
        body.append(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
        body.append(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(head) + b"".join(body))


class _Cursor:
    """Byte reader that reports the offset of whatever failed."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataFormatError(
                f"checkpoint truncated at byte {self.pos}: "
                f"needed {n} bytes for {what}, have {len(self.blob) - self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_encoder(path: PathLike) -> EncoderNet:
    cur = _Cursor(Path(path).read_bytes())
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
        wb = cur.take(8 * n_in * n_out, f"layer {i} weights")
        w = np.frombuffer(wb, dtype="<f8").reshape(n_in, n_out).copy()
        bb = cur.take(8 * n_out, f"layer {i} biases")
        b = np.frombuffer(bb, dtype="<f8").copy()
        layers.append(DenseLayer(w, b))
    if cur.pos != len(cur.blob):
        raise DataFormatError(
            f"trailing garbage: {len(cur.blob) - cur.pos} extra bytes at byte {cur.pos}")
    for prev, nxt in zip(layers, layers[1:]):
        if prev.w.shape[1] != nxt.w.shape[0]:
            raise DataFormatError(
                f"layer shapes do not chain: {prev.w.shape} then {nxt.w.shape}")
    return EncoderNet(layers, normalize_output=bool(flags & _FLAG_NORMALIZE))


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
    lines = [header]
    for i, row in zip(ids, feats):
        lines.append(str(int(i)) + "," + ",".join("%.17g" % v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_feature_dump(path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature dump back as (ids, features)."""
    text = Path(path).read_text()
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("id,"):
        raise DataFormatError(f"{path}: missing feature dump header")
    width = len(lines[0][1].split(",")) - 1
    ids, rows = [], []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != width + 1:
            raise DataFormatError(
                f"{path}:{lineno}: expected {width + 1} fields, got {len(parts)}")
        try:
            ids.append(int(parts[0]))
            rows.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    feats = np.array(rows, dtype=float).reshape(len(rows), width)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{lines[1 + bad[0]][0]}: non-finite feature value")
    return np.array(ids, dtype=np.int64), feats


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
    lines = ["id," + ",".join(str(int(c)) for c in col_ids)]
    for rid, row in zip(row_ids, values):
        lines.append(str(int(rid)) + "," + ",".join("%.17g" % v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path: PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("id,"):
        raise DataFormatError(f"{path}: missing matrix header")
    col_ids = np.array([int(c) for c in lines[0].split(",")[1:]], dtype=np.int64)
    row_ids, rows = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(col_ids) + 1:
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(col_ids) + 1} fields, got {len(parts)}")
        row_ids.append(int(parts[0]))
        rows.append([float(p) for p in parts[1:]])
    values = np.array(rows, dtype=float).reshape(len(rows), len(col_ids))
    return values, np.array(row_ids, dtype=np.int64), col_ids


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
    outside the range clamp to the endpoints.
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
    Path(path).write_bytes(header.encode("ascii") + pixels.tobytes())
