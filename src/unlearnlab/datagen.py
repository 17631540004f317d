"""Datasets, train/unlearn splits, and stochastic view augmentation.

Two data sources: synthetic Gaussian clusters for desk-scale runs, and
CIFAR-10 binary batches (3073-byte records: label byte then 3x32x32
pixels).  Augmentation produces the paired "views" that contrastive
training and the audits consume.

Every set of views is built from one draw per kind of randomness, in a
fixed order (vector mode: scales, noise, mask uniforms; image mode: crop
offsets, flip bits), with a leading shape that says whose views they
are.  Training views come from one generator per (seed, epoch) that
draws lead shape (n, 2): a row per dataset row in sorted-id order and a
column per view, so views do not depend on batch composition and the
block is drawn once per epoch.  Audit and membership-inference views
draw lead shape (n_views,) from a generator per id, so a data owner can
replay them from (seed, id) alone.

Datasets are stored as `id,label,dim0,...` CSV; the reader parses the
body with one np.loadtxt call and the writer is persist's row writer, so
the written bytes are those of the csv module with `%.17g` floats.  The
CSV is the source of truth; the writer also leaves a binary copy of the
arrays beside it, which the reader uses instead of parsing only when the
copy's digest matches the CSV's bytes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from fractions import Fraction
from glob import glob

import numpy as np

from . import seeds
from .errors import ConfigurationError, DataFormatError
from .persist import (_read_id_rows, _write_id_rows, atomic_write, file_digest,
                      load_dataset_copy, save_dataset_copy)

CIFAR_RECORD_BYTES = 3073
CIFAR_PIXELS = 3072
_CIFAR_ID_STRIDE = 100000  # id = file_index * stride + record_index


@dataclass
class LabeledDataset:
    """Row-aligned samples, integer labels, and stable unique ids."""

    samples: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.samples.ndim != 2:
            raise ConfigurationError("samples must be a 2-d array")
        n = self.samples.shape[0]
        if self.labels.shape != (n,) or self.ids.shape != (n,):
            raise ConfigurationError("labels/ids must align with samples")
        if len(np.unique(self.ids)) != n:
            raise ConfigurationError("sample ids must be unique")
        self._row_of = {int(i): k for k, i in enumerate(self.ids)}

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def rows_for(self, ids) -> np.ndarray:
        """Row indices for the given ids, in the given order."""
        try:
            return np.array([self._row_of[int(i)] for i in ids], dtype=np.int64)
        except KeyError as e:
            raise ConfigurationError(f"unknown sample id {e.args[0]}") from None

    def samples_for(self, ids) -> np.ndarray:
        return self.samples[self.rows_for(ids)]

    def labels_for(self, ids) -> np.ndarray:
        return self.labels[self.rows_for(ids)]


@dataclass
class Splits:
    """Partition of a dataset by id: train = retain + unlearn, plus held-out
    test and validation sets.  All arrays are sorted ids."""

    train: np.ndarray
    retain: np.ndarray
    unlearn: np.ndarray
    test: np.ndarray
    validation: np.ndarray

    def __post_init__(self):
        for name in ("train", "retain", "unlearn", "test", "validation"):
            arr = np.sort(np.asarray(getattr(self, name), dtype=np.int64))
            if np.any(arr[1:] == arr[:-1]):
                raise ConfigurationError(f"{name} lists an id twice")
            setattr(self, name, arr)
        if len(self.retain) == 0 or len(self.unlearn) == 0:
            raise ConfigurationError("retain and unlearn sets must be non-empty")
        merged = np.sort(np.concatenate([self.retain, self.unlearn]))
        if not np.array_equal(merged, self.train):
            raise ConfigurationError("retain + unlearn must partition train")
        if len(np.intersect1d(self.retain, self.unlearn)):
            raise ConfigurationError("retain and unlearn overlap")
        held = np.concatenate([self.test, self.validation])
        if len(np.intersect1d(self.train, held)):
            raise ConfigurationError("held-out ids overlap the train set")
        if len(np.intersect1d(self.test, self.validation)):
            raise ConfigurationError("test and validation overlap")

    def unlearn_retain_ratio(self) -> Fraction:
        """|unlearn| / |retain| as an exact rational."""
        return Fraction(len(self.unlearn), len(self.retain))


@dataclass
class AugmentorConfig:
    """Strengths for the stochastic view generator.

    Vector mode: multiplicative scale drawn from [scale_lo, scale_hi],
    additive Gaussian noise with noise_sigma, then coordinate dropout with
    mask_prob.  Image mode treats a 3072-vector as 3x32x32, pads 4 zero
    pixels, random-crops back to 32 and flips horizontally half the time.
    All strengths at zero gives the identity augmentation, which is useful
    for audits but produces degenerate contrastive training signal.
    """

    noise_sigma: float = 0.1
    mask_prob: float = 0.05
    scale_lo: float = 0.9
    scale_hi: float = 1.1
    image_mode: bool = False

    def __post_init__(self):
        if not self.noise_sigma >= 0:  # NaN fails this check too
            raise ConfigurationError("noise_sigma must be >= 0")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ConfigurationError("mask_prob must be in [0, 1)")
        if not 0.0 < self.scale_lo <= self.scale_hi:
            raise ConfigurationError("need 0 < scale_lo <= scale_hi")

    @classmethod
    def identity(cls) -> "AugmentorConfig":
        return cls(noise_sigma=0.0, mask_prob=0.0, scale_lo=1.0, scale_hi=1.0)

    @property
    def is_identity(self) -> bool:
        return (
            not self.image_mode
            and self.noise_sigma == 0.0
            and self.mask_prob == 0.0
            and self.scale_lo == 1.0
            and self.scale_hi == 1.0
        )


def gen_synthetic(
    num_clusters: int, dim: int, n: int, separation: float, seed: int
) -> LabeledDataset:
    """Isotropic unit-variance Gaussian clusters whose means are at mutual
    distance >= separation.  Labels cycle through clusters so counts are
    balanced; ids are 0..n-1."""
    if num_clusters < 2:
        raise ConfigurationError("need at least 2 clusters")
    if dim < 1 or n < num_clusters:
        raise ConfigurationError("need dim >= 1 and n >= num_clusters")
    if separation <= 0:
        raise ConfigurationError("separation must be > 0")
    rng = seeds.stream_rng(seed, seeds.SYNTH_MEANS)
    means = None
    # rejection-sample the mean layout; scale grows with separation so this
    # converges quickly for any reasonable geometry
    for _ in range(200):
        cand = rng.normal(scale=max(separation, 1.0), size=(num_clusters, dim))
        dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= separation:
            means = cand
            break
    if means is None:
        raise ConfigurationError(
            f"could not place {num_clusters} means at separation {separation} in dim {dim}"
        )
    labels = np.arange(n, dtype=np.int64) % num_clusters
    noise = seeds.stream_rng(seed, seeds.SYNTH_SAMPLES).standard_normal((n, dim))
    return LabeledDataset(means[labels] + noise, labels, np.arange(n, dtype=np.int64))


def _parse_cifar_file(path: str, file_index: int):
    size = os.path.getsize(path)
    if size == 0 or size % CIFAR_RECORD_BYTES != 0:
        raise DataFormatError(
            f"{path}: size {size} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    with open(path, "rb") as f:
        raw = np.frombuffer(f.read(), dtype=np.uint8)
    recs = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = recs[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if len(bad):
        off = int(bad[0]) * CIFAR_RECORD_BYTES
        raise DataFormatError(
            f"{path}: label {int(labels[bad[0]])} > 9 at record {int(bad[0])} (byte offset {off})"
        )
    samples = recs[:, 1:].astype(np.float64) / 255.0
    ids = file_index * _CIFAR_ID_STRIDE + np.arange(recs.shape[0], dtype=np.int64)
    return samples, labels, ids


def load_cifar10(path: str) -> LabeledDataset:
    """Read CIFAR-10 binary batches from a file or a directory of *.bin
    files (sorted by name).  Pixels are scaled to [0, 1]; ids encode
    (file index, record index)."""
    if os.path.isdir(path):
        files = sorted(glob(os.path.join(path, "*.bin")))
        if not files:
            raise DataFormatError(f"{path}: no *.bin batch files found")
    elif os.path.isfile(path):
        files = [path]
    else:
        raise DataFormatError(f"{path}: no such file or directory")
    parts = [_parse_cifar_file(p, i) for i, p in enumerate(files)]
    samples = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    ids = np.concatenate([p[2] for p in parts])
    return LabeledDataset(samples, labels, ids)


def split(
    data: LabeledDataset,
    unlearn_fraction: float,
    test_fraction: float = 0.0,
    val_fraction: float = 0.0,
    seed: int = 0,
) -> Splits:
    """Random id partition.  test/val are carved off first, the rest is the
    train set, and unlearn_fraction of the train set becomes the unlearn
    target.  Deterministic in (data ids, fractions, seed)."""
    if not 0.0 < unlearn_fraction < 1.0:
        raise ConfigurationError("unlearn_fraction must be in (0, 1)")
    for name, f in (("test_fraction", test_fraction), ("val_fraction", val_fraction)):
        if not 0.0 <= f < 1.0:
            raise ConfigurationError(f"{name} must be in [0, 1)")
    if test_fraction + val_fraction >= 1.0:
        raise ConfigurationError("test_fraction + val_fraction must be < 1")
    n = len(data)
    perm = seeds.stream_rng(seed, seeds.SPLIT).permutation(data.ids)
    n_test = int(round(test_fraction * n))
    n_val = int(round(val_fraction * n))
    test = perm[:n_test]
    validation = perm[n_test : n_test + n_val]
    train = perm[n_test + n_val :]
    n_unlearn = int(round(unlearn_fraction * len(train)))
    if n_unlearn < 1 or n_unlearn >= len(train):
        raise ConfigurationError(
            f"unlearn_fraction {unlearn_fraction} leaves an empty unlearn or retain set"
        )
    # train is already in random order, so a prefix is a uniform subset
    unlearn = train[:n_unlearn]
    retain = train[n_unlearn:]
    return Splits(train=train, retain=retain, unlearn=unlearn, test=test, validation=validation)


def _jitter(x: np.ndarray, scale, noise: np.ndarray, drop: np.ndarray,
            cfg: AugmentorConfig, out: np.ndarray) -> np.ndarray:
    """Vector-mode views into out: scale, add noise, zero the dropped
    coordinates.  Arguments broadcast, so one formula serves one sample
    or a batch; x may be out itself."""
    np.multiply(x, scale, out=out)
    out += cfg.noise_sigma * noise
    if cfg.mask_prob > 0.0:
        np.copyto(out, 0.0, where=drop)
    return out


def _crop_flip(imgs: np.ndarray, rows: np.ndarray, top: np.ndarray, left: np.ndarray,
               flip: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Image-mode views of flattened 3x32x32 images into out (m, 3072):
    view k is the 32x32 window at (top, left) of image imgs[rows[k]] padded
    by 4 zero pixels, mirrored where flip is set.  Each view is one slice
    copy of the window's overlap with the image into zeroed rows, so every
    value is a copied pixel or +0.0."""
    dst = out.reshape(-1, 3, 32, 32)
    out.fill(0.0)
    for k, (r, t, l, f) in enumerate(zip(rows.tolist(), top.tolist(), left.tolist(),
                                         flip.tolist())):
        r0, r1, c0, c1 = max(4 - t, 0), min(36 - t, 32), max(4 - l, 0), min(36 - l, 32)
        win = imgs[r].reshape(3, 32, 32)[:, r0 + t - 4:r1 + t - 4, c0 + l - 4:c1 + l - 4]
        if f:
            dst[k, :, r0:r1, 32 - c1:32 - c0] = win[..., ::-1]
        else:
            dst[k, :, r0:r1, c0:c1] = win
    return out


def _check_image_dim(dim: int) -> None:
    if dim != CIFAR_PIXELS:
        raise ConfigurationError("image mode needs 3072-dimensional samples")


def augment_views(sample, cfg: AugmentorConfig, n_views: int, rng) -> np.ndarray:
    """n_views independent stochastic views of one sample, shape (n, d),
    built from one draw per kind of randomness (the per-id audit and MI
    views; see _draw_views for the order)."""
    sample = np.asarray(sample, dtype=np.float64).ravel()
    if n_views < 1:
        raise ConfigurationError("n_views must be >= 1")
    d = _draw_views(rng, cfg, sample.shape[0], (n_views,))
    out = np.empty((n_views, sample.shape[0]))
    if cfg.image_mode:
        return _crop_flip(sample[None], np.zeros(n_views, dtype=np.int64), d["offsets"][:, 0],
                          d["offsets"][:, 1], d["flip"], out)
    return _jitter(sample, d["scale"][:, None], d["noise"], d["drop"], cfg, out)


@dataclass(eq=False)
class ViewBlock:
    """One epoch's training-view randomness.  Row k belongs to ids[k]
    (ids sorted) and carries both views of that id: in vector mode
    scale (n, 2), noise (n, 2, d) and drop (n, 2, d); in image mode
    offsets (n, 2, 2) as (top, left) and flip (n, 2)."""

    data: LabeledDataset
    cfg: AugmentorConfig
    seed: int
    epoch: int
    ids: np.ndarray
    data_rows: np.ndarray
    draws: dict

    def pairs(self, ids, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Both views of the given ids, row-aligned with them, written to
        out[:m] (first views) and out[m:] (second views) of a C-contiguous
        float64 (2m, d) array, allocated when out is None."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, ids)
        found = self.ids[np.minimum(pos, len(self.ids) - 1)] == ids
        if not found.all():
            raise ConfigurationError(f"unknown sample id {int(ids[np.argmin(found)])}")
        m, shape = len(ids), (2 * len(ids), self.data.dim)
        if out is None:
            out = np.empty(shape)
        elif (out.shape != shape or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ConfigurationError(f"view output must be a C-contiguous float64 "
                                     f"{shape} array")
        # each view reads its dataset row straight into its output row
        rows, d = self.data_rows[pos], self.draws
        halves = out[:m], out[m:]
        for v, half in enumerate(halves):
            if self.cfg.image_mode:
                off = d["offsets"][pos, v]
                _crop_flip(self.data.samples, rows, off[:, 0], off[:, 1], d["flip"][pos, v],
                           half)
            else:
                # rows are in range; mode="raise" would gather through a temporary
                np.take(self.data.samples, rows, axis=0, out=half, mode="clip")
                _jitter(half, d["scale"][pos, v][:, None], d["noise"][pos, v],
                        d["drop"][pos, v], self.cfg, half)
        return halves


_MASK_CHUNK = 1 << 20  # mask uniforms drawn per chunk (8 MiB of float64)


def _draw_views(rng, cfg: AugmentorConfig, dim: int, lead: tuple) -> dict:
    """The randomness of views with leading shape `lead`, one draw per
    kind in this order: vector mode scale lead, noise lead+(d,) and drop
    lead+(d,); image mode offsets lead+(2,) as (top, left) and flip lead.
    The mask's uniforms are drawn in chunks along the first axis, so no
    float64 array of the mask's size exists beside the noise; rng.random
    draws one double per value in order, so the bits match a single draw."""
    if cfg.image_mode:
        _check_image_dim(dim)
        return {"offsets": rng.integers(0, 9, size=(*lead, 2)),
                "flip": rng.random(lead) < 0.5}
    drop = np.empty((*lead, dim), dtype=bool)
    draws = {"scale": rng.uniform(cfg.scale_lo, cfg.scale_hi, size=lead),
             "noise": rng.standard_normal((*lead, dim)), "drop": drop}
    step = max(1, _MASK_CHUNK // (int(np.prod(lead[1:])) * dim))
    for i in range(0, len(drop), step):
        part = drop[i:i + step]
        part[...] = rng.random(part.shape) < cfg.mask_prob
    return draws


def draw_view_block(data: LabeledDataset, cfg: AugmentorConfig, seed: int,
                    epoch: int) -> ViewBlock:
    """Draw the training-view randomness of every dataset row for one
    (seed, epoch) from stream_rng(seed, AUGMENT, epoch), with lead shape
    (n, 2).  A vector-mode block holds 18*n*d bytes (float64 noise and a
    bool mask for two views), twice the dataset's own 8*n*d."""
    order = np.argsort(data.ids, kind="stable")
    rng = seeds.stream_rng(seed, seeds.AUGMENT, epoch)
    draws = _draw_views(rng, cfg, data.dim, (len(order), 2))
    return ViewBlock(data, cfg, int(seed), int(epoch), data.ids[order], order, draws)


def paired_views_for_ids(
    data: LabeledDataset, ids, cfg: AugmentorConfig, seed: int, epoch: int,
    block: ViewBlock | None = None, out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The two training views of each (seed, id, epoch) as row-aligned
    matrices, the two halves of out when given (see ViewBlock.pairs).
    Training loops pass the epoch's block so it is drawn once per epoch;
    without one it is drawn here."""
    if block is None:
        block = draw_view_block(data, cfg, seed, epoch)
    elif not (block.data is data and block.cfg == cfg
              and (block.seed, block.epoch) == (seed, epoch)):
        raise ConfigurationError("view block was drawn for another dataset, "
                                 "augmentation, seed or epoch")
    return block.pairs(ids, out)


# --- plain-text serialization -------------------------------------------------

def save_dataset(data: LabeledDataset, path: str) -> None:
    """Write `id,label,dim0,...` CSV with the csv module's `\\r\\n` line
    ends and `%.17g` floats, which round-trip float64 (see _write_id_rows).
    Then write the binary copy `<path>.bin`, keyed by the CSV's digest.
    Each file is replaced whole, the CSV first: a crash between the two
    leaves an old or no copy, whose digest the new CSV does not match."""
    header = ",".join(["id", "label"] + [f"dim{j}" for j in range(data.dim)])
    _write_id_rows(path, header, [data.ids, data.labels], data.samples, b"\r\n")
    save_dataset_copy(_copy_path(path), file_digest(path), data.ids, data.labels, data.samples)


def _copy_path(path) -> str:
    return os.fspath(path) + ".bin"


def _trusted_copy(path, width: int) -> LabeledDataset | None:
    """The dataset in path's binary copy if the copy matches the CSV's
    bytes and passes the checks a parse would, else None."""
    copy = load_dataset_copy(_copy_path(path), file_digest(path), width)
    if copy is None:
        return None
    ids, labels, samples = copy
    if not len(ids) or not np.isfinite(samples).all():
        return None
    try:
        return LabeledDataset(samples, labels, ids)
    except ConfigurationError:
        return None


def load_dataset(path: str) -> LabeledDataset:
    """Read a dataset CSV. When `<path>.bin` is a copy written with these
    exact CSV bytes (same sha256 digest and width), its arrays are used;
    otherwise the body is parsed by one np.loadtxt call: ids and labels
    must be integers, fields may be quoted, and a blank line or any other
    malformed line is rejected with its line number. Never writes."""
    if not os.path.isfile(path):
        raise DataFormatError(f"{path}: no such file")
    with open(path, newline="", errors="replace") as f:
        line = f.readline()
    if not line:
        raise DataFormatError(f"{path}: empty dataset file")
    header = next(csv.reader([line]))
    if header[:2] != ["id", "label"]:
        raise DataFormatError(f"{path}: expected 'id,label,dim0,...' header")
    data = _trusted_copy(path, len(header) - 2)
    if data is not None:
        return data
    (ids, labels), samples = _read_id_rows(path, 2, ("id", "label"), len(header) - 2,
                                           "sample", quotechar='"')
    if not len(ids):
        raise DataFormatError(f"{path}: dataset has no rows")
    try:
        return LabeledDataset(samples, labels, ids)
    except ConfigurationError as e:
        raise DataFormatError(f"{path}: {e}") from None


_SPLIT_PARTS = ("retain", "unlearn", "test", "validation")
_INT64 = np.iinfo(np.int64)


def save_splits(splits: Splits, path: str) -> None:
    pairs = []
    for part in _SPLIT_PARTS:
        pairs.extend((int(i), part) for i in getattr(splits, part))
    pairs.sort()
    with atomic_write(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "part"])
        w.writerows(pairs)


def load_splits(path: str) -> Splits:
    """Read `id,part` CSV. The rows are parsed in one pass into int64 ids
    and part codes; a bad row (not two fields, an unknown part, an id that
    is not an int64 or that repeats) is named with its line by a rescan."""
    if not os.path.isfile(path):
        raise DataFormatError(f"{path}: no such file")
    code = {p: k for k, p in enumerate(_SPLIT_PARTS)}
    with open(path, newline="", errors="replace") as f:
        reader = csv.reader(f)
        if next(reader, None) != ["id", "part"]:
            raise DataFormatError(f"{path}: expected 'id,part' header")
        try:
            rows = np.fromiter(((int(i), code[p]) for i, p in reader),
                               dtype=[("id", np.int64), ("part", np.int8)])
        except (ValueError, KeyError, OverflowError):
            raise _bad_split_row(path) from None
    if len(np.unique(rows["id"])) != len(rows):
        raise _bad_split_row(path)
    retain, unlearn, test, validation = (rows["id"][rows["part"] == k]
                                         for k in range(len(_SPLIT_PARTS)))
    try:
        return Splits(train=np.concatenate([retain, unlearn]), retain=retain,
                      unlearn=unlearn, test=test, validation=validation)
    except ConfigurationError as e:
        raise DataFormatError(f"{path}: {e}") from None


def _bad_split_row(path: str) -> DataFormatError:
    """The error of load_splits: rescan path for the first row (line 2 on)
    that is malformed, out of int64 range or a repeat of an earlier id."""
    line_of: dict[int, int] = {}
    with open(path, newline="", errors="replace") as f:
        reader = csv.reader(f)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 or row[1] not in _SPLIT_PARTS:
                return DataFormatError(f"{path}:{lineno}: bad split row {row!r}")
            try:
                sid = int(row[0])
            except ValueError:
                return DataFormatError(f"{path}:{lineno}: bad id {row[0]!r}")
            if not _INT64.min <= sid <= _INT64.max:
                return DataFormatError(f"{path}:{lineno}: id {sid} is outside int64")
            if sid in line_of:
                return DataFormatError(f"{path}:{lineno}: id {sid} repeats line {line_of[sid]}")
            line_of[sid] = lineno
    return DataFormatError(f"{path}: changed while it was read")
