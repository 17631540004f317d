import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab import datagen, seeds
from unlearnlab.datagen import (
    AugmentorConfig,
    LabeledDataset,
    Splits,
    augment_views,
    draw_view_block,
    gen_synthetic,
    load_cifar10,
    load_dataset,
    load_splits,
    paired_views_for_ids,
    save_dataset,
    save_splits,
    split,
)
from unlearnlab.errors import ConfigurationError, DataFormatError
from unlearnlab.persist import file_digest, save_dataset_copy


class TestSynthetic:
    def test_shapes_and_balanced_labels(self):
        ds = gen_synthetic(num_clusters=5, dim=16, n=2000, separation=6.0, seed=0)
        assert ds.samples.shape == (2000, 16)
        assert len(np.unique(ds.ids)) == 2000
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a = gen_synthetic(3, 4, 120, 5.0, seed=9)
        b = gen_synthetic(3, 4, 120, 5.0, seed=9)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)
        c = gen_synthetic(3, 4, 120, 5.0, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_nearest_centroid_recovers_labels(self):
        ds = gen_synthetic(5, 16, 1000, 6.0, seed=1)
        cents = np.stack([ds.samples[ds.labels == k].mean(axis=0) for k in range(5)])
        d2 = ((ds.samples[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        acc = float(np.mean(np.argmin(d2, axis=1) == ds.labels))
        assert acc > 0.99

    def test_mean_separation_honored(self):
        ds = gen_synthetic(4, 8, 400, 7.0, seed=2)
        cents = np.stack([ds.samples[ds.labels == k].mean(axis=0) for k in range(4)])
        dists = np.linalg.norm(cents[:, None] - cents[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        # empirical centroids sit within ~3/sqrt(100) of the true means
        assert dists.min() > 7.0 - 1.0

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_synthetic(1, 4, 100, 5.0, seed=0)
        with pytest.raises(ConfigurationError):
            gen_synthetic(3, 4, 2, 5.0, seed=0)
        with pytest.raises(ConfigurationError):
            gen_synthetic(3, 4, 100, 0.0, seed=0)


class TestCifar:
    def _write(self, tmp_path, name, payload: bytes):
        p = tmp_path / name
        p.write_bytes(payload)
        return str(p)

    def test_two_record_file_parses(self, tmp_path):
        rec0 = bytes([3]) + bytes(range(256)) * 12
        rec1 = bytes([9]) + bytes([255]) * 3072
        path = self._write(tmp_path, "batch_a.bin", rec0 + rec1)
        ds = load_cifar10(path)
        assert ds.samples.shape == (2, 3072)
        assert list(ds.labels) == [3, 9]
        assert ds.samples[0, 0] == 0.0
        assert ds.samples[0, 1] == pytest.approx(1.0 / 255.0)
        assert np.all(ds.samples[1] == 1.0)
        assert list(ds.ids) == [0, 1]

    def test_directory_of_batches_sorted(self, tmp_path):
        rec = lambda lab: bytes([lab]) + bytes(3072)
        self._write(tmp_path, "b2.bin", rec(2))
        self._write(tmp_path, "b1.bin", rec(1))
        ds = load_cifar10(str(tmp_path))
        assert list(ds.labels) == [1, 2]
        assert list(ds.ids) == [0, 100000]

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "z.bin", b"")
        with pytest.raises(DataFormatError):
            load_cifar10(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "t.bin", bytes(3073 + 17))
        with pytest.raises(DataFormatError, match="3073"):
            load_cifar10(path)

    def test_bad_label_rejected(self, tmp_path):
        path = self._write(tmp_path, "l.bin", bytes([10]) + bytes(3072))
        with pytest.raises(DataFormatError, match="label"):
            load_cifar10(path)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_cifar10(str(tmp_path / "nope.bin"))


class TestSplit:
    def test_cifar_style_counts(self):
        ds = LabeledDataset(
            np.zeros((50000, 2)), np.zeros(50000, dtype=int), np.arange(50000)
        )
        sp = split(ds, unlearn_fraction=0.1, test_fraction=0.0, val_fraction=0.1, seed=0)
        assert len(sp.validation) == 5000
        assert len(sp.train) == 45000
        assert len(sp.unlearn) == 4500
        assert len(sp.retain) == 40500
        from fractions import Fraction

        assert sp.unlearn_retain_ratio() == Fraction(1, 9)

    def test_deterministic(self):
        ds = gen_synthetic(3, 4, 300, 5.0, seed=0)
        a = split(ds, 0.1, 0.1, 0.05, seed=4)
        b = split(ds, 0.1, 0.1, 0.05, seed=4)
        for part in ("train", "retain", "unlearn", "test", "validation"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
        c = split(ds, 0.1, 0.1, 0.05, seed=5)
        assert not np.array_equal(a.unlearn, c.unlearn)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=40, max_value=400),
        uf=st.floats(min_value=0.05, max_value=0.5),
        tf=st.floats(min_value=0.0, max_value=0.3),
        vf=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_invariants(self, n, uf, tf, vf, seed):
        ds = LabeledDataset(np.zeros((n, 1)), np.zeros(n, dtype=int), np.arange(n))
        try:
            sp = split(ds, uf, tf, vf, seed)
        except ConfigurationError:
            return  # degenerate rounding is allowed to be rejected
        everything = np.sort(
            np.concatenate([sp.retain, sp.unlearn, sp.test, sp.validation])
        )
        assert np.array_equal(everything, np.sort(ds.ids))
        assert np.array_equal(np.sort(np.concatenate([sp.retain, sp.unlearn])), sp.train)
        assert len(sp.unlearn) >= 1 and len(sp.retain) >= 1

    def test_bad_fractions_rejected(self):
        ds = LabeledDataset(np.zeros((50, 1)), np.zeros(50, dtype=int), np.arange(50))
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ConfigurationError):
                split(ds, bad, 0.0, 0.0, seed=0)
        with pytest.raises(ConfigurationError):
            split(ds, 0.1, 0.7, 0.5, seed=0)

    def test_splits_constructor_enforces_partition(self):
        with pytest.raises(ConfigurationError):
            Splits(
                train=np.array([1, 2, 3]),
                retain=np.array([1, 2]),
                unlearn=np.array([2, 3]),
                test=np.array([], dtype=int),
                validation=np.array([], dtype=int),
            )

    @pytest.mark.parametrize("part", ["retain", "test"])
    def test_splits_constructor_rejects_repeated_id(self, part):
        parts = dict(train=[1, 2, 3], retain=[1, 2], unlearn=[3], test=[7, 8], validation=[])
        parts[part] = parts[part] + parts[part][:1]
        with pytest.raises(ConfigurationError, match=f"{part} lists an id twice"):
            Splits(**{k: np.array(v, dtype=np.int64) for k, v in parts.items()})


class TestAugment:
    def test_identity_config_reproduces_sample(self):
        cfg = AugmentorConfig.identity()
        assert cfg.is_identity
        x = np.array([1.5, -2.0, 0.0, 3.25])
        vx, vy = augment_views(x, cfg, 2, np.random.default_rng(0))
        assert np.array_equal(vx, x)
        assert np.array_equal(vy, x)

    def test_views_differ_under_noise(self):
        cfg = AugmentorConfig(noise_sigma=0.5, mask_prob=0.0, scale_lo=1.0, scale_hi=1.0)
        x = np.ones(8)
        vx, vy = augment_views(x, cfg, 2, np.random.default_rng(3))
        assert not np.array_equal(vx, vy)

    def test_replay_is_deterministic(self):
        cfg = AugmentorConfig()
        ds = gen_synthetic(3, 10, 30, 5.0, seed=0)
        a = paired_views_for_ids(ds, [7, 3], cfg, 7, 4)
        b = paired_views_for_ids(ds, [7, 3], cfg, 7, 4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = paired_views_for_ids(ds, [7, 3], cfg, 7, 5)
        assert not np.array_equal(a[0], c[0])
        # the audit stream replays per id, from (seed, id) alone
        x = ds.samples[3]
        d = augment_views(x, cfg, 2, seeds.stream_rng(7, seeds.AUDIT_VIEWS, 3))
        e = augment_views(x, cfg, 2, seeds.stream_rng(7, seeds.AUDIT_VIEWS, 3))
        assert np.array_equal(d, e)

    def test_mask_zeroes_coordinates(self):
        cfg = AugmentorConfig(noise_sigma=0.0, mask_prob=0.6, scale_lo=1.0, scale_hi=1.0)
        x = np.full(200, 5.0)
        views = augment_views(x, cfg, 1, np.random.default_rng(1))
        zeroed = np.mean(views[0] == 0.0)
        assert 0.4 < zeroed < 0.8

    def test_image_mode_crop_and_flip(self):
        cfg = AugmentorConfig(image_mode=True)
        img = np.arange(3072, dtype=float) / 3072.0
        views = augment_views(img, cfg, 4, np.random.default_rng(5))
        assert views.shape == (4, 3072)
        # padding means some crops contain zero rows/cols
        assert not np.array_equal(views[0], views[1])
        with pytest.raises(ConfigurationError):
            augment_views(np.ones(100), cfg, 1, np.random.default_rng(0))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            AugmentorConfig(noise_sigma=-1.0)
        with pytest.raises(ConfigurationError):
            AugmentorConfig(mask_prob=1.0)
        with pytest.raises(ConfigurationError):
            AugmentorConfig(scale_lo=0.0)
        with pytest.raises(ConfigurationError):
            AugmentorConfig(scale_lo=1.2, scale_hi=0.8)


def _shuffled_ids(ds: LabeledDataset, seed: int) -> LabeledDataset:
    """Same samples under ids with gaps, stored out of id order, so a
    block row (sorted-id order) differs from the dataset row."""
    ids = np.random.default_rng(seed).permutation(len(ds)) * 3 + 11
    return LabeledDataset(ds.samples, ds.labels, ids)


def _reference_crop(x, top, left, flip):
    """One image-mode view: pad 4 zero pixels, crop 32x32, maybe mirror."""
    padded = np.pad(x.reshape(3, 32, 32), ((0, 0), (4, 4), (4, 4)))
    crop = padded[:, top:top + 32, left:left + 32]
    return (crop[:, :, ::-1] if flip else crop).reshape(-1)


def _reference_jitter(x, scale, noise, gate, cfg):
    """One vector-mode view, element by element."""
    out = np.empty(x.shape[0])
    for j in range(x.shape[0]):
        val = x[j] * scale + cfg.noise_sigma * noise[j]
        out[j] = 0.0 if gate[j] < cfg.mask_prob else val
    return out


def _reference_views(ds, cfg, seed, epoch, sample_id):
    """Training views of one id, recomputed element by element from the
    stream key (seed, AUGMENT=4, epoch) and the id's sorted position."""
    rng = np.random.default_rng((seed, 4, epoch))
    n, d = ds.samples.shape
    k = sorted(int(i) for i in ds.ids).index(sample_id)
    x = ds.samples[list(ds.ids).index(sample_id)]
    if cfg.image_mode:
        offsets = rng.integers(0, 9, size=(n, 2, 2))
        flip = rng.random((n, 2)) < 0.5
        return [_reference_crop(x, *offsets[k, v], flip[k, v]) for v in range(2)]
    scale = rng.uniform(cfg.scale_lo, cfg.scale_hi, size=(n, 2))
    noise = rng.standard_normal((n, 2, d))
    gate = rng.random((n, 2, d))
    return [_reference_jitter(x, scale[k, v], noise[k, v], gate[k, v], cfg) for v in range(2)]


class TestReplayViews:
    """augment_views draws each kind of randomness once for all n views,
    in the documented order."""

    def test_vector_views_match_reference_draw_order(self):
        cfg = AugmentorConfig(mask_prob=0.3)
        x = np.random.default_rng(6).normal(size=9)
        views = augment_views(x, cfg, 5, np.random.default_rng((3, 8, 41)))
        rng = np.random.default_rng((3, 8, 41))
        scale = rng.uniform(cfg.scale_lo, cfg.scale_hi, size=5)
        noise = rng.standard_normal((5, 9))
        gate = rng.random((5, 9))
        assert views.shape == (5, 9)
        for v in range(5):
            ref = _reference_jitter(x, scale[v], noise[v], gate[v], cfg)
            assert views[v].tobytes() == ref.tobytes()
        assert np.any(views == 0.0)  # the mask fired somewhere

    def test_image_views_match_reference_draw_order(self):
        cfg = AugmentorConfig(image_mode=True)
        x = np.random.default_rng(7).random(3072)
        views = augment_views(x, cfg, 6, np.random.default_rng((2, 9, 17)))
        rng = np.random.default_rng((2, 9, 17))
        offsets = rng.integers(0, 9, size=(6, 2))
        flip = rng.random(6) < 0.5
        assert views.shape == (6, 3072)
        for v in range(6):
            ref = _reference_crop(x, *offsets[v], flip[v])
            assert views[v].tobytes() == ref.tobytes()
        assert flip.any() and not flip.all()


class TestCropFlip:
    """_crop_flip against _reference_crop at every offset and flip."""

    OFFSETS = [(t, l, f) for t in range(9) for l in range(9) for f in (False, True)]

    def _check(self, imgs):
        top, left, flip = (np.array(c) for c in zip(*self.OFFSETS))
        out = np.full((len(self.OFFSETS), 3072), np.nan)  # every value is written
        got = datagen._crop_flip(imgs, np.arange(len(imgs)), top, left, flip, out)
        assert got is out
        for k, (t, l, f) in enumerate(self.OFFSETS):
            assert out[k].tobytes() == _reference_crop(imgs[k], t, l, f).tobytes()

    def test_batch_of_distinct_images(self):
        self._check(np.random.default_rng(3).random((len(self.OFFSETS), 3072)) + 0.5)

    def test_one_sample_broadcast(self):
        x = np.random.default_rng(4).random(3072) + 0.5
        self._check(np.broadcast_to(x, (len(self.OFFSETS), 3072)))


class TestViewOutput:
    """paired_views_for_ids(..., out=buf) writes both views into buf."""

    def _case(self, image_mode):
        rng = np.random.default_rng(5)
        d = 3072 if image_mode else 6
        ds = LabeledDataset(rng.random((10, d)), np.zeros(10, dtype=int), rng.permutation(10))
        return ds, AugmentorConfig(image_mode=image_mode, mask_prob=0.3), ds.ids[[4, 1, 7]]

    @pytest.mark.parametrize("image_mode", [False, True])
    @pytest.mark.parametrize("extra", [0, 5])
    def test_halves_are_views_of_out(self, image_mode, extra):
        ds, cfg, ids = self._case(image_mode)
        want = paired_views_for_ids(ds, ids, cfg, 2, 1)
        stack = np.full((6 + extra, ds.dim), np.nan)
        buf = stack[:6]
        got = paired_views_for_ids(ds, ids, cfg, 2, 1, out=buf)
        assert [g.ctypes.data for g in got] == [buf.ctypes.data, buf[3:].ctypes.data]
        for g, w in zip(got, want):
            assert g.shape == (3, ds.dim) and g.tobytes() == w.tobytes()
        assert np.isnan(stack[6:]).all()

    @pytest.mark.parametrize("image_mode", [False, True])
    def test_bad_out_rejected(self, image_mode):
        ds, cfg, ids = self._case(image_mode)
        d = ds.dim
        for bad in (np.empty((5, d)), np.empty((6, d + 1)),
                    np.empty((6, d), dtype=np.float32), np.empty((d, 6)).T):
            with pytest.raises(ConfigurationError, match="C-contiguous float64"):
                paired_views_for_ids(ds, ids, cfg, 2, 1, out=bad)


class TestTrainingViews:
    """Training views come from one block per (seed, epoch) with a row per
    dataset row in sorted-id order."""

    def _vector_data(self):
        return _shuffled_ids(gen_synthetic(3, 6, 40, 5.0, seed=0), seed=1)

    def _image_data(self):
        rng = np.random.default_rng(2)
        return _shuffled_ids(
            LabeledDataset(rng.random((12, 3072)), np.zeros(12, dtype=int), np.arange(12)),
            seed=3,
        )

    @pytest.mark.parametrize("image_mode", [False, True])
    def test_views_independent_of_batch_composition(self, image_mode):
        ds = self._image_data() if image_mode else self._vector_data()
        cfg = AugmentorConfig(image_mode=image_mode)
        order = np.random.default_rng(4).permutation(ds.ids)
        full_x, full_y = paired_views_for_ids(ds, order, cfg, 5, 2)
        other = order[[3, 0, 7, 1]]
        batch_x, batch_y = paired_views_for_ids(ds, other, cfg, 5, 2)
        for k, sid in enumerate(other):
            alone_x, alone_y = paired_views_for_ids(ds, [sid], cfg, 5, 2)
            at = int(np.flatnonzero(order == sid)[0])
            for got in (batch_x[k], full_x[at]):
                assert got.tobytes() == alone_x[0].tobytes()
            for got in (batch_y[k], full_y[at]):
                assert got.tobytes() == alone_y[0].tobytes()

    def test_views_replay_from_seed_epoch_id(self):
        ds = self._vector_data()
        cfg = AugmentorConfig(mask_prob=0.3)
        ids = ds.ids[[5, 0, 33, 12]]
        xs, ys = paired_views_for_ids(ds, ids, cfg, 9, 3)
        for k, sid in enumerate(ids):
            ref_x, ref_y = _reference_views(ds, cfg, 9, 3, int(sid))
            assert xs[k].tobytes() == ref_x.tobytes()
            assert ys[k].tobytes() == ref_y.tobytes()
        assert np.any(xs == 0.0)  # the mask fired somewhere

    def test_image_views_match_reference_crop(self):
        ds = self._image_data()
        cfg = AugmentorConfig(image_mode=True)
        xs, ys = paired_views_for_ids(ds, ds.ids, cfg, 1, 0)
        flipped = 0
        for k, sid in enumerate(ds.ids):
            ref_x, ref_y = _reference_views(ds, cfg, 1, 0, int(sid))
            assert xs[k].tobytes() == ref_x.tobytes()
            assert ys[k].tobytes() == ref_y.tobytes()
            flipped += not np.array_equal(xs[k], ys[k])
        assert flipped > 0

    def test_block_reused_across_batches_of_one_epoch(self):
        ds = self._vector_data()
        cfg = AugmentorConfig()
        block = draw_view_block(ds, cfg, 5, 1)
        got = paired_views_for_ids(ds, ds.ids[:7], cfg, 5, 1, block)
        want = paired_views_for_ids(ds, ds.ids[:7], cfg, 5, 1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        with pytest.raises(ConfigurationError, match="another"):
            paired_views_for_ids(ds, ds.ids[:7], cfg, 5, 2, block)
        with pytest.raises(ConfigurationError, match="unknown sample id 12"):
            paired_views_for_ids(ds, [12], cfg, 5, 1, block)

    def test_image_mode_needs_image_dim(self):
        with pytest.raises(ConfigurationError, match="3072"):
            draw_view_block(self._vector_data(), AugmentorConfig(image_mode=True), 0, 0)


class TestSerialization:
    def test_dataset_round_trip(self, tmp_path):
        ds = gen_synthetic(3, 5, 40, 5.0, seed=3)
        path = str(tmp_path / "data.csv")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.ids, ds.ids)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.samples, ds.samples)

    def test_splits_round_trip(self, tmp_path):
        ds = gen_synthetic(3, 4, 200, 5.0, seed=1)
        sp = split(ds, 0.15, 0.1, 0.05, seed=2)
        path = str(tmp_path / "splits.csv")
        save_splits(sp, path)
        back = load_splits(path)
        for part in ("train", "retain", "unlearn", "test", "validation"):
            assert np.array_equal(getattr(back, part), getattr(sp, part))

    def test_dataset_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataFormatError):
            load_dataset(str(p))

    def test_dataset_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("id,label,dim0\n0,1,0.5\n1,2\n")
        with pytest.raises(DataFormatError):
            load_dataset(str(p))

    def test_dataset_nonfinite_value_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("id,label,dim0,dim1\n0,1,0.5,1.0\n1,0,nan,2.0\n2,1,0.1,0.2\n")
        with pytest.raises(DataFormatError, match=r"nan\.csv:3: non-finite"):
            load_dataset(str(p))

    def test_dataset_bytes_match_csv_writer_reference(self, tmp_path):
        samples = np.array([[-0.0, 5e-324, 1e300], [0.1, 1.0, -2.5]])
        ds = LabeledDataset(samples, [3, 0], [-5, 2**40])
        path = tmp_path / "data.csv"
        save_dataset(ds, str(path))
        with open(tmp_path / "ref.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "label", "dim0", "dim1", "dim2"])
            for i, y, row in zip(ds.ids, ds.labels, samples):
                w.writerow([int(i), int(y)] + ["%.17g" % v for v in row])
        blob = path.read_bytes()
        assert blob == (tmp_path / "ref.csv").read_bytes()
        assert blob.count(b"\r\n") == 3 and blob.count(b"\n") == 3
        back = load_dataset(str(path))
        assert np.array_equal(back.samples.view(np.int64), samples.view(np.int64))
        assert back.ids.tolist() == [-5, 2**40] and back.samples.flags.c_contiguous

    def test_dataset_quoted_fields_parse(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text('id,label,dim0,dim1\n"0","1","0.5",2\n')
        back = load_dataset(str(p))
        assert back.ids.tolist() == [0] and back.samples.tolist() == [[0.5, 2.0]]

    @pytest.mark.parametrize("row, match", [
        ("", "blank line"),
        ("   ", "blank line"),
        ("1,0,0.5", "expected 4 fields, got 3"),
        ("1,0.0,0.5,0.5", "'0.0' to int64"),
        ("1,0,0.5,abc", "'abc' to float64"),
        ("1,0,#0.5,0.5", "'#0.5' to float64"),
        ("1,0,1_0,0.5", "'1_0' to float64"),
        ("99999999999999999999,0,0.5,0.5", "'99999999999999999999' to int64"),
    ])
    def test_dataset_bad_line_named(self, tmp_path, row, match):
        p = tmp_path / "bad.csv"
        p.write_text(f"id,label,dim0,dim1\n0,1,0.5,1.0\n{row}\n2,1,0.1,0.2\n")
        with pytest.raises(DataFormatError, match=rf"bad\.csv:3: .*{match}"):
            load_dataset(str(p))

    def test_dataset_undecodable_bytes_named(self, tmp_path):
        p = tmp_path / "bin.csv"
        p.write_bytes(b"id,label,dim0\n0,1,0.5\n1,0,\xff\xfe\n")
        with pytest.raises(DataFormatError, match=r"bin\.csv:3: could not convert"):
            load_dataset(str(p))

    def test_splits_out_of_range_id_named(self, tmp_path):
        p = tmp_path / "sp.csv"
        p.write_text("id,part\n0,retain\n99999999999999999999,unlearn\n")
        with pytest.raises(DataFormatError, match=r"sp\.csv:3: id 99999999999999999999"):
            load_splits(str(p))

    @pytest.mark.parametrize("second", ["retain", "test"])
    def test_splits_repeated_id_names_both_lines(self, tmp_path, second):
        p = tmp_path / "sp.csv"
        p.write_text(f"id,part\n1,retain\n2,unlearn\n1,{second}\n")
        with pytest.raises(DataFormatError, match=r"sp\.csv:4: id 1 repeats line 2"):
            load_splits(str(p))

    @pytest.mark.parametrize("body, message", [
        ("0,retain\n1,bogus\n", "3: bad split row ['1', 'bogus']"),
        ("0,retain\n1,unlearn,x\n", "3: bad split row ['1', 'unlearn', 'x']"),
        ("0,retain\n\n1,unlearn\n", "3: bad split row []"),
        ("0,retain\nx1,unlearn\n", "3: bad id 'x1'"),
        ("1,retain\n1,unlearn\nx,test\n", "3: id 1 repeats line 2"),
        ("0,retain\n1,unlearn\n-9223372036854775809,test\n",
         "4: id -9223372036854775809 is outside int64"),
        ("", " retain and unlearn sets must be non-empty"),
        ("0,retain\n1,retain\n", " retain and unlearn sets must be non-empty"),
    ])
    def test_splits_first_bad_row_named(self, tmp_path, body, message):
        # the whole-file parse and the line-by-line rescan agree on the row
        p = tmp_path / "sp.csv"
        p.write_text("id,part\n" + body)
        with pytest.raises(DataFormatError) as exc:
            load_splits(str(p))
        assert str(exc.value) == f"{p}:{message}"

    def test_splits_bad_part_rejected(self, tmp_path):
        p = tmp_path / "sp.csv"
        p.write_text("id,part\n0,retain\n1,bogus\n")
        with pytest.raises(DataFormatError):
            load_splits(str(p))


class TestDatasetCopy:
    """save_dataset leaves `<csv>.bin` beside the CSV; load_dataset uses it
    only when it was written with exactly these CSV bytes."""

    def _parses(self, monkeypatch) -> list:
        """Record every CSV body parse load_dataset makes."""
        calls, real = [], datagen._read_id_rows
        monkeypatch.setattr(datagen, "_read_id_rows",
                            lambda path, *a, **kw: calls.append(path) or real(path, *a, **kw))
        return calls

    def _saved(self, tmp_path, data=None):
        if data is None:
            data = LabeledDataset(np.array([[0.5, 1.0], [-0.0, 5e-324], [1e300, 0.25]]),
                                  [1, 0, 1], [7, -3, 2**40])
        path = tmp_path / "data.csv"
        save_dataset(data, str(path))
        return data, path, Path(f"{path}.bin")

    @pytest.mark.parametrize("data", [
        gen_synthetic(3, 5, 40, 5.0, seed=3),
        LabeledDataset(np.random.default_rng(4).random((6, 3072)), np.arange(6) % 2,
                       np.arange(6)[::-1]),
    ], ids=["vector", "wide"])
    def test_copy_equals_csv_parse_bitwise(self, tmp_path, monkeypatch, data):
        _, path, copy = self._saved(tmp_path, data)
        parses = self._parses(monkeypatch)
        fast = load_dataset(str(path))
        assert parses == []
        copy.unlink()
        parsed = load_dataset(str(path))
        assert len(parses) == 1
        for name in ("ids", "labels", "samples"):
            a, b = getattr(fast, name), getattr(parsed, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous and a.flags.writeable

    def test_copy_layout(self, tmp_path):
        data, path, copy = self._saved(tmp_path)
        blob = copy.read_bytes()
        assert blob[:4] == b"MUCD" and blob[4:8] == (2).to_bytes(4, "little")
        assert blob[8:40] == hashlib.sha256(path.read_bytes()).digest()
        assert blob[40:56] == (3).to_bytes(8, "little") + (2).to_bytes(8, "little")
        assert blob[56:] == (data.ids.astype("<i8").tobytes() + data.labels.astype("<i8").tobytes()
                             + data.samples.astype("<f8").tobytes())

    def test_version_1_copy_falls_back_to_csv(self, tmp_path, monkeypatch):
        # version 1 keyed the copy by the CSV's 64-byte blake2b digest; a
        # version-1 copy of other values proves it is not read
        data, path, copy = self._saved(tmp_path)
        v1 = (b"MUCD" + (1).to_bytes(4, "little") + hashlib.blake2b(path.read_bytes()).digest()
              + (3).to_bytes(8, "little") + (2).to_bytes(8, "little")
              + data.ids.astype("<i8").tobytes() + data.labels.astype("<i8").tobytes()
              + (data.samples + 1.0).astype("<f8").tobytes())
        copy.write_bytes(v1)
        parses = self._parses(monkeypatch)
        back = load_dataset(str(path))
        assert len(parses) == 1
        assert back.samples.tobytes() == data.samples.tobytes()
        assert copy.read_bytes() == v1

    def test_edited_digit_makes_copy_stale(self, tmp_path, monkeypatch):
        _, path, copy = self._saved(tmp_path)
        before = copy.read_bytes()
        blob = path.read_bytes()
        assert blob.count(b",0.5,") == 1
        path.write_bytes(blob.replace(b",0.5,", b",0.7,"))
        parses = self._parses(monkeypatch)
        assert load_dataset(str(path)).samples[0, 0] == 0.7
        assert len(parses) == 1 and copy.read_bytes() == before

    _DAMAGE = {
        "truncated": lambda blob: blob[:-1],
        "garbled": lambda blob: np.random.default_rng(0).bytes(len(blob)),
        "wrong magic": lambda blob: b"MUCK" + blob[4:],
        # n 3 -> 4: the length no longer fits n and d
        "wrong n": lambda blob: blob[:40] + (4).to_bytes(8, "little") + blob[48:],
        # (n, d) (3, 2) -> (2, 4): the same length, but d is not the CSV's width
        "wrong d": lambda blob: (blob[:40] + (2).to_bytes(8, "little")
                                 + (4).to_bytes(8, "little") + blob[56:]),
    }

    @pytest.mark.parametrize("damage", list(_DAMAGE))
    def test_damaged_copy_falls_back_to_csv(self, tmp_path, monkeypatch, damage):
        data, path, copy = self._saved(tmp_path)
        copy.write_bytes(self._DAMAGE[damage](copy.read_bytes()))
        parses = self._parses(monkeypatch)
        back = load_dataset(str(path))
        assert len(parses) == 1
        assert back.ids.tolist() == data.ids.tolist()
        assert back.samples.tobytes() == data.samples.tobytes()

    @pytest.mark.parametrize("fault", ["nan", "duplicate id", "no rows"])
    def test_crafted_copy_with_matching_digest_not_trusted(self, tmp_path, monkeypatch, fault):
        data, path, copy = self._saved(tmp_path)
        ids, labels, samples = data.ids.copy(), data.labels.copy(), data.samples.copy()
        if fault == "nan":
            samples[1, 0] = np.nan
        elif fault == "duplicate id":
            ids[2] = ids[0]
        else:
            ids, labels, samples = ids[:0], labels[:0], samples[:0]
        save_dataset_copy(copy, file_digest(path), ids, labels, samples)
        parses = self._parses(monkeypatch)
        back = load_dataset(str(path))
        assert len(parses) == 1
        assert back.ids.tolist() == data.ids.tolist()
        assert back.samples.tobytes() == data.samples.tobytes()

    def test_reader_without_copy_writes_nothing(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("id,label,dim0\n0,1,0.5\n1,0,0.25\n")
        listing = sorted(tmp_path.iterdir())
        assert load_dataset(str(p)).samples.tolist() == [[0.5], [0.25]]
        assert sorted(tmp_path.iterdir()) == listing

    @pytest.mark.parametrize("old, new, line, match", [
        (b",0.5,", b",abc,", 2, "'abc' to float64"),
        (b",0.5,", b",nan,", 2, "non-finite"),
        (b"\r\n-3,", b"\r\n\r\n-3,", 3, "blank line"),
        (b"\r\n-3,", b"\r\n-3.5,", 3, "'-3.5' to int64"),
    ])
    def test_corrupted_csv_with_copy_still_names_line(self, tmp_path, old, new, line, match):
        _, path, copy = self._saved(tmp_path)
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(DataFormatError, match=rf"data\.csv:{line}: .*{match}"):
            load_dataset(str(path))
        assert copy.exists()

    def test_writer_replaces_stale_copy(self, tmp_path):
        _, path, _ = self._saved(tmp_path)
        other = gen_synthetic(3, 2, 9, 5.0, seed=1)
        save_dataset(other, str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.bin"]
        assert load_dataset(str(path)).samples.tobytes() == other.samples.tobytes()
