import contextlib
import errno
import hashlib

import numpy as np
import pytest

from unlearnlab import persist
from unlearnlab.datagen import LabeledDataset, save_dataset
from unlearnlab.diffcore import DenseLayer, EncoderNet, encoder_forward, init_encoder
from unlearnlab.errors import DataFormatError
from unlearnlab.persist import (
    _DIGEST_CHUNK,
    atomic_write,
    file_digest,
    load_encoder,
    read_feature_dump,
    save_encoder,
    symmetric_range,
    write_feature_dump,
    write_heatmap_pgm,
    write_matrix_csv,
)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        for arch, norm in [([3, 5, 2], True), ([4, 4], False), ([2, 7, 7, 3], True)]:
            net = init_encoder(arch, seed=11, normalize_output=norm)
            p = tmp_path / "enc.bin"
            save_encoder(net, p)
            back = load_encoder(p)
            assert back.normalize_output == norm
            assert len(back.layers) == len(net.layers)
            for a, b in zip(net.layers, back.layers):
                assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
            x = np.random.default_rng(0).normal(size=(4, arch[0]))
            assert np.array_equal(encoder_forward(net, x), encoder_forward(back, x))

    def test_frozen_byte_layout(self, tmp_path):
        # one 1x1 layer, w=2.0, b=3.0, normalized output
        net = EncoderNet([DenseLayer(np.array([[2.0]]), np.array([3.0]))])
        p = tmp_path / "tiny.bin"
        save_encoder(net, p)
        blob = p.read_bytes()
        expect = (
            b"MUCK"
            + (1).to_bytes(4, "little")   # version
            + (1).to_bytes(4, "little")   # layer count
            + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")  # 1x1
            + (1).to_bytes(4, "little")   # flags: normalize
            + np.float64(2.0).tobytes()
            + np.float64(3.0).tobytes()
        )
        assert blob == expect
        assert len(blob) == 40

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        net = init_encoder([2, 2], seed=0)
        save_encoder(net, p)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"JUNK"
        p.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="byte 0"):
            load_encoder(p)

    def test_truncation_reports_offset(self, tmp_path):
        p = tmp_path / "x.bin"
        save_encoder(init_encoder([2, 3], seed=0), p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError, match="truncated at byte"):
            load_encoder(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "x.bin"
        save_encoder(init_encoder([2, 3], seed=0), p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            load_encoder(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "x.bin"
        save_encoder(init_encoder([2, 2], seed=0), p)
        blob = bytearray(p.read_bytes())
        blob[4] = 9
        p.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="version"):
            load_encoder(p)

    def test_mismatched_chain_rejected(self, tmp_path):
        # hand-build a header whose layer shapes cannot compose
        import struct
        head = b"MUCK" + struct.pack("<II", 1, 2)
        head += struct.pack("<II", 2, 3) + struct.pack("<II", 4, 1)
        head += struct.pack("<I", 0)
        body = np.zeros(2 * 3 + 3).tobytes() + np.zeros(4 * 1 + 1).tobytes()
        p = tmp_path / "x.bin"
        p.write_bytes(head + body)
        with pytest.raises(DataFormatError, match="chain"):
            load_encoder(p)


class TestCheckpointBuffers:
    def test_loaded_arrays_are_own_writable_float64(self, tmp_path):
        p = tmp_path / "enc.bin"
        save_encoder(init_encoder([3, 5, 2], seed=1), p)
        first, second = load_encoder(p), load_encoder(p)
        for a in first.param_arrays():
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            for b in second.param_arrays():
                assert not np.shares_memory(a, b)

    def test_error_messages(self, tmp_path):
        p = tmp_path / "x.bin"
        save_encoder(init_encoder([2, 3], seed=0), p)  # 24-byte header + 72 bytes
        blob = p.read_bytes()
        cases = [
            (b"JUNK" + blob[4:], "bad checkpoint magic at byte 0: expected b'MUCK', got b'JUNK'"),
            (blob[:-5], "checkpoint truncated at byte 72: needed 24 bytes for layer 0 biases,"
                        " have 19"),
            (blob + b"\0", "trailing garbage: 1 extra bytes at byte 96"),
        ]
        for bad, message in cases:
            p.write_bytes(bad)
            with pytest.raises(DataFormatError) as exc:
                load_encoder(p)
            assert str(exc.value) == f"{p}: {message}"

    def test_failed_save_keeps_old_checkpoint(self, tmp_path):
        p = tmp_path / "enc.bin"
        save_encoder(init_encoder([3, 5, 2], seed=1), p)
        before = p.read_bytes()
        net = init_encoder([3, 5, 2], seed=2)
        net.layers[-1].b = ["not a number"] * 2  # fails after the other arrays are written
        with pytest.raises(ValueError):
            save_encoder(net, p)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["enc.bin"]


# Values whose %.17g text is easy to get wrong: signed zero, the smallest
# subnormal, a huge value, a value with no short exact form, whole numbers.
_EDGE_VALUES = [-0.0, 5e-324, 1e300, 0.1, 1.0, -2.5]


def _reference_csv(header, ids, values) -> bytes:
    """The per-value formula the CSV writers must reproduce byte for byte."""
    lines = [header] + [str(int(i)) + "," + ",".join("%.17g" % v for v in row)
                        for i, row in zip(ids, values)]
    return ("\n".join(lines) + "\n").encode()


class TestFeatureDump:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ids = np.array([3, 11, 400007], dtype=np.int64)
        feats = rng.normal(size=(3, 4)) * np.array([1e-9, 1.0, 1e6, 0.1])
        p = tmp_path / "f.csv"
        write_feature_dump(p, ids, feats)
        rid, rfeats = read_feature_dump(p)
        assert np.array_equal(rid, ids)
        assert np.array_equal(rfeats, feats)  # %.17g is lossless for float64

    def test_header_written(self, tmp_path):
        p = tmp_path / "f.csv"
        write_feature_dump(p, [1], np.array([[0.5, -0.25]]))
        assert p.read_text().splitlines()[0] == "id,dim0,dim1"

    def test_ragged_line_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("id,dim0,dim1\n1,0.5\n")
        with pytest.raises(DataFormatError, match="fields"):
            read_feature_dump(p)

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-finite"):
            write_feature_dump(tmp_path / "f.csv", [1], np.array([[np.nan]]))

    def test_id_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_feature_dump(tmp_path / "f.csv", [1, 2], np.ones((3, 2)))

    def test_nonfinite_read_rejected_with_line(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("id,dim0,dim1\n1,0.5,0.5\n\n2,nan,1.0\n3,inf,0.0\n")
        with pytest.raises(DataFormatError, match=r"f\.csv:4: non-finite"):
            read_feature_dump(p)

    def test_bytes_match_per_value_reference(self, tmp_path):
        ids = [-7, 0, 2**40]
        feats = np.array(_EDGE_VALUES * 2).reshape(3, 4)
        p = tmp_path / "f.csv"
        write_feature_dump(p, ids, feats)
        assert p.read_bytes() == _reference_csv("id,dim0,dim1,dim2,dim3", ids, feats)
        rid, rfeats = read_feature_dump(p)
        assert rid.tolist() == ids
        assert np.array_equal(rfeats.view(np.int64), feats.view(np.int64))  # -0.0 too

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("\nid,dim0\n1,0.5\n\n   \n2,0.25\n\n")
        ids, feats = read_feature_dump(p)
        assert ids.tolist() == [1, 2] and feats.tolist() == [[0.5], [0.25]]
        p.write_text("id,dim0\n1,0.5\n\n \n2,x\n")
        with pytest.raises(DataFormatError, match=r"f\.csv:5: could not convert string 'x'"):
            read_feature_dump(p)

    @pytest.mark.parametrize("row, match", [
        ("4,0.5", "expected 3 fields, got 2"),
        ("4.0,0.5,0.5", "'4.0' to int64"),
        ("4,0.5,1_0", "'1_0' to float64"),
        ("4,#0.5,0.5", "'#0.5' to float64"),
        ("99999999999999999999,0.5,0.5", "'99999999999999999999' to int64"),
    ])
    def test_bad_line_named(self, tmp_path, row, match):
        p = tmp_path / "f.csv"
        p.write_text(f"id,dim0,dim1\n1,0.5,0.5\n\n{row}\n5,0.5,0.5\n")
        with pytest.raises(DataFormatError, match=rf"f\.csv:4: .*{match}"):
            read_feature_dump(p)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        vals = np.array([[0.25, -1.0], [1e-17, 3.5]])
        p = tmp_path / "m.csv"
        write_matrix_csv(p, vals, [10, 20], [7, 8])
        table = np.loadtxt(p, delimiter=",", dtype=str)
        assert table[0].tolist() == ["id", "7", "8"]
        assert table[1:, 0].tolist() == ["10", "20"]
        assert np.array_equal(table[1:, 1:].astype(float), vals)

    def test_bytes_match_per_value_reference(self, tmp_path):
        vals = np.array(_EDGE_VALUES).reshape(2, 3)
        p = tmp_path / "m.csv"
        write_matrix_csv(p, vals, [-4, 9], [0, -1, 2])
        assert p.read_bytes() == _reference_csv("id,0,-1,2", [-4, 9], vals)

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-finite"):
            write_matrix_csv(tmp_path / "m.csv", np.array([[np.inf]]), [0], [0])

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)), [0], [0, 1])

    def test_failed_write_keeps_old_matrix(self, tmp_path, monkeypatch):
        p = tmp_path / "agm.csv"
        write_matrix_csv(p, np.eye(3), [0, 1, 2], [0, 1, 2])
        old = p.read_bytes()
        real = persist.atomic_write

        class DiskFullAfterOneRow:
            """Writes the header, then the first row of the next write."""

            def __init__(self, f):
                self.f, self.calls = f, 0

            def write(self, data):
                self.calls += 1
                if self.calls > 1:
                    self.f.write(data[:data.index(b"\n") + 1])
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.f.write(data)

        @contextlib.contextmanager
        def filling(path, *args, **kwargs):
            with real(path, *args, **kwargs) as f:
                yield DiskFullAfterOneRow(f)

        monkeypatch.setattr(persist, "atomic_write", filling)
        with pytest.raises(OSError):
            write_matrix_csv(p, 2 * np.eye(3), [0, 1, 2], [0, 1, 2])
        assert p.read_bytes() == old
        assert [q.name for q in tmp_path.iterdir()] == ["agm.csv"]


class TestHeatmap:
    def _parse_pgm(self, blob):
        # header is 4 lines: P5, comment, dims, maxval
        nl = -1
        for _ in range(4):
            nl = blob.index(b"\n", nl + 1)
        header = blob[:nl].decode("ascii").split("\n")
        w, h = (int(t) for t in header[2].split())
        pixels = np.frombuffer(blob[nl + 1:], dtype=np.uint8).reshape(h, w)
        return header, pixels

    def test_endpoint_and_midpoint_pixels(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_heatmap_pgm(p, np.array([[-1.0, 0.0, 1.0]]), lo=-1.0, hi=1.0)
        header, pixels = self._parse_pgm(p.read_bytes())
        assert header[0] == "P5"
        assert header[3] == "255"
        assert "[-1," in header[1] or "-1" in header[1]
        assert pixels.tolist() == [[0, 128, 255]]

    def test_clamping(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_heatmap_pgm(p, np.array([[-5.0, 5.0]]), lo=-1.0, hi=1.0)
        _, pixels = self._parse_pgm(p.read_bytes())
        assert pixels.tolist() == [[0, 255]]

    def test_default_range_is_symmetric(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_heatmap_pgm(p, np.array([[0.0, 0.5, -2.0]]))
        _, pixels = self._parse_pgm(p.read_bytes())
        # range (-2, 2): -2 -> 0, 0 -> 128, 0.5 -> rint(159.375) = 159
        assert pixels.tolist() == [[128, 159, 0]]

    def test_all_zero_matrix_renders_midgray(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_heatmap_pgm(p, np.zeros((2, 2)))
        _, pixels = self._parse_pgm(p.read_bytes())
        assert np.all(pixels == 128)

    def test_bad_range_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="lo < hi"):
            write_heatmap_pgm(tmp_path / "m.pgm", np.ones((1, 1)), lo=1.0, hi=1.0)

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-finite"):
            write_heatmap_pgm(tmp_path / "m.pgm", np.array([[np.nan]]))


class TestSymmetricRange:
    def test_max_abs(self):
        assert symmetric_range(np.array([[0.25, -3.0]])) == (-3.0, 3.0)

    def test_all_zero_placeholder(self):
        assert symmetric_range(np.zeros((3, 3))) == (-1.0, 1.0)


class TestAtomicWrite:
    def test_replaces_target_whole(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old")
        with atomic_write(p, "w") as f:
            f.write("new")
            assert p.read_text() == "old"
        assert p.read_text() == "new"
        assert [q.name for q in tmp_path.iterdir()] == ["out.txt"]

    def test_missing_directory_names_target(self, tmp_path):
        target = tmp_path / "nodir" / "enc.bin"
        with pytest.raises(FileNotFoundError) as exc:
            save_encoder(init_encoder([2, 2], seed=0), target)
        assert exc.value.filename == str(target)

    @pytest.mark.parametrize("existing", [False, True])
    def test_writer_raising_midway_leaves_no_file(self, tmp_path, existing):
        p = tmp_path / "out.bin"
        if existing:
            p.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(p) as f:
                f.write(b"partial")
                raise RuntimeError("midway")
        assert [q.name for q in tmp_path.iterdir()] == (["out.bin"] if existing else [])
        if existing:
            assert p.read_bytes() == b"old"


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 1, _DIGEST_CHUNK - 1, _DIGEST_CHUNK,
                                      _DIGEST_CHUNK + 1, 2 * _DIGEST_CHUNK + 3])
    def test_sha256_of_whole_file_across_chunks(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        p = tmp_path / "blob"
        p.write_bytes(data)
        assert file_digest(p) == hashlib.sha256(data).digest()


def _slot_text(values) -> tuple[bytes, np.ndarray]:
    """`%.17g,` of each value the kernel places, concatenated, and the mask
    of the values it leaves to Python; formatted in 65536-value blocks."""
    parts, redo = [], []
    for at in range(0, len(values), 1 << 16):
        block = values[at:at + (1 << 16)]
        out = np.zeros((len(block), persist._SLOT), np.uint8)
        again = persist._format_slots(block.copy(), out)
        parts.append(out[~again].tobytes().translate(None, b"\0"))
        redo.append(again)
    return b"".join(parts), np.concatenate(redo)


def _bits(rng, n, lo_exp=0, hi_exp=2047):
    """n doubles with random sign and mantissa and a biased exponent
    uniform in [lo_exp, hi_exp)."""
    mant = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    exp = rng.integers(lo_exp, hi_exp, n).astype(np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64)
    return ((sign << np.uint64(63)) | (exp << np.uint64(52)) | mant).view(np.float64)


_N = 10 ** 6
_POW10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
_KERNEL_CASES = {
    # random bit patterns over every exponent, and over the kernel's range
    "bits": lambda rng: _bits(rng, _N),
    "bits_in_range": lambda rng: _bits(rng, _N, 1023 - 100, 1023 + 100),
    "normal": lambda rng: rng.standard_normal(_N),
    "normal_milli": lambda rng: rng.standard_normal(_N) * 1e-3,
    "integers": lambda rng: np.concatenate([
        rng.integers(-1000, 1000, _N // 2), rng.integers(-2**53, 2**53, _N // 2)]).astype(float),
    "dyadic": lambda rng: rng.integers(-2**30, 2**30, _N) / 2.0 ** rng.integers(0, 60, _N),
    "log_uniform": lambda rng: (np.exp(rng.uniform(np.log(1e-40), np.log(1e40), _N))
                                * rng.choice([-1.0, 1.0], _N)),
    "cosine_gaps": lambda rng: np.concatenate([
        1 - np.cos(rng.uniform(0, 1e-3, _N // 2)),
        np.cos(rng.uniform(0, 3, _N // 2)) - np.cos(rng.uniform(0, 3, _N // 2))]),
    # exhaustive sets, not random ones
    "zeros_subnormals_extremes": lambda rng: np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308],
        _bits(rng, _N, 0, 1)]),
    "powers_of_ten_ulps": lambda rng: np.concatenate([
        np.nextafter(_POW10, -np.inf), _POW10, np.nextafter(_POW10, np.inf),
        -_POW10, 3 * _POW10[_POW10 < 1e300]]),
    # 1 + 2**-k and 1 - 2**-k have k exact decimals: ties at 17 digits for k = 17, 18
    "halfway": lambda rng: np.concatenate([1 + 2.0 ** -np.arange(1, 64),
                                           1 - 2.0 ** -np.arange(1, 64)]),
}
# cases of the kind of data the lab writes, where the template is rare
_TYPICAL = ("bits_in_range", "cosine_gaps", "dyadic", "normal", "normal_milli")


class TestFloatKernel:
    """_format_slots against Python's `%.17g`: every value it places must
    be byte-equal, and every other value is left to the per-row template."""

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_matches_python(self, case):
        values = _KERNEL_CASES[case](np.random.default_rng(sorted(_KERNEL_CASES).index(case)))
        values = values[np.isfinite(values)]
        text, redo = _slot_text(values)
        placed = values[~redo]
        assert text == (("%.17g," * len(placed)) % tuple(placed.tolist())).encode()
        if case in _TYPICAL:  # nearly every value is the kernel's
            assert redo.mean() < 0.05

    def test_fallback_is_taken(self):
        ties = np.array([1 + 2.0 ** -17, 1 - 2.0 ** -18])  # 1.00000762939453125, ...
        for case in (ties, np.array([5e-324, 1e-31, 1e31, 1e300]), np.array([10.0, 200.0])):
            assert _slot_text(case)[1].all()
        assert not _slot_text(np.array([0.0, -0.0, 1.0, 10.5, 1e16 + 2, 1e-30]))[1].any()


def _reference_rows(header, cols, values, newline="\n") -> bytes:
    """The per-value formula of every CSV writer: ints by str, floats by
    `%.17g`, one value at a time."""
    lines = [header] + [",".join([str(int(c)) for c in key] + ["%.17g" % v for v in row])
                        for key, row in zip(zip(*cols), values)]
    return (newline.join(lines) + newline).encode()


class TestWritersMatchReference:
    """All three CSV writers are byte-equal to the per-value reference, over
    several row chunks, with rows the kernel leaves to the template."""

    @staticmethod
    def _values(rows, width):
        rng = np.random.default_rng(rows * width)
        values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-6, 6, (rows, 1))
        values[1, 0] = 1 + 2.0 ** -17  # a tie
        values[2, -1] = 5e-324
        values[3, :] = 0.0
        values[4, 0] = -0.0
        values[5, 0] = 300.0
        return values

    @pytest.mark.parametrize("width", [1, 3, 16, 5000])
    def test_feature_dump(self, tmp_path, width):
        rows = 3 * 4096 // width + 7
        values, ids = self._values(rows, width), np.arange(rows) * 7 - 20
        write_feature_dump(tmp_path / "f.csv", ids, values)
        header = "id," + ",".join(f"dim{j}" for j in range(width))
        assert (tmp_path / "f.csv").read_bytes() == _reference_rows(header, [ids], values)

    def test_matrix(self, tmp_path):
        values = self._values(70, 70)
        ids = list(range(-3, 67))
        write_matrix_csv(tmp_path / "m.csv", values, ids, ids)
        header = "id," + ",".join(map(str, ids))
        assert (tmp_path / "m.csv").read_bytes() == _reference_rows(header, [ids], values)

    def test_dataset(self, tmp_path):
        values = self._values(300, 40)
        ids, labels = np.arange(300) + 2**40, np.arange(300) % 7
        save_dataset(LabeledDataset(values, labels, ids), str(tmp_path / "d.csv"))
        header = "id,label," + ",".join(f"dim{j}" for j in range(40))
        assert (tmp_path / "d.csv").read_bytes() == _reference_rows(
            header, [ids, labels], values, "\r\n")
