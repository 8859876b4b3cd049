import errno
import gzip
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atlas4d import volume_io
from atlas4d.network import MlpConfig, init_mlp, save_checkpoint

from atlas4d.volume_io import (
    LabelVolume,
    NiftiError,
    Volume3D,
    Volume4D,
    coord_grid,
    denormalize_intensity,
    iter_series,
    load_series,
    normalize_intensity,
    normalize_times,
    read_manifest,
    read_nifti,
    voxel_coords,
    write_atomic,
    write_manifest,
    write_nifti,
)


def _vol(dims=(2, 2, 2), spacing=(1.0, 1.0, 1.0), seed=0):
    rng = np.random.default_rng(seed)
    return Volume3D(dims, spacing, rng.uniform(0, 1, dims))


def _raw_nifti(dims=(2, 2, 2), datatype=64, dim0=3, scl_slope=0.0, scl_inter=0.0,
               payload=None, magic=b"n+1\x00", end="<"):
    """Hand-assembled NIfTI-1 bytes, independent of write_nifti.

    `end` sets the header byte order; `payload` must be encoded to match.
    """
    hdr = bytearray(348)
    struct.pack_into(end + "i", hdr, 0, 348)
    struct.pack_into(end + "8h", hdr, 40, dim0, *dims, 1, 1, 1, 1)
    codes = {2: 1, 4: 2, 16: 4, 64: 8}
    struct.pack_into(end + "h", hdr, 70, datatype)
    struct.pack_into(end + "h", hdr, 72, codes[datatype] * 8)
    struct.pack_into(end + "8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
    struct.pack_into(end + "f", hdr, 108, 352.0)
    struct.pack_into(end + "f", hdr, 112, scl_slope)
    struct.pack_into(end + "f", hdr, 116, scl_inter)
    struct.pack_into("<4s", hdr, 344, magic)
    if payload is None:
        n = dims[0] * dims[1] * dims[2]
        payload = np.arange(n, dtype=np.float64).tobytes()
    return bytes(hdr) + b"\x00" * 4 + payload


class TestNifti:
    def test_round_trip_identity(self, tmp_path):
        vol = _vol()
        p = tmp_path / "v.nii"
        write_nifti(vol, p)
        back = read_nifti(p)
        assert back.dims == vol.dims
        assert np.allclose(back.spacing, vol.spacing, atol=1e-6)
        # payload is float32 on disk, so compare against the float32 cast
        assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))

    def test_round_trip_large_random(self, tmp_path):
        vol = _vol(dims=(64, 64, 64), seed=3)
        p = tmp_path / "v.nii"
        write_nifti(vol, p)
        back = read_nifti(p)
        diff = np.abs(back.data - vol.data.astype(np.float32).astype(np.float64))
        assert diff.max() == 0.0

    def test_round_trip_gzip(self, tmp_path):
        vol = _vol(dims=(5, 4, 3), seed=1)
        p = tmp_path / "v.nii.gz"
        write_nifti(vol, p)
        assert p.read_bytes()[:2] == b"\x1f\x8b"
        back = read_nifti(p)
        assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))

    def test_gzip_output_is_deterministic(self, tmp_path):
        vol = _vol(dims=(4, 4, 4), seed=2)
        a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_nifti(vol, a)
        write_nifti(vol, b)
        assert a.read_bytes() == b.read_bytes()

    def test_scl_slope_applied(self, tmp_path):
        # raw voxel 3 with slope 2, inter 1 must read as 7 (header arithmetic)
        payload = np.array([3.0] * 8, dtype=np.float64).tobytes()
        p = tmp_path / "scaled.nii"
        p.write_bytes(_raw_nifti(scl_slope=2.0, scl_inter=1.0, payload=payload))
        back = read_nifti(p)
        assert np.all(back.data == 7.0)

    def test_zero_slope_means_no_scaling(self, tmp_path):
        payload = np.array([3.0] * 8, dtype=np.float64).tobytes()
        p = tmp_path / "plain.nii"
        p.write_bytes(_raw_nifti(scl_slope=0.0, scl_inter=5.0, payload=payload))
        assert np.all(read_nifti(p).data == 3.0)

    @pytest.mark.parametrize("end", ["<", ">"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scaling_fields_ignored(self, tmp_path, end, bad):
        # NIfTI-1 and nibabel: a non-finite slope means no scaling at all,
        # and a non-finite intercept under a valid slope counts as 0.
        payload = np.full(8, 3.0, dtype=end + "f8").tobytes()
        p = tmp_path / "bad_slope.nii"
        p.write_bytes(_raw_nifti(scl_slope=bad, scl_inter=5.0, payload=payload, end=end))
        assert np.all(read_nifti(p).data == 3.0)
        p = tmp_path / "bad_inter.nii"
        p.write_bytes(_raw_nifti(scl_slope=2.0, scl_inter=bad, payload=payload, end=end))
        assert np.all(read_nifti(p).data == 6.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_voxel_rejected(self, tmp_path, bad):
        payload = np.arange(8, dtype=np.float64)
        payload[5] = bad
        p = tmp_path / "holey.nii"
        p.write_bytes(_raw_nifti(payload=payload.tobytes()))
        with pytest.raises(NiftiError, match=r"non-finite voxel.*holey\.nii"):
            read_nifti(p)

    def test_4d_file_rejected(self, tmp_path):
        p = tmp_path / "fourd.nii"
        p.write_bytes(_raw_nifti(dim0=4))
        with pytest.raises(NiftiError, match="unsupported layout"):
            read_nifti(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.nii"
        p.write_bytes(_raw_nifti(magic=b"abc\x00"))
        with pytest.raises(NiftiError, match="not NIfTI-1"):
            read_nifti(p)

    @pytest.mark.parametrize("fmt, offset, value, message", [
        ("4s", 344, (b"ni1\x00",), "unsupported layout: two-file NIfTI pair"),
        ("8h", 40, (3, 2, 0, 2, 1, 1, 1, 1), "unsupported layout: nonpositive dims (2, 0, 2)"),
        ("h", 72, (16,), "corrupt file: bitpix 16 vs datatype 64"),
        ("8f", 76, (1, 1, -1, 1, 0, 0, 0, 0),
         "corrupt file: pixdim (1.0, -1.0, 1.0) is not positive and finite"),
        ("8f", 76, (1, 1, 1, math.nan, 0, 0, 0, 0),
         "corrupt file: pixdim (1.0, 1.0, nan) is not positive and finite"),
        ("f", 108, (100.0,), "corrupt file: vox_offset 100"),
    ], ids=["ni1-pair", "dims", "bitpix", "pixdim", "nan-pixdim", "vox-offset"])
    def test_bad_header_field_rejected(self, tmp_path, fmt, offset, value, message):
        blob = bytearray(_raw_nifti())
        struct.pack_into("<" + fmt, blob, offset, *value)
        p = tmp_path / "bad.nii"
        p.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match=re.escape(f"{message} ({p})")):
            read_nifti(p)

    def test_bad_header_size(self, tmp_path):
        blob = bytearray(_raw_nifti())
        struct.pack_into("<i", blob, 0, 999)
        p = tmp_path / "bad.nii"
        p.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match="not NIfTI-1"):
            read_nifti(p)

    def test_unsupported_datatype(self, tmp_path):
        blob = bytearray(_raw_nifti())
        struct.pack_into("<h", blob, 70, 128)  # RGB, not scalar
        p = tmp_path / "rgb.nii"
        p.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match="unsupported layout"):
            read_nifti(p)

    def test_truncated_payload(self, tmp_path):
        blob = _raw_nifti()
        p = tmp_path / "short.nii"
        p.write_bytes(blob[:-8])
        with pytest.raises(NiftiError, match="corrupt file"):
            read_nifti(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "stub.nii"
        p.write_bytes(b"\x00" * 100)
        with pytest.raises(NiftiError, match="corrupt file"):
            read_nifti(p)

    def test_big_endian_read(self, tmp_path):
        hdr = bytearray(348)
        struct.pack_into(">i", hdr, 0, 348)
        struct.pack_into(">8h", hdr, 40, 3, 2, 1, 1, 1, 1, 1, 1)
        struct.pack_into(">h", hdr, 70, 16)
        struct.pack_into(">h", hdr, 72, 32)
        struct.pack_into(">8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
        struct.pack_into(">f", hdr, 108, 352.0)
        struct.pack_into("<4s", hdr, 344, b"n+1\x00")
        payload = np.array([1.5, -2.0], dtype=">f4").tobytes()
        p = tmp_path / "be.nii"
        p.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)
        back = read_nifti(p)
        assert back.dims == (2, 1, 1)
        assert np.array_equal(back.data.ravel(), [1.5, -2.0])

    def test_zero_sized_dim_rejected(self):
        with pytest.raises(ValueError):
            Volume3D((0, 2, 2), (1, 1, 1), np.zeros((0, 2, 2)))

    def test_disk_order_is_x_fastest(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape((2, 3, 4), order="F")
        vol = Volume3D((2, 3, 4), (1, 1, 1), data)
        p = tmp_path / "order.nii"
        write_nifti(vol, p)
        raw = np.frombuffer(p.read_bytes()[352:], dtype="<f4")
        assert np.array_equal(raw, np.arange(24, dtype=np.float32))


_NIFTI_CODES = {"u1": 2, "i2": 4, "f4": 16, "f8": 64}
_finite_f32 = st.floats(-1e3, 1e3, allow_nan=False, width=32)


@st.composite
def _nifti_files(draw):
    """(file bytes, expected float64 data) of a hand-encoded NIfTI-1 file."""
    kind = draw(st.sampled_from(sorted(_NIFTI_CODES)))
    end = draw(st.sampled_from("<>"))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))
    elements = {"f4": _finite_f32,
                "f8": st.floats(-1e6, 1e6, allow_nan=False)}.get(kind)
    raw = draw(hnp.arrays(np.dtype(end + kind), int(np.prod(dims)), elements=elements))
    slope = draw(_finite_f32.filter(lambda v: v != 0.0))
    inter = draw(_finite_f32)
    blob = _raw_nifti(dims, _NIFTI_CODES[kind], scl_slope=slope, scl_inter=inter,
                      payload=raw.tobytes(), end=end)
    expected = raw.astype(np.float64).reshape(dims, order="F") * slope + inter
    return blob, expected


class TestNiftiRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=_nifti_files())
    def test_read_scales_and_write_round_trips(self, tmp_path_factory, case):
        blob, expected = case
        d = tmp_path_factory.mktemp("nifti")
        (d / "in.nii").write_bytes(blob)
        vol = read_nifti(d / "in.nii")
        assert vol.dims == expected.shape
        assert np.array_equal(vol.data, expected)
        write_nifti(vol, d / "out.nii.gz")
        back = read_nifti(d / "out.nii.gz")
        assert back.dims == vol.dims and back.spacing == vol.spacing
        assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))


class _DiskFull:
    """File handle whose write stores half of the data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")


_WRITERS = {  # writer -> (file name, write call)
    "nifti": ("v.nii", lambda p: write_nifti(_vol(dims=(6, 5, 4)), p)),
    "nifti_gz": ("v.nii.gz", lambda p: write_nifti(_vol(dims=(6, 5, 4)), p)),
    "manifest": ("series.tsv", lambda p: write_manifest([(p.parent / "a.nii", 21.0)], p)),
    "checkpoint": ("model.ckpt", lambda p: save_checkpoint(
        init_mlp(MlpConfig(input_dim=3, hidden_width=4, n_layers=3, skip_layers=()),
                 seed=0), p)),
    "text": ("metrics.tsv", lambda p: write_atomic(p, "new text\n")),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        name, write = _WRITERS[writer]
        target = tmp_path / name
        target.write_bytes(b"old contents\n")
        monkeypatch.setattr(volume_io, "open",
                            lambda path, mode: _DiskFull(open(path, mode)), raising=False)
        with pytest.raises(OSError, match="No space"):
            write(target)
        assert target.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_replaces_whole_file(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("a much longer old text\n")
        write_atomic(target, "new\n")
        write_atomic(tmp_path / "raw.bin", b"\x00\x01")
        assert target.read_text() == "new\n"
        assert (tmp_path / "raw.bin").read_bytes() == b"\x00\x01"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt", "raw.bin"]


class TestLabelVolume:
    def test_int64_data_is_not_copied(self):
        data = np.zeros((2, 3, 4), dtype=np.int64)
        assert np.shares_memory(LabelVolume(data.shape, (1, 1, 1), data).data, data)

    def test_int32_and_uint8_data_keep_dtype_and_memory(self):
        for dtype in (np.int32, np.uint8):
            data = np.ones((2, 2, 2), dtype=dtype)
            lab = LabelVolume(data.shape, (1, 1, 1), data)
            assert lab.data.dtype == dtype
            assert np.shares_memory(lab.data, data)

    @pytest.mark.parametrize("spacing", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                         (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0)],
                             ids=["zero", "negative", "nan", "inf"])
    def test_bad_spacing_rejected(self, spacing):
        for cls, data in ((LabelVolume, np.zeros((2, 2, 2), dtype=np.uint8)),
                          (Volume3D, np.zeros((2, 2, 2)))):
            with pytest.raises(ValueError, match="spacing must be positive and finite"):
                cls((2, 2, 2), spacing, data)

    def test_bool_and_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="must be integer"):
            LabelVolume((2, 2, 2), (1, 1, 1), np.ones((2, 2, 2), dtype=bool))
        data = np.zeros((2, 2, 2), dtype=np.int32)
        data[1, 0, 1] = -1
        with pytest.raises(ValueError, match=">= 0"):
            LabelVolume(data.shape, (1, 1, 1), data)


class TestSeries:
    def _write_series(self, tmp_path, times, dims=(3, 3, 3)):
        entries = []
        for i, t in enumerate(times):
            p = tmp_path / f"v{i}.nii"
            write_nifti(_vol(dims, seed=i), p)
            entries.append((p, t))
        return entries

    def test_sorted_by_time(self, tmp_path):
        entries = self._write_series(tmp_path, [25.0, 21.0, 23.0])
        series = load_series(entries)
        assert list(series.times) == [21.0, 23.0, 25.0]

    def test_crl_manifest_18_volumes(self, tmp_path):
        weeks = list(range(21, 39))
        entries = self._write_series(tmp_path, [float(w) for w in weeks], dims=(2, 2, 2))
        series = load_series(entries)
        assert list(series.times) == [float(w) for w in weeks]
        assert series.n_times == 18

    def test_duplicate_time_rejected(self, tmp_path):
        entries = self._write_series(tmp_path, [21.0, 21.0])
        with pytest.raises(ValueError, match="duplicate"):
            load_series(entries)

    def test_dim_mismatch_rejected(self, tmp_path):
        p1, p2 = tmp_path / "a.nii", tmp_path / "b.nii"
        write_nifti(_vol((3, 3, 3)), p1)
        write_nifti(_vol((4, 3, 3)), p2)
        with pytest.raises(ValueError) as info:
            load_series([(p1, 1.0), (p2, 2.0)], label="training")
        assert str(info.value) == (
            f"dimension mismatch across series: training volume {p2} has dims (4, 3, 3) and "
            f"spacing (1.0, 1.0, 1.0), its first volume {p1} has dims (3, 3, 3) and spacing "
            f"(1.0, 1.0, 1.0)")

    def test_too_few_entries(self, tmp_path):
        entries = self._write_series(tmp_path, [21.0])
        with pytest.raises(ValueError, match="at least 2"):
            load_series(entries)

    def test_iter_series_checks_entries_before_reading(self, tmp_path):
        missing = tmp_path / "never_written.nii"
        with pytest.raises(ValueError, match="recon: need at least 2"):
            iter_series([(missing, 21.0)], label="recon")
        with pytest.raises(ValueError, match="reference: duplicate"):
            iter_series([(missing, 21.0), (missing, 21.0)], label="reference")

    def test_iter_series_reads_lazily_in_time_order(self, tmp_path):
        entries = self._write_series(tmp_path, [23.0, 21.0, 22.0])
        p_bad = tmp_path / "bad.nii"
        write_nifti(_vol((3, 3, 3), spacing=(1.0, 1.0, 2.0)), p_bad)
        times, volumes = iter_series(entries + [(p_bad, 24.0)])
        assert list(times) == [21.0, 22.0, 23.0, 24.0]
        for want in (1, 2, 0):
            assert np.array_equal(next(volumes).data, read_nifti(entries[want][0]).data)
        with pytest.raises(ValueError, match="spacing mismatch across series") as info:
            next(volumes)
        assert f"series volume {p_bad} has dims (3, 3, 3) and spacing (1.0, 1.0, 2.0)" in str(
            info.value)
        assert f"first volume {entries[1][0]} has dims (3, 3, 3)" in str(info.value)

    def test_manifest_round_trip(self, tmp_path):
        entries = self._write_series(tmp_path, [21.0, 22.5, 24.0])
        mp = tmp_path / "series.tsv"
        write_manifest(entries, mp)
        back = read_manifest(mp)
        assert [(p.name, t) for p, t in back] == [(p.name, t) for p, t in entries]
        series = load_series(back)
        assert series.n_times == 3

    def test_manifest_times_round_trip_exactly(self, tmp_path):
        entries = [(tmp_path / "a.nii", 21 + 3 / 7), (tmp_path / "b.nii", 22.0),
                   (tmp_path / "c.nii", 22.5)]
        mp = tmp_path / "series.tsv"
        write_manifest(entries, mp)
        assert read_manifest(mp) == entries
        # Whole and half weeks keep their short form.
        assert [ln.split("\t")[1] for ln in mp.read_text().splitlines()[1:]] == ["22", "22.5"]

    def test_manifest_paths_with_hash_round_trip(self, tmp_path):
        entries = [(tmp_path / "scan#1.nii", 21.0), (tmp_path / "scan#2.nii", 22.0)]
        mp = tmp_path / "series.tsv"
        write_manifest(entries, mp)
        mp.write_text("# comment line\n" + mp.read_text())
        assert read_manifest(mp) == entries

    @pytest.mark.parametrize("time", ["abc", "nan", "inf", "-inf"])
    def test_manifest_rejects_bad_time(self, tmp_path, time):
        mp = tmp_path / "series.tsv"
        mp.write_text(f"# header\na.nii\t21\nb.nii\t{time}\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(mp))}:3: time .* finite"):
            read_manifest(mp)

    def test_manifest_line_without_tab_rejected(self, tmp_path):
        mp = tmp_path / "series.tsv"
        mp.write_text("a.nii\t21\nb.nii 22\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(mp))}:2: expected `path<TAB>time`"):
            read_manifest(mp)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_manifest_writer_rejects_non_finite_time(self, tmp_path, time):
        mp = tmp_path / "series.tsv"
        entries = [(tmp_path / "a.nii", 21.0), (tmp_path / "b.nii", time)]
        with pytest.raises(ValueError, match=r"time .* of 'b\.nii': it is not finite"):
            write_manifest(entries, mp)
        assert not mp.exists()

    @pytest.mark.parametrize("name", ["#scan.nii", "a\tb.nii", "a\nb.nii"])
    def test_manifest_rejects_unreadable_path(self, tmp_path, name):
        with pytest.raises(ValueError, match="manifest cannot hold path"):
            write_manifest([(tmp_path / name, 21.0)], tmp_path / "series.tsv")


class TestNormalization:
    def _series(self, arrays, times=None):
        vols = [Volume3D(a.shape, (1, 1, 1), a) for a in arrays]
        if times is None:
            times = list(range(len(arrays)))
        return Volume4D(vols, np.array(times, dtype=float))

    def test_affine_map(self):
        a = np.zeros((2, 2, 2))
        b = np.full((2, 2, 2), 200.0)
        b[0, 0, 0] = 50.0
        a[0, 0, 0] = 0.0
        out = normalize_intensity(self._series([a, b]))
        assert out.intensity_scale == (0.0, 200.0)
        assert out.volumes[1].data[0, 0, 0] == pytest.approx(0.25)

    def test_already_unit_range_unchanged(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, (3, 3, 3))
        a.flat[0], a.flat[1] = 0.0, 1.0
        out = normalize_intensity(self._series([a, a + 0.0]))
        assert out.intensity_scale == (0.0, 1.0)
        assert np.array_equal(out.volumes[0].data, a)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_voxel_rejected(self, bad):
        a = np.zeros((2, 2, 2))
        b = np.ones((2, 2, 2))
        b[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite intensity .* time 5"):
            normalize_intensity(self._series([a, b], times=[4.0, 5.0]))

    def test_constant_series_rejected(self):
        a = np.full((2, 2, 2), 3.0)
        with pytest.raises(ValueError, match="degenerate intensity range"):
            normalize_intensity(self._series([a, a.copy()]))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        arrays = [rng.uniform(-40, 600, (4, 4, 4)) for _ in range(3)]
        series = self._series(arrays)
        out = normalize_intensity(series)
        for orig, norm in zip(arrays, out.volumes):
            back = denormalize_intensity(norm.data, out.intensity_scale)
            assert np.allclose(back, orig, atol=1e-6)

    def test_output_attains_bounds(self):
        rng = np.random.default_rng(2)
        out = normalize_intensity(
            self._series([rng.uniform(5, 9, (4, 4, 4)) for _ in range(4)])
        )
        lo = min(v.data.min() for v in out.volumes)
        hi = max(v.data.max() for v in out.volumes)
        assert lo == 0.0 and hi == 1.0


class TestCoordGrid:
    def test_corner_and_center(self):
        grid = coord_grid((3, 3, 3))
        assert np.array_equal(grid[0], [-1.0, -1.0, -1.0])
        center = grid[1 + 3 * (1 + 3 * 1)]  # flat index of voxel (1,1,1)
        assert np.array_equal(center, [0.0, 0.0, 0.0])

    def test_degenerate_axis_maps_to_zero(self):
        grid = coord_grid((1, 4, 4))
        assert np.all(grid[:, 0] == 0.0)

    def test_grid_length(self):
        assert coord_grid((4, 5, 6)).shape == (120, 3)

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nx, ny, nz = rng.integers(1, 9, 3)
            grid = coord_grid((nx, ny, nz)).reshape((nz, ny, nx, 3))  # z slowest
            flipped = grid[::-1, ::-1, ::-1]
            assert np.array_equal(flipped, -grid)

    def test_order_matches_data_layout(self):
        # second flat entry must step in x, matching Fortran ravel of data
        grid = coord_grid((3, 2, 2))
        assert grid[1][0] == 0.0  # x moved from -1 to 0
        assert grid[1][1] == -1.0 and grid[1][2] == -1.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            coord_grid((0, 2, 2))

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 6)] * 3), n=st.integers(0, 50),
           seed=st.integers(0, 2**16))
    def test_voxel_coords_equal_meshgrid_rows(self, dims, n, seed):
        # Per-axis vectors gathered by flat index give the rows of the full
        # meshgrid, raveled in disk order, bit for bit.
        axes = [(2.0 * np.arange(d) - (d - 1)) / (d - 1) if d > 1 else np.zeros(1)
                for d in dims]
        mesh = np.meshgrid(*axes, indexing="ij")
        reference = np.stack([g.ravel(order="F") for g in mesh], axis=1)
        idx = np.random.default_rng(seed).integers(0, reference.shape[0], n)
        assert np.array_equal(voxel_coords(dims, idx), reference[idx])
        assert np.array_equal(voxel_coords(dims, idx), coord_grid(dims)[idx])
        assert np.array_equal(coord_grid(dims), reference)
        assert voxel_coords(dims, idx).shape == (n, 3)

    def test_voxel_coords_invalid_dims_and_index(self):
        with pytest.raises(ValueError, match="invalid dims"):
            voxel_coords((2, 2), [0])
        with pytest.raises(ValueError):
            voxel_coords((2, 2, 2), [8])


class TestNormalizeTimes:
    def test_endpoints_and_midpoint(self):
        out = normalize_times([21.0, 29.5, 38.0], (21.0, 38.0))
        assert out[0] == -1.0 and out[2] == 1.0 and out[1] == 0.0

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            normalize_times([1.0], (2.0, 2.0))
