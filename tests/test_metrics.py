import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlas4d.metrics import (
    BackgroundSliceError,
    MetricsReport,
    dice,
    efc_slice,
    efc_volume,
    msd_temporal,
    psnr,
    series_mse,
    tc,
    threshold_labels,
)
from atlas4d.volume_io import LabelVolume, Volume3D, Volume4D


def _vol(data):
    data = np.asarray(data, dtype=np.float64)
    return Volume3D(data.shape, (1, 1, 1), data)


def _labels(data):
    data = np.asarray(data, dtype=np.int64)
    return LabelVolume(data.shape, (1, 1, 1), data)


class TestFidelity:
    def test_mse_identity(self):
        v = _vol(np.random.default_rng(0).uniform(0, 1, (3, 3, 3)))
        s = Volume4D([v, v], np.arange(2.0))
        assert series_mse(s, s) == 0.0
        assert math.isinf(psnr(series_mse(s, s), peak=1.0))

    def test_mse_constant_offset(self):
        a = Volume4D([_vol(np.zeros((4, 4, 4)))] * 2, np.arange(2.0))
        b = Volume4D([_vol(np.full((4, 4, 4), 0.1))] * 2, np.arange(2.0))
        assert series_mse(a, b) == pytest.approx(0.01, abs=1e-15)
        assert psnr(series_mse(a, b), peak=1.0) == pytest.approx(20.0, abs=1e-9)

    def test_psnr_formula(self):
        assert psnr(0.01, peak=1.0) == pytest.approx(20.0, abs=1e-9)
        assert psnr(0.01, peak=2.0) == pytest.approx(20.0 + 20.0 * math.log10(2.0),
                                                      abs=1e-9)

    def test_psnr_identical_is_inf(self):
        assert psnr(0.0, peak=1.0) == math.inf

    def test_msd_temporal_hand_case(self):
        # single voxel over times [0,0,1,0,0]: second diffs 1, -2, 1
        vols = [_vol(np.full((1, 1, 1), v)) for v in [0.0, 0.0, 1.0, 0.0, 0.0]]
        series = Volume4D(vols, np.arange(5.0))
        assert msd_temporal(series) == pytest.approx((1 + 4 + 1) / 3, abs=1e-15)

    def test_series_mse(self):
        a = Volume4D([_vol(np.zeros((2, 2, 2)))] * 3, np.arange(3.0))
        b = Volume4D([_vol(np.full((2, 2, 2), 0.5))] * 3, np.arange(3.0))
        assert series_mse(a, b) == pytest.approx(0.25)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_series_mse_matches_stacked_formula(self, order):
        rng = np.random.default_rng(12)
        dims, times = (9, 7, 5), np.array([20.0, 21.5, 23.0, 30.0])

        def series():
            return Volume4D([_vol(np.asarray(rng.normal(size=dims), order=order))
                             for _ in times], times)

        a, b = series(), series()
        stacked = float(np.mean((a.stack() - b.stack()) ** 2))
        assert series_mse(a, b) == pytest.approx(stacked, rel=1e-15)

    def test_series_mse_mismatch_raises(self):
        vol = _vol(np.zeros((2, 3, 4)))
        a = Volume4D([vol] * 3, np.arange(3.0))
        with pytest.raises(ValueError, match="length"):
            series_mse(a, Volume4D([vol] * 2, np.arange(2.0)))
        # same voxel count, other dims
        b = Volume4D([_vol(np.zeros((4, 3, 2)))] * 3, np.arange(3.0))
        with pytest.raises(ValueError, match="dims"):
            series_mse(a, b)


class TestEfc:
    def test_constant_slice_is_one(self):
        for n in (2, 3, 8, 17):
            sl = np.full((n, n), 4.2)
            assert efc_slice(sl) == pytest.approx(1.0, abs=1e-9)

    def test_one_hot_slice_is_zero(self):
        sl = np.zeros((5, 5))
        sl[2, 3] = 7.0
        assert efc_slice(sl) == 0.0

    def test_two_voxel_hand_value(self):
        # x = (3, 4): x_max = 5, entropy = -(0.6 ln 0.6 + 0.8 ln 0.8),
        # normalizer = sqrt(2) * ln(sqrt(2))
        sl = np.array([[3.0, 4.0]])
        entropy = -(0.6 * math.log(0.6) + 0.8 * math.log(0.8))
        norm = math.sqrt(2) * math.log(math.sqrt(2))
        assert efc_slice(sl) == pytest.approx(entropy / norm, abs=1e-12)

    def test_background_slice_signalled(self):
        with pytest.raises(BackgroundSliceError):
            efc_slice(np.zeros((4, 4)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        sl = rng.uniform(0, 10, (9, 9))
        base = efc_slice(sl)
        for s in (0.001, 0.5, 42.0):
            assert efc_slice(s * sl) == pytest.approx(base, rel=1e-12)

    def test_volume_of_constant_slices(self):
        vol = _vol(np.full((4, 4, 6), 2.0))
        assert efc_volume(vol, slice_axis=2) == pytest.approx(1.0, abs=1e-9)

    def test_background_slices_excluded(self):
        rng = np.random.default_rng(1)
        body = rng.uniform(1, 2, (4, 4, 3))
        with_bg = np.concatenate([np.zeros((4, 4, 2)), body], axis=2)
        v1 = _vol(with_bg)
        v2 = _vol(body)
        assert efc_volume(v1) == pytest.approx(efc_volume(v2), rel=1e-12)

    def test_all_background_errors(self):
        with pytest.raises(ValueError, match="all slices background"):
            efc_volume(_vol(np.zeros((3, 3, 3))))

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)),
           order=st.sampled_from("CF"), axis=st.integers(0, 2),
           n_zero=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_volume_is_mean_of_nonbackground_slices(self, dims, order, axis, n_zero, seed):
        # Bit-for-bit against the slice definition, for both memory layouts
        # (read_nifti returns Fortran-ordered data).
        rng = np.random.default_rng(seed)
        data = np.asarray(rng.normal(size=dims), order=order)
        zero = rng.choice(dims[axis], size=min(n_zero, dims[axis] - 1), replace=False)
        data[(slice(None),) * axis + (zero,)] = 0.0
        want = [efc_slice(np.take(data, k, axis=axis))
                for k in range(dims[axis]) if k not in zero]
        assert efc_volume(_vol(data), slice_axis=axis) == float(np.mean(want))


class TestDice:
    def test_identity(self):
        lab = _labels(np.random.default_rng(0).integers(0, 2, (4, 4, 4)))
        assert dice(lab, lab, 1) == 100.0

    def test_disjoint(self):
        a = np.zeros((2, 2, 2), dtype=int)
        b = np.zeros((2, 2, 2), dtype=int)
        a[0, 0, 0] = 1
        b[1, 1, 1] = 1
        assert dice(_labels(a), _labels(b), 1) == 0.0

    def test_half_overlap(self):
        # |A| = |B| = 2 with one shared voxel: 2*1/(2+2) = 50%
        a = np.zeros((3, 1, 1), dtype=int)
        b = np.zeros((3, 1, 1), dtype=int)
        a[0] = a[1] = 1
        b[1] = b[2] = 1
        assert dice(_labels(a), _labels(b), 1) == 50.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dice(_labels(np.zeros((2, 2, 2), dtype=int)),
                 _labels(np.zeros((3, 2, 2), dtype=int)), 1)

    def test_both_empty_is_100(self):
        z = _labels(np.zeros((2, 2, 2), dtype=int))
        assert dice(z, z, 3) == 100.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = _labels(rng.integers(0, 3, (4, 4, 4)))
            b = _labels(rng.integers(0, 3, (4, 4, 4)))
            d_ab = dice(a, b, 1)
            assert d_ab == dice(b, a, 1)
            assert 0.0 <= d_ab <= 100.0

    def test_monotone_in_intersection_at_fixed_sizes(self):
        # |A| = |B| = 4 along a line; growing overlap must raise the score
        scores = []
        for overlap in range(5):
            a = np.zeros((12, 1, 1), dtype=int)
            b = np.zeros((12, 1, 1), dtype=int)
            a[:4] = 1
            b[4 - overlap:8 - overlap] = 1
            scores.append(dice(_labels(a), _labels(b), 1))
        assert scores == sorted(scores)
        assert scores[0] == 0.0 and scores[-1] == 100.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 4),
           class_id=st.integers(0, 5))
    @example(seed=0, n_classes=2, class_id=3)
    def test_equals_sum_formula(self, seed, n_classes, class_id):
        # The counting formula of the first implementation, kept as an oracle;
        # a class in neither map scores 100.
        rng = np.random.default_rng(seed)
        a, b = (rng.integers(0, n_classes, (5, 4, 3)) for _ in range(2))
        in_a, in_b = a == class_id, b == class_id
        na, nb = int(in_a.sum()), int(in_b.sum())
        if na + nb == 0:
            expected = 100.0
        else:
            expected = 100.0 * 2.0 * int(np.logical_and(in_a, in_b).sum()) / (na + nb)
        assert dice(_labels(a), _labels(b), class_id) == expected
        if class_id >= n_classes:
            assert expected == 100.0


def _brute_force_tc(labels, m, class_id):
    """Independent re-implementation: plain loops, maps compared in place."""
    scores = []
    for d in (-2, -1, 1, 2):
        m2 = m + d
        if not 0 <= m2 < len(labels):
            continue
        a = labels[m2].data == class_id
        b = labels[m].data == class_id
        na, nb = a.sum(), b.sum()
        if na + nb == 0:
            scores.append(100.0)
        else:
            scores.append(100.0 * 2.0 * np.logical_and(a, b).sum() / (na + nb))
    return sum(scores) / len(scores)


class TestTc:
    def _series(self, seed=0, n=6, dims=(4, 4, 4)):
        rng = np.random.default_rng(seed)
        return [_labels(rng.integers(0, 2, dims)) for _ in range(n)]

    def test_identical_labels(self):
        lab = _labels(np.random.default_rng(1).integers(0, 2, (4, 4, 4)))
        series = [lab] * 5
        for m in range(5):
            assert tc(series, None, m, 1) == 100.0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 7),
           dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, n, dims, seed):
        series = self._series(seed=seed, n=n, dims=dims)
        for m in range(n):
            assert tc(series, None, m, 1) == pytest.approx(
                _brute_force_tc(series, m, 1), abs=1e-12
            )

    def test_fields_must_be_none(self):
        series = self._series(n=4)
        with pytest.raises(ValueError, match="fields must be None"):
            tc(series, {}, 1, 1)

    def test_no_neighbors(self):
        series = self._series(n=1)
        with pytest.raises(ValueError, match="no valid neighbors"):
            tc(series, None, 0, 1)


class TestThresholdLabels:
    def test_threshold(self):
        vol = _vol(np.array([[[0.2, 0.8]], [[0.75, 1.0]]]))
        lab = threshold_labels(vol, 0.75)
        assert lab.data.dtype == np.uint8
        assert np.array_equal(lab.data, [[[0, 1]], [[0, 1]]])


class TestLabelDtype:
    # 44 is 300 mod 256: a uint8 comparison that wrapped class 300 would match it.
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6),
           dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
           class_id=st.sampled_from([0, 1, 2, 44, 255, 300]),
           seed=st.integers(0, 2**32 - 1))
    def test_uint8_maps_score_as_their_int64_copies(self, n, dims, class_id, seed):
        rng = np.random.default_rng(seed)
        ids = np.array([0, 1, 2, 44, 255], dtype=np.uint8)
        small = [LabelVolume(dims, (1, 1, 1), rng.choice(ids, dims)) for _ in range(n + 1)]
        wide = [_labels(lab.data.astype(np.int64)) for lab in small]
        assert small[0].data.dtype == np.uint8 and wide[0].data.dtype == np.int64
        assert dice(small[0], small[1], class_id) == dice(wide[0], wide[1], class_id)
        if n >= 2:
            for m in range(n):
                assert tc(small[:n], None, m, class_id) == tc(wide[:n], None, m, class_id)


class TestReport:
    def test_tsv_layout(self):
        # The complete text: perfbench and users parse these rows.
        rep = MetricsReport(times=[21.0, 22.5], efc=[0.3, 0.3123456789], tc=[90.0, 91.0],
                            dice=[50.0, 100.0 / 3.0], mse=1e-3, psnr=30.0)
        assert rep.to_tsv() == (
            "metric\t21\t22.5\n"
            "efc\t0.3\t0.312346\n"
            "dice_1\t50\t33.3333\n"
            "tc\t90\t91\n"
            "mse\t0.001\n"
            "psnr\t30\n"
        )

    def test_header_times_are_exact(self):
        # Close times get distinct columns; whole and half weeks stay short.
        rep = MetricsReport(times=[21.4285714, 21.4285719, 22.0, 22.5],
                            efc=[0.3] * 4, tc=[90.0] * 4, dice=[50.0] * 4)
        header = rep.to_tsv().split("\n")[0].split("\t")
        assert header == ["metric", "21.4285714", "21.4285719", "22", "22.5"]

    def test_length_validation(self):
        for row in ("efc", "dice", "tc"):
            rows = {"efc": [0.1, 0.2], "dice": [1.0, 2.0], "tc": [1.0, 2.0]}
            rows[row] = rows[row][:1]
            with pytest.raises(ValueError, match=f"{row} length"):
                MetricsReport(times=[1.0, 2.0], **rows)

    def test_percent_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            MetricsReport(times=[1.0], efc=[0.1], tc=[50.0], dice=[100.5])
