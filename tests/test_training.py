import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlas4d import training
from atlas4d.network import InrModel
from atlas4d.optimizer import DivergenceError, LrSchedule, adam_step
from atlas4d.phantom import PhantomConfig, generate
from atlas4d.training import (
    TrainConfig,
    _Sampler,
    average_predict,
    make_model,
    pretrain,
    reconstruct,
    refine,
    split_timepoints,
)
from atlas4d.volume_io import (
    Volume3D,
    Volume4D,
    coord_grid,
    normalize_intensity,
    normalize_times,
)


def _series(arrays, times):
    vols = [Volume3D(a.shape, (1, 1, 1), a) for a in arrays]
    return Volume4D(vols, np.asarray(times, dtype=float))


def _constant_series(value=0.4, dims=(6, 6, 6), times=(0.0, 1.0, 2.0, 3.0)):
    return _series([np.full(dims, value) for _ in times], times)


class TestSplit:
    def test_crl_weeks(self):
        times = [float(w) for w in range(21, 39)]
        split = split_timepoints(times)
        assert list(split.times_set1) == [21, 23, 25, 27, 29, 31, 33, 35, 37, 38]
        assert list(split.times_set2) == [21, 22, 24, 26, 28, 30, 32, 34, 36, 38]
        assert list(split.midpoints) == [w + 0.5 for w in range(21, 38)]

    def test_fba_weeks(self):
        times = [float(w) for w in range(22, 36)]
        split = split_timepoints(times)
        assert list(split.times_set1) == [22, 24, 26, 28, 30, 32, 34, 35]
        assert list(split.times_set2) == [22, 23, 25, 27, 29, 31, 33, 35]

    def test_four_point_hand_case(self):
        split = split_timepoints([0.0, 1.0, 2.0, 3.0])
        assert list(split.times_set1) == [0.0, 2.0, 3.0]
        assert list(split.times_set2) == [0.0, 1.0, 3.0]
        assert list(split.midpoints) == [0.5, 1.5, 2.5]

    def test_too_few_times(self):
        with pytest.raises(ValueError, match="too few"):
            split_timepoints([1.0, 2.0, 3.0])

    def test_not_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            split_timepoints([1.0, 3.0, 2.0, 4.0])

    def test_endpoints_always_shared(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            times = np.sort(rng.uniform(0, 100, n))
            if np.any(np.diff(times) <= 0):
                continue
            split = split_timepoints(times)
            assert 0 in split.set1 and 0 in split.set2
            assert n - 1 in split.set1 and n - 1 in split.set2
            assert sorted(set(split.set1) | set(split.set2)) == list(range(n))

    def test_midpoints_interior_and_new(self):
        split = split_timepoints([21.0, 22.0, 24.0, 28.0])
        for m in split.midpoints:
            assert 21.0 < m < 28.0
            assert m not in [21.0, 22.0, 24.0, 28.0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=40, unique=True))
    def test_split_invariants(self, values):
        t = np.sort(np.array(values))
        split = split_timepoints(t)
        last = len(t) - 1
        assert split.set1[0] == split.set2[0] == 0
        assert split.set1[-1] == split.set2[-1] == last
        assert set(split.set1) | set(split.set2) == set(range(len(t)))
        assert set(split.set1) & set(split.set2) == {0, last}
        # Interior indices alternate: set1 holds the even ones, set2 the odd ones.
        assert split.set1[1:-1] == list(range(2, last, 2))
        assert split.set2[1:-1] == list(range(1, last, 2))
        # Each midpoint lies strictly inside its own consecutive pair.
        pair = np.searchsorted(t, split.midpoints)
        assert np.all(np.diff(pair) > 0)
        assert np.all((pair >= 1) & (pair <= last))
        assert np.all((t[pair - 1] < split.midpoints) & (split.midpoints < t[pair]))
        assert not np.isin(split.midpoints, t).any()


class TestSampleBatch:
    def _tiny(self):
        rng = np.random.default_rng(0)
        return _series([rng.uniform(0, 1, (3, 3, 3)) for _ in range(4)],
                       [0.0, 1.0, 2.0, 3.0])

    def test_single_voxel_mask_single_time(self):
        series = self._tiny()
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[1, 2, 0] = True
        pts, vals = _Sampler(series, mask).draw([2], 16, np.random.default_rng(1))
        expected_value = series.volumes[2].data[1, 2, 0]
        assert np.all(vals == expected_value)
        # coordinate of voxel (1,2,0) and normalized time of t=2.0
        assert np.all(pts[:, 0] == 0.0)
        assert np.all(pts[:, 1] == 1.0)
        assert np.all(pts[:, 2] == -1.0)
        assert np.all(pts[:, 3] == normalize_times([2.0], (0.0, 3.0))[0])

    def test_times_within_subset(self):
        series = self._tiny()
        pts, _ = _Sampler(series).draw([1, 3], 200, np.random.default_rng(2))
        allowed = set(normalize_times([1.0, 3.0], (0.0, 3.0)).tolist())
        assert set(pts[:, 3].tolist()) <= allowed

    def test_deterministic_given_rng_seed(self):
        series = self._tiny()
        a = _Sampler(series).draw([0, 1, 2], 64, np.random.default_rng(42))
        b = _Sampler(series).draw([0, 1, 2], 64, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_values_match_coordinates(self):
        series = self._tiny()
        pts, vals = _Sampler(series).draw([0, 1, 2, 3], 128, np.random.default_rng(3))
        grid_axis = np.array([-1.0, 0.0, 1.0])
        t_norm = normalize_times(series.times, (0.0, 3.0))
        for p, v in zip(pts[:20], vals[:20]):
            ix = int(np.argmin(np.abs(grid_axis - p[0])))
            iy = int(np.argmin(np.abs(grid_axis - p[1])))
            iz = int(np.argmin(np.abs(grid_axis - p[2])))
            it = int(np.argmin(np.abs(t_norm - p[3])))
            assert v == series.volumes[it].data[ix, iy, iz]

    def test_empty_mask_rejected(self):
        series = self._tiny()
        with pytest.raises(ValueError, match="empty mask"):
            _Sampler(series, np.zeros((3, 3, 3), dtype=bool)).draw(
                [0], 4, np.random.default_rng(0))

    def test_empty_time_subset_rejected(self):
        with pytest.raises(ValueError, match="no time points"):
            _Sampler(self._tiny()).draw([], 4, np.random.default_rng(0))

    def test_draw_coords_times_come_from_given_values(self):
        sampler = _Sampler(self._tiny())
        pts = sampler.draw_coords([-0.25, 0.5], 200, np.random.default_rng(5))
        assert pts.shape == (200, 4)
        assert set(pts[:, 3].tolist()) == {-0.25, 0.5}
        # Both draws take the voxels first, so one seed gives one voxel sequence.
        drawn, _ = sampler.draw([0, 3], 200, np.random.default_rng(5))
        assert np.array_equal(pts[:, :3], drawn[:, :3])

    def test_draw_coords_empty_times_rejected(self):
        with pytest.raises(ValueError, match="no time points"):
            _Sampler(self._tiny()).draw_coords([], 4, np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 5)] * 3), n_times=st.integers(2, 4),
           masked=st.booleans(), fortran=st.booleans(), n=st.integers(1, 64),
           seed=st.integers(0, 2**16))
    def test_draws_equal_grid_and_stack_indexing(self, dims, n_times, masked, fortran, n, seed):
        # The sampler copies neither the grid nor the series: its draws must
        # equal coord_grid and stack() indexed by the voxels and times that
        # the same two RNG calls pick, whatever the volumes' memory order.
        rng = np.random.default_rng(seed)
        order = "F" if fortran else "C"
        series = _series([np.array(rng.uniform(0, 1, dims), order=order)
                          for _ in range(n_times)], np.arange(n_times, dtype=float))
        assert all(v.data.flags[f"{order}_CONTIGUOUS"] for v in series.volumes)
        mask = None
        pool = np.arange(int(np.prod(dims)))
        if masked:
            mask = rng.uniform(size=dims) < 0.5
            mask.flat[rng.integers(mask.size)] = True
            pool = np.flatnonzero(mask.ravel(order="F"))
        sampler = _Sampler(series, mask)
        times = rng.permutation(n_times)[:max(1, n_times - 1)]
        t_norm = rng.uniform(-1, 1, 3)

        replay = np.random.default_rng(seed + 1)
        vox = pool[replay.integers(0, pool.size, n)]
        tix = times[replay.integers(0, times.size, n)]
        pts, vals = sampler.draw(times, n, np.random.default_rng(seed + 1))
        want = np.column_stack([coord_grid(dims)[vox],
                                normalize_times(series.times, series.time_range)[tix]])
        assert np.array_equal(pts, want)
        assert np.array_equal(vals, series.stack()[tix, vox])

        replay = np.random.default_rng(seed + 2)
        vox = pool[replay.integers(0, pool.size, n)]
        t = t_norm[replay.integers(0, t_norm.size, n)]
        coords = sampler.draw_coords(t_norm, n, np.random.default_rng(seed + 2))
        assert np.array_equal(coords, np.column_stack([coord_grid(dims)[vox], t]))


def _tiny_cfg(**kw):
    base = dict(batch_size=256, pretrain_epochs=150, refine_max_epochs=40,
                patience=10,
                pretrain_schedule=LrSchedule(1e-2, 0.5, 100),
                refine_schedule=LrSchedule(3e-3, 0.5, 100),
                seed_model1=1, seed_model2=2, seed_sampling=3)
    base.update(kw)
    return TrainConfig(**base)


def _tiny_model(series, seed):
    return make_model(series, l_space=6, l_time=3, hidden_width=10, n_layers=4,
                      skip_layers=(2,), seed=seed)


def _arithmetic_fingerprint() -> str:
    """sha256 of numpy and BLAS results at the shapes of a width-48 step.

    A digest of trained arrays holds the rounding of the BLAS gemm kernels
    and of numpy's SIMD loops (cos, sin, reductions), which differ between
    BLAS builds and CPUs. This fingerprint tells whether the arithmetic here
    rounds like the machine a training digest was pinned on.
    """
    rng = np.random.default_rng(0)
    x, w, h = rng.normal(size=(512, 104)), rng.normal(size=(48, 152)), rng.normal(size=(512, 48))
    results = [x @ w[:, 48:].T, h.T @ x, h @ w[:, :48], np.einsum("ij,ij->j", h, h),
               h.mean(axis=0), h.sum(axis=0), np.cos(x), np.sin(x)]
    digest = hashlib.sha256()
    for r in results:
        digest.update(r.tobytes())
    return digest.hexdigest()


# recorded with numpy 2.4.6 and OpenBLAS 0.3.31 (DYNAMIC_ARCH) on a 2-core x86-64 VM
_PINNED_FINGERPRINT = "d26ae162713fb52699d62660682acc44eeee0a489e7c9e193df4edd3d7415eba"


class TestPretrain:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.lambda_fidelity == 0.1
        assert cfg.batch_size == 25000
        assert cfg.pretrain_schedule == LrSchedule(1e-4, 0.5, 100)

    def test_fits_constant_series(self):
        # degenerate case: the network must reproduce a constant. The batch
        # loss curve carries batch-norm sampling noise, so the convergence
        # assertion is the final model's MSE over the whole training grid.
        series = _constant_series(0.4)
        cfg = _tiny_cfg(pretrain_epochs=2000,
                        pretrain_schedule=LrSchedule(2e-2, 0.5, 250))
        model = make_model(series, l_space=6, l_time=3, hidden_width=6,
                           n_layers=2, skip_layers=(), seed=5)
        model, losses = pretrain(series, [0, 1, 2, 3], cfg, model)
        assert len(losses) == 2000
        assert all(np.isfinite(losses))
        assert losses[-1] < 1e-4

        model.eval()
        grid = coord_grid(series.dims)
        t_norm = normalize_times(series.times, series.time_range)
        errs = []
        for t in t_norm:
            pts = np.column_stack([grid, np.full(len(grid), t)])
            y, _ = model.forward(model.encoder.encode(pts))
            errs.append(np.mean((y - 0.4) ** 2))
        assert np.mean(errs) < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        series = _series([rng.uniform(0, 1, (4, 4, 4)) for _ in range(4)],
                         [0, 1, 2, 3])
        cfg = _tiny_cfg(pretrain_epochs=30)

        def run():
            model = _tiny_model(series, seed=9)
            model, losses = pretrain(series, [0, 2], cfg, model)
            return model.state_dict(), losses

        s1, l1 = run()
        s2, l2 = run()
        assert l1 == l2
        for k in s1:
            assert np.array_equal(s1[k], s2[k]), k

    def test_non_finite_loss_aborts(self):
        series = _constant_series()
        cfg = _tiny_cfg(pretrain_epochs=5)
        model = _tiny_model(series, seed=0)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(DivergenceError, match="divergence"):
            pretrain(series, [0, 1], cfg, model)

    def test_next_epoch_holds_at_most_one_batch_input_more(self):
        # backward consumes its cache, so all an epoch leaves for the next
        # epoch's forward is the encoded input of its batch: a 2-epoch run
        # peaks at most that much above a 1-epoch run.
        series = _constant_series()
        batch = 4096
        peaks = []
        for epochs in (1, 2):
            model = make_model(series, l_space=40, l_time=12, hidden_width=64,
                               n_layers=8, skip_layers=(3,), seed=1)
            cfg = _tiny_cfg(batch_size=batch, pretrain_epochs=epochs)
            tracemalloc.start()
            try:
                pretrain(series, [0, 1, 2, 3], cfg, model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= batch * model.cfg.input_dim * 8


class TestRefine:
    def _noisy_setup(self, seed=0):
        cfg = PhantomConfig(dims=(12, 12, 12), n_times=6, time_start=0.0,
                            time_end=5.0, outer_radius=(3.4, 0.1),
                            inner_radius=(1.3, 0.05), edge_width=1.0,
                            structural_jitter_sigma=0.5,
                            intensity_noise_sigma=0.01, seed=seed)
        clean, noisy, _ = generate(cfg)
        series = normalize_intensity(noisy)
        return clean, series, split_timepoints(series.times)

    def test_identical_models_zero_initial_cross(self):
        _, series, split = self._noisy_setup()
        cfg = _tiny_cfg(refine_max_epochs=1, pretrain_epochs=1)
        m1 = _tiny_model(series, seed=7)
        m2 = _tiny_model(series, seed=7)  # same seed: bit-identical models
        _, _, hist = refine(m1, m2, series, split, cfg)
        assert hist.l_cross[0] == 0.0

    def test_refine_improves_cross_and_returns_best(self):
        _, series, split = self._noisy_setup()
        cfg = _tiny_cfg(pretrain_epochs=120, refine_max_epochs=60, patience=60)
        m1 = _tiny_model(series, seed=11)
        m2 = _tiny_model(series, seed=12)
        m1, _ = pretrain(series, split.set1, cfg, m1, stream=0)
        m2, _ = pretrain(series, split.set2, cfg, m2, stream=1)
        m1, m2, hist = refine(m1, m2, series, split, cfg)
        assert hist.l_cross[hist.best_epoch] < hist.l_cross[0]
        assert hist.l_total[hist.best_epoch] == min(hist.l_total)
        assert hist.best_epoch <= len(hist.l_total) - 1

    def test_early_stop_bound(self):
        _, series, split = self._noisy_setup()
        cfg = _tiny_cfg(pretrain_epochs=40, refine_max_epochs=200, patience=5)
        m1 = _tiny_model(series, seed=13)
        m2 = _tiny_model(series, seed=14)
        m1, _ = pretrain(series, split.set1, cfg, m1, stream=0)
        m2, _ = pretrain(series, split.set2, cfg, m2, stream=1)
        _, _, hist = refine(m1, m2, series, split, cfg)
        n = len(hist.l_total)
        assert n <= 200
        if n < 200:  # stopped early: patience exhausted after the best epoch
            assert n == hist.best_epoch + cfg.patience + 1

    def test_returned_models_reproduce_best_loss_epoch(self):
        _, series, split = self._noisy_setup(seed=1)
        cfg = _tiny_cfg(pretrain_epochs=60, refine_max_epochs=30, patience=30)
        m1 = _tiny_model(series, seed=21)
        m2 = _tiny_model(series, seed=22)
        m1, _ = pretrain(series, split.set1, cfg, m1, stream=0)
        m2, _ = pretrain(series, split.set2, cfg, m2, stream=1)
        snap_before = (m1.snapshot(), m2.snapshot())
        m1, m2, hist = refine(m1, m2, series, split, cfg)
        if hist.best_epoch == 0:
            for k, v in m1.state_dict().items():
                assert np.array_equal(v, snap_before[0][k])

    @pytest.mark.parametrize("max_epochs, patience", [(6, 10), (200, 1)])
    def test_no_update_after_last_recorded_epoch(self, monkeypatch, max_epochs, patience):
        # An update after the last recorded epoch would be overwritten by the
        # best snapshot, so refine steps each model once per epoch but the
        # last. Each updated epoch runs 4 backward passes; the budget's last
        # epoch runs none, and an epoch that stops on patience has already
        # run both fidelity backwards.
        _, series, split = self._noisy_setup()
        cfg = _tiny_cfg(refine_max_epochs=max_epochs, patience=patience)
        m1, m2 = _tiny_model(series, 1), _tiny_model(series, 2)
        backwards, steps = [], []
        backward = InrModel.backward

        def counting(self, *args, **kwargs):
            backwards.append(1)
            return backward(self, *args, **kwargs)

        def counting_step(*args, **kwargs):
            steps.append(1)
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(InrModel, "backward", counting)
        monkeypatch.setattr(training, "adam_step", counting_step)
        _, _, hist = refine(m1, m2, series, split, cfg)
        n = len(hist.l_total)
        stopped_early = n < max_epochs
        assert stopped_early == (patience < max_epochs)
        assert len(steps) == 2 * (n - 1)
        assert len(backwards) == 4 * (n - 1) + (2 if stopped_early else 0)

    def test_divergence_updates_nothing(self, monkeypatch):
        # The fidelity backwards run before the non-finite check, so the
        # check must still come before any parameter update.
        _, series, split = self._noisy_setup()
        cfg = _tiny_cfg(refine_max_epochs=5)
        m1, m2 = _tiny_model(series, 1), _tiny_model(series, 2)
        m1.weights[0][0, 0] = np.nan
        before = [{k: v.tobytes() for k, v in m.params().items()} for m in (m1, m2)]
        steps = []
        monkeypatch.setattr(training, "adam_step", lambda *a, **kw: steps.append(1))
        with pytest.raises(DivergenceError, match="refine epoch 0"):
            refine(m1, m2, series, split, cfg)
        assert steps == []
        # running statistics move with every train-mode forward; parameters must not
        after = [{k: v.tobytes() for k, v in m.params().items()} for m in (m1, m2)]
        assert after == before

    def test_holds_at_most_one_cache_more_than_pretrain(self):
        # Each fidelity cache is spent before the cross forwards, so a refine
        # epoch holds the two cross caches at once: one train cache more than
        # a pretrain step, plus parameter-sized arrays (the second model's
        # Adam moments, both snapshots, the kept and summed gradients).
        series = _constant_series()
        split = split_timepoints(series.times)
        batch = 4096
        arch = dict(l_space=40, l_time=12, hidden_width=64, n_layers=8, skip_layers=(3,))
        cfg = _tiny_cfg(batch_size=batch, pretrain_epochs=1, refine_max_epochs=2, patience=5)
        m1, m2 = make_model(series, seed=1, **arch), make_model(series, seed=2, **arch)

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pretrain_peak = traced_peak(lambda: pretrain(series, split.set1, cfg, m1))
        refine_peak = traced_peak(lambda: refine(m1, m2, series, split, cfg))
        mc = m1.cfg
        one_cache = batch * mc.hidden_width * (mc.n_layers - 1) * 8 + batch * mc.input_dim * 8
        param_bytes = sum(p.nbytes for p in m1.params().values())
        assert refine_peak - pretrain_peak <= one_cache + 12 * param_bytes

    def test_next_update_epoch_holds_no_spent_cross_batch(self):
        # The last epoch never updates, so refine_max_epochs 3 runs two
        # updating epochs and 2 runs one. Both cross caches are dropped after
        # the updates, so the second updating epoch's cross forwards carry no
        # spent encoded batch: it peaks at most a bool ReLU mask above the
        # first epoch's backward.
        series = _constant_series()
        split = split_timepoints(series.times)
        batch = 4096
        arch = dict(l_space=40, l_time=12, hidden_width=64, n_layers=8, skip_layers=(3,))
        peaks = []
        for epochs in (2, 3):
            cfg = _tiny_cfg(batch_size=batch, refine_max_epochs=epochs, patience=5)
            m1, m2 = make_model(series, seed=1, **arch), make_model(series, seed=2, **arch)
            tracemalloc.start()
            try:
                refine(m1, m2, series, split, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= batch * m1.cfg.hidden_width

    def short_run_digest(self) -> str:
        """sha256 of the losses and final arrays of a short pretrain + refine
        at the acceptance architecture (l_space 40, l_time 12, width 48)."""
        _, series, split = self._noisy_setup()
        cfg = _tiny_cfg(batch_size=512, pretrain_epochs=3, refine_max_epochs=3, patience=3)
        digest = hashlib.sha256()
        models = []
        for stream, half in enumerate((split.set1, split.set2)):
            model = make_model(series, seed=stream + 1, l_space=40, l_time=12, hidden_width=48)
            model, losses = pretrain(series, half, cfg, model, stream=stream)
            digest.update(np.array(losses).tobytes())
            models.append(model)
        m1, m2, hist = refine(*models, series, split, cfg)
        digest.update(np.array([hist.l1, hist.l2, hist.l_cross, hist.l_total]).tobytes())
        for model in (m1, m2):
            state = model.state_dict()
            for name in sorted(state):
                digest.update(name.encode())
                digest.update(state[name].tobytes())
        return digest.hexdigest()

    @pytest.mark.skipif(_arithmetic_fingerprint() != _PINNED_FINGERPRINT,
                        reason="numpy/BLAS here round unlike where the digest was pinned")
    def test_short_run_digest_pinned(self):
        # Buffer reuse in forward and backward must not move a bit of training.
        assert self.short_run_digest() == (
            "2f28d96b60d220f1b3408c4611f54976ea2575829c61e66cab120065fb7ad714")

    def test_empty_midpoints_rejected(self):
        _, series, split = self._noisy_setup()
        split.midpoints = np.array([])
        cfg = _tiny_cfg()
        m1, m2 = _tiny_model(series, 1), _tiny_model(series, 2)
        with pytest.raises(ValueError, match="empty midpoint"):
            refine(m1, m2, series, split, cfg)


class TestAveragePredict:
    def _constant_model(self, series, out_value, seed=0):
        model = _tiny_model(series, seed=seed)
        for w in model.weights:
            w[:] = 0.0
        model.out_bias[:] = out_value
        return model.eval()

    def test_arithmetic_mean(self):
        series = _constant_series()
        m1 = self._constant_model(series, 0.2)
        m2 = self._constant_model(series, 0.4)
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.25, 1.0]])
        out = average_predict(m1, m2, pts)
        assert np.allclose(out, 0.3, atol=1e-15)

    def test_identical_models_return_model_output(self):
        series = _constant_series()
        m1 = self._constant_model(series, 0.37)
        m2 = self._constant_model(series, 0.37)
        pts = np.array([[0.1, 0.2, 0.3, 0.0]])
        out = average_predict(m1, m2, pts)
        y, _ = m1.forward(m1.encoder.encode(pts))
        assert np.array_equal(out, y)

    def test_commutative(self):
        series = _constant_series()
        m1 = self._constant_model(series, 0.1, seed=1)
        m2 = self._constant_model(series, 0.9, seed=2)
        pts = np.random.default_rng(0).uniform(-1, 1, (10, 4))
        assert np.array_equal(average_predict(m1, m2, pts),
                              average_predict(m2, m1, pts))

    def test_train_mode_rejected(self):
        series = _constant_series()
        m1 = self._constant_model(series, 0.1).train()
        m2 = self._constant_model(series, 0.2)
        with pytest.raises(ValueError, match="eval mode"):
            average_predict(m1, m2, np.zeros((1, 4)))

    def test_encoder_mismatch_rejected(self):
        series = _constant_series()
        m1 = self._constant_model(series, 0.1)
        m2 = make_model(series, l_space=5, l_time=3, hidden_width=10,
                        n_layers=4, skip_layers=(2,), seed=3).eval()
        with pytest.raises(ValueError, match="encoder mismatch"):
            average_predict(m1, m2, np.zeros((1, 4)))


class TestReconstruct:
    def _trained_pair(self):
        series = _constant_series(0.6, dims=(5, 5, 5))
        cfg = _tiny_cfg(pretrain_epochs=60)
        m1 = _tiny_model(series, seed=1)
        m2 = _tiny_model(series, seed=2)
        m1, _ = pretrain(series, [0, 2, 3], cfg, m1, stream=0)
        m2, _ = pretrain(series, [0, 1, 3], cfg, m2, stream=1)
        return series, m1, m2

    def test_original_times_shape_contract(self):
        series, m1, m2 = self._trained_pair()
        out = reconstruct(m1, m2, series.dims, series.spacing, series.times)
        assert out.n_times == series.n_times
        assert out.dims == series.dims
        assert np.array_equal(out.times, series.times)

    def test_between_timepoint_reconstruction(self):
        series, m1, m2 = self._trained_pair()
        out = reconstruct(m1, m2, series.dims, series.spacing, [1.5])
        assert out.n_times == 1
        assert np.all(np.isfinite(out.volumes[0].data))

    def test_double_resolution(self):
        series, m1, m2 = self._trained_pair()
        dims2 = tuple(2 * d for d in series.dims)
        out = reconstruct(m1, m2, dims2, series.spacing, [0.0, 3.0])
        assert out.volumes[0].n_voxels == 8 * series.volumes[0].n_voxels

    def test_normalized_output_range(self):
        series, m1, m2 = self._trained_pair()
        out = reconstruct(m1, m2, series.dims, series.spacing, series.times)
        for v in out.volumes:
            assert v.data.min() >= 0.0 and v.data.max() <= 1.0

    def test_denormalization_applied(self):
        series, m1, m2 = self._trained_pair()
        out = reconstruct(m1, m2, series.dims, series.spacing, [0.0],
                          intensity_scale=(10.0, 20.0))
        assert out.volumes[0].data.min() >= 10.0
        assert out.volumes[0].data.max() <= 20.0

    @pytest.mark.parametrize("scale", [None, (10.0, 20.0)])
    def test_equals_average_predict_at_every_voxel(self, scale):
        series, m1, m2 = self._trained_pair()
        dims = (7, 6, 5)  # 210 voxels: chunk 64 leaves a partial last chunk
        times = [0.0, 1.5, 2.0, 3.0]  # 1.5 lies between training points
        out = reconstruct(m1, m2, dims, series.spacing, times,
                          intensity_scale=scale, chunk=64)
        grid = coord_grid(dims)
        for k, t in enumerate(times):
            tn = normalize_times([t], series.time_range)[0]
            pts = np.column_stack([grid, np.full(grid.shape[0], tn)])
            want = np.clip(average_predict(m1, m2, pts), 0.0, 1.0)
            if scale is not None:
                want = want * (scale[1] - scale[0]) + scale[0]
            assert np.array_equal(out.volumes[k].flat(), want), t

    @settings(max_examples=60, deadline=None)
    @given(n_layers=st.integers(2, 5), skip=st.sampled_from(["none", "first", "last"]),
           width=st.sampled_from([3, 6]), chunk=st.sampled_from([1, 7, 1000]),
           times=st.sampled_from([[1.5], [0.0, 1.5, 2.0, 3.0]]),
           seed=st.integers(0, 2**16))
    def test_equals_average_predict_bitwise_random_architectures(
            self, n_layers, skip, width, chunk, times, seed):
        # A skip at n_layers - 1 feeds the raw input into the output layer.
        skips = {"none": (), "first": (1,), "last": (n_layers - 1,)}[skip]
        series = _constant_series(dims=(2, 2, 2))
        rng = np.random.default_rng(seed)
        models = []
        for s in (seed, seed + 1):
            m = make_model(series, l_space=5, l_time=3, hidden_width=width,
                           n_layers=n_layers, skip_layers=skips, seed=s)
            for j in range(n_layers - 1):  # batch norm far from identity
                m.bn_gamma[j][:] = rng.uniform(-2.0, 2.0, width)
                m.bn_beta[j][:] = rng.normal(size=width)
                m.bn_mean[j][:] = rng.normal(size=width)
                m.bn_var[j][:] = 10.0 ** rng.uniform(-3.0, 1.0, width)
            m.weights[-1] *= 0.1  # keep outputs inside the [0, 1] clip
            m.out_bias[:] = 0.5
            models.append(m)
        dims = (4, 3, 2)  # 24 voxels: chunk 7 leaves a partial chunk, 1000 exceeds the grid
        out = reconstruct(*models, dims, series.spacing, times, chunk=chunk)
        grid = coord_grid(dims)
        for k, t in enumerate(times):
            tn = normalize_times([t], series.time_range)[0]
            pts = np.column_stack([grid, np.full(grid.shape[0], tn)])
            want = np.clip(average_predict(*models, pts), 0.0, 1.0)
            assert np.array_equal(out.volumes[k].flat(), want), t

    @pytest.mark.parametrize("chunk", [1, 17, 300])
    def test_equals_average_predict_bitwise_at_acceptance_width(self, chunk):
        # Width 48 with the default 18 layers and skips: products of
        # K = width + 1 into row-strided buffers, chunks of one row, a
        # partial chunk and one chunk past the grid.
        series = _constant_series()
        rng = np.random.default_rng(7)
        models = []
        for seed in (1, 2):
            m = make_model(series, l_space=40, l_time=12, hidden_width=48, seed=seed)
            for j in range(m.cfg.n_layers - 1):
                m.bn_gamma[j][:] = rng.uniform(0.5, 1.5, 48)
                m.bn_beta[j][:] = rng.normal(scale=0.1, size=48)
                m.bn_mean[j][:] = rng.normal(scale=0.1, size=48)
                m.bn_var[j][:] = rng.uniform(0.5, 2.0, 48)
            m.out_bias[:] = 0.5  # inside the [0, 1] clip
            models.append(m)
        dims, times = (7, 6, 5), [0.0, 1.5, 3.0]
        out = reconstruct(*models, dims, series.spacing, times, chunk=chunk)
        grid = coord_grid(dims)
        for k, t in enumerate(times):
            tn = normalize_times([t], series.time_range)[0]
            want = average_predict(*models, np.column_stack([grid, np.full(grid.shape[0], tn)]))
            assert np.all((want > 0.0) & (want < 1.0))
            assert np.array_equal(out.volumes[k].flat(), want), t

    def test_equals_average_predict_bitwise_at_default_chunk(self):
        # Width 48 at the default chunk, with a ragged last chunk: 17 * 16 * 16
        # voxels are one full chunk of 4096 and one of 256.
        series = _constant_series()
        models = [make_model(series, l_space=40, l_time=12, hidden_width=48, seed=seed)
                  for seed in (3, 4)]
        for m in models:
            m.out_bias[:] = 0.5  # inside the [0, 1] clip
        dims, times = (17, 16, 16), [0.0, 1.5, 3.0]
        assert math.prod(dims) % inspect.signature(reconstruct).parameters["chunk"].default
        out = reconstruct(*models, dims, series.spacing, times)
        grid = coord_grid(dims)
        for k, t in enumerate(times):
            tn = normalize_times([t], series.time_range)[0]
            want = average_predict(*models, np.column_stack([grid, np.full(grid.shape[0], tn)]))
            assert np.all((want > 0.0) & (want < 1.0))
            assert np.array_equal(out.volumes[k].flat(), want), t

    def test_holds_one_models_space_terms(self):
        # Beyond its outputs, a reconstruct holds one model's spatial terms,
        # the two shared eval buffers and one chunk's encoding, plus
        # parameter-sized folded weights: the first model's terms are
        # dropped before the second model forms its own, and coordinates are
        # formed one chunk at a time (a whole 40^3 grid would not fit).
        series = _constant_series()
        m1, m2 = (make_model(series, l_space=40, l_time=12, hidden_width=48, seed=s)
                  for s in (1, 2))
        dims, times, chunk = (40, 40, 40), [0.0, 3.0], 8192
        tracemalloc.start()
        try:
            reconstruct(m1, m2, dims, series.spacing, times, chunk=chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cfg, n = m1.cfg, int(np.prod(dims))
        terms = (1 + len(cfg.skip_layers)) * chunk * cfg.hidden_width * 8
        bufs = 2 * chunk * (cfg.hidden_width + 1) * 8
        encoding = chunk * 2 * m1.encoder.l_space * 8
        outputs = len(times) * n * 8
        param_bytes = sum(a.nbytes for a in m1.state.values())
        assert peak <= outputs + terms + bufs + encoding + 4 * param_bytes

    @staticmethod
    def _count_space_terms(monkeypatch):
        space_terms, calls = InrModel.space_terms, []

        def counted(self, *args):
            calls.append(args)
            return space_terms(self, *args)

        monkeypatch.setattr(InrModel, "space_terms", counted)
        return calls

    @pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 1.0]])
    def test_unordered_times_rejected_before_any_work(self, monkeypatch, times):
        series, m1, m2 = self._trained_pair()
        calls = self._count_space_terms(monkeypatch)
        with pytest.raises(ValueError, match="strictly increasing"):
            reconstruct(m1, m2, series.dims, series.spacing, times)
        assert calls == []

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_non_positive_chunk_rejected_before_any_work(self, monkeypatch, chunk):
        series, m1, m2 = self._trained_pair()
        calls = self._count_space_terms(monkeypatch)
        with pytest.raises(ValueError, match="chunk must be a positive integer"):
            reconstruct(m1, m2, series.dims, series.spacing, [0.0], chunk=chunk)
        assert calls == []

    def test_missing_time_range_rejected(self):
        series, m1, m2 = self._trained_pair()
        m1.meta = {}
        with pytest.raises(ValueError, match="time range"):
            reconstruct(m1, m2, series.dims, series.spacing, [0.0])
