import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atlas4d import phantom
from atlas4d.metrics import msd_temporal
from atlas4d.phantom import PhantomConfig, generate


def _small_cfg(**kw):
    base = dict(dims=(20, 20, 20), n_times=5, time_start=21.0, time_end=25.0,
                outer_radius=(6.0, 0.2), inner_radius=(2.8, 0.15),
                edge_width=1.0, seed=0)
    base.update(kw)
    return PhantomConfig(**base)


def test_zero_noise_noisy_equals_clean():
    clean, noisy, _ = generate(_small_cfg())
    for c, n in zip(clean.volumes, noisy.volumes):
        assert np.array_equal(c.data, n.data)


def test_deterministic_per_seed():
    cfg = _small_cfg(structural_jitter_sigma=0.8, intensity_noise_sigma=0.05, seed=4)
    a = generate(cfg)
    b = generate(cfg)
    for va, vb in zip(a[1].volumes, b[1].volumes):
        assert np.array_equal(va.data, vb.data)
    for la, lb in zip(a[2], b[2]):
        assert np.array_equal(la.data, lb.data)


def test_clean_independent_of_noise_seed():
    a_clean, _, a_labels = generate(_small_cfg(structural_jitter_sigma=0.8,
                                               intensity_noise_sigma=0.05, seed=1))
    b_clean, _, b_labels = generate(_small_cfg(structural_jitter_sigma=0.8,
                                               intensity_noise_sigma=0.05, seed=2))
    for va, vb in zip(a_clean.volumes, b_clean.volumes):
        assert np.array_equal(va.data, vb.data)
    for la, lb in zip(a_labels, b_labels):
        assert np.array_equal(la.data, lb.data)


def test_inner_volume_monotone_when_radius_grows():
    clean, _, labels = generate(_small_cfg())
    counts = [int((lab.data == 1).sum()) for lab in labels]
    assert counts[0] > 0
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


def test_labels_carry_inner_intensity_in_clean_volume():
    clean, _, labels = generate(_small_cfg())
    inner_level = _small_cfg().levels[2]
    for vol, lab in zip(clean.volumes, labels):
        marked = lab.data == 1
        assert marked.any()
        assert np.all(vol.data[marked] == inner_level)


def test_structural_jitter_raises_temporal_roughness():
    # averaged over 5 seeds, jittered series must be temporally rougher
    ratios = []
    for seed in range(5):
        cfg = _small_cfg(structural_jitter_sigma=0.8, seed=seed)
        clean, noisy, _ = generate(cfg)
        ratios.append(msd_temporal(noisy) / max(msd_temporal(clean), 1e-30))
    assert np.mean(ratios) > 1.0


def test_generate_matches_per_time_formula():
    # The phantom as one closed-form expression per time point; generate
    # shares grid terms across time points and must still agree bit for bit.
    cfg = _small_cfg(dims=(24, 24, 24), n_times=3, time_end=23.0,
                     structural_jitter_sigma=0.8, intensity_noise_sigma=0.05, seed=5)

    def smoothstep(u):
        s = np.clip(u, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)

    def compose(t, inner_r):
        cx, cy, cz = ((n - 1) / 2.0 for n in cfg.dims)
        x = np.arange(cfg.dims[0])[:, None, None] - cx
        y = np.arange(cfg.dims[1])[None, :, None] - cy
        z = np.arange(cfg.dims[2])[None, None, :] - cz
        r_out = cfg.outer_at(t)
        ax, ay, az = (a * r_out for a in (1.0, 0.92, 0.86))
        rho = np.sqrt((x / ax) ** 2 + (y / ay) ** 2 + (z / az) ** 2)
        s_out = smoothstep((1.0 - rho) * r_out / cfg.edge_width + 0.5)
        d_in = np.sqrt(x ** 2 + y ** 2 + z ** 2)
        s_in = smoothstep((inner_r - d_in) / cfg.edge_width + 0.5)
        bg, tissue, inner = cfg.levels
        return bg + (tissue - bg) * s_out + (inner - tissue) * s_in, s_in

    clean, noisy, labels = generate(cfg)
    jitter = np.random.default_rng([cfg.seed, 0]).normal(
        0.0, cfg.structural_jitter_sigma, cfg.n_times)
    for k, t in enumerate(cfg.times()):
        want_clean, s_in = compose(t, cfg.inner_at(t))
        r_max = cfg.outer_at(t) * 0.86 - cfg.edge_width - 1.0
        want_noisy, _ = compose(t, float(np.clip(cfg.inner_at(t) + jitter[k], 0.8, r_max)))
        want_noisy = want_noisy + np.random.default_rng([cfg.seed, 1, k]).normal(
            0.0, cfg.intensity_noise_sigma, cfg.dims)
        assert np.array_equal(clean.volumes[k].data, want_clean)
        assert np.array_equal(labels[k].data, s_in >= 1.0)
        assert np.array_equal(noisy.volumes[k].data, want_noisy)


def _closed_form(cfg):
    """(clean, noisy, labels) arrays from one full-grid expression per time."""
    cx, cy, cz = ((n - 1) / 2.0 for n in cfg.dims)
    x = np.arange(cfg.dims[0])[:, None, None] - cx
    y = np.arange(cfg.dims[1])[None, :, None] - cy
    z = np.arange(cfg.dims[2])[None, None, :] - cz
    bg, tissue, inner = cfg.levels

    def smoothstep(u):
        s = np.clip(u, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)

    def compose(t, inner_r):
        r_out = cfg.outer_at(t)
        ax, ay, az = (a * r_out for a in (1.0, 0.92, 0.86))
        rho = np.sqrt((x / ax) ** 2 + (y / ay) ** 2 + (z / az) ** 2)
        s_out = smoothstep((1.0 - rho) * r_out / cfg.edge_width + 0.5)
        d_in = np.sqrt(x ** 2 + y ** 2 + z ** 2)
        s_in = smoothstep((inner_r - d_in) / cfg.edge_width + 0.5)
        return bg + (tissue - bg) * s_out + (inner - tissue) * s_in, s_in

    jitter = np.random.default_rng([cfg.seed, 0]).normal(
        0.0, cfg.structural_jitter_sigma, cfg.n_times)
    clean, noisy, labels = [], [], []
    for k, t in enumerate(cfg.times()):
        vol, s_in = compose(t, cfg.inner_at(t))
        clean.append(vol)
        labels.append(s_in >= 1.0)
        r_max = cfg.outer_at(t) * 0.86 - cfg.edge_width - 1.0
        vol, _ = compose(t, float(np.clip(cfg.inner_at(t) + jitter[k], 0.8, r_max)))
        if cfg.intensity_noise_sigma > 0:
            vol = vol + np.random.default_rng([cfg.seed, 1, k]).normal(
                0.0, cfg.intensity_noise_sigma, cfg.dims)
        noisy.append(vol)
    return clean, noisy, labels


@st.composite
def _phantom_configs(draw):
    dims = tuple(draw(st.integers(24, 64)) for _ in range(3))
    edge = draw(st.floats(0.5, 3.0))
    outer_r0 = draw(st.floats(4.0, min(dims) / 2.0 - edge - 1.0))
    inner_r0 = draw(st.floats(0.5, max(1.0, 0.86 * outer_r0 - edge - 0.5)))
    cfg = PhantomConfig(
        dims=dims, n_times=draw(st.integers(2, 3)),
        time_start=21.0, time_end=21.0 + draw(st.floats(1.0, 6.0)),
        outer_radius=(outer_r0, draw(st.floats(-0.4, 0.5))),
        inner_radius=(inner_r0, draw(st.floats(-0.2, 0.3))),
        levels=tuple(draw(st.floats(-2.0, 2.0)) for _ in range(3)),
        edge_width=edge,
        structural_jitter_sigma=draw(st.sampled_from([0.0, 0.8])),
        intensity_noise_sigma=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 2 ** 16)))
    try:
        phantom._check_geometry(cfg)
    except ValueError:
        assume(False)
    return cfg


@settings(max_examples=25, deadline=None)
@given(_phantom_configs())
@example(PhantomConfig(dims=(24, 31, 40), n_times=3, time_end=24.0,
                       outer_radius=(7.0, 0.2), inner_radius=(3.0, 0.1),
                       levels=(-0.0, 0.5, 1.0), edge_width=0.5))  # background is +0.0
def test_generate_matches_closed_form_property(cfg):
    # Bit for bit, sign of zero included: the box generate computes in must
    # not change a single voxel, whatever the grid, levels or edge width.
    clean, noisy, labels = generate(cfg)
    want_clean, want_noisy, want_labels = _closed_form(cfg)
    for got, want in zip(clean.volumes + noisy.volumes, want_clean + want_noisy):
        assert np.array_equal(got.data, want)
        assert np.array_equal(np.signbit(got.data), np.signbit(want))
    for got, want in zip(labels, want_labels):
        assert np.array_equal(got.data, want)


def test_geometry_is_computed_only_near_the_shell(monkeypatch):
    # At atlas size the shell fills ~2% of the grid; generate must not
    # evaluate the shell over the background. At 32³ its box would hold
    # most of the grid, and generate uses the whole grid instead.
    shapes = []
    outer_shell = phantom._outer_shell

    def recording(cfg, x, y, z, t):
        s_out = outer_shell(cfg, x, y, z, t)
        shapes.append(s_out.shape)
        return s_out

    monkeypatch.setattr(phantom, "_outer_shell", recording)
    generate(PhantomConfig(dims=(112, 112, 112), n_times=2))
    assert len(shapes) == 2
    assert all(math.prod(s) <= 0.05 * 112 ** 3 for s in shapes)
    shapes.clear()
    generate(PhantomConfig(n_times=2))
    assert shapes == [(32, 32, 32)] * 2


def test_radius_escaping_grid_rejected():
    with pytest.raises(ValueError, match="escapes the grid"):
        generate(_small_cfg(outer_radius=(12.0, 0.5)))


def test_inner_escaping_shell_rejected():
    with pytest.raises(ValueError, match="escapes the outer shell"):
        generate(_small_cfg(inner_radius=(5.5, 0.3)))


@pytest.mark.parametrize("kw, t", [
    # [0.8, 0.15] at every time: each noisy radius would be pinned to 0.15.
    (dict(dims=(12, 12, 12), outer_radius=(2.5, 0.0), inner_radius=(0.2, 0.0),
          structural_jitter_sigma=0.8), 21),
    # A shrinking shell: the range is empty from the last time only.
    (dict(outer_radius=(5.0, -0.5), inner_radius=(1.0, 0.0)), 25),
])
def test_empty_jitter_range_rejected(kw, t):
    with pytest.raises(ValueError, match=f"inner radius has no room at t={t}:"):
        generate(_small_cfg(**kw))


def test_config_validation():
    with pytest.raises(ValueError):
        PhantomConfig(n_times=1)
    with pytest.raises(ValueError):
        PhantomConfig(time_end=20.0, time_start=21.0)
    with pytest.raises(ValueError):
        PhantomConfig(structural_jitter_sigma=-1.0)
    for dims in ((32, 32), (), (0, 32, 32), (32, 32, 32, 1), (32.0, 32, 32)):
        with pytest.raises(ValueError, match=r"dims must be three positive integers, got \("):
            PhantomConfig(dims=dims)


def test_default_config_generates():
    clean, noisy, labels = generate(PhantomConfig(structural_jitter_sigma=1.5,
                                                  intensity_noise_sigma=0.02))
    assert clean.dims == (32, 32, 32)
    assert clean.n_times == 10
    assert len(labels) == 10
    assert not np.array_equal(clean.volumes[0].data, noisy.volumes[0].data)
    # intensity range stays near the configured levels
    assert clean.volumes[0].data.min() >= 0.0
    assert clean.volumes[0].data.max() <= 1.0
