import numpy as np
import pytest

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


def test_radius_escaping_grid_rejected():
    with pytest.raises(ValueError, match="escapes the grid"):
        generate(_small_cfg(outer_radius=(12.0, 0.5)))


def test_inner_escaping_shell_rejected():
    with pytest.raises(ValueError, match="escapes the outer shell"):
        generate(_small_cfg(inner_radius=(5.5, 0.3)))


def test_config_validation():
    with pytest.raises(ValueError):
        PhantomConfig(n_times=1)
    with pytest.raises(ValueError):
        PhantomConfig(time_end=20.0, time_start=21.0)
    with pytest.raises(ValueError):
        PhantomConfig(structural_jitter_sigma=-1.0)


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
