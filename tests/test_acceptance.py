"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run with `pytest -s`
to see them live). The end-to-end denoising experiment (criteria 5 and 6)
trains the full two-network pipeline on three phantom seeds and is the slow
part of the suite; everything else is seconds.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from atlas4d.cli import main as cli_main
from atlas4d.encoding import FourierEncoder
from atlas4d.metrics import dice, efc_slice, msd_temporal, series_mse, tc, threshold_labels
from atlas4d.network import MlpConfig, init_mlp, load_checkpoint, save_checkpoint
from atlas4d.optimizer import LrSchedule
from atlas4d.phantom import PhantomConfig, generate
from atlas4d.training import (
    TrainConfig,
    make_model,
    pretrain,
    reconstruct,
    refine,
    split_timepoints,
)
from atlas4d.volume_io import (
    LabelVolume,
    Volume3D,
    normalize_intensity,
    read_manifest,
    read_nifti,
    write_nifti,
)

from test_metrics import _brute_force_tc
from test_network import gradcheck_max_rel_err


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_instances = 20
    for _ in range(n_instances):
        n_layers = int(rng.integers(3, 7))          # <= 6 layers
        width = int(rng.integers(4, 17))            # <= 16 wide
        input_dim = int(rng.integers(4, 11))
        skips = (int(rng.integers(1, n_layers)),) if rng.random() < 0.5 else ()
        cfg = MlpConfig(input_dim=input_dim, hidden_width=width,
                        n_layers=n_layers, skip_layers=skips)
        model = init_mlp(cfg, seed=int(rng.integers(0, 10000)))
        x = rng.normal(size=(4, input_dim))
        target = rng.normal(size=4)
        worst = max(worst, gradcheck_max_rel_err(model, x, target, h=1e-5))
    elapsed = time.monotonic() - t0
    _report(1, worst < 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.3e} over {n_instances} instances "
            f"(limit 1e-4), runtime {elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 2. Encoder identities


def test_criterion_2_encoder_identities():
    enc = FourierEncoder(l_space=24, l_time=6, seed=31)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(1000, 4))
    f = enc.encode(pts)
    ls, lt = enc.l_space, enc.l_time
    pyth_s = np.max(np.abs(f[:, :ls] ** 2 + f[:, ls:2 * ls] ** 2 - 1.0))
    pyth_t = np.max(np.abs(f[:, 2 * ls:2 * ls + lt] ** 2
                           + f[:, 2 * ls + lt:] ** 2 - 1.0))

    f0 = enc.encode(np.zeros(4))
    origin_ok = (np.all(f0[:ls] == 1.0) and np.all(f0[ls:2 * ls] == 0.0)
                 and np.all(f0[2 * ls:2 * ls + lt] == 1.0)
                 and np.all(f0[2 * ls + lt:] == 0.0))

    enc2 = FourierEncoder(l_space=24, l_time=6, seed=31)
    seed_ok = (np.array_equal(enc.b_space, enc2.b_space)
               and np.array_equal(enc.b_time, enc2.b_time)
               and np.array_equal(enc.encode(pts), enc2.encode(pts)))

    ok = pyth_s <= 1e-12 and pyth_t <= 1e-12 and origin_ok and seed_ok
    _report(2, ok, f"pythagorean err {max(pyth_s, pyth_t):.2e} (limit 1e-12), "
                   f"origin exact {origin_ok}, same-seed bit-exact {seed_ok}")


# ---------------------------------------------------------------------------
# 3. Metric oracles


def test_criterion_3_metric_oracles():
    efc_const = efc_slice(np.full((6, 7), 3.3))
    one_hot = np.zeros((5, 5))
    one_hot[1, 2] = 9.0
    efc_onehot = efc_slice(one_hot)

    def lab(arr):
        arr = np.asarray(arr, dtype=np.int64)
        return LabelVolume(arr.shape, (1, 1, 1), arr)

    a = np.zeros((3, 1, 1), dtype=int); a[0] = a[1] = 1
    b = np.zeros((3, 1, 1), dtype=int); b[1] = b[2] = 1
    d_cases = (
        dice(lab(a), lab(a), 1),
        dice(lab(a * 0 + np.eye(3, 1, dtype=int).reshape(3, 1, 1)),
             lab(np.flip(np.eye(3, 1, dtype=int)).reshape(3, 1, 1)), 1),
        dice(lab(a), lab(b), 1),
    )

    fixed = lab(np.random.default_rng(3).integers(0, 2, (4, 4, 4)))
    tc_identical = [tc([fixed] * 6, None, m, 1) for m in range(6)]

    max_dev = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        series = [lab(rng.integers(0, 2, (4, 4, 4))) for _ in range(5)]
        for m in range(5):
            max_dev = max(max_dev, abs(tc(series, None, m, 1)
                                       - _brute_force_tc(series, m, 1)))

    ok = (abs(efc_const - 1.0) <= 1e-9 and efc_onehot == 0.0
          and d_cases == (100.0, 0.0, 50.0)
          and all(v == 100.0 for v in tc_identical)
          and max_dev <= 1e-12)
    _report(3, ok, f"efc const {efc_const:.12f}, one-hot {efc_onehot}, "
                   f"dice {d_cases}, tc identical all-100 "
                   f"{all(v == 100.0 for v in tc_identical)}, "
                   f"tc vs brute force max dev {max_dev:.2e}")


# ---------------------------------------------------------------------------
# 4. Time-split fidelity


def test_criterion_4_time_split_fidelity():
    crl = split_timepoints([float(w) for w in range(21, 39)])
    fba = split_timepoints([float(w) for w in range(22, 36)])
    crl_ok = (list(crl.times_set1) == [21, 23, 25, 27, 29, 31, 33, 35, 37, 38]
              and list(crl.times_set2) == [21, 22, 24, 26, 28, 30, 32, 34, 36, 38])
    fba_ok = (list(fba.times_set1) == [22, 24, 26, 28, 30, 32, 34, 35]
              and list(fba.times_set2) == [22, 23, 25, 27, 29, 31, 33, 35])
    _report(4, crl_ok and fba_ok, f"CRL sets exact {crl_ok}, FBA sets exact {fba_ok}")


# ---------------------------------------------------------------------------
# 5 + 6. End-to-end denoising on the phantom, three seeds


SEEDS = (101, 202, 303)
LABEL_THRESHOLD = 0.75  # midpoint of the phantom's tissue/inner levels


def _run_denoising_seed(seed: int):
    pcfg = PhantomConfig(structural_jitter_sigma=1.5, intensity_noise_sigma=0.02,
                         seed=seed)
    clean, noisy, _ = generate(pcfg)
    series = normalize_intensity(noisy)
    split = split_timepoints(series.times)
    tcfg = TrainConfig(
        batch_size=3072, pretrain_epochs=500, refine_max_epochs=300, patience=60,
        pretrain_schedule=LrSchedule(2.5e-3, 0.5, 125),
        refine_schedule=LrSchedule(1e-3, 0.5, 150),
        seed_model1=seed * 7 + 1, seed_model2=seed * 7 + 2,
        seed_sampling=seed * 7 + 3,
    )
    arch = dict(l_space=40, l_time=12, hidden_width=48, n_layers=18,
                skip_layers=(6, 12))
    m1 = make_model(series, seed=tcfg.seed_model1, **arch)
    m2 = make_model(series, seed=tcfg.seed_model2, **arch)
    m1, _ = pretrain(series, split.set1, tcfg, m1, stream=0)
    m2, _ = pretrain(series, split.set2, tcfg, m2, stream=1)
    m1, m2, hist = refine(m1, m2, series, split, tcfg)
    recon = reconstruct(m1, m2, series.dims, series.spacing, series.times,
                        series.intensity_scale)

    n_t = noisy.n_times
    tc_of = lambda s: [tc([threshold_labels(v, LABEL_THRESHOLD) for v in s.volumes],
                          None, m, 1) for m in range(n_t)]
    return {
        "mse_noisy": series_mse(noisy, clean),
        "mse_recon": series_mse(recon, clean),
        "msd_noisy": msd_temporal(noisy),
        "msd_recon": msd_temporal(recon),
        "tc_noisy": tc_of(noisy),
        "tc_recon": tc_of(recon),
        "history": hist,
    }


@pytest.fixture(scope="module")
def denoising_runs():
    t0 = time.monotonic()
    runs = [_run_denoising_seed(s) for s in SEEDS]
    return runs, time.monotonic() - t0


@pytest.mark.slow
def test_criterion_5_end_to_end_denoising(denoising_runs):
    runs, elapsed = denoising_runs
    mse_ratio = float(np.mean([r["mse_recon"] / r["mse_noisy"] for r in runs]))
    msd_ratio = float(np.mean([r["msd_recon"] / r["msd_noisy"] for r in runs]))
    tc_noisy = np.mean([r["tc_noisy"] for r in runs], axis=0)
    tc_recon = np.mean([r["tc_recon"] for r in runs], axis=0)
    tc_wins = int(np.sum(tc_recon > tc_noisy))

    ok = (mse_ratio <= 0.9 and msd_ratio <= 0.8 and tc_wins >= 7
          and elapsed < 1800.0)
    _report(5, ok,
            f"over {len(SEEDS)} seeds: mse ratio {mse_ratio:.3f} (limit 0.9), "
            f"temporal second-difference ratio {msd_ratio:.3f} (limit 0.8), "
            f"tc wins {tc_wins}/10 (need >=7), runtime {elapsed:.0f}s (limit 1800s)")


@pytest.mark.slow
def test_criterion_6_refine_sanity(denoising_runs):
    runs, _ = denoising_runs
    drops, best_ok = [], []
    for r in runs:
        hist = r["history"]
        drops.append(hist.l_cross[hist.best_epoch] < hist.l_cross[0])
        best_ok.append(hist.l_total[hist.best_epoch] == min(hist.l_total))
    _report(6, all(drops) and all(best_ok),
            f"l_cross(best) < l_cross(0) per seed {drops}, "
            f"best epoch is argmin of recorded l_total per seed {best_ok}")


# ---------------------------------------------------------------------------
# 7 + 9. CLI pipeline: reproducibility and continuity


CLI_CFG = """
run_dir = run
phantom.dims = 16,16,16
phantom.n_times = 6
phantom.time_start = 21
phantom.time_end = 26
phantom.outer_r0 = 4.2
phantom.outer_slope = 0.15
phantom.inner_r0 = 1.6
phantom.inner_slope = 0.08
phantom.edge_width = 1.0
phantom.jitter_sigma = 0.4
phantom.noise_sigma = 0.01
phantom.seed = 7
encoder.l_space = 12
encoder.l_time = 4
mlp.hidden_width = 24
mlp.n_layers = 8
mlp.skip_layers = 3,6
train.batch_size = 1024
train.pretrain_epochs = 300
train.refine_max_epochs = 80
train.patience = 40
train.pretrain_lr = 5e-3
train.refine_lr = 2e-3
train.lr_decay_every = 120
train.seed_model1 = 41
train.seed_model2 = 42
train.seed_sampling = 43
"""


def _cli_pipeline(base_dir):
    cfg = base_dir / "run.cfg"
    cfg.write_text(CLI_CFG)
    for cmd in ("phantom", "pretrain", "refine", "infer"):
        rc = cli_main([cmd, "--config", str(cfg)])
        assert rc == 0, f"{cmd} failed"
    return cfg, base_dir / "run"


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    paths = []
    for name in ("first", "second"):
        base = tmp_path_factory.mktemp(name)
        paths.append(_cli_pipeline(base))
    return paths


def test_criterion_7_bit_identical_reruns(cli_runs):
    (cfg_a, run_a), (cfg_b, run_b) = cli_runs

    def digest(run_dir):
        out = {}
        for p in sorted(run_dir.rglob("*")):
            if p.is_file():
                out[str(p.relative_to(run_dir))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        return out

    da, db = digest(run_a), digest(run_b)
    same = da == db
    n_ckpts = sum(1 for k in da if k.endswith(".ckpt"))
    n_vols = sum(1 for k in da if k.endswith(".nii"))
    _report(7, same and n_ckpts == 4 and n_vols >= 6,
            f"{len(da)} files compared ({n_ckpts} checkpoints, {n_vols} volumes), "
            f"all bit-identical: {same}")


def test_criterion_9_continuity(cli_runs):
    (cfg, run_dir), _ = cli_runs
    rc = cli_main(["infer", "--config", str(cfg), "--times", "21.5",
                   "--scale", "2.0"])
    assert rc == 0

    entries = read_manifest(run_dir / "recon" / "recon.tsv")
    assert [t for _, t in entries] == [21.5]
    vol = read_nifti(entries[0][0])
    dims_ok = vol.dims == (32, 32, 32)
    finite_ok = bool(np.all(np.isfinite(vol.data)))

    # intensity range must renormalize into the [0, 1] training range
    noisy = [read_nifti(p) for p, _ in read_manifest(run_dir / "phantom" / "noisy.tsv")]
    gmin = min(v.data.min() for v in noisy)
    gmax = max(v.data.max() for v in noisy)
    norm = (vol.data - gmin) / (gmax - gmin)
    range_ok = norm.min() >= -1e-6 and norm.max() <= 1.0 + 1e-6
    _report(9, dims_ok and finite_ok and range_ok,
            f"t=21.5 at 2x resolution: dims {vol.dims}, finite {finite_ok}, "
            f"normalized range [{norm.min():.4f}, {norm.max():.4f}] within [0, 1]")


# ---------------------------------------------------------------------------
# 8. I/O round trips


def test_criterion_8_io_round_trips(tmp_path):
    rng = np.random.default_rng(77)
    vol = Volume3D((9, 8, 7), (1.0, 1.25, 2.0), rng.uniform(-5, 5, (9, 8, 7)))
    p = tmp_path / "v.nii"
    write_nifti(vol, p)
    back = read_nifti(p)
    nifti_ok = np.array_equal(back.data,
                              vol.data.astype(np.float32).astype(np.float64))

    enc = FourierEncoder(10, 4, seed=3)
    cfg = MlpConfig(input_dim=enc.out_dim, hidden_width=12, n_layers=5,
                    skip_layers=(2,))
    model = init_mlp(cfg, seed=4, encoder=enc)
    model.forward(rng.normal(size=(32, enc.out_dim)))  # move running stats
    model.eval()
    ck = tmp_path / "m.ckpt"
    save_checkpoint(model, ck)
    revived = load_checkpoint(ck)
    x = rng.normal(size=(100, enc.out_dim))
    y1, _ = model.forward(x)
    y2, _ = revived.forward(x)
    ckpt_ok = np.array_equal(y1, y2)

    _report(8, nifti_ok and ckpt_ok,
            f"NIfTI float32 payload bit-exact {nifti_ok}, "
            f"checkpoint forward outputs bit-identical on 100 inputs {ckpt_ok}")
