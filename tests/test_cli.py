import hashlib

import numpy as np
import pytest

from atlas4d.cli import load_config, main
from atlas4d.encoding import FourierEncoder
from atlas4d.network import MlpConfig, init_mlp, save_checkpoint
from atlas4d.volume_io import read_manifest, read_nifti

# Small-but-real pipeline settings: 16^3 grid, 6 weeks, narrow network.
TINY = """
run_dir = {run_dir}
threads = 0

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

encoder.l_space = 8
encoder.l_time = 4
mlp.hidden_width = 16
mlp.n_layers = 6
mlp.skip_layers = 3

train.batch_size = 512
train.pretrain_epochs = 60
train.refine_max_epochs = 30
train.patience = 15
train.pretrain_lr = 5e-3
train.refine_lr = 2e-3
train.seed_model1 = 41
train.seed_model2 = 42
train.seed_sampling = 43

eval.label_threshold = 0.75
"""


def _write_config(tmp_path, name="run.cfg", run_dir="run"):
    cfg = tmp_path / name
    cfg.write_text(TINY.format(run_dir=run_dir))
    return cfg


def _run(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("run_dir = out\nnot.a.key = 1\n")
        rc = _run("phantom", "--config", str(cfg))
        assert rc == 1

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("run_dir = out\ntrain.batch_size = many\n")
        assert _run("phantom", "--config", str(cfg)) == 1

    def test_missing_config_file(self, tmp_path):
        assert _run("phantom", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_comments_and_overrides(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\nrun_dir = out  # trailing\nthreads = 2\n")
        parsed = load_config(cfg, overrides=["threads=4"])
        assert parsed["threads"] == 4
        assert parsed.run_dir == tmp_path / "out"

    def test_defaults_fill_missing_keys(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\n")
        parsed = load_config(cfg)
        assert parsed["train.batch_size"] == 25000
        assert parsed["train.lambda"] == 0.1
        assert parsed["encoder.l_space"] == 128
        assert parsed["mlp.n_layers"] == 18
        assert parsed["mlp.skip_layers"] == (6, 12)


class TestStageOrder:
    def test_refine_before_pretrain(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert _run("phantom", "--config", str(cfg)) == 0
        rc = _run("refine", "--config", str(cfg))
        assert rc == 1
        assert "checkpoint not found" in capsys.readouterr().err

    def test_pretrain_without_data(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        rc = _run("pretrain", "--config", str(cfg))
        assert rc == 1
        assert "manifest not found" in capsys.readouterr().err

    def test_infer_without_dims_meta(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        for i in (1, 2):
            enc = FourierEncoder(8, 4, seed=i)
            model = init_mlp(MlpConfig(input_dim=enc.out_dim, hidden_width=16, n_layers=6,
                                       skip_layers=(3,)), seed=i, encoder=enc)
            model.meta = {"time_range": [21.0, 26.0], "times": [21.0, 26.0]}
            save_checkpoint(model, run / f"model{i}_refined.ckpt")
        assert _run("infer", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "no 'dims' meta" in err and "model1_refined.ckpt" in err

    def test_eval_before_infer(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert _run("phantom", "--config", str(cfg)) == 0
        assert _run("eval", "--config", str(cfg)) == 1


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = _write_config(tmp_path)
    for cmd in ("phantom", "pretrain", "refine", "infer", "eval"):
        assert _run(cmd, "--config", str(cfg)) == 0, cmd
    return tmp_path, cfg


class TestPipeline:
    def test_artifacts_exist(self, finished_run):
        tmp_path, _ = finished_run
        run = tmp_path / "run"
        for name in [
            "phantom/noisy.tsv", "phantom/clean.tsv", "phantom/labels.tsv",
            "model1_pretrained.ckpt", "model2_pretrained.ckpt",
            "pretrain_model1.tsv", "model1_refined.ckpt", "model2_refined.ckpt",
            "refine_history.tsv", "recon/recon.tsv", "metrics.tsv",
        ]:
            assert (run / name).is_file(), name
        for cmd in ("phantom", "pretrain", "refine", "infer", "eval"):
            assert (run / f"artifacts_{cmd}.txt").is_file()

    def test_recon_matches_training_grid(self, finished_run):
        tmp_path, _ = finished_run
        entries = read_manifest(tmp_path / "run" / "recon" / "recon.tsv")
        assert len(entries) == 6
        vol = read_nifti(entries[0][0])
        assert vol.dims == (16, 16, 16)

    def test_refine_history_columns(self, finished_run):
        tmp_path, _ = finished_run
        lines = (tmp_path / "run" / "refine_history.tsv").read_text().splitlines()
        assert lines[0] == "epoch\tl1\tl2\tl_cross\tl_total\tlr"
        first = lines[1].split("\t")
        assert len(first) == 6
        float(first[4])  # parses

    def test_metrics_report_parses(self, finished_run):
        tmp_path, _ = finished_run
        lines = (tmp_path / "run" / "metrics.tsv").read_text().splitlines()
        assert lines[0].split("\t")[0] == "metric"
        names = [ln.split("\t")[0] for ln in lines[1:]]
        assert names == ["efc", "dice_1", "tc", "mse", "psnr"]

    def test_infer_extra_time_and_scale(self, finished_run):
        tmp_path, cfg = finished_run
        rc = _run("infer", "--config", str(cfg), "--times", "21.5",
                  "--scale", "2.0")
        assert rc == 0
        entries = read_manifest(tmp_path / "run" / "recon" / "recon.tsv")
        assert [t for _, t in entries] == [21.5]
        vol = read_nifti(entries[0][0])
        assert vol.dims == (32, 32, 32)

    def test_infer_pretrained_stage(self, finished_run):
        tmp_path, cfg = finished_run
        rc = _run("infer", "--config", str(cfg), "--times", "22",
                  "--set", "infer.stage=pretrained")
        assert rc == 0


def _hash_tree(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_rerun_is_bit_identical(tmp_path):
    hashes = []
    for sub in ("a", "b"):
        base = tmp_path / sub
        base.mkdir()
        cfg = _write_config(base)
        for cmd in ("phantom", "pretrain", "refine", "infer"):
            assert _run(cmd, "--config", str(cfg)) == 0
        hashes.append(_hash_tree(base / "run"))
    assert hashes[0] == hashes[1]
