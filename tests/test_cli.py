import contextlib
import hashlib
import io
import math
import os
import shutil
import struct
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlas4d import cli, phantom, volume_io
from atlas4d.cli import ConfigError, load_config, main
from atlas4d.encoding import FourierEncoder
from atlas4d.metrics import (
    dice,
    efc_volume,
    psnr,
    report_tsv,
    series_mse,
    tc,
    threshold_labels,
)
from atlas4d.network import MlpConfig, init_mlp, load_checkpoint, save_checkpoint
from atlas4d.volume_io import (
    Volume3D,
    format_time,
    load_series,
    read_manifest,
    read_nifti,
    write_manifest,
    write_nifti,
)

# Small-but-real pipeline settings: 16^3 grid, 6 weeks, narrow network.
TINY = """
run_dir = {run_dir}

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
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # `threads` is rejected too: BLAS threads are set in the environment;
        # `eval.tc_class` too: thresholded maps only hold class 1; and the
        # `phantom.level_*` keys: the CLI phantom uses PhantomConfig's levels;
        # `eval.psnr_peak` and `eval.efc_axis`: the peak is the reference
        # maximum, and EFC is over axis-2 slices
        for line in ("not.a.key = 1", "threads = 2", "eval.tc_class = 1",
                     "phantom.level_background = 0", "phantom.level_tissue = 0.5",
                     "phantom.level_inner = 1", "eval.psnr_peak = 1", "eval.efc_axis = 2"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"run_dir = out\n{line}\n")
            assert _run("phantom", "--config", str(cfg)) == 1
            assert "unknown config keys" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("run_dir = out\ntrain.batch_size = many\n")
        assert _run("phantom", "--config", str(cfg)) == 1

    @pytest.mark.parametrize("item", [
        "train.lambda=nan", "train.pretrain_lr=nan", "mlp.bn_epsilon=nan",
        "phantom.noise_sigma=nan", "phantom.time_end=inf",
        "train.refine_lr=-inf", "infer.times=21,nan,23",
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, item):
        key = item.split("=")[0]
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\n")
        with pytest.raises(ConfigError, match=f"bad value for {key}: .* is not finite"):
            load_config(cfg, overrides=[item])
        assert _run("phantom", "--config", str(cfg), "--set", item) == 1
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, sets, message", [
        ("run_dir = out\njust words\n", (), "c.cfg:2: expected `key = value`"),
        ("run_dir = out\n", ("--set", "train.batch_size"),
         "override must be key=value, got 'train.batch_size'"),
    ], ids=["config-line", "set-item"])
    def test_entry_without_equals_rejected(self, tmp_path, capsys, text, sets, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert _run("phantom", "--config", str(cfg), *sets) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("item, value", [
        ("phantom.dims=32,32", "(32, 32)"), ("phantom.dims=", "()"),
        ("phantom.dims=0,32,32", "(0, 32, 32)"),
    ], ids=["two", "empty", "zero"])
    def test_bad_phantom_dims_rejected(self, tmp_path, capsys, item, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\n")
        assert _run("phantom", "--config", str(cfg), "--set", item) == 1
        assert (f"error: {cfg} --set: bad value for phantom.dims: dims must be three "
                f"positive integers, got {value}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("item", [
        "mlp.skip_layers=3,,4", "phantom.dims=32,,32,32", "infer.times=21,,22",
        "infer.times=21,22,",
    ], ids=["skip-layers", "dims", "times", "trailing-comma"])
    def test_empty_list_item_rejected(self, tmp_path, capsys, item):
        key, text = item.split("=")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\n")
        message = f"{cfg} --set: bad value for {key}: empty item in {text!r}"
        with pytest.raises(ConfigError) as info:
            load_config(cfg, overrides=[item])
        assert str(info.value) == message
        assert _run("phantom", "--config", str(cfg), "--set", item) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, sets, message", [
        ("run_dir = r\0n\n", (), "{cfg}:1: bad value for run_dir: a path cannot hold a NUL byte"),
        ("run_dir = out\nphantom.n_times = x\n", (),
         "{cfg}:2: bad value for phantom.n_times: invalid literal for int() with base 10: 'x'"),
        ("run_dir = out\nfoo = 1\n", (), "{cfg}:2: unknown config keys: foo"),
        ("run_dir = out\ntrain.pretrain_lr = 1e-3\ntrain.refine_lr = 1e-3\n",
         ("--set", "train.refine_lr=-1"),
         "{cfg} --set: bad value for train.refine_lr: base_lr must be positive"),
        ("run_dir = out\ntrain.patience = 3\ntrain.batch_size = 1\n", (),
         "{cfg}:3: bad value for train.batch_size: batch_size must be >= 2"),
        ("run_dir = out\nmlp.n_layers = 6\n", ("--set", "mlp.skip_layers=9"),
         "{cfg}: bad value for mlp.n_layers (line 2), mlp.skip_layers (--set): "
         "skip layer 9 outside [1, 6)"),
        ("run_dir = out\nencoder.l_space = 0\n", (),
         "{cfg}:2: bad value for encoder.l_space: feature counts must be >= 1"),
        ("run_dir = out\n", ("--set", "mlp.bn_momentum=0"),
         "{cfg} --set: bad value for mlp.bn_momentum: bn_momentum must be in (0, 1]"),
        ("run_dir = out\nphantom.edge_width = 0\n", (),
         "{cfg}:2: bad value for phantom.edge_width: edge_width must be positive"),
        # Either key reset alone leaves the range empty: every phantom key set is named.
        ("run_dir = out\nphantom.time_start = 30\nphantom.time_end = 21\n", (),
         "{cfg}: bad value for phantom.time_start (line 2), phantom.time_end (line 3): "
         "time_end must exceed time_start"),
    ], ids=["nul-path", "not-an-int", "unknown-key", "refine-lr", "batch-size", "skip-layer",
            "l-space", "bn-momentum", "edge-width", "time-range"])
    def test_value_error_names_the_file_and_key(self, tmp_path, capsys, text, sets, message):
        # pretrain would read the training series next, and there is none:
        # the error shows that the config was rejected first.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert _run("pretrain", "--config", str(cfg), *sets) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message.format(cfg=cfg)}"]
        assert not (tmp_path / "out").exists()

    def test_feature_counts_are_checked_without_drawing_the_encoder(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"run_dir = out\nencoder.l_space = {10**15}\n")
        assert load_config(cfg)["encoder.l_space"] == 10**15

    def test_empty_list_value_keeps_its_meaning(self, tmp_path):
        # An empty infer.times means the training times, an empty
        # mlp.skip_layers means no skips.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\ninfer.times =\nmlp.skip_layers =\n")
        values = load_config(cfg)
        assert values["infer.times"] == []
        assert values["mlp.skip_layers"] == ()

    def test_repeated_skip_layer_rejected(self, tmp_path, capsys):
        # A repeat would make space_terms form the next layer's terms twice.
        cfg = _write_config(tmp_path)
        assert _run("phantom", "--config", str(cfg)) == 0
        assert _run("pretrain", "--config", str(cfg), "--set", "mlp.skip_layers=3,3") == 1
        assert (f"error: {cfg} --set: bad value for mlp.skip_layers: skip_layers repeats "
                "a layer: (3, 3)") in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("*.ckpt"))

    def test_missing_config_file(self, tmp_path):
        assert _run("phantom", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_comments_and_overrides(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\nrun_dir = out  # trailing\ntrain.batch_size = 2\n")
        parsed = load_config(cfg, overrides=["train.batch_size=4"])
        assert parsed["train.batch_size"] == 4
        assert parsed["run_dir"] == tmp_path / "out"

    def test_duplicate_key_rejected_naming_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\ntrain.batch_size = 100\n# note\ntrain.batch_size = 200\n")
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert str(err.value) == (
            f"{cfg}:4: duplicate key train.batch_size (first set on line 2)")
        assert _run("phantom", "--config", str(cfg)) == 1
        assert "duplicate key train.batch_size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"run_dir = out\n\xff\n")
        assert _run("phantom", "--config", str(cfg)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: not UTF-8 text")
        assert not (tmp_path / "out").exists()

    def test_set_may_repeat_a_file_key_and_itself(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\ntrain.batch_size = 100\n")
        overrides = ["train.batch_size=200", "train.batch_size=300"]
        assert load_config(cfg, overrides)["train.batch_size"] == 300

    def test_hash_inside_value_kept(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out#1\t# comment after a tab\n")
        assert load_config(cfg)["run_dir"] == tmp_path / "out#1"

    @pytest.mark.parametrize("run_dir_line", ["", "run_dir =\n"], ids=["missing", "empty"])
    def test_run_dir_required_before_any_work(self, tmp_path, capsys, monkeypatch,
                                              run_dir_line):
        frames, calls = phantom.frames, []
        monkeypatch.setattr(phantom, "frames", lambda pcfg: calls.append(pcfg) or frames(pcfg))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY.replace("run_dir = {run_dir}\n", run_dir_line))
        assert _run("phantom", "--config", str(cfg)) == 1
        assert f"error: {cfg}: run_dir is required" in capsys.readouterr().err
        assert calls == []

    def test_paths_resolved_at_load(self, tmp_path):
        elsewhere = tmp_path.parent / "elsewhere" / "ref.tsv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"run_dir = out\ndata.manifest = data/n.tsv\ndata.mask =\n"
                       f"eval.reference_manifest = {elsewhere}\n")
        parsed = load_config(cfg)
        assert parsed["data.manifest"] == tmp_path / "data" / "n.tsv"
        assert parsed["eval.reference_manifest"] == elsewhere
        assert parsed["data.mask"] is None and parsed["eval.recon_manifest"] is None

    def test_defaults_fill_missing_keys(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("run_dir = out\n")
        parsed = load_config(cfg)
        assert parsed["train.batch_size"] == 25000
        assert parsed["train.lambda"] == 0.1
        assert parsed["encoder.l_space"] == 128
        assert parsed["mlp.n_layers"] == 18
        assert parsed["mlp.skip_layers"] == (6, 12)


# Config values: printable text, a NUL, non-finite and huge numbers, an
# empty value and comma lists. Path keys get names in the config's directory.
_CONFIG_VALUES = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8),
    st.sampled_from(["", "\0", "1\0", "nan", "inf", "-inf", "1e400", "9" * 5000]),
    st.integers(-10**30, 10**30).map(str),
    st.lists(st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["", "nan", "x"])),
             min_size=2, max_size=4).map(",".join))
_PATH_VALUES = st.one_of(st.just(""), st.text("ab_.\0", max_size=6).map("p".__add__))


@st.composite
def _config_entries(draw):
    keys = draw(st.lists(st.sampled_from(sorted(cli._SCHEMA)), unique=True, max_size=6))
    return {"run_dir": "run", **{key: draw(_PATH_VALUES if cli._SCHEMA[key][0] is Path
                                           else _CONFIG_VALUES) for key in keys}}


class TestConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(entries=_config_entries())
    @example(entries={"run_dir": "r\0n"})
    @example(entries={"run_dir": "run", "phantom.n_times": "x"})
    @example(entries={"run_dir": "run", "foo": "1"})
    @example(entries={"run_dir": "run", "encoder.l_space": str(10**30)})
    def test_config_loads_or_fails_naming_the_file(self, tmp_path_factory, entries):
        cfg = tmp_path_factory.mktemp("config") / "c.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
        try:
            valid = isinstance(load_config(cfg), dict)
        except ConfigError as exc:
            valid = False
            assert str(cfg) in str(exc)
        # eval reads nothing before the reconstruction manifest, which is
        # missing: a valid config stops there.
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert _run("eval", "--config", str(cfg)) == 1
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")
        assert line.startswith("error: reconstruction manifest not found") == valid


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

    def test_pretrain_names_the_volume_off_the_grid(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        paths = [tmp_path / f"v{i}.nii" for i in range(3)]
        for p, dims in zip(paths, [(4, 4, 4), (4, 4, 4), (4, 5, 4)]):
            write_nifti(Volume3D(dims, (1, 1, 1), np.ones(dims)), p)
        manifest = tmp_path / "data.tsv"
        write_manifest([(p, 21.0 + i) for i, p in enumerate(paths)], manifest)
        assert _run("pretrain", "--config", str(cfg), "--set", f"data.manifest={manifest}") == 1
        assert (f"error: dimension mismatch across series: training series {manifest} volume "
                f"{paths[2]} has dims (4, 5, 4)") in capsys.readouterr().err
        assert not (tmp_path / "run" / "model1_pretrained.ckpt").exists()

    @pytest.mark.parametrize("times, message", [
        ([21.0], "need at least 2 entries"),
        ([21.0, 22.0, 21.0], "duplicate time point"),
    ], ids=["one-entry", "duplicate-time"])
    def test_pretrain_names_the_manifest_of_a_bad_series(self, tmp_path, capsys, times, message):
        cfg = _write_config(tmp_path)
        paths = [tmp_path / f"v{i}.nii" for i in range(len(times))]
        for p in paths:
            write_nifti(Volume3D((4, 4, 4), (1, 1, 1), np.ones((4, 4, 4))), p)
        manifest = tmp_path / "data.tsv"
        write_manifest(list(zip(paths, times)), manifest)
        assert _run("pretrain", "--config", str(cfg), "--set", f"data.manifest={manifest}") == 1
        assert f"error: training series {manifest}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model1_pretrained.ckpt").exists()

    @pytest.mark.parametrize("body, message", [
        (b"\xffv0.nii\t21\n", "{manifest}: not UTF-8 text"),
        (b"v0.nii\t21\nv\x001.nii\t22\n", "{manifest}:2: path holds a NUL byte"),
    ], ids=["non-utf8", "nul-path"])
    def test_pretrain_names_a_manifest_of_bad_bytes(self, tmp_path, capsys, body, message):
        cfg = _write_config(tmp_path)
        manifest = tmp_path / "data.tsv"
        manifest.write_bytes(body)
        assert _run("pretrain", "--config", str(cfg), "--set", f"data.manifest={manifest}") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message.format(manifest=manifest)}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_pretrain_names_a_volume_with_non_finite_vox_offset(self, tmp_path, capsys, offset):
        cfg = _write_config(tmp_path)
        paths = [tmp_path / f"v{i}.nii" for i in range(3)]
        for p in paths:
            write_nifti(Volume3D((4, 4, 4), (1, 1, 1), np.ones((4, 4, 4))), p)
        blob = bytearray(paths[1].read_bytes())
        struct.pack_into("<f", blob, 108, offset)
        paths[1].write_bytes(bytes(blob))
        manifest = tmp_path / "data.tsv"
        write_manifest([(p, 21.0 + i) for i, p in enumerate(paths)], manifest)
        assert _run("pretrain", "--config", str(cfg), "--set", f"data.manifest={manifest}") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: corrupt file: vox_offset {offset} ({paths[1]})"]
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _refined_pair(run, meta):
        run.mkdir()
        for i in (1, 2):
            enc = FourierEncoder(8, 4, seed=i)
            model = init_mlp(MlpConfig(input_dim=enc.out_dim, hidden_width=16, n_layers=6,
                                       skip_layers=(3,)), seed=i, encoder=enc)
            model.meta = meta
            save_checkpoint(model, run / f"model{i}_refined.ckpt")

    # Values no series record entry accepts: none is a list of numbers that
    # a float holds.
    _HOSTILE = st.one_of(
        st.none(), st.booleans(), st.text(max_size=3), st.floats(),
        st.lists(st.sampled_from([None, True, "x", math.nan, -math.inf, 10**400]),
                 min_size=1, max_size=4))

    @settings(max_examples=40, deadline=None)
    @given(key=st.sampled_from(["dims", "time_range", "times", "spacing", "intensity_scale"]),
           value=_HOSTILE)
    @example(key="dims", value="abc")
    @example(key="time_range", value=[1])
    @example(key="times", value=5)
    @example(key="spacing", value=["x", 1, 1])
    @example(key="intensity_scale", value="ab")
    def test_infer_on_hostile_meta_prints_one_error_line(self, tmp_path_factory, key, value):
        tmp_path = tmp_path_factory.mktemp("hostile")
        cfg = _write_config(tmp_path)
        meta = {"time_range": [21.0, 26.0], "times": [21.0, 26.0], "dims": [4, 4, 4],
                "spacing": [1.0, 1.0, 1.0], "intensity_scale": [0.0, 1.0], key: value}
        self._refined_pair(tmp_path / "run", meta)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert _run("infer", "--config", str(cfg)) == 1
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"error: corrupt checkpoint: meta {key} ")
        assert line.endswith(f"({tmp_path / 'run' / 'model1_refined.ckpt'})")

    def test_infer_without_dims_meta(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        self._refined_pair(tmp_path / "run", {"time_range": [21.0, 26.0], "times": [21.0, 26.0]})
        assert _run("infer", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "no 'dims' meta" in err and "model1_refined.ckpt" in err

    def test_infer_rejects_non_finite_checkpoint(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        run = tmp_path / "run"
        self._refined_pair(run, {"time_range": [21.0, 26.0], "times": [21.0, 26.0],
                                 "dims": [4, 4, 4]})
        model = load_checkpoint(run / "model2_refined.ckpt")
        model.weights[2][0, 0] = np.nan
        save_checkpoint(model, run / "model2_refined.ckpt")
        assert _run("infer", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert (f"error: corrupt checkpoint: non-finite parameter value "
                f"({run / 'model2_refined.ckpt'})") in err
        assert not (run / "recon").exists()

    @pytest.mark.parametrize("args, message", [
        (("--set", "infer.stage=best"),
         "{cfg} --set: bad value for infer.stage: must be refined or pretrained, got 'best'"),
        ((), "no inference times: set infer.times"),
        (("--times", "22", "--scale", "0"), "{cfg} --set: bad value for infer.scale: '0' is not "
                                            "positive"),
    ], ids=["stage", "no-times", "scale"])
    def test_infer_rejected(self, tmp_path, capsys, args, message):
        # The checkpoints record no times, so infer.times must name them.
        cfg = _write_config(tmp_path)
        self._refined_pair(tmp_path / "run", {"time_range": [21.0, 26.0], "dims": [4, 4, 4]})
        assert _run("infer", "--config", str(cfg), *args) == 1
        assert f"error: {message.format(cfg=cfg)}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "recon").exists()

    def test_eval_before_infer(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert _run("phantom", "--config", str(cfg)) == 0
        assert _run("eval", "--config", str(cfg)) == 1


class TestStageHandOff:
    """Each stage reads the series the stage before it wrote, and only that."""

    @pytest.mark.parametrize("rerun, changed", [
        (("phantom.time_start=30", "phantom.time_end=35"), "time_range, times"),
        (("phantom.n_times=5",), "times"),
    ], ids=["shifted-times", "n-times"])
    def test_refine_rejects_another_series(self, tmp_path, capsys, rerun, changed):
        cfg = _write_config(tmp_path)
        assert _run("phantom", "--config", str(cfg)) == 0
        assert _run("pretrain", "--config", str(cfg), "--set", "train.pretrain_epochs=2") == 0
        assert _run("phantom", "--config", str(cfg),
                    *[arg for item in rerun for arg in ("--set", item)]) == 0
        before = _hash_tree(tmp_path / "run")
        capsys.readouterr()
        assert _run("refine", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'run' / 'model1_pretrained.ckpt'} was pretrained on " \
               f"another series ({changed} differ)" in err
        assert _hash_tree(tmp_path / "run") == before

    def test_phantom_rerun_keeps_only_listed_volumes(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "run" / "phantom"
        assert _run("phantom", "--config", str(cfg)) == 0
        for name in ("notes.txt", "other_w22.nii"):
            (out / name).write_text("kept\n")
        assert _run("phantom", "--config", str(cfg), "--set", "phantom.n_times=4") == 0
        listed = {p.name for name in ("clean", "noisy", "labels")
                  for p, _ in read_manifest(out / f"{name}.tsv")}
        assert len(listed) == 12
        assert {p.name for p in out.glob("*.nii")} == listed | {"other_w22.nii"}
        assert (out / "notes.txt").read_text() == "kept\n"


class TestPhantomStreaming:
    """`atlas4d phantom` builds one time point while the one before is written."""

    def test_phantom_calls_frames(self, tmp_path, monkeypatch):
        # The run-dir test above counts frames calls; this keeps it honest.
        frames, calls = phantom.frames, []
        monkeypatch.setattr(phantom, "frames", lambda pcfg: calls.append(pcfg) or frames(pcfg))
        assert _run("phantom", "--config", str(_write_config(tmp_path))) == 0
        assert len(calls) == 1

    def test_holds_at_most_two_time_points(self, tmp_path, monkeypatch):
        # Every volume the phantom builds is tracked by a weak reference, so
        # the count is of volumes still alive: three per time point.
        refs, most = [], [0]

        def tracked(cls):
            def make(*args):
                vol = cls(*args)
                refs.append(weakref.ref(vol))
                most[0] = max(most[0], sum(r() is not None for r in refs))
                return vol
            return make

        monkeypatch.setattr(phantom, "Volume3D", tracked(Volume3D))
        monkeypatch.setattr(phantom, "LabelVolume", tracked(volume_io.LabelVolume))
        assert _run("phantom", "--config", str(_write_config(tmp_path))) == 0
        assert len(refs) == 3 * 6
        assert most[0] <= 2 * 3

    def test_write_error_stops_cleanly(self, tmp_path, capsys, monkeypatch):
        # The third time point's first file fails after its temporary file
        # is written, inside the writer thread.
        replace, third = os.replace, f"clean_w{format_time(23.0)}.nii"

        def failing(src, dst):
            if os.path.basename(dst) == third:
                raise OSError(f"no space left for {third}")
            return replace(src, dst)

        monkeypatch.setattr(volume_io.os, "replace", failing)
        threads = threading.active_count()
        assert _run("phantom", "--config", str(_write_config(tmp_path))) == 1
        assert f"error: no space left for {third}" in capsys.readouterr().err
        run = tmp_path / "run"
        assert {p.name for p in (run / "phantom").iterdir()} == {
            f"{name}_w{week}.nii" for name in ("clean", "noisy", "labels") for week in (21, 22)}
        assert not (run / "artifacts_phantom.txt").exists()
        assert threading.active_count() == threads


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

    def test_eval_warns_on_empty_label_maps(self, finished_run, capsys):
        # The TINY recon peaks well below the 0.75 threshold, the reference does not.
        tmp_path, cfg = finished_run
        assert _run("infer", "--config", str(cfg)) == 0
        report = (tmp_path / "run" / "metrics.tsv").read_bytes()
        assert _run("eval", "--config", str(cfg), "--set", "eval.label_threshold=0.01") == 0
        assert "warning" not in capsys.readouterr().err
        assert _run("eval", "--config", str(cfg)) == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning:")]
        assert len(warnings) == 6
        assert all("empty recon label map" in w and "0.75" in w for w in warnings)
        assert "at time 21 " in warnings[0] and "at time 26 " in warnings[-1]
        assert (tmp_path / "run" / "metrics.tsv").read_bytes() == report

    def test_eval_report_equals_whole_series_metrics(self, finished_run):
        # The report eval streams pair by pair equals the one computed from
        # both whole series. The TINY recon peaks at 0.11-0.17, so at 0.09 its
        # maps are neither empty nor full.
        tmp_path, cfg = finished_run
        run = tmp_path / "run"
        assert _run("infer", "--config", str(cfg)) == 0
        assert _run("eval", "--config", str(cfg), "--set", "eval.label_threshold=0.09") == 0
        recon = load_series(read_manifest(run / "recon" / "recon.tsv"))
        ref = load_series(read_manifest(run / "phantom" / "clean.tsv"))
        recon_labels = [threshold_labels(v, 0.09) for v in recon.volumes]
        ref_labels = [threshold_labels(v, 0.09) for v in ref.volumes]
        mse = series_mse(recon, ref)
        rows = {
            "efc": [efc_volume(v) for v in recon.volumes],
            "dice_1": [dice(a, b, 1) for a, b in zip(recon_labels, ref_labels)],
            "tc": [tc(recon_labels, None, m, 1) for m in range(recon.n_times)],
            "mse": [mse],
            "psnr": [psnr(mse, float(max(v.data.max() for v in ref.volumes)))],
        }
        assert 0.0 < min(rows["dice_1"]) < 100.0
        want = report_tsv([float(t) for t in recon.times], rows)
        assert (run / "metrics.tsv").read_bytes() == want.encode()

    def test_eval_holds_at_most_two_volumes(self, finished_run, monkeypatch):
        # Every volume eval reads is tracked by a weak reference, wherever
        # the read is looked up, so the count is of volumes still alive.
        tmp_path, cfg = finished_run
        assert _run("infer", "--config", str(cfg)) == 0
        read = volume_io.read_nifti
        refs, most = [], [0]

        def tracked(path):
            vol = read(path)
            refs.append(weakref.ref(vol))
            most[0] = max(most[0], sum(r() is not None for r in refs))
            return vol

        monkeypatch.setattr(volume_io, "read_nifti", tracked)
        monkeypatch.setattr(cli, "read_nifti", tracked)
        assert _run("eval", "--config", str(cfg)) == 0
        assert len(refs) == 12
        assert most[0] == 2

    def test_infer_extra_time_and_scale(self, finished_run):
        tmp_path, cfg = finished_run
        rc = _run("infer", "--config", str(cfg), "--times", "21.5",
                  "--scale", "2.0")
        assert rc == 0
        entries = read_manifest(tmp_path / "run" / "recon" / "recon.tsv")
        assert [t for _, t in entries] == [21.5]
        vol = read_nifti(entries[0][0])
        assert vol.dims == (32, 32, 32)

    # Width 12 is one where OpenBLAS 0.3.31 rounds ragged calls unlike full
    # ones; None copies the trained checkpoints as they are.
    @pytest.mark.parametrize("width", [None, 12, 48])
    def test_infer_time_alone_equals_time_among_others(self, finished_run, tmp_path, width):
        src = finished_run[0] / "run"
        run = tmp_path / "run"
        run.mkdir()
        for i in (1, 2):
            name = f"model{i}_refined.ckpt"
            if width is None:
                shutil.copy(src / name, run / name)
                continue
            enc = FourierEncoder(8, 4, seed=i)
            model = init_mlp(MlpConfig(input_dim=enc.out_dim, hidden_width=width),
                             seed=i, encoder=enc)
            model.out_bias[:] = 0.5  # inside the [0, 1] clip
            model.meta = load_checkpoint(src / name).meta
            save_checkpoint(model, run / name)
        cfg = _write_config(tmp_path)
        recon = run / "recon" / "recon_w21.5.nii"
        assert _run("infer", "--config", str(cfg), "--times", "21.5") == 0
        alone = recon.read_bytes()
        assert _run("infer", "--config", str(cfg), "--times", "21,21.5,22") == 0
        assert recon.read_bytes() == alone

    def test_infer_removes_stale_recon_files(self, finished_run):
        tmp_path, cfg = finished_run
        recon = tmp_path / "run" / "recon"
        assert _run("infer", "--config", str(cfg)) == 0
        keep = tmp_path / "run" / "phantom" / "noisy_w21.nii"
        # A hand-edited manifest entry outside the recon directory is never removed.
        with open(recon / "recon.tsv", "a") as fh:
            fh.write("../phantom/noisy_w21.nii\t30\n")
        assert _run("infer", "--config", str(cfg), "--times", "21.5", "--scale", "2.0") == 0
        listed = [p for p, _ in read_manifest(recon / "recon.tsv")]
        assert sorted(p.name for p in recon.glob("*.nii")) == ["recon_w21.5.nii"]
        assert [p.name for p in listed] == ["recon_w21.5.nii"]
        assert keep.is_file()
        # The same times again: nothing is removed.
        assert _run("infer", "--config", str(cfg), "--times", "21.5", "--scale", "2.0") == 0
        assert listed[0].is_file()

    def test_infer_rewrites_malformed_manifest(self, finished_run):
        tmp_path, cfg = finished_run
        manifest = tmp_path / "run" / "recon" / "recon.tsv"
        manifest.write_text("not a manifest line\n")
        assert _run("infer", "--config", str(cfg)) == 0
        assert [t for _, t in read_manifest(manifest)] == [21.0, 22.0, 23.0, 24.0, 25.0, 26.0]

    def test_infer_removes_only_stale_volumes(self, finished_run):
        tmp_path, cfg = finished_run
        recon = tmp_path / "run" / "recon"
        assert _run("infer", "--config", str(cfg)) == 0
        before = {p.name for p in recon.iterdir()}
        (recon / "recon_w99.nii").write_bytes((recon / "recon_w21.nii").read_bytes())
        for name in ("notes.txt", "other_w22.nii"):
            (recon / name).write_text("kept\n")
        assert _run("infer", "--config", str(cfg)) == 0
        assert {p.name for p in recon.iterdir()} == before | {"notes.txt", "other_w22.nii"}
        for name in ("notes.txt", "other_w22.nii"):
            (recon / name).unlink()

    @pytest.mark.parametrize("times", ["23,22", "22,22"])
    def test_infer_rejects_unordered_times(self, finished_run, capsys, times):
        tmp_path, cfg = finished_run
        before = _hash_tree(tmp_path / "run")
        assert _run("infer", "--config", str(cfg), "--times", times) == 1
        assert "times must be strictly increasing" in capsys.readouterr().err
        assert _hash_tree(tmp_path / "run") == before

    def test_infer_pretrained_stage(self, finished_run):
        tmp_path, cfg = finished_run
        rc = _run("infer", "--config", str(cfg), "--times", "22",
                  "--set", "infer.stage=pretrained")
        assert rc == 0

    def test_infer_flags_override_set(self, finished_run):
        tmp_path, cfg = finished_run
        rc = _run("infer", "--config", str(cfg), "--set", "infer.times=23",
                  "--times", "22", "--set", "infer.scale=3", "--scale", "0.5")
        assert rc == 0
        entries = read_manifest(tmp_path / "run" / "recon" / "recon.tsv")
        assert [t for _, t in entries] == [22.0]
        assert read_nifti(entries[0][0]).dims == (8, 8, 8)

    def test_infer_close_times_get_distinct_files(self, finished_run):
        tmp_path, cfg = finished_run
        rc = _run("infer", "--config", str(cfg), "--times", "21.4285714,21.4285719")
        assert rc == 0
        entries = read_manifest(tmp_path / "run" / "recon" / "recon.tsv")
        assert [t for _, t in entries] == [21.4285714, 21.4285719]
        assert entries[0][0] != entries[1][0]
        assert all(p.is_file() for p, _ in entries)

    def test_infer_warns_outside_training_range(self, finished_run, capsys):
        tmp_path, cfg = finished_run
        assert _run("infer", "--config", str(cfg), "--times", "21.5,26") == 0
        assert "warning" not in capsys.readouterr().err
        assert _run("infer", "--config", str(cfg), "--times", "20,22") == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning:")]
        assert len(warnings) == 1
        assert "20" in warnings[0] and "22" not in warnings[0]
        assert "[21, 26]" in warnings[0]


class TestDataMask:
    FAST = ("--set", "train.pretrain_epochs=3")

    def _phantom_and_mask(self, tmp_path, dims, fill=1.0):
        cfg = _write_config(tmp_path)
        assert _run("phantom", "--config", str(cfg)) == 0
        data = np.zeros(dims)
        data[: dims[0] // 2] = fill
        write_nifti(Volume3D(dims, (1, 1, 1), data), tmp_path / "mask.nii")
        return cfg

    def test_mask_on_the_grid_restricts_sampling(self, tmp_path):
        cfg = self._phantom_and_mask(tmp_path, (16, 16, 16))
        log = tmp_path / "run" / "pretrain_model1.tsv"
        assert _run("pretrain", "--config", str(cfg), *self.FAST) == 0
        unmasked = log.read_text()
        assert _run("pretrain", "--config", str(cfg), *self.FAST,
                    "--set", "data.mask=mask.nii") == 0
        assert log.read_text() != unmasked

    @pytest.mark.parametrize("dims, fill, message", [
        ((16, 16, 8), 1.0, "has dims (16, 16, 8)"),
        ((16, 16, 16), 0.0, "has no nonzero voxel"),
    ], ids=["wrong-dims", "empty"])
    def test_bad_mask_fails_naming_the_file(self, tmp_path, capsys, dims, fill, message):
        cfg = self._phantom_and_mask(tmp_path, dims, fill)
        assert _run("pretrain", "--config", str(cfg), *self.FAST,
                    "--set", "data.mask=mask.nii") == 1
        err = capsys.readouterr().err
        assert f"error: data.mask {tmp_path / 'mask.nii'} {message}" in err
        assert not list((tmp_path / "run").glob("*.ckpt"))


class TestEvalBoundary:
    """Bad eval input exits 1 with its cause and writes no metrics.tsv."""

    def _series(self, tmp_path, name, times, odd=None, dims=(4, 4, 4), spacing=(1, 1, 1)):
        # odd: (index, dims, spacing) of the one volume that differs.
        rng = np.random.default_rng(len(times))
        entries = []
        for i, t in enumerate(times):
            d, sp = odd[1:] if odd is not None and odd[0] == i else (dims, spacing)
            p = tmp_path / f"{name}_{i}.nii"
            write_nifti(Volume3D(d, sp, rng.uniform(0.5, 1.0, d)), p)
            entries.append((p, t))
        write_manifest(entries, tmp_path / f"{name}.tsv")

    def _eval(self, tmp_path):
        # run/ does not exist yet: eval creates it.
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("run_dir = run\neval.recon_manifest = recon.tsv\n"
                       "eval.reference_manifest = reference.tsv\n")
        return _run("eval", "--config", str(cfg))

    def test_valid_series_pass(self, tmp_path):
        self._series(tmp_path, "recon", [21.0, 22.0, 23.0])
        self._series(tmp_path, "reference", [21.0, 22.0, 23.0])
        assert self._eval(tmp_path) == 0
        assert (tmp_path / "run" / "metrics.tsv").is_file()

    @pytest.mark.parametrize("recon, reference, message", [
        (([21.0, 22.0, 23.0],), ([21.0, 22.0, 23.0, 24.0],),
         "recon and reference series do not match in shape"),
        (([21.0, 22.0, 23.0],), ([21.0, 22.0, 23.0], None, (4, 4, 5)),
         "recon and reference series do not match in shape: {tmp}/recon.tsv has dims "
         "(4, 4, 4), {tmp}/reference.tsv has dims (4, 4, 5)\n"),
        (([21.0, 22.0, 23.0], (2, (5, 4, 4), (1, 1, 1))), ([21.0, 22.0, 23.0],),
         "dimension mismatch across series: recon volume {tmp}/recon_2.nii has dims "
         "(5, 4, 4) and spacing (1.0, 1.0, 1.0), its first volume {tmp}/recon_0.nii has "
         "dims (4, 4, 4) and spacing (1.0, 1.0, 1.0)\n"),
        (([21.0, 22.0, 23.0],), ([21.0, 22.0, 23.0], (1, (4, 4, 4), (1, 1, 2))),
         "spacing mismatch across series: reference volume {tmp}/reference_1.nii has dims "
         "(4, 4, 4) and spacing (1.0, 1.0, 2.0), its first volume {tmp}/reference_0.nii "
         "has dims (4, 4, 4) and spacing (1.0, 1.0, 1.0)\n"),
        (([21.0],), ([21.0, 22.0],), "recon: need at least 2 entries"),
        (([21.0, 22.0, 23.0],), ([21.0, 22.0, 22.0],), "reference: duplicate time point"),
        (([21.0, 22.0, 23.5],), ([21.0, 22.0, 23.0],),
         "recon and reference series do not match in shape: times 21, 22, 23.5 against "
         "21, 22, 23\n"),
    ], ids=["lengths", "dims-between-series", "dims-at-third-pair", "spacing",
            "one-entry", "duplicate-time", "times"])
    def test_rejected(self, tmp_path, capsys, recon, reference, message):
        self._series(tmp_path, "recon", *recon)
        self._series(tmp_path, "reference", *reference)
        assert self._eval(tmp_path) == 1
        assert f"error: {message.format(tmp=tmp_path)}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.tsv").exists()

    def test_missing_reference_manifest(self, tmp_path, capsys):
        self._series(tmp_path, "recon", [21.0, 22.0, 23.0])
        assert self._eval(tmp_path) == 1
        err = capsys.readouterr().err
        assert f"error: reference manifest not found: {tmp_path / 'reference.tsv'}" in err
        assert not (tmp_path / "run" / "metrics.tsv").exists()

    def test_creates_missing_run_dir(self, tmp_path):
        self._series(tmp_path, "recon", [21.0, 22.0, 23.0])
        self._series(tmp_path, "reference", [21.0, 22.0, 23.0])
        assert not (tmp_path / "run").exists()
        assert self._eval(tmp_path) == 0
        assert (tmp_path / "run" / "metrics.tsv").is_file()
        assert (tmp_path / "run" / "artifacts_eval.txt").read_text() == "metrics.tsv\n"

    def test_spacing_between_series_rejected_before_any_metric(self, tmp_path, capsys,
                                                              monkeypatch):
        calls = []
        for name in ("threshold_labels", "efc_volume", "dice", "squared_error_sum"):
            fn = getattr(cli.met, name)
            monkeypatch.setattr(cli.met, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        self._series(tmp_path, "recon", [21.0, 22.0], dims=(8, 8, 8))
        self._series(tmp_path, "reference", [21.0, 22.0], dims=(8, 8, 8), spacing=(2, 2, 2))
        assert self._eval(tmp_path) == 1
        assert ("error: recon and reference series lie on different voxel grids: "
                f"{tmp_path / 'recon.tsv'} has spacing (1.0, 1.0, 1.0), "
                f"{tmp_path / 'reference.tsv'} has spacing (2.0, 2.0, 2.0)\n"
                ) in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "run" / "metrics.tsv").exists()


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
