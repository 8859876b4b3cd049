"""Command-line front end: phantom | pretrain | refine | infer | eval.

Configuration comes from a `key = value` file (`#` at the start of a line
or after whitespace starts a comment) with optional `--set key=value`
overrides; unknown keys and keys set twice in the file are rejected.
Every command writes its outputs under the configured run directory and
records them in an `artifacts_<command>.txt` manifest. All randomness
flows from config seeds, so a rerun with the same config reproduces
identical bytes.
"""

from __future__ import annotations

import argparse
import inspect
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import metrics as met
from . import phantom as ph
from .encoding import FourierEncoder
from .network import CheckpointError, InrModel, MlpConfig, load_checkpoint, save_checkpoint
from .optimizer import LrSchedule, lr_at
from .training import (
    TrainConfig,
    make_model,
    pretrain,
    reconstruct,
    refine,
    series_record,
    split_timepoints,
)
from .volume_io import (
    format_time,
    iter_series,
    load_series,
    normalize_intensity,
    read_manifest,
    read_nifti,
    same_spacing,
    write_atomic,
    write_manifest,
    write_nifti,
)


class ConfigError(ValueError):
    pass


def _split_items(s: str) -> list[str]:
    """The comma-separated items of s; an empty s has none, an empty item fails."""
    items = [p.strip() for p in s.split(",")] if s else []
    if "" in items:
        raise ValueError(f"empty item in {s!r}")
    return items


def _parse_int_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _split_items(s))


def _parse_float_list(s: str) -> list[float]:
    return [float(p) for p in _split_items(s)]


# Defaults come from the objects that own them, so each is defined once.
_TRAIN = TrainConfig()
_LR = LrSchedule()
_MLP = {f.name: f.default for f in fields(MlpConfig)}
_ENCODER = inspect.signature(FourierEncoder).parameters
_PHANTOM = ph.PhantomConfig()

# key -> (parser, default). load_config resolves the Path keys against the
# config file's directory when it reads the file; an empty path is None.
_SCHEMA = {
    "run_dir": (Path, None),
    "phantom.dims": (_parse_int_tuple, _PHANTOM.dims),
    "phantom.n_times": (int, _PHANTOM.n_times),
    "phantom.time_start": (float, _PHANTOM.time_start),
    "phantom.time_end": (float, _PHANTOM.time_end),
    "phantom.outer_r0": (float, _PHANTOM.outer_radius[0]),
    "phantom.outer_slope": (float, _PHANTOM.outer_radius[1]),
    "phantom.inner_r0": (float, _PHANTOM.inner_radius[0]),
    "phantom.inner_slope": (float, _PHANTOM.inner_radius[1]),
    "phantom.edge_width": (float, _PHANTOM.edge_width),
    # PhantomConfig defaults to a clean series; the CLI's phantom is noisy
    # by default, since it exists to feed the denoising pipeline.
    "phantom.jitter_sigma": (float, 1.5),
    "phantom.noise_sigma": (float, 0.02),
    "phantom.seed": (int, _PHANTOM.seed),
    "data.manifest": (Path, None),
    "data.mask": (Path, None),
    "encoder.l_space": (int, _ENCODER["l_space"].default),
    "encoder.l_time": (int, _ENCODER["l_time"].default),
    "mlp.hidden_width": (int, _MLP["hidden_width"]),
    "mlp.n_layers": (int, _MLP["n_layers"]),
    "mlp.skip_layers": (_parse_int_tuple, _MLP["skip_layers"]),
    "mlp.bn_momentum": (float, _MLP["bn_momentum"]),
    "mlp.bn_epsilon": (float, _MLP["bn_epsilon"]),
    "train.lambda": (float, _TRAIN.lambda_fidelity),
    "train.batch_size": (int, _TRAIN.batch_size),
    "train.pretrain_epochs": (int, _TRAIN.pretrain_epochs),
    "train.refine_max_epochs": (int, _TRAIN.refine_max_epochs),
    "train.patience": (int, _TRAIN.patience),
    "train.pretrain_lr": (float, _TRAIN.pretrain_schedule.base_lr),
    "train.refine_lr": (float, _TRAIN.refine_schedule.base_lr),
    "train.lr_decay": (float, _LR.decay_factor),
    "train.lr_decay_every": (int, _LR.decay_every),
    "train.seed_model1": (int, _TRAIN.seed_model1),
    "train.seed_model2": (int, _TRAIN.seed_model2),
    "train.seed_sampling": (int, _TRAIN.seed_sampling),
    "infer.times": (_parse_float_list, []),
    "infer.scale": (float, 1.0),
    "infer.stage": (str, "refined"),
    "eval.recon_manifest": (Path, None),
    "eval.reference_manifest": (Path, None),
    "eval.label_threshold": (float, 0.75),
    "eval.efc_axis": (int, inspect.signature(met.efc_volume).parameters["slice_axis"].default),
    "eval.psnr_peak": (float, 0.0),  # 0 = use the reference maximum
}


def load_config(path, overrides=()) -> dict:
    """Parse and validate the config file plus `key=value` overrides.

    Returns a plain dict with one entry per _SCHEMA key. The path keys
    (run_dir, data.manifest, data.mask, eval.recon_manifest and
    eval.reference_manifest) hold Paths resolved against the config file's
    directory, or None when unset or empty. A config without run_dir fails
    here, before any command starts work, and so does a key set on two
    lines of the file (the error names both). Overrides win over the file,
    and among overrides the last one for a key wins.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key} "
                              f"(first set on line {set_on[key]})")
        set_on[key] = lineno
        raw[key] = val
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        raw[key] = val

    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    base_dir = path.parent.resolve()
    values = {}
    for key, (cast, default) in _SCHEMA.items():
        if key not in raw:
            values[key] = default
        elif cast is Path:
            values[key] = base_dir / raw[key] if raw[key] else None
        else:
            try:
                values[key] = cast(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}")
            if cast in (float, _parse_float_list) and not np.all(np.isfinite(values[key])):
                raise ConfigError(f"bad value for {key}: {raw[key]!r} is not finite")
    if values["run_dir"] is None:
        raise ConfigError("run_dir is required")
    return values


def _write_artifacts(run_dir: Path, command: str, paths: list[Path]) -> None:
    lines = [str(p.relative_to(run_dir)) for p in paths]
    write_atomic(run_dir / f"artifacts_{command}.txt", "\n".join(lines) + "\n")


def _train_config(cfg: dict, mask=None) -> TrainConfig:
    return TrainConfig(
        lambda_fidelity=cfg["train.lambda"],
        batch_size=cfg["train.batch_size"],
        pretrain_epochs=cfg["train.pretrain_epochs"],
        refine_max_epochs=cfg["train.refine_max_epochs"],
        patience=cfg["train.patience"],
        pretrain_schedule=LrSchedule(cfg["train.pretrain_lr"], cfg["train.lr_decay"],
                                     cfg["train.lr_decay_every"]),
        refine_schedule=LrSchedule(cfg["train.refine_lr"], cfg["train.lr_decay"],
                                   cfg["train.lr_decay_every"]),
        seed_model1=cfg["train.seed_model1"],
        seed_model2=cfg["train.seed_model2"],
        seed_sampling=cfg["train.seed_sampling"],
        mask=mask,
    )


def _load_training_series(cfg: dict):
    manifest_path = cfg["data.manifest"] or cfg["run_dir"] / "phantom" / "noisy.tsv"
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"training manifest not found: {manifest_path} (run phantom first "
            "or set data.manifest)"
        )
    series = load_series(read_manifest(manifest_path))
    mask = None
    mask_path = cfg["data.mask"]
    if mask_path is not None:
        vol = read_nifti(mask_path)
        if vol.dims != series.dims:
            raise ConfigError(f"data.mask {mask_path} has dims {vol.dims}, "
                              f"the training series {series.dims}")
        mask = vol.data > 0
        if not mask.any():
            raise ConfigError(f"data.mask {mask_path} has no nonzero voxel")
    return normalize_intensity(series), mask


def _write_series(out_dir: Path, names, times, frames) -> list[Path]:
    """Write each named series as <name>_w<time>.nii files plus <name>.tsv.

    frames yields, for each time in times, one volume per name in names
    order. One writer thread writes time point k's volumes, in names order,
    while frames builds time point k + 1; k's write is waited for before
    k + 1 is handed over, so at most two time points are alive, and a write
    error is raised at that wait. The manifests follow, in names order.
    Returns every path written, in that order. Any other <name>_w*.nii in
    out_dir is then deleted; other files stay.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    produced = []
    entries = {name: [] for name in names}

    def write(paths, volumes):
        for p, vol in zip(paths, volumes, strict=True):
            write_nifti(vol, p)

    # Not zip over frames: its reused result tuple would keep time point k
    # alive while k + 1 is built, after k's write has ended.
    frames = iter(frames)
    with ThreadPoolExecutor(max_workers=1) as writer:
        pending = None
        for t in times:
            volumes = next(frames)
            paths = [out_dir / f"{name}_w{format_time(t)}.nii" for name in names]
            if pending is not None:
                pending.result()
            pending = writer.submit(write, paths, volumes)
            del volumes  # the writer holds this time point until it is written
            for name, p in zip(names, paths):
                entries[name].append((p, float(t)))
            produced.extend(paths)
        if pending is not None:
            pending.result()
    for name in names:
        p = out_dir / f"{name}.tsv"
        write_manifest(entries[name], p)
        produced.append(p)
    for p in {p for name in names for p in out_dir.glob(f"{name}_w*.nii")} - set(produced):
        p.unlink()
    return produced


def _loss_log(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_phantom(cfg: dict) -> None:
    pcfg = ph.PhantomConfig(
        dims=cfg["phantom.dims"],
        n_times=cfg["phantom.n_times"],
        time_start=cfg["phantom.time_start"],
        time_end=cfg["phantom.time_end"],
        outer_radius=(cfg["phantom.outer_r0"], cfg["phantom.outer_slope"]),
        inner_radius=(cfg["phantom.inner_r0"], cfg["phantom.inner_slope"]),
        edge_width=cfg["phantom.edge_width"],
        structural_jitter_sigma=cfg["phantom.jitter_sigma"],
        intensity_noise_sigma=cfg["phantom.noise_sigma"],
        seed=cfg["phantom.seed"],
    )
    out = cfg["run_dir"] / "phantom"
    produced = _write_series(out, ("clean", "noisy", "labels"), pcfg.times(),
                             ph.frames(pcfg))
    _write_artifacts(cfg["run_dir"], "phantom", produced)
    print(f"phantom: wrote {pcfg.n_times} time points under {out}")


def cmd_pretrain(cfg: dict) -> None:
    series, mask = _load_training_series(cfg)
    tcfg = _train_config(cfg, mask)
    split = split_timepoints(series.times)
    # encoder.* and mlp.* keys are make_model's architecture kwargs.
    arch = {key.split(".", 1)[1]: value for key, value in cfg.items()
            if key.startswith(("encoder.", "mlp."))}

    run_dir = cfg["run_dir"]
    run_dir.mkdir(parents=True, exist_ok=True)
    produced = []
    for name, indices, seed, stream in [
        ("model1", split.set1, tcfg.seed_model1, 0),
        ("model2", split.set2, tcfg.seed_model2, 1),
    ]:
        model = make_model(series, seed=seed, **arch)
        model, losses = pretrain(series, indices, tcfg, model, stream=stream)
        ckpt = run_dir / f"{name}_pretrained.ckpt"
        save_checkpoint(model, ckpt)
        log = run_dir / f"pretrain_{name}.tsv"
        _loss_log(log, "epoch\tloss\tlr",
                  [(e, losses[e], lr_at(tcfg.pretrain_schedule, e))
                   for e in range(len(losses))])
        produced.extend([ckpt, log])
        print(f"pretrain {name}: final loss {losses[-1]:.3e} ({len(losses)} epochs)")
    _write_artifacts(run_dir, "pretrain", produced)


def _load_pair(run_dir: Path, stage: str) -> tuple[InrModel, InrModel]:
    paths = [run_dir / f"model1_{stage}.ckpt", run_dir / f"model2_{stage}.ckpt"]
    for p in paths:
        if not p.is_file():
            raise FileNotFoundError(
                f"checkpoint not found: {p} (run the earlier stage first)"
            )
    return load_checkpoint(paths[0]), load_checkpoint(paths[1])


def cmd_refine(cfg: dict) -> None:
    run_dir = cfg["run_dir"]
    m1, m2 = _load_pair(run_dir, "pretrained")
    series, mask = _load_training_series(cfg)
    tcfg = _train_config(cfg, mask)
    record = series_record(series)
    for name, model in (("model1", m1), ("model2", m2)):
        changed = [key for key, value in record.items() if model.meta.get(key) != value]
        if changed:
            raise ConfigError(f"{run_dir / f'{name}_pretrained.ckpt'} was pretrained on "
                              f"another series ({', '.join(changed)} differ): rerun pretrain")

    split = split_timepoints(series.times)
    m1, m2, hist = refine(m1, m2, series, split, tcfg)
    produced = []
    for name, model in (("model1", m1), ("model2", m2)):
        ckpt = run_dir / f"{name}_refined.ckpt"
        save_checkpoint(model, ckpt)
        produced.append(ckpt)
    log = run_dir / "refine_history.tsv"
    rows = [
        (e, hist.l1[e], hist.l2[e], hist.l_cross[e], hist.l_total[e],
         lr_at(tcfg.refine_schedule, e))
        for e in range(len(hist.l_total))
    ]
    _loss_log(log, "epoch\tl1\tl2\tl_cross\tl_total\tlr", rows)
    produced.append(log)
    _write_artifacts(run_dir, "refine", produced)
    print(f"refine: best epoch {hist.best_epoch}, "
          f"l_total {hist.l_total[hist.best_epoch]:.3e}, "
          f"l_cross {hist.l_cross[hist.best_epoch]:.3e}")


def cmd_infer(cfg: dict) -> None:
    run_dir = cfg["run_dir"]
    stage = cfg["infer.stage"]
    if stage not in ("refined", "pretrained"):
        raise ConfigError(f"infer.stage must be refined or pretrained, got {stage!r}")
    m1, m2 = _load_pair(run_dir, stage)

    meta = m1.meta
    if meta.get("dims") is None:
        raise CheckpointError(
            f"checkpoint has no 'dims' meta: {run_dir / f'model1_{stage}.ckpt'}"
        )
    times = cfg["infer.times"] or meta.get("times")
    if not times:
        raise ConfigError("no inference times: set infer.times")
    scale = cfg["infer.scale"]
    if scale <= 0:
        raise ConfigError("infer.scale must be positive")
    t_range = meta.get("time_range")
    outside = [t for t in times if t_range and not t_range[0] <= t <= t_range[1]]
    if outside:
        print(f"warning: infer times {', '.join(map(format_time, outside))} lie outside "
              f"the training time range [{format_time(t_range[0])}, "
              f"{format_time(t_range[1])}]; the model extrapolates there", file=sys.stderr)

    dims = tuple(max(1, round(d * scale)) for d in meta["dims"])
    spacing = tuple(s / scale for s in meta.get("spacing", (1.0, 1.0, 1.0)))
    recon = reconstruct(m1, m2, dims, spacing, times, meta.get("intensity_scale"))

    out = run_dir / "recon"
    produced = _write_series(out, ("recon",), recon.times, zip(recon.volumes))
    _write_artifacts(run_dir, "infer", produced)
    print(f"infer ({stage}): wrote {len(recon.times)} volumes at dims {dims}")


def cmd_eval(cfg: dict) -> None:
    run_dir = cfg["run_dir"]
    recon_manifest = cfg["eval.recon_manifest"] or run_dir / "recon" / "recon.tsv"
    if not recon_manifest.is_file():
        raise FileNotFoundError(f"reconstruction manifest not found: {recon_manifest} "
                                "(run infer first)")
    ref_manifest = cfg["eval.reference_manifest"] or run_dir / "phantom" / "clean.tsv"
    if not ref_manifest.is_file():
        raise FileNotFoundError(f"reference manifest not found: {ref_manifest}")

    # One (recon, reference) pair is read at a time; only the recon label
    # maps, which tc needs, outlive their pair.
    times, recon_vols = iter_series(read_manifest(recon_manifest), label="recon")
    ref_times, ref_vols = iter_series(read_manifest(ref_manifest), label="reference")
    if not np.array_equal(times, ref_times):
        raise ConfigError("recon and reference series do not match in shape: times "
                          f"{', '.join(map(format_time, times))} against "
                          f"{', '.join(map(format_time, ref_times))}")

    run_dir.mkdir(parents=True, exist_ok=True)
    # Thresholding gives class-1 maps, so DICE and TC score class 1.
    thr = cfg["eval.label_threshold"]
    axis = cfg["eval.efc_axis"]
    efc, dice_row, recon_labels = [], [], []
    sq_sum, ref_max = 0.0, -math.inf
    for t in times:
        # Not zip: its reused result tuple would keep the last pair alive.
        a, b = next(recon_vols), next(ref_vols)
        if a.dims != b.dims:
            raise ConfigError("recon and reference series do not match in shape")
        if not same_spacing(a.spacing, b.spacing):
            raise ConfigError(f"recon and reference series lie on different voxel grids: "
                              f"{recon_manifest} has spacing {a.spacing}, {ref_manifest} "
                              f"has spacing {b.spacing}")
        la, lb = met.threshold_labels(a, thr), met.threshold_labels(b, thr)
        empty = [name for name, lab in (("recon", la), ("reference", lb)) if not lab.data.any()]
        if empty:
            print(f"warning: empty {' and '.join(empty)} label map at time {format_time(t)} "
                  f"(no voxel above eval.label_threshold {format_time(thr)}); dice_1 and tc "
                  "count two empty maps as 100", file=sys.stderr)
        efc.append(met.efc_volume(a, axis))
        dice_row.append(met.dice(la, lb, 1))
        recon_labels.append(la)
        sq_sum += met.squared_error_sum(a, b)
        ref_max = max(ref_max, float(b.data.max()))
        del a, b  # free this pair before the next one is read

    tc_row = [met.tc(recon_labels, None, m, 1) for m in range(len(times))]
    peak = cfg["eval.psnr_peak"]
    if peak <= 0:
        peak = ref_max
    g_mse = sq_sum / (len(times) * math.prod(recon_labels[0].dims))
    g_psnr = met.psnr(g_mse, peak)

    report = met.MetricsReport(
        times=[float(t) for t in times],
        efc=efc,
        tc=tc_row,
        dice=dice_row,
        mse=g_mse,
        psnr=g_psnr,
    )
    out = run_dir / "metrics.tsv"
    write_atomic(out, report.to_tsv())
    _write_artifacts(run_dir, "eval", [out])
    print(f"eval: mse {g_mse:.4e}, psnr {g_psnr:.2f} dB, report at {out}")


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlas4d",
        description="Continuous 4D volume representation and temporal denoising",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("phantom", "generate a synthetic 4D dataset with manifests"),
        ("pretrain", "fit both networks on their time-point halves"),
        ("refine", "jointly refine both networks for temporal consistency"),
        ("infer", "reconstruct volumes from the averaged networks"),
        ("eval", "score a reconstruction against a reference series"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")
        if name == "infer":
            p.add_argument("--times", help="comma-separated times (sets infer.times)")
            p.add_argument("--scale", help="resolution multiplier (sets infer.scale)")
    return parser


_COMMANDS = {"phantom": cmd_phantom, "pretrain": cmd_pretrain, "refine": cmd_refine,
             "infer": cmd_infer, "eval": cmd_eval}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = list(args.overrides)
    # The infer flags are shorthands for their keys and win over --set.
    if args.command == "infer":
        if args.times:
            overrides.append(f"infer.times={args.times}")
        if args.scale is not None:
            overrides.append(f"infer.scale={args.scale}")
    try:
        _COMMANDS[args.command](load_config(args.config, overrides))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
