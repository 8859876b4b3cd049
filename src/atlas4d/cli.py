"""Command-line front end: phantom | pretrain | refine | infer | eval.

Configuration comes from a `key = value` file (`#` starts a comment) with
optional `--set key=value` overrides; unknown keys are rejected. Every
command writes its outputs under the configured run directory and records
them in an `artifacts_<command>.txt` manifest. All randomness flows from
config seeds, so a rerun with the same config reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics as met
from . import phantom as ph
from .network import CheckpointError, InrModel, load_checkpoint, save_checkpoint
from .optimizer import LrSchedule, lr_at
from .training import (
    TrainConfig,
    make_model,
    pretrain,
    reconstruct,
    refine,
    split_timepoints,
)
from .volume_io import (
    Volume3D,
    load_series,
    normalize_intensity,
    read_manifest,
    read_nifti,
    write_manifest,
    write_nifti,
)


class ConfigError(ValueError):
    pass


class StageOrderError(RuntimeError):
    pass


def _parse_int_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.split(",") if p.strip())


def _parse_float_list(s: str) -> list[float]:
    return [float(p) for p in s.split(",") if p.strip()]


# key -> (parser, default). Paths stay strings here; resolution happens at
# use time relative to the config file's directory.
_SCHEMA = {
    "run_dir": (str, None),
    "threads": (int, 0),
    "phantom.dims": (_parse_int_tuple, (32, 32, 32)),
    "phantom.n_times": (int, 10),
    "phantom.time_start": (float, 21.0),
    "phantom.time_end": (float, 30.0),
    "phantom.outer_r0": (float, 10.0),
    "phantom.outer_slope": (float, 0.3),
    "phantom.inner_r0": (float, 4.6),
    "phantom.inner_slope": (float, 0.3),
    "phantom.level_background": (float, 0.0),
    "phantom.level_tissue": (float, 0.5),
    "phantom.level_inner": (float, 1.0),
    "phantom.edge_width": (float, 1.8),
    "phantom.jitter_sigma": (float, 1.5),
    "phantom.noise_sigma": (float, 0.02),
    "phantom.seed": (int, 0),
    "data.manifest": (str, ""),
    "data.mask": (str, ""),
    "encoder.l_space": (int, 128),
    "encoder.l_time": (int, 32),
    "mlp.hidden_width": (int, 256),
    "mlp.n_layers": (int, 18),
    "mlp.skip_layers": (_parse_int_tuple, (6, 12)),
    "mlp.bn_momentum": (float, 0.1),
    "mlp.bn_epsilon": (float, 1e-5),
    "train.lambda": (float, 0.1),
    "train.batch_size": (int, 25000),
    "train.pretrain_epochs": (int, 500),
    "train.refine_max_epochs": (int, 300),
    "train.patience": (int, 50),
    "train.pretrain_lr": (float, 1e-4),
    "train.refine_lr": (float, 1e-4),
    "train.lr_decay": (float, 0.5),
    "train.lr_decay_every": (int, 100),
    "train.seed_model1": (int, 11),
    "train.seed_model2": (int, 22),
    "train.seed_sampling": (int, 33),
    "infer.times": (_parse_float_list, []),
    "infer.scale": (float, 1.0),
    "infer.stage": (str, "refined"),
    "eval.recon_manifest": (str, ""),
    "eval.reference_manifest": (str, ""),
    "eval.label_threshold": (float, 0.75),
    "eval.efc_axis": (int, 2),
    "eval.tc_class": (int, 1),
    "eval.psnr_peak": (float, 0.0),  # 0 = use the reference maximum
}


@dataclass
class RunConfig:
    values: dict
    base_dir: Path

    def __getitem__(self, key):
        return self.values[key]

    @property
    def run_dir(self) -> Path:
        raw = self.values["run_dir"]
        if raw is None:
            raise ConfigError("run_dir is required")
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p

    def path(self, key: str, default: Path | None = None) -> Path | None:
        raw = self.values[key]
        if not raw:
            return default
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p


def load_config(path, overrides=()) -> RunConfig:
    """Parse and validate the config file plus `key=value` overrides."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, val = (part.strip() for part in line.split("=", 1))
        raw[key] = val
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        raw[key] = val

    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, (cast, default) in _SCHEMA.items():
        if key in raw:
            try:
                values[key] = cast(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}")
        else:
            values[key] = default
    return RunConfig(values=values, base_dir=path.parent.resolve())


def _limit_threads(cfg: RunConfig):
    n = cfg["threads"]
    if n <= 0:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass  # best effort: thread count stays at the library default


def _write_artifacts(run_dir: Path, command: str, paths: list[Path]) -> None:
    lines = [str(p.relative_to(run_dir)) for p in paths]
    (run_dir / f"artifacts_{command}.txt").write_text("\n".join(lines) + "\n")


def _train_config(cfg: RunConfig, mask=None) -> TrainConfig:
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


def _load_training_series(cfg: RunConfig):
    manifest_path = cfg.path("data.manifest",
                             cfg.run_dir / "phantom" / "noisy.tsv")
    if not manifest_path.is_file():
        raise StageOrderError(
            f"training manifest not found: {manifest_path} (run phantom first "
            "or set data.manifest)"
        )
    series = load_series(read_manifest(manifest_path))
    mask = None
    mask_path = cfg.path("data.mask")
    if mask_path is not None:
        mask = read_nifti(mask_path).data > 0
    return normalize_intensity(series), mask


def _loss_log(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_phantom(cfg: RunConfig) -> None:
    pcfg = ph.PhantomConfig(
        dims=cfg["phantom.dims"],
        n_times=cfg["phantom.n_times"],
        time_start=cfg["phantom.time_start"],
        time_end=cfg["phantom.time_end"],
        outer_radius=(cfg["phantom.outer_r0"], cfg["phantom.outer_slope"]),
        inner_radius=(cfg["phantom.inner_r0"], cfg["phantom.inner_slope"]),
        levels=(cfg["phantom.level_background"], cfg["phantom.level_tissue"],
                cfg["phantom.level_inner"]),
        edge_width=cfg["phantom.edge_width"],
        structural_jitter_sigma=cfg["phantom.jitter_sigma"],
        intensity_noise_sigma=cfg["phantom.noise_sigma"],
        seed=cfg["phantom.seed"],
    )
    clean, noisy, labels = ph.generate(pcfg)
    out = cfg.run_dir / "phantom"
    out.mkdir(parents=True, exist_ok=True)

    produced = []
    manifests = {"clean": [], "noisy": [], "labels": []}
    for k, t in enumerate(clean.times):
        for name, vol in (("clean", clean.volumes[k]), ("noisy", noisy.volumes[k])):
            p = out / f"{name}_w{t:g}.nii"
            write_nifti(vol, p)
            manifests[name].append((p, float(t)))
            produced.append(p)
        lab = labels[k]
        p = out / f"labels_w{t:g}.nii"
        write_nifti(Volume3D(lab.dims, lab.spacing, lab.data.astype(np.float64)), p)
        manifests["labels"].append((p, float(t)))
        produced.append(p)
    for name, entries in manifests.items():
        mp = out / f"{name}.tsv"
        write_manifest(entries, mp)
        produced.append(mp)
    _write_artifacts(cfg.run_dir, "phantom", produced)
    print(f"phantom: wrote {len(clean.times)} time points under {out}")


def cmd_pretrain(cfg: RunConfig) -> None:
    series, mask = _load_training_series(cfg)
    tcfg = _train_config(cfg, mask)
    split = split_timepoints(series.times)

    run_dir = cfg.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    produced = []
    for name, indices, seed, stream in [
        ("model1", split.set1, tcfg.seed_model1, 0),
        ("model2", split.set2, tcfg.seed_model2, 1),
    ]:
        model = make_model(
            series,
            l_space=cfg["encoder.l_space"],
            l_time=cfg["encoder.l_time"],
            hidden_width=cfg["mlp.hidden_width"],
            n_layers=cfg["mlp.n_layers"],
            skip_layers=cfg["mlp.skip_layers"],
            bn_momentum=cfg["mlp.bn_momentum"],
            bn_epsilon=cfg["mlp.bn_epsilon"],
            seed=seed,
        )
        model.meta["half"] = name
        model.meta["time_indices"] = [int(i) for i in indices]
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
            raise StageOrderError(
                f"checkpoint not found: {p} (run the earlier stage first)"
            )
    return load_checkpoint(paths[0]), load_checkpoint(paths[1])


def cmd_refine(cfg: RunConfig) -> None:
    run_dir = cfg.run_dir
    m1, m2 = _load_pair(run_dir, "pretrained")
    series, mask = _load_training_series(cfg)
    tcfg = _train_config(cfg, mask)
    split = split_timepoints(series.times)
    if m1.meta.get("time_indices") != [int(i) for i in split.set1]:
        raise ConfigError("training manifest changed since pretrain")

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


def cmd_infer(cfg: RunConfig, times=None, scale=None) -> None:
    run_dir = cfg.run_dir
    stage = cfg["infer.stage"]
    if stage not in ("refined", "pretrained"):
        raise ConfigError(f"infer.stage must be refined or pretrained, got {stage!r}")
    m1, m2 = _load_pair(run_dir, stage)

    meta = m1.meta
    if meta.get("dims") is None:
        raise CheckpointError(
            f"checkpoint has no 'dims' meta: {run_dir / f'model1_{stage}.ckpt'}"
        )
    if times is None:
        times = cfg["infer.times"] or meta.get("times")
    if not times:
        raise ConfigError("no inference times: set infer.times")
    if scale is None:
        scale = cfg["infer.scale"]
    if scale <= 0:
        raise ConfigError("infer.scale must be positive")

    dims = tuple(max(1, round(d * scale)) for d in meta["dims"])
    spacing = tuple(s / scale for s in meta.get("spacing", (1.0, 1.0, 1.0)))
    scale_pair = meta.get("intensity_scale")
    recon = reconstruct(m1, m2, dims, spacing, times,
                        None if scale_pair is None else tuple(scale_pair))

    out = run_dir / "recon"
    out.mkdir(parents=True, exist_ok=True)
    produced = []
    entries = []
    for k, t in enumerate(recon.times):
        p = out / f"recon_w{t:g}.nii"
        write_nifti(recon.volumes[k], p)
        entries.append((p, float(t)))
        produced.append(p)
    mp = out / "recon.tsv"
    write_manifest(entries, mp)
    produced.append(mp)
    _write_artifacts(run_dir, "infer", produced)
    print(f"infer ({stage}): wrote {len(entries)} volumes at dims {dims}")


def cmd_eval(cfg: RunConfig) -> None:
    run_dir = cfg.run_dir
    recon_manifest = cfg.path("eval.recon_manifest", run_dir / "recon" / "recon.tsv")
    if not recon_manifest.is_file():
        raise StageOrderError(f"reconstruction manifest not found: {recon_manifest} "
                              "(run infer first)")
    ref_manifest = cfg.path("eval.reference_manifest",
                            run_dir / "phantom" / "clean.tsv")
    if ref_manifest is None or not ref_manifest.is_file():
        raise ConfigError(f"reference manifest not found: {ref_manifest}")

    recon = load_series(read_manifest(recon_manifest), label="recon")
    ref = load_series(read_manifest(ref_manifest), label="reference")
    if recon.n_times != ref.n_times or recon.dims != ref.dims:
        raise ConfigError("recon and reference series do not match in shape")

    thr = cfg["eval.label_threshold"]
    cls = cfg["eval.tc_class"]
    axis = cfg["eval.efc_axis"]
    recon_labels = [met.threshold_labels(v, thr, cls) for v in recon.volumes]
    ref_labels = [met.threshold_labels(v, thr, cls) for v in ref.volumes]

    efc = [met.efc_volume(v, axis) for v in recon.volumes]
    dice_row = [met.dice(a, b, cls) for a, b in zip(recon_labels, ref_labels)]
    tc_row = [met.tc(recon_labels, None, m, cls) for m in range(recon.n_times)]
    peak = cfg["eval.psnr_peak"]
    if peak <= 0:
        peak = float(max(v.data.max() for v in ref.volumes))
    g_mse = met.series_mse(recon, ref)
    g_psnr = float("inf") if g_mse == 0 else 10.0 * np.log10(peak * peak / g_mse)

    report = met.MetricsReport(
        times=[float(t) for t in recon.times],
        efc=efc,
        tc=tc_row,
        dice={cls: dice_row},
        mse=g_mse,
        psnr=g_psnr,
    )
    out = run_dir / "metrics.tsv"
    out.write_text(report.to_tsv())
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
            p.add_argument("--times", help="comma-separated times to reconstruct")
            p.add_argument("--scale", type=float, help="spatial resolution multiplier")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        _limit_threads(cfg)
        if args.command == "phantom":
            cmd_phantom(cfg)
        elif args.command == "pretrain":
            cmd_pretrain(cfg)
        elif args.command == "refine":
            cmd_refine(cfg)
        elif args.command == "infer":
            times = _parse_float_list(args.times) if args.times else None
            cmd_infer(cfg, times=times, scale=args.scale)
        elif args.command == "eval":
            cmd_eval(cfg)
    except (ConfigError, StageOrderError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
