"""The benchmark's workloads: inputs from the seed, timed operations, checks.

Every workload is a closed loop with one caller: each operation waits for
the previous one. `setup` prepares the inputs (it is timed on its own and
repeated), `step` runs one round of timed operations and checks their
outputs, and `output_mse` gives the mean squared error of the workload's
output against its reference, measured in the first round (each workload's
class says which). The runner times the rounds. All calls into atlas4d go
through module attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from atlas4d import cli, metrics, network, optimizer, phantom, training, volume_io

# Acceptance phantom and architecture (tests/test_acceptance.py, README).
ACCEPTANCE_PHANTOM = {"structural_jitter_sigma": 1.5, "intensity_noise_sigma": 0.02}
ACCEPTANCE_ARCH = {"l_space": 40, "l_time": 12, "hidden_width": 48}
ACCEPTANCE_BATCH = 3072
PRETRAIN_LR = 2.5e-3
REFINE_LR = 1e-3


@dataclass
class Op:
    """One attempted operation: a call into atlas4d and its checks."""

    name: str
    seconds: float = 0.0
    result: object = None
    ok: bool = True


class Run:
    """Counts operations and failures; times and traces each call."""

    def __init__(self, workdir: Path, seed: int, tracer):
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        self.tracing = False
        self.ops: list[Op] = []

    def op(self, name: str, fn, *args, **kwargs) -> Op:
        """Call fn once, timed; an exception marks the operation failed."""
        op = Op(name)
        self.ops.append(op)
        enabled, self.tracer.enabled = self.tracer.enabled, self.tracing
        try:
            with self.tracer.span(f"bench.{name}"):
                t0 = time.perf_counter()
                op.result = fn(*args, **kwargs)
                op.seconds = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            op.ok = False
        finally:
            self.tracer.enabled = enabled
        return op

    def cli(self, command: str, config: Path, name: str | None = None) -> Op:
        """Run one `atlas4d` command in-process; a nonzero code is a failure."""
        op = self.op(name or command, cli.main, [command, "--config", str(config)])
        self.expect(op, op.result == 0, f"atlas4d {command} returned {op.result}")
        return op

    def expect(self, op: Op, condition, what: str) -> bool:
        if not condition:
            print(f"check failed [{op.name}]: {what}", file=sys.stderr)
            op.ok = False
        return bool(condition)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _write_config(path: Path, entries: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


def _acceptance_series(seed: int):
    cfg = phantom.PhantomConfig(seed=seed, **ACCEPTANCE_PHANTOM)
    _, noisy, _ = phantom.generate(cfg)
    return volume_io.normalize_intensity(noisy)


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------


class Train:
    """pretrain on both halves, then refine, with fixed epoch budgets.

    output_mse: the mean of both models' last pretrain losses (MSE against
    the normalized noisy series).
    """

    name = "train"
    PRETRAIN_EPOCHS = 8
    REFINE_EPOCHS = 3

    def setup(self, run: Run, rep: int) -> dict:
        series = _acceptance_series(run.seed)
        tcfg = training.TrainConfig(
            batch_size=ACCEPTANCE_BATCH,
            pretrain_epochs=self.PRETRAIN_EPOCHS,
            refine_max_epochs=self.REFINE_EPOCHS,
            # patience above the budget: every commit runs the same epochs
            patience=self.REFINE_EPOCHS + 1,
            pretrain_schedule=optimizer.LrSchedule(PRETRAIN_LR),
            refine_schedule=optimizer.LrSchedule(REFINE_LR),
        )
        return {"series": series, "split": training.split_timepoints(series.times),
                "tcfg": tcfg}

    def step(self, run: Run, st: dict) -> None:
        series, split, tcfg = st["series"], st["split"], st["tcfg"]
        made = run.op("make_models", lambda: [
            training.make_model(series, seed=s, **ACCEPTANCE_ARCH)
            for s in (tcfg.seed_model1, tcfg.seed_model2)])
        if not made.ok:
            return
        m1, m2 = made.result
        p1 = run.op("pretrain", training.pretrain, series, split.set1, tcfg, m1, stream=0)
        p2 = run.op("pretrain", training.pretrain, series, split.set2, tcfg, m2, stream=1)
        for op in (p1, p2):
            if op.ok:
                losses = op.result[1]
                run.expect(op, len(losses) == self.PRETRAIN_EPOCHS, "pretrain epoch count")
                run.expect(op, np.all(np.isfinite(losses)), "non-finite pretrain loss")
                run.expect(op, losses[-1] < losses[0], "pretrain loss did not decrease")
        if not (p1.ok and p2.ok):
            return
        ref = run.op("refine", training.refine, m1, m2, series, split, tcfg)
        if not ref.ok:
            return
        hist = ref.result[2]
        run.expect(ref, len(hist.l_total) == self.REFINE_EPOCHS, "refine epoch count")
        run.expect(ref, np.all(np.isfinite(hist.l_total)), "non-finite refine loss")
        run.expect(ref, hist.best_epoch == int(np.argmin(hist.l_total)),
                   "best_epoch is not the argmin of l_total")
        outcome = (p1.result[1], p2.result[1], hist.l_total)
        if "outcome" in st:
            run.expect(ref, outcome == st["outcome"],
                       "losses differ from the first round (not reproducible)")
        else:
            st["outcome"] = outcome

    def output_mse(self, st: dict) -> float:
        l1, l2, _ = st["outcome"]
        return 0.5 * (l1[-1] + l2[-1])


class Infer:
    """`atlas4d infer` on refined checkpoints of the acceptance architecture.

    output_mse: `series_mse` of the reconstruction against the clean series.
    """

    name = "infer"
    # The checkpoints are fitted to one fixed phantom with fixed training
    # seeds, so output_mse repeats exactly across workload seeds; the seed
    # picks the grid points spot-checked against average_predict.
    PHANTOM_SEED = 101
    PRETRAIN_EPOCHS = 8
    REFINE_EPOCHS = 3
    SPOT_POINTS = 64

    def setup(self, run: Run, rep: int) -> dict:
        d = _fresh_dir(run.workdir / f"infer-setup{rep}")
        config = _write_config(d / "run.cfg", {
            "run_dir": "run",
            "phantom.seed": self.PHANTOM_SEED,
            "phantom.jitter_sigma": ACCEPTANCE_PHANTOM["structural_jitter_sigma"],
            "phantom.noise_sigma": ACCEPTANCE_PHANTOM["intensity_noise_sigma"],
            "encoder.l_space": ACCEPTANCE_ARCH["l_space"],
            "encoder.l_time": ACCEPTANCE_ARCH["l_time"],
            "mlp.hidden_width": ACCEPTANCE_ARCH["hidden_width"],
            "train.batch_size": ACCEPTANCE_BATCH,
            "train.pretrain_epochs": self.PRETRAIN_EPOCHS,
            "train.refine_max_epochs": self.REFINE_EPOCHS,
            "train.patience": self.REFINE_EPOCHS + 1,
            "train.pretrain_lr": PRETRAIN_LR,
            "train.refine_lr": REFINE_LR,
        })
        last = None
        for command in ("phantom", "pretrain", "refine"):
            last = run.cli(command, config, name=f"setup.{command}")
            if not last.ok:
                raise RuntimeError(f"infer setup failed at atlas4d {command}")
        run_dir = d / "run"
        ckpts = [run_dir / f"model{i}_refined.ckpt" for i in (1, 2)]
        st = {"config": config, "run_dir": run_dir, "ckpt_digest": _file_digest(ckpts),
              "recon_digest": None}
        if rep > 0:
            prev = run.workdir / f"infer-setup{rep - 1}" / "run"
            run.expect(last, st["ckpt_digest"] == _file_digest(
                [prev / p.name for p in ckpts]), "refined checkpoints differ between setups")
            shutil.rmtree(prev.parent)
        return st

    def step(self, run: Run, st: dict) -> None:
        op = run.cli("infer", st["config"])
        if not op.ok:
            return
        run_dir = st["run_dir"]
        manifest = volume_io.read_manifest(run_dir / "recon" / "recon.tsv")
        recon = volume_io.load_series(manifest, label="recon")
        m1, m2 = (network.load_checkpoint(run_dir / f"model{i}_refined.ckpt")
                  for i in (1, 2))
        meta = m1.meta
        gmin, gmax = meta["intensity_scale"]
        tol = 1e-6 * max(abs(gmin), abs(gmax))  # float32 payload rounding
        stack = recon.stack()
        run.expect(op, recon.dims == tuple(meta["dims"]), f"recon dims {recon.dims}")
        run.expect(op, np.allclose(recon.times, meta["times"]), "recon times")
        run.expect(op, np.all(np.isfinite(stack)), "non-finite recon voxel")
        run.expect(op, stack.min() >= gmin - tol and stack.max() <= gmax + tol,
                   "recon outside the training intensity range")

        m1.eval()
        m2.eval()
        rng = np.random.default_rng(run.seed)
        grid = volume_io.coord_grid(recon.dims)
        for k in rng.choice(recon.n_times, size=3, replace=False):
            vox = rng.choice(grid.shape[0], size=self.SPOT_POINTS, replace=False)
            tn = volume_io.normalize_times([recon.times[k]], meta["time_range"])[0]
            pts = np.column_stack([grid[vox], np.full(vox.size, tn)])
            want = volume_io.denormalize_intensity(
                np.clip(training.average_predict(m1, m2, pts), 0.0, 1.0), (gmin, gmax))
            got = recon.volumes[k].flat()[vox]
            run.expect(op, np.max(np.abs(got - want)) <= tol,
                       f"recon differs from average_predict at time {recon.times[k]:g}")

        digest = _file_digest(p for p, _ in manifest)
        if st["recon_digest"] is None:
            st["recon_digest"] = digest
            clean = volume_io.load_series(
                volume_io.read_manifest(run_dir / "phantom" / "clean.tsv"))
            st["mse"] = metrics.series_mse(recon, clean)
        else:
            run.expect(op, digest == st["recon_digest"], "recon bytes differ between runs")

    def output_mse(self, st: dict) -> float:
        return st["mse"]


class Eval:
    """`atlas4d phantom` on an atlas-sized grid, then `atlas4d eval` on it.

    output_mse: the MSE `atlas4d eval` reports for the noisy series against
    the clean one, checked against a direct `series_mse`.
    """

    name = "eval"
    DIMS = (112, 112, 112)

    def setup(self, run: Run, rep: int) -> dict:
        # The in-memory phantom is the reference the written files must match.
        cfg = phantom.PhantomConfig(dims=self.DIMS, seed=run.seed, **ACCEPTANCE_PHANTOM)
        clean, noisy, labels = phantom.generate(cfg)
        d = _fresh_dir(run.workdir / "eval")
        config = _write_config(d / "run.cfg", {
            "run_dir": "run",
            "phantom.dims": ",".join(str(n) for n in self.DIMS),
            "phantom.seed": run.seed,
            "phantom.jitter_sigma": ACCEPTANCE_PHANTOM["structural_jitter_sigma"],
            "phantom.noise_sigma": ACCEPTANCE_PHANTOM["intensity_noise_sigma"],
            "eval.recon_manifest": "run/phantom/noisy.tsv",
        })
        reference = {"clean": [v.data for v in clean.volumes],
                     "noisy": [v.data for v in noisy.volumes],
                     "labels": [lab.data for lab in labels]}
        return {"config": config, "run_dir": d / "run", "reference": reference}

    def step(self, run: Run, st: dict) -> None:
        shutil.rmtree(st["run_dir"], ignore_errors=True)
        ph = run.cli("phantom", st["config"])
        if not ph.ok:
            return
        out = st["run_dir"] / "phantom"
        series = {}
        for name, ref in st["reference"].items():
            manifest = volume_io.read_manifest(out / f"{name}.tsv")
            run.expect(ph, len(manifest) == len(ref), f"{name} manifest length")
            vols = [volume_io.read_nifti(p) for p, _ in manifest]
            for vol, want in zip(vols, ref):
                run.expect(ph, np.array_equal(vol.data, want.astype(np.float32)),
                           f"{name} volume differs from phantom.generate")
            if name != "labels":
                series[name] = volume_io.Volume4D(vols, [t for _, t in manifest])

        ev = run.cli("eval", st["config"])
        if not ev.ok:
            return
        rows = {}
        for line in (st["run_dir"] / "metrics.tsv").read_text().splitlines()[1:]:
            key, *values = line.split("\t")
            rows[key] = [float(v) for v in values]
        direct = metrics.series_mse(series["noisy"], series["clean"])
        run.expect(ev, rows["mse"] == [float(f"{direct:.6g}")],
                   f"reported mse {rows['mse']} != direct series_mse {direct:.6g}")
        for key in ("dice_1", "tc"):
            run.expect(ev, all(0.0 <= v <= 100.0 for v in rows[key]),
                       f"{key} outside [0, 100]")
        run.expect(ev, len(rows["efc"]) == len(series["noisy"].volumes)
                   and all(0.0 <= v <= 1.0 for v in rows["efc"]), "efc row")
        st.setdefault("mse", rows["mse"][0])

    def output_mse(self, st: dict) -> float:
        return st["mse"]


class TrainPaper:
    """Paper-default pretrain steps on the acceptance phantom.

    output_mse: the loss of the first step (every round trains on).
    """

    name = "train_paper"
    BATCH = 25000  # paper default, as are the make_model width and encoder sizes

    def setup(self, run: Run, rep: int) -> dict:
        series = _acceptance_series(run.seed)
        tcfg = training.TrainConfig(batch_size=self.BATCH, pretrain_epochs=1)
        model = training.make_model(series, seed=tcfg.seed_model1)
        return {"series": series, "split": training.split_timepoints(series.times),
                "tcfg": tcfg, "model": model}

    def step(self, run: Run, st: dict) -> None:
        op = run.op("pretrain_step", training.pretrain, st["series"], st["split"].set1,
                    st["tcfg"], st["model"])
        if op.ok and run.expect(op, np.all(np.isfinite(op.result[1])),
                                "non-finite paper-step loss"):
            st.setdefault("mse", op.result[1][-1])

    def output_mse(self, st: dict) -> float:
        return st["mse"]


WORKLOADS = {w.name: w for w in (Train(), Infer(), Eval(), TrainPaper())}
