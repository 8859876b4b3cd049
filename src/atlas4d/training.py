"""Three-stage training pipeline over a 4D series.

Stage 1 fits two networks independently, one per interleaved half of the
time points (both halves share the endpoints). Stage 2 jointly refines both
networks on a combined objective: lambda-weighted fidelity of each network
on its own half plus the cross-consistency MSE between their predictions at
midpoint times no network has seen; the state with the lowest combined loss
is kept. Stage 3 reconstructs volumes from the average of the two refined
networks at arbitrary times and spatial resolutions.

One epoch is one optimizer step on one freshly drawn uniform mini-batch;
batches are keyed by (sampling seed, stream, epoch) so runs are exactly
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import FourierEncoder
from .network import InrModel, MlpConfig, eval_buffers, init_mlp
from .optimizer import AdamState, DivergenceError, LrSchedule, adam_step, lr_at, sum_grads
from .pairing import run_pair
from .volume_io import (SERIES_RECORD, Volume3D, Volume4D, denormalize_intensity, grid_dims,
                        normalize_times, voxel_coords)


@dataclass
class TimeSplit:
    """Index split of a time axis into two endpoint-sharing halves."""

    t_total: np.ndarray
    set1: list[int]
    set2: list[int]
    midpoints: np.ndarray

    @property
    def times_set1(self) -> np.ndarray:
        return self.t_total[self.set1]

    @property
    def times_set2(self) -> np.ndarray:
        return self.t_total[self.set2]


def split_timepoints(times) -> TimeSplit:
    """Alternate interior time points between two sets that share endpoints.

    Midpoints are the consecutive-pair means of the full time list, minus
    any that collide with an existing time point.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or len(t) < 4:
        raise ValueError("too few time points: need at least 4")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")

    last = len(t) - 1
    set1 = [0] + [i for i in range(1, last) if i % 2 == 0] + [last]
    set2 = [0] + [i for i in range(1, last) if i % 2 == 1] + [last]
    mids = (t[:-1] + t[1:]) / 2.0
    members = set(t.tolist())
    mids = np.array([m for m in mids if m not in members])
    return TimeSplit(t_total=t, set1=set1, set2=set2, midpoints=mids)


@dataclass
class TrainConfig:
    lambda_fidelity: float = 0.1
    batch_size: int = 25000
    pretrain_epochs: int = 500
    refine_max_epochs: int = 300
    patience: int = 50
    pretrain_schedule: LrSchedule = field(default_factory=LrSchedule)
    refine_schedule: LrSchedule = field(default_factory=LrSchedule)
    seed_model1: int = 11
    seed_model2: int = 22
    seed_sampling: int = 33
    mask: np.ndarray | None = None  # boolean foreground mask over the grid

    def __post_init__(self):
        if self.lambda_fidelity < 0:
            raise ValueError("lambda_fidelity must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.pretrain_epochs < 1 or self.refine_max_epochs < 1:
            raise ValueError("epoch budgets must be >= 1")


@dataclass
class RefineHistory:
    l1: list[float] = field(default_factory=list)
    l2: list[float] = field(default_factory=list)
    l_cross: list[float] = field(default_factory=list)
    l_total: list[float] = field(default_factory=list)
    best_epoch: int = -1


class _Sampler:
    """Uniform coordinate/intensity sampling over (masked voxels) x times.

    It keeps the series' volumes and copies nothing of size O(voxels)
    but a mask's voxel pool: coordinates come from voxel_coords and
    intensities from each drawn time's volume, so a draw equals
    coord_grid(dims)[vox] and series.stack()[tix, vox] bit for bit.
    """

    def __init__(self, series: Volume4D, mask: np.ndarray | None = None):
        self.dims = series.dims
        self.volumes = [v.data for v in series.volumes]
        self.t_norm = normalize_times(series.times, series.time_range)
        self.pool = None  # flat voxel indices of a mask; None samples every voxel
        self.pool_size = math.prod(self.dims)
        if mask is not None:
            mask = np.asarray(mask)
            if mask.shape != series.dims:
                raise ValueError("mask shape does not match series dims")
            self.pool = np.flatnonzero(mask.ravel(order="F"))
            self.pool_size = self.pool.size
            if self.pool_size == 0:
                raise ValueError("empty mask")

    def _draw(self, times: np.ndarray, n: int, rng: np.random.Generator):
        """n uniform (voxel index, entry of `times`) pairs, voxels drawn first."""
        if times.size == 0:
            raise ValueError("no time points to sample")
        vox = rng.integers(0, self.pool_size, n)
        if self.pool is not None:
            vox = self.pool[vox]
        return vox, times[rng.integers(0, times.size, n)]

    def draw(self, time_indices, n: int, rng: np.random.Generator):
        """n random ((x, y, z, t_norm), intensity) pairs from given times."""
        vox, tix = self._draw(np.asarray(time_indices, dtype=np.int64), n, rng)
        points = np.column_stack([voxel_coords(self.dims, vox), self.t_norm[tix]])
        ijk = np.unravel_index(vox, self.dims, order="F")
        values = np.empty(n)
        for t in np.unique(tix):
            at_t = tix == t
            values[at_t] = self.volumes[t][tuple(i[at_t] for i in ijk)]
        return points, values

    def draw_coords(self, t_norm_values, n: int, rng: np.random.Generator) -> np.ndarray:
        """n random coordinates at the given (already normalized) times."""
        vox, t = self._draw(np.asarray(t_norm_values, dtype=np.float64), n, rng)
        return np.column_stack([voxel_coords(self.dims, vox), t])


def _epoch_rng(seed: int, stream: int, epoch: int) -> np.random.Generator:
    # Keyed, counter-style stream: independent of call order across epochs.
    return np.random.default_rng([seed, stream, epoch])


def series_record(series: Volume4D) -> dict:
    """The meta a model fitted to `series` keeps (volume_io.SERIES_RECORD):
    time range (which sets the time normalization), times, dims, spacing
    and intensity scale if any."""
    record = {key: getattr(series, key) for key in SERIES_RECORD}
    return {key: np.asarray(value).tolist() for key, value in record.items()
            if value is not None}


def make_model(series: Volume4D, *, seed: int = 0, **arch) -> InrModel:
    """Initialize a network plus encoder sized for a series.

    `arch` takes FourierEncoder's `l_space`/`l_time` and any MlpConfig
    field but `input_dim`; what it omits keeps its owner's default.
    """
    enc = {k: arch.pop(k) for k in ("l_space", "l_time") if k in arch}
    encoder = FourierEncoder(**enc, seed=seed)
    model = init_mlp(MlpConfig(input_dim=encoder.out_dim, **arch), seed=seed, encoder=encoder)
    model.meta = series_record(series)
    return model


def _run(model: InrModel, points: np.ndarray):
    """(prediction, forward cache) of a train-mode model at raw points."""
    return model.forward(model.encoder.encode(points))


def _mse(pred: np.ndarray, target: np.ndarray, weight: float = 1.0):
    """(MSE, gradient of weight * MSE with respect to pred)."""
    err = pred - target
    return float(np.mean(err * err)), weight * 2.0 * err / err.size


def _step(model: InrModel, sampler: _Sampler, time_indices, n: int,
          rng: np.random.Generator, weight: float = 1.0, *, backward: bool = True):
    """(MSE, gradients of weight * MSE or None) of a model on one fresh
    batch drawn from the given times; the forward cache dies on return."""
    points, target = sampler.draw(time_indices, n, rng)
    pred, cache = _run(model, points)
    loss, d_out = _mse(pred, target, weight)
    return loss, (model.backward(cache, d_out) if backward else None)


def _update(model: InrModel, params, adam: AdamState, lr: float, grads) -> None:
    """One Adam step on a gradient dict."""
    adam_step(params, grads, adam, lr)
    model.mark_updated()


def pretrain(series: Volume4D, time_indices, cfg: TrainConfig,
             model: InrModel, *, stream: int = 0):
    """Fit one model to its half of the series by mini-batch MSE descent.

    Returns (model, per-epoch loss list), the losses taken before each
    epoch's update.
    """
    sampler = _Sampler(series, cfg.mask)
    model.train()
    params = model.params()
    adam = AdamState(params)
    losses: list[float] = []
    for epoch in range(cfg.pretrain_epochs):
        rng = _epoch_rng(cfg.seed_sampling, stream, epoch)
        loss, grads = _step(model, sampler, time_indices, cfg.batch_size, rng)
        if not np.isfinite(loss):
            raise DivergenceError(f"divergence: non-finite loss at epoch {epoch}")
        _update(model, params, adam, lr_at(cfg.pretrain_schedule, epoch), grads)
        losses.append(loss)
    return model, losses


def pretrain_pair(series: Volume4D, split: TimeSplit, cfg: TrainConfig,
                  m1: InrModel, m2: InrModel):
    """Pretrain m1 on split.set1 (stream 0) and m2 on split.set2 (stream 1).

    Returns ((m1, losses1), (m2, losses2)), what the two pretrain calls
    would return, bit for bit. m2 is fitted in a second process where the
    box allows (pairing.run_pair) and takes the child's state on return.
    """
    (_, losses1), (state2, losses2) = run_pair(
        _pretrain_side(series, split.set1, cfg, m1, 0),
        _pretrain_side(series, split.set2, cfg, m2, 1), "model 2")
    m2.train()
    m2.load_snapshot(state2)
    return (m1, losses1), (m2, losses2)


def _pretrain_side(series, time_indices, cfg, model, stream):
    """pretrain as a pairing side: it sends no messages; returns (state, losses)."""
    yield from ()  # a generator with no step: the two fits never meet
    model, losses = pretrain(series, time_indices, cfg, model, stream=stream)
    return model.state, losses


def refine(m1: InrModel, m2: InrModel, series: Volume4D, split: TimeSplit,
           cfg: TrainConfig):
    """Jointly refine both models on fidelity plus cross-consistency.

    Each epoch draws one batch per loss term: fidelity of model 1 on its
    half, fidelity of model 2 on its half, and the MSE between both models
    at midpoint times. The recorded losses are the pre-update values; the
    returned models carry the state of the best recorded combined loss, and
    the loop stops early when that loss has not improved for `patience`
    epochs.

    Each model runs its own loop (_refine_side), model 2's in a second
    process where the box allows (pairing.run_pair); the loops meet once
    per epoch to swap their fidelity losses and cross predictions, and
    then compute the combined loss, the best epoch and the stop alike. If
    the call fails with two processes, the caller's m2 is left as it was
    before the call.
    """
    if split.midpoints.size == 0:
        raise ValueError("empty midpoint set")
    sampler = _Sampler(series, cfg.mask)
    mid_norm = normalize_times(split.midpoints, series.time_range)
    (best1, hist), (best2, _) = run_pair(
        _refine_side(m1, True, sampler, split.set1, mid_norm, cfg),
        _refine_side(m2, False, sampler, split.set2, mid_norm, cfg), "model 2")
    m1.load_snapshot(best1)
    m2.train()
    m2.load_snapshot(best2)
    return m1, m2, hist


def _refine_side(model: InrModel, first: bool, sampler: _Sampler, half, mid_norm,
                 cfg: TrainConfig):
    """One model's refine loop as a pairing side; returns (best snapshot, history).

    Per epoch the model runs its fidelity forward and backward, keeping
    only the gradients, then its cross forward; it sends (fidelity loss,
    cross prediction) and receives the other model's. Both sides then
    form l_cross and l_total from model 1's terms first, so they agree bit
    for bit on the history, the best epoch and the stop. The update sums the
    fidelity and cross gradients, and the cross cache is dropped after it,
    encoded batch included. The three message-free steps (pairing) make the
    lockstep path interleave the models as the one-process loop did, so it
    holds what that loop held: both fidelity steps, both cross forwards,
    both snapshots, then both updates. The epoch at the end of the
    `refine_max_epochs` budget is never followed by an update (the best
    snapshot would discard it), so it skips the fidelity backward; an epoch
    that ends on patience has spent it.
    """
    lam = cfg.lambda_fidelity
    model.train()
    params = model.params()
    adam = AdamState(params)
    hist = RefineHistory()
    best_total = np.inf  # epoch 0 always improves on it, so sets best

    for epoch in range(cfg.refine_max_epochs):
        last = epoch == cfg.refine_max_epochs - 1
        rng = _epoch_rng(cfg.seed_sampling, 101 if first else 102, epoch)
        l_fid, grads = _step(model, sampler, half, cfg.batch_size, rng, lam, backward=not last)
        yield None
        rngc = _epoch_rng(cfg.seed_sampling, 103, epoch)
        pc, cache = _run(model, sampler.draw_coords(mid_norm, cfg.batch_size, rngc))

        l_other, pc_other = yield l_fid, pc
        l1, l2 = (l_fid, l_other) if first else (l_other, l_fid)
        l_cross, d_cross = _mse(pc, pc_other) if first else _mse(pc_other, pc)
        l_total = lam * l1 + lam * l2 + l_cross
        if not np.isfinite(l_total):
            raise DivergenceError(f"divergence: non-finite loss at refine epoch {epoch}")
        hist.l1.append(l1)
        hist.l2.append(l2)
        hist.l_cross.append(l_cross)
        hist.l_total.append(l_total)

        if l_total < best_total:
            best_total = l_total
            hist.best_epoch = epoch
            best = model.snapshot()
        elif epoch - hist.best_epoch >= cfg.patience:
            break
        if last:
            break  # load_snapshot would discard this epoch's update

        yield None
        _update(model, params, adam, lr_at(cfg.refine_schedule, epoch),
                sum_grads(grads, model.backward(cache, d_cross if first else -d_cross)))
        # the spent cache still holds its encoded batch: drop it and this
        # epoch's batch-sized arrays before the next epoch's forwards
        del cache, pc, pc_other, d_cross
        yield None
    return best, hist


def _check_pair(m1: InrModel, m2: InrModel) -> None:
    if m1.mode != "eval" or m2.mode != "eval":
        raise ValueError("average_predict requires both models in eval mode")
    if m1.encoder is None or m2.encoder is None:
        raise ValueError("models must carry encoders")
    if not m1.encoder.same_dims(m2.encoder):
        raise ValueError("encoder mismatch between models")


def average_predict(m1: InrModel, m2: InrModel, points: np.ndarray) -> np.ndarray:
    """Arithmetic mean of both models' eval-mode predictions."""
    _check_pair(m1, m2)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y1, _ = m1.forward(m1.encoder.encode(points))
    y2, _ = m2.forward(m2.encoder.encode(points))
    return 0.5 * y1 + 0.5 * y2


def reconstruct(m1: InrModel, m2: InrModel, dims, spacing, times,
                intensity_scale: tuple[float, float] | None = None,
                chunk: int = 4096) -> Volume4D:
    """Sample the averaged model on a full grid at each requested time.

    Times must be strictly increasing, which is checked before any work.
    They do not have to match the training time points and dims may differ
    from the training grid, which is what makes the representation usable
    for temporal and spatial upsampling. Predictions are clipped to the
    normalized [0, 1] training range before optional denormalization.

    One model at a time walks the grid in chunks of `chunk` voxels (a
    positive integer, also checked before any work), and each chunk's
    coordinates are formed on their own (voxel_coords), so no array spans
    the whole grid but the outputs. Each model is folded once per call
    (InrModel.fold) and forms its time terms once per requested time,
    from that time's one encoded row. For each chunk a model encodes only
    the spatial block of the features and forms its InrModel.space_terms
    once; for each time it then runs InrModel.eval_forward, the loop
    behind every eval-mode prediction, so values agree with
    average_predict's to rounding (rows grouped into calls of other sizes
    may round differently). A rerun with the same arguments gives the same
    bits, and so does a time requested alone or among other times. Beyond
    the output volumes, memory is bounded by one model's spatial terms for
    one chunk, (1 + number of skip layers) * chunk * hidden_width floats,
    its two (chunk, hidden_width + 1) eval buffers and one chunk's
    coordinates and encoding; a chunk's terms are dropped before the next
    chunk's are formed.
    """
    times = np.asarray(times, dtype=np.float64)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if chunk < 1:
        raise ValueError("chunk must be a positive integer")
    m1.eval()
    m2.eval()
    t_range = m1.meta.get("time_range")
    if t_range is None or m2.meta.get("time_range") != t_range:
        raise ValueError("models lack a shared training time range")
    _check_pair(m1, m2)
    t_norm = normalize_times(times, tuple(t_range))
    dims = grid_dims(dims)
    n = math.prod(dims)

    # Each model adds its half, model 1 first at every voxel: pred ends as
    # average_predict's 0.5 * y1 + 0.5 * y2.
    pred = np.zeros((times.size, n))
    for m in (m1, m2):
        f = m.fold()
        # One time-term call per time, on that time's one encoded row, so a
        # time's volume does not depend on which other times are requested.
        t_block = m.encoder.encode_time(t_norm)
        by_time = [m.time_terms(f, t_block[k:k + 1]) for k in range(times.size)]
        bufs = eval_buffers(min(chunk, n), m.cfg.hidden_width)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            space = m.space_terms(f, m.encoder.encode_space(voxel_coords(dims, np.arange(lo, hi))))
            for k, t_terms in enumerate(by_time):
                pred[k, lo:hi] += 0.5 * m.eval_forward(f, space, t_terms, bufs)
            del space  # the next chunk's terms replace these

    np.clip(pred, 0.0, 1.0, out=pred)
    volumes = []
    for row in pred:
        if intensity_scale is not None:
            row[:] = denormalize_intensity(row, intensity_scale)
        volumes.append(Volume3D(dims, tuple(spacing), row.reshape(dims, order="F")))
    return Volume4D(volumes, times)
