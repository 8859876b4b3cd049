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

from dataclasses import dataclass, field

import numpy as np

from .encoding import FourierEncoder
from .network import InrModel, MlpConfig, init_mlp
from .optimizer import AdamState, DivergenceError, LrSchedule, adam_step, lr_at, sum_grads
from .volume_io import Volume3D, Volume4D, coord_grid, denormalize_intensity, normalize_times


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


def split_timepoints(times, scheme: str = "interleaved") -> TimeSplit:
    """Alternate interior time points between two sets that share endpoints.

    Midpoints are the consecutive-pair means of the full time list, minus
    any that collide with an existing time point.
    """
    if scheme != "interleaved":
        raise ValueError(f"unknown split scheme {scheme!r}")
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
    """Uniform coordinate/intensity sampling over (masked voxels) x times."""

    def __init__(self, series: Volume4D, mask: np.ndarray | None = None):
        self.series = series
        self.grid = coord_grid(series.dims, series.spacing)
        self.values = series.stack()  # (n_times, n_voxels)
        self.t_norm = normalize_times(series.times, series.time_range)
        if mask is None:
            self.pool = np.arange(self.grid.shape[0])
        else:
            mask = np.asarray(mask)
            if mask.shape != series.dims:
                raise ValueError("mask shape does not match series dims")
            self.pool = np.flatnonzero(mask.ravel(order="F"))
            if self.pool.size == 0:
                raise ValueError("empty mask")

    def draw(self, time_indices, n: int, rng: np.random.Generator):
        """n random ((x, y, z, t_norm), intensity) pairs from given times."""
        time_indices = np.asarray(time_indices, dtype=np.int64)
        if time_indices.size == 0:
            raise ValueError("no time points to sample")
        vox = self.pool[rng.integers(0, self.pool.size, n)]
        tix = time_indices[rng.integers(0, time_indices.size, n)]
        points = np.column_stack([self.grid[vox], self.t_norm[tix]])
        return points, self.values[tix, vox]

    def draw_coords(self, t_norm_values, n: int, rng: np.random.Generator) -> np.ndarray:
        """n random coordinates at the given (already normalized) times."""
        t_norm_values = np.asarray(t_norm_values, dtype=np.float64)
        if t_norm_values.size == 0:
            raise ValueError("no time points to sample")
        vox = self.pool[rng.integers(0, self.pool.size, n)]
        tix = rng.integers(0, t_norm_values.size, n)
        return np.column_stack([self.grid[vox], t_norm_values[tix]])


def sample_batch(series: Volume4D, time_indices, n: int,
                 rng: np.random.Generator, mask: np.ndarray | None = None):
    """One uniform mini-batch of ((x, y, z, t_norm), intensity) pairs."""
    return _Sampler(series, mask).draw(time_indices, n, rng)


def _epoch_rng(seed: int, stream: int, epoch: int) -> np.random.Generator:
    # Keyed, counter-style stream: independent of call order across epochs.
    return np.random.default_rng([seed, stream, epoch])


def make_model(series: Volume4D, *, l_space: int = 128, l_time: int = 32,
               hidden_width: int = 256, n_layers: int = 18,
               skip_layers=(6, 12), bn_momentum: float = 0.1,
               bn_epsilon: float = 1e-5, seed: int = 0) -> InrModel:
    """Initialize a network plus encoder sized for a series."""
    encoder = FourierEncoder(l_space, l_time, seed=seed)
    cfg = MlpConfig(
        input_dim=encoder.out_dim,
        hidden_width=hidden_width,
        n_layers=n_layers,
        skip_layers=tuple(skip_layers),
        bn_momentum=bn_momentum,
        bn_epsilon=bn_epsilon,
    )
    model = init_mlp(cfg, seed=seed, encoder=encoder)
    model.meta["time_range"] = list(series.time_range)
    model.meta["times"] = [float(t) for t in series.times]
    model.meta["dims"] = list(series.dims)
    model.meta["spacing"] = list(series.spacing)
    if series.intensity_scale is not None:
        model.meta["intensity_scale"] = list(series.intensity_scale)
    return model


def pretrain(series: Volume4D, time_indices, cfg: TrainConfig,
             model: InrModel, *, stream: int = 0,
             schedule: LrSchedule | None = None):
    """Fit one model to its half of the series by mini-batch MSE descent.

    Returns (model, per-epoch loss list). The model keeps its final Adam
    state attached so checkpoints are resumable.
    """
    if schedule is None:
        schedule = cfg.pretrain_schedule
    sampler = _Sampler(series, cfg.mask)
    model.train()
    params = model.params()
    adam = AdamState(params)
    losses: list[float] = []
    for epoch in range(cfg.pretrain_epochs):
        rng = _epoch_rng(cfg.seed_sampling, stream, epoch)
        points, target = sampler.draw(time_indices, cfg.batch_size, rng)
        feats = model.encoder.encode(points)
        pred, cache = model.forward(feats)
        err = pred - target
        loss = float(np.mean(err * err))
        if not np.isfinite(loss):
            raise DivergenceError(f"divergence: non-finite loss at epoch {epoch}")
        grads = model.backward(cache, 2.0 * err / err.size)
        adam_step(params, grads, adam, lr_at(schedule, epoch))
        model.mark_updated()
        losses.append(loss)
    model.optimizer_state = adam.arrays()
    return model, losses


def refine(m1: InrModel, m2: InrModel, series: Volume4D, split: TimeSplit,
           cfg: TrainConfig):
    """Jointly refine both models on fidelity plus cross-consistency.

    Each epoch draws one batch per loss term: fidelity of model 1 on its
    half, fidelity of model 2 on its half, and the MSE between both models
    at midpoint times. The recorded losses are the pre-update values; the
    returned models carry the state of the best recorded combined loss, and
    the loop stops early when that loss has not improved for `patience`
    epochs.
    """
    if split.midpoints.size == 0:
        raise ValueError("empty midpoint set")
    lam = cfg.lambda_fidelity
    sampler = _Sampler(series, cfg.mask)
    mid_norm = normalize_times(split.midpoints, series.time_range)

    m1.train()
    m2.train()
    params1, params2 = m1.params(), m2.params()
    adam1, adam2 = AdamState(params1), AdamState(params2)
    hist = RefineHistory()
    best_total = np.inf
    best_state = (m1.snapshot(), m2.snapshot())

    for epoch in range(cfg.refine_max_epochs):
        rng1 = _epoch_rng(cfg.seed_sampling, 101, epoch)
        rng2 = _epoch_rng(cfg.seed_sampling, 102, epoch)
        rngc = _epoch_rng(cfg.seed_sampling, 103, epoch)

        pts1, tgt1 = sampler.draw(split.set1, cfg.batch_size, rng1)
        pred1, cache1 = m1.forward(m1.encoder.encode(pts1))
        err1 = pred1 - tgt1
        l1 = float(np.mean(err1 * err1))

        pts2, tgt2 = sampler.draw(split.set2, cfg.batch_size, rng2)
        pred2, cache2 = m2.forward(m2.encoder.encode(pts2))
        err2 = pred2 - tgt2
        l2 = float(np.mean(err2 * err2))

        ptsc = sampler.draw_coords(mid_norm, cfg.batch_size, rngc)
        pc1, cache1c = m1.forward(m1.encoder.encode(ptsc))
        pc2, cache2c = m2.forward(m2.encoder.encode(ptsc))
        diff = pc1 - pc2
        l_cross = float(np.mean(diff * diff))

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
            best_state = (m1.snapshot(), m2.snapshot())
        elif epoch - hist.best_epoch >= cfg.patience:
            break

        d_cross = 2.0 * diff / diff.size
        g1 = sum_grads(
            m1.backward(cache1, lam * 2.0 * err1 / err1.size),
            m1.backward(cache1c, d_cross),
        )
        g2 = sum_grads(
            m2.backward(cache2, lam * 2.0 * err2 / err2.size),
            m2.backward(cache2c, -d_cross),
        )
        adam_step(params1, g1, adam1, lr_at(cfg.refine_schedule, epoch))
        m1.mark_updated()
        adam_step(params2, g2, adam2, lr_at(cfg.refine_schedule, epoch))
        m2.mark_updated()

    m1.load_snapshot(best_state[0])
    m2.load_snapshot(best_state[1])
    m1.optimizer_state = adam1.arrays()
    m2.optimizer_state = adam2.arrays()
    return m1, m2, hist


def _check_pair(m1: InrModel, m2: InrModel) -> None:
    if m1.mode != "eval" or m2.mode != "eval":
        raise ValueError("average_predict requires both models in eval mode")
    if m1.encoder is None or m2.encoder is None:
        raise ValueError("models must carry encoders")
    if not m1.encoder.same_dims(m2.encoder):
        raise ValueError("encoder mismatch between models")


def _average(m1: InrModel, m2: InrModel, feats1: np.ndarray, feats2: np.ndarray) -> np.ndarray:
    y1, _ = m1.forward(feats1)
    y2, _ = m2.forward(feats2)
    return 0.5 * y1 + 0.5 * y2


def average_predict(m1: InrModel, m2: InrModel, points: np.ndarray) -> np.ndarray:
    """Arithmetic mean of both models' eval-mode predictions."""
    _check_pair(m1, m2)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return _average(m1, m2, m1.encoder.encode(points), m2.encoder.encode(points))


def reconstruct(m1: InrModel, m2: InrModel, dims, spacing, times,
                intensity_scale: tuple[float, float] | None = None,
                chunk: int = 16384) -> Volume4D:
    """Sample the averaged model on a full grid at each requested time.

    Times do not have to match the training time points and dims may differ
    from the training grid, which is what makes the representation usable
    for temporal and spatial upsampling. Predictions are clipped to the
    normalized [0, 1] training range before optional denormalization.

    The grid is walked in chunks of `chunk` voxels. Each model encodes a
    chunk's spatial features once; for each time only the trailing time
    block of the features (block order [cos_s, sin_s, cos_t, sin_t]) is
    overwritten. Values equal average_predict's bit for bit. Beyond the
    output volumes, memory is bounded by two chunk-sized feature arrays and
    the network's per-chunk activations.
    """
    m1.eval()
    m2.eval()
    t_range = m1.meta.get("time_range")
    if t_range is None or m2.meta.get("time_range") != t_range:
        raise ValueError("models lack a shared training time range")
    _check_pair(m1, m2)
    times = np.asarray(times, dtype=np.float64)
    t_norm = normalize_times(times, tuple(t_range))
    grid = coord_grid(dims, spacing)
    n = grid.shape[0]
    dims = tuple(int(d) for d in dims)

    # Time blocks of encoding (0, 0, 0, t): one row per requested time.
    t_points = np.zeros((times.size, 4))
    t_points[:, 3] = t_norm
    space_dim = 2 * m1.encoder.l_space
    t_blocks = [m.encoder.encode(t_points)[:, space_dim:] for m in (m1, m2)]

    pred = np.empty((times.size, n))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        pts = np.zeros((hi - lo, 4))
        pts[:, :3] = grid[lo:hi]
        feats = [m.encoder.encode(pts) for m in (m1, m2)]
        for k in range(times.size):
            for f, tb in zip(feats, t_blocks):
                f[:, space_dim:] = tb[k]
            pred[k, lo:hi] = _average(m1, m2, *feats)

    np.clip(pred, 0.0, 1.0, out=pred)
    volumes = []
    for row in pred:
        if intensity_scale is not None:
            row[:] = denormalize_intensity(row, intensity_scale)
        volumes.append(Volume3D(dims, tuple(spacing), row.reshape(dims, order="F")))
    return Volume4D(volumes, times)
