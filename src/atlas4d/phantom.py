"""Synthetic 4D phantom: a growing ellipsoid with an inner structure.

The clean series follows smooth linear radius curves; the noisy series
perturbs the inner-structure radius independently at every time point
(structural noise) and adds Gaussian voxel noise (intensity noise). This
makes temporal-denoising claims testable: the clean geometry is the known
ground truth and the per-time jitter mimics anatomically implausible
frame-to-frame variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume_io import LabelVolume, Volume3D, Volume4D

# Mild anisotropy of the outer shell keeps the geometry non-spherical; the
# inner structure is a centered sphere so jitter has room in both directions.
_OUTER_ANISOTROPY = (1.0, 0.92, 0.86)


@dataclass
class PhantomConfig:
    dims: tuple[int, int, int] = (32, 32, 32)
    n_times: int = 10
    time_start: float = 21.0
    time_end: float = 30.0
    outer_radius: tuple[float, float] = (10.0, 0.3)   # (voxels at t0, voxels/week)
    inner_radius: tuple[float, float] = (4.6, 0.3)
    levels: tuple[float, float, float] = (0.0, 0.5, 1.0)  # background, tissue, inner
    edge_width: float = 1.8  # voxels of smooth transition at each boundary
    structural_jitter_sigma: float = 0.0
    intensity_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.dims) != 3 or not all(isinstance(d, (int, np.integer)) and d > 0
                                          for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims!r}")
        if self.n_times < 2:
            raise ValueError("need at least 2 time points")
        if self.time_end <= self.time_start:
            raise ValueError("time_end must exceed time_start")
        if self.structural_jitter_sigma < 0 or self.intensity_noise_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.edge_width <= 0:
            raise ValueError("edge_width must be positive")

    def times(self) -> np.ndarray:
        return np.linspace(self.time_start, self.time_end, self.n_times)

    def outer_at(self, t: float) -> float:
        return self.outer_radius[0] + self.outer_radius[1] * (t - self.time_start)

    def inner_at(self, t: float) -> float:
        return self.inner_radius[0] + self.inner_radius[1] * (t - self.time_start)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Smoothstep of u clipped to [0, 1], overwriting u (pass a temporary).

    Evaluated as (s*s) * (3 - 2*s); another grouping changes the last bits.
    """
    s = np.clip(u, 0.0, 1.0, out=u)
    sq = s * s
    s *= 2.0
    np.subtract(3.0, s, out=s)
    sq *= s
    return sq


def _outer_shell(cfg: PhantomConfig, x, y, z, t: float) -> np.ndarray:
    """Soft membership of the anisotropic outer ellipsoid at time t."""
    r_out = cfg.outer_at(t)
    ax, ay, az = (a * r_out for a in _OUTER_ANISOTROPY)
    rho = np.sqrt((x / ax) ** 2 + (y / ay) ** 2 + (z / az) ** 2)
    return _smoothstep((1.0 - rho) * r_out / cfg.edge_width + 0.5)


def _compose(cfg: PhantomConfig, s_out: np.ndarray, d_in: np.ndarray,
             inner_r: float, out: np.ndarray) -> np.ndarray:
    """Write one time point's intensity into out; return the inner membership.

    s_out is the outer-shell membership and d_in the distance of each voxel
    from the grid center. out receives
    bg + (tissue - bg) * s_out + (inner - tissue) * s_in, in that order.
    """
    s_in = _smoothstep((inner_r - d_in) / cfg.edge_width + 0.5)
    bg, tissue, inner = cfg.levels
    np.multiply(tissue - bg, s_out, out=out)
    np.add(bg, out, out=out)
    out += (inner - tissue) * s_in
    return s_in


def _jitter_range(cfg: PhantomConfig, t: float) -> tuple[float, float]:
    """Clamp range of the jittered inner radius, which keeps it in the shell."""
    return 0.8, cfg.outer_at(t) * min(_OUTER_ANISOTROPY) - cfg.edge_width - 1.0


def _check_geometry(cfg: PhantomConfig) -> None:
    half = min(cfg.dims) / 2.0
    for t in cfg.times():
        r_out = cfg.outer_at(t)
        r_in = cfg.inner_at(t)
        if r_out * max(_OUTER_ANISOTROPY) + cfg.edge_width + 1.0 > half:
            raise ValueError(f"phantom radius escapes the grid at t={t:g}")
        if r_in <= 0:
            raise ValueError(f"inner radius not positive at t={t:g}")
        if r_in + cfg.edge_width + 0.5 > r_out * min(_OUTER_ANISOTROPY):
            raise ValueError(f"inner structure escapes the outer shell at t={t:g}")
        lo, hi = _jitter_range(cfg, t)
        if hi <= lo:
            raise ValueError(f"jittered inner radius has no room at t={t:g}: its "
                             f"clamp range [{lo:g}, {hi:g}] has no width")


def _shell_box(cfg: PhantomConfig) -> tuple[slice, slice, slice]:
    """Index box holding every voxel the outer shell reaches at any time.

    The shell argument (1 - rho) * r_out / edge_width + 0.5 is positive
    only where |offset| < a * r_out + edge_width / 2 along each axis (a the
    axis anisotropy); the box adds one voxel to that and is clamped to the
    grid. A box that would hold more than half the grid is widened to the
    whole grid: writes into a box view are strided, several times the cost
    of contiguous ones, so such a box saves nothing (the default 32³
    phantom's box holds 82% of the grid).
    """
    r_max = max(cfg.outer_at(t) for t in cfg.times())
    box = []
    for n, a in zip(cfg.dims, _OUTER_ANISOTROPY):
        c = (n - 1) / 2.0
        half = a * r_max + cfg.edge_width / 2.0 + 1.0
        box.append(slice(max(0, math.floor(c - half)), min(n, math.ceil(c + half) + 1)))
    if math.prod(s.stop - s.start for s in box) > math.prod(cfg.dims) / 2:
        return tuple(slice(0, n) for n in cfg.dims)
    return tuple(box)


def _outside(dims, box) -> list[tuple[slice, ...]]:
    """Basic-index slabs that, with box, tile the grid without overlap."""
    slabs = []
    for axis, (n, s) in enumerate(zip(dims, box)):
        for part in (slice(0, s.start), slice(s.stop, n)):
            if part.start < part.stop:
                slabs.append(box[:axis] + (part,))
    return slabs


def generate(cfg: PhantomConfig) -> tuple[Volume4D, Volume4D, list[LabelVolume]]:
    """Build (clean, noisy, labels) for the configured phantom.

    The clean series depends only on geometry, never on the noise draws.
    Labels mark voxels fully inside the clean inner structure, where the
    clean intensity equals the inner tissue level exactly. Jittered inner
    radii are clamped so the noisy geometry stays inside the outer shell.

    Geometry is computed only inside _shell_box, the box the outer shell can
    reach at any time point; at atlas size the shell fills a few percent of
    the grid. Outside the box both memberships are exactly 0, so those
    voxels hold fill = bg + (tissue - bg) * 0.0 + (inner - tissue) * 0.0
    (plus the voxel's noise in the noisy series) and label 0, the values
    the formula gives there bit for bit. The noise is drawn over the whole
    grid, so its stream does not depend on the box.
    """
    _check_geometry(cfg)
    times = cfg.times()
    spacing = (1.0, 1.0, 1.0)

    jitter_rng = np.random.default_rng([cfg.seed, 0])
    jitter = jitter_rng.normal(0.0, cfg.structural_jitter_sigma, cfg.n_times)

    box = _shell_box(cfg)
    slabs = _outside(cfg.dims, box)
    bg, tissue, inner = cfg.levels
    fill = bg + (tissue - bg) * 0.0 + (inner - tissue) * 0.0
    cx, cy, cz = ((n - 1) / 2.0 for n in cfg.dims)
    bx, by, bz = box
    x = np.arange(bx.start, bx.stop)[:, None, None] - cx
    y = np.arange(by.start, by.stop)[None, :, None] - cy
    z = np.arange(bz.start, bz.stop)[None, None, :] - cz
    d_in = np.sqrt(x ** 2 + y ** 2 + z ** 2)

    def volume(s_out, inner_r):
        data = np.empty(cfg.dims)
        for slab in slabs:
            data[slab] = fill
        return data, _compose(cfg, s_out, d_in, inner_r, data[box])

    clean_vols, noisy_vols, labels = [], [], []
    for k, t in enumerate(times):
        s_out = _outer_shell(cfg, x, y, z, t)
        clean, s_in = volume(s_out, cfg.inner_at(t))
        clean_vols.append(Volume3D(cfg.dims, spacing, clean))
        label = np.zeros(cfg.dims, dtype=np.uint8)
        np.greater_equal(s_in, 1.0, out=label[box].view(np.bool_))
        labels.append(LabelVolume(cfg.dims, spacing, label))

        r_noisy = float(np.clip(cfg.inner_at(t) + jitter[k], *_jitter_range(cfg, t)))
        noisy, _ = volume(s_out, r_noisy)
        if cfg.intensity_noise_sigma > 0:
            noise_rng = np.random.default_rng([cfg.seed, 1, k])
            noisy += noise_rng.normal(0.0, cfg.intensity_noise_sigma, cfg.dims)
        noisy_vols.append(Volume3D(cfg.dims, spacing, noisy))

    clean_series = Volume4D(clean_vols, times)
    noisy_series = Volume4D(noisy_vols, times.copy())
    return clean_series, noisy_series, labels
