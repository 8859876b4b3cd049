"""Evaluation metrics: MSE/PSNR, slice-entropy sharpness, DICE overlap,
label warping, and the temporal-consistency factor.

All operations are pure. Sharpness is a normalized per-slice intensity
entropy in [0, 1]; lower values mean sharper slices. Temporal consistency
of a label series at time index m is the mean DICE between each temporal
neighbor's label map (m +/- 1, m +/- 2, where they exist) and this time
point's map warped into that neighbor; identity displacement fields reduce
it to plain neighbor DICE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .volume_io import LabelVolume, Volume3D, Volume4D, format_time


class BackgroundSliceError(ValueError):
    """Slice is all-zero and carries no signal; excluded from slice means."""


@dataclass
class DisplacementField:
    """Per-voxel 3-vector displacement in voxel units.

    vectors[x, y, z] maps coordinates of the target space into the source
    space: the warped output at voxel v reads the source label at
    round(v + vectors[v]).
    """

    dims: tuple[int, int, int]
    vectors: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape != self.dims + (3,):
            raise ValueError(
                f"vectors shape {self.vectors.shape} does not match dims {self.dims}"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("non-finite displacement field")


def identity_field(dims) -> DisplacementField:
    return DisplacementField(tuple(dims), np.zeros(tuple(dims) + (3,)))


# ---------------------------------------------------------------------------
# Fidelity


def psnr(mse: float, peak: float) -> float:
    """10*log10(peak^2 / mse); a zero MSE gives +inf."""
    if mse == 0.0:
        return math.inf
    return float(10.0 * np.log10(peak * peak / mse))


def series_mse(a: Volume4D, b: Volume4D) -> float:
    """Mean squared difference over every voxel and time point.

    Sums one volume at a time, so only one volume-sized temporary exists.
    """
    if a.n_times != b.n_times:
        raise ValueError("series length mismatch")
    if a.dims != b.dims:
        raise ValueError(f"series dims mismatch: {a.dims} vs {b.dims}")
    total = 0.0
    for va, vb in zip(a.volumes, b.volumes):
        d = va.data - vb.data
        np.square(d, out=d)
        total += float(d.sum())
    return total / (a.n_times * math.prod(a.dims))


def msd_temporal(series: Volume4D) -> float:
    """Mean per-voxel squared second difference along time.

    Measures temporal roughness: independent per-time-point noise inflates
    it, a smooth trajectory keeps it small. Needs at least 3 time points.
    """
    if series.n_times < 3:
        raise ValueError("need at least 3 time points")
    v = series.stack()
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    return float(np.mean(d2 ** 2))


# ---------------------------------------------------------------------------
# Sharpness (normalized slice entropy)


def efc_slice(slice_2d: np.ndarray) -> float:
    """Normalized intensity entropy of one slice, in [0, 1].

    Intensity magnitudes are scaled by the slice energy x_max = sqrt(sum x^2)
    and 0*ln(0) is taken as 0. A constant slice scores exactly 1, a single
    nonzero voxel exactly 0. All-zero slices raise BackgroundSliceError.
    """
    x = np.abs(np.asarray(slice_2d, dtype=np.float64)).ravel()
    s = x.size
    if s < 2:
        raise ValueError("slice must have at least 2 voxels")
    x_max = math.sqrt(float(np.sum(x * x)))
    if x_max == 0.0:
        raise BackgroundSliceError("all-zero background slice")
    r = x / x_max
    nz = r > 0.0
    entropy = -float(np.sum(r[nz] * np.log(r[nz])))
    norm = math.sqrt(s) * math.log(math.sqrt(s))
    return entropy / norm + 0.0  # avoid returning -0.0 for pure slices


def efc_volume(vol: Volume3D, slice_axis: int = 2) -> float:
    """Mean slice entropy over non-background slices along one axis."""
    if slice_axis not in (0, 1, 2):
        raise ValueError("slice_axis must be 0, 1, or 2")
    values = []
    lead = (slice(None),) * slice_axis
    for k in range(vol.dims[slice_axis]):
        # A basic-index view; np.take copies through a slow gather on the
        # Fortran-ordered arrays read_nifti returns.
        sl = vol.data[lead + (k,)]
        try:
            values.append(efc_slice(sl))
        except BackgroundSliceError:
            continue
    if not values:
        raise ValueError("all slices background")
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# Overlap


def dice(a: LabelVolume, b: LabelVolume, class_id: int) -> float:
    """Percent DICE overlap of one class; two empty sets count as 100."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    in_a = a.data == class_id
    in_b = b.data == class_id
    na = int(in_a.sum())
    nb = int(in_b.sum())
    if na + nb == 0:
        return 100.0
    inter = int(np.logical_and(in_a, in_b).sum())
    return 100.0 * 2.0 * inter / (na + nb)


def warp_labels(labels: LabelVolume, fld: DisplacementField) -> LabelVolume:
    """Nearest-neighbor pullback of a label map through a displacement field.

    Output voxel v takes the label at round(v + field(v)); out-of-bounds
    lookups become background. Nearest-neighbor warping is lossy, so a
    round trip through inverse fields is not an identity in general.
    """
    if labels.dims != fld.dims:
        raise ValueError(f"dimension mismatch: {labels.dims} vs {fld.dims}")
    nx, ny, nz = labels.dims
    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    sx = np.rint(ix + fld.vectors[..., 0]).astype(np.int64)
    sy = np.rint(iy + fld.vectors[..., 1]).astype(np.int64)
    sz = np.rint(iz + fld.vectors[..., 2]).astype(np.int64)
    valid = (
        (sx >= 0) & (sx < nx) & (sy >= 0) & (sy < ny) & (sz >= 0) & (sz < nz)
    )
    out = np.zeros(labels.dims, dtype=np.int64)
    out[valid] = labels.data[sx[valid], sy[valid], sz[valid]]
    return LabelVolume(labels.dims, labels.spacing, out)


def tc(labels: Sequence[LabelVolume],
       fields: Mapping[tuple[int, int], DisplacementField] | None,
       m: int, class_id: int) -> float:
    """Temporal-consistency factor (percent) of time index m.

    Neighbors are m +/- 1 and m +/- 2 clipped to the series range; for each
    neighbor m2 the map at m is warped into m2's space through
    fields[(m, m2)] and compared with the neighbor's map by DICE. Pass
    fields=None to use identity fields throughout.
    """
    n = len(labels)
    if not 0 <= m < n:
        raise ValueError(f"time index {m} out of range")
    neighbors = [m + d for d in (-2, -1, 1, 2) if 0 <= m + d < n]
    if not neighbors:
        raise ValueError("no valid neighbors")
    scores = []
    for m2 in neighbors:
        if fields is None:
            warped = labels[m]
        else:
            if (m, m2) not in fields:
                raise ValueError(f"missing field ({m}, {m2})")
            warped = warp_labels(labels[m], fields[(m, m2)])
        scores.append(dice(labels[m2], warped, class_id))
    return float(np.mean(scores))


def threshold_labels(vol: Volume3D, threshold: float) -> LabelVolume:
    """Class-1 label map of voxels strictly above an intensity threshold."""
    return LabelVolume(vol.dims, vol.spacing, (vol.data > threshold).astype(np.int64))


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass
class MetricsReport:
    """Per-time-point metrics plus global fidelity versus a reference."""

    times: list[float]
    efc: list[float]
    tc: list[float]
    dice: dict[int, list[float]] = field(default_factory=dict)
    mse: float = math.nan
    psnr: float = math.nan

    def __post_init__(self):
        n = len(self.times)
        for name, vals in (("efc", self.efc), ("tc", self.tc)):
            if len(vals) != n:
                raise ValueError(f"{name} length does not match times")
        for cls, vals in self.dice.items():
            if len(vals) != n:
                raise ValueError(f"dice[{cls}] length does not match times")
        if any(v < 0 for v in self.efc):
            raise ValueError("efc values must be >= 0")
        percent = list(self.tc) + [v for vals in self.dice.values() for v in vals]
        if any(not 0.0 <= v <= 100.0 for v in percent):
            raise ValueError("dice/tc values must lie in [0, 100]")

    def to_tsv(self) -> str:
        """Tab-separated table: metric rows by time-point columns."""
        def fmt(v):
            return f"{v:.6g}"

        lines = ["metric\t" + "\t".join(format_time(t) for t in self.times)]
        lines.append("efc\t" + "\t".join(fmt(v) for v in self.efc))
        for cls in sorted(self.dice):
            lines.append(
                f"dice_{cls}\t" + "\t".join(fmt(v) for v in self.dice[cls])
            )
        lines.append("tc\t" + "\t".join(fmt(v) for v in self.tc))
        lines.append(f"mse\t{fmt(self.mse)}")
        lines.append(f"psnr\t{fmt(self.psnr)}")
        return "\n".join(lines) + "\n"
