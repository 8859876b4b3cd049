"""Evaluation metrics: MSE/PSNR, slice-entropy sharpness, DICE overlap,
and the temporal-consistency factor.

All operations are pure. Sharpness is a normalized per-slice intensity
entropy in [0, 1]; lower values mean sharper slices. Temporal consistency
of a label series at time index m is the mean DICE between this time
point's label map and each temporal neighbor's (m +/- 1, m +/- 2, where
they exist), with no registration between time points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .volume_io import LabelVolume, Volume3D, Volume4D, format_time


class BackgroundSliceError(ValueError):
    """Slice is all-zero and carries no signal; excluded from slice means."""


# ---------------------------------------------------------------------------
# Fidelity


def psnr(mse: float, peak: float) -> float:
    """10*log10(peak^2 / mse); a zero MSE gives +inf."""
    if mse == 0.0:
        return math.inf
    return float(10.0 * np.log10(peak * peak / mse))


def series_mse(a: Volume4D, b: Volume4D) -> float:
    """Mean squared difference over every voxel and time point.

    Sums one volume at a time (squared_error_sum), so only one volume-sized
    temporary exists.
    """
    if a.n_times != b.n_times:
        raise ValueError("series length mismatch")
    if a.dims != b.dims:
        raise ValueError(f"series dims mismatch: {a.dims} vs {b.dims}")
    total = 0.0
    for va, vb in zip(a.volumes, b.volumes):
        total += squared_error_sum(va, vb)
    return total / (a.n_times * math.prod(a.dims))


def squared_error_sum(a: Volume3D, b: Volume3D) -> float:
    """Sum of squared voxel differences of two same-shaped volumes."""
    d = a.data - b.data
    np.square(d, out=d)
    return float(d.sum())


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
    r = r[r > 0.0]
    entropy = -float(np.sum(r * np.log(r)))
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
    na = int(np.count_nonzero(in_a))
    nb = int(np.count_nonzero(in_b))
    if na + nb == 0:
        return 100.0
    inter = int(np.count_nonzero(np.logical_and(in_a, in_b, out=in_a)))
    return 100.0 * 2.0 * inter / (na + nb)


def tc(labels: Sequence[LabelVolume], fields: None, m: int, class_id: int) -> float:
    """Temporal-consistency factor (percent) of time index m.

    The mean DICE between the map at m and each neighbor m +/- 1, m +/- 2
    inside the series range. `fields` must be None: the maps are compared
    in place, as the paper's registration is not part of this package.
    """
    if fields is not None:
        raise ValueError("fields must be None: displacement fields are not supported")
    n = len(labels)
    if not 0 <= m < n:
        raise ValueError(f"time index {m} out of range")
    neighbors = [m + d for d in (-2, -1, 1, 2) if 0 <= m + d < n]
    if not neighbors:
        raise ValueError("no valid neighbors")
    return float(np.mean([dice(labels[m2], labels[m], class_id) for m2 in neighbors]))


def threshold_labels(vol: Volume3D, threshold: float) -> LabelVolume:
    """Class-1 label map (uint8) of voxels strictly above an intensity threshold."""
    # A bool array viewed as uint8 holds exactly 0 and 1: no copy is made.
    return LabelVolume(vol.dims, vol.spacing, (vol.data > threshold).view(np.uint8))


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass
class MetricsReport:
    """Per-time-point metrics plus global fidelity versus a reference.

    `dice` is the class-1 DICE against the reference, written as `dice_1`.
    """

    times: list[float]
    efc: list[float]
    tc: list[float]
    dice: list[float]
    mse: float = math.nan
    psnr: float = math.nan

    def __post_init__(self):
        n = len(self.times)
        for name, vals in (("efc", self.efc), ("dice", self.dice), ("tc", self.tc)):
            if len(vals) != n:
                raise ValueError(f"{name} length does not match times")
        if any(v < 0 for v in self.efc):
            raise ValueError("efc values must be >= 0")
        if any(not 0.0 <= v <= 100.0 for v in list(self.dice) + list(self.tc)):
            raise ValueError("dice/tc values must lie in [0, 100]")

    def to_tsv(self) -> str:
        """Tab-separated table: metric rows by time-point columns."""
        def row(name, vals):
            return name + "\t" + "\t".join(f"{v:.6g}" for v in vals)

        return "\n".join([
            "metric\t" + "\t".join(format_time(t) for t in self.times),
            row("efc", self.efc),
            row("dice_1", self.dice),
            row("tc", self.tc),
            row("mse", [self.mse]),
            row("psnr", [self.psnr]),
        ]) + "\n"
