"""Volume containers, NIfTI-1 file I/O, and coordinate/intensity normalization.

Disk layout convention: voxel data is stored x-fastest, z-slowest (the usual
NIfTI ordering). In memory a volume is a float64 array of shape (nx, ny, nz)
indexed ``data[x, y, z]``; flattening for files, manifests, and coordinate
grids always uses Fortran order so flat index = x + nx*(y + ny*z).

Only single-file NIfTI-1 (.nii, optionally gzipped) with a scalar 3D payload
is supported; anything else is rejected with an explicit error.
"""

from __future__ import annotations

import gzip
import io
import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


class NiftiError(ValueError):
    """File is not readable under the supported NIfTI-1 subset."""


# NIfTI-1 datatype codes accepted on read; writing always uses float32.
_NIFTI_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
}
_HEADER_SIZE = 348
_VOX_OFFSET = 352  # header + 4-byte extension flag


def grid_dims(dims) -> tuple[int, int, int]:
    """dims as three ints of at least 1 each; ValueError otherwise."""
    ints = tuple(int(d) for d in dims)
    if len(ints) != 3 or any(d < 1 for d in ints):
        raise ValueError(f"invalid dims {ints}")
    return ints


def _init_grid(vol) -> None:
    """Make vol's dims ints and spacing floats; raise unless they fit vol.data."""
    vol.dims = grid_dims(vol.dims)
    vol.spacing = tuple(float(s) for s in vol.spacing)
    if not all(0 < s < math.inf for s in vol.spacing):
        raise ValueError(f"spacing must be positive and finite, got {vol.spacing}")
    if vol.data.shape != vol.dims:
        raise ValueError(f"data shape {vol.data.shape} does not match dims {vol.dims}")


@dataclass
class Volume3D:
    """One scalar 3D grid: voxel counts, physical spacing (mm), intensities."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        _init_grid(self)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def flat(self) -> np.ndarray:
        """Voxel values in disk order (x fastest, z slowest)."""
        return self.data.ravel(order="F")


@dataclass
class LabelVolume:
    """Integer class id per voxel, 0 = background.

    The data keeps its own integer dtype; the maps this package builds
    are uint8, one byte per voxel.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if not np.issubdtype(self.data.dtype, np.integer):
            raise ValueError("label data must be integer")
        _init_grid(self)
        if self.data.min(initial=0) < 0:
            raise ValueError("label ids must be >= 0")


def same_spacing(a, b) -> bool:
    """Whether two voxel spacings agree: np.allclose with atol 1e-6 mm."""
    return bool(np.allclose(a, b, atol=1e-6))


def _check_grid(vol: Volume3D, dims, spacing) -> None:
    """Raise unless vol has the dims and spacing of its series' first volume."""
    if vol.dims != dims:
        raise ValueError("dimension mismatch across series")
    if not same_spacing(vol.spacing, spacing):
        raise ValueError("spacing mismatch across series")


@dataclass
class Volume4D:
    """Time-ordered series of homogeneous 3D volumes."""

    volumes: list[Volume3D]
    times: np.ndarray
    intensity_scale: tuple[float, float] | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if len(self.volumes) != len(self.times):
            raise ValueError("times and volumes disagree in length")
        if len(self.volumes) == 0:
            raise ValueError("empty series")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for v in self.volumes[1:]:
            _check_grid(v, self.volumes[0].dims, self.volumes[0].spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.volumes[0].dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.volumes[0].spacing

    @property
    def n_times(self) -> int:
        return len(self.volumes)

    @property
    def time_range(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def stack(self) -> np.ndarray:
        """All intensities as (n_times, n_voxels) in disk order."""
        return np.stack([v.flat() for v in self.volumes])


# ---------------------------------------------------------------------------
# NIfTI-1 I/O


def _read_raw(path: Path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return gz.read()
        return fh.read()


def read_nifti(path) -> Volume3D:
    """Read a single-file NIfTI-1 volume (scalar, 3 spatial dims).

    Applies scl_slope/scl_inter as NIfTI-1 (and nibabel) do: a slope that
    is 0 or non-finite means no scaling, and a non-finite intercept counts
    as 0. The payload is converted to float64 working precision; a NaN or
    infinite voxel is an error.
    """
    path = Path(path)
    raw = _read_raw(path)
    if len(raw) < _HEADER_SIZE:
        raise NiftiError(f"corrupt file: header truncated ({path})")

    # Endianness is detected from sizeof_hdr; both byte orders are readable.
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr == _HEADER_SIZE:
        end = "<"
    else:
        (sizeof_be,) = struct.unpack_from(">i", raw, 0)
        if sizeof_be != _HEADER_SIZE:
            raise NiftiError(f"not NIfTI-1: bad header size ({path})")
        end = ">"

    magic = struct.unpack_from("4s", raw, 344)[0]
    if magic == b"ni1\x00":
        raise NiftiError(f"unsupported layout: two-file NIfTI pair ({path})")
    if magic != b"n+1\x00":
        raise NiftiError(f"not NIfTI-1: bad magic {magic!r} ({path})")

    dim = struct.unpack_from(end + "8h", raw, 40)
    if dim[0] != 3:
        raise NiftiError(f"unsupported layout: dim[0]={dim[0]}, need 3 ({path})")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise NiftiError(f"unsupported layout: nonpositive dims {dims} ({path})")

    (datatype,) = struct.unpack_from(end + "h", raw, 70)
    (bitpix,) = struct.unpack_from(end + "h", raw, 72)
    if datatype not in _NIFTI_DTYPES:
        raise NiftiError(f"unsupported layout: datatype code {datatype} ({path})")
    dt = _NIFTI_DTYPES[datatype]
    if bitpix != dt.itemsize * 8:
        raise NiftiError(f"corrupt file: bitpix {bitpix} vs datatype {datatype} ({path})")

    pixdim = struct.unpack_from(end + "8f", raw, 76)
    spacing = tuple(float(p) for p in pixdim[1:4])
    if not all(0 < s < math.inf for s in spacing):
        raise NiftiError(f"corrupt file: pixdim {spacing} is not positive and finite ({path})")

    (vox_offset_f,) = struct.unpack_from(end + "f", raw, 108)
    vox_offset = int(vox_offset_f)
    if vox_offset < _HEADER_SIZE:
        raise NiftiError(f"corrupt file: vox_offset {vox_offset} ({path})")
    (scl_slope,) = struct.unpack_from(end + "f", raw, 112)
    (scl_inter,) = struct.unpack_from(end + "f", raw, 116)

    n_vox = dims[0] * dims[1] * dims[2]
    need = vox_offset + n_vox * dt.itemsize
    if len(raw) < need:
        raise NiftiError(f"corrupt file: payload truncated ({path})")

    disk_dt = dt.newbyteorder(end)
    payload = np.frombuffer(raw, dtype=disk_dt, count=n_vox, offset=vox_offset)
    data = payload.astype(np.float64).reshape(dims, order="F")
    if scl_slope == 0.0 or not math.isfinite(scl_slope):
        scl_slope, scl_inter = 1.0, 0.0
    elif not math.isfinite(scl_inter):
        scl_inter = 0.0
    if (scl_slope, scl_inter) != (1.0, 0.0):
        data = data * float(scl_slope) + float(scl_inter)
    if not np.isfinite(data).all():
        raise NiftiError(f"corrupt file: non-finite voxel values ({path})")

    return Volume3D(dims=dims, spacing=spacing, data=data)


def write_nifti(vol: Volume3D, path) -> None:
    """Write a volume as single-file NIfTI-1 with a float32 payload.

    A LabelVolume is accepted too: its integer data is written as float32
    values (the package's uint8 label maps as 0.0 and 1.0), the same bytes
    as a float64 copy would give.

    Gzip compression is selected by a .gz suffix; compressed output embeds
    no timestamp, so identical volumes produce identical bytes.
    """
    path = Path(path)
    nx, ny, nz = vol.dims

    hdr = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, _HEADER_SIZE)
    struct.pack_into("<c", hdr, 38, b"r")
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)  # float32
    struct.pack_into("<h", hdr, 72, 32)
    sx, sy, sz = vol.spacing
    struct.pack_into("<8f", hdr, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, float(_VOX_OFFSET))
    struct.pack_into("<f", hdr, 112, 0.0)  # scl_slope 0: no scaling on read
    struct.pack_into("<f", hdr, 116, 0.0)
    struct.pack_into("<4s", hdr, 344, b"n+1\x00")

    payload = vol.data.astype(np.float32).tobytes(order="F")
    blob = bytes(hdr) + b"\x00\x00\x00\x00" + payload

    if path.suffix == ".gz":
        # filename="" and mtime=0 keep the compressed bytes content-only
        buf = io.BytesIO()
        with gzip.GzipFile(filename="", fileobj=buf, mode="wb", mtime=0) as gz:
            gz.write(blob)
        blob = buf.getvalue()
    write_atomic(path, blob)


def write_atomic(path, data: bytes | str) -> None:
    """Create or replace the file at `path` with `data` (a str as UTF-8).

    The data goes to a temporary file in the same directory, which
    os.replace then moves over `path`: a reader sees the old file or the
    new one, never part of either. If the write raises, the old file is
    untouched and the temporary file is removed. There is no fsync.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Series assembly


def iter_series(manifest: Sequence[tuple], *,
                label: str = "series") -> tuple[np.ndarray, Iterator[Volume3D]]:
    """Check a series' (path, time_in_weeks) entries; return times and a reader.

    Entries are sorted by time, and at least two distinct time points are
    required; both are checked here, before any file is read. The returned
    iterator reads one volume per step, in time order, and raises when a
    volume's dims or spacing differ from the first volume's. It keeps no
    reference to a volume it has handed out.
    """
    entries = [(Path(p), float(t)) for p, t in manifest]
    if len(entries) < 2:
        raise ValueError(f"{label}: need at least 2 entries")
    times = [t for _, t in entries]
    if len(set(times)) != len(times):
        raise ValueError(f"{label}: duplicate time point")
    entries.sort(key=lambda e: e[1])

    def volumes():
        grid = None
        for p, _ in entries:
            vol = read_nifti(p)
            if grid is None:
                grid = vol.dims, vol.spacing
            _check_grid(vol, *grid)
            yield vol
            del vol

    return np.array([t for _, t in entries]), volumes()


def load_series(manifest: Sequence[tuple], *, label: str = "series") -> Volume4D:
    """Assemble a 4D series from (path, time_in_weeks) entries.

    The entries and volumes are checked as iter_series checks them.
    """
    times, volumes = iter_series(manifest, label=label)
    return Volume4D(volumes=list(volumes), times=times)


def read_manifest(path) -> list[tuple[Path, float]]:
    """Parse a plain-text manifest: one `<path><TAB><time_weeks>` per line.

    Relative paths resolve against the manifest's directory. Blank lines and
    lines starting with `#` are ignored; a `#` elsewhere is part of the path.
    """
    path = Path(path)
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected `path<TAB>time`")
        try:
            t = float(parts[1])
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise ValueError(f"{path}:{lineno}: time {parts[1]!r} is not a finite number")
        p = Path(parts[0])
        if not p.is_absolute():
            p = path.parent / p
        entries.append((p, t))
    return entries


def format_time(t: float) -> str:
    """Shortest decimal that reads back as exactly `t` ("21", "21.5", "21.428571428571427")."""
    return np.format_float_positional(float(t), trim="-")


def write_manifest(entries: Sequence[tuple], path) -> None:
    """Write a manifest for read_manifest.

    A path or time it cannot read back (a non-finite time) raises ValueError
    naming the entry, before anything is written.
    """
    path = Path(path)
    lines = []
    for p, t in entries:
        p = Path(p)
        try:
            rel = str(p.relative_to(path.parent))
        except ValueError:
            rel = str(p)
        if rel.startswith("#") or rel != rel.lstrip() or "\t" in rel or rel.splitlines() != [rel]:
            raise ValueError(f"manifest cannot hold path {rel!r}: it starts with '#' or "
                             f"whitespace, or holds a tab or line break")
        if not math.isfinite(float(t)):
            raise ValueError(f"manifest cannot hold time {t!r} of {rel!r}: it is not finite")
        lines.append(f"{rel}\t{format_time(t)}")
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Normalization


def normalize_intensity(series: Volume4D) -> Volume4D:
    """Map all intensities affinely to [0, 1] using the series-global range.

    The original (min, max) is kept in intensity_scale so exported volumes
    can be mapped back. A non-finite voxel or a constant series has no
    usable range and is an error rather than a silent pass-through.
    """
    lo = np.array([v.data.min() for v in series.volumes])
    hi = np.array([v.data.max() for v in series.volumes])
    bad = ~(np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        raise ValueError(f"non-finite intensity in the volume at time {series.times[bad][0]:g}")
    gmin, gmax = float(lo.min()), float(hi.max())
    if gmax <= gmin:
        raise ValueError("degenerate intensity range: series is constant")
    scale = gmax - gmin
    volumes = [
        replace(v, data=(v.data - gmin) / scale) for v in series.volumes
    ]
    return Volume4D(volumes=volumes, times=series.times.copy(),
                    intensity_scale=(gmin, gmax))


def denormalize_intensity(values: np.ndarray, intensity_scale: tuple[float, float]) -> np.ndarray:
    """Invert normalize_intensity on an array of normalized values."""
    gmin, gmax = intensity_scale
    return values * (gmax - gmin) + gmin


# ---------------------------------------------------------------------------
# Coordinate grids


def _axis_coords(n: int) -> np.ndarray:
    # (2i - (n-1)) / (n-1): integer numerator keeps mirror symmetry exact.
    if n == 1:
        return np.zeros(1)
    return (2.0 * np.arange(n) - (n - 1)) / (n - 1)


def voxel_coords(dims: tuple[int, int, int], index) -> np.ndarray:
    """Normalized voxel-center coordinates of the voxels at flat `index`.

    One (x, y, z) row per entry of `index`, a flat index in disk order
    (x fastest), gathered from the per-axis coordinate vectors, so no
    whole-grid array is formed; coord_grid(dims)[index] gives the same
    rows. Each axis is mapped so centers span [-1, 1] (a single-voxel axis
    maps to 0), whatever the physical spacing.
    """
    dims = grid_dims(dims)
    ijk = np.unravel_index(np.asarray(index, dtype=np.int64), dims, order="F")
    return np.stack([_axis_coords(n)[i] for n, i in zip(dims, ijk)], axis=1)


def coord_grid(dims: tuple[int, int, int]) -> np.ndarray:
    """voxel_coords of every voxel: one (x, y, z) row per voxel, in the
    disk/flat data layout's order."""
    dims = grid_dims(dims)
    return voxel_coords(dims, np.arange(math.prod(dims)))


def normalize_times(times, time_range: tuple[float, float]) -> np.ndarray:
    """Map times affinely so [t_min, t_max] spans [-1, 1]."""
    t0, t1 = float(time_range[0]), float(time_range[1])
    if t1 <= t0:
        raise ValueError("time range must have t_max > t_min")
    t = np.asarray(times, dtype=np.float64)
    return (2.0 * t - t0 - t1) / (t1 - t0)
