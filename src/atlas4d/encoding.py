"""Random Fourier feature mapping for spatial and temporal coordinates.

Space and time are lifted separately: a point (x, y, z, t) becomes
[cos(2*pi*Bs @ xyz), sin(2*pi*Bs @ xyz), cos(2*pi*Bt * t), sin(2*pi*Bt * t)]
with fixed Gaussian projection matrices Bs (L_s x 3) and Bt (L_t x 1). The
matrices are drawn once at construction and never trained.
"""

from __future__ import annotations

import numpy as np


class FourierEncoder:
    """Fixed random projection onto 2*(L_s + L_t) Fourier features."""

    def __init__(self, l_space: int = 128, l_time: int = 32, seed: int = 0):
        encoded_width(l_space, l_time)
        rng = np.random.default_rng(seed)
        self.l_space = int(l_space)
        self.l_time = int(l_time)
        self.b_space = rng.standard_normal((self.l_space, 3))
        self.b_time = rng.standard_normal((self.l_time, 1))

    @classmethod
    def from_matrices(cls, b_space: np.ndarray, b_time: np.ndarray) -> "FourierEncoder":
        """Rebuild an encoder from persisted projection matrices."""
        enc = cls.__new__(cls)
        enc.b_space = np.asarray(b_space, dtype=np.float64)
        enc.b_time = np.asarray(b_time, dtype=np.float64)
        if enc.b_space.ndim != 2 or enc.b_space.shape[1] != 3:
            raise ValueError(f"b_space must be (L_s, 3), got {enc.b_space.shape}")
        if enc.b_time.ndim != 2 or enc.b_time.shape[1] != 1:
            raise ValueError(f"b_time must be (L_t, 1), got {enc.b_time.shape}")
        enc.l_space = enc.b_space.shape[0]
        enc.l_time = enc.b_time.shape[0]
        return enc

    @property
    def out_dim(self) -> int:
        return encoded_width(self.l_space, self.l_time)

    def same_dims(self, other: "FourierEncoder") -> bool:
        return self.l_space == other.l_space and self.l_time == other.l_time

    def encode(self, points) -> np.ndarray:
        """Encode normalized (x, y, z, t) points.

        Accepts a single 4-vector or an (n, 4) batch; the output keeps the
        fixed block order [cos_space, sin_space, cos_time, sin_time].
        """
        p = np.asarray(points, dtype=np.float64)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        if p.shape[1] != 4:
            raise ValueError(f"points must have 4 components, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite coordinate input")
        feats = np.concatenate(
            [*_cos_sin(p[:, :3], self.b_space), *_cos_sin(p[:, 3:4], self.b_time)], axis=1
        )
        return feats[0] if single else feats

    def encode_space(self, xyz: np.ndarray) -> np.ndarray:
        """The [cos_space, sin_space] block alone for (n, 3) coordinates.

        Equals the leading 2 * l_space columns of `encode` bit for bit.
        """
        return np.concatenate(_cos_sin(xyz, self.b_space), axis=1)

    def encode_time(self, t) -> np.ndarray:
        """The [cos_time, sin_time] block alone for n times.

        Equals the trailing 2 * l_time columns of `encode` bit for bit.
        """
        t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite coordinate input")
        return np.concatenate(_cos_sin(t, self.b_time), axis=1)


def encoded_width(l_space: int, l_time: int) -> int:
    """2 * (l_space + l_time), the width of an encoder's output; raises
    ValueError unless both are >= 1. Draws nothing, unlike an encoder."""
    if l_space < 1 or l_time < 1:
        raise ValueError("feature counts must be >= 1")
    return 2 * (l_space + l_time)


def _cos_sin(x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    arg = 2.0 * np.pi * (x @ b.T)
    return np.cos(arg), np.sin(arg)
