"""Adam with bias correction and a step-decay learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class LrSchedule:
    base_lr: float = 1e-4
    decay_factor: float = 0.5
    decay_every: int = 100

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.decay_every < 1:
            raise ValueError("decay_every must be >= 1")


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    """base_lr * decay_factor ** floor(epoch / decay_every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return schedule.base_lr * schedule.decay_factor ** (epoch // schedule.decay_every)


class AdamState:
    """First/second moment accumulators mirroring a named parameter set."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One in-place Adam update of every named parameter.

    Non-finite gradients abort with DivergenceError instead of being
    silently absorbed.
    """
    if set(grads) != set(params):
        missing = set(params) ^ set(grads)
        raise ValueError(f"gradient/parameter name mismatch: {sorted(missing)}")
    for k, g in grads.items():
        if g.shape != params[k].shape:
            raise ValueError(f"shape mismatch for {k}: {g.shape} vs {params[k].shape}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"divergence: non-finite gradient in {k}")

    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for k, g in grads.items():
        m, v = state.m[k], state.v[k]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        params[k] -= lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)


def sum_grads(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Elementwise sum of two gradient dicts with identical keys."""
    if set(a) != set(b):
        raise ValueError("gradient dicts have different keys")
    return {k: a[k] + b[k] for k in a}
