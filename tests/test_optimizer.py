import math

import numpy as np
import pytest

from atlas4d.optimizer import (
    AdamState,
    DivergenceError,
    LrSchedule,
    adam_step,
    lr_at,
    sum_grads,
)


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert np.all(state.m["w"] == 0.0) and np.all(state.v["w"] == 0.0)
        assert state.step == 1

    def test_first_step_hand_computed(self):
        # w=0, g=1, lr=0.1: m_hat=1, v_hat=1, so w -> -0.1/(1+eps) ~ -0.1
        params = {"w": np.array([0.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.1)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)
        assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(42)
            params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
            state = AdamState(params)
            for step in range(25):
                grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
                adam_step(params, grads, state, lr=1e-2)
            return params

        p1, p2 = run(), run()
        assert np.array_equal(p1["a"], p2["a"])
        assert np.array_equal(p1["b"], p2["b"])

    def test_non_finite_gradient_aborts(self):
        params = {"w": np.zeros(2)}
        state = AdamState(params)
        with pytest.raises(DivergenceError, match="divergence"):
            adam_step(params, {"w": np.array([1.0, np.nan])}, state, lr=0.1)

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        state = AdamState(params)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)

    def test_name_mismatch(self):
        params = {"w": np.zeros(2)}
        state = AdamState(params)
        with pytest.raises(ValueError, match="name mismatch"):
            adam_step(params, {"q": np.zeros(2)}, state, lr=0.1)

    def test_partition_invariance(self):
        # one concatenated vector must evolve exactly like per-block params
        rng = np.random.default_rng(0)
        whole = rng.normal(size=8)
        blocks = {"a": whole[:3].copy(), "b": whole[3:].copy()}
        merged = {"all": whole.copy()}
        sb, sm = AdamState(blocks), AdamState(merged)
        for _ in range(30):
            g = rng.normal(size=8)
            adam_step(blocks, {"a": g[:3], "b": g[3:]}, sb, lr=3e-3)
            adam_step(merged, {"all": g}, sm, lr=3e-3)
        assert np.array_equal(np.concatenate([blocks["a"], blocks["b"]]),
                              merged["all"])


class TestSchedule:
    def test_paper_values(self):
        sched = LrSchedule()  # 1e-4, halve every 100 epochs
        assert lr_at(sched, 0) == 1e-4
        assert lr_at(sched, 99) == 1e-4
        assert lr_at(sched, 100) == pytest.approx(5e-5)
        assert lr_at(sched, 250) == pytest.approx(2.5e-5)

    def test_non_increasing(self):
        sched = LrSchedule(3e-3, 0.7, 40)
        values = [lr_at(sched, e) for e in range(500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(base_lr=0.0)
        with pytest.raises(ValueError):
            LrSchedule(decay_factor=1.5)
        with pytest.raises(ValueError):
            lr_at(LrSchedule(), -1)


def test_sum_grads():
    a = {"w": np.ones(2)}
    b = {"w": np.full(2, 3.0)}
    assert np.array_equal(sum_grads(a, b)["w"], [4.0, 4.0])
    with pytest.raises(ValueError):
        sum_grads(a, {"q": np.ones(2)})
