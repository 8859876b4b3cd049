import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atlas4d.encoding import FourierEncoder


def test_default_feature_length():
    enc = FourierEncoder()
    assert enc.l_space == 128 and enc.l_time == 32
    assert enc.out_dim == 2 * 128 + 2 * 32 == 320
    assert enc.encode(np.zeros(4)).shape == (320,)


def test_minimal_feature_length():
    enc = FourierEncoder(l_space=1, l_time=1, seed=0)
    assert enc.out_dim == 4
    assert enc.encode(np.zeros(4)).shape == (4,)


def test_zero_feature_counts_rejected():
    with pytest.raises(ValueError):
        FourierEncoder(l_space=0, l_time=1)
    with pytest.raises(ValueError):
        FourierEncoder(l_space=1, l_time=0)


def test_same_seed_identical_matrices():
    a = FourierEncoder(16, 4, seed=123)
    b = FourierEncoder(16, 4, seed=123)
    assert np.array_equal(a.b_space, b.b_space)
    assert np.array_equal(a.b_time, b.b_time)


def test_different_seed_differs():
    a = FourierEncoder(16, 4, seed=1)
    b = FourierEncoder(16, 4, seed=2)
    assert not np.array_equal(a.b_space, b.b_space)


def test_origin_gives_ones_and_zeros():
    enc = FourierEncoder(8, 3, seed=0)
    f = enc.encode(np.zeros(4))
    ls, lt = enc.l_space, enc.l_time
    assert np.all(f[:ls] == 1.0)                       # cos space
    assert np.all(f[ls:2 * ls] == 0.0)                 # sin space
    assert np.all(f[2 * ls:2 * ls + lt] == 1.0)        # cos time
    assert np.all(f[2 * ls + lt:] == 0.0)              # sin time


def test_pythagorean_identity_1000_points():
    enc = FourierEncoder(12, 5, seed=7)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(1000, 4))
    f = enc.encode(pts)
    ls, lt = enc.l_space, enc.l_time
    s = f[:, :ls] ** 2 + f[:, ls:2 * ls] ** 2
    t = f[:, 2 * ls:2 * ls + lt] ** 2 + f[:, 2 * ls + lt:] ** 2
    assert np.max(np.abs(s - 1.0)) <= 1e-12
    assert np.max(np.abs(t - 1.0)) <= 1e-12


def test_hand_computed_single_row():
    # B_space = [0.5, 0, 0] and x = (1,0,0): argument is 2*pi*0.5 = pi
    enc = FourierEncoder.from_matrices(
        b_space=np.array([[0.5, 0.0, 0.0]]), b_time=np.array([[0.25]])
    )
    f = enc.encode(np.array([1.0, 0.0, 0.0, 0.0]))
    assert f[0] == pytest.approx(math.cos(math.pi), abs=1e-12)  # -1
    assert abs(f[1]) <= 1e-12                                   # sin(pi)
    assert f[2] == 1.0 and f[3] == 0.0                          # t = 0


def test_time_change_leaves_spatial_block_bit_identical():
    enc = FourierEncoder(10, 4, seed=5)
    rng = np.random.default_rng(1)
    p = rng.uniform(-1, 1, 4)
    q = p.copy()
    q[3] += 0.37
    fp, fq = enc.encode(p), enc.encode(q)
    n_spatial = 2 * enc.l_space
    assert np.array_equal(fp[:n_spatial], fq[:n_spatial])
    assert not np.array_equal(fp[n_spatial:], fq[n_spatial:])


def test_encode_is_pure_and_deterministic():
    enc = FourierEncoder(6, 2, seed=9)
    pts = np.random.default_rng(2).uniform(-1, 1, size=(50, 4))
    assert np.array_equal(enc.encode(pts), enc.encode(pts))


def test_non_finite_input_rejected():
    enc = FourierEncoder(2, 2, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        enc.encode(np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        enc.encode(np.array([[0.0, 0.0, np.inf, 0.0]]))


def test_wrong_width_rejected():
    enc = FourierEncoder(2, 2, seed=0)
    with pytest.raises(ValueError, match="4 components"):
        enc.encode(np.zeros((3, 3)))


def test_batch_matches_single():
    # batched and single-point paths may differ by an ulp (BLAS blocking)
    enc = FourierEncoder(5, 3, seed=4)
    pts = np.random.default_rng(3).uniform(-1, 1, size=(7, 4))
    batch = enc.encode(pts)
    for i in range(7):
        assert np.allclose(batch[i], enc.encode(pts[i]), rtol=0, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(l_space=st.integers(1, 20), l_time=st.integers(1, 20), seed=st.integers(0, 2**16),
       points=st.integers(1, 30).flatmap(lambda n: arrays(
           np.float64, (n, 4), elements=st.floats(-2.0, 2.0, allow_nan=False))))
def test_encode_is_space_block_then_time_block(l_space, l_time, seed, points):
    enc = FourierEncoder(l_space, l_time, seed=seed)
    parts = np.concatenate([enc.encode_space(points[:, :3]), enc.encode_time(points[:, 3])],
                           axis=1)
    assert np.array_equal(enc.encode(points), parts)


def test_encode_time_rejects_non_finite_input():
    enc = FourierEncoder(2, 2, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            enc.encode_time(np.array([0.0, bad]))
