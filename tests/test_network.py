import hashlib
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlas4d.encoding import FourierEncoder, row_matmul
from atlas4d.network import (
    CheckpointError,
    MlpConfig,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
)
from atlas4d.network import _expected_shapes, _pack_container, _unpack_container
from atlas4d.volume_io import coord_grid


def mse_loss(model, x, target):
    y, _ = model.forward(x)
    return float(np.mean((y - target) ** 2))


def _central_difference(model, x, target, flat, i, h):
    orig = flat[i]
    flat[i] = orig + h
    lp = mse_loss(model, x, target)
    flat[i] = orig - h
    lm = mse_loss(model, x, target)
    flat[i] = orig
    return (lp - lm) / (2.0 * h)


def _relu_pattern(model, x):
    """Which hidden units pass their ReLU for each row of a train-mode forward."""
    _, cache = model.forward(x)
    return [g * xh + b > 0.0 for g, xh, b in zip(model.bn_gamma, cache.xhat, model.bn_beta)]


def _richardson_difference(model, x, target, flat, i, h):
    """Fourth-order difference (4 * D(h) - D(2h)) / 3 of central differences D.

    Its truncation error falls as h**4, not h**2. The loss is smooth only
    between ReLU kinks, so the step is cut tenfold until no point of the
    +-2h stencil moves a ReLU input across zero.
    """
    base = _relu_pattern(model, x)
    orig = flat[i]
    for _ in range(5):
        same = True
        for step in (-2.0 * h, -h, h, 2.0 * h):
            flat[i] = orig + step
            same = same and all(map(np.array_equal, _relu_pattern(model, x), base))
        flat[i] = orig
        if same:
            break
        h /= 10.0
    return (4.0 * _central_difference(model, x, target, flat, i, h)
            - _central_difference(model, x, target, flat, i, 2.0 * h)) / 3.0


def gradcheck_max_rel_err(model, x, target, h=1e-5, difference=_central_difference):
    """Finite differences over every trainable parameter entry.

    `difference(model, x, target, flat, i, h)` estimates the derivative by
    entry i of a flattened parameter; central differences by default.
    Relative error uses a 1e-6 floor so gradients at or near zero (weights
    into a dead ReLU unit, for example) compare against finite-difference
    noise sanely.
    """
    y, cache = model.forward(x)
    grads = model.backward(cache, 2.0 * (y - target) / y.size)
    worst = 0.0
    for name, p in model.params().items():
        flat = p.ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            num = difference(model, x, target, flat, i, h)
            rel = abs(g[i] - num) / max(abs(g[i]), abs(num), 1e-6)
            worst = max(worst, rel)
    return worst


class TestConfig:
    def test_layer_widths_with_skips(self):
        cfg = MlpConfig(input_dim=320, hidden_width=256, n_layers=18,
                        skip_layers=(6, 12))
        assert cfg.in_width(1) == 320
        assert cfg.in_width(2) == 256
        assert cfg.in_width(7) == 256 + 320
        assert cfg.in_width(13) == 256 + 320
        assert cfg.in_width(18) == 256
        assert cfg.out_width(18) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(input_dim=0)
        with pytest.raises(ValueError):
            MlpConfig(input_dim=4, n_layers=1)
        with pytest.raises(ValueError):
            MlpConfig(input_dim=4, n_layers=4, skip_layers=(4,))
        with pytest.raises(ValueError, match=r"skip_layers repeats a layer: \(1, 2, 2\)"):
            MlpConfig(input_dim=4, n_layers=4, skip_layers=(2, 1, 2))


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = MlpConfig(input_dim=10, hidden_width=7, n_layers=4, skip_layers=(2,))
        a, b = init_mlp(cfg, seed=5), init_mlp(cfg, seed=5)
        for k, v in a.state_dict().items():
            assert np.array_equal(v, b.state_dict()[k]), k

    @pytest.mark.parametrize("cfg, seed, digest", [
        (MlpConfig(input_dim=104, hidden_width=48), 11,
         "d512f50522b278420e0c4be0502c4c93994025e549447c1b59718f8e7bb3adac"),
        (MlpConfig(input_dim=6, hidden_width=5, n_layers=4, skip_layers=(1, 3)), 3,
         "42ea7388b529a935784db2453089e5e0b9cf7aba59ed6de4183450fb173416c6"),
    ], ids=["width48", "width5-skips"])
    def test_state_digest_pinned(self, cfg, seed, digest):
        # sha256 over sorted (name, bytes): any change to the draw order or to
        # an initial value moves every trained model.
        state = init_mlp(cfg, seed=seed).state_dict()
        h = hashlib.sha256()
        for name in sorted(state):
            h.update(name.encode())
            h.update(state[name].tobytes())
        assert h.hexdigest() == digest

    def test_weight_shapes_default_architecture(self):
        cfg = MlpConfig(input_dim=320, hidden_width=256)
        model = init_mlp(cfg, seed=0)
        assert model.weights[0].shape == (256, 320)
        assert model.weights[6].shape == (256, 256 + 320)  # layer 7 follows a skip
        assert model.weights[12].shape == (256, 256 + 320)
        assert model.weights[17].shape == (1, 256)

    def test_bn_initial_state(self):
        model = init_mlp(MlpConfig(input_dim=6, hidden_width=5, n_layers=3,
                                   skip_layers=()), seed=1)
        for rv in model.bn_var:
            assert np.all(rv == 1.0)
        for rm in model.bn_mean:
            assert np.all(rm == 0.0)
        for g in model.bn_gamma:
            assert np.all(g == 1.0)

    def test_num_params_hand_computed(self):
        cfg = MlpConfig(input_dim=320, hidden_width=256, n_layers=18,
                        skip_layers=(6, 12))
        model = init_mlp(cfg, seed=0)
        w = 256
        total = 0
        for j in range(1, 19):
            fan_in = 320 if j == 1 else w + (320 if (j - 1) in (6, 12) else 0)
            out = 1 if j == 18 else w
            total += out * fan_in                # weight
        total += 1                               # output bias
        total += 17 * 2 * w                      # bn scale + shift
        assert sum(p.size for p in model.params().values()) == total


@st.composite
def _architectures(draw):
    n_layers = draw(st.integers(2, 6))
    return MlpConfig(input_dim=draw(st.integers(1, 7)), hidden_width=draw(st.integers(1, 6)),
                     n_layers=n_layers, skip_layers=draw(st.sets(st.integers(1, n_layers - 1))))


class TestStateTable:
    @settings(max_examples=40, deadline=None)
    @given(cfg=_architectures(), seed=st.integers(0, 2**16))
    def test_views_and_round_trip(self, tmp_path_factory, cfg, seed):
        model = init_mlp(cfg, seed=seed)
        shapes = _expected_shapes(cfg)
        assert {k: v.shape for k, v in model.state_dict().items()} == shapes
        assert list(model.state_dict()) == list(shapes)
        model.forward(np.random.default_rng(seed).normal(size=(8, cfg.input_dim)))
        running = {k: v.copy() for k, v in model.state_dict().items() if k.startswith("bn_r")}
        n = cfg.n_layers
        assert set(running) == {f"bn_r{s}{j}" for s in "mv" for j in range(1, n)}

        # An in-place update through params() shows in the lists and state_dict().
        values = {k: float(i + 2) for i, k in enumerate(model.params())}
        assert set(values) | set(running) == set(shapes)
        for k, v in model.params().items():
            v[...] = values[k]
        for j in range(1, n + 1):
            assert np.all(model.weights[j - 1] == values[f"w{j}"])
        assert np.all(model.out_bias == values[f"b{n}"])
        for j in range(1, n):
            assert np.all(model.bn_gamma[j - 1] == values[f"bn_g{j}"])
            assert np.all(model.bn_beta[j - 1] == values[f"bn_b{j}"])
            assert np.array_equal(model.bn_mean[j - 1], running[f"bn_rm{j}"])
            assert np.array_equal(model.bn_var[j - 1], running[f"bn_rv{j}"])
        state = model.state_dict()
        for k, x in values.items():
            assert np.all(state[k] == x), k

        p = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_checkpoint(model, p)
        back = load_checkpoint(p).state_dict()
        assert list(back) == list(shapes)
        for k, v in state.items():
            assert back[k].dtype == v.dtype and back[k].tobytes() == v.tobytes(), k


class TestForward:
    def test_zero_model_outputs_zero(self):
        cfg = MlpConfig(input_dim=4, hidden_width=3, n_layers=3, skip_layers=())
        model = init_mlp(cfg, seed=0).eval()
        for w in model.weights:
            w[:] = 0.0
        model.out_bias[:] = 0.0
        y, cache = model.forward(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.all(y == 0.0)
        assert cache is None

    def test_eval_forward_is_pure(self):
        cfg = MlpConfig(input_dim=6, hidden_width=8, n_layers=4, skip_layers=(2,))
        model = init_mlp(cfg, seed=2).eval()
        x = np.random.default_rng(1).normal(size=(9, 6))
        y1, _ = model.forward(x)
        y2, _ = model.forward(x)
        assert np.array_equal(y1, y2)

    def test_eval_forward_leaves_state_unchanged(self):
        cfg = MlpConfig(input_dim=6, hidden_width=8, n_layers=5, skip_layers=(1, 3))
        model = init_mlp(cfg, seed=2)
        model.forward(np.random.default_rng(0).normal(size=(32, 6)))  # move running stats
        model.eval()
        before = model.snapshot()
        model.forward(np.random.default_rng(1).normal(size=(9, 6)))
        for k, v in model.state_dict().items():
            assert np.array_equal(v, before[k]), k

    def test_train_forward_updates_running_stats(self):
        cfg = MlpConfig(input_dim=4, hidden_width=3, n_layers=3, skip_layers=())
        model = init_mlp(cfg, seed=3)
        before = model.bn_mean[0].copy()
        model.forward(np.random.default_rng(2).normal(size=(16, 4)))
        assert not np.array_equal(before, model.bn_mean[0])

    def test_train_batch_of_one_rejected(self):
        model = init_mlp(MlpConfig(input_dim=4, hidden_width=3, n_layers=3,
                                   skip_layers=()), seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            model.forward(np.zeros((1, 4)))

    def test_width_mismatch_rejected(self):
        model = init_mlp(MlpConfig(input_dim=4, hidden_width=3, n_layers=3,
                                   skip_layers=()), seed=0)
        with pytest.raises(ValueError, match="width mismatch"):
            model.forward(np.zeros((2, 5)))

    def test_two_layer_pencil_and_paper(self):
        # one hidden unit, hand-set parameters, batch of two:
        #   z = [1.5, 2.5], mu = 2, var = 0.25
        #   xhat = -/+ 0.5 / sqrt(0.25 + eps)
        #   h = 1.5 * xhat + 0.5, relu, y = 0.5 * a + 0.1
        eps = 1e-5
        cfg = MlpConfig(input_dim=2, hidden_width=1, n_layers=2, skip_layers=(),
                        bn_epsilon=eps)
        model = init_mlp(cfg, seed=0)
        model.weights[0][:] = [[1.0, 2.0]]
        model.bn_gamma[0][:] = [1.5]
        model.bn_beta[0][:] = [0.5]
        model.weights[1][:] = [[0.5]]
        model.out_bias[:] = [0.1]

        x = np.array([[1.5, 0.0], [0.5, 1.0]])
        y, cache = model.forward(x)

        inv = 1.0 / math.sqrt(0.25 + eps)
        h0 = 1.5 * (-0.5 * inv) + 0.5   # negative, relu clips to 0
        h1 = 1.5 * (0.5 * inv) + 0.5
        assert h0 < 0 < h1
        expected = np.array([0.5 * 0.0 + 0.1, 0.5 * h1 + 0.1])
        assert np.allclose(y, expected, atol=1e-12)
        assert cache is not None

    def test_bn_whitening_property(self):
        # normalized pre-activations: per-feature batch mean ~0, variance ~1
        cfg = MlpConfig(input_dim=12, hidden_width=10, n_layers=5,
                        skip_layers=(2,), bn_epsilon=1e-8)
        model = init_mlp(cfg, seed=4)
        x = np.random.default_rng(5).normal(size=(64, 12))
        _, cache = model.forward(x)
        for xhat in cache.xhat:
            assert np.max(np.abs(xhat.mean(axis=0))) < 1e-10
            assert np.max(np.abs(xhat.var(axis=0) - 1.0)) < 1e-6

    def test_skip_slots_carry_raw_input(self):
        cfg = MlpConfig(input_dim=5, hidden_width=4, n_layers=6, skip_layers=(3,))
        model = init_mlp(cfg, seed=6)
        x = np.random.default_rng(6).normal(size=(8, 5))
        _, cache = model.forward(x)
        layer4_input = model._layer_output(3, cache.xhat[2], cache.x, {})
        assert np.array_equal(layer4_input[:, 4:], x)

    def test_zeroed_input_changes_only_skip_slots(self):
        # with the early layers silenced, the activation path is constant in
        # the input, so layer inputs after the skip differ only in the slots
        cfg = MlpConfig(input_dim=5, hidden_width=4, n_layers=6, skip_layers=(3,))
        model = init_mlp(cfg, seed=7)
        for j in range(3):
            model.weights[j][:] = 0.0
        x = np.random.default_rng(7).normal(size=(8, 5))
        _, cache_x = model.forward(x)
        _, cache_0 = model.forward(np.zeros_like(x))
        a_x = model._layer_output(3, cache_x.xhat[2], cache_x.x, {})
        a_0 = model._layer_output(3, cache_0.xhat[2], cache_0.x, {})
        assert np.array_equal(a_x[:, :4], a_0[:, :4])
        assert np.array_equal(a_x[:, 4:], x)
        assert np.all(a_0[:, 4:] == 0.0)


def _train_reference(model, x):
    """Train-mode forward written out with concatenation and no buffers.

    Returns (every hidden layer's output including its skip slots, y); the
    operation order matches InrModel.forward, so results agree bit for bit.
    """
    cfg = model.cfg
    a, outputs = x, []
    for j in range(1, cfg.n_layers):
        z = a @ model.weights[j - 1].T
        z = z - z.mean(axis=0)
        var = np.einsum("ij,ij->j", z, z) / x.shape[0]
        xhat = z * (1.0 / np.sqrt(var + cfg.bn_epsilon))
        a = np.maximum(xhat * model.bn_gamma[j - 1] + model.bn_beta[j - 1], 0.0)
        if j in cfg.skip_layers:
            a = np.concatenate([a, x], axis=1)
        outputs.append(a)
    return outputs, (a @ model.weights[-1].T + model.out_bias).ravel()


class TestForwardCache:
    def _model(self):
        cfg = MlpConfig(input_dim=5, hidden_width=6, n_layers=7, skip_layers=(2, 3, 5))
        model = init_mlp(cfg, seed=8)
        rng = np.random.default_rng(8)
        for g, b in zip(model.bn_gamma, model.bn_beta):
            g[:] = rng.uniform(-2.0, 2.0, g.size)
            b[:] = rng.normal(size=b.size)
        return model, rng.normal(size=(11, 5))

    def test_rebuilt_outputs_match_train_reference_bitwise(self):
        model, x = self._model()
        ref_outputs, ref_y = _train_reference(model, x)
        y, cache = model.forward(x)
        assert np.array_equal(y, ref_y)
        bufs = {}
        for j in range(model.cfg.n_layers - 1, 0, -1):  # backward's order and buffers
            rebuilt = model._layer_output(j, cache.xhat[j - 1], cache.x, bufs)
            assert np.array_equal(rebuilt, ref_outputs[j - 1]), j

    def test_cache_holds_no_layer_outputs(self):
        cfg = MlpConfig(input_dim=40, hidden_width=16, n_layers=8, skip_layers=(3, 6))
        model = init_mlp(cfg, seed=9)
        batch = 64
        x = np.random.default_rng(9).normal(size=(batch, cfg.input_dim))
        _, cache = model.forward(x)
        total = sum(a.nbytes for v in vars(cache).values()
                    for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray))
        n_hidden = cfg.n_layers - 1
        assert total <= (x.nbytes + n_hidden * batch * cfg.hidden_width * 8
                         + n_hidden * cfg.hidden_width * 8)



def _unfolded_eval(model, x):
    """Eval forward written out layer by layer, batch norm not folded."""
    cfg = model.cfg
    a = x
    for j in range(1, cfg.n_layers):
        z = a @ model.weights[j - 1].T
        xhat = (z - model.bn_mean[j - 1]) / np.sqrt(model.bn_var[j - 1] + cfg.bn_epsilon)
        a = np.maximum(xhat * model.bn_gamma[j - 1] + model.bn_beta[j - 1], 0.0)
        if j in cfg.skip_layers:
            a = np.concatenate([a, x], axis=1)
    return (a @ model.weights[-1].T + model.out_bias).ravel()


@st.composite
def _eval_models(draw):
    n_layers = draw(st.integers(2, 7))
    cfg = MlpConfig(
        input_dim=draw(st.integers(1, 9)),
        hidden_width=draw(st.integers(1, 12)),
        n_layers=n_layers,
        skip_layers=draw(st.sets(st.integers(1, n_layers - 1))),
        bn_epsilon=draw(st.sampled_from([1e-5, 1e-3])),
    )
    model = init_mlp(cfg, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w = cfg.hidden_width
    for j in range(cfg.n_layers - 1):
        model.bn_gamma[j][:] = rng.uniform(-2.0, 2.0, w)
        model.bn_beta[j][:] = rng.normal(size=w)
        model.bn_mean[j][:] = rng.normal(size=w)
        # running variances down to far below eps, where eps dominates
        model.bn_var[j][:] = 10.0 ** rng.uniform(-9.0, 1.0, w)
    x = rng.normal(size=(draw(st.integers(1, 20)), cfg.input_dim))
    return model.eval(), x


class TestFoldedEval:
    @settings(max_examples=200, deadline=None)
    @given(_eval_models())
    def test_matches_unfolded_reference(self, case):
        model, x = case
        before = model.snapshot()
        y, cache = model.forward(x)
        want = _unfolded_eval(model, x)
        assert cache is None
        assert y.shape == want.shape
        assert np.max(np.abs(y - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
        for k, v in model.state_dict().items():
            assert np.array_equal(v, before[k]), k

    def test_sees_in_place_parameter_updates(self):
        cfg = MlpConfig(input_dim=5, hidden_width=6, n_layers=4, skip_layers=(2,))
        model = init_mlp(cfg, seed=4).eval()
        x = np.random.default_rng(3).normal(size=(7, 5))
        y0, _ = model.forward(x)
        model.bn_var[1] *= 4.0
        model.bn_gamma[0] += 0.5
        y1, _ = model.forward(x)
        assert not np.array_equal(y0, y1)
        assert np.allclose(y1, _unfolded_eval(model, x), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("width", [48, 256])
    def test_rows_independent_of_call_size_at_network_widths(self, width):
        # Row independence is a property of the BLAS kernels OpenBLAS picks
        # per shape, not of every width: with OpenBLAS 0.3.31, widths such
        # as 10, 12, 17 or 28 give a 17-row call other last bits than one
        # 4096-row call. This pins the widths the acceptance and paper
        # configurations use.
        enc = FourierEncoder(40, 12, seed=1)
        model = init_mlp(MlpConfig(input_dim=enc.out_dim, hidden_width=width),
                         seed=3, encoder=enc).eval()
        grid = coord_grid((16, 16, 16))
        x = enc.encode(np.column_stack([grid, np.full(grid.shape[0], 0.3)]))
        whole, _ = model.forward(x)
        parts = [model.forward(x[i:i + 17])[0] for i in range(0, x.shape[0], 17)]
        assert np.array_equal(np.concatenate(parts), whole)

class TestBackward:
    def _small(self, seed=0):
        cfg = MlpConfig(input_dim=6, hidden_width=8, n_layers=4, skip_layers=(2,))
        return init_mlp(cfg, seed=seed)

    def test_zero_upstream_gives_zero_grads(self):
        model = self._small()
        x = np.random.default_rng(0).normal(size=(4, 6))
        _, cache = model.forward(x)
        grads = model.backward(cache, np.zeros(4))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(11)
        model = self._small(seed=1)
        x = rng.normal(size=(4, 6))
        target = rng.normal(size=4)
        assert gradcheck_max_rel_err(model, x, target) < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(layers=st.integers(2, 5).flatmap(
               lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n - 1)))),
           width=st.integers(1, 6), input_dim=st.integers(1, 6), batch=st.integers(3, 8),
           init_seed=st.integers(0, 2**16), data_seed=st.integers(0, 2**16))
    # Layer 1's pre-BN variance sits near bn_epsilon here, where a plain
    # central difference at h=1e-5 is off by 2.2e-4 from truncation alone.
    # The fourth-order reference allows a step whose rounding error is
    # smaller; its kink check keeps the larger step off ReLU corners.
    @example(layers=(3, set()), width=1, input_dim=1, batch=3, init_seed=1050, data_seed=0)
    def test_finite_difference_agreement_random_architectures(
            self, layers, width, input_dim, batch, init_seed, data_seed):
        n_layers, skips = layers
        cfg = MlpConfig(input_dim=input_dim, hidden_width=width, n_layers=n_layers,
                        skip_layers=tuple(skips))
        model = init_mlp(cfg, seed=init_seed)
        rng = np.random.default_rng(data_seed)
        x = rng.normal(size=(batch, input_dim))
        target = rng.normal(size=batch)
        assert gradcheck_max_rel_err(model, x, target, h=3e-5,
                                     difference=_richardson_difference) < 1e-4

    def test_gradients_cover_exactly_the_parameters(self):
        model = self._small()
        _, cache = model.forward(np.random.default_rng(5).normal(size=(4, 6)))
        grads = model.backward(cache, np.ones(4))
        assert set(grads) == set(model.params())
        assert [k for k in grads if k[0] == "b" and k[1:].isdigit()] == ["b4"]

    def test_eval_mode_backward_rejected(self):
        model = self._small()
        x = np.random.default_rng(1).normal(size=(4, 6))
        _, cache = model.forward(x)
        model.eval()
        with pytest.raises(ValueError, match="eval-mode"):
            model.backward(cache, np.zeros(4))

    def test_stale_cache_rejected(self):
        model = self._small()
        x = np.random.default_rng(2).normal(size=(4, 6))
        _, cache = model.forward(x)
        model.mark_updated()
        with pytest.raises(ValueError, match="stale cache"):
            model.backward(cache, np.zeros(4))

    def test_mismatched_cache_rejected(self):
        m1, m2 = self._small(seed=1), self._small(seed=2)
        x = np.random.default_rng(3).normal(size=(4, 6))
        _, cache = m1.forward(x)
        with pytest.raises(ValueError, match="mismatched cache"):
            m2.backward(cache, np.zeros(4))

    def test_missing_cache_rejected(self):
        model = self._small()
        with pytest.raises(ValueError, match="mismatched cache"):
            model.backward(None, np.zeros(4))

    def test_spent_cache_rejected(self):
        model = self._small()
        _, cache = model.forward(np.random.default_rng(4).normal(size=(4, 6)))
        model.backward(cache, np.ones(4))
        with pytest.raises(ValueError, match="spent cache"):
            model.backward(cache, np.ones(4))

    def test_cache_input_unchanged(self):
        # backward overwrites the cached xhat arrays but must not touch x
        model = self._small()
        x = np.random.default_rng(6).normal(size=(4, 6))
        x_before = x.copy()
        _, cache = model.forward(x)
        model.backward(cache, np.ones(4))
        assert cache.x is x
        assert np.array_equal(x, x_before)


class TestCheckpoint:
    def _model(self):
        enc = FourierEncoder(6, 2, seed=9)
        cfg = MlpConfig(input_dim=enc.out_dim, hidden_width=5, n_layers=4,
                        skip_layers=(2,))
        model = init_mlp(cfg, seed=8, encoder=enc)
        model.meta = {"time_range": [21.0, 30.0], "intensity_scale": [0.0, 2.0]}
        return model

    def test_round_trip_bit_identical_outputs(self, tmp_path):
        model = self._model()
        # nudge running stats away from the defaults first
        model.forward(np.random.default_rng(1).normal(size=(16, model.cfg.input_dim)))
        model.eval()
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        back = load_checkpoint(p)
        assert back.mode == "eval"
        assert back.meta == model.meta
        x = np.random.default_rng(2).normal(size=(100, model.cfg.input_dim))
        y1, _ = model.forward(x)
        y2, _ = back.forward(x)
        assert np.array_equal(y1, y2)
        assert np.array_equal(back.encoder.b_space, model.encoder.b_space)
        assert np.array_equal(back.encoder.b_time, model.encoder.b_time)

    def test_truncated_checkpoint(self, tmp_path):
        model = self._model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"garbage-not-a-checkpoint")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(p)

    def test_checksum_failure(self, tmp_path):
        model = self._model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        blob = bytearray(p.read_bytes())
        blob[60] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(p)

    @settings(max_examples=100, deadline=None)
    @given(bit=st.integers(0, 2**31))
    def test_any_single_bit_flip_raises_checkpoint_error(self, tmp_path_factory, bit):
        p = tmp_path_factory.mktemp("flip") / "m.ckpt"
        save_checkpoint(self._model(), p)
        blob = bytearray(p.read_bytes())
        bit %= 8 * len(blob)
        blob[bit // 8] ^= 1 << (bit % 8)
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib
        model = self._model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, 8, 99)  # version field after 8-byte magic
        body = bytes(blob[8:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body))
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_checkpoint(p)

    def test_no_optimizer_state_saved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(self._model(), p)
        meta, arrays = _unpack_container(p.read_bytes(), p)
        assert "has_optimizer" not in meta
        assert not [k for k in arrays if k.startswith("opt.")]

    def test_loads_checkpoint_with_optimizer_state(self, tmp_path):
        # Older checkpoints also carried Adam moments; loading ignores them.
        model = self._model()
        model.forward(np.random.default_rng(1).normal(size=(16, model.cfg.input_dim)))
        model.eval()
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        meta, arrays = _unpack_container(p.read_bytes(), p)
        rng = np.random.default_rng(3)
        for k, v in model.params().items():
            arrays[f"opt.m.{k}"] = rng.normal(size=v.shape)
            arrays[f"opt.v.{k}"] = rng.uniform(size=v.shape)
        arrays["opt.step"] = np.array([7], dtype=np.int64)
        meta["has_optimizer"] = True
        p.write_bytes(_pack_container(meta, arrays))
        back = load_checkpoint(p)
        x = np.random.default_rng(2).normal(size=(100, model.cfg.input_dim))
        assert np.array_equal(back.forward(x)[0], model.forward(x)[0])
        for k, v in model.state_dict().items():
            assert np.array_equal(back.state_dict()[k], v), k

    def test_no_hidden_biases_saved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(self._model(), p)
        _, arrays = _unpack_container(p.read_bytes(), p)
        assert [k for k in arrays if k[0] == "b" and k[1:].isdigit()] == ["b4"]

    def test_hidden_biases_fold_into_running_means(self, tmp_path):
        # Older checkpoints carry pre-batch-norm biases b1..b{n-1}. Eval then
        # folded them as (b - running_mean) * scale + beta; loading must give
        # that output bit for bit.
        model = self._model()
        model.forward(np.random.default_rng(1).normal(size=(16, model.cfg.input_dim)))
        model.eval()
        rng = np.random.default_rng(4)
        n, w = model.cfg.n_layers, model.cfg.hidden_width
        for j in range(n - 1):
            model.bn_gamma[j][:] = rng.uniform(-2.0, 2.0, w)
            model.bn_beta[j][:] = rng.normal(size=w)
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        meta, arrays = _unpack_container(p.read_bytes(), p)
        hidden = [rng.uniform(-0.5, 0.5, w) for _ in range(n - 1)]
        for j, b in enumerate(hidden, start=1):
            arrays[f"b{j}"] = b
        p.write_bytes(_pack_container(meta, arrays))
        back = load_checkpoint(p)
        x = np.random.default_rng(2).normal(size=(100, model.cfg.input_dim))
        assert np.array_equal(back.forward(x)[0], _biased_fold_eval(model, hidden, x))
        for j, b in enumerate(hidden, start=1):
            assert np.array_equal(back.bn_mean[j - 1], model.bn_mean[j - 1] - b)

    def test_snapshot_round_trip_preserves_param_identity(self):
        model = self._model()
        params_before = model.params()
        snap = model.snapshot()
        for v in model.params().values():
            v += 1.0
        model.load_snapshot(snap)
        params_after = model.params()
        for k in params_before:
            assert params_before[k] is params_after[k]
            assert np.array_equal(params_after[k], snap[k])


def _biased_fold_eval(model, hidden_biases, x):
    """Eval forward of a model with pre-batch-norm biases, folded as
    b' = (b - running_mean) * scale + beta in the order earlier versions used.

    The layers multiply by C-contiguous W.T and sum their terms as eval mode
    does: a layer that reads the raw input adds x's time columns, the hidden
    state, x's spatial columns, then the bias.
    """
    cfg = model.cfg
    k = 2 * model.encoder.l_space
    a = None
    for j in range(1, cfg.n_layers + 1):
        if j < cfg.n_layers:
            scale = model.bn_gamma[j - 1] / np.sqrt(model.bn_var[j - 1] + cfg.bn_epsilon)
            wt = np.ascontiguousarray((model.weights[j - 1] * scale[:, None]).T)
            b = (hidden_biases[j - 1] - model.bn_mean[j - 1]) * scale
            b += model.bn_beta[j - 1]
        else:
            wt, b = model.weights[-1].T, model.out_bias
        if j == 1 or j - 1 in cfg.skip_layers:
            lo = wt.shape[0] - cfg.input_dim
            h = row_matmul(x[:, k:], wt[lo + k:])
            if lo:
                h += row_matmul(a, wt[:lo])
            h += row_matmul(x[:, :k], wt[lo:lo + k])
        else:
            h = row_matmul(a, wt)
        h += b
        a = np.maximum(h, 0.0) if j < cfg.n_layers else h
    return a.ravel()


def _raw_checkpoint(meta_blob: bytes, entries) -> bytes:
    """A checkpoint container built byte by byte, with a valid CRC.

    entries: (name, dtype_code, shape, raw_bytes) per array.
    """
    body = struct.pack("<II", 1, len(meta_blob)) + meta_blob
    body += struct.pack("<I", len(entries))
    for name, code, shape, raw in entries:
        nm = name.encode("utf-8")
        body += struct.pack("<H", len(nm)) + nm + struct.pack("<BB", code, len(shape))
        body += struct.pack(f"<{len(shape)}q", *shape) + struct.pack("<Q", len(raw)) + raw
    return b"A4DCKPT\x00" + body + struct.pack("<I", zlib.crc32(body))


class TestMalformedCheckpoint:
    """Crafted files with valid checksums that must still be rejected."""

    def _model(self):
        return TestCheckpoint()._model()

    def _parts(self, tmp_path):
        """(meta, arrays) exactly as save_checkpoint would write them."""
        model = self._model()
        p = tmp_path / "ok.ckpt"
        save_checkpoint(model, p)
        return _unpack_container(p.read_bytes(), p)

    def _write(self, tmp_path, blob):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(blob)
        return p

    def test_unknown_dtype_code(self, tmp_path):
        meta, _ = self._parts(tmp_path)
        blob = _raw_checkpoint(json.dumps(meta).encode(), [("w1", 9, (2,), bytes(16))])
        p = self._write(tmp_path, blob)
        with pytest.raises(CheckpointError, match=r"unknown dtype code 9.*bad\.ckpt"):
            load_checkpoint(p)

    def test_byte_count_disagrees_with_shape(self, tmp_path):
        meta, _ = self._parts(tmp_path)
        blob = _raw_checkpoint(json.dumps(meta).encode(), [("w1", 0, (3,), bytes(16))])
        p = self._write(tmp_path, blob)
        with pytest.raises(CheckpointError, match=r"holds 16 bytes.*bad\.ckpt"):
            load_checkpoint(p)

    def test_meta_not_json(self, tmp_path):
        p = self._write(tmp_path, _raw_checkpoint(b"{not json", []))
        with pytest.raises(CheckpointError, match=r"undecodable meta.*bad\.ckpt"):
            load_checkpoint(p)

    def test_meta_not_utf8(self, tmp_path):
        p = self._write(tmp_path, _raw_checkpoint(b'{"kind": "\xff"}', []))
        with pytest.raises(CheckpointError, match=r"undecodable meta.*bad\.ckpt"):
            load_checkpoint(p)

    def test_meta_not_an_object(self, tmp_path):
        p = self._write(tmp_path, _raw_checkpoint(b"[1, 2]", []))
        with pytest.raises(CheckpointError, match=r"not an object.*bad\.ckpt"):
            load_checkpoint(p)

    def test_bad_mlp_meta(self, tmp_path):
        meta, arrays = self._parts(tmp_path)
        meta["mlp"]["n_layers"] = 1
        p = self._write(tmp_path, _pack_container(meta, arrays))
        with pytest.raises(CheckpointError, match=r"bad mlp meta.*bad\.ckpt"):
            load_checkpoint(p)

    @pytest.mark.parametrize("name", ["bn_rv1", "bn_rm2", "w2", "b4", "b1"])
    def test_wrong_shape(self, tmp_path, name):
        meta, arrays = self._parts(tmp_path)
        arrays[name] = np.ones(7)  # no array of this model has 7 entries
        p = self._write(tmp_path, _pack_container(meta, arrays))
        with pytest.raises(CheckpointError, match=rf"array '{name}' is .*bad\.ckpt"):
            load_checkpoint(p)

    def test_wrong_dtype(self, tmp_path):
        meta, arrays = self._parts(tmp_path)
        arrays["bn_rv1"] = arrays["bn_rv1"].astype(np.float32)
        p = self._write(tmp_path, _pack_container(meta, arrays))
        with pytest.raises(CheckpointError, match=r"array 'bn_rv1' is float32.*bad\.ckpt"):
            load_checkpoint(p)

    def test_missing_array(self, tmp_path):
        meta, arrays = self._parts(tmp_path)
        del arrays["bn_g3"]
        p = self._write(tmp_path, _pack_container(meta, arrays))
        with pytest.raises(CheckpointError, match=r"missing array 'bn_g3'.*bad\.ckpt"):
            load_checkpoint(p)

    def test_encoder_width_mismatch(self, tmp_path):
        meta, arrays = self._parts(tmp_path)
        arrays["enc_b_time"] = np.ones((5, 1))
        p = self._write(tmp_path, _pack_container(meta, arrays))
        with pytest.raises(CheckpointError, match=r"encoder width.*bad\.ckpt"):
            load_checkpoint(p)

    def test_unknown_mode(self, tmp_path):
        meta, arrays = self._parts(tmp_path)
        meta["mode"] = "serve"
        p = self._write(tmp_path, _pack_container(meta, arrays))
        with pytest.raises(CheckpointError, match=r"unknown mode.*bad\.ckpt"):
            load_checkpoint(p)

    def test_well_formed_parts_load(self, tmp_path):
        meta, arrays = self._parts(tmp_path)
        p = self._write(tmp_path, _pack_container(meta, arrays))
        back = load_checkpoint(p)
        assert back.meta == self._model().meta
