"""Deep fully-connected regression network with exact analytic gradients.

The model maps an encoded coordinate feature vector to one scalar intensity.
Layers 1..n-1 are bias-free Linear -> BatchNorm -> ReLU: train-mode batch
norm subtracts the batch mean, which cancels any bias added before it
exactly, so the shift lives in the batch-norm beta alone. The final layer is
a plain affine map to a single output, and it alone has a bias. After the
activations of the configured skip layers, the raw input features are
concatenated back onto the hidden state, so the following layer sees
hidden_width + input_dim inputs.

One table, `_expected_shapes`, names every array of a model and gives its
shape. `InrModel.state` maps those names to the arrays; init, params and
state_dict read names from it, a checkpoint stores the arrays in its order,
and the per-layer lists (`weights`, `bn_gamma`, ...) hold the same array
objects.

Everything is float64. Train-mode forward normalizes with batch statistics
and updates running statistics. For backward it keeps only the input and
each hidden layer's normalized pre-activation xhat and inverse standard
deviation, about batch * hidden_width * (n_layers - 1) * 8 bytes. The
layer outputs relu(gamma * xhat + beta) are not kept: they would double
that, and backward rebuilds each one exactly from xhat when it reaches the
layer, into a buffer reused from layer to layer (recompute instead of
store, Chen et al. 2016). The closed-form batch-norm backward saves more
elementwise passes than the rebuild costs. Backward consumes the cache:
it writes the gradient of each layer's pre-activation into that layer's
xhat, its last use, and lets go of the one above, so the cache shrinks by one
activation per layer as backward walks down, and the cache cannot be
used twice. The gradient of each layer's output goes into the plain
rebuild buffer once the rebuilt output's ReLU mask is taken, so backward
holds no gradient array of its own. Forward drops the skip-concat buffer
once no later layer reads it.

Eval-mode forward is a pure function of (parameters, input): with running
statistics, batch norm is a fixed affine map, so each hidden layer is
folded into one Linear -> ReLU with
    scale = gamma / sqrt(running_var + eps)
    W' = W * scale[:, None]
    b' = beta - running_mean * scale
`fold` forms every layer's [W'.T ; b'] from the live arrays, so in-place
parameter updates are seen by the next fold; a caller folds once and
passes the result to every product of that call. Each layer writes its
output into one of two row-major buffers of shape (rows, hidden_width + 1)
(`eval_buffers`) whose last column is the constant 1, so a layer that
reads only the hidden state is one product [h | 1] @ [W'.T ; b'], written
straight into the other buffer, and one in-place ReLU over that whole
buffer, which leaves the ones column at 1. Eval mode concatenates nothing:
it splits the input into its leading 2 * l_space spatial columns and the
trailing time columns. A layer that reads the raw input (layer 1, and each
layer after a skip) sums h @ W_h'.T + c + x_space @ W_space'.T, where the
time term c = x_time @ W_time'.T + b' (`time_terms`) may be one row shared
by every point at one time, and the spatial terms (`space_terms`) do not
depend on time; layer 1 has no hidden product. So `reconstruct` forms the
spatial terms once per chunk for all times and the time terms once per
time for all chunks; `eval_forward` is the one eval-mode layer loop. Its
products go through `encoding.row_matmul`, so a row's output does not
depend on how many rows share a call. A model without an encoder treats
all input columns as spatial.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .encoding import FourierEncoder, row_matmul
from .volume_io import write_atomic


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or malformed; the message names the file.

    Raised for a bad magic, version or checksum, undecodable or invalid
    metadata, a payload whose length is not that of the stored
    architecture's arrays, and a non-finite value in it.
    """


@dataclass
class MlpConfig:
    input_dim: int
    hidden_width: int = 256
    n_layers: int = 18
    skip_layers: tuple[int, ...] = (6, 12)
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        self.skip_layers = tuple(sorted(int(s) for s in self.skip_layers))
        for name in ("input_dim", "hidden_width", "n_layers"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.input_dim < 1 or self.hidden_width < 1:
            raise ValueError("input_dim and hidden_width must be >= 1")
        if self.n_layers < 2:
            raise ValueError("need at least one hidden layer plus the output layer")
        for s in self.skip_layers:
            if not 1 <= s < self.n_layers:
                raise ValueError(f"skip layer {s} outside [1, {self.n_layers})")
        if len(set(self.skip_layers)) != len(self.skip_layers):
            raise ValueError(f"skip_layers repeats a layer: {self.skip_layers}")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ValueError("bn_momentum must be in (0, 1]")
        if self.bn_epsilon <= 0.0:
            raise ValueError("bn_epsilon must be positive")

    def in_width(self, layer: int) -> int:
        """Input width of 1-based layer index, accounting for skips."""
        if layer == 1:
            return self.input_dim
        extra = self.input_dim if (layer - 1) in self.skip_layers else 0
        return self.hidden_width + extra

    def out_width(self, layer: int) -> int:
        return 1 if layer == self.n_layers else self.hidden_width


@dataclass
class ForwardCache:
    """What backward() needs of one train-mode forward pass.

    Only the input and each hidden layer's normalized pre-activation and
    inverse standard deviation are kept; backward rebuilds every layer's
    output from xhat with InrModel._layer_output. The cache is single-use:
    backward takes the xhat list (leaving `xhat` None), overwrites each
    array with a gradient and frees it, and keeps `x` and `inv_std`.
    """

    model_id: int
    version: int
    x: np.ndarray
    xhat: list
    inv_std: list


class InrModel:
    """One coordinate-regression network plus its feature encoder.

    `state` maps every array name of _expected_shapes(cfg) to its array.
    The per-layer lists `weights`, `bn_gamma`, `bn_beta`, `bn_mean` and
    `bn_var` and the output layer's `out_bias` (hidden layers have none)
    hold those same array objects, so an in-place update through either
    view shows in the other.
    """

    def __init__(self, cfg: MlpConfig, state: dict[str, np.ndarray],
                 encoder: FourierEncoder | None = None):
        self.cfg = cfg
        self.state = {name: state[name] for name in _expected_shapes(cfg)}
        arrays = list(self.state.values())
        n = cfg.n_layers
        self.weights = arrays[:n]
        self.out_bias = arrays[n]
        self.bn_gamma, self.bn_beta, self.bn_mean, self.bn_var = (
            arrays[n + 1 + k::4] for k in range(4))
        self.encoder = encoder
        self.mode = "train"
        self.meta: dict = {}
        self._version = 0

    # -- mode handling -----------------------------------------------------

    def train(self) -> "InrModel":
        self.mode = "train"
        return self

    def eval(self) -> "InrModel":
        self.mode = "eval"
        return self

    def mark_updated(self) -> None:
        """Invalidate outstanding forward caches after a parameter update."""
        self._version += 1

    # -- parameter access --------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        """Live references to trainable parameters: state minus running statistics."""
        return {k: v for k, v in self.state.items() if not k.startswith("bn_r")}

    def state_dict(self) -> dict[str, np.ndarray]:
        """Live references to every array: parameters plus running statistics."""
        return dict(self.state)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.state.items()}

    def load_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        if set(snap) != set(self.state):
            raise ValueError("snapshot keys do not match model")
        for k, v in self.state.items():
            np.copyto(v, snap[k])
        self.mark_updated()

    # -- forward / backward ------------------------------------------------

    def forward(self, features: np.ndarray):
        """Run the network on a batch of feature rows.

        Returns (intensities, cache); the cache is None in eval mode. Train
        mode needs a batch of at least 2 rows for the batch statistics.
        """
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise ValueError(
                f"feature width mismatch: got {x.shape}, need (*, {self.cfg.input_dim})"
            )
        if self.mode != "train":
            k = self.cfg.input_dim if self.encoder is None else 2 * self.encoder.l_space
            folded = self.fold()
            return self.eval_forward(
                folded, self.space_terms(folded, x[:, :k]), self.time_terms(folded, x[:, k:]),
                eval_buffers(x.shape[0], self.cfg.hidden_width)), None
        if x.shape[0] < 2:
            raise ValueError("train-mode forward needs a batch of at least 2")

        cfg = self.cfg
        eps = cfg.bn_epsilon
        mom = cfg.bn_momentum
        batch = x.shape[0]
        a = x
        bufs: dict = {}
        xhats, inv_stds = [], []

        for j in range(1, cfg.n_layers):
            xhat = a @ self.weights[j - 1].T
            if cfg.skip_layers and j == cfg.skip_layers[-1] + 1:
                del bufs[True]  # no later layer reads the skip-concat buffer
            mu = xhat.mean(axis=0)
            xhat -= mu
            var = np.einsum("ij,ij->j", xhat, xhat) / batch
            inv = 1.0 / np.sqrt(var + eps)
            xhat *= inv
            self.bn_mean[j - 1] *= 1.0 - mom
            self.bn_mean[j - 1] += mom * mu
            self.bn_var[j - 1] *= 1.0 - mom
            self.bn_var[j - 1] += mom * var
            xhats.append(xhat)
            inv_stds.append(inv)
            # the matmul above was this activation's last use: overwrite it
            a = self._layer_output(j, xhat, x, bufs)

        y = a @ self.weights[-1].T
        y += self.out_bias
        cache = ForwardCache(
            model_id=id(self), version=self._version, x=x, xhat=xhats, inv_std=inv_stds,
        )
        return y.ravel(), cache

    def _layer_output(self, j: int, xhat: np.ndarray, x: np.ndarray, bufs: dict) -> np.ndarray:
        """Output of hidden layer j: relu(gamma_j * xhat_j + beta_j).

        After a skip layer the raw input x fills the trailing input_dim
        columns. The result is written into a buffer kept in `bufs`, one for
        plain and one for skip layers, so each call overwrites the previous
        call's result of the same kind. Forward and backward both build
        outputs here, so backward's rebuild equals forward's bit for bit.
        """
        width = self.cfg.hidden_width
        skip = j in self.cfg.skip_layers
        out = bufs.get(skip)
        if out is None:
            out = bufs[skip] = np.empty((x.shape[0], width + (x.shape[1] if skip else 0)))
            if skip:
                out[:, width:] = x
        h = out[:, :width]
        np.multiply(xhat, self.bn_gamma[j - 1], out=h)
        h += self.bn_beta[j - 1]
        np.maximum(h, 0.0, out=h)
        return out

    def fold(self) -> list[np.ndarray]:
        """Eval-mode [W'.T ; b'] of every layer, batch norm folded in.

        Layer j's entry has shape (in_width(j) + 1, out_width(j)): the
        folded weight's transpose with the folded bias as its last row.
        Each is C-contiguous, and so is each row block the products take:
        the layout encoding.row_matmul relies on.
        """
        cfg = self.cfg
        folded = []
        for j, w in enumerate(self.weights, start=1):
            wb = np.empty((w.shape[1] + 1, w.shape[0]))
            if j == cfg.n_layers:
                wb[:-1] = w.T
                wb[-1] = self.out_bias
            else:
                scale = self.bn_gamma[j - 1] / np.sqrt(self.bn_var[j - 1] + cfg.bn_epsilon)
                np.multiply(w.T, scale, out=wb[:-1])
                wb[-1] = self.bn_beta[j - 1] - self.bn_mean[j - 1] * scale
            folded.append(wb)
        return folded

    def _input_layers(self):
        """(j, lo) of each layer j that reads the raw input, which fills its
        input columns from lo on: layer 1 and each layer after a skip."""
        for j in (1, *(s + 1 for s in self.cfg.skip_layers)):
            yield j, self.cfg.in_width(j) - self.cfg.input_dim

    def space_terms(self, folded: list[np.ndarray], x_space: np.ndarray) -> dict[int, np.ndarray]:
        """x_space @ W_space'.T of each layer that reads the raw input.

        x_space is the input's leading columns and `folded` comes from
        fold(). Rows that differ only in the trailing (time) columns share
        these terms; see eval_forward.
        """
        k = x_space.shape[1]
        return {j: row_matmul(x_space, folded[j - 1][lo:lo + k])
                for j, lo in self._input_layers()}

    def time_terms(self, folded: list[np.ndarray], x_time: np.ndarray) -> dict[int, np.ndarray]:
        """x_time @ W_time'.T + b' of each layer that reads the raw input.

        x_time is the input's trailing columns: one row per point, or one
        row that eval_forward broadcasts to every point at that time.
        row_matmul gives a row the same bits either way.
        """
        terms = {}
        for j, _ in self._input_layers():
            wb = folded[j - 1]
            c = terms[j] = row_matmul(x_time, wb[wb.shape[0] - 1 - x_time.shape[1]:-1])
            c += wb[-1]
        return terms

    def eval_forward(self, folded: list[np.ndarray], space: dict[int, np.ndarray],
                     time: dict[int, np.ndarray], bufs: np.ndarray) -> np.ndarray:
        """Eval-mode output from fold(), space_terms and time_terms.

        `bufs` is a pair from eval_buffers with at least as many rows as the
        space terms; its leading rows hold the hidden states, and the terms
        are only read. The pre-activation of a layer that reads the raw
        input is h @ W_h'.T + c + x_space @ W_space'.T, summed in that order,
        or x_space @ W_space'.T + c at layer 1. Every eval-mode prediction
        runs this loop, so a row's output does not depend on how rows were
        grouped into calls or on which calls shared their terms, as far as
        its products do not (encoding.row_matmul).
        """
        width = self.cfg.hidden_width
        rows = space[1].shape[0]
        src, dst = (b[:rows] for b in bufs)
        for j, wb in enumerate(folded, start=1):
            out = dst[:, :width] if j < len(folded) else None
            if j == 1:
                out = np.add(space[1], time[1], out=out)
            elif j in space:
                out = row_matmul(src[:, :width], wb[:width], out=out)
                out += time[j]
                out += space[j]
            else:
                out = row_matmul(src, wb, out=out)
            if j == len(folded):
                return out.ravel()
            np.maximum(dst, 0.0, out=dst)
            src, dst = dst, src

    def backward(self, cache: ForwardCache, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given dLoss/dOutput for the batch.

        Uses the exact batch-statistics batch-norm backward pass; the cache
        must come from the most recent parameter version of this model, and
        it is spent afterwards: each layer's xhat is overwritten with the
        gradient of its pre-activation and freed once the layer below has
        used it. `cache.x` is left as it was.

        Beyond the cache and the gradients, it holds the rebuild buffers of
        _layer_output, one (batch, hidden_width) float64 array plus a
        (batch, hidden_width + input_dim) one if the model has skip layers,
        and one bool ReLU mask: the gradient of each layer's output goes
        into the plain-layer buffer once the rebuilt output's mask and
        weight gradient are taken.
        """
        if self.mode != "train":
            raise ValueError("backward on an eval-mode model is not defined")
        if cache is None or cache.model_id != id(self):
            raise ValueError("mismatched cache: not from this model")
        if cache.version != self._version:
            raise ValueError("stale cache: parameters changed since forward")
        xhats, cache.xhat = cache.xhat, None
        if xhats is None:
            raise ValueError("spent cache: backward already consumed it")

        cfg = self.cfg
        n = cfg.n_layers
        width = cfg.hidden_width
        batch = cache.x.shape[0]
        bufs: dict = {}
        grads: dict[str, np.ndarray] = {}

        dz = np.asarray(d_out, dtype=np.float64)[:, None]
        grads[f"b{n}"] = dz.sum(axis=0)
        for j in range(n - 1, 0, -1):
            # a is layer j's output, the input of layer j + 1; its gradient is
            # that of layer j + 1's leading hidden_width input columns (past
            # them sit the raw-input skip slots). ReLU passes it where a > 0.
            xhat = xhats.pop()
            a = self._layer_output(j, xhat, cache.x, bufs)
            grads[f"w{j + 1}"] = dz.T @ a
            relu = a[:, :width] > 0.0
            # a's last use: dh goes into the plain-layer buffer, which is a
            # itself unless layer j is a skip layer
            dh = bufs.get(False)
            if dh is None:
                dh = bufs[False] = np.empty((batch, width))
            np.matmul(dz, self.weights[j][:, :width], out=dh)
            dh *= relu
            # Batch norm backward in closed form, reusing the beta and gamma
            # gradients: dz = gamma*inv * (dh - sum(dh)/B - xhat*sum(dh*xhat)/B)
            g_gamma = grads[f"bn_g{j}"] = np.einsum("ij,ij->j", dh, xhat)
            g_beta = grads[f"bn_b{j}"] = dh.sum(axis=0)
            # this is xhat's last use, so dz takes its place; rebinding dz
            # frees the layer above's
            dz = np.multiply(xhat, g_gamma / -batch, out=xhat)
            dz += dh
            dz -= g_beta / batch
            dz *= self.bn_gamma[j - 1] * cache.inv_std[j - 1]
        grads["w1"] = dz.T @ cache.x
        return grads


def eval_buffers(rows: int, width: int) -> np.ndarray:
    """The two (rows, width + 1) hidden-state buffers of eval_forward.

    Their last column is 1, which turns the folded bias into one more row
    of each product; ReLU keeps it at 1. Models of the same hidden width
    can share one pair, and any call with at most `rows` rows can use it.
    """
    bufs = np.empty((2, rows, width + 1))
    bufs[:, :, width] = 1.0
    return bufs


def _expected_shapes(cfg: MlpConfig) -> dict[str, tuple[int, ...]]:
    """The model's array names and shapes, the one table of them.

    Weights w1..wn first, in layer order, then the output bias b{n}, then
    each hidden layer's batch-norm gamma, beta, running mean and running
    variance. InrModel slices its per-layer lists from this order.
    """
    n = cfg.n_layers
    shapes = {f"w{j}": (cfg.out_width(j), cfg.in_width(j)) for j in range(1, n + 1)}
    shapes[f"b{n}"] = (1,)
    for j in range(1, n):
        for kind in ("bn_g", "bn_b", "bn_rm", "bn_rv"):
            shapes[f"{kind}{j}"] = (cfg.hidden_width,)
    return shapes


def init_mlp(cfg: MlpConfig, seed: int = 0, encoder: FourierEncoder | None = None) -> InrModel:
    """Fresh model: fan-in-scaled uniform weights, identity batch norm."""
    rng = np.random.default_rng(seed)
    state = {}
    for name, shape in _expected_shapes(cfg).items():
        if len(shape) == 2:  # a weight, (out, fan_in)
            bound = 1.0 / np.sqrt(shape[1])
            state[name] = rng.uniform(-bound, bound, size=shape)
            # Hidden layers drop this draw; taking it keeps each seed's weights.
            bias = rng.uniform(-bound, bound, size=shape[0])
        else:
            state[name] = np.zeros(shape)
    model = InrModel(cfg, state, encoder)
    model.out_bias[:] = bias
    for a in model.bn_gamma + model.bn_var:
        a[:] = 1.0
    return model


# ---------------------------------------------------------------------------
# Checkpoints: the state table's float64 values in table order, CRC-checked.
#
#   magic "A4DCKPT\0" | u32 version | u32 meta_len | meta json (utf-8)
#   | payload: little-endian float64 | u32 crc32
#
# The payload holds every array of _expected_shapes(cfg), in table order,
# then enc_b_space (l_space, 3) and enc_b_time (l_time, 1) when the meta
# names an encoder. So the meta's "mlp" and "encoder" entries give every
# array's offset and shape, and the file stores no name, dtype or shape of
# its own. The CRC covers everything between the magic and the checksum
# itself. All integers are little-endian.

_CKPT_MAGIC = b"A4DCKPT\x00"
_CKPT_VERSION = 2


def save_checkpoint(model: InrModel, path) -> None:
    """Persist parameters, running stats, encoder matrices, and metadata.

    A round trip through load_checkpoint reproduces forward outputs
    bit-exactly. Optimizer state is not stored: every training stage
    starts from fresh Adam moments.
    """
    meta = {
        "kind": "inr_model",
        "mode": model.mode,
        "mlp": asdict(model.cfg),
        "encoder": None,
        "meta": model.meta,
    }
    arrays = list(model.state.values())
    if model.encoder is not None:
        meta["encoder"] = {"l_space": model.encoder.l_space, "l_time": model.encoder.l_time}
        arrays += [model.encoder.b_space, model.encoder.b_time]
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = bytearray(struct.pack("<II", _CKPT_VERSION, len(meta_blob)) + meta_blob)
    for a in arrays:
        body += np.ascontiguousarray(a, dtype="<f8").tobytes()
    write_atomic(path, _CKPT_MAGIC + body + struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path) -> InrModel:
    """Rebuild a model from disk.

    The payload must hold exactly the float64 values of the stored
    architecture's arrays, plus the encoder's two matrices when the meta
    names an encoder of that architecture's input width, and every value
    must be finite. Anything else raises CheckpointError naming the file.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(_CKPT_MAGIC) + 12 or not blob.startswith(_CKPT_MAGIC):
        raise CheckpointError(f"corrupt checkpoint: bad magic ({path})")
    body = memoryview(blob)[len(_CKPT_MAGIC):-4]
    if zlib.crc32(body) != struct.unpack("<I", blob[-4:])[0]:
        raise CheckpointError(f"corrupt checkpoint: checksum failure ({path})")
    version, meta_len = struct.unpack_from("<II", body)
    if version != _CKPT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch: file has {version}, expected {_CKPT_VERSION} ({path})"
        )
    if 8 + meta_len > len(body):
        raise CheckpointError(f"corrupt checkpoint: truncated ({path})")
    try:
        meta = json.loads(bytes(body[8:8 + meta_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint: undecodable meta: {exc} ({path})") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"corrupt checkpoint: meta is not an object ({path})")
    if meta.get("kind") != "inr_model":
        raise CheckpointError(f"corrupt checkpoint: unexpected kind ({path})")
    if meta.get("mode", "train") not in ("train", "eval"):
        raise CheckpointError(f"corrupt checkpoint: unknown mode {meta['mode']!r} ({path})")
    try:
        cfg = MlpConfig(**{f.name: meta["mlp"][f.name] for f in fields(MlpConfig)})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: bad mlp meta: {exc!r} ({path})") from exc
    shapes = _expected_shapes(cfg)
    enc = meta.get("encoder")
    if enc is not None:
        dims = (enc.get("l_space"), enc.get("l_time")) if isinstance(enc, dict) else (None,)
        if not all(type(d) is int and d >= 1 for d in dims):
            raise CheckpointError(f"corrupt checkpoint: bad encoder meta {enc!r} ({path})")
        if 2 * sum(dims) != cfg.input_dim:
            raise CheckpointError(
                f"corrupt checkpoint: encoder width {2 * sum(dims)} != "
                f"input_dim {cfg.input_dim} ({path})"
            )
        shapes.update(enc_b_space=(dims[0], 3), enc_b_time=(dims[1], 1))
    sizes = [math.prod(s) for s in shapes.values()]
    payload = body[8 + meta_len:]
    if len(payload) != 8 * sum(sizes):
        raise CheckpointError(
            f"corrupt checkpoint: payload holds {len(payload)} bytes, the stored "
            f"architecture needs {8 * sum(sizes)} ({path})"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise CheckpointError(f"corrupt checkpoint: non-finite parameter value ({path})")
    arrays = {name: v.reshape(shape) for (name, shape), v in
              zip(shapes.items(), np.split(values, np.cumsum(sizes)[:-1]))}
    encoder = None
    if enc is not None:
        encoder = FourierEncoder.from_matrices(arrays["enc_b_space"], arrays["enc_b_time"])
    model = InrModel(cfg, arrays, encoder)
    model.mode = meta.get("mode", "train")
    model.meta = meta.get("meta", {})
    if not isinstance(model.meta, dict):
        raise CheckpointError(f"corrupt checkpoint: model meta is not an object ({path})")
    return model
