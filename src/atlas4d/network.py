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
shape. `InrModel.state` maps those names to the arrays; init, params,
state_dict and checkpoints all read names from it, and the per-layer lists
(`weights`, `bn_gamma`, ...) hold the same array objects.

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
used twice. Forward drops the skip-concat buffer once no later layer
reads it.

Eval-mode forward is a pure function of (parameters, input): with running
statistics, batch norm is a fixed affine map, so each hidden layer is
folded into one Linear -> ReLU with
    scale = gamma / sqrt(running_var + eps)
    W' = W * scale[:, None]
    b' = beta - running_mean * scale
The fold is recomputed from the live arrays on every call (a few small
vector ops per layer), so in-place parameter updates are always seen.
Eval mode concatenates nothing: it splits the input into its leading
2 * l_space spatial columns and the trailing time columns, and a layer
that reads the raw input (layer 1, and each layer after a skip) sums
x_time @ W_time'.T + h @ W_h'.T + x_space @ W_space'.T + b'. `space_terms`
forms the x_space products, which do not depend on time, so `reconstruct`
forms them once per chunk for all times; `eval_forward` is the one
eval-mode layer loop. Its products go through `encoding.row_matmul`, so a
row's output does not depend on how many rows share a call. A model
without an encoder treats all input columns as spatial. ReLU runs in place.
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

    Raised for a bad magic, version, checksum or size, undecodable metadata,
    an unknown array dtype, and arrays missing or shaped unlike the stored
    architecture.
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
            return self.eval_forward(self.space_terms(x[:, :k]), x[:, k:]), None
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

    def _folded(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode (W'.T, b') of layer j, batch norm folded in.

        W'.T is C-contiguous, and so is each row block the split products
        take: the layout encoding.row_matmul relies on.
        """
        if j == self.cfg.n_layers:
            return self.weights[-1].T, self.out_bias
        scale = self.bn_gamma[j - 1] / np.sqrt(self.bn_var[j - 1] + self.cfg.bn_epsilon)
        return (np.multiply(self.weights[j - 1].T, scale, order="C"),
                self.bn_beta[j - 1] - self.bn_mean[j - 1] * scale)

    def space_terms(self, x_space: np.ndarray) -> dict[int, np.ndarray]:
        """Eval-mode products of the leading input columns, by layer.

        For layer 1 and each layer after a skip (the layers that read the raw
        input), the product of x_space, the input's leading columns, with
        those columns of the folded weight. Rows that differ only in the
        trailing columns share these terms; see eval_forward.
        """
        terms = {}
        for j in (1, *(s + 1 for s in self.cfg.skip_layers)):
            wt, _ = self._folded(j)
            lo = wt.shape[0] - self.cfg.input_dim
            terms[j] = row_matmul(x_space, wt[lo:lo + x_space.shape[1]])
        return terms

    def eval_forward(self, terms: dict[int, np.ndarray], x_rest: np.ndarray) -> np.ndarray:
        """Eval-mode output from space_terms(x[:, :k]) and x_rest = x[:, k:].

        The pre-activation of a layer that reads the raw input is
        x_rest @ W_rest.T (+ h @ W_h.T) + terms[j] + b, summed in that
        order; `terms` is only read. Every eval-mode prediction runs this
        loop, so a row's output does not depend on how rows were grouped
        into calls or on which calls shared their terms, as far as its
        products do not (encoding.row_matmul).
        """
        n_layers = self.cfg.n_layers
        a = None
        for j in range(1, n_layers + 1):
            wt, b = self._folded(j)
            if j in terms:
                lo = wt.shape[0] - self.cfg.input_dim
                h = row_matmul(x_rest, wt[wt.shape[0] - x_rest.shape[1]:])
                if lo:
                    h += row_matmul(a, wt[:lo])
                h += terms[j]
            else:
                h = row_matmul(a, wt)
            h += b
            if j < n_layers:
                np.maximum(h, 0.0, out=h)
            a = h
        return a.ravel()

    def backward(self, cache: ForwardCache, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given dLoss/dOutput for the batch.

        Uses the exact batch-statistics batch-norm backward pass; the cache
        must come from the most recent parameter version of this model, and
        it is spent afterwards: each layer's xhat is overwritten with the
        gradient of its pre-activation and freed once the layer below has
        used it. `cache.x` is left as it was.
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
        dh = np.empty((batch, width))
        for j in range(n - 1, 0, -1):
            # a is layer j's output, the input of layer j + 1; its gradient is
            # that of layer j + 1's leading hidden_width input columns (past
            # them sit the raw-input skip slots). ReLU passes it where a > 0.
            xhat = xhats.pop()
            a = self._layer_output(j, xhat, cache.x, bufs)
            grads[f"w{j + 1}"] = dz.T @ a
            np.matmul(dz, self.weights[j][:, :width], out=dh)
            dh *= a[:, :width] > 0.0
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
# Checkpoints: tagged little-endian container, CRC-checked.
#
#   magic "A4DCKPT\0" | u32 version | u32 meta_len | meta json (utf-8)
#   | u32 n_arrays | per array: u16 name_len, name, u8 dtype_code,
#     u8 ndim, i64*ndim shape, u64 nbytes, raw bytes | u32 crc32
#
# The CRC covers everything between the magic and the checksum itself.

_CKPT_MAGIC = b"A4DCKPT\x00"
_CKPT_VERSION = 1
_DTYPE_CODES = {0: "<f8", 1: "<f4", 2: "<i8", 3: "<u1"}
_DTYPE_TO_CODE = {np.dtype(v): k for k, v in _DTYPE_CODES.items()}


def _pack_container(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    body = bytearray()
    body += struct.pack("<I", _CKPT_VERSION)
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    body += struct.pack("<I", len(meta_blob))
    body += meta_blob
    body += struct.pack("<I", len(arrays))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        code = _DTYPE_TO_CODE.get(arr.dtype.newbyteorder("<"))
        if code is None:
            raise ValueError(f"unsupported array dtype {arr.dtype} for {name}")
        nm = name.encode("utf-8")
        body += struct.pack("<H", len(nm))
        body += nm
        body += struct.pack("<BB", code, arr.ndim)
        body += struct.pack(f"<{arr.ndim}q", *arr.shape) if arr.ndim else b""
        raw = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        body += struct.pack("<Q", len(raw))
        body += raw
    crc = zlib.crc32(bytes(body))
    return _CKPT_MAGIC + bytes(body) + struct.pack("<I", crc)


def _unpack_container(blob: bytes, path) -> tuple[dict, dict[str, np.ndarray]]:
    if len(blob) < len(_CKPT_MAGIC) + 8 or blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"corrupt checkpoint: bad magic ({path})")
    body, crc_stored = blob[len(_CKPT_MAGIC):-4], blob[-4:]
    if zlib.crc32(body) != struct.unpack("<I", crc_stored)[0]:
        raise CheckpointError(f"corrupt checkpoint: checksum failure ({path})")
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(body):
            raise CheckpointError(f"corrupt checkpoint: truncated ({path})")
        vals = struct.unpack_from(fmt, body, off)
        off += size
        return vals

    (version,) = take("<I")
    if version != _CKPT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch: file has {version}, expected {_CKPT_VERSION} ({path})"
        )
    (meta_len,) = take("<I")
    if off + meta_len > len(body):
        raise CheckpointError(f"corrupt checkpoint: truncated ({path})")
    try:
        meta = json.loads(body[off:off + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint: undecodable meta: {exc} ({path})") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"corrupt checkpoint: meta is not an object ({path})")
    off += meta_len
    (n_arrays,) = take("<I")
    arrays = {}
    for _ in range(n_arrays):
        (name_len,) = take("<H")
        try:
            name = body[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint: undecodable array name ({path})") from exc
        off += name_len
        code, ndim = take("<BB")
        shape = take(f"<{ndim}q") if ndim else ()
        (nbytes,) = take("<Q")
        if code not in _DTYPE_CODES:
            raise CheckpointError(
                f"corrupt checkpoint: unknown dtype code {code} for array {name!r} ({path})"
            )
        dtype = np.dtype(_DTYPE_CODES[code])
        if any(d < 0 for d in shape) or nbytes != dtype.itemsize * math.prod(shape):
            raise CheckpointError(
                f"corrupt checkpoint: array {name!r} holds {nbytes} bytes, "
                f"not a {dtype} array of shape {shape} ({path})"
            )
        if off + nbytes > len(body):
            raise CheckpointError(f"corrupt checkpoint: truncated ({path})")
        arr = np.frombuffer(body[off:off + nbytes], dtype=dtype)
        arrays[name] = arr.reshape(shape).copy()
        off += nbytes
    return meta, arrays


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
    arrays = model.state_dict()
    if model.encoder is not None:
        meta["encoder"] = {"seed": model.encoder.seed}
        arrays["enc_b_space"] = model.encoder.b_space
        arrays["enc_b_time"] = model.encoder.b_time
    write_atomic(path, _pack_container(meta, arrays))


def load_checkpoint(path) -> InrModel:
    """Rebuild a model from disk.

    Every parameter and running statistic must be a float64 array of the
    shape the stored architecture implies, and the encoder, when present,
    must produce that architecture's input width; anything else raises
    CheckpointError. Older checkpoints also carry hidden-layer biases
    `b1..b{n-1}`; each is folded into its layer's running mean
    (bn_rm_j -= b_j), which leaves eval outputs unchanged bit for bit. Other
    extra arrays, such as the `opt.*` Adam moments, are ignored.
    """
    path = Path(path)
    meta, arrays = _unpack_container(path.read_bytes(), path)
    if meta.get("kind") != "inr_model":
        raise CheckpointError(f"corrupt checkpoint: unexpected kind ({path})")
    if meta.get("mode", "train") not in ("train", "eval"):
        raise CheckpointError(f"corrupt checkpoint: unknown mode {meta['mode']!r} ({path})")
    try:
        cfg = MlpConfig(**{f.name: meta["mlp"][f.name] for f in fields(MlpConfig)})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: bad mlp meta: {exc!r} ({path})") from exc
    n = cfg.n_layers
    hidden_biases = {f"b{j}": (cfg.hidden_width,) for j in range(1, n) if f"b{j}" in arrays}
    for name, shape in (_expected_shapes(cfg) | hidden_biases).items():
        if name not in arrays:
            raise CheckpointError(f"corrupt checkpoint: missing array '{name}' ({path})")
        arr = arrays[name]
        if arr.dtype != np.float64 or arr.shape != shape:
            raise CheckpointError(
                f"corrupt checkpoint: array '{name}' is {arr.dtype} {arr.shape}, "
                f"expected float64 {shape} ({path})"
            )
    encoder = None
    if meta.get("encoder") is not None:
        try:
            encoder = FourierEncoder.from_matrices(
                arrays["enc_b_space"], arrays["enc_b_time"], seed=meta["encoder"]["seed"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint: bad encoder: {exc!r} ({path})") from exc
        if encoder.out_dim != cfg.input_dim:
            raise CheckpointError(
                f"corrupt checkpoint: encoder width {encoder.out_dim} != "
                f"input_dim {cfg.input_dim} ({path})"
            )
    for name in hidden_biases:
        arrays[f"bn_rm{name[1:]}"] -= arrays[name]
    model = InrModel(cfg, arrays, encoder)
    model.mode = meta.get("mode", "train")
    model.meta = meta.get("meta", {})
    if not isinstance(model.meta, dict):
        raise CheckpointError(f"corrupt checkpoint: model meta is not an object ({path})")
    return model
