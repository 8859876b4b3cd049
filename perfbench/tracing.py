"""Span tracing of atlas4d from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`TARGETS` with wrappers that record one span per call: name, start, end,
parent span and run id. Names bound by `from ... import` in other atlas4d
modules (for example `training.adam_step` or `cli.write_nifti`) are
replaced too, so every call path is seen. `InrModel.forward` is split by
model mode into `network.forward_train` and `network.forward_eval`.

Spans stay in memory until the run ends. Wrappers record nothing while
`Tracer.enabled` is false, so output checks run untraced.

A span's self time is its duration minus the durations of its child spans.
Every call runs on one thread and children nest inside their parent, so
the self times of all spans under a set of root spans add up to the roots'
total duration. The roots are the benchmark's own `bench.*` spans: one per
timed operation, and `bench.setup` around the traced set-up.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import atlas4d
from atlas4d import cli, encoding, metrics, network, optimizer, phantom, training, volume_io

LAYERS = ("training", "network", "encoding", "optimizer", "volume_io", "metrics",
          "phantom", "cli", "bench")
CLI_COMMANDS = ("phantom", "pretrain", "refine", "infer", "eval")
FLOAT_BYTES = 8  # the network computes in float64
SETUP_ROOT = "bench.setup"


def network_counts(cfg, rows: int, backward: bool) -> tuple[int, int]:
    """Computed (flops, activation bytes) of one forward or backward call.

    flops counts 2 per multiply-add of the layer matmuls: forward computes
    one product per layer, backward two (weight gradient and input
    gradient, which the code also forms for layer 1). Activation bytes
    count float64 arrays at layer boundaries: forward reads each layer's
    input, including concatenated skip features, and writes its output;
    backward reads the cached input and the output gradient and writes the
    input gradient and the pre-activation gradient. Elementwise
    temporaries inside a layer and cache misses are not counted.
    """
    shapes = [(cfg.in_width(j), cfg.out_width(j)) for j in range(1, cfg.n_layers + 1)]
    macs = sum(i * o for i, o in shapes)
    edges = sum(i + o for i, o in shapes)
    if backward:
        return 4 * rows * macs, 2 * FLOAT_BYTES * rows * edges
    return 2 * rows * macs, FLOAT_BYTES * rows * edges


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


# -- per-target span names and measurements ---------------------------------
# A measure callback runs after the span has closed and stores counts on it.


def _forward_name(args, kwargs):
    return "network.forward_train" if args[0].mode == "train" else "network.forward_eval"


def _network_measure(backward: bool):
    def measure(span, args, kwargs):
        model = args[0]
        rows = _rows(_arg(args, kwargs, 1, "cache").x if backward
                     else _arg(args, kwargs, 1, "features"))
        span["rows"] = rows
        span["flops"], span["act_bytes"] = network_counts(model.cfg, rows, backward)
    return measure


def _rows_measure(span, args, kwargs):
    span["rows"] = _rows(_arg(args, kwargs, 1, "points"))


def _file_measure(index):
    def measure(span, args, kwargs):
        try:
            span["bytes"] = os.stat(_arg(args, kwargs, index, "path")).st_size
        except OSError:
            span["bytes"] = 0
    return measure


def _adam_measure(span, args, kwargs):
    span["params"] = sum(int(p.size) for p in _arg(args, kwargs, 0, "params").values())


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


# (owner, attribute, span name or name function, measure callback)
TARGETS = [
    (training, "make_model", "training.make_model", None),
    (training, "pretrain", "training.pretrain", None),
    (training, "refine", "training.refine", None),
    (training, "reconstruct", "training.reconstruct", None),
    (network.InrModel, "forward", _forward_name, _network_measure(backward=False)),
    (network.InrModel, "backward", "network.backward", _network_measure(backward=True)),
    (network, "init_mlp", "network.init_mlp", None),
    (network, "save_checkpoint", "network.save_checkpoint", _file_measure(1)),
    (network, "load_checkpoint", "network.load_checkpoint", _file_measure(0)),
    (encoding.FourierEncoder, "encode", "encoding.encode", _rows_measure),
    (optimizer, "adam_step", "optimizer.adam_step", _adam_measure),
    (volume_io, "write_nifti", "volume_io.write_nifti", _file_measure(1)),
    (volume_io, "read_nifti", "volume_io.read_nifti", _file_measure(0)),
    (volume_io, "load_series", "volume_io.load_series", None),
    (volume_io, "normalize_intensity", "volume_io.normalize_intensity", None),
    (metrics, "efc_volume", "metrics.efc_volume", None),
    (metrics, "tc", "metrics.tc", None),
    (metrics, "dice", "metrics.dice", None),
    (metrics, "threshold_labels", "metrics.threshold_labels", None),
    (metrics, "series_mse", "metrics.series_mse", None),
    (phantom, "generate", "phantom.generate", None),
    (cli, "main", _cli_name, None),
]

_NAMESPACES = (atlas4d, cli, encoding, metrics, network, optimizer, phantom, training,
               volume_io)

# Functions reported per call in the timed rounds, and which carry rows or
# bytes. make_model and init_mlp count only in their layer's self time;
# save_checkpoint runs only in set-up, where it is reported under `setup.`.
_REPORTED = (
    ["training.pretrain", "training.refine", "training.reconstruct",
     "network.forward_train", "network.forward_eval", "network.backward",
     "network.load_checkpoint", "encoding.encode", "optimizer.adam_step"]
    + [f"volume_io.{f}" for f in ("write_nifti", "read_nifti", "load_series",
                                  "normalize_intensity")]
    + [f"metrics.{f}" for f in ("efc_volume", "tc", "dice", "threshold_labels",
                                "series_mse")]
    + ["phantom.generate"] + [f"cli.{c}" for c in CLI_COMMANDS]
)
_ROWS = {"network.forward_train", "network.forward_eval", "network.backward",
         "encoding.encode"}
_BYTES = {"network.save_checkpoint", "network.load_checkpoint",
          "volume_io.write_nifti", "volume_io.read_nifti"}
_SETUP_REPORTED = ["network.save_checkpoint"]


def _function_metrics(name: str) -> list[tuple[str, str]]:
    out = [(f"{name}.calls", "count"), (f"{name}.ms", "ms"), (f"{name}.self_ms", "ms")]
    if name in _ROWS:
        out.append((f"{name}.rows", "count"))
    if name in _BYTES:
        out.append((f"{name}.bytes", "B"))
    return out


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = [m for name in _REPORTED for m in _function_metrics(name)]
    out += [("network.forward.flops_computed", "flop"),
            ("network.backward.flops_computed", "flop"),
            ("network.bytes_moved_computed", "B"),
            ("optimizer.param_count", "count")]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += [("trace.wall_ms", "ms"), ("trace.untraced_wall_ms", "ms"),
            ("trace.overhead_ms", "ms"), ("trace.spans", "count")]
    out += [(f"setup.{m}", u) for name in _SETUP_REPORTED for m, u in _function_metrics(name)]
    out += [(f"setup.{layer}.self_ms", "ms") for layer in LAYERS]
    out += [("setup.wall_ms", "ms"), ("ops_failed_ratio", "ratio")]
    return out


def aggregate(spans: list[dict], children_ns: dict[int, int]) -> dict[str, float]:
    """Totals over a set of spans: per function, per layer, and wall time."""
    out: dict[str, float] = {"wall_ms": 0.0, "spans": len(spans), "params": 0,
                             "forward_flops": 0, "backward_flops": 0, "act_bytes": 0}
    for s in spans:
        name = s["name"]
        dur = s["end_ns"] - s["start_ns"]
        self_ms = (dur - children_ns.get(s["id"], 0)) / 1e6
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_ms"] = out.get(f"{layer}.self_ms", 0.0) + self_ms
        if s["parent"] is None:
            out["wall_ms"] += dur / 1e6
        for key, value in ((f"{name}.calls", 1), (f"{name}.ms", dur / 1e6),
                           (f"{name}.self_ms", self_ms), (f"{name}.rows", s.get("rows", 0)),
                           (f"{name}.bytes", s.get("bytes", 0))):
            out[key] = out.get(key, 0) + value
        out["params"] = max(out["params"], s.get("params", 0))
        kind = "backward_flops" if name == "network.backward" else "forward_flops"
        out[kind] += s.get("flops", 0)
        out["act_bytes"] += s.get("act_bytes", 0)
    return out


class Tracer:
    """Records spans of wrapped atlas4d calls while `enabled` is true."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        span = {"run": self.run_id, "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "start_ns": time.perf_counter_ns(), "end_ns": 0}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if measure is not None:
                    measure(span, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target, including names other modules imported."""
        for owner, attr, name, measure in TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, measure)
            owners = [owner] if isinstance(owner, type) else [
                ns for ns in _NAMESPACES if getattr(ns, attr, None) is original]
            for target in owners:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: timed rounds, plus `setup.*` for the traced set-up.

        Metrics of layers a workload never calls read 0.
        """
        root: list[int] = []
        children_ns: dict[int, int] = {}
        for s in self.spans:
            parent = s["parent"]
            root.append(s["id"] if parent is None else root[parent])
            if parent is not None:
                children_ns[parent] = children_ns.get(parent, 0) + s["end_ns"] - s["start_ns"]
        in_setup = [self.spans[r]["name"] == SETUP_ROOT for r in root]
        rounds = aggregate([s for s, st in zip(self.spans, in_setup) if not st], children_ns)
        setup = aggregate([s for s, st in zip(self.spans, in_setup) if st], children_ns)

        out = {name: rounds.get(name, 0) for name, _ in per_layer_metrics()}
        out.update({
            "network.forward.flops_computed": rounds["forward_flops"],
            "network.backward.flops_computed": rounds["backward_flops"],
            "network.bytes_moved_computed": rounds["act_bytes"],
            "optimizer.param_count": rounds["params"],
            "trace.wall_ms": rounds["wall_ms"],
            "trace.spans": rounds["spans"],
            "setup.wall_ms": setup["wall_ms"],
        })
        for name in out:
            if name.startswith("setup.") and name != "setup.wall_ms":
                out[name] = setup.get(name[len("setup."):], 0)
        return out
