"""Span tracer that times pulsemamba from the outside.

It replaces the public functions of ``tensor``, ``ssm``, ``training``,
``synth`` and ``signal`` and the ``__call__`` of every ``Module`` subclass
in ``blocks`` and ``ssm`` with timing wrappers, and puts the originals
back on ``restore``. Nothing under ``src/`` is edited.

A span is one wrapped call. Its self time is its duration minus the time
covered by the spans it called. While a ``PulseMambaNet`` call is open,
the self time of every span under it is also charged to the
``profiling.profile_model`` row that is running, so measured seconds sit
next to analytic MACs under the same row names.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "child_s", "row")

    def __init__(self, name, row):
        self.name = name
        self.child_s = 0.0
        self.row = row


# function name -> span name for functions whose span is reported under
# another name: the model calls the fused scan op, never the wrapper
RENAMED = {"ssm.selective_scan_op": "ssm.selective_scan",
           "ssm.selective_scan": "ssm.selective_scan_wrapper",
           "ssm.MambaLayer": "ssm.mamba_layer"}

# head ops that run after the transposed conv form the projection row
_HEAD_PROJECT_OPS = {"tensor.transpose", "tensor.linear", "tensor.reshape"}


def _module_rows(net):
    """id(submodule) -> profile_model row name for one PulseMambaNet."""
    rows = {}
    for i in (1, 2, 3):
        for attr in (f"conv{i}", f"bn{i}"):
            rows[id(getattr(net.stem, attr))] = f"stem.conv{i}"
    rows[id(net.down_slow)] = "down.slow"
    rows[id(net.down_fast)] = "down.fast"
    for i, (bs, bf) in enumerate(zip(net.blocks_slow, net.blocks_fast)):
        rows[id(bs)] = f"block{i}.slow"
        rows[id(bf)] = f"block{i}.fast"
    for i, lat in enumerate(net.laterals):
        rows[id(lat)] = f"lateral{i}"
    rows[id(net.head)] = "head.upsample"
    return rows


class Tracer:
    """Collects span statistics; ``install`` wraps, ``restore`` unwraps.

    Use as a context manager so the originals always come back.
    """

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.row_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = 0
        self.hooks = _counter_hooks(self.counters)
        self._stack = []
        self._saved = []
        self._row = None
        self._nets = []

    # -- installation -------------------------------------------------------

    def install(self):
        from pulsemamba import blocks, signal, ssm, synth, tensor, training

        for mod in (tensor, ssm, training, synth, signal):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    self._wrap_function(obj, f"{short}.{attr}")
        for mod in (blocks, ssm):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                cls = getattr(mod, attr)
                if inspect.isclass(cls) and "__call__" in vars(cls):
                    self._wrap_call(cls, f"{short}.{attr}")
        return self

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap_function(self, fn, name):
        """Rebind every module-level reference to ``fn`` in the package.

        Modules import each other's functions by name (``training`` calls
        ``read_dataset`` through its own global), so each binding is
        replaced, not just the defining one.
        """
        wrapper = self._make_wrapper(fn, RENAMED.get(name, name), None)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("pulsemamba") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _wrap_call(self, cls, name):
        original = vars(cls)["__call__"]
        self._saved.append((cls, "__call__", original))
        setattr(cls, "__call__",
                self._make_wrapper(original, RENAMED.get(name, name), cls))

    # -- spans --------------------------------------------------------------

    def _make_wrapper(self, fn, name, cls):
        tracer = self
        is_net = cls is not None and cls.__name__ == "PulseMambaNet"
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = tracer._enter_row(name, args[0] if cls is not None else None,
                                    is_net)
            frame = _Frame(name, row)
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._leave(frame, dt, is_net)
            if hook is not None:
                hook(args, result, dt)
            return result

        return wrapper

    def overhead_estimate_s(self, calls: int = 20000) -> float:
        """Seconds the wrappers added to this run: spans x calibrated cost.

        The cost of one span is measured on a wrapped no-op in a throwaway
        tracer, so this run's statistics are untouched.
        """
        def noop():
            return None

        wrapped = Tracer()._make_wrapper(noop, "calibration", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        return self.spans * max(0.0, (t1 - t0) - (t2 - t1)) / calls

    def _enter_row(self, name, instance, is_net):
        if is_net:
            self._nets.append(_module_rows(instance))
            self._row = None
            return None
        if not self._nets:
            return None
        if instance is not None:
            self._row = self._nets[-1].get(id(instance), self._row)
        elif (name in _HEAD_PROJECT_OPS and self._row == "head.upsample"
              and self._innermost_is_head()):
            self._row = "head.project"
        return self._row

    def _innermost_is_head(self):
        for frame in reversed(self._stack):
            if frame.name.startswith("blocks."):
                return frame.name == "blocks.PredictorHead"
        return False

    def _leave(self, frame, dt, is_net):
        self.spans += 1
        stat = self.stats[frame.name]
        stat.calls += 1
        stat.total_s += dt
        own = dt - frame.child_s
        stat.self_s += own
        if self._stack:
            self._stack[-1].child_s += dt
        if is_net:
            self._nets.pop()
            self._row = None
        elif frame.row is not None:
            self.row_s[frame.row] += own


def _counter_hooks(counters):
    """span name -> fn(args, result, seconds), run after the call returns.

    Counters are taken at the same boundary as the span: conv MACs from
    operand shapes, scan elements B*L*D*N, analytic row MACs per network
    call, graph size after a training loss, checkpoint bytes.
    """
    from pulsemamba import tensor
    from pulsemamba.profiling import profile_model

    # bound before install, so the hooks never open spans of their own
    grad_enabled = tensor.is_grad_enabled
    tape_size = tensor.tape_size

    def conv3d(args, out, dt):
        counters["tensor.conv3d.macs"] += out.size * args[1].data[0].size

    def scan(args, out, dt):
        counters["ssm.selective_scan.elems"] += args[0].size * args[2].shape[1]

    def net(args, out, dt):
        model, x = args
        b, _, t, h, w = x.shape
        for row, _, macs in profile_model(model.config, (t, h, w)).rows:
            counters[f"macs:{row}"] += b * macs
        if grad_enabled():
            counters["training.forward.s"] += dt

    def loss(args, out, dt):
        if grad_enabled():  # the graph backward will walk: model plus loss
            counters["tensor.graph_nodes"] = tape_size()

    def checkpoint(args, path, dt):
        counters["training.checkpoint_bytes"] = sum(
            f.stat().st_size for f in path.iterdir())

    return {"tensor.conv3d": conv3d, "ssm.selective_scan": scan,
            "blocks.PulseMambaNet": net, "signal.neg_pearson_loss": loss,
            "training.save_checkpoint": checkpoint}


# tensor ops whose self time is reported; the model's forward hot spots
TENSOR_OPS = ("conv3d", "batch_norm", "maxpool3d", "silu", "softplus", "relu",
              "linear", "conv1d_depthwise_causal", "layer_norm")
SPAN_TOTALS = ("training.adam_step", "training.prepare_chunk",
               "training.save_checkpoint", "training.load_checkpoint",
               "synth.generate_clip", "synth.write_dataset",
               "synth.read_dataset", "synth.chunk_and_resize",
               "signal.neg_pearson_loss", "signal.estimate_hr",
               "tensor.backward", "ssm.mamba_layer")


def layer_metrics(tracer: Tracer, rss_growth_mb=None):
    """Per-layer metrics as {name: (value, unit)}.

    Times are totals over the traced run. A layer the workload never
    called is left out rather than reported as zero.
    """
    st, c = tracer.stats, tracer.counters
    m = {}

    def put(name, value, unit):
        if value:
            m[name] = (value, unit)

    for op in TENSOR_OPS:
        put(f"tensor.{op}.self_s", st[f"tensor.{op}"].self_s, "s")
    conv = st["tensor.conv3d"]
    put("tensor.conv3d.calls", conv.calls, "count")
    if conv.self_s:
        put("tensor.conv3d.gmac_per_s",
            c["tensor.conv3d.macs"] / conv.self_s / 1e9, "GMAC/s")
    put("tensor.graph_nodes", c["tensor.graph_nodes"], "count")
    scan = st["ssm.selective_scan"]
    put("ssm.selective_scan.self_s", scan.self_s, "s")
    put("ssm.selective_scan.calls", scan.calls, "count")
    if scan.self_s:
        put("ssm.selective_scan.ns_per_elem",
            scan.self_s / c["ssm.selective_scan.elems"] * 1e9, "ns")
    for name in SPAN_TOTALS:
        put(f"{name}.s", st[name].total_s, "s")
    for row, seconds in tracer.row_s.items():
        put(f"blocks.{row}.s", seconds, "s")
        put(f"blocks.{row}.gmac_per_s", c[f"macs:{row}"] / seconds / 1e9,
            "GMAC/s")
    put("training.forward.s", c["training.forward.s"], "s")
    put("training.checkpoint_bytes", c["training.checkpoint_bytes"], "bytes")
    if rss_growth_mb is not None:
        m["training.rss_growth_mb"] = (rss_growth_mb, "MB")
    return m
