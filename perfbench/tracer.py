"""Spans around calls into evit, recorded from outside the package.

``Tracer.installed()`` replaces the package's public functions (and a few
methods) with wrappers for the duration of a ``with`` block, then puts the
originals back. Each call records a span: name, start, end, the span that
called it and the index of the benchmark operation it ran in. Spans stay in
memory; the harness aggregates them and writes them out at the end.

Tensor operators record more: the bytes of their output arrays, whether the
output joined the autodiff graph, and, for ``matmul``/``conv2d``/``dwconv2d``,
the multiply-accumulates computed from the operand shapes. The adjoint
closure stored on each returned tensor is wrapped as well, so backward time
is attributed to the operator that recorded it (span name ``<op>.bwd``).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

import evit.attention
import evit.backbone
import evit.checkpoint
import evit.data
import evit.feedforward
import evit.maps
import evit.tensor
import evit.train

TENSOR_OPS = (
    "add", "sub", "mul", "neg", "reshape", "transpose", "concat", "split",
    "tensor_sum", "tensor_mean", "matmul", "conv2d", "dwconv2d", "gelu",
    "softmax", "layernorm", "avgpool_global", "cross_entropy",
)
# (module, function) pairs; the span name is "<layer>.<function>".
FUNCTIONS = [
    (evit.maps, name)
    for name in ("map_to_tokens", "tokens_to_map", "ln_channels", "conv_bias", "dwconv_bias")
] + [
    (evit.attention, "sfa_forward"),
    (evit.attention, "dfa_forward"),
    (evit.attention, "bfsa_forward"),
    (evit.feedforward, "feedforward_forward"),
    (evit.backbone, "bev_block_forward"),
    (evit.backbone, "build"),
    (evit.train, "evaluate"),
    (evit.train, "run_training"),
    (evit.checkpoint, "save_checkpoint"),
    (evit.checkpoint, "load_checkpoint"),
    (evit.data, "synthetic_shapes"),
]
# (class, method, span name)
METHODS = [
    (evit.backbone.ModuleGraph, "forward", "backbone.forward"),
    (evit.backbone.ModuleGraph, "gradients", "backbone.gradients"),
    (evit.tensor.Tensor, "backward", "tensor.backward"),
    (evit.train.AdamW, "step", "train.adamw_step"),
]
DENSE_OPS = ("matmul", "conv2d", "dwconv2d")

# span fields
NAME, START, END, PARENT, OP, TAG, MACS, NBYTES, NODE = range(9)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while installed; ``oplog.current`` names the operation."""

    def __init__(self, oplog, stage_of_channels: dict[int, int]):
        self.oplog = oplog
        self.stage_of_channels = stage_of_channels
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        try:
            for name in TENSOR_OPS:
                self._replace(evit.tensor, name, f"tensor.{name}", tensor_op=name)
            for module, name in FUNCTIONS:
                self._replace(module, name, f"{_layer(module)}.{name}")
            for cls, name, span_name in METHODS:
                original = cls.__dict__[name]
                self._patches.append((cls, name, original))
                setattr(cls, name, functools.update_wrapper(self._wrap(span_name, original), original))
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()

    def _replace(self, module, name, span_name, tensor_op=None):
        """Swap the function in every evit module that holds a reference to it."""
        original = getattr(module, name)
        wrapper = functools.update_wrapper(self._wrap(span_name, original, tensor_op), original)
        holders = [m for key, m in sys.modules.items() if key == "evit" or key.startswith("evit.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def _wrap(self, span_name, fn, tensor_op=None):
        spans, stack, oplog, clock = self.spans, self._stack, self.oplog, time.perf_counter
        tag_of = self._tagger(span_name)

        def wrapper(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, oplog.current,
                    tag_of(args) if tag_of else None, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tensor_op is not None:
                self._after_op(tensor_op, span, args, out)
            return out

        return wrapper

    def _tagger(self, span_name):
        """Stage index (or attention marker) of a call, from its arguments."""
        stage = self.stage_of_channels.get
        if span_name == "attention.bfsa_forward":
            return lambda args: stage(args[1].dim)
        if span_name == "backbone.bev_block_forward":
            return lambda args: stage(args[2].dim)
        if span_name == "maps.conv_bias":
            # 2x2 kernels occur only in the per-stage patch embeddings
            return lambda args: stage(args[1].shape[0]) if args[1].shape[2] == 2 else None
        if span_name == "tensor.matmul":
            return lambda args: "attn" if args[0].ndim == 4 else None
        return None

    def _after_op(self, op, span, args, out):
        outputs = out if isinstance(out, tuple) else (out,)
        for t in outputs:
            if op != "reshape":  # reshape returns a view and writes nothing
                span[NBYTES] += t.data.nbytes
            if t._backward_fn is not None:
                span[NODE] += 1
                t._backward_fn = self._wrap(f"tensor.{op}.bwd", t._backward_fn)
        if op == "matmul":
            span[MACS] = out.data.size * args[0].shape[-1]
        elif op == "conv2d":
            w = args[1].shape
            span[MACS] = out.data.size * w[1] * w[2] * w[3]
        elif op == "dwconv2d":
            w = args[1].shape
            span[MACS] = out.data.size * w[2] * w[3]

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def per_op_macs(self, ops) -> list[int]:
        totals = {op: 0 for op in ops}
        for s in self.spans:
            if s[MACS] and s[OP] in totals:
                totals[s[OP]] += s[MACS]
        return [totals[op] for op in ops]

    def table(self, ops) -> dict[str, dict[str, float]]:
        """Per span name (with stage tag): calls, inclusive and self ms per operation."""
        ops = set(ops)
        n = len(ops)
        rows: dict[str, dict[str, float]] = {}
        for s, self_time in zip(self.spans, self.self_times()):
            if s[OP] not in ops:
                continue
            key = s[NAME] if s[TAG] is None else f"{s[NAME]}[{s[TAG]}]"
            row = rows.setdefault(key, {"calls": 0.0, "ms": 0.0, "self_ms": 0.0,
                                        "macs": 0.0, "out_mb": 0.0, "nodes": 0.0})
            row["calls"] += 1
            row["ms"] += 1e3 * (s[END] - s[START])
            row["self_ms"] += 1e3 * self_time
            row["macs"] += s[MACS]
            row["out_mb"] += s[NBYTES] / 1e6
            row["nodes"] += s[NODE]
        return {key: {k: v / n for k, v in row.items()} for key, row in rows.items()}

    def per_call_ms(self, span_name: str) -> float:
        """Mean inclusive milliseconds of one call, over every call traced."""
        durations = [s[END] - s[START] for s in self.spans if s[NAME] == span_name]
        return 1e3 * statistics.fmean(durations) if durations else 0.0

    def csv(self) -> str:
        lines = ["name,tag,start_us,end_us,parent,op,macs,out_bytes,graph_nodes"]
        t0 = self.spans[0][START] if self.spans else 0.0
        for s in self.spans:
            tag = "" if s[TAG] is None else s[TAG]
            lines.append(
                f"{s[NAME]},{tag},{(s[START] - t0) * 1e6:.1f},{(s[END] - t0) * 1e6:.1f},"
                f"{s[PARENT]},{s[OP]},{s[MACS]},{s[NBYTES]},{s[NODE]}"
            )
        return "\n".join(lines) + "\n"
