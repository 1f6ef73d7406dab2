"""The three benchmark workloads and the loop that measures them.

``infer_tiny224``  full ``tiny`` (bi-fovea wiring, BFFN, 1000 classes) restored
                   with ``load_checkpoint``; one operation is a batch-1 forward
                   on a 224px image, then argmax. The paper's headline
                   configuration, forward only: bulk elementwise work, depthwise
                   convs on 56x56 maps and stage-1 attention over 3136 queries.
``train_tiny224``  the same model, freshly built; one operation is a batch-1
                   training step (forward, cross-entropy, gradients, AdamW).
                   The same layers in the reverse direction; a forward-only
                   change predicts no change here.
``train_toy32``    ``run_training`` on the README's toy config (batch 16,
                   32px); one operation is one step, timed between successive
                   returns from ``AdamW.step``. Arrays are tiny, so per-call
                   dispatch and bookkeeping dominate.

Inputs come from ``--seed``: it fixes the order in which a workload walks a
pool of generated images (``infer_tiny224``), image/label sequences
(``train_tiny224``) or training seeds (``train_toy32``). The outputs for every
pool entry are pinned in ``oracle.json`` (rebuilt by ``pin_oracle.py``), so
each operation is checked: an exception, a non-finite value or a value off
its pinned one by more than the stated float64 tolerance counts as failed.
The work done per operation does not depend on the pixel values, so a pool
is enough to vary inputs without changing what is measured.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evit import analysis, backbone, checkpoint, data, train
from evit import config as evit_config
from evit import tensor as T
from tracer import DENSE_OPS, Tracer

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"
clock = time.perf_counter

# Parameters the pinned oracle depends on; oracle.json records them and the
# harness refuses to run against values pinned with others.
PARAMS = {
    "model_seed": 0,
    "infer_pool": 16,
    "infer_pool_seed": 224,
    "probe_stride": 25,
    "train_sequences": 4,
    "train_steps": 16,
    "train_sequence_seed": 1224,
    "train_learning_rate": 1e-4,
    "train_weight_decay": 0.05,
    "toy_seeds": 16,
    "toy_seed_base": 32,
    "toy_steps": 30,
}
# An output matches when |got - pinned| <= RTOL * (1 + |pinned|), in float64.
# Reordering float64 arithmetic (gelu's x**3 as x*x*x, another OpenBLAS
# kernel) moved logits and losses by at most 7e-15 of that scale; scaling one
# adjoint (dwconv2d's weight gradient) by 1 + 1e-4 moved the losses by 1e-12
# to 3e-10, since AdamW normalises gradient scale away. Hence the tight losses.
LOGIT_RTOL = 1e-11
LOSS_RTOL = 1e-12
SETUP_REPEATS = 7
TOY_WARMUP_STEPS = 3  # the third step of the warm-up call is the memory pass


def schedule(seed: int, n: int) -> list[int]:
    """Order in which a run visits the ``n`` pool entries."""
    return np.random.default_rng(seed).permutation(n).tolist()


def matches(got, pinned, rtol: float) -> bool:
    got = np.asarray(got, dtype=np.float64)
    pinned = np.asarray(pinned, dtype=np.float64)
    return (
        got.shape == pinned.shape
        and bool(np.isfinite(got).all())
        and bool((np.abs(got - pinned) <= rtol * (1.0 + np.abs(pinned))).all())
    )


class OpLog:
    """Numbers the operations of a run; ``current`` is -1 between operations."""

    def __init__(self) -> None:
        self.current = -1
        self.count = 0

    def begin(self) -> int:
        self.current = self.count
        self.count += 1
        return self.current

    def end(self) -> None:
        self.current = -1


@dataclass
class Recorder:
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_bytes: int = 0
    retained_bytes: int = 0

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def memory(self) -> None:
        """Take the tracemalloc figures of the operation that just ran, then stop tracing."""
        self.retained_bytes, self.peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# workloads stepped by the harness
# ---------------------------------------------------------------------------


class StepWorkload:
    """A workload whose operations the harness calls one at a time."""

    size = 224
    batch = 1

    def spec(self) -> backbone.VariantSpec:
        return backbone.VARIANTS["tiny"]

    def mac_graph(self) -> backbone.ModuleGraph:
        return self.graph

    def warm_up(self, rec: Recorder, oplog: OpLog, memory: bool) -> None:
        self.prepare()
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            self.set_up()
            rec.setups.append(clock() - t0)
        self.op(rec, oplog)
        if memory:
            self.op(rec, oplog, memory=True)

    def timed(self, rec: Recorder, oplog: OpLog, seconds: float) -> list[float]:
        latencies = []
        start = clock()
        while True:
            latency = self.op(rec, oplog)
            if latency is not None:
                latencies.append(latency)
            if clock() - start >= seconds:
                return latencies

    def op(self, rec: Recorder, oplog: OpLog, memory: bool = False) -> float | None:
        """Run one checked operation; its latency in seconds, or None if it failed."""
        oplog.begin()
        try:
            return self._op(rec, memory)
        except Exception as exc:  # a failing operation is counted, the run goes on
            rec.outcome(False, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
            oplog.end()


class InferTiny224(StepWorkload):
    name = "infer_tiny224"

    def __init__(self, seed: int, work_dir: Path, pinned: dict | None):
        self.order = schedule(seed, PARAMS["infer_pool"])
        self.done = 0
        self.ckpt = work_dir / "tiny.ckpt"
        self.pinned = pinned

    @staticmethod
    def probe(row: np.ndarray) -> list[float]:
        return row[:: PARAMS["probe_stride"]].tolist() + [float(row.sum())]

    def prepare(self) -> None:
        graph = backbone.build("tiny", PARAMS["model_seed"], zero_classifier=False)
        checkpoint.save_checkpoint(graph, self.ckpt)
        self.pool = data.synthetic_shapes(PARAMS["infer_pool"], 224, PARAMS["infer_pool_seed"])

    def set_up(self) -> None:
        self.graph = checkpoint.load_checkpoint(self.ckpt)

    def traced_set_up(self) -> None:
        self.prepare()
        self.set_up()

    def checkpoint_mb(self) -> float:
        return self.ckpt.stat().st_size / 1e6

    def _op(self, rec: Recorder, memory: bool) -> float:
        i = self.order[self.done % len(self.order)]
        self.done += 1
        image = self.pool.images[i : i + 1]
        if memory:
            tracemalloc.start()
        t0 = clock()
        logits = self.graph.forward(image)
        predicted = int(np.argmax(logits.data[0]))
        t1 = clock()
        if memory:
            rec.memory()
        pinned = self.pinned["outputs"][i]
        ok = predicted == pinned["argmax"] and matches(
            self.probe(logits.data[0]), pinned["probe"], LOGIT_RTOL
        )
        t2 = clock()
        del logits
        t3 = clock()
        rec.outcome(ok, f"logits of pool image {i} differ from the pinned values")
        return (t1 - t0) + (t3 - t2)

    def pin(self) -> dict:
        self.prepare()
        self.set_up()
        outputs = []
        for i in range(PARAMS["infer_pool"]):
            row = self.graph.forward(self.pool.images[i : i + 1]).data[0]
            outputs.append({"argmax": int(np.argmax(row)), "probe": self.probe(row)})
        return {"outputs": outputs}


class TrainTiny224(StepWorkload):
    name = "train_tiny224"

    def __init__(self, seed: int, work_dir: Path, pinned: dict | None):
        self.order = schedule(seed, PARAMS["train_sequences"])
        self.episode = -1
        self.pinned = pinned

    def prepare(self) -> None:
        self.sequences = []
        for j in range(PARAMS["train_sequences"]):
            seed = PARAMS["train_sequence_seed"] + j
            images = data.synthetic_shapes(PARAMS["train_steps"], 224, seed).images
            labels = np.random.default_rng(seed).integers(0, 1000, PARAMS["train_steps"])
            self.sequences.append((images, labels))

    def set_up(self) -> None:
        """Build a fresh model and optimizer; this starts the next episode."""
        self.graph = backbone.build("tiny", PARAMS["model_seed"], zero_classifier=False)
        self.named = self.graph.named_parameters()
        self.optimizer = train.AdamW(PARAMS["train_learning_rate"], PARAMS["train_weight_decay"])
        self.episode += 1
        self.step = 0

    def traced_set_up(self) -> None:
        """Trace the set-up calls without restarting the training episode."""
        self.prepare()
        backbone.build("tiny", PARAMS["model_seed"], zero_classifier=False)

    def checkpoint_mb(self) -> float:
        return 0.0

    def _step(self, j: int, s: int):
        images, labels = self.sequences[j]
        logits = self.graph.forward(images[s : s + 1])
        loss = T.cross_entropy(logits, labels[s : s + 1])
        grads = self.graph.gradients(loss)
        self.optimizer.step(self.named, grads)
        return logits, loss, grads

    def _op(self, rec: Recorder, memory: bool) -> float:
        if self.step == PARAMS["train_steps"]:
            self.set_up()
        j = self.order[self.episode % len(self.order)]
        s = self.step
        self.step += 1
        if memory:
            tracemalloc.start()
        t0 = clock()
        logits, loss, grads = self._step(j, s)
        t1 = clock()
        if memory:
            rec.memory()
        ok = matches([loss.item()], [self.pinned["losses"][j][s]], LOSS_RTOL)
        t2 = clock()
        del logits, loss, grads
        t3 = clock()
        rec.outcome(ok, f"loss of sequence {j} step {s + 1} differs from the pinned value")
        return (t1 - t0) + (t3 - t2)

    def pin(self) -> dict:
        self.prepare()
        losses = []
        for j in range(PARAMS["train_sequences"]):
            self.set_up()
            losses.append([self._step(j, s)[1].item() for s in range(PARAMS["train_steps"])])
        return {"losses": losses}


# ---------------------------------------------------------------------------
# the workload that runs inside run_training
# ---------------------------------------------------------------------------


class StepProbe:
    """Times the steps of one ``run_training`` call from outside.

    The first ``ModuleGraph.forward`` call ends set-up and opens step 1; each
    return from ``AdamW.step`` closes a step and opens the next. With
    ``memory_step`` set, tracemalloc runs during that step only.
    """

    def __init__(self, oplog: OpLog, steps: int, memory_step: int | None, rec: Recorder):
        self.oplog, self.steps, self.memory_step, self.rec = oplog, steps, memory_step, rec
        self.first_forward: float | None = None
        self.last = 0.0
        self.done = 0
        self.latencies: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        forward, step = backbone.ModuleGraph.forward, train.AdamW.step
        probe = self

        def forward_hook(graph, *args, **kwargs):
            if probe.first_forward is None:
                probe.first_forward = probe.last = clock()
                probe.oplog.begin()
            return forward(graph, *args, **kwargs)

        def step_hook(optimizer, *args, **kwargs):
            step(optimizer, *args, **kwargs)
            now = clock()
            probe.latencies.append(now - probe.last)
            probe.last = now
            probe.done += 1
            probe.oplog.end()
            if probe.done == probe.memory_step:
                probe.rec.memory()
            elif probe.memory_step is not None and probe.done == probe.memory_step - 1:
                tracemalloc.start()
            if probe.done < probe.steps:
                probe.oplog.begin()

        backbone.ModuleGraph.forward, train.AdamW.step = forward_hook, step_hook
        try:
            yield self
        finally:
            backbone.ModuleGraph.forward, train.AdamW.step = forward, step
            self.oplog.end()
            if tracemalloc.is_tracing():
                tracemalloc.stop()


class TrainToy32:
    name = "train_toy32"
    size = 32
    batch = 16

    def __init__(self, seed: int, work_dir: Path, pinned: dict | None):
        self.order = schedule(seed, PARAMS["toy_seeds"])
        self.work_dir = work_dir
        self.calls = 0
        self.pinned = pinned
        self.ckpt_mb = 0.0

    @staticmethod
    def config(j: int, steps: int) -> evit_config.RunConfig:
        cfg = evit_config.RunConfig()  # the README's toy config
        cfg.train.seed = PARAMS["toy_seed_base"] + j
        cfg.train.steps = steps
        return cfg

    def call(self, rec: Recorder, oplog: OpLog, steps: int, timing: bool,
             memory_step: int | None = None) -> list[float]:
        """One ``run_training`` call; returns the latencies of its steps."""
        j = self.order[self.calls % len(self.order)]
        self.calls += 1
        out_dir = self.work_dir / f"run{self.calls}"
        probe = StepProbe(oplog, steps, memory_step, rec)
        entered = clock()
        try:
            with probe.installed():
                result = train.run_training(self.config(j, steps), out_dir)
        except Exception as exc:  # a failing call fails every step it attempted
            for _ in range(max(probe.done, 1)):
                rec.outcome(False, f"{type(exc).__name__}: {exc}")
            return []
        self.ckpt_mb = result.checkpoint_path.stat().st_size / 1e6
        shutil.rmtree(out_dir, ignore_errors=True)
        pinned = self.pinned["losses"][j]
        for s, (_, loss, _) in enumerate(result.history):
            rec.outcome(matches([loss], [pinned[s]], LOSS_RTOL),
                        f"loss of seed {j} step {s + 1} differs from the pinned value")
        if timing:
            rec.setups.append(probe.first_forward - entered)
        return probe.latencies

    def warm_up(self, rec: Recorder, oplog: OpLog, memory: bool) -> None:
        self.call(rec, oplog, TOY_WARMUP_STEPS, False, TOY_WARMUP_STEPS if memory else None)

    def timed(self, rec: Recorder, oplog: OpLog, seconds: float) -> list[float]:
        latencies = []
        start = clock()
        while True:
            latencies += self.call(rec, oplog, PARAMS["toy_steps"], True)
            if clock() - start >= seconds:
                return latencies

    def traced_set_up(self) -> None:
        """Set-up runs, and is traced, inside every ``run_training`` call."""

    def checkpoint_mb(self) -> float:
        return self.ckpt_mb

    def spec(self) -> backbone.VariantSpec:
        return evit_config.spec_from_model_config(evit_config.RunConfig().model)

    def mac_graph(self) -> backbone.ModuleGraph:
        return backbone.build(self.spec(), PARAMS["model_seed"])

    def pin(self) -> dict:
        losses = []
        for j in range(PARAMS["toy_seeds"]):
            result = train.run_training(self.config(j, PARAMS["toy_steps"]), self.work_dir / "pin")
            losses.append([loss for _, loss, _ in result.history])
        shutil.rmtree(self.work_dir / "pin", ignore_errors=True)
        return {"losses": losses}


WORKLOADS = {w.name: w for w in (InferTiny224, TrainTiny224, TrainToy32)}


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    detail: dict
    spans_csv: str | None = None


def load_oracle(name: str) -> dict:
    oracle = json.loads(ORACLE_PATH.read_text())
    if oracle.get("params") != PARAMS:
        raise RuntimeError(
            f"{ORACLE_PATH.name} was pinned with other workload parameters; "
            "rerun perfbench/pin_oracle.py"
        )
    return oracle[name]


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> Result:
    cls = WORKLOADS[name]
    workload = cls(seed, work_dir, load_oracle(name))
    rec = Recorder()
    oplog = OpLog()
    workload.warm_up(rec, oplog, memory=not trace)
    latencies = workload.timed(rec, oplog, seconds)
    if not latencies:
        raise RuntimeError(f"{name}: every timed operation failed: {rec.problems[:3]}")
    lat_ms = [1e3 * x for x in latencies]
    p50 = statistics.median(lat_ms)
    detail = {"latency_ms": lat_ms, "setup_s": rec.setups}
    print(f"{name}: {len(lat_ms)} timed operations, latency p50 {p50:.2f} ms", end="")
    if len(lat_ms) >= 100:  # at least ten samples beyond p90
        detail["latency_ms_p90"] = statistics.quantiles(lat_ms, n=10)[8]
        print(f", p90 {detail['latency_ms_p90']:.2f} ms", end="")
    print()

    if trace:
        metrics, spans_csv, valid = traced(workload, rec, oplog, seconds, p50, detail)
    else:
        spans_csv, valid = None, True
        metrics = {
            "latency_ms_p50": p50,
            "images_per_s": cls.batch * len(latencies) / sum(latencies),
            "peak_mb": rec.peak_bytes / 1e6,
            "retained_mb": rec.retained_bytes / 1e6,
            "setup_s": statistics.median(rec.setups),
        }
    print(f"{name}: {rec.failed} of {rec.attempted} operations failed "
          f"(error rate {rec.failed / max(rec.attempted, 1):.4f})")
    for problem in rec.problems[:5]:
        print(f"  failed: {problem}")
    detail["problems"] = rec.problems
    return Result(metrics, rec.attempted, rec.failed, valid and rec.failed == 0, detail, spans_csv)


def traced(workload, rec, oplog, seconds, untraced_p50, detail):
    """Traced set-up, traced timed window and MAC validation; per-layer metrics."""
    spec = workload.spec()
    stage_of_channels = {s.channels: i for i, s in enumerate(spec.stages, start=1)}
    tracer = Tracer(oplog, stage_of_channels)
    with tracer.installed():
        workload.traced_set_up()
        first = oplog.count
        latencies = workload.timed(rec, oplog, seconds)
        ops = range(first, oplog.count)
        graph = workload.mac_graph()
        check_op = oplog.begin()
        counter = analysis.measure_macs(graph, workload.size)
        oplog.end()

    valid = validate_macs(tracer, graph, workload, ops, check_op, counter)
    traced_p50 = statistics.median(1e3 * x for x in latencies)
    rows = tracer.table(ops)
    print_table(rows, len(ops))
    metrics = layer_metrics(tracer, rows, spec)
    metrics["checkpoint.mb"] = workload.checkpoint_mb()
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    print(f"trace: traced p50 {traced_p50:.2f} ms vs untraced {untraced_p50:.2f} ms "
          f"({metrics['trace.overhead_pct']:+.2f}%), {len(tracer.spans)} spans")
    detail["traced_latency_ms"] = [1e3 * x for x in latencies]
    detail["layers"] = rows
    return metrics, tracer.csv(), valid


def validate_macs(tracer, graph, workload, ops, check_op, counter) -> bool:
    """Traced MACs must equal MacCounter's and the analytic cost report's exactly."""
    report = analysis.cost_report(graph.spec, workload.size, graph.pattern, graph.ffn_kind)
    rows = tracer.table([check_op])
    traced_macs = {op: int(column_total(rows, f"tensor.{op}", "macs")) for op in DENSE_OPS}
    attn = rows.get("tensor.matmul[attn]", {}).get("macs", 0)
    per_op = tracer.per_op_macs(ops)
    expected = workload.batch * report.total_macs_inclusive
    checks = {
        "traced MACs by op == measure_macs by_op": traced_macs == counter.by_op,
        "traced MACs == cost_report inclusive total": sum(traced_macs.values()) == report.total_macs_inclusive,
        "traced 4-d matmul MACs == cost_report attention products": attn == report.total_attn_macs,
        "every traced operation's forward MACs == batch x inclusive total": all(m == expected for m in per_op),
    }
    print(f"mac check ({graph.spec.name}@{workload.size}): traced {traced_macs}, "
          f"measure_macs {counter.by_op}, cost_report inclusive {report.total_macs_inclusive:,} "
          f"(attention products {report.total_attn_macs:,})")
    for label, ok in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    return all(checks.values())


def print_table(rows: dict, n_ops: int) -> None:
    total = sum(r["self_ms"] for r in rows.values())
    print(f"per-layer spans, per operation ({n_ops} traced operations, {total:.1f} ms of self time):")
    print(f"{'span':<44}{'calls':>9}{'incl ms':>11}{'self ms':>11}{'self %':>8}{'MACs':>16}")
    for key, r in sorted(rows.items(), key=lambda kv: -kv[1]["ms"]):
        print(f"{key:<44}{r['calls']:>9.1f}{r['ms']:>11.3f}{r['self_ms']:>11.3f}"
              f"{100 * r['self_ms'] / total:>8.2f}{r['macs']:>16,.0f}")


TENSOR_REPORTED = ("matmul", "conv2d", "dwconv2d", "gelu", "softmax", "layernorm",
                   "transpose", "reshape", "add", "mul")


def column_total(rows: dict, name: str, column: str) -> float:
    """Sum of one column over a span name's rows, every stage tag included."""
    return sum((r[column] for key, r in rows.items() if key == name or key.startswith(name + "[")), 0.0)


def layer_metrics(tracer: Tracer, rows: dict, spec) -> dict[str, float]:
    def total(name: str, column: str) -> float:
        return column_total(rows, name, column)

    def tagged(name: str, stage: int, column: str = "ms") -> float:
        return rows.get(f"{name}[{stage}]", {}).get(column, 0.0)

    m: dict[str, float] = {}
    for op in TENSOR_REPORTED:
        m[f"tensor.{op}.fwd_ms"] = total(f"tensor.{op}", "ms")
        m[f"tensor.{op}.bwd_ms"] = total(f"tensor.{op}.bwd", "ms")
        m[f"tensor.{op}.calls"] = total(f"tensor.{op}", "calls")
    for op in DENSE_OPS:
        macs = total(f"tensor.{op}", "macs")
        m[f"tensor.{op}.macs"] = macs
        fwd_s = m[f"tensor.{op}.fwd_ms"] / 1e3
        m[f"tensor.{op}.gflops"] = 2.0 * macs / fwd_s / 1e9 if fwd_s else 0.0
    tensor_rows = [r for key, r in rows.items() if key.startswith("tensor.")]
    m["tensor.out_mb"] = sum(r["out_mb"] for r in tensor_rows)
    m["tensor.graph_nodes"] = sum(r["nodes"] for r in tensor_rows)
    m["tensor.backward_overhead_ms"] = total("tensor.backward", "self_ms")
    for fn in ("map_to_tokens", "tokens_to_map", "ln_channels", "conv_bias", "dwconv_bias"):
        m[f"maps.{fn}.ms"] = total(f"maps.{fn}", "ms")
    m["attention.sfa.ms"] = total("attention.sfa_forward", "ms")
    m["attention.dfa.ms"] = total("attention.dfa_forward", "ms")
    m["attention.score_macs"] = rows.get("tensor.matmul[attn]", {}).get("macs", 0.0)
    m["feedforward.ms"] = total("feedforward.feedforward_forward", "ms")
    for i in range(1, len(spec.stages) + 1):
        m[f"attention.stage{i}.ms"] = tagged("attention.bfsa_forward", i)
        m[f"backbone.stage{i}.ms"] = tagged("maps.conv_bias", i) + tagged("backbone.bev_block_forward", i)
    m["backbone.forward_ms"] = total("backbone.forward", "ms")
    m["backbone.gradients_ms"] = total("backbone.gradients", "ms")
    m["backbone.build_ms"] = tracer.per_call_ms("backbone.build")
    m["checkpoint.load_ms"] = tracer.per_call_ms("checkpoint.load_checkpoint")
    m["checkpoint.save_ms"] = tracer.per_call_ms("checkpoint.save_checkpoint")
    m["train.adamw_step_ms"] = total("train.adamw_step", "ms")
    m["train.cross_entropy_ms"] = total("tensor.cross_entropy", "ms") + total(
        "tensor.cross_entropy.bwd", "ms"
    )
    m["train.evaluate_ms"] = tracer.per_call_ms("train.evaluate")
    m["data.synthetic_shapes_ms"] = tracer.per_call_ms("data.synthetic_shapes")
    return m
