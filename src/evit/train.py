"""Toy training: AdamW-style optimizer, cross-entropy loop, CSV metrics.

Training is deterministic for a fixed config: the build seed, the batch
sampler and the data generator all derive from ``train.seed``, and parameter
updates happen in place (single-writer; nothing else mutates tensors). Each
step (``train_step``) runs the backward walk inside ``AdamW.step``, which
updates every parameter as soon as its gradient is final, so no gradient set
is kept between steps. Metrics are written as ``step,loss,accuracy`` rows,
one per step, and the final model is saved as a checkpoint. A run whose loss
turns NaN or infinite stops at that step with ``NonFiniteError`` and writes
neither file.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import ModuleGraph, build
from .checkpoint import save_checkpoint
from .config import RunConfig, check_config
from .data import ToyDataset, load_image_dir, synthetic_shapes
from .errors import ConfigError, NonFiniteError
from .tensor import Tensor


class AdamW:
    """Adam with decoupled weight decay.

    Decay applies only to matrix- and conv-shaped tensors; biases, norm
    parameters and gates (all 1-d) are left undecayed.

    ``step`` takes the gradients as a ``{name: gradient}`` mapping or as
    ``(name, gradient)`` pairs, applied as they come. Each update reads only
    its own gradient and moments (no clipping, no global norm), so the order
    changes no bit, and a stream such as ``ModuleGraph.gradient_stream`` runs
    the backward walk inside ``step``: each parameter is updated, and its
    gradient dropped, as soon as the walk has finished it. The step count
    advances once per call.

    Each parameter is updated in the blocks of ``tensor.row_blocks`` (rows
    of single values) through two block-sized scratch arrays, made once per
    call and shared by every parameter, running the ufuncs of the
    whole-array update in the same order, so a blocked update is bitwise the
    whole-array one.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float, weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(
        self,
        named_params: list[tuple[str, Tensor]],
        grads: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
        lr_scale: float = 1.0,
    ) -> None:
        self.step_count += 1
        t = self.step_count
        lr = self.learning_rate * lr_scale
        correction1 = 1.0 - self.beta1**t
        correction2 = 1.0 - self.beta2**t
        # one ``row_blocks`` block each, sliced to every block of every parameter
        block = min(T._BLOCK_BYTES // 8, max((p.data.size for _, p in named_params), default=0))
        scratch_rows, update_rows = np.empty((2, block, 1))
        params = dict(named_params)
        if isinstance(grads, Mapping):
            grads = [(name, grads[name]) for name in params]
        for name, grad in grads:
            p = params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p.data, order="C")
                self._v[name] = np.zeros_like(p.data, order="C")
            decay = self.weight_decay if p.data.ndim >= 2 else 0.0
            # a C-contiguous parameter is updated through a view of itself
            data = np.ascontiguousarray(p.data)
            for pb, g, m, v in T.row_blocks(1, (data, grad, self._m[name], self._v[name])):
                scratch, update = scratch_rows[: len(pb)], update_rows[: len(pb)]
                # update = (m / c1) / (sqrt(v / c2) + eps) (+ decay * p), the
                # same operations in the same order
                np.multiply(g, 1.0 - self.beta1, out=scratch)
                m *= self.beta1
                m += scratch
                np.multiply(g, 1.0 - self.beta2, out=scratch)
                scratch *= g
                v *= self.beta2
                v += scratch
                np.sqrt(np.divide(v, correction2, out=scratch), out=scratch)
                scratch += self.eps
                np.divide(m, correction1, out=update)
                update /= scratch
                if decay:
                    update += np.multiply(pb, decay, out=scratch)
                update *= lr
                pb -= update
            if data is not p.data:
                p.data[...] = data


def cosine_scale(step: int, total_steps: int) -> float:
    """Cosine decay from 1 to ~0 over the run; ``step`` is 1-based."""
    return 0.5 * (1.0 + math.cos(math.pi * (step - 1) / max(total_steps, 1)))


@dataclass
class TrainResult:
    steps: int
    final_loss: float
    final_accuracy: float
    metrics_path: Path
    checkpoint_path: Path
    history: list[tuple[int, float, float]] = field(default_factory=list)


def load_dataset(config: RunConfig) -> ToyDataset:
    data_cfg, model_cfg = config.data, config.model
    if data_cfg.source == "synthetic":
        dataset = synthetic_shapes(
            data_cfg.count, model_cfg.input_size, config.train.seed, data_cfg.noise
        )
    else:
        dataset = load_image_dir(data_cfg.source)
    if dataset.image_size != model_cfg.input_size:
        raise ConfigError(
            f"dataset images are {dataset.image_size}px but the model expects "
            f"{model_cfg.input_size}px"
        )
    if dataset.num_classes != model_cfg.num_classes:
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes but the model head has "
            f"{model_cfg.num_classes}"
        )
    return dataset


_EVAL_BATCH = 32


def evaluate(graph: ModuleGraph, dataset: ToyDataset) -> float:
    """Accuracy of argmax predictions over a whole dataset (no backward tape)."""
    hits = 0
    with T.no_grad():
        for start in range(0, len(dataset), _EVAL_BATCH):
            images = dataset.images[start : start + _EVAL_BATCH]
            labels = dataset.labels[start : start + _EVAL_BATCH]
            logits = graph.forward(images)
            hits += int((logits.data.argmax(axis=1) == labels).sum())
    return hits / len(dataset)


def train_step(
    graph: ModuleGraph,
    optimizer: AdamW,
    named: list[tuple[str, Tensor]],
    images: np.ndarray,
    labels: np.ndarray,
    lr_scale: float = 1.0,
) -> tuple[float, float]:
    """One training step on a batch; returns its loss and accuracy.

    Runs ``graph.forward`` once and ``optimizer.step`` once, with the
    backward walk inside the step (``ModuleGraph.gradient_stream``), so each
    parameter is updated as soon as its gradient is final and no gradient
    outlives the call. Raises ``NonFiniteError`` when the loss is NaN or
    infinite, before any parameter moves.
    """
    logits = graph.forward(images)
    loss = T.cross_entropy(logits, labels)
    loss_value = loss.item()
    if not math.isfinite(loss_value):
        raise NonFiniteError(
            f"step {optimizer.step_count + 1}: the loss is {loss_value}; stopped before "
            f"writing metrics or a checkpoint (lower train.learning_rate?)"
        )
    accuracy = float((logits.data.argmax(axis=1) == labels).mean())
    optimizer.step(named, graph.gradient_stream(loss), lr_scale)
    return loss_value, accuracy


def run_training(config: RunConfig, out_dir: str | os.PathLike) -> TrainResult:
    """Train per ``config``, writing metrics.csv and model.ckpt into ``out_dir``.

    Raises ``ConfigError`` for a config field out of range and
    ``NonFiniteError`` at the first step whose loss is NaN or infinite; either
    way nothing is written.
    """
    spec, pattern, ffn_kind = check_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    graph = build(
        spec,
        seed=config.train.seed,
        pattern=pattern,
        ffn_kind=ffn_kind,
        zero_classifier=config.model.zero_classifier,
    )
    dataset = load_dataset(config)

    named = graph.named_parameters()
    optimizer = AdamW(config.train.learning_rate, config.train.weight_decay)
    sampler = np.random.default_rng(config.train.seed)

    history: list[tuple[int, float, float]] = []
    for step in range(1, config.train.steps + 1):
        idx = sampler.integers(0, len(dataset), config.train.batch_size)
        images = dataset.images[idx]
        labels = dataset.labels[idx]

        scale = cosine_scale(step, config.train.steps) if config.train.cosine else 1.0
        history.append((step, *train_step(graph, optimizer, named, images, labels, scale)))

    # the checkpoint goes first: it refuses non-finite parameters, and then
    # no metrics.csv is left behind either
    checkpoint_path = out_dir / "model.ckpt"
    save_checkpoint(graph, checkpoint_path)

    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w") as fh:
        fh.write("step,loss,accuracy\n")
        for step, loss_value, accuracy in history:
            fh.write(f"{step},{loss_value!r},{accuracy!r}\n")

    return TrainResult(
        steps=config.train.steps,
        final_loss=history[-1][1] if history else float("nan"),
        final_accuracy=evaluate(graph, dataset),
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
        history=history,
    )
