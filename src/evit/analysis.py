"""Cost accounting and inspection tools.

One walk over a stage table, ``_rows``, prices each module: its parameter
count and the multiply-accumulates of one forward image, with every
convolution-shaped layer priced by ``_conv_cost``. ``cost_report`` lists
every block from it; ``parameter_count`` prices one block per stage times
its depth, so it needs no input size and never iterates blocks. The sums
mirror the executed graph exactly: ``measure_macs`` observes a forward
(``tensor.observe``) and matches the analytic totals integer for integer.
Rows are named like the ``tensor.scope`` their operators run in.

Conventions (stated here once, printed with every report):

* 1 MAC = 1 FLOP. Softmax, normalization and other elementwise work is not
  counted, matching how published conv-net budgets are usually quoted.
* The headline FLOPs total covers dense ops only (convolutions and weight
  matmuls). The query-key and attention-value products scale with the token
  count squared rather than with weight size; standard profilers leave them
  out of the headline, so they are tracked in a separate column and also
  reported as an inclusive total.
* Reference budgets for the published variants are reconciled against the
  headline convention at 224x224 input.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import tensor as T
from .attention import ConnectionPattern
from .backbone import ModuleGraph, VariantSpec, stage_sides, validate_spec
from .data import write_image
from .errors import ConfigError
from .feedforward import FfnConfig, FfnKind

# Published reference budgets for the variant family (224x224 input).
REFERENCE_PARAMS = {
    "tiny": 12_130_000,
    "small": 23_700_000,
    "base": 42_550_000,
    "large": 60_070_000,
}
REFERENCE_FLOPS = {
    "tiny": 1.91e9,
    "small": 3.39e9,
    "base": 6.35e9,
    "large": 9.44e9,
}

INTERPRETATION_NOTES = [
    "feedforward split: hidden channels halve into shallow/deep branches; the "
    "shallow depthwise output feeds the deep branch and a per-channel gate "
    "fuses the halves (other merge wirings would shift counts slightly)",
    "position encoding: fixed as a 3x3 stride-1 depthwise convolution with bias",
    "attention projections carry no bias terms; key/value pooling convs do",
    "headline FLOPs follow the dense-op convention (attention score/value "
    "products reported separately and in the inclusive total)",
]


def _deviation(value: int, ref: float | None) -> float | None:
    return None if ref is None else (value - ref) / ref


@dataclass
class CostRow:
    name: str
    params: int
    macs: int
    attn_macs: int = 0


@dataclass
class CostReport:
    variant: str
    input_size: int
    pattern: str
    ffn: str
    num_classes: int
    rows: list[CostRow]
    notes: list[str] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs_dense(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_attn_macs(self) -> int:
        return sum(r.attn_macs for r in self.rows)

    @property
    def total_macs_inclusive(self) -> int:
        return self.total_macs_dense + self.total_attn_macs

    @property
    def head_macs(self) -> int:
        return sum(r.macs for r in self.rows if r.name.startswith("head."))

    @property
    def reference_params(self) -> int | None:
        return REFERENCE_PARAMS.get(self.variant)

    @property
    def reference_flops(self) -> float | None:
        return REFERENCE_FLOPS.get(self.variant) if self.input_size == 224 else None

    @property
    def param_deviation(self) -> float | None:
        return _deviation(self.total_params, self.reference_params)

    @property
    def flop_deviation(self) -> float | None:
        return _deviation(self.total_macs_dense, self.reference_flops)

    def render(self, detail: str = "table") -> str:
        """Human-readable report. ``detail``: params, flops or table."""
        width = max(len(r.name) for r in self.rows) + 2
        lines = [
            f"cost report: variant={self.variant} input={self.input_size}x"
            f"{self.input_size} pattern={self.pattern} ffn={self.ffn} "
            f"classes={self.num_classes}",
            "convention: 1 MAC = 1 FLOP; elementwise/softmax/norm work uncounted; "
            "headline excludes attention products (shown separately)",
        ]
        header = f"{'module':<{width}}"
        if detail in ("params", "table"):
            header += f"{'params':>12}"
        if detail in ("flops", "table"):
            header += f"{'macs':>16}{'attn_macs':>14}"
        lines.append(header)
        for r in self.rows:
            line = f"{r.name:<{width}}"
            if detail in ("params", "table"):
                line += f"{r.params:>12,}"
            if detail in ("flops", "table"):
                line += f"{r.macs:>16,}{r.attn_macs:>14,}"
            lines.append(line)
        lines.append("-" * len(header))

        dev = self.param_deviation
        ref = f" (reference {self.reference_params:,}, deviation {dev:+.2%})" if dev is not None else ""
        lines.append(f"params total: {self.total_params:,}{ref}")

        fdev = self.flop_deviation
        fref = (
            f" (reference {self.reference_flops:,.0f}, deviation {fdev:+.2%})"
            if fdev is not None
            else ""
        )
        lines.append(f"flops headline (dense ops): {self.total_macs_dense:,}{fref}")
        lines.append(
            f"flops incl. attention products: {self.total_macs_inclusive:,} "
            f"(attention products: {self.total_attn_macs:,})"
        )
        lines.append(
            f"flops headline without classifier head: "
            f"{self.total_macs_dense - self.head_macs:,}"
        )
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["module", "params", "macs", "attn_macs"])
            for r in self.rows:
                writer.writerow([r.name, r.params, r.macs, r.attn_macs])
            writer.writerow(
                ["total", self.total_params, self.total_macs_dense, self.total_attn_macs]
            )


# ---------------------------------------------------------------------------
# analytic walk
# ---------------------------------------------------------------------------


def _conv_cost(out_ch: int, in_ch: int, k: int, out_side: int) -> tuple[int, int]:
    """(params, macs) of a biased conv: ``in_ch`` is 1 if depthwise, ``k`` 1 for a linear."""
    weights = out_ch * in_ch * k * k
    return weights + out_ch, weights * out_side * out_side


def _fovea_rows(dim: int, reduction: int, side: int) -> tuple[int, int, int]:
    """(params, dense macs, attention-product macs) for one pathway."""
    tokens, kv_side = side * side, side // reduction
    params = 4 * dim * dim  # unbiased query, key, value and output projections
    macs = 2 * (tokens + kv_side * kv_side) * dim * dim
    if reduction > 1:  # depthwise key/value pooling, kernel and stride ``reduction``
        pool_params, pool_macs = _conv_cost(dim, 1, reduction, kv_side)
        params, macs = params + pool_params, macs + pool_macs
    return params, macs, 2 * tokens * kv_side * kv_side * dim  # scores + value mixing


def _ffn_rows(cfg: FfnConfig, side: int) -> tuple[int, int]:
    """fc1 and fc2, the 3x3 depthwise convs of ``cfg.kind`` and the BFFN gate."""
    h = cfg.hidden
    convs = [_conv_cost(h, cfg.dim, 1, side), _conv_cost(cfg.dim, h, 1, side)]
    if cfg.kind is FfnKind.CFFN:
        convs.append(_conv_cost(h, 1, 3, side))
    elif cfg.kind is FfnKind.BFFN:
        convs += [_conv_cost(w, 1, 3, side) for w in (cfg.shallow_width, cfg.deep_width)]
    gate = h if cfg.kind is FfnKind.BFFN else 0
    return gate + sum(p for p, _ in convs), sum(m for _, m in convs)


def _rows(
    spec: VariantSpec, ffn_kind: FfnKind, input_size: int, every_block: bool
) -> Iterator[tuple[int, CostRow]]:
    """``(times, row)`` for each row of one ``input_size`` image, in report order.

    With ``every_block`` each block has its own rows, each once. Without it a
    stage lists block 0 alone, ``stage.blocks`` times, however deep it is.
    """
    sides = stage_sides(input_size)
    st = spec.stem_channels
    for idx, in_ch in enumerate((3, st, st), start=1):
        yield 1, CostRow(f"stem.conv{idx}", *_conv_cost(st, in_ch, 3, input_size // 2))
    prev = st
    for i, (stage, side) in enumerate(zip(spec.stages, sides), start=1):
        dim, times = stage.channels, 1 if every_block else stage.blocks
        yield 1, CostRow(f"stage{i}.embed", *_conv_cost(dim, prev, 2, side))
        prev = dim
        for j in range(stage.blocks if every_block else 1):
            tag = f"stage{i}.block{j}"
            for row in (
                CostRow(f"{tag}.cpe", *_conv_cost(dim, 1, 3, side)),
                CostRow(f"{tag}.ln1", 2 * dim, 0),
                CostRow(f"{tag}.bfsa.sfa", *_fovea_rows(dim, stage.sfa_reduction, side)),
                CostRow(f"{tag}.bfsa.dfa", *_fovea_rows(dim, stage.dfa_reduction, side)),
                CostRow(f"{tag}.ln2", 2 * dim, 0),
                CostRow(f"{tag}.ffn", *_ffn_rows(stage.ffn(ffn_kind), side)),
            ):
                yield times, row
    yield 1, CostRow("head.proj", *_conv_cost(spec.head_channels, prev, 1, sides[-1]))
    yield 1, CostRow("head.fc", *_conv_cost(spec.num_classes, spec.head_channels, 1, 1))


def parameter_count(spec: VariantSpec, ffn_kind: FfnKind = FfnKind.BFFN) -> int:
    """``cost_report(spec, ...).total_params`` for any input size, allocating nothing.

    Parameter counts do not depend on the map sizes, so this needs no input
    size, and it costs one block per stage however many blocks a stage has.
    """
    rows = _rows(spec, ffn_kind, 0, every_block=False)
    return sum(times * row.params for times, row in rows)


def cost_report(
    spec: VariantSpec,
    input_size: int = 224,
    pattern: ConnectionPattern = ConnectionPattern.BIFOVEA,
    ffn_kind: FfnKind = FfnKind.BFFN,
) -> CostReport:
    """Analytic per-module parameter and MAC budget for one forward image."""
    validate_spec(spec, input_size)
    return CostReport(
        variant=spec.name,
        input_size=input_size,
        pattern=pattern.value,
        ffn=ffn_kind.value,
        num_classes=spec.num_classes,
        rows=[row for _, row in _rows(spec, ffn_kind, input_size, every_block=True)],
        notes=list(INTERPRETATION_NOTES),
    )


class MacCount(NamedTuple):
    by_op: dict[str, int]  # every dense operator that ran, with its MACs
    total: int


def measure_macs(graph: ModuleGraph, input_size: int) -> MacCount:
    """Observe one forward image (no backward tape) and tally its MACs by operator."""
    by_op: dict[str, int] = {}

    def tally(op: str, scope: str, out: T.Tensor, macs: int) -> None:
        if macs:
            by_op[op] = by_op.get(op, 0) + macs

    with T.observe(tally), T.no_grad():
        graph.forward(np.zeros((1, 3, input_size, input_size)))
    return MacCount(by_op, sum(by_op.values()))


# ---------------------------------------------------------------------------
# attention map export
# ---------------------------------------------------------------------------


def export_attention_maps(
    graph: ModuleGraph,
    image: np.ndarray,
    stage: int,
    block: int,
    out_dir: str | os.PathLike,
    fovea: str = "sfa",
) -> list[Path]:
    """Write one PGM heat map per head for the chosen block's attention.

    The weights are the ``softmax`` output observed in scope
    ``stage{stage}.block{block}.bfsa.{fovea}``. Per head they are averaged
    over query positions, reshaped to the key/value grid, nearest-neighbor
    upsampled to the stage grid and min-max normalized into [0, 1] (a
    constant map renders mid-gray). ``stage`` is 1-based, ``block`` 0-based,
    ``fovea`` is ``"sfa"`` or ``"dfa"``.
    """
    if fovea not in ("sfa", "dfa"):
        raise ConfigError(f"fovea must be 'sfa' or 'dfa', got {fovea!r}")
    if not 1 <= stage <= len(graph.spec.stages):
        raise ConfigError(f"stage must be in 1..{len(graph.spec.stages)}, got {stage}")
    stage_cfg = graph.spec.stages[stage - 1]
    if not 0 <= block < stage_cfg.blocks:
        raise ConfigError(
            f"stage{stage} has blocks 0..{stage_cfg.blocks - 1}, got block {block}"
        )
    if image.ndim != 3 or image.shape[0] != 3 or image.shape[1] != image.shape[2]:
        raise ConfigError(f"expected one (3, S, S) image, got {image.shape}")

    where = f"stage{stage}.block{block}.bfsa.{fovea}"
    found = []

    def keep(op: str, scope: str, out: T.Tensor, macs: int) -> None:
        if op == "softmax" and scope == where:
            found.append(out.data)

    with T.observe(keep), T.no_grad():
        graph.forward(image[None])
    mean_over_queries = found[0][0].mean(axis=1)

    side = stage_sides(image.shape[1])[stage - 1]
    reduction = stage_cfg.sfa_reduction if fovea == "sfa" else stage_cfg.dfa_reduction
    kv_side = side // reduction
    grids = mean_over_queries.reshape(-1, kv_side, kv_side)
    grids = np.repeat(np.repeat(grids, reduction, axis=1), reduction, axis=2)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for h, grid in enumerate(grids):
        lo, hi = grid.min(), grid.max()
        if hi > lo:
            normed = (grid - lo) / (hi - lo)
        else:
            normed = np.full_like(grid, 0.5)
        path = out_dir / f"stage{stage}_block{block}_{fovea}_head{h}.pgm"
        write_image(path, normed)
        paths.append(path)
    return paths
