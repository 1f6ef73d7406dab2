"""Four-stage pyramid backbone built from bi-fovea blocks.

Layout: a three-conv stem halves the input once, then each of four stages
starts with a 2x2 stride-2 patch embedding and runs a string of blocks at
that resolution. A block is

    x = x + dwconv3x3(x)                    # conditional position encoding
    y = x + bfsa(layernorm(x))              # bi-fovea attention
    z = y + feedforward(layernorm(y))       # bi-fovea feedforward

and the classifier head is a 1x1 projection to ``head_channels``, GELU,
global average pooling and a fully connected layer.

``VARIANTS`` holds the four published model sizes; ``reduced_variant``
shrinks any of them (narrower channels, one block per stage) for tests and
toy training. ``build`` materializes a ``ModuleGraph`` whose parameters are
plain autodiff tensors held in one tree of nested dicts, ``graph.params``:

    stem.conv{1,2,3}.{weight,bias}
    stage{i}.embed.{weight,bias}
    stage{i}.block{j}.cpe.{weight,bias}
    stage{i}.block{j}.ln{1,2}.{gamma,beta}
    stage{i}.block{j}.bfsa.{sfa,dfa}.[reduce.{weight,bias},] {q,k,v,out}_weight
    stage{i}.block{j}.ffn.fc1.{weight,bias}, [dw | shallow_dw, deep_dw, fuse,] fc2
    head.proj.{weight,bias}, head.fc.{weight,bias}

A parameter's name is its keys joined by dots, so
``stage3.block0.bfsa.sfa.q_weight`` is
``graph.params["stage3"]["block0"]["bfsa"]["sfa"]["q_weight"]``.
``named_parameters`` lists the leaves in insertion order, which is the order
of a checkpoint's tensor table. ``reduce`` exists only in a fovea with a
reduction above 1; ``dw`` only in a ``cffn``; ``shallow_dw``, ``deep_dw``
and ``fuse`` (a gate, ``fuse.weight``) only in a ``bffn``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, ConnectionPattern, bfsa_forward, init_bfsa_params
from .errors import ConfigError, ShapeError
from .feedforward import FfnConfig, FfnKind, feedforward_forward, init_ffn_params
from .init import conv_params, ones, trunc_normal, zeros
from .maps import conv_bias, dwconv_bias, ln_channels
from .tensor import Tensor

# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageConfig:
    blocks: int
    channels: int
    heads: int
    sfa_reduction: int
    dfa_reduction: int
    expansion: float

    @property
    def attention(self) -> AttentionConfig:
        """The bi-fovea attention config of each block in this stage."""
        return AttentionConfig(self.channels, self.heads, self.sfa_reduction, self.dfa_reduction)

    def ffn(self, kind: FfnKind) -> FfnConfig:
        """The ``kind`` feedforward config of each block in this stage."""
        return FfnConfig(self.channels, self.expansion, kind)


@dataclass(frozen=True)
class VariantSpec:
    """A stage table, checked when it is made; ``validate_spec`` checks it against a size.

    An error from a stage's own layer configs is prefixed with that stage.
    """

    name: str
    stem_channels: int
    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    head_channels: int = 1280
    num_classes: int = 1000

    def __post_init__(self) -> None:
        if len(self.stages) != 4:
            raise ConfigError(f"expected 4 stages, got {len(self.stages)}")
        if self.stem_channels < 1 or self.head_channels < 1 or self.num_classes < 1:
            raise ConfigError(
                f"stem/head/classes must be positive, got {self.stem_channels}, "
                f"{self.head_channels}, {self.num_classes}"
            )
        for i, stage in enumerate(self.stages, start=1):
            if stage.blocks < 1:
                raise ConfigError(f"stage{i} needs at least one block, got {stage.blocks}")
            try:
                # making the configs runs their own checks; bffn has the strictest hidden minimum
                stage.attention, stage.ffn(FfnKind.BFFN)
            except ConfigError as exc:
                raise ConfigError(f"stage{i}: {exc}") from None


def _make_variant(name, stem, channels, depths, heads, expansion) -> VariantSpec:
    sfa = (8, 4, 2, 1)
    dfa = (4, 2, 1, 1)
    stages = tuple(
        StageConfig(depths[i], channels[i], heads[i], sfa[i], dfa[i], expansion)
        for i in range(4)
    )
    return VariantSpec(name=name, stem_channels=stem, stages=stages)


VARIANTS: dict[str, VariantSpec] = {
    "tiny": _make_variant("tiny", 28, (56, 112, 224, 448), (2, 2, 6, 2), (1, 2, 4, 8), 3.0),
    "small": _make_variant("small", 32, (64, 128, 256, 512), (3, 3, 12, 3), (1, 2, 4, 8), 3.0),
    "base": _make_variant("base", 32, (64, 128, 256, 512), (4, 4, 27, 4), (2, 4, 8, 16), 3.5),
    "large": _make_variant("large", 36, (72, 144, 288, 576), (4, 4, 27, 4), (2, 4, 8, 16), 4.0),
}


def variant(name: str) -> VariantSpec:
    """The published variant called ``name``."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ConfigError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}") from None


def validate_spec(spec: VariantSpec, input_size: int) -> None:
    """Raise ConfigError unless ``spec`` can take a square ``input_size`` image.

    The size must be a positive multiple of 32, and every stage's attention
    reductions must divide its map side.
    """
    if input_size < 32 or input_size % 32 != 0:
        raise ConfigError(f"input size must be a positive multiple of 32, got {input_size}")
    for i, (stage, side) in enumerate(zip(spec.stages, stage_sides(input_size)), start=1):
        for label, red in (("sfa", stage.sfa_reduction), ("dfa", stage.dfa_reduction)):
            if side % red != 0:
                raise ConfigError(
                    f"stage{i} map side {side} (input {input_size}) not divisible "
                    f"by {label} reduction {red}"
                )


def stage_sides(input_size: int) -> list[int]:
    """Spatial side of each stage's map for a square input.

    The stem and the four patch embeddings each halve the map. Callers check
    the size with ``validate_spec`` first, so it is a multiple of 32.
    """
    return [input_size // 4, input_size // 8, input_size // 16, input_size // 32]


def reduced_variant(
    spec: VariantSpec,
    width_divisor: int = 4,
    blocks_per_stage: int | None = 1,
    num_classes: int | None = None,
) -> VariantSpec:
    """Shrink a variant for cheap tests: narrower channels, fewer blocks.

    ``blocks_per_stage=None`` keeps the variant's own depths.
    """
    if width_divisor < 1 or (blocks_per_stage is not None and blocks_per_stage < 1):
        raise ConfigError(
            f"width_divisor and blocks_per_stage must be >= 1, got "
            f"{width_divisor}, {blocks_per_stage}"
        )
    if spec.stem_channels % width_divisor != 0:
        raise ConfigError(
            f"stem channels {spec.stem_channels} not divisible by {width_divisor}"
        )
    stages = []
    for i, s in enumerate(spec.stages, start=1):
        if s.channels % width_divisor != 0:
            raise ConfigError(f"stage{i} channels {s.channels} not divisible by {width_divisor}")
        stages.append(
            replace(
                s,
                channels=s.channels // width_divisor,
                blocks=s.blocks if blocks_per_stage is None else blocks_per_stage,
            )
        )
    return VariantSpec(
        name=f"{spec.name}-reduced" if width_divisor != 1 or blocks_per_stage else spec.name,
        stem_channels=spec.stem_channels // width_divisor,
        stages=tuple(stages),
        head_channels=spec.head_channels,
        num_classes=spec.num_classes if num_classes is None else num_classes,
    )


# ---------------------------------------------------------------------------
# the module graph
# ---------------------------------------------------------------------------


def named_tensors(tree: dict, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Flatten a parameter tree into ``(dotted name, tensor)`` pairs, in insertion order."""
    pairs = []
    for key, value in tree.items():
        if isinstance(value, dict):
            pairs += named_tensors(value, f"{prefix}{key}.")
        else:
            pairs.append((f"{prefix}{key}", value))
    return pairs


@dataclass
class ModuleGraph:
    """A built backbone: its spec and wiring, and its parameter tree ``params``."""

    spec: VariantSpec
    seed: int
    pattern: ConnectionPattern
    ffn_kind: FfnKind
    params: dict

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return named_tensors(self.params)

    def gradients(self, loss: Tensor) -> dict[str, np.ndarray]:
        """``loss.backward()`` as one gradient array per parameter name.

        A parameter that the loss does not reach gets an all-zeros gradient of
        its shape, so the dict covers every name. The walk frees the loss's
        tape, so a second call on the same loss raises ``ValueError``.
        """
        found = loss.backward()
        return {
            name: found[p] if p in found else np.zeros_like(p.data)
            for name, p in self.named_parameters()
        }

    def gradient_stream(self, loss: Tensor) -> Iterator[tuple[str, np.ndarray]]:
        """``gradients`` as ``(name, gradient)`` pairs, each as soon as the walk finishes it.

        The pairs of ``loss.gradient_stream()`` come in the order the walk
        finishes them, so the caller may update each parameter in place
        before taking the next pair. After the walk, every parameter the loss
        does not reach gets an all-zeros gradient, in ``named_parameters``
        order. The loss's checks run on the call.
        """
        walk = loss.gradient_stream()
        unreached = {p: name for name, p in self.named_parameters()}

        def pairs():
            for leaf, g in walk:
                if leaf in unreached:
                    yield unreached.pop(leaf), g
            for p, name in unreached.items():
                yield name, np.zeros_like(p.data)

        return pairs()

    def forward(self, images, return_stage_maps: bool = False):
        """Run the backbone. ``images`` is (N, 3, H, W) with H = W divisible by 32.

        Returns logits (N, num_classes), or ``(logits, stage_maps)`` when
        ``return_stage_maps`` is set; stage maps are the four per-stage output
        tensors in (N, C, H, W), useful for dense downstream heads. Each
        module runs in the ``T.scope`` named like its ``cost_report`` row:
        ``stem.conv{i}`` (the conv and its GELU), ``stage{i}.embed``, a
        block's ``stage{i}.block{j}.cpe``, ``.ln1``, ``.bfsa.sfa``,
        ``.bfsa.dfa``, ``.ln2`` and ``.ffn`` (see ``bev_block_forward``),
        ``head.proj`` (the projection, its GELU and the pooling) and
        ``head.fc``.

        This is the only place that knows the (N, C, H, W) layout: the images
        are transposed once on the way in, every layer inside runs on
        channels-last (N, H, W, C) maps, and stage maps are transposed back
        on the way out.
        """
        x = images if isinstance(images, Tensor) else Tensor(images)
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeError(f"expected (N, 3, H, W) images, got {x.shape}")
        if x.shape[2] != x.shape[3]:
            raise ShapeError(f"expected square images, got {x.shape[2]}x{x.shape[3]}")
        validate_spec(self.spec, x.shape[2])
        # the map is handed from layer to layer through a one-item list, so the
        # layer reading it holds the only reference: without a tape each map
        # is freed once that layer is done with it, not when the next is bound
        held = [T.transpose(x, (0, 2, 3, 1))]
        del x
        for i, stride in enumerate((2, 1, 1), start=1):
            with T.scope(f"stem.conv{i}"):
                conv = self.params["stem"][f"conv{i}"]
                held.append(T.gelu(_conv(held.pop(), conv, stride=stride, padding=1)))

        stage_maps = []
        for i, stage_cfg in enumerate(self.spec.stages):
            stage = self.params[f"stage{i + 1}"]
            with T.scope(f"stage{i + 1}.embed"):
                held.append(_conv(held.pop(), stage["embed"], stride=2, padding=0))
            attn_cfg, ffn_cfg = stage_cfg.attention, stage_cfg.ffn(self.ffn_kind)
            for j in range(stage_cfg.blocks):
                with T.scope(f"stage{i + 1}.block{j}"):
                    held.append(bev_block_forward(
                        held.pop(), stage[f"block{j}"], attn_cfg, ffn_cfg, self.pattern))
            if return_stage_maps:
                stage_maps.append(held[0])

        head = self.params["head"]
        with T.scope("head.proj"):
            pooled = T.avgpool_global(T.gelu(_conv(held.pop(), head["proj"], stride=1, padding=0)))
        with T.scope("head.fc"):
            logits = T.linear(pooled, head["fc"]["weight"], head["fc"]["bias"])
        if return_stage_maps:
            return logits, [T.transpose(m, (0, 3, 1, 2)) for m in stage_maps]
        return logits


def _conv(x: Tensor, params: dict, stride: int, padding: int) -> Tensor:
    return conv_bias(x, params["weight"], params["bias"], stride=stride, padding=padding)


def bev_block_forward(
    x: Tensor,
    blk: dict,
    attn_cfg: AttentionConfig,
    ffn_cfg: FfnConfig,
    pattern: ConnectionPattern = ConnectionPattern.BIFOVEA,
) -> Tensor:
    """One residual block on a ``(N,H,W,C)`` map: position encoding, attention, feedforward.

    Each part runs in the ``T.scope`` named like its ``cost_report`` row:
    the position-encoding conv and its add in ``cpe``, the layer norms in
    ``ln1`` and ``ln2``; ``bfsa_forward`` and ``feedforward_forward`` open
    ``bfsa`` and ``ffn`` themselves. The residual adds run in the block's scope.
    """
    cpe = blk["cpe"]
    # each residual branch's input is nested into it and ``x`` is rebound to
    # each sum, so without a tape every map is freed after its last reader
    with T.scope("cpe"):
        x = T.add(dwconv_bias(x, cpe["weight"], cpe["bias"], stride=1, padding=1), x)
    y = bfsa_forward(_norm(x, blk, "ln1"), attn_cfg, blk["bfsa"], pattern)
    x = T.add(y, x)
    del y
    y = feedforward_forward(_norm(x, blk, "ln2"), ffn_cfg, blk["ffn"])
    return T.add(y, x)


def _norm(x: Tensor, blk: dict, name: str) -> Tensor:
    """The block's layer norm ``name`` of ``x``, run in its own scope."""
    with T.scope(name):
        return ln_channels(x, blk[name]["gamma"], blk[name]["beta"])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _init_norm(ch: int) -> dict:
    return {"gamma": ones((ch,)), "beta": zeros((ch,))}


def build(
    spec: VariantSpec | str,
    seed: int,
    pattern: ConnectionPattern = ConnectionPattern.BIFOVEA,
    ffn_kind: FfnKind = FfnKind.BFFN,
    zero_classifier: bool = True,
) -> ModuleGraph:
    """Materialize a backbone with freshly initialized parameters.

    The same ``(spec, seed, pattern, ffn_kind, zero_classifier)`` always
    produces bitwise-identical parameters. ``zero_classifier`` starts the final
    fully connected layer at zero, the usual choice for fine-tuning stability;
    gradient checking should pass ``False`` so gradients reach every layer.
    A negative ``seed`` is a ``ConfigError``.
    """
    if isinstance(spec, str):
        spec = variant(spec)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return _assemble(spec, seed, pattern, ffn_kind, zero_classifier, np.random.default_rng(seed))


def _assemble(
    spec: VariantSpec,
    seed: int,
    pattern: ConnectionPattern,
    ffn_kind: FfnKind,
    zero_classifier: bool,
    rng: np.random.Generator | None,
) -> ModuleGraph:
    """Allocate every parameter of ``spec``, in ``named_parameters`` order.

    ``build`` passes a seeded generator. ``rng=None`` draws nothing and leaves
    the random tensors uninitialised, for a caller that overwrites them all.
    """
    st = spec.stem_channels
    params = {
        "stem": {
            f"conv{i}": conv_params(rng, st, in_ch, 3)
            for i, in_ch in enumerate((3, st, st), start=1)
        }
    }
    prev = st
    for i, s in enumerate(spec.stages, start=1):
        stage = params[f"stage{i}"] = {"embed": conv_params(rng, s.channels, prev, 2)}
        attn_cfg, ffn_cfg = s.attention, s.ffn(ffn_kind)
        for j in range(s.blocks):
            stage[f"block{j}"] = {
                "cpe": conv_params(rng, s.channels, s.channels, 3, groups=s.channels),
                "ln1": _init_norm(s.channels),
                "bfsa": init_bfsa_params(rng, attn_cfg),
                "ln2": _init_norm(s.channels),
                "ffn": init_ffn_params(rng, ffn_cfg),
            }
        prev = s.channels

    fc_shape = (spec.head_channels, spec.num_classes)
    params["head"] = {
        "proj": conv_params(rng, spec.head_channels, prev, 1),
        "fc": {
            "weight": zeros(fc_shape) if zero_classifier else trunc_normal(rng, fc_shape),
            "bias": zeros((spec.num_classes,)),
        },
    }
    return ModuleGraph(spec=spec, seed=seed, pattern=pattern, ffn_kind=ffn_kind, params=params)
