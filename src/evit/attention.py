"""Bi-fovea self-attention: a shallow and a deep attention pathway per block.

Both pathways run the same multi-head attention; they differ only in their
parameters and in how aggressively they shrink the key/value grid. Queries
are projected from the full-resolution map; keys and values come from a
strided depthwise convolution that pools ``reduction x reduction`` patches
(skipped entirely at reduction 1). Every projection is one matmul on the
token rows ``(N*H*W, C)`` of its map, and one ``T.attention`` call splits
the rows into heads, attends and merges the heads back into rows: one tape
node that keeps the projections' recipes, not their rows or head splits,
and rebuilds the splits and recomputes the attention weights in backward.
The two pathways can be wired three ways:

* ``parallel``  - shallow(x) + deep(x)
* ``cascade``   - deep(shallow(x))
* ``bifovea``   - shallow(x) + deep(shallow(x)), the default

Projections carry no bias terms; the strided reduction convolution keeps its
bias. The scores' ``1/sqrt(C/heads)`` scale is a Python float that
``T.attention`` hands to its ``softmax``, so no scaled copy of the scores is
made or kept. ``bfsa_forward`` runs inside ``T.scope("bfsa")`` and each
pathway inside ``T.scope("sfa")`` or ``T.scope("dfa")`` within it, so an
observer (``T.observe``) sees a pathway's attention weights as the output of
the ``softmax`` operator in scope ``bfsa.sfa`` or ``bfsa.dfa``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .init import conv_params, trunc_normal
from .maps import dwconv_bias, map_to_tokens, tokens_to_map
from .tensor import Tensor


class ConnectionPattern(enum.Enum):
    """How the shallow and deep foveae are combined inside a block."""

    PARALLEL = "parallel"
    CASCADE = "cascade"
    BIFOVEA = "bifovea"


@dataclass(frozen=True)
class AttentionConfig:
    dim: int
    heads: int
    sfa_reduction: int
    dfa_reduction: int

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.heads <= 0:
            raise ConfigError(f"dim and heads must be positive, got {self.dim}, {self.heads}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.sfa_reduction < 1 or self.dfa_reduction < 1:
            raise ConfigError(
                f"reductions must be >= 1, got {self.sfa_reduction}, {self.dfa_reduction}"
            )


def init_fovea_params(
    rng: np.random.Generator | None, dim: int, reduction: int
) -> dict:
    """One pathway's weights: ``reduce`` (only when ``reduction > 1``), then the projections."""
    params = {}
    if reduction > 1:
        params["reduce"] = conv_params(rng, dim, dim, reduction, groups=dim)
    for key in ("q_weight", "k_weight", "v_weight", "out_weight"):
        params[key] = trunc_normal(rng, (dim, dim))
    return params


def init_bfsa_params(rng: np.random.Generator | None, cfg: AttentionConfig) -> dict:
    return {
        "sfa": init_fovea_params(rng, cfg.dim, cfg.sfa_reduction),
        "dfa": init_fovea_params(rng, cfg.dim, cfg.dfa_reduction),
    }


def _fovea_attention(x: Tensor, heads: int, reduction: int, params: dict) -> Tensor:
    """Multi-head attention over a ``(N,H,W,C)`` map, with strided key/value pooling."""
    n, h, w, c = x.shape
    if params["q_weight"].shape != (c, c):
        raise ShapeError(
            f"attention weights built for dim {params['q_weight'].shape[0]}, map has {c} channels"
        )
    if h % reduction != 0 or w % reduction != 0:
        raise ConfigError(
            f"map size {h}x{w} not divisible by key/value reduction {reduction}"
        )

    kv = x
    if reduction > 1:
        reduce = params["reduce"]
        kv = dwconv_bias(x, reduce["weight"], reduce["bias"], stride=reduction, padding=0)
    # a second reshape even at reduction 1: sharing the queries' rows would
    # merge two gradient paths into one node and reorder the map's gradient sum
    kv = map_to_tokens(kv)
    # the projections go in inline, so the op can free each one's rows once
    # it has split them into heads; a tape keeps their recipes instead
    mixed = T.attention(
        T.linear(map_to_tokens(x), params["q_weight"]),
        T.linear(kv, params["k_weight"]),
        T.linear(kv, params["v_weight"]),
        n, heads, 1.0 / math.sqrt(c // heads),
    )
    return tokens_to_map(T.linear(mixed, params["out_weight"]), h, w)


def sfa_forward(x: Tensor, cfg: AttentionConfig, params: dict) -> Tensor:
    """Shallow fovea: the stronger key/value pooling, onto the coarser grid."""
    with T.scope("sfa"):
        return _fovea_attention(x, cfg.heads, cfg.sfa_reduction, params)


def dfa_forward(x: Tensor, cfg: AttentionConfig, params: dict) -> Tensor:
    """Deep fovea: same attention with its own weights and a milder or no pooling."""
    with T.scope("dfa"):
        return _fovea_attention(x, cfg.heads, cfg.dfa_reduction, params)


def bfsa_forward(
    x: Tensor,
    cfg: AttentionConfig,
    params: dict,
    pattern: ConnectionPattern = ConnectionPattern.BIFOVEA,
) -> Tensor:
    """Combine the two foveae according to the connection pattern, in ``T.scope("bfsa")``."""
    with T.scope("bfsa"):
        shallow = sfa_forward(x, cfg, params["sfa"])
        # rebound: outside ``parallel`` the deep fovea reads the shallow output,
        # so a forward without a tape frees ``x`` here
        x = x if pattern is ConnectionPattern.PARALLEL else shallow
        deep = dfa_forward(x, cfg, params["dfa"])
        return deep if pattern is ConnectionPattern.CASCADE else T.add(shallow, deep)
