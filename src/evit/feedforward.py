"""Feedforward variants used inside a backbone block.

Three interchangeable designs over the same expand-activate-project budget,
each taking and returning a channels-last ``(N, H, W, C)`` map:

* ``ffn``  - plain two-layer MLP applied per position.
* ``cffn`` - MLP whose hidden layer adds a 3x3 depthwise residual, giving the
  hidden state a local spatial view.
* ``bffn`` - the bi-fovea variant: the hidden channels are split into a
  shallow and a deep half, each filtered by its own 3x3 depthwise conv, with
  the shallow output feeding the deep branch before the halves are fused by a
  per-channel gate.

Hidden width is ``round(dim * expansion)``. When that is odd the shallow half
takes the extra channel and only the first ``floor(hidden/2)`` shallow outputs
feed the deep branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .init import conv_fan_out, ones, trunc_normal, zeros
from .maps import dwconv_bias
from .tensor import Tensor


class FfnKind(enum.Enum):
    FFN = "ffn"
    CFFN = "cffn"
    BFFN = "bffn"


@dataclass(frozen=True)
class FfnConfig:
    dim: int
    expansion: float
    kind: FfnKind = FfnKind.BFFN

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        minimum = 2 if self.kind is FfnKind.BFFN else 1
        if self.hidden < minimum:
            raise ConfigError(
                f"hidden width {self.hidden} too small for {self.kind.value} "
                f"(dim={self.dim}, expansion={self.expansion})"
            )

    @property
    def hidden(self) -> int:
        return int(round(self.dim * self.expansion))

    @property
    def shallow_width(self) -> int:
        return (self.hidden + 1) // 2

    @property
    def deep_width(self) -> int:
        return self.hidden // 2


@dataclass
class FfnParams:
    fc1_weight: Tensor
    fc1_bias: Tensor
    fc2_weight: Tensor
    fc2_bias: Tensor
    # cffn only
    dw_weight: Tensor | None = None
    dw_bias: Tensor | None = None
    # bffn only
    shallow_weight: Tensor | None = None
    shallow_bias: Tensor | None = None
    deep_weight: Tensor | None = None
    deep_bias: Tensor | None = None
    fuse_gate: Tensor | None = None

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        pairs = [
            (f"{prefix}.fc1.weight", self.fc1_weight),
            (f"{prefix}.fc1.bias", self.fc1_bias),
        ]
        if self.dw_weight is not None:
            pairs += [
                (f"{prefix}.dw.weight", self.dw_weight),
                (f"{prefix}.dw.bias", self.dw_bias),
            ]
        if self.shallow_weight is not None:
            pairs += [
                (f"{prefix}.shallow_dw.weight", self.shallow_weight),
                (f"{prefix}.shallow_dw.bias", self.shallow_bias),
                (f"{prefix}.deep_dw.weight", self.deep_weight),
                (f"{prefix}.deep_dw.bias", self.deep_bias),
                (f"{prefix}.fuse.weight", self.fuse_gate),
            ]
        pairs += [
            (f"{prefix}.fc2.weight", self.fc2_weight),
            (f"{prefix}.fc2.bias", self.fc2_bias),
        ]
        return pairs


def init_ffn_params(rng: np.random.Generator | None, cfg: FfnConfig) -> FfnParams:
    h = cfg.hidden
    params = FfnParams(
        fc1_weight=trunc_normal(rng, (cfg.dim, h)),
        fc1_bias=zeros((h,)),
        fc2_weight=trunc_normal(rng, (h, cfg.dim)),
        fc2_bias=zeros((cfg.dim,)),
    )
    if cfg.kind is FfnKind.CFFN:
        params.dw_weight = conv_fan_out(rng, (h, 1, 3, 3), groups=h)
        params.dw_bias = zeros((h,))
    elif cfg.kind is FfnKind.BFFN:
        hs, hd = cfg.shallow_width, cfg.deep_width
        params.shallow_weight = conv_fan_out(rng, (hs, 1, 3, 3), groups=hs)
        params.shallow_bias = zeros((hs,))
        params.deep_weight = conv_fan_out(rng, (hd, 1, 3, 3), groups=hd)
        params.deep_bias = zeros((hd,))
        params.fuse_gate = ones((h,))
    return params


def _expand(x: Tensor, params: FfnParams) -> Tensor:
    return T.linear(x, params.fc1_weight, params.fc1_bias)


def _project(hidden: Tensor, params: FfnParams) -> Tensor:
    return T.linear(T.gelu(hidden), params.fc2_weight, params.fc2_bias)


def ffn_forward(x: Tensor, cfg: FfnConfig, params: FfnParams) -> Tensor:
    return _project(_expand(x, params), params)


def cffn_forward(x: Tensor, cfg: FfnConfig, params: FfnParams) -> Tensor:
    hidden = _expand(x, params)
    local = dwconv_bias(hidden, params.dw_weight, params.dw_bias, stride=1, padding=1)
    return _project(T.add(hidden, local), params)


def bffn_forward(x: Tensor, cfg: FfnConfig, params: FfnParams) -> Tensor:
    hidden = _expand(x, params)
    hs, hd = cfg.shallow_width, cfg.deep_width
    shallow_in, deep_in = T.split(hidden, [hs, hd])

    shallow_out = dwconv_bias(
        shallow_in, params.shallow_weight, params.shallow_bias, stride=1, padding=1
    )
    feed = shallow_out if hs == hd else T.split(shallow_out, [hd, hs - hd])[0]
    deep_out = dwconv_bias(
        T.add(feed, deep_in), params.deep_weight, params.deep_bias, stride=1, padding=1
    )

    gated = T.mul(T.concat([shallow_out, deep_out]), params.fuse_gate)
    return _project(gated, params)


_FORWARDS = {
    FfnKind.FFN: ffn_forward,
    FfnKind.CFFN: cffn_forward,
    FfnKind.BFFN: bffn_forward,
}


def feedforward_forward(x: Tensor, cfg: FfnConfig, params: FfnParams) -> Tensor:
    return _FORWARDS[cfg.kind](x, cfg, params)
