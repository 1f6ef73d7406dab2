"""Feedforward variants used inside a backbone block.

Three interchangeable designs over the same expand-activate-project budget,
each taking and returning a channels-last ``(N, H, W, C)`` map:

* ``ffn``  - plain two-layer MLP applied per position.
* ``cffn`` - MLP whose hidden layer adds a 3x3 depthwise residual, giving the
  hidden state a local spatial view.
* ``bffn`` - the bi-fovea variant: the hidden channels are split into a
  shallow and a deep half, each filtered by its own 3x3 depthwise conv, with
  the shallow output feeding the deep branch before the halves are fused by a
  per-channel gate. The gate is applied inside the GELU that follows
  (``T.gelu(hidden, gate)``), so the tape keeps the rejoined map, not a
  second, gated copy of it.

Hidden width is ``round(dim * expansion)``. When that is odd the shallow half
takes the extra channel and only the first ``floor(hidden/2)`` shallow outputs
feed the deep branch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .init import conv_params, ones, trunc_normal, zeros
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
        if not (math.isfinite(self.expansion) and self.expansion > 0):
            raise ConfigError(f"expansion must be finite and positive, got {self.expansion}")
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


def init_ffn_params(rng: np.random.Generator | None, cfg: FfnConfig) -> dict:
    h = cfg.hidden
    fc1 = {"weight": trunc_normal(rng, (cfg.dim, h)), "bias": zeros((h,))}
    # fc2 is drawn before the depthwise weights but listed after them
    fc2 = {"weight": trunc_normal(rng, (h, cfg.dim)), "bias": zeros((cfg.dim,))}
    params = {"fc1": fc1}
    if cfg.kind is FfnKind.CFFN:
        params["dw"] = conv_params(rng, h, h, 3, groups=h)
    elif cfg.kind is FfnKind.BFFN:
        hs, hd = cfg.shallow_width, cfg.deep_width
        params["shallow_dw"] = conv_params(rng, hs, hs, 3, groups=hs)
        params["deep_dw"] = conv_params(rng, hd, hd, 3, groups=hd)
        params["fuse"] = {"weight": ones((h,))}
    params["fc2"] = fc2
    return params


def _linear(x: Tensor, params: dict) -> Tensor:
    return T.linear(x, params["weight"], params["bias"])


def _dwconv(x: Tensor, params: dict) -> Tensor:
    return dwconv_bias(x, params["weight"], params["bias"], stride=1, padding=1)


def feedforward_forward(x: Tensor, cfg: FfnConfig, params: dict) -> Tensor:
    """fc1, then the ``cfg.kind`` hidden-layer branch, then GELU and fc2, in ``T.scope("ffn")``.

    For ``bffn`` the GELU takes the gate, so it computes ``gelu(hidden * gate)``.

    ``x`` and each hidden map are rebound, nested or deleted at their last
    consumer, so without a tape each is freed as soon as that consumer
    returns; the caller should pass ``x`` without keeping a reference.
    """
    with T.scope("ffn"):
        hidden = _linear(x, params["fc1"])
        del x
        if cfg.kind is FfnKind.CFFN:
            hidden = T.add(hidden, _dwconv(hidden, params["dw"]))
        elif cfg.kind is FfnKind.BFFN:
            hs, hd = cfg.shallow_width, cfg.deep_width
            shallow, hidden = T.split(hidden, [hs, hd])
            shallow = _dwconv(shallow, params["shallow_dw"])
            hidden = T.add(shallow if hs == hd else T.split(shallow, [hd, hs - hd])[0], hidden)
            hidden = _dwconv(hidden, params["deep_dw"])
            hidden = T.concat([shallow, hidden])
            del shallow
        hidden = T.gelu(hidden, params["fuse"]["weight"] if cfg.kind is FfnKind.BFFN else None)
        return _linear(hidden, params["fc2"])
