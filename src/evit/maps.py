"""Small composites for working with channels-last ``(N, H, W, C)`` feature maps.

A map and its token rows ``(N*H*W, C)`` share one memory layout, so switching
between them is one reshape, a per-position linear on the rows is one 2-d
matmul, and a layer norm over channels acts on the map's last axis directly.
These helpers are pure composites of the kernel primitives, so gradients flow
through them without extra adjoints.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


def map_to_tokens(x: Tensor) -> Tensor:
    """(N,H,W,C) -> (N*H*W, C): one token row per map position, images in turn."""
    if x.ndim != 4:
        raise ShapeError(f"expected a (N,H,W,C) map, got {x.shape}")
    n, h, w, c = x.shape
    return T.reshape(x, (n * h * w, c))


def tokens_to_map(x: Tensor, height: int, width: int) -> Tensor:
    """(N*H*W, C) token rows -> (N,H,W,C)."""
    if x.ndim != 2 or x.shape[0] % (height * width) != 0:
        raise ShapeError(
            f"expected (N*{height * width}, C) token rows for a {height}x{width} map, got {x.shape}"
        )
    rows, c = x.shape
    return T.reshape(x, (rows // (height * width), height, width, c))


def ln_channels(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer norm over the channel axis at every spatial position of a map."""
    return T.layernorm(x, gamma, beta)


def conv_bias(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    return T.conv2d(x, weight, stride=stride, padding=padding, bias=bias)


def dwconv_bias(
    x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0
) -> Tensor:
    return T.dwconv2d(x, weight, stride=stride, padding=padding, bias=bias)
