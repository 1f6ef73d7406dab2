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
  (``T.gelu(hidden, gate)``), so no gated copy of the rejoined map is made.
  On a tape everything after fc1 is one node (``T.record``) that keeps only
  fc1's recipe and its seven parameters, not the rejoined map or the deep
  conv's input: its adjoint rebuilds them once, runs every operator's
  adjoint in plain numpy, bit for bit, and returns one gradient for each of
  the node's eight inputs.

Hidden width is ``round(dim * expansion)``. When that is odd the shallow half
takes the extra channel and only the first ``floor(hidden/2)`` shallow outputs
feed the deep branch.
"""

from __future__ import annotations

import contextlib
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


# what ``feedforward_forward`` runs in when it records no node, shared so
# that a forward without a tape makes no context object
_UNTAPED = contextlib.nullcontext()


def feedforward_forward(x: Tensor, cfg: FfnConfig, params: dict) -> Tensor:
    """fc1, then the ``cfg.kind`` hidden-layer branch, then GELU and fc2, in ``T.scope("ffn")``.

    For ``bffn`` the GELU takes the gate, so it computes ``gelu(hidden * gate)``.
    When the ``bffn`` records a node (``T.taped``), everything after fc1
    runs inside ``T.no_grad()``, so observers see the same operators, and
    its result is one node whose adjoint is ``_bffn_backward``.

    ``x`` and each hidden map are rebound, nested or deleted at their last
    consumer, so without a tape each is freed as soon as that consumer
    returns; the caller should pass ``x`` without keeping a reference.
    """
    with T.scope("ffn"):
        hidden = _linear(x, params["fc1"])
        del x
        bffn = cfg.kind is FfnKind.BFFN
        taped = bffn and T.taped(hidden, *_bffn_leaves(params))
        if taped:
            inputs = (hidden, *_bffn_leaves(params))
            backward = _bffn_backward(inputs, cfg)
        with T.no_grad() if taped else _UNTAPED:
            if cfg.kind is FfnKind.CFFN:
                hidden = T.add(hidden, _dwconv(hidden, params["dw"]))
            elif bffn:
                hs, hd = cfg.shallow_width, cfg.deep_width
                shallow, hidden = T.split(hidden, [hs, hd])
                shallow = _dwconv(shallow, params["shallow_dw"])
                hidden = T.add(shallow if hs == hd else T.split(shallow, [hd, hs - hd])[0], hidden)
                hidden = _dwconv(hidden, params["deep_dw"])
                hidden = T.concat([shallow, hidden])
                del shallow
            hidden = T.gelu(hidden, params["fuse"]["weight"] if bffn else None)
            out = _linear(hidden, params["fc2"])
        if not taped:
            return out
        return T.record(out.data, inputs, backward)


def _bffn_leaves(params: dict) -> tuple[Tensor, ...]:
    """The BFFN's parameters after fc1, in the order its node lists them."""
    shallow, deep, fc2 = params["shallow_dw"], params["deep_dw"], params["fc2"]
    return (shallow["weight"], shallow["bias"], deep["weight"], deep["bias"],
            params["fuse"]["weight"], fc2["weight"], fc2["bias"])


def _bffn_backward(inputs: tuple[Tensor, ...], cfg: FfnConfig):
    """The adjoint of the BFFN's node over ``inputs``: the fc1 output, then ``_bffn_leaves``.

    It keeps ``T.kept`` of the fc1 output (``fc1``'s recipe on a trained
    graph) and the leaves' arrays, and returns one gradient per input, as
    every operator's adjoint does; the walk drops those of inputs that need
    none. It rebuilds the shallow conv's output, the deep conv's
    input and output and their concat once, then runs in plain numpy what
    the adjoints of ``fc2``, the gated GELU, the concat, both depthwise
    convs, the add and the splits would, through the kernels those
    operators' own adjoints call, and sums the pieces as the walk would:
    every gradient is bitwise that of the per-operator tape. The GELU's
    gradient is written into fc2's input gradient, each array is dropped
    after its last reader, and where a split's adjoint would sum zero-padded
    pieces, the pieces go into one buffer with the same ``+ 0.0``.
    """
    hs, hd = cfg.shallow_width, cfg.deep_width
    get = T.kept(inputs[0])
    sw, sb, dw, db, gate, w2 = (t.data for t in inputs[1:7])
    s_taps, d_taps = T.dwconv_taps(sw), T.dwconv_taps(dw)

    def backward(g: np.ndarray):
        g2 = g.reshape(-1, g.shape[-1])
        gb2 = g2.sum(axis=0)
        h = get()
        shallow_in = np.ascontiguousarray(h[..., :hs])
        shallow = T.dwconv_apply(shallow_in, s_taps, 1, 1, sb)
        deep_in = (shallow if hs == hd else shallow[..., :hd]) + h[..., hs:]
        del h
        concat = np.concatenate([shallow, T.dwconv_apply(deep_in, d_taps, 1, 1, db)], axis=-1)
        del shallow
        act = T.gelu_rows(concat, gate).reshape(len(g2), -1)
        gw2 = np.matmul(np.swapaxes(act, -1, -2), g2)
        del act
        gx = np.matmul(g2, np.swapaxes(w2, -1, -2)).reshape(concat.shape)
        ggate = T.gelu_adjoint(concat, gate, gx, gx)
        del concat
        g_deep = np.ascontiguousarray(gx[..., hs:])
        gdw = T.dwconv_weight_grad(deep_in, g_deep, *dw.shape[2:], 1, 1)
        del deep_in
        gdb = g_deep.sum(axis=(0, 1, 2))
        g_add = T.dwconv_input_grad(g_deep, d_taps, g_deep.shape, 1, 1)
        del g_deep
        # the shallow output's gradient: the concat's piece plus the add's,
        # which a split zero-pads when the shallow half is wider
        g_shallow = np.empty(shallow_in.shape)
        np.add(gx[..., :hd], g_add, out=g_shallow[..., :hd])
        np.add(gx[..., hd:hs], 0.0, out=g_shallow[..., hd:])
        del gx
        gsw = T.dwconv_weight_grad(shallow_in, g_shallow, *sw.shape[2:], 1, 1)
        del shallow_in
        gsb = g_shallow.sum(axis=(0, 1, 2))
        # fc1's split adjoint: each piece's gradient plus the other's zero padding
        g_in = np.empty(g_add.shape[:-1] + (hs + hd,))
        np.add(T.dwconv_input_grad(g_shallow, s_taps, g_shallow.shape, 1, 1), 0.0,
               out=g_in[..., :hs])
        np.add(0.0, g_add, out=g_in[..., hs:])
        return g_in, gsw, gsb, gdw, gdb, ggate, gw2, gb2

    return backward
