"""Weight initializers. All draws come from a caller-supplied Generator.

With ``rng=None`` the random initializers draw nothing and return an
uninitialised array of the right shape, for callers (``load_checkpoint``)
that fill every tensor themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

_STD = 0.02  # of every linear weight


def trunc_normal(rng: np.random.Generator | None, shape: tuple[int, ...]) -> Tensor:
    """Normal(0, 0.02) redrawn until every entry lies within two deviations."""
    if rng is None:
        return Tensor(np.empty(shape), requires_grad=True)
    x = rng.normal(0.0, _STD, shape)
    mask = np.abs(x) > 2.0 * _STD
    while mask.any():
        x[mask] = rng.normal(0.0, _STD, int(mask.sum()))
        mask = np.abs(x) > 2.0 * _STD
    return Tensor(x, requires_grad=True)


def conv_params(
    rng: np.random.Generator | None, out_ch: int, in_ch: int, k: int, groups: int = 1
) -> dict[str, Tensor]:
    """A convolution's ``weight`` ``(out_ch, in_ch/groups, k, k)`` and zero ``bias``.

    The weight is Kaiming-style normal with fan-out ``k*k*out_ch/groups``.
    """
    shape = (out_ch, in_ch // groups, k, k)
    if rng is None:
        weight = np.empty(shape)
    else:
        weight = rng.normal(0.0, math.sqrt(2.0 / (k * k * out_ch // groups)), shape)
    return {"weight": Tensor(weight, requires_grad=True), "bias": zeros((out_ch,))}


def zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)
