import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

# make the sibling reference module importable from every test file
sys.path.insert(0, str(Path(__file__).parent))

import evit.tensor as T
from evit.backbone import VARIANTS, reduced_variant


def to_nhwc(x):
    """(N,C,H,W) array -> the channels-last (N,H,W,C) layout the model runs on."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def to_nchw(x):
    """(N,H,W,C) array -> (N,C,H,W), the layout of the oracles in reference.py."""
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


@contextlib.contextmanager
def softmax_outputs():
    """Collect the ``softmax`` outputs run inside the block, keyed by ``T.scope``."""
    seen = {}

    def keep(op, scope, out, macs):
        if op == "softmax":
            seen[scope] = out.data

    with T.observe(keep):
        yield seen


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def toy_spec():
    """Reduced two-class tiny spec shared by model-level tests."""
    return reduced_variant(VARIANTS["tiny"], num_classes=2)


@pytest.fixture
def scaled_gelu_adjoint(monkeypatch):
    """Swap ``gelu_adjoint`` for one whose gradients are 1.5 times the true ones.

    Gradient checks must flag it; the forward values are unchanged. ``gelu``'s
    adjoint and the BFFN node's both reach it through the module global, so
    both scale the input gradient they get from it, and the gate's gradient.
    """
    adjoint = T.gelu_adjoint

    def broken_adjoint(xd, gate, g, out):
        gate_sum = adjoint(xd, gate, g, out)
        np.multiply(out, 1.5, out=out)
        return None if gate_sum is None else 1.5 * gate_sum

    monkeypatch.setattr(T, "gelu_adjoint", broken_adjoint)


@pytest.fixture
def scaled_softmax_adjoint(monkeypatch):
    """Swap ``_softmax_adjoint`` for one that returns 1.5 times the true result.

    ``attention``'s adjoint reaches it through the module global and works
    in place, so the scaling goes into ``out``; only the gradients of the
    attention scores change.
    """
    adjoint = T._softmax_adjoint

    def broken_adjoint(weights, g, scale, out):
        return np.multiply(adjoint(weights, g, scale, out), 1.5, out=out)

    monkeypatch.setattr(T, "_softmax_adjoint", broken_adjoint)
