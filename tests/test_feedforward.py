"""Feedforward variants: hand-computed oracles, the BFFN node's bits and the parameter ordering."""

import numpy as np
import pytest

import evit.tensor as T
from evit.backbone import named_tensors
from evit.errors import ConfigError
from evit.feedforward import (
    FfnConfig,
    FfnKind,
    feedforward_forward,
    init_ffn_params,
)
from evit.tensor import Tensor, finite_difference, relative_error

from conftest import to_nchw, to_nhwc
from reference import naive_dwconv2d, naive_gelu, taped_bffn


def _affine(t, params):
    """``t @ weight + bias`` with one linear layer's parameters."""
    return t @ params["weight"].data + params["bias"].data


def _param_total(params):
    return sum(p.size for _, p in named_tensors(params))


class TestConfig:
    @pytest.mark.parametrize(
        "dim,expansion,hidden", [(64, 3.0, 192), (64, 3.5, 224), (72, 4.0, 288), (3, 3.0, 9)]
    )
    def test_hidden_rounding(self, dim, expansion, hidden):
        cfg = FfnConfig(dim, expansion, FfnKind.BFFN)
        assert cfg.hidden == hidden

    def test_odd_hidden_split(self):
        cfg = FfnConfig(3, 3.0, FfnKind.BFFN)  # hidden 9
        assert cfg.shallow_width == 5 and cfg.deep_width == 4

    def test_too_small_hidden_rejected(self):
        with pytest.raises(ConfigError):
            FfnConfig(2, 0.5, FfnKind.BFFN)  # hidden 1, cannot split

    @pytest.mark.parametrize(
        "dim,expansion,match",
        [
            (4, float("inf"), "expansion"),
            (4, float("-inf"), "expansion"),
            (4, float("nan"), "expansion"),
            (4, -1.0, "expansion"),
            (0, 3.0, "dim"),
        ],
    )
    def test_non_finite_or_non_positive_rejected(self, dim, expansion, match):
        with pytest.raises(ConfigError, match=match):
            FfnConfig(dim, expansion, FfnKind.FFN)


class TestForwardOracles:
    def _tokens(self, x):
        n, c, h, w = x.shape
        return x.transpose(0, 2, 3, 1).reshape(n, h * w, c)

    def _maps(self, t, h, w):
        n, _, c = t.shape
        return t.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def test_ffn_matches_manual(self, rng):
        cfg = FfnConfig(6, 2.0, FfnKind.FFN)
        params = init_ffn_params(rng, cfg)
        x = rng.normal(size=(2, 6, 4, 4))
        ours = to_nchw(feedforward_forward(Tensor(to_nhwc(x)), cfg, params).data)

        t = self._tokens(x)
        hidden = naive_gelu(_affine(t, params["fc1"]))
        expected = self._maps(_affine(hidden, params["fc2"]), 4, 4)
        np.testing.assert_allclose(ours, expected, atol=1e-12)

    def test_cffn_matches_manual(self, rng):
        cfg = FfnConfig(6, 2.0, FfnKind.CFFN)
        params = init_ffn_params(rng, cfg)
        x = rng.normal(size=(2, 6, 4, 4))
        ours = to_nchw(feedforward_forward(Tensor(to_nhwc(x)), cfg, params).data)

        t = self._tokens(x)
        hidden = self._maps(_affine(t, params["fc1"]), 4, 4)
        local = naive_dwconv2d(hidden, params["dw"]["weight"].data, 1, 1)
        local += params["dw"]["bias"].data[None, :, None, None]
        activated = naive_gelu(hidden + local)
        expected = self._maps(_affine(self._tokens(activated), params["fc2"]), 4, 4)
        np.testing.assert_allclose(ours, expected, atol=1e-12)

    @pytest.mark.parametrize("dim,expansion", [(6, 2.0), (3, 3.0)])  # even and odd hidden
    def test_bffn_matches_manual(self, dim, expansion, rng):
        cfg = FfnConfig(dim, expansion, FfnKind.BFFN)
        params = init_ffn_params(rng, cfg)
        # exercise a non-trivial gate
        params["fuse"]["weight"].data[:] = rng.normal(size=cfg.hidden)
        x = rng.normal(size=(2, dim, 4, 4))
        ours = to_nchw(feedforward_forward(Tensor(to_nhwc(x)), cfg, params).data)

        t = self._tokens(x)
        hidden = self._maps(_affine(t, params["fc1"]), 4, 4)
        hs, hd = cfg.shallow_width, cfg.deep_width
        shallow_in, deep_in = hidden[:, :hs], hidden[:, hs:]
        shallow, deep = params["shallow_dw"], params["deep_dw"]
        shallow_out = naive_dwconv2d(shallow_in, shallow["weight"].data, 1, 1)
        shallow_out += shallow["bias"].data[None, :, None, None]
        deep_out = naive_dwconv2d(shallow_out[:, :hd] + deep_in, deep["weight"].data, 1, 1)
        deep_out += deep["bias"].data[None, :, None, None]
        merged = np.concatenate([shallow_out, deep_out], axis=1)
        gated = merged * params["fuse"]["weight"].data[None, :, None, None]
        expected = self._maps(_affine(self._tokens(naive_gelu(gated)), params["fc2"]), 4, 4)
        np.testing.assert_allclose(ours, expected, atol=1e-12)

    def test_zero_gate_leaves_only_bias(self, rng):
        cfg = FfnConfig(4, 2.0, FfnKind.BFFN)
        params = init_ffn_params(rng, cfg)
        params["fuse"]["weight"].data[:] = 0.0
        params["fc2"]["bias"].data[:] = rng.normal(size=4)
        x = rng.normal(size=(1, 4, 4, 4))
        out = to_nchw(feedforward_forward(Tensor(to_nhwc(x)), cfg, params).data)
        expected = np.broadcast_to(params["fc2"]["bias"].data[None, :, None, None], out.shape)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("dim,expansion", [(6, 2.0), (3, 3.0)])  # even and odd hidden
    def test_bffn_gradients_match_finite_differences(self, dim, expansion, rng):
        """The gate, applied inside ``gelu``, and the input get the gradients
        that central differences give through the whole BFFN."""
        cfg = FfnConfig(dim, expansion, FfnKind.BFFN)
        params = init_ffn_params(rng, cfg)
        # hidden values of order one, so GELU is far from linear, and a gate
        # of both signs
        params["fc1"]["weight"].data[:] = rng.normal(size=(dim, cfg.hidden))
        gate = params["fuse"]["weight"]
        gate.data[:] = rng.choice([-1.0, 1.0], size=cfg.hidden) * rng.uniform(0.5, 2.0, cfg.hidden)
        x = Tensor(rng.normal(size=(2, 4, 4, dim)), requires_grad=True)
        mix = Tensor(rng.normal(size=x.shape))

        def loss():
            return T.tensor_sum(T.mul(feedforward_forward(x, cfg, params), mix))

        grads = loss().backward()
        x_picks = rng.choice(x.size, size=8, replace=False)
        for leaf, indices in [
            (gate, [(i,) for i in range(cfg.hidden)]),
            (x, [tuple(int(v) for v in np.unravel_index(p, x.shape)) for p in x_picks]),
        ]:
            numeric = finite_difference(loss, leaf, indices, h=1e-3)
            for idx in indices:
                err = relative_error(float(grads[leaf][idx]), numeric[idx])
                assert err <= 1e-4, (leaf.shape, idx, err)


# what trains in each case: the FFN's input ``x`` and its parameter groups
NODE_CASES = {
    "trained": ("x", "fc1", "shallow_dw", "deep_dw", "fuse", "fc2"),
    "frozen-params": ("x",),  # as in a ``load_checkpoint`` graph
    "frozen-input": ("fc1", "shallow_dw", "deep_dw", "fuse", "fc2"),
    "fc1-frozen": ("shallow_dw", "deep_dw", "fuse", "fc2"),  # fc1's output needs no gradient
    "shallow-only": ("shallow_dw",),
    "deep-only": ("deep_dw",),
    "gate-only": ("fuse",),
    "fc2-only": ("fc2",),
}


def _taped_ops(x, cfg, params):
    """``feedforward_forward``'s BFFN with one node per operator."""
    fc1 = params["fc1"]
    return taped_bffn(T.linear(x, fc1["weight"], fc1["bias"]), cfg, params)


class TestBffnNode:
    """On a tape the BFFN after fc1 is one node; every gradient it gives is
    byte-equal to the per-operator tape's (``reference.taped_bffn``)."""

    @staticmethod
    def _run(wiring, cfg, trained):
        rng = np.random.default_rng(5)
        params = init_ffn_params(rng, cfg)
        params["fuse"]["weight"].data[:] = rng.normal(size=cfg.hidden)
        for group, leaves in params.items():
            for leaf in leaves.values():
                leaf.requires_grad = group in trained
        x = Tensor(rng.normal(size=(2, 5, 6, cfg.dim)), requires_grad="x" in trained)
        out = wiring(x, cfg, params)
        inputs = len(out._node.parents)
        grads = T.tensor_sum(T.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        named = [("x", x)] + [(f"{group}.{name}", leaf) for group, leaves in params.items()
                              for name, leaf in leaves.items()]
        grads = {name: grads[leaf].tobytes() for name, leaf in named if leaf in grads}
        return out.data.tobytes(), inputs, grads

    @pytest.mark.parametrize("trained", list(NODE_CASES.values()), ids=list(NODE_CASES))
    @pytest.mark.parametrize("dim,expansion", [(6, 2.0), (3, 3.0)])  # even and odd hidden
    def test_gradients_bitwise_those_of_the_operators(self, dim, expansion, trained):
        cfg = FfnConfig(dim, expansion, FfnKind.BFFN)
        out, inputs, grads = self._run(feedforward_forward, cfg, trained)
        expected_out, _, expected = self._run(_taped_ops, cfg, trained)
        assert inputs == 8  # one node: fc1's output and the seven parameters after it
        assert out == expected_out
        assert grads.keys() == expected.keys()
        for name in grads:
            assert grads[name] == expected[name], name

    def test_no_tape_records_no_node(self, rng):
        cfg = FfnConfig(6, 2.0, FfnKind.BFFN)
        params = init_ffn_params(rng, cfg)
        x = Tensor(rng.normal(size=(1, 4, 4, 6)), requires_grad=True)
        with T.no_grad():
            assert feedforward_forward(x, cfg, params)._node is None
        for _, leaf in named_tensors(params):
            leaf.requires_grad = False
        assert feedforward_forward(Tensor(x.data), cfg, params)._node is None


class TestShapesAndCounts:
    def test_all_kinds_preserve_shape(self, rng):
        x = Tensor(to_nhwc(rng.normal(size=(2, 8, 6, 6))))
        for kind in FfnKind:
            cfg = FfnConfig(8, 3.0, kind)
            out = feedforward_forward(x, cfg, init_ffn_params(rng, cfg))
            assert out.shape == (2, 6, 6, 8)

    def test_param_count_strictly_ordered(self, rng):
        counts = {}
        for kind in FfnKind:
            cfg = FfnConfig(16, 3.5, kind)
            counts[kind] = _param_total(init_ffn_params(rng, cfg))
        assert counts[FfnKind.FFN] < counts[FfnKind.CFFN] < counts[FfnKind.BFFN]

    def test_bffn_exceeds_cffn_by_the_gate(self, rng):
        cfg_c = FfnConfig(16, 3.0, FfnKind.CFFN)
        cfg_b = FfnConfig(16, 3.0, FfnKind.BFFN)
        diff = _param_total(init_ffn_params(rng, cfg_b)) - _param_total(
            init_ffn_params(rng, cfg_c)
        )
        assert diff == cfg_b.hidden

    def test_gate_initialized_to_ones(self, rng):
        params = init_ffn_params(rng, FfnConfig(8, 3.0, FfnKind.BFFN))
        np.testing.assert_array_equal(params["fuse"]["weight"].data, np.ones(24))
