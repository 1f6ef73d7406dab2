"""Attention pathways against naive oracles, plus wiring identities."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evit.tensor as T
from evit import attention
from evit.attention import (
    AttentionConfig,
    ConnectionPattern,
    bfsa_forward,
    dfa_forward,
    init_bfsa_params,
    init_fovea_params,
    sfa_forward,
)
from evit.backbone import build, named_tensors
from evit.errors import ConfigError, ShapeError
from evit.maps import dwconv_bias, map_to_tokens, tokens_to_map
from evit.tensor import Tensor
from evit.train import AdamW

from conftest import softmax_outputs, to_nchw, to_nhwc
from reference import naive_fovea_attention, naive_single_head_attention


class TestConfig:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            AttentionConfig(dim=30, heads=4, sfa_reduction=1, dfa_reduction=1)

    def test_bad_reduction_rejected(self):
        with pytest.raises(ConfigError):
            AttentionConfig(dim=8, heads=2, sfa_reduction=0, dfa_reduction=1)


class TestOracleEquivalence:
    def test_many_random_cases(self, rng):
        """Production attention equals the loop oracle on 100+ small maps."""
        worst = 0.0
        cases = 0
        for dim, heads in [(4, 1), (6, 2), (8, 4), (12, 3)]:
            for reduction in (1, 2, 4):
                for side in (2, 4, 8):
                    if side % reduction:
                        continue
                    for _ in range(4):
                        params = init_fovea_params(rng, dim, reduction)
                        x = rng.normal(size=(2, dim, side, side))
                        cfg = AttentionConfig(dim, heads, reduction, reduction)
                        ours = to_nchw(sfa_forward(Tensor(to_nhwc(x)), cfg, params).data)
                        theirs = naive_fovea_attention(
                            x, heads, reduction,
                            params["q_weight"].data, params["k_weight"].data,
                            params["v_weight"].data, params["out_weight"].data,
                            None if reduction == 1 else params["reduce"]["weight"].data,
                            None if reduction == 1 else params["reduce"]["bias"].data,
                        )
                        worst = max(worst, np.abs(ours - theirs).max())
                        cases += 1
        assert cases >= 100
        assert worst <= 1e-10, f"worst deviation {worst:.2e} over {cases} cases"

    def test_single_head_no_reduction_is_plain_attention(self, rng):
        dim, side = 6, 4
        params = init_fovea_params(rng, dim, 1)
        x = rng.normal(size=(2, dim, side, side))
        cfg = AttentionConfig(dim, 1, 1, 1)
        ours = to_nchw(sfa_forward(Tensor(to_nhwc(x)), cfg, params).data)
        tokens = x.transpose(0, 2, 3, 1).reshape(2, side * side, dim)
        expected = naive_single_head_attention(
            tokens, params["q_weight"].data, params["k_weight"].data,
            params["v_weight"].data, params["out_weight"].data,
        )
        expected = expected.reshape(2, side, side, dim).transpose(0, 3, 1, 2)
        assert np.abs(ours - expected).max() <= 1e-10

    def test_single_token_collapses_to_value_path(self, rng):
        """With one query and one key the attention weight is exactly 1."""
        dim = 8
        params = init_fovea_params(rng, dim, 1)
        x = rng.normal(size=(1, dim, 1, 1))
        cfg = AttentionConfig(dim, 2, 1, 1)
        out = to_nchw(sfa_forward(Tensor(to_nhwc(x)), cfg, params).data)
        expected = (x[0, :, 0, 0] @ params["v_weight"].data) @ params["out_weight"].data
        np.testing.assert_allclose(out[0, :, 0, 0], expected, atol=1e-12)


def _token_layout_fovea(x, heads, reduction, params):
    """One fovea composed through ``(N, H*W, C)`` tokens, with a separate key transpose."""
    n, h, w, c = x.shape

    def tokens(m):
        return T.reshape(m, (m.shape[0], m.shape[1] * m.shape[2], m.shape[3]))

    def split_heads(t):
        return T.transpose(T.reshape(t, (n, t.shape[1], heads, c // heads)), (0, 2, 1, 3))

    q = T.linear(tokens(x), params["q_weight"])
    if reduction > 1:
        reduce = params["reduce"]
        kv_tokens = tokens(dwconv_bias(x, reduce["weight"], reduce["bias"], stride=reduction))
    else:
        kv_tokens = tokens(x)
    k = T.linear(kv_tokens, params["k_weight"])
    v = T.linear(kv_tokens, params["v_weight"])
    kh = T.transpose(split_heads(k), (0, 1, 3, 2))
    scores = T.mul(T.matmul(split_heads(q), kh), Tensor(1.0 / math.sqrt(c // heads)))
    mixed = T.matmul(T.softmax(scores), split_heads(v))
    merged = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (n, h * w, c))
    return T.reshape(T.linear(merged, params["out_weight"]), (n, h, w, c))


class TestTokenRows:
    @pytest.mark.parametrize("reduction", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("forward", [sfa_forward, dfa_forward])
    def test_bitwise_equal_to_token_layout(self, forward, heads, reduction, rng):
        """Attention on token rows gives the same output and gradients, bit
        for bit, as the composition through ``(N, H*W, C)`` tokens."""
        dim = 6
        cfg = AttentionConfig(dim, heads, reduction, reduction)
        params = init_fovea_params(rng, dim, reduction)
        x = Tensor(rng.normal(size=(2, 4, 4, dim)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 4, 4, dim)))
        leaves = [x] + [p for _, p in named_tensors(params)]
        results = []
        for out in (forward(x, cfg, params), _token_layout_fovea(x, heads, reduction, params)):
            grads = T.tensor_sum(T.mul(out, probe)).backward()
            results.append((out.data, [grads[leaf] for leaf in leaves]))
        (ours, our_grads), (theirs, their_grads) = results
        np.testing.assert_array_equal(ours, theirs)
        assert len(our_grads) == len(their_grads) == len(leaves)
        for a, b in zip(our_grads, their_grads):
            np.testing.assert_array_equal(a, b)


def _attention_chain(q, k, v, n, heads, scale):
    """``T.attention`` as separate operators: head splits, products, softmax and merge."""
    rows, c = q.shape

    def split(t, axes):
        return T.transpose(T.reshape(t, (n, t.shape[0] // n, heads, c // heads)), axes)

    a = T.matmul(split(q, (0, 2, 1, 3)), split(k, (0, 2, 3, 1)))
    a = T.matmul(T.softmax(a, scale), split(v, (0, 2, 1, 3)))
    return T.reshape(T.transpose(a, (0, 2, 1, 3)), (rows, c))


def _closure_arrays(fn, seen=None):
    """The ids of the arrays a closure holds, directly or through the
    closures (recipes) it holds in turn."""
    seen = set() if seen is None else seen
    found = set()
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                found.add(id(item))
            elif callable(item) and id(item) not in seen:
                seen.add(id(item))
                found |= _closure_arrays(item, seen)
    return found


class TestAttentionOp:
    # query and key rows per image, channels: no shape of a kept array can
    # be mistaken for the weights' (N, heads, 5, 3)
    QUERIES, KEYS, C = 5, 3, 8

    def _rows(self, rng, n):
        return [rng.normal(size=(n * m, self.C)) for m in (self.QUERIES, self.KEYS, self.KEYS)]

    @pytest.mark.parametrize("needs", [pytest.param(tuple(c in ids for c in "qkv"), id=ids)
                                       for ids in ("qkv", "q", "k", "v", "kv")])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_bitwise_equal_to_operator_chain(self, n, heads, needs, rng):
        """Values and the gradient of every input that needs one are bitwise
        those of the chain of operators; the others get none."""
        rows = self._rows(rng, n)
        probe = Tensor(rng.normal(size=(n * self.QUERIES, self.C)))
        scale = 1.0 / math.sqrt(self.C // heads)
        results = []
        for op in (T.attention, _attention_chain):
            leaves = [Tensor(a, requires_grad=need) for a, need in zip(rows, needs)]
            out = op(*leaves, n, heads, scale)
            grads = T.tensor_sum(T.mul(out, probe)).backward()
            results.append((out.data, [grads.get(leaf) for leaf in leaves]))
        (ours, our_grads), (theirs, their_grads) = results
        assert ours.tobytes() == theirs.tobytes()
        for need, a, b in zip(needs, our_grads, their_grads):
            assert (a is not None) == (b is not None) == need
            assert not need or a.tobytes() == b.tobytes()

    def test_no_grad_records_no_node(self, rng):
        leaves = [Tensor(a, requires_grad=True) for a in self._rows(rng, 2)]
        with T.no_grad():
            out = T.attention(*leaves, 2, 2, 0.5)
        assert out._node is None and not out.requires_grad

    def test_node_keeps_its_input_rows_not_the_weights(self, rng):
        """On leaves the node keeps the three input row arrays themselves, no
        head-split copy; on a trained projection's queries it keeps the
        projection's recipe, which reads its operands, not its output."""
        n, heads = 2, 2
        leaves = [Tensor(a, requires_grad=True) for a in self._rows(rng, n)]
        out = T.attention(*leaves, n, heads, 0.5)
        assert _closure_arrays(out._node.backward_fn) == {id(leaf.data) for leaf in leaves}

        x, weight = (Tensor(rng.normal(size=(n * self.QUERIES, self.C)), requires_grad=True),
                     Tensor(rng.normal(size=(self.C, self.C)), requires_grad=True))
        q = T.linear(x, weight)
        projected = weakref.ref(q.data)
        out = T.attention(q, *leaves[1:], n, heads, 0.5)
        del q
        assert projected() is None
        assert _closure_arrays(out._node.backward_fn) == {
            id(x.data), id(weight.data), id(leaves[1].data), id(leaves[2].data)}

    def test_observers_see_the_products_and_the_weights(self, rng):
        n, heads = 2, 4
        d = self.C // heads
        seen = []
        with T.observe(lambda op, scope, out, macs: seen.append((op, out.shape, macs))):
            T.attention(*(Tensor(a) for a in self._rows(rng, n)), n, heads, 0.5)
        weights = (n, heads, self.QUERIES, self.KEYS)
        assert seen == [
            ("matmul", weights, n * heads * self.QUERIES * d * self.KEYS),
            ("softmax", weights, 0),
            ("matmul", (n, heads, self.QUERIES, d), n * heads * self.QUERIES * self.KEYS * d),
            ("attention", (n * self.QUERIES, self.C), 0),
        ]


def _chained_fovea_attention(x, heads, reduction, params):
    """The fovea as it ran before ``T.attention``: its projections with the
    split, product, softmax, product and merge operators between them."""
    n, h, w, c = x.shape
    q = T.linear(map_to_tokens(x), params["q_weight"])
    kv = x
    if reduction > 1:
        kv = dwconv_bias(x, params["reduce"]["weight"], params["reduce"]["bias"], stride=reduction)
    kv = map_to_tokens(kv)
    a = _attention_chain(q, T.linear(kv, params["k_weight"]), T.linear(kv, params["v_weight"]),
                         n, heads, 1.0 / math.sqrt(c // heads))
    return tokens_to_map(T.linear(a, params["out_weight"]), h, w)


@pytest.mark.parametrize("pattern", list(ConnectionPattern), ids=lambda p: p.value)
def test_two_adamw_steps_bitwise_those_of_the_operator_chain(pattern, toy_spec, monkeypatch):
    """A reduced model trains to the same bytes (losses, gradients,
    parameters) with one ``T.attention`` node per fovea as with the chain of
    operators, under every connection pattern; its deepest foveae pool by 1,
    so unpooled keys are covered."""
    images = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
    labels = np.array([0, 1])
    runs = []
    for chained in (False, True):
        if chained:
            monkeypatch.setattr(attention, "_fovea_attention", _chained_fovea_attention)
        graph = build(toy_spec, seed=0, pattern=pattern, zero_classifier=False)
        optimizer = AdamW(1e-3, weight_decay=0.05)
        record = []
        for _ in range(2):
            loss = T.cross_entropy(graph.forward(images), labels)
            grads = graph.gradients(loss)
            record += [loss.data] + [grads[name] for name in sorted(grads)]
            optimizer.step(graph.named_parameters(), grads)
        runs.append([a.tobytes() for a in record + [p.data for _, p in graph.named_parameters()]])
    assert len(runs[0]) == len(runs[1])
    assert runs[0] == runs[1]


class TestCaptureAndShapes:
    def test_captured_weights_are_distributions(self, rng):
        cfg = AttentionConfig(dim=8, heads=2, sfa_reduction=2, dfa_reduction=1)
        params = init_bfsa_params(rng, cfg)
        x = Tensor(to_nhwc(rng.normal(size=(3, 8, 4, 4))))
        with softmax_outputs() as capture:
            bfsa_forward(x, cfg, params, ConnectionPattern.BIFOVEA)
        assert set(capture) == {"bfsa.sfa", "bfsa.dfa"}
        assert capture["bfsa.sfa"].shape == (3, 2, 16, 4)
        assert capture["bfsa.dfa"].shape == (3, 2, 16, 16)
        for weights in capture.values():
            assert (weights >= 0).all()
            assert np.abs(weights.sum(axis=-1) - 1.0).max() <= 1e-9

    def test_output_preserves_map_shape(self, rng):
        cfg = AttentionConfig(dim=12, heads=3, sfa_reduction=2, dfa_reduction=2)
        params = init_bfsa_params(rng, cfg)
        x = Tensor(to_nhwc(rng.normal(size=(2, 12, 6, 6))))
        for pattern in ConnectionPattern:
            assert bfsa_forward(x, cfg, params, pattern).shape == (2, 6, 6, 12)

    def test_indivisible_side_rejected(self, rng):
        cfg = AttentionConfig(dim=8, heads=2, sfa_reduction=4, dfa_reduction=1)
        params = init_bfsa_params(rng, cfg)
        with pytest.raises(ConfigError):
            sfa_forward(Tensor(to_nhwc(rng.normal(size=(1, 8, 6, 6)))), cfg, params["sfa"])

    def test_wrong_channels_rejected(self, rng):
        cfg = AttentionConfig(dim=8, heads=2, sfa_reduction=1, dfa_reduction=1)
        params = init_bfsa_params(rng, cfg)
        with pytest.raises(ShapeError):
            sfa_forward(Tensor(to_nhwc(rng.normal(size=(1, 6, 4, 4)))), cfg, params["sfa"])

    @given(
        heads=st.sampled_from([1, 2, 4]),
        head_dim=st.integers(1, 4),
        reduction=st.sampled_from([1, 2]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_shape_and_distribution(self, heads, head_dim, reduction, seed):
        local = np.random.default_rng(seed)
        dim = heads * head_dim
        cfg = AttentionConfig(dim, heads, reduction, reduction)
        params = init_fovea_params(local, dim, reduction)
        x = Tensor(to_nhwc(local.normal(size=(1, dim, 4, 4))))
        with softmax_outputs() as capture:
            out = sfa_forward(x, cfg, params)
        assert out.shape == (1, 4, 4, dim)
        assert np.abs(capture["sfa"].sum(axis=-1) - 1.0).max() <= 1e-9


class TestWiring:
    def _setup(self, rng):
        cfg = AttentionConfig(dim=8, heads=2, sfa_reduction=2, dfa_reduction=1)
        params = init_bfsa_params(rng, cfg)
        x = Tensor(to_nhwc(rng.normal(size=(2, 8, 4, 4))))
        return cfg, params, x

    def test_bifovea_identity(self, rng):
        cfg, params, x = self._setup(rng)
        combined = bfsa_forward(x, cfg, params, ConnectionPattern.BIFOVEA).data
        shallow = sfa_forward(x, cfg, params["sfa"])
        expected = shallow.data + dfa_forward(shallow, cfg, params["dfa"]).data
        assert np.abs(combined - expected).max() <= 1e-12

    def test_parallel_identity(self, rng):
        cfg, params, x = self._setup(rng)
        combined = bfsa_forward(x, cfg, params, ConnectionPattern.PARALLEL).data
        expected = sfa_forward(x, cfg, params["sfa"]).data + dfa_forward(x, cfg, params["dfa"]).data
        assert np.abs(combined - expected).max() <= 1e-12

    def test_cascade_identity(self, rng):
        cfg, params, x = self._setup(rng)
        combined = bfsa_forward(x, cfg, params, ConnectionPattern.CASCADE).data
        expected = dfa_forward(sfa_forward(x, cfg, params["sfa"]), cfg, params["dfa"]).data
        assert np.abs(combined - expected).max() <= 1e-12

    def test_zero_deep_projection_reduces_to_shallow(self, rng):
        cfg, params, x = self._setup(rng)
        params["dfa"]["out_weight"].data[:] = 0.0
        combined = bfsa_forward(x, cfg, params, ConnectionPattern.BIFOVEA).data
        shallow = sfa_forward(x, cfg, params["sfa"]).data
        np.testing.assert_array_equal(combined, shallow)

    def test_zero_input_zero_bias_gives_zero(self, rng):
        cfg, params, x = self._setup(rng)
        zero = Tensor(np.zeros((1, 4, 4, 8)))
        params["sfa"]["reduce"]["bias"].data[:] = 0.0
        out = dfa_forward(zero, cfg, params["dfa"]).data
        np.testing.assert_array_equal(out, np.zeros_like(out))


class TestParams:
    def test_projections_carry_no_bias(self, rng):
        params = init_fovea_params(rng, 8, 2)
        names = [name for name, _ in named_tensors(params, "f.")]
        assert names == [
            "f.reduce.weight", "f.reduce.bias",
            "f.q_weight", "f.k_weight", "f.v_weight", "f.out_weight",
        ]

    def test_reduction_one_skips_pooling_conv(self, rng):
        params = init_fovea_params(rng, 8, 1)
        assert "reduce" not in params
        assert len(named_tensors(params, "f.")) == 4

    def test_init_deterministic(self):
        a = init_fovea_params(np.random.default_rng(5), 8, 2)
        b = init_fovea_params(np.random.default_rng(5), 8, 2)
        for (_, pa), (_, pb) in zip(named_tensors(a), named_tensors(b)):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_trunc_normal_bounded(self):
        params = init_fovea_params(np.random.default_rng(0), 64, 1)
        for name, p in named_tensors(params):
            assert np.abs(p.data).max() <= 2 * 0.02 + 1e-12
