"""Adjoint correctness: every primitive against central finite differences."""

import tracemalloc
import weakref

import numpy as np
import pytest

import evit.tensor as T
from evit.attention import ConnectionPattern
from evit.backbone import VARIANTS, build, reduced_variant
from evit.errors import ShapeError
from evit.feedforward import FfnKind
from evit.tensor import Tensor, finite_difference, relative_error
from evit.train import AdamW, train_step

from conftest import to_nhwc
from test_tensor_ops import CONV_CASES, DW_CASES

TOL = 1e-4
H = 1e-3


def _sample_indices(rng, shape, count=4):
    total = int(np.prod(shape))
    picks = rng.choice(total, size=min(count, total), replace=False)
    return [tuple(int(v) for v in np.unravel_index(p, shape)) for p in picks]


def check_against_fd(make_loss, leaves, rng, count=4):
    """Backward once, then FD-perturb a few entries of every leaf."""
    grads = make_loss().backward()
    worst = 0.0
    for leaf in leaves:
        grad = grads.get(leaf, np.zeros_like(leaf.data))
        indices = _sample_indices(rng, leaf.shape, count)
        numeric = finite_difference(make_loss, leaf, indices, h=H)
        for idx in indices:
            err = relative_error(float(grad[idx]), numeric[idx])
            worst = max(worst, err)
            assert err <= TOL, f"rel error {err:.2e} at {idx} of shape {leaf.shape}"
    return worst


def _mixer(rng, shape):
    """Fixed random weights so scalarizing keeps every output element live."""
    return Tensor(rng.normal(size=shape))


class TestElementwiseAdjoints:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        mix = _mixer(rng, (3, 4))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.add(a, b), mix)), [a, b], rng)

    def test_sub_and_neg(self, rng):
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        mix = _mixer(rng, (2, 5))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.sub(T.neg(a), b), mix)), [a, b], rng)

    def test_mul_broadcast(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3, 1)), requires_grad=True)
        mix = _mixer(rng, (2, 3, 4))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.mul(a, b), mix)), [a, b], rng)

    def test_gelu(self, rng):
        x = Tensor(rng.normal(scale=2.0, size=(4, 6)), requires_grad=True)
        mix = _mixer(rng, (4, 6))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.gelu(x), mix)), [x], rng, count=8)

    def test_mean(self, rng):
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        check_against_fd(lambda: T.tensor_mean(T.mul(x, x)), [x], rng)


class TestDenseAdjoints:
    def test_matmul_2d(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        mix = _mixer(rng, (4, 3))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.matmul(a, b), mix)), [a, b], rng)

    def test_matmul_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2, 4, 5)), requires_grad=True)
        mix = _mixer(rng, (2, 2, 3, 5))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.matmul(a, b), mix)), [a, b], rng)

    def test_linear_with_bias(self, rng):
        x = Tensor(rng.normal(size=(2, 7, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        mix = _mixer(rng, (2, 7, 4))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.linear(x, w, b), mix)), [x, w, b], rng)

    @pytest.mark.parametrize("stride,padding,kernel,channels,hw", CONV_CASES)
    def test_conv2d(self, stride, padding, kernel, channels, hw, rng):
        x = Tensor(to_nhwc(rng.normal(size=(2, channels[0]) + hw)), requires_grad=True)
        w = Tensor(rng.normal(size=(channels[1], channels[0]) + kernel), requires_grad=True)
        b = Tensor(rng.normal(size=(channels[1],)), requires_grad=True)
        out_shape = T.conv2d(x, w, stride=stride, padding=padding).shape
        mix = _mixer(rng, out_shape)
        check_against_fd(
            lambda: T.tensor_sum(T.mul(T.conv2d(x, w, stride, padding, bias=b), mix)),
            [x, w, b], rng, count=6,
        )

    @pytest.mark.parametrize("stride,padding,kernel,hw", DW_CASES)
    def test_dwconv2d(self, stride, padding, kernel, hw, rng):
        x = Tensor(to_nhwc(rng.normal(size=(2, 4) + hw)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 1, kernel, kernel)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out_shape = T.dwconv2d(x, w, stride=stride, padding=padding).shape
        mix = _mixer(rng, out_shape)
        check_against_fd(
            lambda: T.tensor_sum(T.mul(T.dwconv2d(x, w, stride, padding, bias=b), mix)),
            [x, w, b], rng, count=6,
        )


class TestNormalizationAdjoints:
    def test_softmax(self, rng):
        x = Tensor(rng.normal(scale=3.0, size=(3, 7)), requires_grad=True)
        mix = _mixer(rng, (3, 7))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.softmax(x), mix)), [x], rng, count=8)

    def test_layernorm(self, rng):
        x = Tensor(rng.normal(loc=2.0, scale=4.0, size=(3, 4, 8)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(8,)), requires_grad=True)
        beta = Tensor(rng.normal(size=(8,)), requires_grad=True)
        mix = _mixer(rng, (3, 4, 8))
        check_against_fd(
            lambda: T.tensor_sum(T.mul(T.layernorm(x, gamma, beta), mix)),
            [x, gamma, beta], rng, count=6,
        )

    def test_avgpool_global(self, rng):
        x = Tensor(to_nhwc(rng.normal(size=(2, 3, 4, 4))), requires_grad=True)
        mix = _mixer(rng, (2, 3))
        check_against_fd(lambda: T.tensor_sum(T.mul(T.avgpool_global(x), mix)), [x], rng)

    def test_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        labels = np.array([0, 1, 2, 3, 1, 2])
        check_against_fd(lambda: T.cross_entropy(logits, labels), [logits], rng, count=8)


class TestShapeAdjoints:
    def test_reshape_transpose(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        mix = _mixer(rng, (4, 6))

        def loss():
            moved = T.transpose(x, (2, 0, 1))
            return T.tensor_sum(T.mul(T.reshape(moved, (4, 6)), mix))

        check_against_fd(loss, [x], rng)

    def test_concat_split(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        mix = _mixer(rng, (2, 4))

        def loss():
            joined = T.concat([a, b])
            left, right = T.split(joined, [4, 4])
            return T.tensor_sum(T.mul(T.add(left, right), mix))

        check_against_fd(loss, [a, b], rng)


class TestAutogradStructure:
    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with pytest.raises(ShapeError):
            T.mul(x, x).backward()

    def test_grad_shapes_match_leaves(self, rng):
        x = Tensor(to_nhwc(rng.normal(size=(2, 3, 4, 4))), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
        grads = T.tensor_sum(T.conv2d(x, w, padding=1)).backward()
        assert grads[x].shape == x.shape
        assert grads[w].shape == w.shape

    def test_reused_leaf_accumulates_once_per_use(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        a, b = rng.normal(size=3), rng.normal(size=3)
        loss = T.tensor_sum(T.add(T.mul(x, Tensor(a)), T.mul(x, Tensor(b))))
        np.testing.assert_allclose(loss.backward()[x], a + b, atol=1e-15)

    def test_unreached_leaf_gets_zeros(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        unused = Tensor(rng.normal(size=(5,)), requires_grad=True)
        grads = T.tensor_sum(x).backward()
        assert unused not in grads
        np.testing.assert_array_equal(grads[x], np.ones((2, 2)))

    def test_unreached_leaf_gets_zeros_after_an_earlier_backward(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert a in T.tensor_sum(T.mul(a, b)).backward()  # an earlier walk that reaches a
        grads = T.tensor_sum(T.mul(b, b)).backward()
        assert a not in grads
        np.testing.assert_array_equal(grads[b], 2.0 * b.data)

    def test_weighted_sum_gradient_is_the_data(self, rng):
        x = rng.normal(size=(4, 4))
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        np.testing.assert_array_equal(T.tensor_sum(T.mul(w, Tensor(x))).backward()[w], x)

    def test_softmax_sum_has_zero_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        assert np.abs(T.tensor_sum(T.softmax(x)).backward()[x]).max() <= 1e-12

    def test_gradients_on_a_consumed_loss_raises(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = T.tensor_sum(T.mul(x, x))
        np.testing.assert_array_equal(loss.backward()[x], 2.0 * x.data)
        with pytest.raises(ValueError, match="consumed by an earlier backward pass"):
            loss.backward()

    def test_requires_grad_propagation(self, rng):
        a = Tensor(rng.normal(size=(2, 2)))
        out = T.mul(a, a)
        assert not out.requires_grad and out._backward_fn is None
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        assert T.mul(a, b).requires_grad

    def test_backward_without_trainable_input_raises(self, rng):
        loss = T.tensor_sum(T.mul(Tensor(rng.normal(size=(3,))), Tensor(rng.normal(size=(3,)))))
        with pytest.raises(ValueError, match="no tensor in the loss needs a gradient"):
            loss.backward()

    def test_no_grad_records_no_tape(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with T.no_grad():
            outs = [T.matmul(x, w), T.gelu(x), T.add(x, x), T.tensor_sum(x)]
            with T.no_grad():
                outs.append(T.softmax(x))
            outs.append(T.mul(x, x))  # still off after the inner block exits
        for out in outs:
            assert not out.requires_grad
            assert out._backward_fn is None and out._node is None
        with pytest.raises(ValueError):
            T.tensor_sum(outs[0]).backward()  # a loss computed from no_grad outputs
        assert T.matmul(x, w)._backward_fn is not None

    def test_no_grad_restores_recording_after_an_error(self, rng):
        x = Tensor(rng.normal(size=(2,)), requires_grad=True)
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.reshape(x, (3,))
        assert T.mul(x, x)._backward_fn is not None


class TestTapeMemory:
    def test_activation_no_adjoint_reads_is_freed(self, rng):
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        b = Tensor(rng.normal(size=(8,)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(8,)), requires_grad=True)
        beta = Tensor(rng.normal(size=(8,)), requires_grad=True)
        mix = _mixer(rng, (3, 8))
        leaves = (x, b, gamma, beta)

        summed = T.add(x, b)
        loss = T.tensor_sum(T.mul(T.layernorm(summed, gamma, beta), mix))
        kept = loss.backward()

        summed = T.add(x, b)
        alive = weakref.ref(summed.data)
        loss = T.tensor_sum(T.mul(T.layernorm(summed, gamma, beta), mix))
        del summed
        assert alive() is None  # layernorm's adjoint reads xhat, not its input
        grads = loss.backward()
        for leaf in leaves:
            np.testing.assert_array_equal(grads[leaf], kept[leaf])

    def test_no_grad_forward_retains_no_buffer(self):
        """Two no-grad forwards at 224 px, whose stage-1 maps span several
        ``T._BLOCK_BYTES`` blocks, keep nothing alive between calls: a scratch
        buffer cached by either call would show here."""
        graph = build(reduced_variant(VARIANTS["tiny"]), seed=0, zero_classifier=False)
        image = np.random.default_rng(0).normal(size=(1, 3, 224, 224))
        assert 56 * 56 * graph.spec.stages[0].channels * 8 > T._BLOCK_BYTES
        tracemalloc.start()
        try:
            with T.no_grad():
                graph.forward(image)
                graph.forward(image)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # about 45 KB of interpreter and allocator state; one block is 256 KiB
        assert retained < 64 * 1024, retained

    def test_no_grad_tiny224_forward_peak(self):
        """A no-grad tiny@224 forward keeps only the arrays later operators
        read: it peaks at about 10.2 MB, in stage 1's BFFN GELU (the hidden
        map, its output and the residual stream), with the stem convs at
        9.5 MB. Each of these would bring an older, higher plateau back: a
        deep-fovea softmax that writes a second scores array (12.9 MB), stem
        patch blocks of 4 MiB (12.7 MB) and a biased linear that adds its
        bias as a separate map (11.3 MB, at the BFFN's fc1). A map kept past
        its last reader, such as a block's input, would add megabytes."""
        graph = build("tiny", seed=0, zero_classifier=False)
        image = np.random.default_rng(0).uniform(size=(1, 3, 224, 224))
        tracemalloc.start()
        try:
            with T.no_grad():
                graph.forward(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.6e6, peak

    def test_no_grad_forward_frees_each_map_after_its_last_reader(self):
        """Without a tape no frame keeps a map past its last reader: the stage
        input when the deep fovea's softmax runs, the attention and LN2
        outputs when the feedforward's GELU runs, and stage 1's output once
        stage 2's blocks run (stage maps are kept only when asked for)."""
        graph = build(reduced_variant(VARIANTS["tiny"]), seed=0, zero_classifier=False)
        image = np.random.default_rng(0).normal(size=(1, 3, 64, 64))
        refs, checked = {}, []

        def watch(op, where, out, macs):
            def dead(*names):
                checked.append((op, where))
                for name in names:
                    assert refs[name]() is None, (name, op, where)

            if where == "stage1.embed":
                refs["embed"] = weakref.ref(out.data)
            elif where == "stage1.block0.bfsa":  # the sum of the two foveae
                refs["attention"] = weakref.ref(out.data)
            elif where == "stage1.block0.ln2":
                refs["ln2"] = weakref.ref(out.data)
            elif where == "stage1.block0.bfsa.dfa" and op == "softmax":
                dead("embed")
            elif where == "stage1.block0.ffn" and op == "gelu":
                dead("attention", "ln2")
            elif where == "stage2.block0.cpe" and "stage1" in refs:  # its first operator
                dead("stage1")
                del refs["stage1"]
            if where.startswith("stage1.block"):
                refs["stage1"] = weakref.ref(out.data)

        with T.no_grad(), T.observe(watch):
            graph.forward(image)
        assert [w for _, w in checked] == [
            "stage1.block0.bfsa.dfa", "stage1.block0.ffn", "stage2.block0.cpe"]

    def test_taped_tiny224_forward_peak(self):
        """A taped tiny@224 forward keeps what the adjoints read and no more:
        it peaks at about 39.5 MB. Attention nodes keeping their mixed rows
        for a separate output projection peak at 52.7 MB; a ``conv2d`` over
        an input kept as its array (the stem's ``conv1``, the stage 2-4
        embeds, ``head.proj``) leaving no recipe at 43.4 MB, and a ``gelu``
        keeping its input's array instead of that recipe at 42.3 MB. A BFFN
        node keeping its concat (the GELU's input), or ``fc1``'s output
        instead of its recipe, would add about 19.6 MB, and the BFFN as one
        node per operator, which keeps its GELU and deep depthwise inputs,
        about 29.6 MB. Attention nodes keeping head-split copies of q, k and
        v instead of their projections' recipes would add about 21 MB, and
        keeping their softmax weights about 28 MB; a ``gelu`` node keeping a
        whole ``tanh`` array beside its input would add the stem GELUs'
        8.4 MB."""
        graph = build("tiny", seed=0, zero_classifier=False)
        image = np.random.default_rng(0).uniform(size=(1, 3, 224, 224))
        tracemalloc.start()
        try:
            logits = graph.forward(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits._node is not None
        assert peak < 42e6, peak

    def test_tiny224_training_step_peak(self):
        """A tiny@224 forward and ``graph.gradients`` peak at about 137.9 MB,
        in stem ``conv3``'s input-gradient step: the gradients finished so
        far and what is left of the tape, plus its one-shot ``g_cols``
        (25.3 MB) and padded grid (2.9 MB). Stage 1's second BFFN node comes
        next, at 135.7 MB. Each array the tape keeps instead of a recipe
        stays there until its consumer's adjoint runs: attention nodes
        keeping their mixed rows peak at 141.1 MB, a ``conv2d`` over a kept
        array leaving no recipe at 140.7 MB and a ``gelu`` keeping its
        input's array at 140.7 MB. A ``g_cols`` kept alive while the grid is
        trimmed peaks at 140.5 MB."""
        graph = build("tiny", seed=0, zero_classifier=False)
        image = np.random.default_rng(0).uniform(size=(1, 3, 224, 224))
        tracemalloc.start()
        try:
            loss = T.cross_entropy(graph.forward(image), np.array([3]))
            grads = graph.gradients(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads) == len(graph.named_parameters())
        assert peak < 140e6, peak

    def test_tiny224_train_step_keeps_no_gradient_set(self):
        """``train_step`` updates each parameter inside the walk, so a steady
        tiny@224 step peaks at about 48.3 MB, the taped forward plus the
        gradients in flight, and keeps nothing once it returns. Any array
        the tape keeps instead of a recipe raises it: attention nodes keeping
        their mixed rows peak at 61.6 MB, a ``conv2d`` over a kept array
        leaving no recipe at 52.8 MB and a ``gelu`` keeping its input's array
        at 51.6 MB."""
        graph = build("tiny", seed=0, zero_classifier=False)
        optimizer, named = AdamW(1e-3, weight_decay=0.05), graph.named_parameters()
        image = np.random.default_rng(0).uniform(size=(1, 3, 224, 224))
        train_step(graph, optimizer, named, image, np.array([3]))  # makes the moments
        tracemalloc.start()
        try:
            train_step(graph, optimizer, named, image, np.array([3]))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 51e6, peak
        assert retained < 1e6, retained

    def test_stem_conv2d_adjoint_builds_no_patch_matrix(self, rng):
        """The adjoint of a stride-1 3x3 ``conv2d`` on a ``(1, 112, 112, 28)``
        map, tiny@224's stem ``conv2`` and ``conv3``. Its weight gradient goes
        tap by tap: with a frozen input it peaks at about 5.8 MB, the padded
        input and one tap's window slice, where the whole
        ``(12544, 252)`` patch matrix (25.3 MB) peaks at 28.3 MB. Its input
        gradient frees ``g_cols`` before the padded grid is trimmed: about
        28.4 MB, against 31.1 MB with ``g_cols`` alive through the trim."""
        w = Tensor(rng.normal(size=(28, 28, 3, 3)), requires_grad=True)
        g = rng.normal(size=(1, 112, 112, 28))
        g_cols = 112 * 112 * 9 * 28 * 8
        grid = 114 * 114 * 28 * 8
        peaks = []
        for trained in (False, True):
            x = Tensor(rng.normal(size=(1, 112, 112, 28)), requires_grad=trained)
            backward = T.conv2d(x, w, stride=1, padding=1)._node.backward_fn
            tracemalloc.start()
            try:
                backward(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < g_cols / 3, peaks
        assert peaks[1] < g_cols + grid + 1e6, peaks

    def test_gradients_leaves_only_gradients_and_outputs(self):
        graph = build(reduced_variant(VARIANTS["tiny"]), seed=0, zero_classifier=False)
        images = np.random.default_rng(0).normal(size=(2, 3, 64, 64))
        labels = np.array([1, 2])

        def step():
            logits = graph.forward(images)
            loss = T.cross_entropy(logits, labels)
            return logits, loss, graph.gradients(loss)

        step()  # let lazy set-up finish before tracing
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits, loss, grads = step()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the slack covers the dict, the array headers and the loss's node;
        # a forward tape kept alive would add megabytes
        slack = 256 * 1024
        expected = sum(g.nbytes for g in grads.values()) + logits.data.nbytes
        assert retained <= expected + slack, (retained, expected)


def _drop_recipes(monkeypatch):
    """From here on, record nodes without recipes, so each consumer keeps its input array."""
    make = T._make
    monkeypatch.setattr(T, "_make", lambda *args, remake=None, **kwargs: make(*args, **kwargs))


# producers that leave a recipe on their node, and consumers that read their
# input in their own adjoint; each takes the tensor and the leaves by name
RECIPE_PRODUCERS = {
    "gelu": lambda x, p: T.gelu(x),
    "gated_gelu": lambda x, p: T.gelu(x, p["gate"]),
    "layernorm": lambda x, p: T.layernorm(x, p["gamma"], p["beta"]),
    "linear": lambda x, p: T.linear(x, p["proj"], p["proj_bias"]),
    "split": lambda x, p: T.split(T.linear(x, p["wide"], p["wide_bias"]), (8, 4))[0],
    # a convolution over an input kept as its array (here a leaf) leaves one
    "conv2d": lambda x, p: T.reshape(
        T.conv2d(T.reshape(x, RECIPE_SHAPES["x"]), p["same"], 1, 1, p["same_bias"]), x.shape),
}
# producers whose output carries no recipe: a ``split`` piece is a fresh copy
# its consumers keep as they would with recipes dropped
ARRAY_PRODUCERS = {"split"}


def _attention_consumer(role):
    """``attention`` reading ``h``'s rows as its query, key or value."""
    def consume(h, p):
        rows = [p["rows_a"], p["rows_b"]]
        rows.insert("qkv".index(role), T.reshape(h, (72, 8)) if h.ndim != 2 else h)
        return T.attention(*rows, p["attn_proj"], 2, 2, 0.5)

    return consume


RECIPE_CONSUMERS = {
    "linear": lambda h, p: T.linear(h, p["weight"], p["bias"]),
    "conv2d": lambda h, p: T.conv2d(h, p["conv"], stride=2, padding=1, bias=p["conv_bias"]),
    "dwconv2d": lambda h, p: T.dwconv2d(h, p["dw"], stride=1, padding=1),
    "gelu": lambda h, p: T.gelu(h, p["act_gate"]),
    **{f"attention_{role}": _attention_consumer(role) for role in "qkv"},
}
RECIPE_SHAPES = {
    "x": (2, 6, 6, 8), "gate": (8,), "gamma": (8,), "beta": (8,),
    "proj": (8, 8), "proj_bias": (8,), "wide": (8, 12), "wide_bias": (12,),
    "weight": (8, 5), "bias": (5,), "conv": (4, 8, 3, 3), "conv_bias": (4,), "dw": (8, 1, 3, 3),
    "rows_a": (72, 8), "rows_b": (72, 8), "attn_proj": (8, 8),
    "same": (8, 8, 3, 3), "same_bias": (8,), "act_gate": (8,),
}
# the leaves a frozen row does not train: the consumer's weight, or the
# attention operands other than the producer's output
CONSUMER_FROZEN = {"linear": ("weight",), "conv2d": ("conv",), "dwconv2d": ("dw",),
                   "gelu": ("act_gate",),
                   **{f"attention_{role}": ("rows_a", "rows_b", "attn_proj") for role in "qkv"}}
# consumers that read their input for the input's own gradient, so also
# when their other leaves are frozen
ALWAYS_READ = {"gelu", "attention_q", "attention_k", "attention_v"}
# consumers that take token rows, which read the producer's output directly
# when the producer runs on rows
ROW_CONSUMERS = {"linear", "attention_q", "attention_k", "attention_v"}


class TestRecipes:
    """A consumer keeps its producer's recipe, not the output array, and
    reads the same bits back from it."""

    @staticmethod
    def _leaves(consumer, frozen):
        rng = np.random.default_rng(7)
        leaves = {}
        for name, shape in RECIPE_SHAPES.items():
            # a frozen row asks no gradient of the consumer's weight (or the
            # other attention operands), so that consumer reads nothing back
            trainable = not (frozen and name in CONSUMER_FROZEN[consumer])
            leaves[name] = Tensor(rng.normal(size=shape), requires_grad=trainable)
        return leaves

    @staticmethod
    def _loss(producer, consumer, reshaped, leaves):
        """The loss of one producer read by one consumer, and a weakref to the producer's output.

        Without ``reshaped`` the consumer reads the producer's output itself;
        with it, through reshapes (``linear`` and ``attention`` on a map make
        their own).
        """
        x = leaves["x"]
        if consumer in ROW_CONSUMERS and not reshaped:
            x = T.reshape(x, (72, 8))
        h = RECIPE_PRODUCERS[producer](x, leaves)
        # the array itself: a ``linear`` on a map returns a view of its product
        output = weakref.ref(h.data if h.data.base is None else h.data.base)
        if reshaped and consumer not in ROW_CONSUMERS:
            h = T.reshape(T.reshape(h, (72, 8)), RECIPE_SHAPES["x"])
        y = RECIPE_CONSUMERS[consumer](h, leaves)
        mix = np.random.default_rng(8).normal(size=y.shape)
        return T.tensor_sum(T.mul(y, Tensor(mix))), output

    def _grads(self, producer, consumer, reshaped, frozen):
        leaves = self._leaves(consumer, frozen)
        loss, output = self._loss(producer, consumer, reshaped, leaves)
        kept = output() is not None
        grads = loss.backward()
        return {name: grads[leaf].tobytes() for name, leaf in leaves.items() if leaf in grads}, kept

    @pytest.mark.parametrize("frozen", [False, True], ids=["trained", "frozen"])
    @pytest.mark.parametrize("reshaped", [False, True], ids=["direct", "reshaped"])
    @pytest.mark.parametrize("consumer", list(RECIPE_CONSUMERS))
    @pytest.mark.parametrize("producer", list(RECIPE_PRODUCERS))
    def test_gradients_bitwise_those_of_the_kept_array(
        self, producer, consumer, reshaped, frozen, monkeypatch
    ):
        """Every gradient is byte-equal to the one the kept array gives, and
        the producer's output is dead after the forward while the tape lives
        (a ``split`` piece, which has no recipe, lives as the kept array does);
        a frozen consumer weight gets no gradient and keeps neither, while
        ``gelu`` and ``attention`` read their inputs for any gradient."""
        # without a recipe a consumer that reads its input keeps the array
        reads = not frozen or consumer in ALWAYS_READ
        grads, kept = self._grads(producer, consumer, reshaped, frozen)
        assert kept is (producer in ARRAY_PRODUCERS and reads)
        _drop_recipes(monkeypatch)
        expected, kept = self._grads(producer, consumer, reshaped, frozen)
        assert kept is reads
        assert grads == expected
        for name in CONSUMER_FROZEN[consumer]:
            assert (name in grads) is not frozen

    @pytest.mark.parametrize("consumer", [c for c in RECIPE_CONSUMERS if c.startswith("attention")])
    @pytest.mark.parametrize("producer", list(RECIPE_PRODUCERS))
    def test_attention_adjoint_returns_every_gradient(self, producer, consumer):
        """With ``rows_a``, ``rows_b`` and the projection frozen the attention
        node's adjoint still returns all four inputs' gradients; the walk
        drops the three that nothing needs
        (``test_gradients_bitwise_those_of_the_kept_array``)."""
        leaves = self._leaves(consumer, frozen=True)
        h = RECIPE_PRODUCERS[producer](T.reshape(leaves["x"], (72, 8)), leaves)
        y = RECIPE_CONSUMERS[consumer](h, leaves)
        grads = y._node.backward_fn(np.random.default_rng(8).normal(size=y.shape))
        assert [type(g) for g in grads] == [np.ndarray] * 4
        assert [g.shape for g in grads] == [(72, 8)] * 3 + [(8, 8)]

    def test_backward_clears_the_recipes(self, rng):
        """The walk clears each node's recipe with its adjoint, so a forward
        output still held after ``backward`` keeps nothing its recipe read."""
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        h = T.gelu(x)
        alive = weakref.ref(x.data)  # what the recipe reads
        T.tensor_sum(T.linear(h, Tensor(rng.normal(size=(8, 3)), requires_grad=True))).backward()
        assert h._node.remake is None
        del x
        assert alive() is None

    @pytest.mark.parametrize("ffn_kind", list(FfnKind))
    @pytest.mark.parametrize("pattern", list(ConnectionPattern))
    def test_model_gradients_bitwise_those_of_the_kept_arrays(
        self, pattern, ffn_kind, toy_spec, monkeypatch
    ):
        """A reduced model's gradients, for every connection pattern and
        feedforward kind, are byte-equal to those of a tape with no recipes."""
        images = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        labels = np.array([0, 1])

        def gradients():
            graph = build(toy_spec, seed=0, pattern=pattern, ffn_kind=ffn_kind,
                          zero_classifier=False)
            return graph.gradients(T.cross_entropy(graph.forward(images), labels))

        grads = gradients()
        _drop_recipes(monkeypatch)
        expected = gradients()
        for name, g in grads.items():
            assert g.tobytes() == expected[name].tobytes(), name


class TestGradientStream:
    """``gradient_stream`` yields each leaf once no adjoint reads it any more,
    so the caller may update it in place before taking the next pair."""

    @pytest.mark.parametrize("ffn_kind", list(FfnKind))
    @pytest.mark.parametrize("pattern", list(ConnectionPattern))
    def test_a_parameter_overwritten_when_yielded_changes_no_later_gradient(
        self, pattern, ffn_kind, toy_spec
    ):
        """Each parameter is overwritten with NaN the moment its pair comes;
        every gradient is still finite and bitwise that of ``gradients()`` on
        a twin graph. At 64 px every fovea's score path is live."""
        images = np.random.default_rng(0).normal(size=(2, 3, 64, 64))
        labels = np.array([0, 1])
        graph, twin = (
            build(toy_spec, seed=0, pattern=pattern, ffn_kind=ffn_kind, zero_classifier=False)
            for _ in range(2)
        )
        expected = twin.gradients(T.cross_entropy(twin.forward(images), labels))
        params = dict(graph.named_parameters())
        seen = []
        for name, g in graph.gradient_stream(T.cross_entropy(graph.forward(images), labels)):
            assert np.isfinite(g).all(), name
            assert g.tobytes() == expected[name].tobytes(), name
            params[name].data[...] = np.nan
            seen.append(name)
        assert sorted(seen) == sorted(params)

    def test_a_shared_leaf_comes_after_its_last_consumer(self, rng):
        """A weight read by two products comes once, after both have run, with
        both uses summed; the leaves that come before it may be overwritten."""
        start = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}
        mix = Tensor(rng.normal(size=(3, 4)))

        def loss(x, w, b):
            return T.tensor_sum(T.mul(T.linear(T.gelu(T.linear(x, w)), w, b), mix))

        leaves, twins = (
            {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()} for _ in range(2)
        )
        expected = loss(**twins).backward()
        names = {leaf: n for n, leaf in leaves.items()}
        seen = []
        for leaf, g in loss(**leaves).gradient_stream():
            assert np.isfinite(g).all()
            assert g.tobytes() == expected[twins[names[leaf]]].tobytes(), names[leaf]
            leaf.data[...] = np.nan
            seen.append(names[leaf])
        assert seen[0] == "b" and sorted(seen) == ["b", "w", "x"]


def test_corrupted_adjoint_is_detected(rng, scaled_gelu_adjoint):
    """The finite-difference harness must flag a deliberately broken rule."""
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    mix = Tensor(rng.normal(size=(4, 4)))

    def loss():
        return T.tensor_sum(T.mul(T.gelu(x), mix))

    grads = loss().backward()
    idx = (0, 0)
    numeric = finite_difference(loss, x, [idx], h=H)[idx]
    err = relative_error(float(grads[x][idx]), numeric)
    assert err > TOL
