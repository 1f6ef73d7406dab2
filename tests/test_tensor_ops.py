"""Forward-value contracts of the tensor kernel, checked against oracles."""

import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evit.tensor as T
from evit.backbone import build
from evit.errors import ShapeError
from evit.tensor import Tensor

from conftest import to_nchw, to_nhwc

from reference import (
    layernorm_twopass,
    naive_conv2d,
    naive_dwconv2d,
    naive_gelu,
    softmax_longdouble,
)


def test_matmul_matches_numpy(rng):
    a = rng.normal(size=(7, 5))
    b = rng.normal(size=(5, 3))
    out = T.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b, atol=1e-12)


def test_matmul_identity(rng):
    a = rng.normal(size=(3, 3))
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, np.eye(3) @ a)


def test_matmul_batched(rng):
    a = rng.normal(size=(2, 4, 3, 5))
    b = rng.normal(size=(2, 4, 5, 6))
    out = T.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b, atol=1e-12)


@pytest.mark.parametrize(
    "bad_a,bad_b",
    [
        ((3, 4), (3, 4)),
        ((2, 3, 4), (3, 3, 4, 5)),
        ((2, 3, 4), (3, 4, 5)),
        ((3,), (3, 4)),
    ],
)
def test_matmul_shape_errors(bad_a, bad_b, rng):
    with pytest.raises(ShapeError):
        T.matmul(Tensor(rng.normal(size=bad_a)), Tensor(rng.normal(size=bad_b)))


@pytest.mark.parametrize("frozen", [None, 0, 1, 2], ids=["none", "a", "b", "bias"])
@pytest.mark.parametrize("a_shape,b_shape", [((7, 5), (5, 3)), ((2, 4, 3, 5), (2, 4, 5, 6))],
                         ids=["2d", "batched"])
def test_matmul_bias_equals_add(a_shape, b_shape, frozen, rng):
    """``bias=`` gives the bits of ``add(matmul(a, b), bias)``: the values and
    the gradient of every operand that needs one; a frozen operand gets none."""
    arrays = rng.normal(size=a_shape), rng.normal(size=b_shape), rng.normal(size=b_shape[-1:])
    mix = Tensor(rng.normal(size=a_shape[:-1] + b_shape[-1:]))
    results = []
    for fold in (True, False):
        a, b, bias = (Tensor(x, requires_grad=i != frozen) for i, x in enumerate(arrays))
        out = T.matmul(a, b, bias) if fold else T.add(T.matmul(a, b), bias)
        grads = T.tensor_sum(T.mul(out, mix)).backward()
        results.append([out.data] + [grads.get(t) for t in (a, b, bias)])
    for i, (folded, added) in enumerate(zip(*results)):
        assert (folded is None) == (added is None) == (i - 1 == frozen)
        assert folded is None or folded.tobytes() == added.tobytes()


def test_biased_linear_tapes_one_matmul_node(rng):
    """A biased ``linear`` on a map is reshape, matmul (bias added inside) and
    reshape: observers and the tape see no ``add``."""
    x, w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 7, 5), (5, 4), (4,)))
    seen = []
    with T.observe(lambda op, scope, out, macs: seen.append(op)):
        out = T.linear(x, w, b)
    assert seen == ["reshape", "matmul", "reshape"]
    assert len(T._topo_order(out._node)) == 3


def _zeros(*shape):
    return Tensor(np.zeros(shape))


# one row per operand check: (call, a fragment of its ShapeError message)
SHAPE_ERRORS = [
    pytest.param(lambda: T.transpose(_zeros(2, 3), (0, 0)), "not a permutation", id="transpose"),
    pytest.param(lambda: T.concat([]), "at least one tensor", id="concat-empty"),
    pytest.param(lambda: T.linear(_zeros(2, 3), _zeros(3), _zeros(3)), "must be 2-d",
                 id="linear-weight-1d"),
    pytest.param(lambda: T.linear(_zeros(2, 3), _zeros(4, 5), _zeros(5)), "does not match",
                 id="linear-width"),
    pytest.param(lambda: T.matmul(_zeros(2, 3), _zeros(3, 4), _zeros(3)),
                 "bias must have shape (4,)", id="matmul-bias-width"),
    pytest.param(lambda: T.matmul(_zeros(2, 3), _zeros(3, 4), _zeros(1)),
                 "bias must have shape (4,)", id="matmul-bias-1"),
    pytest.param(lambda: T.matmul(_zeros(2, 2, 3), _zeros(2, 3, 4), _zeros(2, 1, 4)),
                 "bias must have shape (4,)", id="matmul-bias-batched"),
    pytest.param(lambda: T.conv2d(_zeros(4, 4, 2), _zeros(2, 2, 1, 1)), "4-d input",
                 id="conv-3d-input"),
    pytest.param(lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(2, 2, 1, 1), stride=0),
                 "bad stride/padding", id="conv-stride-0"),
    pytest.param(lambda: T.dwconv2d(_zeros(1, 4, 4, 2), _zeros(2, 1, 3, 3), padding=-1),
                 "bad stride/padding", id="dwconv-padding-negative"),
    pytest.param(lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(3, 2, 1, 1), bias=_zeros(1)),
                 "bias must have shape (3,)", id="conv-bias-1"),
    pytest.param(lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(3, 2, 1, 1), bias=_zeros(1, 3)),
                 "bias must have shape (3,)", id="conv-bias-2d"),
    pytest.param(lambda: T.dwconv2d(_zeros(1, 4, 4, 2), _zeros(2, 1, 3, 3), bias=_zeros(3)),
                 "bias must have shape (2,)", id="dwconv-bias-width"),
    pytest.param(lambda: T.layernorm(_zeros(2, 3), _zeros(4), _zeros(3)), "scale/shift",
                 id="layernorm-gamma"),
    pytest.param(lambda: T.gelu(_zeros(2, 3), _zeros(4)), "gelu gate", id="gelu-gate-width"),
    pytest.param(lambda: T.gelu(_zeros(2, 3), _zeros(1, 3)), "gelu gate", id="gelu-gate-2d"),
    pytest.param(lambda: T.gelu(_zeros(), _zeros()), "gelu gate", id="gelu-gate-0d-input"),
    pytest.param(lambda: T.avgpool_global(_zeros(2, 3, 4)), "expects (N,H,W,C)",
                 id="avgpool-3d"),
    pytest.param(lambda: T.cross_entropy(_zeros(2, 3, 4), np.array([0, 1])), "(N,K) logits",
                 id="cross-entropy-3d"),
    pytest.param(lambda: T.cross_entropy(_zeros(2, 3), np.array([0, 1, 2])), "does not match",
                 id="cross-entropy-labels"),
    pytest.param(lambda: T.attention(_zeros(4, 6), _zeros(4, 6), _zeros(4, 3), _zeros(6, 6),
                                     2, 2, 1.0),
                 "k, v alike", id="attention-value-width"),
    pytest.param(lambda: T.attention(_zeros(4, 6), _zeros(4, 6), _zeros(4, 6), _zeros(6, 6),
                                     2, 4, 1.0),
                 "do not split", id="attention-heads"),
    pytest.param(lambda: T.attention(_zeros(4, 6), _zeros(3, 6), _zeros(3, 6), _zeros(6, 6),
                                     2, 2, 1.0),
                 "do not split", id="attention-images"),
    pytest.param(lambda: T.attention(_zeros(4, 6), _zeros(4, 6), _zeros(4, 6), _zeros(6, 4),
                                     2, 2, 1.0),
                 "projection must have shape (6, 6)", id="attention-projection"),
    pytest.param(lambda: _zeros(2).item(), "single-element", id="item"),
]


@pytest.mark.parametrize("call,message", SHAPE_ERRORS)
def test_operand_shape_errors(call, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        call()


# (stride, padding, kernel, input H x W); the 9x11 rows put tap slices at
# stride > 1 with padding on a non-square map, and 3-0-2 leaves pixels that
# fall in no window, so their gradient must be exactly zero
DW_CASES = [
    pytest.param(1, 1, 3, (8, 8), id="1-1-3"),
    pytest.param(2, 0, 2, (8, 8), id="2-0-2"),
    pytest.param(4, 0, 4, (8, 8), id="4-0-4"),
    pytest.param(2, 1, 3, (9, 11), id="2-1-3-9x11"),
    pytest.param(3, 1, 3, (9, 11), id="3-1-3-9x11"),
    pytest.param(3, 0, 2, (9, 11), id="3-0-2-9x11"),
]


# (stride, padding, kernel kh x kw, channels C -> O, input H x W). The 2x2
# stride-2 row is a patch embedding, 2-1 is stem conv1, the 1x1 row is the
# head (C != O), and the 2x3 kernel catches swapped kh/kw/C axes in the
# patch-matrix layout.
CONV_CASES = [
    pytest.param(1, 0, (3, 3), (3, 4), (9, 11), id="1-0"),
    pytest.param(1, 1, (3, 3), (3, 4), (9, 11), id="1-1"),
    pytest.param(2, 1, (3, 3), (3, 4), (9, 11), id="2-1"),
    pytest.param(3, 0, (3, 3), (3, 4), (9, 11), id="3-0"),
    pytest.param(2, 0, (3, 3), (3, 4), (7, 7), id="2-0"),
    pytest.param(1, 0, (1, 1), (6, 10), (5, 5), id="1x1-6to10"),
    pytest.param(2, 0, (2, 2), (3, 4), (8, 8), id="2-0-2x2"),
    pytest.param(1, 1, (2, 3), (3, 4), (9, 11), id="1-1-2x3-9x11"),
]


class TestConv:
    @pytest.mark.parametrize("stride,padding,kernel,channels,hw", CONV_CASES)
    def test_conv2d_matches_bruteforce(self, stride, padding, kernel, channels, hw, rng):
        x = rng.normal(size=(2, channels[0]) + hw)
        w = rng.normal(size=(channels[1], channels[0]) + kernel)
        out = to_nchw(T.conv2d(Tensor(to_nhwc(x)), Tensor(w), stride=stride, padding=padding).data)
        expected = naive_conv2d(x, w, stride=stride, padding=padding)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("stride,padding,kernel,hw", DW_CASES)
    def test_dwconv2d_matches_bruteforce(self, stride, padding, kernel, hw, rng):
        x = rng.normal(size=(2, 5) + hw)
        w = rng.normal(size=(5, 1, kernel, kernel))
        out = T.dwconv2d(Tensor(to_nhwc(x)), Tensor(w), stride=stride, padding=padding)
        expected = naive_dwconv2d(x, w, stride=stride, padding=padding)
        np.testing.assert_allclose(to_nchw(out.data), expected, atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "x_shape,stride,padding,kernel",
        [
            pytest.param((2,) + hw + (5,), stride, padding, kernel, id=case.id)
            for case in DW_CASES
            for stride, padding, kernel, hw in [case.values]
        ]
        + [
            pytest.param((2, 56, 56, 84), 1, 1, 3, id="1-1-3-56x56x84"),
            pytest.param((2, 3, 130, 128), 1, 1, 3, id="1-1-3-3x130x128"),
            pytest.param((2, 7, 9, 2), 1, 1, 3, id="1-1-3-7x9x2"),
            pytest.param((2, 7, 9, 1), 1, 1, 3, id="1-1-3-7x9x1"),
        ],
    )
    def test_dwconv2d_bitwise_per_tap(self, x_shape, stride, padding, kernel, order, rng):
        """Output, weight gradient and input gradient are bitwise the textbook
        per-tap sums, in row-major tap order, for C- and Fortran-ordered weights.

        The output's order holds for C >= 2 only: at C = 1 einsum picks
        another loop order, so there the output is only close to the per-tap
        sum (the gradients stay bitwise)."""
        _, h, width, c = x_shape
        x = rng.normal(size=x_shape)
        w = np.asarray(rng.normal(size=(c, 1, kernel, kernel)), order=order)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = T.dwconv2d(xt, wt, stride, padding)
        g = rng.normal(size=out.shape)
        grads = T.tensor_sum(T.mul(out, Tensor(g))).backward()

        ho, wo = out.shape[1:3]
        padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
        expected, gw, gp = np.zeros(out.shape), np.empty(w.shape), np.zeros(padded.shape)
        for i in range(kernel):
            for j in range(kernel):
                window = (slice(None), slice(i, i + ho * stride, stride),
                          slice(j, j + wo * stride, stride))
                tap = padded[window]
                expected += tap * w[:, 0, i, j]
                gw[:, 0, i, j] = np.einsum("nhwc,nhwc->c", tap, g)
                gp[window] += g * w[:, 0, i, j]
        if c == 1:
            np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-13)
        else:
            np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(grads[wt], gw)
        np.testing.assert_array_equal(grads[xt], gp[:, padding : padding + h, padding : padding + width])

    @pytest.mark.parametrize(
        "conv,x_shape,w_shape,stride,padding",
        [
            pytest.param(T.conv2d, (2,) + hw + (c,), (o, c) + kernel, stride, padding,
                         id=f"conv-{case.id}")
            for case in CONV_CASES
            for stride, padding, kernel, (c, o), hw in [case.values]
        ]
        + [
            pytest.param(T.dwconv2d, (2,) + hw + (5,), (5, 1, kernel, kernel), stride, padding,
                         id=f"dwconv-{case.id}")
            for case in DW_CASES
            for stride, padding, kernel, hw in [case.values]
        ],
    )
    def test_bias_fold_equals_add(self, conv, x_shape, w_shape, stride, padding, rng):
        """``bias=`` gives the bits of adding the bias as its own operator, forward and back."""
        x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
        mix = Tensor(rng.normal(size=conv(Tensor(x), Tensor(w), stride, padding).shape))
        results = []
        for fold in (True, False):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            if fold:
                out = conv(xt, wt, stride, padding, bias=bt)
            else:
                out = T.add(conv(xt, wt, stride, padding), bt)
            grads = T.tensor_sum(T.mul(out, mix)).backward()
            results.append((out.data, grads[xt], grads[wt], grads[bt]))
        for folded, added in zip(*results):
            np.testing.assert_array_equal(folded, added)

    @pytest.mark.parametrize("stride,padding,kernel,channels,hw", CONV_CASES)
    def test_scatter_taps_is_windows_transpose(self, stride, padding, kernel, channels, hw, rng):
        """``_windows`` is a read-only view whose tap ``(i, j)`` is the strided
        slice of the padded map, bitwise, and ``_scatter_taps`` is its adjoint:
        ``<windows(x), g> == <x, scatter(g)>``."""
        kh, kw = kernel
        x = rng.normal(size=(2,) + hw + (channels[0],))
        windows = T._windows(x, kh, kw, stride, padding)
        assert not windows.flags.writeable
        n, ho, wo = windows.shape[:3]
        assert windows.shape == (n, ho, wo, kh, kw, channels[0])
        padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
        for i in range(kh):
            for j in range(kw):
                np.testing.assert_array_equal(
                    windows[:, :, :, i, j],
                    padded[:, i : i + ho * stride : stride, j : j + wo * stride : stride],
                )
        g = rng.normal(size=windows.shape)
        scattered = T._scatter_taps(x.shape, kh, kw, stride, padding, lambda i, j: g[:, :, :, i, j])
        assert scattered.shape == x.shape
        np.testing.assert_allclose(np.vdot(windows, g), np.vdot(x, scattered), rtol=1e-12)

    @pytest.mark.parametrize("stride,padding,kernel,channels,hw", CONV_CASES)
    def test_conv2d_weight_gradient_bitwise_the_transposed_product(
        self, stride, padding, kernel, channels, hw, rng
    ):
        """``conv2d``'s weight gradient, ``g.T @ patches`` laid out as
        ``(O, C, kh, kw)``, is byte-equal to ``patches.T @ g`` transposed into
        that layout. With the bundled OpenBLAS the two products' sums agree
        bit for bit; that is measured for this BLAS build, not promised."""
        (c, o), (kh, kw) = channels, kernel
        x = rng.normal(size=(2,) + hw + (c,))
        xt, wt = Tensor(x), Tensor(rng.normal(size=(o, c, kh, kw)), requires_grad=True)
        out = T.conv2d(xt, wt, stride, padding)
        g = rng.normal(size=out.shape)
        grad = T.tensor_sum(T.mul(out, Tensor(g))).backward()[wt]
        patches = T._windows(x, kh, kw, stride, padding).reshape(g.size // o, -1)
        expected = (patches.T @ g.reshape(-1, o)).reshape(kh, kw, c, o).transpose(3, 2, 0, 1)
        assert grad.flags.c_contiguous
        assert grad.tobytes() == np.ascontiguousarray(expected).tobytes()

    @staticmethod
    def _whole_weight_gradient(windows, g_mat):
        """``g.T @ patches`` as one product, laid out as ``(O, C, kh, kw)``."""
        kh, kw, c = windows.shape[3:]
        gw = g_mat.T @ windows.reshape(len(g_mat), -1)
        return np.ascontiguousarray(gw.reshape(-1, kh, kw, c).transpose(0, 3, 1, 2))

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            pytest.param((2,) + hw + (c,), (o, c) + kernel, stride, padding, id=case.id)
            for case in CONV_CASES
            for stride, padding, kernel, (c, o), hw in [case.values]
        ]
        + [  # tiny@224's convolutions whose taps each run above the threshold
            pytest.param((1, 224, 224, 3), (28, 3, 3, 3), 2, 1, id="tiny-stem.conv1"),
            pytest.param((1, 112, 112, 28), (28, 28, 3, 3), 1, 1, id="tiny-stem.conv2-3"),
            pytest.param((1, 112, 112, 28), (56, 28, 2, 2), 2, 0, id="tiny-stage1.embed"),
            pytest.param((1, 56, 56, 56), (112, 56, 2, 2), 2, 0, id="tiny-stage2.embed"),
            pytest.param((1, 28, 28, 112), (224, 112, 2, 2), 2, 0, id="tiny-stage3.embed"),
            pytest.param((1, 14, 14, 224), (448, 224, 2, 2), 2, 0, id="tiny-stage4.embed"),
        ],
    )
    def test_conv2d_weight_gradient_per_tap_bitwise_the_whole_product(
        self, x_shape, w_shape, stride, padding, rng, monkeypatch
    ):
        """Tap by tap, each ``(O, C)`` block ``g.T @ tap`` is byte-equal to
        those columns of the one ``g.T @ patches`` product. The threshold is
        lifted so that ``CONV_CASES``, whose taps fall under it, go tap by
        tap too (a 1x1 kernel stays one product); tiny@224's taps are above
        it anyway. Measured for the bundled OpenBLAS, not promised."""
        monkeypatch.setattr(T, "_SMALL_GEMM_MACS", 0)
        o, c, kh, kw = w_shape
        windows = T._windows(rng.normal(size=x_shape), kh, kw, stride, padding)
        g_mat = rng.normal(size=(math.prod(windows.shape[:3]), o))
        grad = T._conv_weight_grad(windows, g_mat)
        assert grad.flags.c_contiguous
        assert grad.tobytes() == self._whole_weight_gradient(windows, g_mat).tobytes()

    def test_conv2d_weight_gradient_under_the_threshold_is_one_product(self, rng):
        """The toy's stem conv2 and conv3 (7 channels at 16x16, batch 16) have
        taps of 7 * 7 * 4096 MACs, under ``_SMALL_GEMM_MACS``: their weight
        gradient stays one product, the bits the toy has always trained
        with. Tap by tap, 428 of its 441 values here differ in the last bits
        with the bundled OpenBLAS."""
        o = c = 7
        windows = T._windows(rng.normal(size=(16, 16, 16, c)), 3, 3, 1, 1)
        g_mat = rng.normal(size=(16 * 16 * 16, o))
        assert o * c * len(g_mat) <= T._SMALL_GEMM_MACS
        grad = T._conv_weight_grad(windows, g_mat)
        assert grad.tobytes() == self._whole_weight_gradient(windows, g_mat).tobytes()

    @pytest.mark.parametrize(
        "x_shape,stride,padding,kernel",
        [
            pytest.param((2,) + hw + (c,), stride, padding, kernel, id=case.id)
            for case in CONV_CASES
            for stride, padding, kernel, (c, _), hw in [case.values]
        ]
        + [
            pytest.param((2, 5, 7, 1), 1, 1, (3, 3), id="1-1-3-5x7x1"),
            pytest.param((2, 5, 7, 3), 1, 1, (1, 1), id="1-1-1x1-pad-past-kernel"),
        ],
    )
    def test_dwconv2d_input_gradient_is_the_scatter(self, x_shape, stride, padding, kernel, rng,
                                                     monkeypatch):
        """At stride 1, C >= 2 and a square kernel wider than the padding, the
        input gradient is a correlation of the output gradient with the taps,
        bitwise ``_scatter_taps``. Other geometries scatter, and so does
        C = 1, where einsum's loop order differs from the scatter's."""
        kh, kw = kernel
        c = x_shape[-1]
        w = rng.normal(size=(c, 1, kh, kw))
        scatter, scattered = T._scatter_taps, []
        monkeypatch.setattr(T, "_scatter_taps", lambda *args: scattered.append(1) or scatter(*args))
        xt = Tensor(rng.normal(size=x_shape), requires_grad=True)
        out = T.dwconv2d(xt, Tensor(w), stride, padding)
        g = rng.normal(size=out.shape)
        gx = T.tensor_sum(T.mul(out, Tensor(g))).backward()[xt]
        expected = scatter(x_shape, kh, kw, stride, padding, lambda i, j: g * w[:, 0, i, j])
        assert gx.tobytes() == expected.tobytes()
        assert bool(scattered) == (stride != 1 or c == 1 or kh != kw or padding >= kh)

    @pytest.mark.parametrize("shape", [(1, 112, 112, 28), (2, 112, 112, 28), (6, 32, 32, 28),
                                       (24, 16, 16, 28)],
                             ids=["rows-of-one-image", "rows-of-each-image",
                                  "rows-of-small-images", "whole-images"])
    def test_conv2d_peak_is_padded_map_output_and_one_block(self, shape, rng):
        """Patch matrices of several blocks: a stem conv's at 224 px (25 MB an
        image) is built in blocks of each image's rows, as is a batch of 32 px
        images (2 MB each), and a batch of 16 px images (0.5 MB each) in
        blocks of whole images. Either way peak memory holds the padded map,
        the output, the weight matrix and one block of the patch matrix, and
        the result is bitwise the one-shot product."""
        n, h, w, c = shape
        assert n * h * w * (9 * c) * 8 > 2 * T._CONV_BLOCK_BYTES
        x = rng.normal(size=shape)
        weight = rng.normal(size=(c, c, 3, 3))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.conv2d(Tensor(x), Tensor(weight), stride=1, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = n * (h + 2) * (w + 2) * c * 8
        w_mat = 9 * c * c * 8  # ``_conv_weight_matrix``'s (kh*kw*C, O) copy
        bound = padded + out.data.nbytes + w_mat + T._CONV_BLOCK_BYTES
        assert peak < bound, (peak, bound)
        cols = T._windows(x, 3, 3, 1, 1).reshape(-1, 9 * c)
        np.testing.assert_array_equal(out.data.reshape(-1, c),
                                      cols @ T._conv_weight_matrix(weight))

    def test_conv2d_blocks_give_one_shot_product(self, toy_spec, monkeypatch, rng):
        """At the production block size, every dense convolution of a tiny@224
        forward and of the README toy's training and evaluation batches is
        bitwise the one-shot product of its whole patch matrix and the weight,
        and no block's patch matrix is larger than ``_CONV_BLOCK_BYTES``.

        This pins the bundled OpenBLAS: its small-matrix kernel rounds
        differently, so a failure here after a BLAS change means that build
        rounds blocks differently, not that the blocking is wrong."""
        patch_product, matmul = T._patch_product, np.matmul
        sizes, blocks = [], []

        def checked(windows, w_mat):
            with monkeypatch.context() as m:  # the blocks' products are its only matmuls
                m.setattr(np, "matmul",
                          lambda a, b, out: blocks.append(a.nbytes) or matmul(a, b, out=out))
                out = patch_product(windows, w_mat)
            cols = windows.reshape(-1, w_mat.shape[0])
            sizes.append(cols.nbytes)
            np.testing.assert_array_equal(out.reshape(-1, w_mat.shape[1]), cols @ w_mat)
            return out

        monkeypatch.setattr(T, "_patch_product", checked)
        with T.no_grad():
            build("tiny", seed=0, zero_classifier=False).forward(rng.uniform(size=(1, 3, 224, 224)))
            toy = build(toy_spec, seed=0, zero_classifier=False)
            for batch in (16, 32):
                toy.forward(rng.uniform(size=(batch, 3, 32, 32)))
        assert max(sizes) > T._CONV_BLOCK_BYTES  # some products did run in blocks
        assert max(blocks) <= T._CONV_BLOCK_BYTES

    def test_conv2d_empty_batch(self, rng):
        out = T.conv2d(Tensor(np.zeros((0, 8, 8, 3))), Tensor(rng.normal(size=(4, 3, 3, 3))),
                       stride=1, padding=1)
        assert out.shape == (0, 8, 8, 4)

    def test_stride2_halves_224(self, rng):
        x = to_nhwc(rng.normal(size=(1, 3, 224, 224)))
        w = rng.normal(size=(8, 3, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w), stride=2, padding=1)
        assert out.shape == (1, 112, 112, 8)

    def test_depthwise_stride2_halves_56(self, rng):
        x = to_nhwc(rng.normal(size=(1, 4, 56, 56)))
        w = rng.normal(size=(4, 1, 2, 2))
        out = T.dwconv2d(Tensor(x), Tensor(w), stride=2, padding=0)
        assert out.shape == (1, 28, 28, 4)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(to_nhwc(rng.normal(size=(1, 3, 8, 8)))),
                     Tensor(rng.normal(size=(4, 2, 3, 3))))
        with pytest.raises(ShapeError):
            T.dwconv2d(Tensor(to_nhwc(rng.normal(size=(1, 3, 8, 8)))),
                       Tensor(rng.normal(size=(4, 1, 3, 3))))

    def test_kernel_larger_than_input_raises(self, rng):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(to_nhwc(rng.normal(size=(1, 2, 4, 4)))),
                     Tensor(rng.normal(size=(2, 2, 5, 5))))

    @given(
        size=st.integers(6, 20),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_size_arithmetic(self, size, kernel, stride, padding):
        if size + 2 * padding < kernel:
            return
        x = Tensor(np.zeros((1, size, size, 2)))
        w = Tensor(np.zeros((3, 2, kernel, kernel)))
        out = T.conv2d(x, w, stride=stride, padding=padding)
        expected = (size + 2 * padding - kernel) // stride + 1
        assert out.shape == (1, expected, expected, 3)
        dw = Tensor(np.zeros((2, 1, kernel, kernel)))
        out = T.dwconv2d(x, dw, stride=stride, padding=padding)
        assert out.shape == (1, expected, expected, 2)


class TestSoftmax:
    def test_matches_extended_precision(self, rng):
        for _ in range(30):
            x = rng.normal(scale=rng.uniform(0.5, 30.0), size=(4, 9))
            out = T.softmax(Tensor(x))
            assert np.abs(out.data - softmax_longdouble(x)).max() <= 1e-12

    def test_handles_large_magnitudes(self):
        x = np.array([[1000.0, 1000.0, -1000.0]])
        out = T.softmax(Tensor(x)).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, :2], 0.5, atol=1e-12)

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6), cols=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_distributions(self, seed, rows, cols):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols))
        out = T.softmax(Tensor(x)).data
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-9


class TestLayernorm:
    def test_matches_twopass(self, rng):
        x = rng.normal(loc=3.0, scale=7.0, size=(4, 5, 16))
        gamma = rng.normal(size=16)
        beta = rng.normal(size=16)
        out = T.layernorm(Tensor(x), Tensor(gamma), Tensor(beta))
        assert np.abs(out.data - layernorm_twopass(x, gamma, beta)).max() <= 1e-10

    def test_constant_rows_collapse_to_shift(self):
        x = np.full((3, 8), 4.2)
        out = T.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    @given(seed=st.integers(0, 10_000), shift=st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, seed, shift):
        x = np.random.default_rng(seed).normal(size=(3, 12))
        gamma, beta = Tensor(np.ones(12)), Tensor(np.zeros(12))
        a = T.layernorm(Tensor(x), gamma, beta).data
        b = T.layernorm(Tensor(x + shift), gamma, beta).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_normalized_moments(self, rng):
        x = rng.normal(loc=-2.0, scale=3.0, size=(6, 32))
        out = T.layernorm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


@pytest.mark.parametrize("width", [1, 97, T._BLOCK_BYTES // 8 + 1], ids=["single", "rows", "wide"])
def test_row_blocks_cover_rows_once_in_bounded_blocks(width, rng):
    """Every row comes out once, in order, in blocks of at most ``_BLOCK_BYTES``
    (one row when a row is wider); a per-row ``(rows, 1)`` array rides along,
    and the scratch buffers are the same arrays in every block."""
    rows = 2 * max(1, T._BLOCK_BYTES // (8 * width)) + 1  # two full blocks and a ragged row
    x = rng.normal(size=(rows, width))
    per_row = np.arange(float(rows)).reshape(rows, 1)
    seen, scale, buffers = [], [], set()
    for xb, rb, s, u in T.row_blocks(width, (x.reshape(-1), per_row), 2):
        assert xb.shape == s.shape == u.shape and rb.shape == (len(xb), 1)
        assert xb.nbytes <= T._BLOCK_BYTES or len(xb) == 1
        buffers.update((id(s.base), id(u.base)))
        seen.append(xb)
        scale.append(rb)
    assert len(seen) == 3 and len(buffers) == 2
    np.testing.assert_array_equal(np.concatenate(seen), x)
    np.testing.assert_array_equal(np.concatenate(scale), per_row)


def test_row_blocks_of_no_rows_yield_nothing():
    assert list(T.row_blocks(5, (np.empty((0, 5)), np.empty((0, 1))), 1)) == []


# tiny@224's stage 1-3 hidden maps, the README toy's at 32 px and a one-channel map
GATE_FOLD_SHAPES = [(1, 56, 56, 168), (1, 28, 28, 336), (1, 14, 14, 672),
                    (16, 8, 8, 42), (16, 4, 4, 84), (16, 2, 2, 168), (4, 64, 64, 1)]


@pytest.mark.parametrize("shape", GATE_FOLD_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_gelu_gate_gradient_fold_is_numpy_sum(shape, rng):
    """``gelu_adjoint`` sums the gate's gradient a ``row_blocks`` block at a
    time, each block's first row carrying the running sum. numpy's ``.sum``
    over leading axes adds row by row, so the fold is bitwise the
    whole-array sum of the unscaled gradient times the input; written into
    ``g`` itself, the adjoint gives the same bits, scaled by the gate. The
    unscaled gradient is the ungated adjoint's at ``x * gate``: its ufuncs
    are elementwise, so it has the bits the gated adjoint has before scaling."""
    x, g = rng.normal(size=shape), rng.normal(size=shape)
    gate = rng.normal(size=shape[-1])
    gx = np.empty(shape)
    assert T.gelu_adjoint(x * gate, None, g, gx) is None
    ggate = T.gelu_adjoint(x, gate, g, np.empty(shape))
    assert ggate.tobytes() == (gx * x).sum(axis=tuple(range(x.ndim - 1))).tobytes()
    inplace = g.copy()
    assert T.gelu_adjoint(x, gate, inplace, inplace).tobytes() == ggate.tobytes()
    assert inplace.tobytes() == (gx * gate).tobytes()


def test_gelu_values(rng):
    x = rng.normal(scale=2.0, size=(5, 7))
    np.testing.assert_allclose(T.gelu(Tensor(x)).data, naive_gelu(x), atol=1e-12)
    assert T.gelu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
@pytest.mark.parametrize("tape", [True, False], ids=["tape", "no_grad"])
def test_gelu_keeps_no_tanh_array(tape, gated, rng):
    """``gelu`` of a stage-1 hidden map allocates its output and block-sized
    scratch only, with or without a tape: no second full-size array for
    ``tanh`` is built, nor kept by the node for the adjoint. With a gate
    neither is the gated map ``x * gate``, which each block builds in its
    slice of the output."""
    x = Tensor(rng.normal(size=(1, 56, 56, 168)), requires_grad=True)
    gate = Tensor(rng.normal(size=168), requires_grad=True) if gated else None
    tracemalloc.start()
    try:
        with contextlib.nullcontext() if tape else T.no_grad():
            out = T.gelu(x, gate)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out._node is not None) == tape
    bound = out.data.nbytes + 2 * T._BLOCK_BYTES
    assert peak < bound, (peak, bound)
    assert retained < bound, (retained, bound)


# (call on a stage-1 hidden map, x-sized temporaries its adjoint may build)
ADJOINT_CASES = [
    pytest.param(lambda x, rng: T.gelu(x), 0, id="gelu"),
    pytest.param(lambda x, rng: T.gelu(x, Tensor(rng.normal(size=168), requires_grad=True)),
                 0, id="gelu-gated"),
    pytest.param(lambda x, rng: T.softmax(x), 0, id="softmax"),
    pytest.param(lambda x, rng: T.softmax(x, 0.125), 0, id="softmax-scaled"),
]


@pytest.mark.parametrize("call,temporaries", ADJOINT_CASES)
def test_adjoint_allocates_its_result_and_block_scratch(call, temporaries, rng):
    """The ``gelu`` and ``softmax`` adjoints of a stage-1 hidden map allocate
    their results and a few ``_BLOCK_BYTES`` scratch blocks: no full-size
    temporary of the whole-array expression is built. A gated ``gelu`` sums
    the gate's gradient block by block, so it builds no x-sized product for
    it either; a scaled ``softmax`` scales its result in place."""
    x = Tensor(rng.normal(size=(1, 56, 56, 168)), requires_grad=True)
    out = call(x, rng)
    g = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        gx, *rest = out._backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape
    bound = (1 + temporaries) * gx.nbytes + sum(r.nbytes for r in rest) + 4 * T._BLOCK_BYTES
    assert peak < bound, (peak, bound)


# The whole-array expressions the kernels compute, written out once more: each
# returns the output and an adjoint. The kernels fill reused buffers instead and
# must give the same bits.
_GELU_C = math.sqrt(2.0 / math.pi)


def textbook_gelu(x):
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    tanh = np.tanh(inner)

    def backward(g):
        sech2 = 1.0 - tanh**2
        local = 0.5 * (1.0 + tanh) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        return (g * local,)

    return 0.5 * x * (1.0 + tanh), backward


def textbook_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return out, backward


def textbook_layernorm(x, gamma, beta):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv

    def backward(g):
        gxhat = g * gamma
        mean_g = gxhat.mean(axis=-1, keepdims=True)
        mean_gx = (gxhat * xhat).mean(axis=-1, keepdims=True)
        axes = tuple(range(g.ndim - 1))
        return (inv * (gxhat - mean_g - xhat * mean_gx), (g * xhat).sum(axis=axes),
                g.sum(axis=axes))

    return xhat * gamma + beta, backward


def textbook_gated_gelu(x, gate):
    """``gelu(x * gate)`` as the two nodes ``mul`` and ``gelu``."""
    out, gelu_backward = textbook_gelu(x * gate)

    def backward(g):
        (g_local,) = gelu_backward(g)
        return (g_local * gate, (g_local * x).sum(axis=tuple(range(x.ndim - 1))))

    return out, backward


def textbook_scaled_softmax(x, scale):
    """``softmax(x * scale)`` as the two nodes ``mul`` and ``softmax``."""
    out, softmax_backward = textbook_softmax(x * scale)
    return out, lambda g: (softmax_backward(g)[0] * scale,)


def _over_one_block(rng):
    """Rows of 97 values, in total more than a block with a ragged tail."""
    return rng.normal(scale=3.0, size=(T._BLOCK_BYTES // 8 // 97 + 3, 97))


ELEMENTWISE_INPUTS = [
    pytest.param(_over_one_block, id="over-one-block"),
    pytest.param(lambda rng: rng.normal(scale=3.0, size=(97, 60)).T, id="transposed"),
    pytest.param(lambda rng: rng.normal(scale=3.0, size=(1, 97)), id="one-row"),
    pytest.param(lambda rng: rng.normal(scale=3.0, size=(1, 7, 5, 12)), id="map"),
]


class TestElementwiseKernelsBitwise:
    """``gelu``, ``softmax`` and ``layernorm`` against the textbook expressions.

    A non-C-contiguous input is read through a C-ordered copy, so its
    reductions run as for that copy: the expected values come from the
    textbook expression on ``np.ascontiguousarray(x)``.
    """

    @staticmethod
    def _check(op, textbook, x, extra, rng):
        leaves = [Tensor(x, requires_grad=True)] + [Tensor(a, requires_grad=True) for a in extra]
        out = op(*leaves)
        assert out.data.flags.c_contiguous
        mix = rng.normal(size=x.shape)
        grads = T.tensor_sum(T.mul(out, Tensor(mix))).backward()
        expected, backward = textbook(np.ascontiguousarray(x), *extra)
        np.testing.assert_array_equal(out.data, expected)
        for leaf, grad in zip(leaves, backward(mix)):
            np.testing.assert_array_equal(grads[leaf], grad)

    @pytest.mark.parametrize("make", ELEMENTWISE_INPUTS)
    def test_gelu(self, make, rng):
        x = make(rng)
        self._check(T.gelu, textbook_gelu, x, [], rng)
        # elementwise, so the layout cannot change a value
        np.testing.assert_array_equal(T.gelu(Tensor(x)).data, textbook_gelu(x)[0])

    @pytest.mark.parametrize("make", ELEMENTWISE_INPUTS)
    def test_gated_gelu(self, make, rng):
        x = make(rng)
        d = x.shape[-1]
        gate = rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.5, 2.0, size=d)
        self._check(T.gelu, textbook_gated_gelu, x, [gate], rng)
        np.testing.assert_array_equal(T.gelu(Tensor(x), Tensor(gate)).data,
                                      textbook_gated_gelu(x, gate)[0])

    @pytest.mark.parametrize("make", ELEMENTWISE_INPUTS)
    def test_softmax(self, make, rng):
        self._check(T.softmax, textbook_softmax, make(rng), [], rng)

    @pytest.mark.parametrize("make", ELEMENTWISE_INPUTS)
    def test_scaled_softmax(self, make, rng):
        scale = 1.0 / math.sqrt(12)
        self._check(lambda x: T.softmax(x, scale),
                    lambda x: textbook_scaled_softmax(x, scale), make(rng), [], rng)

    @pytest.mark.parametrize("make", ELEMENTWISE_INPUTS)
    def test_layernorm(self, make, rng):
        x = make(rng)
        d = x.shape[-1]
        self._check(T.layernorm, textbook_layernorm, x,
                    [rng.normal(size=d), rng.normal(size=d)], rng)


def test_avgpool_global_constant():
    x = np.full((2, 4, 4, 3), 1.5)
    out = T.avgpool_global(Tensor(x))
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out.data, 1.5, atol=0)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 2)))
    loss = T.cross_entropy(logits, np.array([0, 1, 0, 1]))
    np.testing.assert_allclose(loss.item(), math.log(2.0), atol=1e-12)


def test_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    loss = T.cross_entropy(Tensor(logits), labels).item()
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.log(probs[np.arange(5), labels]).mean()
    np.testing.assert_allclose(loss, expected, atol=1e-12)


def test_cross_entropy_rejects_bad_labels(rng):
    logits = Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(ShapeError):
        T.cross_entropy(logits, np.array([0, 1, 2]))
    with pytest.raises(ShapeError):
        T.cross_entropy(logits, np.array([0.0, 1.0, 1.0]))


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 4))
        back = T.reshape(T.reshape(Tensor(x), (6, 4)), (2, 3, 4))
        np.testing.assert_array_equal(back.data, x)

    def test_reshape_bad_size(self, rng):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(rng.normal(size=(2, 3))), (4, 2))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution(self, seed):
        x = np.random.default_rng(seed).normal(size=(2, 3, 5))
        axes = tuple(np.random.default_rng(seed + 1).permutation(3))
        inverse = tuple(np.argsort(axes))
        out = T.transpose(T.transpose(Tensor(x), axes), inverse)
        np.testing.assert_array_equal(out.data, x)

    def test_split_concat_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 10))
        parts = T.split(Tensor(x), [4, 6])
        assert parts[0].shape == (2, 3, 4) and parts[1].shape == (2, 3, 6)
        back = T.concat(parts)
        np.testing.assert_array_equal(back.data, x)

    def test_split_bad_sizes(self, rng):
        with pytest.raises(ShapeError):
            T.split(Tensor(rng.normal(size=(2, 10))), [4, 5])


class TestPurity:
    """Operators never mutate inputs; calls are reproducible bitwise."""

    def test_inputs_unchanged(self, rng):
        x = to_nhwc(rng.normal(size=(2, 3, 8, 8)))
        w = rng.normal(size=(4, 3, 3, 3))
        x_copy, w_copy = x.copy(), w.copy()
        xt, wt = Tensor(x), Tensor(w)
        T.gelu(T.conv2d(xt, wt, stride=1, padding=1))
        np.testing.assert_array_equal(xt.data, x_copy)
        np.testing.assert_array_equal(wt.data, w_copy)

    def test_folded_scales_leave_inputs_unwritten(self, rng):
        """A gated ``gelu`` and a scaled ``softmax`` write neither the input
        nor the gate, forward or backward."""
        x = rng.normal(size=(2, 5, 7))
        gate = rng.normal(size=7)
        xt, gt = Tensor(x.copy(), requires_grad=True), Tensor(gate.copy(), requires_grad=True)
        for out in (T.gelu(xt, gt), T.softmax(xt, 0.5)):
            out._backward_fn(rng.normal(size=x.shape))
        np.testing.assert_array_equal(xt.data, x)
        np.testing.assert_array_equal(gt.data, gate)

    def test_double_call_bitwise_equal(self, rng):
        x = Tensor(to_nhwc(rng.normal(size=(3, 4, 6, 6))))
        w = Tensor(rng.normal(size=(4, 1, 3, 3)))
        a = T.dwconv2d(x, w, stride=1, padding=1)
        b = T.dwconv2d(x, w, stride=1, padding=1)
        assert np.array_equal(a.data, b.data)
        s1 = T.softmax(Tensor(x.data[0, 0]))
        s2 = T.softmax(Tensor(x.data[0, 0]))
        assert np.array_equal(s1.data, s2.data)


def _observed_macs(run) -> int:
    """The MACs that an observer sees while ``run()`` executes."""
    seen = []
    with T.observe(lambda op, scope, out, macs: seen.append(macs)):
        run()
    return sum(seen)


class TestObservedMacs:
    def test_matmul_count(self, rng):
        a, b = Tensor(rng.normal(size=(7, 5))), Tensor(rng.normal(size=(5, 3)))
        assert _observed_macs(lambda: T.matmul(a, b)) == 7 * 5 * 3

    def test_conv_counts(self, rng):
        x = Tensor(to_nhwc(rng.normal(size=(2, 3, 8, 8))))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        macs = _observed_macs(lambda: T.conv2d(x, w, stride=1, padding=1))
        assert macs == 2 * 4 * 3 * 9 * 8 * 8
        x = Tensor(to_nhwc(rng.normal(size=(1, 6, 8, 8))))
        w = Tensor(rng.normal(size=(6, 1, 2, 2)))
        assert _observed_macs(lambda: T.dwconv2d(x, w, stride=2)) == 6 * 4 * 4 * 4

    def test_elementwise_not_counted(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))

        def run():
            T.gelu(T.mul(x, x))
            T.softmax(x)
            T.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))

        assert _observed_macs(run) == 0


class TestObserve:
    def test_nested_observers_both_fire_under_nested_scopes(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        outer, inner = [], []
        with T.observe(lambda op, scope, out, macs: outer.append((op, scope, out, macs))):
            with T.scope("a"):
                added = T.add(x, x)
                with T.observe(lambda *args: inner.append(args)), T.scope("b.c"):
                    product = T.matmul(x, x)
        assert outer == [("add", "a", added, 0), ("matmul", "a.b.c", product, 8)]
        assert inner == outer[1:]

    def test_observe_and_scope_restore_after_an_error(self, rng):
        x = Tensor(rng.normal(size=(2,)))
        seen = []
        with pytest.raises(ShapeError):
            with T.observe(lambda op, scope, out, macs: seen.append(scope)), T.scope("outer"):
                T.mul(x, x)
                T.reshape(x, (3,))
        T.mul(x, x)
        assert seen == ["outer"]
        with T.observe(lambda op, scope, out, macs: seen.append(scope)):
            T.mul(x, x)
        assert seen == ["outer", ""]
