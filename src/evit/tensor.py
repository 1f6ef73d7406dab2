"""Reverse-mode autodiff tensor kernel backed by float64 numpy arrays.

Every operator is pure: inputs are never written to and each call returns a
fresh ``Tensor``. Calling an operator records a node on the result: the
backward closure, the result's shape and, per input, where that input's
gradient goes. The closure holds only the arrays and shapes its adjoint
reads, never an input tensor, so an activation that no adjoint reads is freed
as soon as the forward code drops it. A node that can rebuild its output
from what its adjoint keeps anyway also carries that recipe: ``gelu`` reruns
its forward on its kept input and gate, ``layernorm`` computes
``xhat * gamma + beta`` from its kept ``xhat``, a ``matmul`` that keeps both
operands (every trained projection) reruns its product, a ``conv2d`` whose
weight trains over an input kept as its array (the image, a residual sum)
reruns its patch product, and ``reshape`` passes its input's recipe on,
reshaped. ``matmul``, ``conv2d`` and ``dwconv2d``, which read an input again
for the other operand's gradient, and ``gelu`` and ``attention``, which read
their inputs for any gradient, keep each input's recipe instead of the array
and rerun it in their adjoint, with the same ufuncs and products in the same
order, so the tape holds no GELU, layer-norm or projection output, no
output of such a convolution, and every bit is kept. A convolution over a
recipe leaves none, so no recipe reruns a chain of convolutions. A recipe
runs only inside its consumers' adjoints, which all run before its own
node's, so every parameter it reads still holds its value then. A
scalar loss replays the adjoints in
reverse topological order with ``Tensor.gradient_stream()``, which frees each
node once its adjoint has run and yields the gradient of every leaf created
with ``requires_grad=True`` that the loss reaches as soon as the leaf's last
consumer has run, so a caller can update the leaf in place and drop the
gradient before the walk goes on; ``Tensor.backward()`` collects the same
walk into a dict. Leaves hold no gradient state. An
operator whose inputs all lack ``requires_grad``, or any operator called
inside ``no_grad()``, records nothing, so a forward pass over constants keeps
no tape alive.

``observe`` is the one instrumentation hook; MAC counting and attention-map
export are observers of every operator's result.

Feature maps are channels-last, ``(N, H, W, C)``: the convolutions and
``avgpool_global`` read that layout, so a linear or a layer norm over the
last axis applies to a map with no data movement. Convolution weights keep
the usual ``(O, C, kh, kw)`` and ``(C, 1, kh, kw)`` layouts.

The kernel is written for clarity and trust first, and everything stays
float64 so finite-difference checks have headroom. Both convolutions read
their input through one gather, ``_windows``, a view of every window of the
padded map, and send their input gradient back through one scatter,
``_scatter_taps``, tap by tap; at stride 1 a depthwise convolution instead
correlates the reversed windows of its output gradient with its taps, with
the scatter's bits. A dense convolution is one matrix product of
that view reshaped into its patch matrix (every output pixel's window as a
row) with the reshaped weight, built and multiplied in blocks of whole
images or of one image's output rows, at most ``_CONV_BLOCK_BYTES`` each
(with the bundled OpenBLAS each block's rows are bitwise those of the
one-shot product), and its weight gradient is built tap by tap from
contiguous copies of each tap's window slice, bitwise the one product with
the patch matrix; a depthwise convolution contracts the view, unreshaped,
with its taps in one ``einsum``. Both, and ``matmul``, take an optional
bias, added in place to the fresh product, so a biased ``linear`` is one
``matmul`` node with no ``add``. Convolution closures keep their input
array (or its recipe), not a padded copy or a window matrix, and rebuild
what they need in ``backward``.
``split`` and ``concat`` work on the last axis.

The memory-bound kernels make few passes over memory. One driver,
``row_blocks``, cuts their work into ``_BLOCK_BYTES`` blocks of whole rows
with block-sized scratch: ``gelu``'s forward and adjoint (the adjoint
recomputing each block's ``tanh``), the adjoints of ``softmax`` and
``layernorm``, which work inside their output arrays, and ``AdamW.step``.
Each kernel runs the ufuncs of the whole-array expression in the same
order, so its results are bitwise those of that expression, and no buffer
outlives its call.

Two kernels take the scale that precedes them, as a ``mul`` node would
apply it: ``gelu(x, gate)`` a per-channel ``(C,)`` gate, in blocks of whole
rows, and ``softmax(x, scale)`` a Python float (1.0 unless given). The node
keeps the unscaled input, not the scaled array, and the values and
gradients are bitwise those of the two nodes.

``attention(q, k, v, proj, n, heads, scale)`` is multi-head attention on
token rows and its output projection as one node. Its forward runs
``matmul`` on head-split copies inside ``no_grad()``, computes the weights
inside the scores' own array with the ``softmax`` kernel and reports them to
observers as a ``softmax`` result, then runs ``matmul`` again and, on the
merged rows, a ``matmul`` with ``proj``, so observers see those four
operators (an observer that keeps the scores' array sees it hold the
weights). The node keeps its inputs' recipes (the rows themselves where an
input has none) and ``proj``, not the copies, the weights or the mixed
rows: its adjoint rebuilds the head splits, recomputes the weights through
the ``softmax`` kernels and the mixed rows with one more product, bit for
bit, and takes the projection's gradients as ``matmul``'s adjoint would.

A composite outside this module can be one node the same way: it runs its
operators inside ``no_grad()``, so observers still see each of them, keeps
its inputs through ``kept`` and, when ``taped`` says a node records, wraps
its result with ``record``, which calls no observer. Its adjoint calls the
array kernels that the operators' own adjoints call (``dwconv_apply``,
``dwconv_weight_grad``, ``dwconv_input_grad``, ``gelu_rows``,
``gelu_adjoint``), never an operator, so no bit moves and no tracer counts
the recomputed work as forward work. The BFFN after its first linear
(``feedforward``) is such a node.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray

# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

# what ``_make`` calls with every result, and the open ``scope`` names, outermost first
_OBSERVERS: list[Callable[[str, str, "Tensor", int], None]] = []
_SCOPES: list[str] = []


@contextlib.contextmanager
def observe(fn: Callable[[str, str, "Tensor", int], None]):
    """Call ``fn(op, scope, out, macs)`` after every operator run inside the block.

    ``op`` is the operator's function name, ``scope`` the dot-joined names of
    the enclosing ``scope`` blocks (``""`` outside any), ``out`` the result
    (each piece of a ``split``) and ``macs`` its multiply-accumulates, nonzero
    only for ``matmul``, ``conv2d`` and ``dwconv2d``. Observers nest and all
    fire; each is removed on exit, also when the block raises.
    """
    _OBSERVERS.append(fn)
    try:
        yield
    finally:
        _OBSERVERS.pop()


@contextlib.contextmanager
def scope(name: str):
    """Name the operators run inside the block for ``observe``; nested names join with dots.

    A fovea's operators run under its ``cost_report`` row and parameter
    prefix, such as ``stage3.block0.bfsa.sfa``. Restored on exit, also on error.
    """
    _SCOPES.append(name)
    try:
        yield
    finally:
        _SCOPES.pop()


# False inside ``no_grad()``: operators then record no parents and no closure.
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Run operators without recording the backward tape.

    Inside the block every operator returns a constant tensor
    (``requires_grad`` False, no ``_backward_fn``), even when its inputs are
    trainable, so intermediates are freed as soon as nothing refers to them.
    Use it for forward-only passes over a graph that otherwise trains, such as
    evaluation or counting MACs. Blocks nest; the previous state is restored
    on exit, also when the block raises.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


class _Node:
    """One recorded operator: its adjoint, its output's shape, its inputs and
    maybe a recipe for its output.

    ``parents`` has one entry per input: the input's node when the input was
    computed, the leaf ``Tensor`` when it is a trainable leaf, and ``None``
    when it needs no gradient. ``remake``, when not ``None``, rebuilds the
    output array bit for bit from arrays the adjoint keeps anyway, so a
    consumer that reads the output in its own adjoint keeps the recipe, not
    the array. The backward walk clears ``backward_fn``, ``parents`` and
    ``remake`` once the adjoint has run, which frees what the closures held.
    """

    __slots__ = ("backward_fn", "shape", "parents", "remake")

    def __init__(self, backward_fn, shape: tuple[int, ...], parents: tuple,
                 remake: Callable[[], Array] | None = None):
        self.backward_fn: Callable[[Array], Sequence[Array | None]] | None = backward_fn
        self.shape = shape
        self.parents = parents
        self.remake = remake


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- autodiff -----------------------------------------------------------

    @property
    def _backward_fn(self) -> Callable[[Array], Sequence[Array | None]] | None:
        """The adjoint recorded on an operator's result; ``None`` on a constant or a leaf."""
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn: Callable[[Array], Sequence[Array | None]]) -> None:
        self._node.backward_fn = fn

    def backward(self) -> dict[Tensor, Array]:
        """Replay the adjoints from this scalar and return ``{leaf: gradient}``.

        The dict has an entry, of the leaf's shape, for every leaf with
        ``requires_grad=True`` that the scalar was computed from; a scalar
        that is itself such a leaf gets ``{self: ones}``. It is
        ``dict(self.gradient_stream())``: the tape is freed as the walk goes,
        afterwards the scalar and the forward outputs hold their values but
        no closures, and a second call raises ``ValueError``; recompute the
        loss instead.

        Raises ``ValueError`` when the scalar itself does not require a
        gradient: then no tensor it was computed from needs one (for example
        every parameter of a graph from ``load_checkpoint``, or a loss
        computed inside ``no_grad()``), and there is nothing to differentiate.
        """
        return dict(self.gradient_stream())

    def gradient_stream(self) -> Iterator[tuple[Tensor, Array]]:
        """The walk of ``backward()``, yielding each ``(leaf, gradient)`` as soon as it is final.

        Before the walk each trainable leaf's consuming nodes are counted; a
        leaf is yielded, and its gradient dropped from the walk, right after
        the adjoint of its last consumer has run. From then on no adjoint
        reads the leaf's array, so the caller may update ``leaf.data`` in
        place before taking the next pair: an array derived from the leaf is
        kept only by the leaf's consumers and the nodes downstream of them,
        and all of those have run. Each node's adjoint and parents are
        cleared once the adjoint has run, so the tape is freed as the walk
        goes. The scalar's checks run on the call, before anything is yielded.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError(
                "backward() on a scalar that needs no gradient: no tensor in the "
                "loss needs a gradient (set requires_grad = True on the "
                "parameters to train, and compute the loss outside no_grad())"
            )
        if self._node is None:  # the scalar is itself a trainable leaf
            return iter([(self, np.ones_like(self.data))])
        return _walk(self._node)


def _walk(root: _Node) -> Iterator[tuple[Tensor, Array]]:
    order = _topo_order(root)
    # consuming nodes not yet run, per trainable leaf (one per parent entry)
    pending: dict[Tensor, int] = {}
    for node in order:
        for parent in node.parents:
            if type(parent) is Tensor:
                pending[parent] = pending.get(parent, 0) + 1
    # keyed by node or leaf; a leaf leaves it when it is yielded
    grads: dict[_Node | Tensor, Array] = {root: np.ones(root.shape)}
    while order:
        node = order.pop()
        if node.backward_fn is None:
            raise ValueError(
                "the loss's tape was consumed by an earlier backward pass; "
                "recompute the loss to differentiate it again"
            )
        gout = grads.pop(node, None)
        input_grads = () if gout is None else node.backward_fn(gout)
        parents = node.parents
        node.backward_fn, node.parents, node.remake = None, (), None
        for parent, g in zip(parents, input_grads):
            if g is None or parent is None:
                continue
            shape = parent.shape
            if g.shape != shape:
                raise ShapeError(
                    f"adjoint produced gradient of shape {g.shape} for a "
                    f"parent of shape {shape}"
                )
            grads[parent] = grads[parent] + g if parent in grads else g
        del gout, input_grads  # else both stay alive through the next adjoint
        for parent in parents:
            if type(parent) is Tensor:
                pending[parent] -= 1
                if not pending[parent] and parent in grads:
                    yield parent, grads.pop(parent)


def _topo_order(root: _Node) -> list[_Node]:
    """Iterative post-order DFS over the computed nodes: inputs first, ``root`` last."""
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if type(parent) is _Node and id(parent) not in seen:
                stack.append((parent, False))
    return order


def taped(*inputs: Tensor) -> bool:
    """Whether an operator over ``inputs`` records a node: outside ``no_grad()``,
    when one of them needs a gradient."""
    return _GRAD_ENABLED and any(t.requires_grad for t in inputs)


def record(
    data: Array, inputs: tuple[Tensor, ...], backward_fn, *,
    remake: Callable[[], Array] | None = None,
) -> Tensor:
    """Wrap ``data`` as the result of one node over ``inputs`` when ``taped(*inputs)``.

    ``backward_fn`` maps the output's gradient to one gradient (or ``None``)
    per input. No observer is called: a composite that runs its operators
    inside ``no_grad()``, so that observers see each of them, records its
    result as one node through this. ``remake``, when given, is a recipe that
    rebuilds ``data`` bit for bit from arrays ``backward_fn`` already keeps,
    for consumers to keep in place of the array (``kept``).
    """
    out = Tensor(data)
    if taped(*inputs):
        out.requires_grad = True
        parents = tuple((t._node or t) if t.requires_grad else None for t in inputs)
        out._node = _Node(backward_fn, data.shape, parents, remake)
    return out


def _make(
    op: str, data: Array, inputs: tuple[Tensor, ...], backward_fn, macs: int = 0, *,
    remake: Callable[[], Array] | None = None,
) -> Tensor:
    """``record`` the result of ``op``, then report it to the observers."""
    out = record(data, inputs, backward_fn, remake=remake)
    if _OBSERVERS:
        where = ".".join(_SCOPES)
        for fn in _OBSERVERS:
            fn(op, where, out, macs)
    return out


def kept(t: Tensor) -> Callable[[], Array]:
    """What a consumer's adjoint keeps to read ``t``'s values: the recipe of
    ``t``'s node when it has one, else the array itself.

    ``matmul``, ``conv2d``, ``dwconv2d``, ``gelu`` and ``attention`` keep
    their inputs through it, and so can a composite's adjoint (``record``);
    ``gelu``'s recipe then reads its input's recipe in turn, such as the
    stem's first convolution's. A consumer's
    adjoint runs before its producer's, so a recipe keeps no array alive
    longer than the producer's own adjoint does, and the parameters it reads
    are not yet yielded by ``gradient_stream``, so none has been updated in
    place when it runs.
    """
    node = t._node
    if node is not None and node.remake is not None:
        return node.remake
    data = t.data
    return lambda: data


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g: Array):
        return (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))

    return _make("add", data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g: Array):
        return (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape))

    return _make("sub", data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    # each operand is kept only for the other's gradient, so scaling by a
    # constant does not keep the scaled array alive
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g: Array):
        return (
            None if b_data is None else _unbroadcast(g * b_data, a_shape),
            None if a_data is None else _unbroadcast(g * a_data, b_shape),
        )

    return _make("mul", data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    return _make("neg", -a.data, (a,), lambda g: (-g,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} ({a.size} elements) to {shape}")
    data = a.data.reshape(shape)
    a_shape = a.data.shape

    def backward(g: Array):
        return (g.reshape(a_shape),)

    # a recipe passes through, so a ``linear`` on a map keeps its producer's
    parent = None if a._node is None else a._node.remake
    remake = None if parent is None else lambda: parent().reshape(shape)
    return _make("reshape", data, (a,), backward, remake=remake)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute axes. Output is a fresh array."""
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation for ndim {a.ndim}")
    data = np.ascontiguousarray(np.transpose(a.data, axes))
    inverse = tuple(np.argsort(axes))

    def backward(g: Array):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    return _make("transpose", data, (a,), backward)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join along the last axis."""
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=-1)
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in tensors])

    def backward(g: Array):
        return tuple(np.ascontiguousarray(g[..., lo:hi]) for lo, hi in zip(offsets, offsets[1:]))

    return _make("concat", data, tuple(tensors), backward)


def split(a: Tensor, sizes: Sequence[int]) -> tuple[Tensor, ...]:
    """Split the last axis into chunks of the given sizes."""
    if sum(sizes) != a.data.shape[-1]:
        raise ShapeError(f"split sizes {tuple(sizes)} do not cover the last axis of {a.shape}")
    a_shape = a.data.shape
    outs = []
    lo = 0
    for size in sizes:
        span = np.s_[..., lo : lo + size]

        def backward(g: Array, span=span):
            full = np.zeros(a_shape)
            full[span] = g
            return (full,)

        piece = np.ascontiguousarray(a.data[span])
        outs.append(_make("split", piece, (a,), backward))
        lo += size
    return tuple(outs)


def tensor_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())
    a_shape = a.data.shape

    def backward(g: Array):
        return (np.broadcast_to(g, a_shape).copy(),)

    return _make("tensor_sum", data, (a,), backward)


def tensor_mean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean())
    a_shape = a.data.shape

    def backward(g: Array):
        return (np.broadcast_to(g / n, a_shape).copy(),)

    return _make("tensor_mean", data, (a,), backward)


# ---------------------------------------------------------------------------
# dense ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product; 2-d, or batched with identical leading dims.

    A ``bias`` of shape ``(b.shape[-1],)`` is added in place to the fresh
    product, as in ``conv2d``: the values and gradients of a separate
    ``add``, without a second output array. When the adjoint keeps both
    operands (every trained projection) the node's recipe is the same
    product of them, bias added in place, so no consumer keeps the output.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2, got {a.shape} @ {b.shape}")
    if a.ndim != b.ndim:
        raise ShapeError(f"matmul rank mismatch: {a.shape} @ {b.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    # checked here, since an in-place add would broadcast a (1,) bias
    if bias is not None and bias.data.shape != b.data.shape[-1:]:
        raise ShapeError(f"matmul bias must have shape ({b.data.shape[-1]},), got {bias.shape}")

    data = np.matmul(a.data, b.data)
    if bias is not None:
        data += bias.data
    # as in ``mul``: each operand is kept only for the other's gradient, as
    # its producer's recipe when it has one
    a_get = kept(a) if b.requires_grad else None
    b_get = kept(b) if a.requires_grad else None
    bias_shape = bias.data.shape if bias is not None and bias.requires_grad else None

    def backward(g: Array):
        ga = None if b_get is None else np.matmul(g, np.swapaxes(b_get(), -1, -2))
        gb = None if a_get is None else np.matmul(np.swapaxes(a_get(), -1, -2), g)
        # ``add``'s reduction of the bias gradient
        return (ga, gb, None if bias_shape is None else _unbroadcast(g, bias_shape))

    remake = None
    if _GRAD_ENABLED and a_get is not None and b_get is not None:
        bias_data = None if bias is None else bias.data

        def remake() -> Array:
            out = np.matmul(a_get(), b_get())
            if bias_data is not None:
                out += bias_data
            return out

    inputs = (a, b) if bias is None else (a, b, bias)
    return _make("matmul", data, inputs, backward, a.data.size * b.data.shape[-1],
                 remake=remake)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: ``y = x @ weight (+ bias)``.

    ``x`` may have any leading shape; ``weight`` is ``(d_in, d_out)``.
    Composite of the primitive ops, so it needs no adjoint of its own: the
    rows are one ``matmul`` node, which adds the bias in place to its product.
    """
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-d, got {weight.shape}")
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(f"linear input {x.shape} does not match weight {weight.shape}")
    lead = x.data.shape[:-1]
    flat = reshape(x, (math.prod(lead), x.data.shape[-1])) if x.ndim != 2 else x
    out = matmul(flat, weight, bias)
    if x.ndim != 2:
        out = reshape(out, lead + (weight.data.shape[1],))
    return out


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _windows(x: Array, kh: int, kw: int, stride: int, padding: int) -> Array:
    """The read-only ``(N, ho, wo, kh, kw, C)`` view of every window of ``x``,
    zero-padded by ``padding`` on both spatial axes.

    ``[n, y, x, i, j]`` is the pixel that kernel tap ``(i, j)`` reads for
    output pixel ``(y, x)``; channels stay fastest, so a window reads whole
    contiguous pixels. At nonzero padding the view holds a padded copy of
    ``x``, alive as long as the view is.
    """
    n, h, w, c = x.shape
    if padding:
        padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
        padded[:, padding:-padding, padding:-padding] = x
        x = padded
    hp, wp = x.shape[1:3]
    sn, sh, sw, sc = x.strides
    shape = (n, (hp - kh) // stride + 1, (wp - kw) // stride + 1, kh, kw, c)
    strides = (sn, sh * stride, sw * stride, sh, sw, sc)
    windows = np.lib.stride_tricks.as_strided(x, shape, strides)
    # not ``writeable=False``: that sets ``view.flags.writeable``, which leaves
    # small allocations behind on every call where ``setflags`` leaves none
    windows.setflags(write=False)
    return windows


def _scatter_taps(
    x_shape: tuple[int, ...], kh: int, kw: int, stride: int, padding: int,
    share: Callable[[int, int], Array],
) -> Array:
    """A convolution's input gradient, the transpose of ``_windows``: adds
    ``share(i, j)``, the ``(N, ho, wo, C)`` gradient of the pixels tap ``(i, j)``
    read, into a zeroed padded grid, one tap at a time in row-major order, and
    drops the padding. ``share`` is released before the padding is dropped,
    so a caller that hands over the only reference to the arrays it reads
    (``conv2d``'s ``g_cols``) has them freed first."""
    n, h, w, c = x_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    grid = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    for i in range(kh):
        for j in range(kw):
            tap = grid[:, i : i + ho * stride : stride, j : j + wo * stride : stride]
            tap += share(i, j)
    del share
    if padding:
        grid = np.ascontiguousarray(grid[:, padding:-padding, padding:-padding])
    return grid


def _tap_slices(cols: Array) -> Callable[[int, int], Array]:
    """``_scatter_taps``' ``share`` over a ``(N, ho, wo, kh, kw, C)`` array of
    per-tap gradients, which the returned function holds alone."""
    return lambda i, j: cols[:, :, :, i, j]


def _conv_weight_matrix(weight: Array) -> Array:
    """``(O, C, kh, kw)`` -> the ``(kh*kw*C, O)`` matrix matching the patch matrix's columns."""
    o, c, kh, kw = weight.shape
    return weight.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)


# the bundled OpenBLAS runs a product of at most about this many
# multiply-adds through a small-matrix kernel that rounds differently, so a
# product cut into pieces this small does not reproduce the bits of the
# whole. That threshold is measured for this BLAS build, not promised
_SMALL_GEMM_MACS = 10**6

# bytes of patch matrix ``conv2d``'s forward builds at a time, at most.
# Blocks stay large on purpose: a block of a few rows would fall under
# ``_SMALL_GEMM_MACS`` and not reproduce the rows of the one-shot product
# bit for bit
_CONV_BLOCK_BYTES = 1 << 20


def _patch_product(windows: Array, w_mat: Array) -> Array:
    """The patch matrix of a ``_windows`` view times ``w_mat``, as ``(N, ho, wo, O)``.

    The patch matrix is built and multiplied in blocks of at most
    ``_CONV_BLOCK_BYTES`` (at least one unit each) into one preallocated
    output, each block a reshape copy of the view that dies after its
    product: blocks of as many whole images as fit when an image's patch
    matrix fits (a batch that fits is one product), blocks of as many output
    rows of one image as fit otherwise. With the bundled OpenBLAS each
    block's rows are those of the one-shot product, bit for bit, as long as
    every block stays above its small-matrix threshold.
    """
    n, ho, wo = windows.shape[:3]
    k, o = w_mat.shape
    out = np.empty((n, ho, wo, o))
    row = wo * k * 8
    if ho * row <= _CONV_BLOCK_BYTES:
        step = _CONV_BLOCK_BYTES // max(1, ho * row)  # an image of no channels is 0 bytes
        spans = [np.s_[lo : lo + step] for lo in range(0, n, step)]
    else:
        step = max(1, _CONV_BLOCK_BYTES // row)
        spans = [np.s_[i, lo : lo + step] for i in range(n) for lo in range(0, ho, step)]
    for span in spans:  # each ``out[span]`` is contiguous, so its reshape is a view
        np.matmul(windows[span].reshape(-1, k), w_mat, out=out[span].reshape(-1, o))
    return out


def _conv_weight_grad(windows: Array, g_mat: Array) -> Array:
    """``conv2d``'s ``(O, C, kh, kw)`` weight gradient: ``g_mat.T @ patches``
    for a ``_windows`` view and the ``(N*ho*wo, O)`` output gradient.

    Built tap by tap: each tap's ``(O, C)`` block is ``g_mat.T`` times a
    contiguous copy of that tap's window slice, so no ``(N*ho*wo, kh*kw*C)``
    patch matrix is made. With the bundled OpenBLAS each block is bitwise
    the one-shot product's columns as long as it stays above
    ``_SMALL_GEMM_MACS``; a 1x1 kernel, or a tap whose product would fall
    under it, takes the one-shot product.
    """
    kh, kw, c = windows.shape[3:]
    m, o = g_mat.shape
    if kh * kw == 1 or o * c * m <= _SMALL_GEMM_MACS:
        gw = g_mat.T @ windows.reshape(m, -1)
        return np.ascontiguousarray(gw.reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
    gw = np.empty((o, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            gw[:, :, i, j] = g_mat.T @ np.ascontiguousarray(windows[:, :, :, i, j]).reshape(m, c)
    return gw


def _check_conv_args(
    x: Tensor, w: Tensor, stride: int, padding: int, bias: Tensor | None
) -> None:
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv expects 4-d input and weight, got {x.shape}, {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"bad stride/padding: stride={stride} padding={padding}")
    kh, kw = w.data.shape[2], w.data.shape[3]
    if x.data.shape[1] + 2 * padding < kh or x.data.shape[2] + 2 * padding < kw:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input "
            f"{x.data.shape[1] + 2 * padding}x{x.data.shape[2] + 2 * padding}"
        )
    # checked here, since an in-place add would broadcast a (1,) bias
    if bias is not None and bias.data.shape != w.data.shape[:1]:
        raise ShapeError(f"conv bias must have shape ({w.data.shape[0]},), got {bias.shape}")


def conv2d(
    x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0, bias: Tensor | None = None
) -> Tensor:
    """2-d cross-correlation. ``x (N,H,W,C)``, ``weight (O,C,kh,kw)``, output ``(N,ho,wo,O)``.

    Output spatial size follows floor((H + 2p - kh)/stride) + 1. The
    ``_windows`` view, reshaped, is the ``(N*ho*wo, kh*kw*C)`` patch matrix of
    one matrix product with the weight, run in blocks of whole images or of
    image rows (``_patch_product``). A ``bias`` of shape ``(O,)`` is added in
    place to the fresh product: the values of a separate ``add``, without a
    second map. When the weight trains and the input is kept as its array
    (it has no recipe), that product is the node's recipe, so a consumer
    such as the stem's GELU keeps neither the output nor a copy of it.

    The weight gradient is ``g.T @ patches``, built tap by tap without the
    patch matrix (``_conv_weight_grad``). The input gradient is one product
    ``g_cols = g @ w_mat.T`` of every tap's share, which ``_scatter_taps``
    adds back into the input grid; ``g_cols`` is freed before the grid is
    trimmed. It stays one product on purpose. With the bundled OpenBLAS, at
    ``kh*kw*C = 252`` (the stem's 3x3 convs over 28 channels), a product
    cut into blocks of rows gives its last four columns (248-251) bits that
    depend on the blocks: row blocks of 4 to 56 rows of a 112x112 map
    differed from the one-shot product in 129 to 1,305 elements, on a
    tiny@224 step's gradients and on random operands alike, while columns
    in whole 8-wide panels were bitwise in any block. A blocked or per-tap
    input gradient is therefore a numerics decision of its own, not a
    bitwise rewrite.
    """
    _check_conv_args(x, weight, stride, padding, bias)
    if x.data.shape[3] != weight.data.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} vs weight {weight.shape}"
        )
    n, h, w, c = x.data.shape
    o, _, kh, kw = weight.data.shape
    w_data, bias_data = weight.data, None if bias is None else bias.data

    def product(x_data: Array) -> Array:
        out = _patch_product(_windows(x_data, kh, kw, stride, padding),
                             _conv_weight_matrix(w_data))
        if bias_data is not None:
            out += bias_data
        return out

    data = product(x.data)
    ho, wo = data.shape[1:3]

    # each operand is kept only for the other's gradient, the input as its
    # producer's recipe when it has one; the patch matrix is rebuilt in
    # backward, not captured, since a captured matrix would stay alive as
    # long as the tape does
    x_get = kept(x) if weight.requires_grad else None
    w_kept = w_data if x.requires_grad else None
    b_grad = bias is not None and bias.requires_grad
    # over an input kept as its array the forward is the node's recipe; over
    # a recipe it is not, so a recipe never reruns a chain of convolutions
    remake = None
    if _GRAD_ENABLED and x_get is not None and (x._node is None or x._node.remake is None):

        def remake() -> Array:
            return product(x_get())

    def backward(g: Array):
        g_mat = g.reshape(n * ho * wo, o)
        gx = gw = None
        if x_get is not None:
            gw = _conv_weight_grad(_windows(x_get(), kh, kw, stride, padding), g_mat)
        if w_kept is not None:
            # ``g_cols``, each tap's input gradient, is held by the scatter's
            # ``share`` alone, so it is freed before the padded grid is trimmed
            gx = _scatter_taps((n, h, w, c), kh, kw, stride, padding, _tap_slices(
                (g_mat @ _conv_weight_matrix(w_kept).T).reshape(n, ho, wo, kh, kw, c)))
        return (gx, gw, g.sum(axis=(0, 1, 2)) if b_grad else None)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make("conv2d", data, inputs, backward, n * o * c * kh * kw * ho * wo,
                 remake=remake)


def dwconv_taps(weight: Array) -> Array:
    """A ``(C, 1, kh, kw)`` depthwise weight as ``dwconv2d``'s C-contiguous ``(kh, kw, C)`` taps."""
    return np.ascontiguousarray(weight[:, 0].transpose(1, 2, 0))


def dwconv_apply(
    x: Array, taps: Array, stride: int, padding: int, bias: Array | None = None
) -> Array:
    """``dwconv2d``'s forward on arrays: the taps against the windows of ``x``, plus ``bias``."""
    out = np.einsum("nhwijc,ijc->nhwc", _windows(x, *taps.shape[:2], stride, padding), taps)
    if bias is not None:
        out += bias
    return out


def dwconv_weight_grad(x: Array, g: Array, kh: int, kw: int, stride: int, padding: int) -> Array:
    """``dwconv2d``'s ``(C, 1, kh, kw)`` weight gradient at input ``x``, output gradient ``g``."""
    gw = np.einsum("nhwijc,nhwc->ijc", _windows(x, kh, kw, stride, padding), g)
    return np.ascontiguousarray(gw.transpose(2, 0, 1))[:, None]


def dwconv_input_grad(
    g: Array, taps: Array, x_shape: tuple[int, ...], stride: int, padding: int
) -> Array:
    """``dwconv2d``'s input gradient at output gradient ``g``: a correlation of
    the reversed windows of ``g`` with the taps where ``dwconv2d`` says it
    holds the scatter's bits, else ``_scatter_taps``."""
    kh, kw, c = taps.shape
    if stride == 1 and c >= 2 and kh == kw and padding <= kh - 1:
        # the windows of ``g`` read back to front meet the taps in the
        # scatter's row-major order, so each pixel's sum is the scatter's
        flipped = _windows(g, kh, kw, 1, kh - 1 - padding)[:, :, :, ::-1, ::-1]
        return np.einsum("nhwijc,ijc->nhwc", flipped, taps)
    return _scatter_taps(x_shape, kh, kw, stride, padding, lambda i, j: g * taps[i, j])


def dwconv2d(
    x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0, bias: Tensor | None = None
) -> Tensor:
    """Depthwise 2-d cross-correlation. ``x (N,H,W,C)``, ``weight (C,1,kh,kw)``.

    One filter per channel; the output is ``(N,ho,wo,C)``, plus ``bias (C,)``
    when given, added in place as in ``conv2d``.

    The forward and the weight gradient are each one ``einsum`` over the
    ``_windows`` view (``dwconv_apply``, ``dwconv_weight_grad``). The weight
    enters as a C-contiguous ``(kh, kw, C)`` copy, ``dwconv_taps``: einsum's
    loop order follows its operands' strides, and with these, for C >= 2,
    every output element adds its taps in row-major tap order. At C = 1
    einsum picks another loop order, and the output can differ from that sum
    in the last bits. At stride 1, C >= 2 and a square kernel of
    ``k > padding`` taps a side, the input gradient (``dwconv_input_grad``)
    is the same kind of ``einsum``: the taps against the reversed windows of
    the output gradient padded by ``k - 1 - padding``, a correlation whose
    sums match the scatter's bit for bit. Otherwise ``_scatter_taps`` adds
    each tap's product with the output gradient into the input grid.
    """
    _check_conv_args(x, weight, stride, padding, bias)
    if weight.data.shape[1] != 1 or weight.data.shape[0] != x.data.shape[3]:
        raise ShapeError(
            f"dwconv2d weight must be (C,1,kh,kw) with C={x.data.shape[3]}, got {weight.shape}"
        )
    x_shape = x.data.shape
    kh, kw = weight.data.shape[2], weight.data.shape[3]
    taps = dwconv_taps(weight.data)
    data = dwconv_apply(x.data, taps, stride, padding, None if bias is None else bias.data)

    # as in ``conv2d``: each operand is kept only for the other's gradient
    x_get = kept(x) if weight.requires_grad else None
    w_taps = taps if x.requires_grad else None
    b_grad = bias is not None and bias.requires_grad

    def backward(g: Array):
        gw = None if x_get is None else dwconv_weight_grad(x_get(), g, kh, kw, stride, padding)
        gx = None if w_taps is None else dwconv_input_grad(g, w_taps, x_shape, stride, padding)
        return (gx, gw, g.sum(axis=(0, 1, 2)) if b_grad else None)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make("dwconv2d", data, inputs, backward, data.size * kh * kw)


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)

# bytes of output the memory-bound kernels work on at a time: a block, its
# inputs and the scratch blocks stay inside a core's L2 cache
_BLOCK_BYTES = 1 << 18


def row_blocks(width: int, arrays: Sequence[Array], scratch: int = 0):
    """Yield each of ``arrays``' rows of a block, then ``scratch`` buffers of its shape.

    The first array's rows of ``width`` values are cut into blocks of about
    ``_BLOCK_BYTES``, at least one row each. The other arrays are viewed as
    ``(rows, -1)``, so a per-row ``(rows, 1)`` array rides along; an array
    written through its blocks must be C-contiguous. The buffers are made
    once per call and reused by every block.
    """
    rows = arrays[0].size // width
    if not rows:
        return
    views = [a.reshape(rows, -1) for a in arrays]
    step = max(1, _BLOCK_BYTES // (8 * width))
    buffers = [np.empty((min(step, rows), width)) for _ in range(scratch)]
    for lo in range(0, rows, step):
        n = min(step, rows - lo)
        yield (*(v[lo : lo + n] for v in views), *(b[:n] for b in buffers))


def _gelu_tanh(x: Array, out: Array) -> None:
    """``tanh(_GELU_C * (x + 0.044715 * (x * x * x)))`` into ``out``, its only scratch."""
    np.multiply(x, x, out=out)  # x * x * x, not x**3: numpy's pow has no fast path for a cube
    np.multiply(out, x, out=out)
    np.multiply(0.044715, out, out=out)
    np.add(x, out, out=out)
    np.multiply(_GELU_C, out, out=out)
    np.tanh(out, out=out)


def gelu_rows(xd: Array, gate: Array | None) -> Array:
    """``gelu(xd)``, or ``gelu(xd * gate)`` for a ``(C,)`` gate, as a fresh array.

    Filled in blocks of whole rows (of single values without a gate), each
    block of the output first holding its ``xd * gate``, through one
    block-sized scratch for ``tanh``.
    """
    width = 1 if gate is None else xd.shape[-1]
    data = np.empty(xd.shape)
    for xb, out, t in row_blocks(width, (xd, data), 1):
        if gate is not None:
            xb = np.multiply(xb, gate, out=out)
        _gelu_tanh(xb, t)
        # out = 0.5 * x * (1.0 + t)
        np.multiply(0.5, xb, out=out)
        np.add(1.0, t, out=t)
        np.multiply(out, t, out=out)
    return data


def gelu_adjoint(xd: Array, gate: Array | None, g: Array, out: Array) -> Array | None:
    """The adjoint of ``gelu_rows(xd, gate)`` at output gradient ``g``, into ``out``.

    ``out``, which may be ``g``, gets ``g * gelu'(xd * gate)``, the gradient
    of the gated input, times the gate (``mul``'s adjoint). Each block of
    rows recomputes its ``xd * gate`` and its ``tanh`` in block-sized
    scratch. Given a gate, it returns the gate's gradient (else ``None``),
    the sum over rows of the unscaled gradient times ``xd``: each block's
    products are summed with the running sum carried in their first row,
    the row-by-row order numpy's ``.sum`` over leading axes takes, so the
    bits are those of ``(gx * xd).sum(...)`` with no full-size product.
    """
    gated = gate is not None
    width = xd.shape[-1] if gated else 1
    gate_sum = np.zeros(width) if gated and not xd.size else None
    # each block's gated input goes into its slice of ``out``, or into a
    # fourth scratch when ``out`` is ``g``, whose block it would overwrite
    scratch = gated and out is g
    # g * local, where sech2 = 1.0 - t**2 and
    # local = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    # for x the gated input
    for xb, gb, ob, t, s, u, *v in row_blocks(width, (xd, g, out), 3 + scratch):
        x0 = xb
        if gated:
            xb = np.multiply(xb, gate, out=v[0] if scratch else ob)
        _gelu_tanh(xb, t)
        np.multiply(t, t, out=s)
        np.subtract(1.0, s, out=s)
        np.multiply(0.5, xb, out=u)
        np.multiply(u, s, out=u)
        np.multiply(u, _GELU_C, out=u)
        np.multiply(xb, xb, out=s)
        np.multiply(3 * 0.044715, s, out=s)
        np.add(1.0, s, out=s)
        np.multiply(u, s, out=u)
        np.add(1.0, t, out=t)
        np.multiply(0.5, t, out=t)
        np.add(t, u, out=t)
        np.multiply(gb, t, out=ob)
        if gated:
            np.multiply(ob, x0, out=s)
            if gate_sum is not None:
                s[0] += gate_sum
            gate_sum = s.sum(axis=0)
            np.multiply(ob, gate, out=ob)
    return gate_sum


def gelu(x: Tensor, gate: Tensor | None = None) -> Tensor:
    """Gaussian error linear unit, tanh form, of ``x`` or of ``x * gate``.

    A ``gate`` of shape ``(C,)`` scales the last axis, as a ``mul`` before
    the ``gelu`` would, but the node keeps ``kept(x)`` (``x``'s recipe when
    it has one, such as a convolution's over a kept array) and the gate, not
    their product. ``gelu_rows`` fills the output, and the same call on the
    kept ``x`` and gate is the node's recipe, so no consumer keeps the output
    itself. The adjoint, ``gelu_adjoint``, recomputes each block's
    ``x * gate`` and ``tanh`` in scratch; the node returns the gradients of
    ``x`` and of the gate, and the walk drops one that is not needed. Both
    run the ufuncs of the two-node expression in its order, so the values
    are identical, and the gate's gradient is bitwise ``mul``'s whole-array
    sum of the unscaled input gradient times ``x``, without that full-size
    product.
    """
    if gate is not None and (x.ndim == 0 or gate.data.shape != x.data.shape[-1:]):
        raise ShapeError(f"gelu gate must have shape (C,) for input {x.shape}, got {gate.shape}")
    x_get = kept(x)
    gate_data = None if gate is None else gate.data
    data = gelu_rows(x.data, gate_data)

    def remake() -> Array:
        return gelu_rows(x_get(), gate_data)

    def backward(g: Array):
        xd = x_get()
        gx = np.empty(xd.shape)
        ggate = gelu_adjoint(xd, gate_data, g, gx)
        return (gx,) if gate_data is None else (gx, ggate)

    return _make("gelu", data, (x,) if gate is None else (x, gate), backward, remake=remake)


def _softmax_rows(x: Array, scale: float, out: Array) -> Array:
    """Softmax over the last axis of ``x * scale``, worked inside ``out`` (which may be ``x``)."""
    np.multiply(x, scale, out=out)
    np.subtract(out, out.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    np.divide(out, out.sum(axis=-1, keepdims=True), out=out)
    return out


def _softmax_adjoint(weights: Array, g: Array, scale: float, out: Array) -> Array:
    """``weights * (g - (g * weights).sum(axis=-1, keepdims=True)) * scale`` into
    ``out`` (which may be ``g``), a block of rows at a time through one scratch."""
    for w, gb, ob, s in row_blocks(weights.shape[-1], (weights, g, out), 1):
        np.multiply(gb, w, out=s)
        dot = s.sum(axis=-1, keepdims=True)
        np.subtract(gb, dot, out=s)
        np.multiply(w, s, out=ob)
        np.multiply(ob, scale, out=ob)
    return out


def softmax(x: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax over the last axis of ``x * scale``, max-subtracted for stability.

    The Python-float ``scale`` is multiplied in as the output array's first
    contents, as a ``mul`` before the ``softmax`` would; then the kernel
    subtracts, exponentiates and divides inside that array. The adjoint works
    through blocks of rows in one scratch and multiplies each block of its
    result by ``scale``; at the default 1.0 that is the unscaled softmax.
    Like every operator it leaves ``x`` unwritten; only ``attention``, which
    owns its scores, runs the kernel in place.
    """
    data = _softmax_rows(x.data, scale, np.empty(x.data.shape))
    return _make("softmax", data, (x,),
                 lambda g: (_softmax_adjoint(data, g, scale, np.empty(data.shape)),))


def attention(
    q: Tensor, k: Tensor, v: Tensor, proj: Tensor, n: int, heads: int, scale: float
) -> Tensor:
    """Multi-head attention of query rows ``q (N*T, C)`` over key and value
    rows ``k, v (N*S, C)``, then the output projection ``proj (C, C)``.

    Returns the ``(N*T, C)`` rows of ``softmax(q @ k^T, scale) @ v`` per head
    of ``C/heads`` channels, heads merged back, times ``proj``. The rows are
    split into contiguous ``(N, heads, T, C/heads)`` copies, keys straight
    into the ``(N, heads, C/heads, S)`` layout of the scores, which run
    through ``matmul``, the softmax and ``matmul`` inside ``no_grad()``; the
    merged rows then go through a fourth ``matmul``, the projection. The
    softmax overwrites the scores with the weights in their own array,
    running ``T.softmax``'s ufuncs in its order, and is reported to
    observers as a ``softmax`` result; the scores' ``matmul`` result
    therefore holds the weights afterwards. The query and key copies die
    once the scores are made, the value copy once the values are mixed and
    the mixed rows once projected, with or without a tape. The one node
    keeps ``kept`` of each input, so a projection's recipe rather than its
    rows, and no mixed rows; its adjoint rebuilds the copies with the
    forward's reshapes and transposes, recomputes the scores, weights and
    mixed rows with the same kernels in plain numpy, takes the gradients of
    ``proj`` and of the mixed rows with ``matmul``'s own expressions and
    returns the gradients of all four inputs, so values and gradients are
    bitwise those of separate split, product, softmax, product, merge and
    projection nodes. Without a tape the input rows die once split, and no
    second scores-sized array is made.
    """
    if q.ndim != 2 or k.ndim != 2 or k.data.shape != v.data.shape:
        raise ShapeError(
            f"attention needs 2-d rows with k, v alike, got {q.shape}, {k.shape}, {v.shape}"
        )
    rows, c = q.data.shape
    if n < 1 or heads < 1 or k.data.shape[1] != c or c % heads or rows % n or k.data.shape[0] % n:
        raise ShapeError(
            f"attention rows {q.shape}, {k.shape} do not split into {n} images of {heads} heads"
        )
    if proj.data.shape != (c, c):
        raise ShapeError(f"attention projection must have shape ({c}, {c}), got {proj.shape}")
    d = c // heads
    inputs = (q, k, v, proj) if taped(q, k, v, proj) else ()
    gets = tuple(kept(a) for a in inputs)

    # the head splits of the rows: queries as ``(N, heads, T, d)``, values as
    # ``(N, heads, S, d)`` and, with ``axes`` (0, 2, 3, 1), keys straight into
    # the scores' ``(N, heads, d, S)`` layout
    def heads_of(a: Array, axes: tuple[int, ...] = (0, 2, 1, 3)) -> Array:
        return np.ascontiguousarray(a.reshape(n, -1, heads, d).transpose(axes))

    def rows_of(a: Array, axes: tuple[int, ...]) -> Array:
        return np.ascontiguousarray(a.transpose(axes)).reshape(-1, c)

    q4, k4, v4 = heads_of(q.data), heads_of(k.data, (0, 2, 3, 1)), heads_of(v.data)
    del q, k, v

    # ``a`` is rebound to the scores, the weights (in the scores' array), the
    # mixed values and the mixed rows in turn
    with no_grad():
        a = matmul(Tensor(q4), Tensor(k4))
        del q4, k4
        a = _make("softmax", _softmax_rows(a.data, scale, a.data), (), None)
        a = matmul(a, Tensor(v4)).data
        del v4
        a = rows_of(a, (0, 2, 1, 3))
        data = matmul(Tensor(a), proj).data
    del a

    def backward(g: Array):
        q_get, k_get, v_get, proj_get = gets
        q4, k4 = heads_of(q_get()), heads_of(k_get(), (0, 2, 3, 1))
        weights = np.matmul(q4, k4)
        _softmax_rows(weights, scale, weights)
        v4 = heads_of(v_get())
        # the projection's adjoint, as ``matmul``'s, on the rebuilt mixed rows
        mixed = rows_of(np.matmul(weights, v4), (0, 2, 1, 3))
        gproj = np.matmul(np.swapaxes(mixed, -1, -2), g)
        del mixed
        go = heads_of(np.matmul(g, np.swapaxes(proj_get(), -1, -2)))
        gv = rows_of(np.matmul(np.swapaxes(weights, -1, -2), go), (0, 2, 1, 3))
        gs = np.matmul(go, np.swapaxes(v4, -1, -2))
        del go, v4
        _softmax_adjoint(weights, gs, scale, gs)
        del weights
        gq = rows_of(np.matmul(gs, np.swapaxes(k4, -1, -2)), (0, 2, 1, 3))
        gk = rows_of(np.matmul(np.swapaxes(q4, -1, -2), gs), (0, 3, 1, 2))
        return gq, gk, gv, gproj

    return _make("attention", data, inputs, backward)


_LN_EPS = 1e-5


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    The centred array becomes ``xhat`` in place, and the output array holds
    the squares before it holds the result, ``xhat * gamma + beta``. The node
    keeps that last step, on the kept ``xhat``, as the recipe of the output,
    so no consumer keeps the output itself. The adjoint's input gradient
    works through blocks of rows in two scratches; the scale and shift
    gradients stay whole-array sums over rows.
    """
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layernorm scale/shift must have shape ({d},), got {gamma.shape}, {beta.shape}"
        )
    xd = np.ascontiguousarray(x.data)
    xhat = np.subtract(xd, xd.mean(axis=-1, keepdims=True))
    data = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(data.mean(axis=-1, keepdims=True) + _LN_EPS)
    np.multiply(xhat, inv, out=xhat)
    gamma_data, beta_data = gamma.data, beta.data

    def affine(out: Array) -> Array:
        np.multiply(xhat, gamma_data, out=out)
        return np.add(out, beta_data, out=out)

    affine(data)

    def backward(g: Array):
        axes = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        # gx = inv * (gxhat - mean_g - xhat * mean_gx), with gxhat = g * gamma,
        # mean_g its row mean and mean_gx the row mean of gxhat * xhat
        gx = np.empty(xhat.shape)
        for xb, gb, inv_b, gxb, gxhat, s in row_blocks(d, (xhat, g, inv, gx), 2):
            np.multiply(gb, gamma_data, out=gxhat)
            mean_g = gxhat.mean(axis=-1, keepdims=True)
            np.multiply(gxhat, xb, out=s)
            mean_gx = s.mean(axis=-1, keepdims=True)
            np.subtract(gxhat, mean_g, out=gxhat)
            np.multiply(xb, mean_gx, out=s)
            np.subtract(gxhat, s, out=gxhat)
            np.multiply(inv_b, gxhat, out=gxb)
        return (gx, ggamma, gbeta)

    return _make("layernorm", data, (x, gamma, beta), backward,
                 remake=lambda: affine(np.empty(xhat.shape)))


def avgpool_global(x: Tensor) -> Tensor:
    """Mean over the spatial grid: ``(N,H,W,C) -> (N,C)``."""
    if x.ndim != 4:
        raise ShapeError(f"avgpool_global expects (N,H,W,C), got {x.shape}")
    n, h, w, c = x.data.shape
    data = x.data.mean(axis=(1, 2))

    def backward(g: Array):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), (n, h, w, c)).copy(),)

    return _make("avgpool_global", data, (x,), backward)


def cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits (N,K)``."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N,K) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.data.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits {logits.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"labels must be integers, got dtype {labels.dtype}")
    n, k = logits.data.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    data = np.asarray(-log_probs[np.arange(n), labels].mean())

    def backward(g: Array):
        p = np.exp(log_probs)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n, )

    return _make("cross_entropy", data, (logits,), backward)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_difference(
    loss_fn: Callable[[], Tensor],
    param: Tensor,
    indices: Sequence[tuple[int, ...]],
    h: float = 1e-3,
) -> dict[tuple[int, ...], float]:
    """Central-difference estimates of d(loss)/d(param[idx]) for chosen entries.

    ``loss_fn`` must rebuild the loss from scratch on every call (it reads the
    current contents of ``param``). The parameter is perturbed in place and
    restored exactly.
    """
    out: dict[tuple[int, ...], float] = {}
    for idx in indices:
        original = param.data[idx]
        param.data[idx] = original + h
        up = loss_fn().item()
        param.data[idx] = original - h
        down = loss_fn().item()
        param.data[idx] = original
        out[idx] = (up - down) / (2.0 * h)
    return out


def relative_error(analytic: float, numeric: float) -> float:
    """|a - b| scaled by the larger magnitude, floored at 1e-8 to avoid 0/0."""
    denom = max(abs(analytic), abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom
