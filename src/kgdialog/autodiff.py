"""Dense 2-D float64 tensors with reverse-mode differentiation.

Every value is a rows x cols matrix. Operations record their inputs on the
output tensor, so the compute graph of one forward pass lives in the tensor
parent links; ``Tensor.backward`` replays it once in reverse topological
order. A batch of sequences is one matrix whose rows run segment after
segment, described by a list of segment lengths: ``segment_attention`` and
``mean_rows`` work within each segment. Rank-3 arrays appear only inside
``segment_attention``, which pads the segments to a common length for its
batched matmuls; there is no broadcasting beyond ``linear``'s row-vector
bias and ``gate``'s per-row weights.

Python work per node dominates at this package's matrix sizes, so the
heavy composites are single nodes with hand-written backwards:
``linear``, ``attention`` (scaled, causal or plain softmax(q k^T) v),
``segment_attention``, ``gate`` (the two-way softmax mix), ``layer_norm``,
``softmax_rows``, ``mean_rows``, ``cross_entropy_loss`` and
``frobenius_distance_sq``. The attention weights that ``attention``
returns, and the row weights that ``gate`` returns, are data-only tensors:
they carry no graph, and gradients flow through the op's main output alone.

Trainable leaves live in a ``ParamBuffer``: their values are views into one
flat array and their gradients accumulate into views of a second, so the
optimizer and the ``squared_norm`` penalty each work on the whole buffer in
a few numpy calls. The only module state is the ``no_grad`` switch.
"""
from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-12
# Entries per pass of a whole-buffer update (256 KB per float64 array), so
# that a block of every array it touches stays in cache across its numpy
# calls; NVIDIA apex's multi-tensor apply chunks its flat lists likewise.
BLOCK = 1 << 15

_grad_enabled = True


@contextmanager
def no_grad():
    """Suspend graph construction (inference paths); forward values are
    unchanged, but outputs carry no parents and backward is impossible."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A rows x cols matrix of 64-bit reals, optionally tracking gradients.

    ``grad`` is allocated lazily and accumulates across backward calls until
    the owner resets it; repeated ``backward`` runs therefore add up.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_gview")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are rank-2; got rank {arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        # this tensor's view of its ParamBuffer's flat gradient, if any
        self._gview: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def _accum(self, g: np.ndarray) -> None:
        # the first contribution is copied, never aliased: backward closures
        # hand the same array to several parents
        if self.grad is not None:
            self.grad += g
        elif self._gview is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self._gview[...] = g
            self.grad = self._gview

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` on every reachable tensor that requires it."""
        if self.shape != (1, 1):
            raise ValueError(f"backward() needs a 1x1 loss, got {self.shape}")
        self._accum(np.ones((1, 1)))
        for node in reversed(topo_order(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def topo_order(root: Tensor) -> list[Tensor]:
    """Topological order of the compute graph below ``root`` (inputs first).

    Iterative so deep decode chains cannot hit the recursion limit. Each node
    appears exactly once; the graph is acyclic because ops only ever link new
    outputs to existing tensors.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None] | None) -> Tensor:
    """An op output over ``data``, which the op has already made a 2-D
    float64 array, so the slots are filled without ``Tensor``'s checks."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out._gview = data, None, None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad, out._parents, out._backward = True, parents, backward
    else:
        out.requires_grad, out._parents, out._backward = False, (), None
    return out


class ParamBuffer:
    """Trainable leaf tensors stored back to back in one flat array.

    Joining copies each tensor's values into ``values`` and rebinds its
    ``data`` to its view there, so code that writes parameters must write
    into ``t.data[...]``. The flat gradient ``grads`` is made on first use
    by ``collect_grads``, with ``scratch``, one ``BLOCK`` of work space for
    whole-buffer updates, which run block by block over ``spans()``; from
    then on each tensor's first gradient contribution of a backward pass is
    copied into its view of ``grads``, and later ones add there.
    ``release_grads`` drops both again. Two buffers never share memory.
    """

    __slots__ = ("tensors", "sizes", "values", "grads", "scratch")

    def __init__(self, tensors: Sequence[Tensor]):
        self.tensors = tuple(tensors)
        for i, t in enumerate(self.tensors):
            if not t.requires_grad:
                raise ValueError(f"ParamBuffer: tensor {i} does not "
                                 f"require gradients")
            if t.data.base is not None:
                raise ValueError(f"ParamBuffer: tensor {i}'s values are a "
                                 f"view of another array (a ParamBuffer's, "
                                 f"say); give it an array of its own")
        self.sizes = [t.data.size for t in self.tensors]
        self.values = np.zeros(sum(self.sizes))
        self.grads: np.ndarray | None = None
        self.scratch: np.ndarray | None = None
        for t, view in zip(self.tensors, self._views(self.values)):
            view[...] = t.data
            t.data = view

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        bounds = np.cumsum([0] + self.sizes)
        return [flat[lo:hi].reshape(t.data.shape)
                for t, lo, hi in zip(self.tensors, bounds[:-1], bounds[1:])]

    def collect_grads(self, fill: bool = False) -> list[bool]:
        """Gather every tensor's gradient into its view of ``grads`` (made
        here on first use; a gradient assigned directly is copied in) and
        return which tensors had one. ``fill`` zeroes the views of the
        others and makes those their gradients."""
        if self.grads is None:
            self.grads = np.zeros(self.values.size)
            self.scratch = np.empty(min(BLOCK, self.values.size))
            for t, view in zip(self.tensors, self._views(self.grads)):
                t._gview = view
        reached = []
        for t in self.tensors:
            g = t.grad
            reached.append(g is not None)
            if g is t._gview or (g is None and not fill):
                continue
            if g is None:
                t._gview.fill(0.0)
            else:
                t._gview[...] = g
            t.grad = t._gview
        return reached

    def spans(self) -> list[slice]:
        """The runs of at most ``BLOCK`` entries that cover the buffer."""
        n = self.values.size
        return [slice(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]

    def zero_grad(self) -> None:
        for t in self.tensors:
            t.grad = None

    def release_grads(self) -> None:
        """Drop the flat gradient, the scratch array and every tensor's
        gradient; the next ``collect_grads`` makes them afresh."""
        self.grads = self.scratch = None
        for t in self.tensors:
            t.grad = t._gview = None


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------- primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g)

    return _node(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return _node(a.data * b.data, (a, b), backward)


def mul_scalar(x: Tensor, c: float) -> Tensor:
    def backward(g):
        if x.requires_grad:
            x._accum(g * c)

    return _node(x.data * c, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims {a.shape} x {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[n,d_in] @ w[d_in,d_out] + b[1,d_out], the bias broadcast over
    rows, as one node."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"linear: x {x.shape}, w {w.shape}, b {b.shape} "
                         f"do not fit")

    def backward(g):
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            b._accum(g.sum(axis=0, keepdims=True))

    return _node(x.data @ w.data + b.data, (x, w, b), backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        if x.requires_grad:
            x._accum(np.full_like(x.data, g[0, 0]))

    return _node(np.array([[x.data.sum()]]), (x,), backward)


def squared_norm(params: ParamBuffer) -> Tensor:
    """Sum of the squared entries of every tensor in ``params``, as one
    scalar node: a dot product of the flat values with themselves.

    Its backward adds 2 g p to the flat gradient, after giving every tensor
    a gradient. The node links no parents, so it adds no leaves to the
    graph; in reverse topological order it runs after every op that also
    reaches the parameters, as the penalty always has."""
    values = params.values

    def backward(g):
        params.collect_grads(fill=True)
        c, grads = 2.0 * g[0, 0], params.grads
        for run in params.spans():
            s = params.scratch[:run.stop - run.start]
            np.multiply(values[run], c, out=s)
            grads[run] += s

    # einsum's own loop rather than a BLAS dot, which OpenBLAS spreads over
    # threads at this length and which then waits whenever a core is busy
    out = _node(np.array([[np.einsum("i,i->", values, values)]]), (), None)
    if _grad_enabled and params.tensors:
        out.requires_grad, out._backward = True, backward
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Exp-normalize along the last axis, with max subtraction for overflow
    safety; -inf logits get exactly zero weight."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient at the logits of ``_softmax``, given the gradient g at its
    output ``weights``."""
    return (g - (g * weights).sum(axis=-1, keepdims=True)) * weights


def _segments(lengths: Sequence[int], n: int, op: str) -> np.ndarray:
    """Validate segment lengths covering n rows; return them as an array."""
    lens = np.asarray(lengths, dtype=np.intp)
    if lens.ndim != 1 or not lens.size or lens.min() < 1 or lens.sum() != n:
        raise ValueError(f"{op}: segment lengths {list(lengths)} do not "
                         f"split {n} rows into non-empty runs")
    return lens


def mean_rows(x: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """Average each run of ``lengths`` contiguous rows of x[n,d] into one
    row, giving len(lengths) x d; no lengths means one run of all n rows."""
    n = x.shape[0]
    lens = _segments([n] if lengths is None else lengths, n, "mean_rows")
    starts = np.cumsum(lens) - lens
    counts = lens[:, None].astype(np.float64)

    def backward(g):
        if x.requires_grad:
            x._accum(np.repeat(g / counts, lens, axis=0))

    return _node(np.add.reduceat(x.data, starts, axis=0) / counts, (x,),
                 backward)


def segment_attention(q: Tensor, k: Tensor, v: Tensor, lengths: Sequence[int],
                      scale: bool = False) -> Tensor:
    """softmax(q k^T) v computed separately inside each run of ``lengths``
    contiguous rows, so a row attends only to the rows of its own segment.

    One node. The G segments are padded to G x L x D with L the longest
    segment, padded keys get zero weight, and the products are batched
    matmuls, so the cost is G L^2 D rather than (sum of lengths)^2 D.
    ``scale`` divides the logits by sqrt(D).
    """
    n, d = q.shape
    if k.shape != (n, d) or v.shape != (n, d):
        raise ValueError(f"segment_attention: q {q.shape}, k {k.shape}, "
                         f"v {v.shape} differ")
    lens = _segments(lengths, n, "segment_attention")
    g_count, width = lens.size, int(lens.max())
    c = 1.0 / np.sqrt(d) if scale else 1.0
    uniform = lens.min() == width
    if uniform:
        # equal lengths (one segment included): padding is a reshape
        def pad(a):
            return a.reshape(g_count, width, d)

        def unpad(a):
            return a.reshape(n, d)
    else:
        seg = np.repeat(np.arange(g_count), lens)
        pos = np.arange(n) - np.repeat(np.cumsum(lens) - lens, lens)

        def pad(a):
            out = np.zeros((g_count, width, d))
            out[seg, pos] = a
            return out

        def unpad(a):
            return a[seg, pos]

    qp, kp, vp = pad(q.data), pad(k.data), pad(v.data)
    logits = np.matmul(qp, kp.transpose(0, 2, 1)) * c
    if not uniform:
        padded_key = np.arange(width)[None, None, :] >= lens[:, None, None]
        logits[np.broadcast_to(padded_key, logits.shape)] = -np.inf
    weights = _softmax(logits)

    def backward(g):
        gp = pad(g)
        if v.requires_grad:
            v._accum(unpad(np.matmul(weights.transpose(0, 2, 1), gp)))
        if q.requires_grad or k.requires_grad:
            gl = _softmax_grad(np.matmul(gp, vp.transpose(0, 2, 1)),
                               weights) * c
            if q.requires_grad:
                q._accum(unpad(np.matmul(gl, kp)))
            if k.requires_grad:
                k._accum(unpad(np.matmul(gl.transpose(0, 2, 1), qp)))

    return _node(unpad(np.matmul(weights, vp)), (q, k, v), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat_rows: no parts")
    cols = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != cols:
            raise ValueError("concat_rows: column counts differ")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accum(g[lo:hi])

    return _node(np.concatenate([p.data for p in parts], axis=0),
                 tuple(parts), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= x.shape[0]):
        raise ValueError(f"slice_rows: [{start}:{stop}] outside {x.shape}")

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[start:stop] = g
            x._accum(gx)

    return _node(x.data[start:stop].copy(), (x,), backward)


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of x by index (embedding lookup); duplicates allowed."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError("take_rows: index out of range")

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            x._accum(gx)

    return _node(x.data[idx].copy() if idx.size else
                 np.zeros((0, x.shape[1])), (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Exp-normalize each row, with max subtraction for overflow safety."""
    out_data = _softmax(x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(_softmax_grad(g, out_data))

    return _node(out_data, (x,), backward)


def gate(x: Tensor, y: Tensor, s_x: Tensor,
         s_y: Tensor) -> tuple[Tensor, Tensor]:
    """Row-wise convex mix of x[n,d] and y[n,d], as one node: the n x 1
    scores s_x, s_y softmax-normalize per row to weights (r_x, r_y), and
    row i of the output is r_x[i] x[i] + r_y[i] y[i].

    Returns (mix, weights) with the n x 2 weights a data-only tensor.
    """
    if x.shape != y.shape or s_x.shape != (x.shape[0], 1) \
            or s_y.shape != s_x.shape:
        raise ValueError(f"gate: x {x.shape}, y {y.shape}, scores "
                         f"{s_x.shape} and {s_y.shape} do not fit")
    r = _softmax(np.concatenate((s_x.data, s_y.data), axis=1))
    r_x, r_y = r[:, :1], r[:, 1:]

    def backward(g):
        if x.requires_grad:
            x._accum(g * r_x)
        if y.requires_grad:
            y._accum(g * r_y)
        if s_x.requires_grad or s_y.requires_grad:
            gr = np.concatenate(((g * x.data).sum(axis=1, keepdims=True),
                                 (g * y.data).sum(axis=1, keepdims=True)),
                                axis=1)
            gs = _softmax_grad(gr, r)
            if s_x.requires_grad:
                s_x._accum(gs[:, :1])
            if s_y.requires_grad:
                s_y._accum(gs[:, 1:])

    return (_node(x.data * r_x + y.data * r_y, (x, y, s_x, s_y), backward),
            _node(r, (), None))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization (variance + eps in the denominator), then
    elementwise gain and bias (both 1 x d, broadcast over rows).

    Row means are ``sum / d``, the very operations of ``np.mean`` and
    ``np.var`` without their Python-level overhead, so the values are
    bit-identical to those functions'."""
    n, d = x.shape
    if d < 2:
        raise ValueError("layer_norm: needs at least 2 columns")
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise ValueError("layer_norm: gain/bias must be 1 x d")
    xc = x.data - x.data.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=1, keepdims=True) / d + eps)
    xhat = xc * inv

    def backward(g):
        if gain.requires_grad:
            gain._accum((g * xhat).sum(axis=0, keepdims=True))
        if bias.requires_grad:
            bias._accum(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            gh = g * gain.data
            term = gh - gh.sum(axis=1, keepdims=True) / d \
                - xhat * ((gh * xhat).sum(axis=1, keepdims=True) / d)
            x._accum(term * inv)

    return _node(xhat * gain.data + bias.data, (x, gain, bias), backward)


# ---------------------------------------------------------------- composites

def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer perceptron: linear, tanh, linear (shape-preserving when
    w2 maps back to the input width)."""
    return linear(tanh(linear(x, w1, b1)), w2, b2)


def cross_attention(q_src: Tensor, kv_src: Tensor, w_q: Tensor, w_k: Tensor,
                    w_v: Tensor, scale: bool = False,
                    causal: bool = False) -> tuple[Tensor, Tensor]:
    """softmax((q_src w_q)(kv_src w_k)^T) (kv_src w_v): the three
    projections, then one ``attention`` node.

    Returns (output, attention weights) so callers can inspect where each
    query row looked; ``scale`` and ``causal`` are as in ``attention``.
    """
    return attention(matmul(q_src, w_q), matmul(kv_src, w_k),
                     matmul(kv_src, w_v), scale=scale, causal=causal)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: bool = False,
              causal: bool = False) -> tuple[Tensor, Tensor]:
    """softmax(q k^T) v over already projected queries, keys and values,
    as one node; returns (output, attention weights).

    ``scale`` divides the logits by sqrt(D); off, attention is plain
    softmax(QK^T)V. ``causal`` needs as many queries as keys and gives
    query i exactly zero weight on every key after i. The weights are a
    data-only tensor, for inspection.
    """
    (n_q, d), n_k = q.shape, k.shape[0]
    if n_k < 1:
        raise ValueError("attention: needs at least one key/value row")
    if k.shape[1] != d or v.shape[0] != n_k:
        raise ValueError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"do not fit")
    if causal and n_q != n_k:
        raise ValueError(f"attention: causal needs square logits, got "
                         f"{n_q} queries over {n_k} keys")
    c = 1.0 / np.sqrt(d) if scale else 1.0  # times 1.0 is exact
    logits = (q.data @ k.data.T.copy()) * c
    if causal:
        rows = np.arange(n_q)
        logits[rows[:, None] < rows] = -np.inf
    weights = _softmax(logits)

    def backward(g):
        if v.requires_grad:
            v._accum(weights.T @ g)
        if q.requires_grad or k.requires_grad:
            gl = _softmax_grad(g @ v.data.T, weights) * c
            if q.requires_grad:
                q._accum(gl @ k.data)
            if k.requires_grad:
                k._accum(gl.T @ q.data)

    return (_node(weights @ v.data, (q, k, v), backward),
            _node(weights, (), None))


def frobenius_distance_sq(a: Tensor, b: Tensor) -> Tensor:
    """Sum of squared elementwise differences, as one scalar node."""
    _check_same_shape(a, b, "frobenius_distance_sq")
    d = a.data - b.data

    def backward(g):
        gd = 2.0 * g[0, 0] * d
        if a.requires_grad:
            a._accum(gd)
        if b.requires_grad:
            b._accum(-gd)

    return _node(np.array([[float((d * d).sum())]]), (a, b), backward)


def cross_entropy_loss(probs: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-probability of each target token, as one node.

    Row i of the n x V matrix ``probs`` is the distribution that predicts
    ``targets[i]``. A target probability below 1e-12 is clamped there (with
    a warning) so the loss stays finite; a clamped entry gets no gradient.
    """
    n, v = probs.shape
    if n != len(targets) or not n:
        raise ValueError("cross_entropy_loss: need one nonzero row per target")
    for step, t in enumerate(targets):
        if not (0 <= t < v):
            raise ValueError(f"cross_entropy_loss: target {t} out of range "
                             f"for V={v} at step {step}")
    rows, cols = np.arange(n), np.asarray(targets, dtype=np.intp)
    picked = probs.data[rows, cols]
    for step in np.flatnonzero(picked < LOG_FLOOR):
        logger.warning("cross_entropy_loss: clamping zero probability at "
                       "step %d (target %d)", step, targets[step])
    kept = picked > LOG_FLOOR
    clamped = np.maximum(picked, LOG_FLOOR)

    def backward(g):
        if probs.requires_grad:
            gp = np.zeros_like(probs.data)
            gp[rows, cols] = g[0, 0] * (-1.0 / n) / clamped * kept
            probs._accum(gp)

    return _node(np.array([[np.log(clamped).sum() * (-1.0 / n)]]),
                 (probs,), backward)
