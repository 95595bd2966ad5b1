"""Dense 2-D float64 tensors with reverse-mode differentiation.

Every value is a rows x cols matrix. Operations record their inputs on the
output tensor, so the compute graph of one forward pass lives in the tensor
parent links; ``Tensor.backward`` replays it once in reverse topological
order. A batch of sequences is one matrix whose rows run segment after
segment, described by a list of segment lengths: ``segment_attention`` and
``mean_rows`` work within each segment. Rank-3 arrays appear only inside
``segment_attention``, which pads the segments to a common length for its
batched matmuls; there is no broadcasting beyond the row-vector biases and
gains and ``gate``'s per-row weights.

Python work per node dominates at this package's matrix sizes, so each
layer is a single node with a hand-written backward:

- ``embed``: token rows plus position rows, gathered from two tables;
- ``cross_attention``: softmax((x w_q)(y w_k)^T)(y w_v), the three
  projections included, scaled as the caller's parameters say, or causal;
- ``segment_attention``: segmented self-attention, projections included;
- ``mlp``: linear, tanh, linear;
- ``residual_layer_norm``: layer_norm(h + y), the post-norm residual;
- ``linear``, ``gate`` (the two-way softmax mix), ``layer_norm``,
  ``softmax_rows``, ``mean_rows``, ``cross_entropy_loss`` (from logits),
  ``frobenius_distance_sq``, ``squared_norm`` and ``weighted_sum`` (the
  training objective's sum of weighted scalars).

Each fused forward runs the numpy operations of the chain of smaller ops it
replaced, in the same order, so its values are the same bits; its backward
hands every input its contributions in the order the chain's nodes did.
The attention weights that ``cross_attention`` returns, and the row
weights that ``gate`` returns, are data-only tensors: they carry no graph,
and gradients flow through the op's main output alone.

The forward arithmetic of the softmax, layer-norm and MLP ops lives in
kernels on plain arrays (``_softmax``, ``_layer_norm_rows``, ``_mlp``),
which the decoder's cached inference steps call directly, so a step builds
no node and computes the same bits as the graph ops.

Trainable leaves live in a ``ParamBuffer``: their values are views into one
flat array and their gradients accumulate into views of a second, so the
optimizer and the ``squared_norm`` penalty each work on the whole buffer in
a few numpy calls. Table lookups (``embed``, ``take_rows``) add their row
gradients into the table's gradient in place. The only module state is the
``no_grad`` switch, which is per thread.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

# Entries per pass of a whole-buffer update (256 KB per float64 array), so
# that a block of every array it touches stays in cache across its numpy
# calls; NVIDIA apex's multi-tensor apply chunks its flat lists likewise.
BLOCK = 1 << 15
# The variance offset of every layer norm.
LN_EPS = 1e-5


class _GradMode(threading.local):
    enabled = True  # the class default: every new thread records graphs


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Suspend graph construction in this thread; forward values are
    unchanged, but outputs carry no parents and backward is impossible."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


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

    def _accum(self, g: np.ndarray, fresh: bool = False) -> None:
        # the first contribution is copied, never aliased: backward closures
        # hand the same array to several parents. ``fresh`` marks an array
        # the caller made for this tensor alone, which is kept as it is.
        if self.grad is not None:
            self.grad += g
        elif self._gview is not None:
            self._gview[...] = g
            self.grad = self._gview
        elif fresh:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=np.float64)

    def _add_rows(self, idx: np.ndarray, g: np.ndarray) -> None:
        """Add row i of g into row idx[i] of the gradient, in place.

        The rows that share an index are summed first, in order, and each
        sum is added once: the same bits as accumulating a zero matrix
        holding those sums, without building that matrix."""
        if self.grad is None:
            if self._gview is None:
                self.grad = np.zeros_like(self.data)
            else:
                self._gview.fill(0.0)
                self.grad = self._gview
        first: dict[int, int] = {}
        where = [first.setdefault(i, len(first)) for i in idx.tolist()]
        if len(first) == len(where):
            self.grad[idx] += g
        else:
            sums = np.zeros((len(first), g.shape[1]))
            np.add.at(sums, where, g)
            self.grad[list(first)] += sums

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
    if _grad_mode.enabled:
        for p in parents:  # a loop: cheaper than any() over a generator
            if p.requires_grad:
                out.requires_grad, out._parents = True, parents
                out._backward = backward
                return out
    out.requires_grad, out._parents, out._backward = False, (), None
    return out


class ParamBuffer:
    """Trainable leaf tensors stored back to back in one flat array.

    Joining copies each tensor's values into ``values`` and rebinds its
    ``data`` to its view there, so code that writes parameters must write
    into ``t.data[...]``; ``cut`` makes new tensors over given values
    instead. The flat gradient ``grads`` is made on
    first use by ``collect_grads``, with ``scratch``, one ``BLOCK`` of work
    space for whole-buffer updates, which run block by block over
    ``spans()``; from then on each tensor's first gradient contribution of
    a backward pass is copied into its view of ``grads``, and later ones
    add there.
    ``release_grads`` drops both again. Two buffers never share memory.
    """

    __slots__ = ("tensors", "shapes", "values", "grads", "scratch")

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
        self.shapes = [t.shape for t in self.tensors]
        self.values = np.zeros(sum(t.data.size for t in self.tensors))
        self.grads: np.ndarray | None = None
        self.scratch: np.ndarray | None = None
        for t, view in zip(self.tensors, self._views(self.values)):
            view[...] = t.data
            t.data = view

    @classmethod
    def cut(cls, values: np.ndarray, shapes) -> "ParamBuffer":
        """New trainable tensors of ``shapes``, views of ``values`` in turn."""
        buf = cls(())
        buf.values, buf.shapes = values, list(shapes)
        buf.tensors = tuple(Tensor(v, True) for v in buf._views(values))
        return buf

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        ends = np.cumsum([r * c for r, c in self.shapes], dtype=np.int64)
        return [flat[end - r * c:end].reshape(r, c)
                for (r, c), end in zip(self.shapes, ends)]

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

    def norm_sq(self) -> float:
        """The sum of the squared values: the L2 penalty before its weight."""
        # einsum's own loop rather than a BLAS dot, which OpenBLAS spreads
        # over threads at this length and which then waits whenever a core
        # is busy
        return float(np.einsum("i,i->", self.values, self.values))

    def add_scaled_values(self, c: float) -> None:
        """Add c times the values to the flat gradient, block by block,
        after giving every tensor a gradient (``collect_grads(fill=True)``):
        the backward of c / 2 times ``norm_sq``."""
        self.collect_grads(fill=True)
        for run in self.spans():
            s = self.scratch[:run.stop - run.start]
            np.multiply(self.values[run], c, out=s)
            self.grads[run] += s

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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[n,d_in] @ w[d_in,d_out] + b[1,d_out], the bias broadcast over
    rows, as one node."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"linear: x {x.shape}, w {w.shape}, b {b.shape} "
                         f"do not fit")

    def backward(g):
        if x.requires_grad:
            x._accum(g @ w.data.T, fresh=True)
        if w.requires_grad:
            w._accum(x.data.T @ g, fresh=True)
        if b.requires_grad:
            b._accum(g.sum(axis=0, keepdims=True), fresh=True)

    return _node(x.data @ w.data + b.data, (x, w, b), backward)


def squared_norm(params: ParamBuffer) -> Tensor:
    """Sum of the squared entries of every tensor in ``params``, as one
    scalar node: a dot product of the flat values with themselves.

    Its backward adds 2 g p to the flat gradient, after giving every tensor
    a gradient. The node links no parents, so it adds no leaves to the
    graph; in reverse topological order it runs after every op that also
    reaches the parameters, as the penalty always has."""
    out = _node(np.array([[params.norm_sq()]]), (), None)
    if _grad_mode.enabled and params.tensors:
        out.requires_grad = True
        out._backward = lambda g: params.add_scaled_values(2.0 * g[0, 0])
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Exp-normalize along the last axis, with max subtraction for overflow
    safety; -inf logits get exactly zero weight."""
    # the reductions of ndarray.max and .sum, without their Python wrappers
    e = logits - np.maximum.reduce(logits, -1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient at the logits of ``_softmax``, given the gradient g at its
    output ``weights``."""
    out = g * weights
    np.subtract(g, out.sum(axis=-1, keepdims=True), out=out)
    out *= weights
    return out


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
            x._accum(np.repeat(g / counts, lens, axis=0), fresh=True)

    return _node(np.add.reduceat(x.data, starts, axis=0) / counts, (x,),
                 backward)


def _project_back(x: Tensor, w: Tensor, g: np.ndarray) -> None:
    """The backward of the projection x @ w, given the gradient g at the
    product: the input's share, then the weight's."""
    if x.requires_grad:
        x._accum(g @ w.data.T, fresh=True)
    if w.requires_grad:
        w._accum(x.data.T @ g, fresh=True)


def _check_projections(op: str, x: Tensor, *ws: Tensor) -> int:
    """Check that x's rows can be projected by each D_in x D weight of ws,
    which must share D; return D."""
    d = ws[0].shape[1]
    for w in ws:
        if w.shape != (x.shape[1], d):
            raise ValueError(f"{op}: input {x.shape} and projections "
                             f"{[w.shape for w in ws]} do not fit")
    return d


def segment_attention(x: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor,
                      lengths: Sequence[int], scale: bool = False) -> Tensor:
    """Self-attention softmax(q k^T) v of q, k, v = x w_q, x w_k, x w_v,
    computed separately inside each run of ``lengths`` contiguous rows, so a
    row attends only to the rows of its own segment.

    One node, projections included. The G segments are padded to G x L x D
    with L the longest segment, padded keys get zero weight, and the
    products are batched matmuls, so the cost is G L^2 D rather than (sum
    of lengths)^2 D. ``scale`` divides the logits by sqrt(D).
    """
    d = _check_projections("segment_attention", x, w_q, w_k, w_v)
    n = x.shape[0]
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

    qp, kp, vp = (pad(x.data @ w.data) for w in (w_q, w_k, w_v))
    logits = np.matmul(qp, kp.transpose(0, 2, 1)) * c
    if not uniform:
        padded_key = np.arange(width)[None, None, :] >= lens[:, None, None]
        logits[np.broadcast_to(padded_key, logits.shape)] = -np.inf
    weights = _softmax(logits)

    def backward(g):
        gp = pad(g)
        gv = unpad(np.matmul(weights.transpose(0, 2, 1), gp))
        gl = _softmax_grad(np.matmul(gp, vp.transpose(0, 2, 1)), weights) * c
        _project_back(x, w_q, unpad(np.matmul(gl, kp)))
        _project_back(x, w_k, unpad(np.matmul(gl.transpose(0, 2, 1), qp)))
        _project_back(x, w_v, gv)

    return _node(unpad(np.matmul(weights, vp)), (x, w_q, w_k, w_v), backward)


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


def _row_indices(indices: Sequence[int], rows: int, op: str) -> np.ndarray:
    if len(indices) and (min(indices) < 0 or max(indices) >= rows):
        raise ValueError(f"{op}: index out of range")
    return np.asarray(indices, dtype=np.intp)


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of x by index; duplicates allowed."""
    idx = _row_indices(indices, x.shape[0], "take_rows")

    def backward(g):
        if x.requires_grad:
            x._add_rows(idx, g)

    return _node(x.data[idx], (x,), backward)


def embed(token: Tensor, position: Tensor, ids: Sequence[int],
          positions: Sequence[int]) -> Tensor:
    """Row i is token row ids[i] plus position row positions[i], as one
    node; both backwards add rows into the tables' gradients in place."""
    if len(ids) != len(positions) or token.shape[1] != position.shape[1]:
        raise ValueError(f"embed: {len(ids)} ids, {len(positions)} positions, "
                         f"tables {token.shape} and {position.shape}")
    tok = _row_indices(ids, token.shape[0], "embed")
    pos = _row_indices(positions, position.shape[0], "embed")

    def backward(g):
        if token.requires_grad:
            token._add_rows(tok, g)
        if position.requires_grad:
            position._add_rows(pos, g)

    return _node(token.data[tok] + position.data[pos], (token, position),
                 backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Exp-normalize each row, with max subtraction for overflow safety."""
    out_data = _softmax(x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(_softmax_grad(g, out_data), fresh=True)

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
            x._accum(g * r_x, fresh=True)
        if y.requires_grad:
            y._accum(g * r_y, fresh=True)
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


def _layer_norm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """Layer norm of the rows of x: returns (output, standardized rows,
    1 / sqrt(variance + LN_EPS)), the last an n x 1 array, or a float for
    one row.

    One row's statistics are Python floats, which spares the ufunc calls on
    1 x 1 arrays: the same operations in the same order, so the same bits.
    """
    n, d = x.shape
    if n == 1:
        mean = float(np.add.reduce(x, None)) / d
        xc = x - mean
        inv = 1.0 / math.sqrt(float(np.add.reduce(xc * xc, None)) / d
                              + LN_EPS)
    else:
        # the n x 1 row statistics are updated in place: same operations,
        # no new array per step
        mean = np.add.reduce(x, 1, keepdims=True)
        mean /= d
        xc = x - mean
        inv = np.add.reduce(xc * xc, 1, keepdims=True)
        inv /= d
        inv += LN_EPS
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
    xc *= inv
    out = xc * gain
    out += bias
    return out, xc, inv


def _layer_norm(op: str, x: np.ndarray, inputs: tuple[Tensor, ...],
                gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm of the rows of x as one node whose x-gradient goes to each
    of ``inputs`` (the tensors that summed to x)."""
    n, d = x.shape
    if d < 2:
        raise ValueError(f"{op}: needs at least 2 columns")
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise ValueError(f"{op}: gain/bias must be 1 x d")
    out, xhat, inv = _layer_norm_rows(x, gain.data, bias.data)

    def backward(g):
        if gain.requires_grad:
            gain._accum((g * xhat).sum(axis=0, keepdims=True), fresh=True)
        if bias.requires_grad:
            bias._accum(g.sum(axis=0, keepdims=True), fresh=True)
        if any(t.requires_grad for t in inputs):
            gh = g * gain.data
            mean_gh = gh.sum(axis=1, keepdims=True)
            mean_gh /= d
            proj = (gh * xhat).sum(axis=1, keepdims=True)
            proj /= d
            gx = gh - mean_gh
            gx -= xhat * proj
            gx *= inv
            for i, t in enumerate(inputs):
                if t.requires_grad:
                    t._accum(gx, fresh=i == 0)

    return _node(out, (*inputs, gain, bias), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardization (variance + LN_EPS in the denominator), then
    elementwise gain and bias (both 1 x d, broadcast over rows).

    Row means are ``sum / d``, the very operations of ``np.mean`` and
    ``np.var`` without their Python-level overhead, so the values are
    bit-identical to those functions'."""
    return _layer_norm("layer_norm", x.data, (x,), gain, bias)


def residual_layer_norm(h: Tensor, y: Tensor, gain: Tensor,
                        bias: Tensor) -> Tensor:
    """layer_norm(h + y): a post-norm residual connection as one node; h
    and y both receive the gradient at the sum."""
    _check_same_shape(h, y, "residual_layer_norm")
    return _layer_norm("residual_layer_norm", h.data + y.data, (h, y), gain,
                       bias)


def _mlp(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
         b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh(x w1 + b1) w2 + b2 on arrays: returns (output, hidden)."""
    a = x @ w1
    a += b1
    np.tanh(a, out=a)
    out = a @ w2
    out += b2
    return out, a


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer perceptron tanh(x w1 + b1) w2 + b2 as one node
    (shape-preserving when w2 maps back to the input width)."""
    h = w1.shape[1]
    if (x.shape[1] != w1.shape[0] or b1.shape != (1, h) or w2.shape[0] != h
            or b2.shape != (1, w2.shape[1])):
        raise ValueError(f"mlp: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape} do not fit")
    out, a = _mlp(x.data, w1.data, b1.data, w2.data, b2.data)

    def backward(g):
        ga = g @ w2.data.T
        if w2.requires_grad:
            w2._accum(a.T @ g, fresh=True)
        if b2.requires_grad:
            b2._accum(g.sum(axis=0, keepdims=True), fresh=True)
        g1 = a * a
        np.subtract(1.0, g1, out=g1)
        g1 *= ga
        if x.requires_grad:
            x._accum(g1 @ w1.data.T, fresh=True)
        if w1.requires_grad:
            w1._accum(x.data.T @ g1, fresh=True)
        if b1.requires_grad:
            b1._accum(g1.sum(axis=0, keepdims=True), fresh=True)

    return _node(out, (x, w1, b1, w2, b2), backward)


def _attend(op: str, q: np.ndarray, k: np.ndarray, v: np.ndarray,
            scale: bool, causal: bool):
    """softmax(q k^T) v of projected arrays.

    Returns (output, weights, grads), where grads(g) gives the gradients at
    q, k and v for the gradient g at the output. ``scale`` divides the
    logits by sqrt(D); ``causal`` needs as many queries as keys and gives
    query i exactly zero weight on every key after i.
    """
    (n_q, d), n_k = q.shape, k.shape[0]
    if n_k < 1:
        raise ValueError(f"{op}: needs at least one key/value row")
    if k.shape[1] != d or v.shape[0] != n_k:
        raise ValueError(f"{op}: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"do not fit")
    if causal and n_q != n_k:
        raise ValueError(f"{op}: causal needs square logits, got "
                         f"{n_q} queries over {n_k} keys")
    c = 1.0 / np.sqrt(d) if scale else 1.0  # times 1.0 is exact
    logits = (q @ k.T.copy()) * c
    if causal:
        rows = np.arange(n_q)
        logits[rows[:, None] < rows] = -np.inf
    weights = _softmax(logits)

    def grads(g):
        gv = weights.T @ g
        gl = _softmax_grad(g @ v.T, weights) * c
        return gl @ k, gl.T @ q, gv

    return weights @ v, weights, grads


def cross_attention(q_src: Tensor, kv_src: Tensor, w_q: Tensor, w_k: Tensor,
                    w_v: Tensor, scale: bool = False,
                    causal: bool = False) -> tuple[Tensor, Tensor]:
    """softmax((q_src w_q)(kv_src w_k)^T) (kv_src w_v) as one node, the three
    projections included; returns (output, attention weights).

    ``scale`` divides the logits by sqrt(D); off, attention is plain
    softmax(QK^T)V. ``causal`` needs as many queries as keys and gives
    query i exactly zero weight on every key after i. The weights are a
    data-only tensor, so callers can inspect where each query row looked.
    """
    _check_projections("cross_attention", q_src, w_q)
    _check_projections("cross_attention", kv_src, w_k, w_v)
    out, weights, grads = _attend(
        "cross_attention", q_src.data @ w_q.data, kv_src.data @ w_k.data,
        kv_src.data @ w_v.data, scale, causal)

    def backward(g):
        gq, gk, gv = grads(g)
        _project_back(q_src, w_q, gq)
        _project_back(kv_src, w_k, gk)
        _project_back(kv_src, w_v, gv)

    return (_node(out, (q_src, kv_src, w_q, w_k, w_v), backward),
            _node(weights, (), None))


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """terms[0] weights[0] + terms[1] weights[1] + ..., summed left to right,
    as one node."""
    if not terms or len(terms) != len(weights):
        raise ValueError(f"weighted_sum: {len(terms)} terms, "
                         f"{len(weights)} weights")
    for t in terms[1:]:
        _check_same_shape(terms[0], t, "weighted_sum")
    out = terms[0].data * weights[0]
    for t, c in zip(terms[1:], weights[1:]):
        out = out + t.data * c

    def backward(g):
        for t, c in zip(terms, weights):
            if t.requires_grad:
                t._accum(g * c, fresh=True)

    return _node(out, tuple(terms), backward)


def frobenius_distance_sq(a: Tensor, b: Tensor) -> Tensor:
    """Sum of squared elementwise differences, as one scalar node."""
    _check_same_shape(a, b, "frobenius_distance_sq")
    d = a.data - b.data

    def backward(g):
        gd = 2.0 * g[0, 0] * d
        if a.requires_grad:
            a._accum(gd, fresh=True)
        if b.requires_grad:
            b._accum(-gd, fresh=True)

    return _node(np.array([[float((d * d).sum())]]), (a, b), backward)


def cross_entropy_loss(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Cross-entropy as one node: the mean of logsumexp(z_i) - z_i[t_i] over
    the rows z_i of the n x V logits and their targets t_i. One
    max-subtracted exp pass gives the sums and, in backward, the gradient
    (softmax(z) - onehot) / n, nonzero at a target however improbable."""
    n, v = logits.shape
    if n != len(targets) or not n:
        raise ValueError("cross_entropy_loss: need one nonzero row per target")
    for step, t in enumerate(targets):
        if not (0 <= t < v):
            raise ValueError(f"cross_entropy_loss: target {t} out of range "
                             f"for V={v} at step {step}")
    rows, cols = np.arange(n), np.asarray(targets, dtype=np.intp)
    e = logits.data - np.maximum.reduce(logits.data, 1, keepdims=True)
    picked = e[rows, cols]
    np.exp(e, out=e)
    total = np.add.reduce(e, 1, keepdims=True)

    def backward(g):
        if logits.requires_grad:
            gz = e / total
            gz[rows, cols] -= 1.0
            gz *= g[0, 0] / n
            logits._accum(gz, fresh=True)

    return _node(np.array([[(np.log(total[:, 0]) - picked).sum() / n]]),
                 (logits,), backward)
