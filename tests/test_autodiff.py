"""Autodiff engine: forward values, gradients, graph mechanics."""
import re
from collections import Counter
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdialog import autodiff as ad
from kgdialog import training
from kgdialog.config import TrainingConfig
from kgdialog.decoder import total_loss
from kgdialog.training import Adam

from helpers import (build_grad_cases, max_rel_error, mul, param_buffer,
                     sum_all)

GRAD_CASES = build_grad_cases(seed=0)


@pytest.mark.parametrize("label,f,params",
                         GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
def test_gradients_match_finite_differences(label, f, params):
    assert max_rel_error(f, params) < 1e-4


# ------------------------------------------------------------ forward values

def test_forward_values_match_numpy():
    rng = np.random.default_rng(7)
    a = ad.Tensor(rng.standard_normal((3, 4)))
    b = ad.Tensor(rng.standard_normal((3, 4)))
    m = ad.Tensor(rng.standard_normal((4, 2)))
    np.testing.assert_array_equal(ad.add(a, b).data, a.data + b.data)
    np.testing.assert_array_equal(mul(a, b).data, a.data * b.data)
    assert sum_all(a).item() == pytest.approx(a.data.sum())
    d = a.data - b.data
    assert ad.frobenius_distance_sq(a, b).item() == float((d * d).sum())
    assert param_buffer([a.data, m.data]).norm_sq() == \
        pytest.approx(np.sum(a.data ** 2) + np.sum(m.data ** 2))
    assert param_buffer([]).norm_sq() == 0.0
    np.testing.assert_allclose(ad.mean_rows(a).data, a.data.mean(axis=0,
                                                                 keepdims=True))
    np.testing.assert_allclose(ad.mean_rows(a, [1, 2]).data,
                               [a.data[0], a.data[1:].mean(axis=0)])


def test_scalar_and_vector_inputs_become_rank_2():
    assert ad.Tensor(3.0).shape == (1, 1)
    assert ad.Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    with pytest.raises(ValueError):
        ad.Tensor(np.zeros((2, 2, 2)))


def test_softmax_rows_sum_to_one():
    x = ad.Tensor(np.random.default_rng(1).standard_normal((50, 7)) * 30)
    out = ad.softmax_rows(x)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_survives_large_logits():
    out = ad.softmax_rows(ad.Tensor([[1e4, 1e4 - 5.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] > out.data[0, 1]


def test_layer_norm_standardizes_rows():
    x = ad.Tensor(np.random.default_rng(2).standard_normal((6, 8)) * 3 + 5)
    gain = ad.Tensor(np.ones((1, 8)))
    bias = ad.Tensor(np.zeros((1, 8)))
    out = ad.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-4)


def test_causal_mask_zeroes_future_weights_exactly():
    rng = np.random.default_rng(3)
    n, d = 6, 4
    q = ad.Tensor(rng.standard_normal((n, d)))
    wq, wk, wv = (ad.Tensor(rng.standard_normal((d, d))) for _ in range(3))
    _, weights = ad.cross_attention(q, q, wq, wk, wv, causal=True)
    upper = np.triu(weights.data, k=1)
    assert np.all(upper == 0.0)  # bit-exact, not approximately zero
    np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)


def _chain_attention(q, k, v, scale=False, causal=False):
    """The unfused attention chain's numpy operations, in its order:
    q k^T, scale, additive -1e9 causal block, row softmax, times v."""
    logits = q @ k.T.copy()
    if scale:
        logits = logits * (1.0 / np.sqrt(q.shape[1]))
    if causal:
        logits = logits + np.triu(np.full((len(q), len(q)), -1e9), k=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=1, keepdims=True)
    return weights @ v, weights


@pytest.mark.parametrize("n_q,n_k,d,scale,causal",
                         [(3, 5, 4, False, False), (1, 6, 3, True, False),
                          (6, 6, 4, False, True), (5, 5, 8, True, True)])
def test_attention_equals_chain_formula_bit_for_bit(n_q, n_k, d, scale,
                                                    causal):
    """The kernel over keys and values projected beforehand (generation's
    cached reads), against the chain formula."""
    rng = np.random.default_rng(n_q * 100 + n_k * 10 + d)
    x, k, v = (rng.standard_normal((n, d)) * 2 for n in (n_q, n_k, n_k))
    w_q = rng.standard_normal((d, d))
    out, weights, _ = ad._attend("attention", x @ w_q, k, v, scale, causal)
    want_out, want_weights = _chain_attention(x @ w_q, k, v, scale, causal)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(weights, want_weights)


@pytest.mark.parametrize("n_q,n_k,d,scale,causal",
                         [(1, 1, 64, False, False), (1, 7, 64, True, False),
                          (3, 5, 4, False, False), (6, 6, 8, True, True),
                          (1, 1, 3, False, True)])
def test_cross_attention_equals_chain_formula_bit_for_bit(n_q, n_k, d, scale,
                                                          causal):
    """Projections inside the node against three separate projections
    followed by the chain formula; 1-row inputs included."""
    rng = np.random.default_rng(n_q * 1000 + n_k * 10 + d)
    x = rng.standard_normal((n_q, d))
    y = x if causal else rng.standard_normal((n_k, d))
    w_q, w_k, w_v = (rng.standard_normal((d, d)) for _ in range(3))
    out, weights = ad.cross_attention(ad.Tensor(x), ad.Tensor(y),
                                      ad.Tensor(w_q), ad.Tensor(w_k),
                                      ad.Tensor(w_v), scale=scale,
                                      causal=causal)
    want_out, want_weights = _chain_attention(x @ w_q, y @ w_k, y @ w_v,
                                              scale, causal)
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(weights.data, want_weights)


def _chain_segment_attention(q, k, v, lengths, scale, width=None):
    """The segmented kernel over already projected rows: segments padded
    to G x L x D (L the longest segment, or ``width``), batched matmuls,
    padded keys at -inf, row softmax."""
    g_count, d = len(lengths), q.shape[1]
    width = max(lengths) if width is None else width
    starts = np.cumsum([0] + list(lengths))[:-1]
    pads = []
    for a in (q, k, v):
        p = np.zeros((g_count, width, d))
        for i, (lo, n) in enumerate(zip(starts, lengths)):
            p[i, :n] = a[lo:lo + n]
        pads.append(p)
    qp, kp, vp = pads
    logits = np.matmul(qp, kp.transpose(0, 2, 1))
    if scale:
        logits = logits * (1.0 / np.sqrt(d))
    for i, n in enumerate(lengths):
        logits[i, :, n:] = -np.inf
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = np.matmul(e / e.sum(axis=-1, keepdims=True), vp)
    return np.concatenate([out[i, :n] for i, n in enumerate(lengths)])


@pytest.mark.parametrize("lengths,d,scale", [([1], 64, False), ([5], 4, True),
                                             ([3, 3], 3, False),
                                             ([2, 5, 1, 3], 4, True),
                                             ([1, 1, 2], 64, False)])
def test_segment_attention_equals_chain_formula_bit_for_bit(lengths, d,
                                                            scale):
    """Projections inside the node against separate 2-D projections, then
    the padded kernel; one segment, equal and mixed lengths, 1-row ones."""
    rng = np.random.default_rng(sum(lengths) * 100 + d)
    x = rng.standard_normal((sum(lengths), d))
    w_q, w_k, w_v = (rng.standard_normal((d, d)) for _ in range(3))
    out = ad.segment_attention(ad.Tensor(x), ad.Tensor(w_q), ad.Tensor(w_k),
                               ad.Tensor(w_v), lengths, scale=scale)
    np.testing.assert_array_equal(
        out.data, _chain_segment_attention(x @ w_q, x @ w_k, x @ w_v,
                                           lengths, scale))


@pytest.mark.parametrize("lengths,width", [([3], 5), ([2, 5, 1, 3], 8),
                                          ([4, 4], 11)])
def test_segment_attention_pads_to_a_given_width(lengths, width):
    """A width past the longest segment: the chain formula padded to that
    width, bit for bit."""
    rng = np.random.default_rng(width)
    x = rng.standard_normal((sum(lengths), 8))
    w_q, w_k, w_v = (rng.standard_normal((8, 8)) for _ in range(3))
    out = ad.segment_attention(ad.Tensor(x), ad.Tensor(w_q), ad.Tensor(w_k),
                               ad.Tensor(w_v), lengths, scale=True,
                               width=width)
    np.testing.assert_array_equal(
        out.data, _chain_segment_attention(x @ w_q, x @ w_k, x @ w_v,
                                           lengths, True, width))


def _leaves(rng, *shapes):
    return [ad.Tensor(rng.standard_normal(s), requires_grad=True)
            for s in shapes]


def _same_forward_and_grads(fused, chain, inputs, rng):
    """fused() and chain() give the same bits forward, and hand every input
    the same gradient bits under one random upstream gradient."""
    g, results = None, []
    for make in (fused, chain):
        for t in inputs:
            t.zero_grad()
        out = make()
        if g is None:
            g = rng.standard_normal(out.shape)
        results.append((out.data, [x.copy() for x in
                                   _grads_under(out, g, inputs)]))
    (got, got_grads), (want, want_grads) = results
    np.testing.assert_array_equal(got, want)
    for a, b in zip(got_grads, want_grads):
        np.testing.assert_array_equal(a, b)


def _tanh(x):
    """tanh as a node of its own: the chain's middle link."""
    out = np.tanh(x.data)

    def backward(g):
        x._accum(g * (1.0 - out * out), fresh=True)

    return ad._node(out, (x,), backward)


@pytest.mark.parametrize("n,d,h", [(1, 64, 128), (3, 4, 6), (7, 5, 2)])
def test_mlp_equals_linear_tanh_linear_bit_for_bit(n, d, h):
    rng = np.random.default_rng(n * 100 + d + h)
    inputs = _leaves(rng, (n, d), (d, h), (1, h), (h, d), (1, d))
    x, w1, b1, w2, b2 = inputs
    _same_forward_and_grads(
        lambda: ad.mlp(x, w1, b1, w2, b2),
        lambda: ad.linear(_tanh(ad.linear(x, w1, b1)), w2, b2),
        inputs, rng)


@pytest.mark.parametrize("n,d", [(1, 64), (4, 3), (6, 8)])
def test_residual_layer_norm_equals_add_then_layer_norm_bit_for_bit(n, d):
    rng = np.random.default_rng(n * 10 + d)
    inputs = _leaves(rng, (n, d), (n, d), (1, d), (1, d))
    h, y, gain, bias = inputs
    _same_forward_and_grads(
        lambda: ad.residual_layer_norm(h, y, gain, bias),
        lambda: ad.layer_norm(ad.add(h, y), gain, bias), inputs, rng)


@pytest.mark.parametrize("ids,positions", [([3], [0]), ([1, 4, 1], [2, 3, 4]),
                                           ([0, 2, 2, 0, 5], [0, 1, 0, 1, 2])])
def test_embed_equals_two_gathers_and_add_bit_for_bit(ids, positions):
    """Token rows plus position rows, repeated ids and positions included.
    The in-place row gradients equal what the gathers' dense backward gave
    (a zero matrix, np.add.at, then accumulation), also when the tables
    already hold a gradient."""
    rng = np.random.default_rng(len(ids))
    token, position = _leaves(rng, (6, 4), (5, 4))
    for start in (None, [rng.standard_normal(t.shape) for t in (token, position)]):
        for i, t in enumerate((token, position)):
            t.grad = None if start is None else start[i].copy()
        out = ad.embed(token, position, ids, positions)
        np.testing.assert_array_equal(
            out.data, token.data[ids].copy() + position.data[positions].copy())
        g = rng.standard_normal(out.shape)
        got = _grads_under(out, g, [token, position])
        for i, (t, idx) in enumerate(((token, ids), (position, positions))):
            dense = np.zeros_like(t.data)
            np.add.at(dense, idx, g)
            want = dense if start is None else start[i] + dense
            np.testing.assert_array_equal(got[i], want)


def test_weighted_sum_equals_scaled_sum_bit_for_bit():
    rng = np.random.default_rng(12)
    terms = _leaves(rng, (1, 1), (1, 1), (1, 1))
    weights = (1.0, 0.1, 1e-6)
    out = ad.weighted_sum(terms, weights)
    a, b, c = (t.data for t in terms)
    np.testing.assert_array_equal(out.data, a * 1.0 + b * 0.1 + c * 1e-6)
    out.backward()
    for t, w in zip(terms, weights):
        assert t.grad[0, 0] == w


@pytest.mark.parametrize("scale,causal", [(False, False), (True, True)])
def test_cross_attention_is_one_graph_node(scale, causal):
    """Projections and attention in one node, whatever the options."""
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    ws = [ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
          for _ in range(3)]
    out, weights = ad.cross_attention(x, x, *ws, scale=scale, causal=causal)
    ops = [t for t in ad.topo_order(out) if t._backward is not None]
    assert ops == [out]
    assert weights._parents == () and not weights.requires_grad


def _grads_under(out, g, inputs):
    """Backpropagate the upstream gradient g from ``out``; return the input
    gradients. sum(out * g) hands out exactly g."""
    sum_all(mul(out, ad.Tensor(g))).backward()
    return [t.grad for t in inputs]


@pytest.mark.parametrize("n,d_in,d_out", [(1, 1, 1), (3, 4, 2), (5, 3, 6)])
def test_linear_equals_matmul_plus_bias_bit_for_bit(n, d_in, d_out):
    rng = np.random.default_rng(n * 100 + d_in * 10 + d_out)
    x, w, b = (rng.standard_normal(shape) for shape in
               ((n, d_in), (d_in, d_out), (1, d_out)))
    g = rng.standard_normal((n, d_out))
    inputs = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    out = ad.linear(*inputs)
    np.testing.assert_array_equal(out.data, x @ w + b)
    for got, want in zip(_grads_under(out, g, inputs),
                         (g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True))):
        np.testing.assert_array_equal(got, want)


def _chain_gate(x, y, s_x, s_y, g):
    """The old fusion chain's numpy operations, in its order: scores from
    transposes and a row concat, row softmax, column slices, row scales and
    their sum; backward through the same nodes with upstream gradient g."""
    scores = np.concatenate([s_x.T.copy(), s_y.T.copy()], axis=0).T.copy()
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    r = e / e.sum(axis=1, keepdims=True)
    r_x, r_y = r[:, 0:1].copy(), r[:, 1:2].copy()
    out = x * r_x + y * r_y
    g_r = np.zeros_like(r)
    g_r[:, 0:1] = (g * x).sum(axis=1, keepdims=True)
    g_r_y = np.zeros_like(r)
    g_r_y[:, 1:2] = (g * y).sum(axis=1, keepdims=True)
    g_r += g_r_y
    g_s = (g_r - (g_r * r).sum(axis=1, keepdims=True)) * r
    grads = (g * r_x, g * r_y, g_s.T[0:1].T, g_s.T[1:2].T)
    return out, r, grads


@pytest.mark.parametrize("n,d", [(1, 1), (4, 3), (6, 8)])
def test_gate_equals_chain_formula_bit_for_bit(n, d):
    rng = np.random.default_rng(n * 10 + d)
    x, y = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    s_x, s_y = rng.standard_normal((n, 1)) * 3, rng.standard_normal((n, 1)) * 3
    g = rng.standard_normal((n, d))
    inputs = [ad.Tensor(a.copy(), requires_grad=True)
              for a in (x, y, s_x, s_y)]
    out, weights = ad.gate(*inputs)
    want_out, want_weights, want_grads = _chain_gate(x, y, s_x, s_y, g)
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(weights.data, want_weights)
    assert weights._parents == () and not weights.requires_grad
    for got, want in zip(_grads_under(out, g, inputs), want_grads):
        np.testing.assert_array_equal(got, want)


def public_ops() -> list[str]:
    """The engine's public ops: the public callables the module defines,
    less its graph tools and classes."""
    exempt = {"no_grad", "topo_order", "Tensor", "ParamBuffer"}
    return sorted(name for name, f in vars(ad).items()
                  if callable(f) and getattr(f, "__module__", None) ==
                  ad.__name__ and not name.startswith("_")
                  and name not in exempt)


def test_every_op_has_gradient_cases():
    """Each public op of the engine appears in >= 3 gradient-case labels,
    directly or through the named composite or label that exercises it."""
    through = {"cross_entropy_loss": "cross_entropy"}
    ops = public_ops()
    labels = Counter(label.split(":")[0] for label, _, _ in GRAD_CASES)
    missing = {op: labels[through.get(op, op)] for op in ops
               if labels[through.get(op, op)] < 3}
    assert not missing, f"ops with fewer than 3 gradient cases: {missing}"
    assert "gate" in ops and "linear" in ops


def test_module_docstring_names_every_op_and_nothing_gone():
    """The module docstring names each public op in double backticks, and
    every name it puts in double backticks is defined in the module, so
    neither an added nor a deleted op leaves it stale."""
    doc = ad.__doc__
    assert [op for op in public_ops() if f"``{op}``" not in doc] == []

    def defined(name):
        try:
            attrgetter(name)(ad)
        except AttributeError:
            return False
        return True

    quoted = re.findall(r"``([A-Za-z_][\w.]*)``", doc)
    assert "Tensor.backward" in quoted
    assert [name for name in quoted if not defined(name)] == []


def test_attention_validates_shapes():
    x, w = ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="at least one key"):
        ad.cross_attention(x, ad.Tensor(np.zeros((0, 2))), w, w, w)
    q = np.zeros((3, 2))
    with pytest.raises(ValueError, match="do not fit"):
        ad._attend("attention", q, np.zeros((3, 3)), q, False, False)
    with pytest.raises(ValueError, match="do not fit"):
        ad._attend("attention", q, q, np.zeros((2, 2)), False, False)
    with pytest.raises(ValueError, match="do not fit"):
        ad.cross_attention(x, x, ad.Tensor(np.zeros((3, 2))), w, w)
    with pytest.raises(ValueError, match="causal"):
        ad.cross_attention(x, ad.Tensor(np.zeros((4, 2))), w, w, w,
                           causal=True)
    with pytest.raises(ValueError, match="do not fit"):
        ad.cross_attention(x, x, w, w, ad.Tensor(np.zeros((3, 2))))


def test_attention_scaling_flag_changes_logits():
    rng = np.random.default_rng(4)
    q = ad.Tensor(rng.standard_normal((2, 4)))
    kv = ad.Tensor(rng.standard_normal((3, 4)))
    ws = [ad.Tensor(rng.standard_normal((4, 4))) for _ in range(3)]
    _, w_plain = ad.cross_attention(q, kv, *ws, scale=False)
    _, w_scaled = ad.cross_attention(q, kv, *ws, scale=True)
    assert not np.allclose(w_plain.data, w_scaled.data)


def test_take_rows_gathers_and_accumulates_duplicates():
    x = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.take_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(out.data, [[4, 5], [0, 1], [4, 5]])
    sum_all(out).backward()
    np.testing.assert_array_equal(x.grad, [[1, 1], [0, 0], [2, 2]])


def test_cross_entropy_from_logits_has_no_clamp(caplog):
    """Row 0's target has probability e^-40: the loss counts its whole
    -log p and the row gets the gradient (softmax - onehot) / n."""
    z = ad.Tensor([[0.0, 40.0, 1.0], [0.0, 1.0, 2.0]], requires_grad=True)
    loss = ad.cross_entropy_loss(z, [0, 2])
    assert loss.item() == pytest.approx(20.2038029822, abs=1e-9)
    loss.backward()
    p = np.exp(z.data) / np.exp(z.data).sum(axis=1, keepdims=True)
    p[[0, 1], [0, 2]] -= 1.0
    np.testing.assert_allclose(z.grad, p / 2, rtol=0, atol=1e-15)
    assert np.all(z.grad[0] != 0.0)
    assert not caplog.records


# ------------------------------------------------------------ graph mechanics

def test_backward_accumulates_across_calls():
    x = ad.Tensor([[2.0]], requires_grad=True)
    loss = mul(x, x)
    loss.backward()
    first = x.grad.copy()
    mul(x, x).backward()
    np.testing.assert_array_equal(x.grad, 2 * first)


def test_backward_twice_through_one_graph_raises():
    """The first backward releases the graph; a second from the same root,
    or from a new root over one of its op outputs, raises instead of
    adding to the root's gradient alone. A leaf root may run again."""
    x = ad.Tensor([[2.0]], requires_grad=True)
    h = mul(x, x)
    loss = sum_all(h)
    loss.backward()
    with pytest.raises(ValueError, match="released"):
        loss.backward()
    with pytest.raises(ValueError, match="released"):
        sum_all(h).backward()
    assert x.grad[0, 0] == 4.0 and loss.grad[0, 0] == 1.0
    x.backward()
    x.backward()
    assert x.grad[0, 0] == 6.0


def test_backward_releases_op_outputs_and_keeps_leaf_gradients():
    """After backward every op output has dropped its parents, its closure
    and, the root aside, its gradient; the leaves keep theirs."""
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    b = ad.Tensor(np.zeros((1, 2)), requires_grad=True)
    h = ad.linear(x, w, b)
    loss = sum_all(mul(h, h))
    ops = [n for n in ad.topo_order(loss) if n._backward is not None]
    assert len(ops) == 3
    loss.backward()
    for node in ops:
        assert node._parents == () and node._backward is ad._released
        assert (node.grad is None) == (node is not loss)
    np.testing.assert_array_equal(w.grad, x.data.T @ (2.0 * h.data))
    assert x.grad is not None and b.grad is not None


def test_gradients_reaching_two_parents_do_not_alias():
    """add hands one upstream array to both parents; each must keep its
    own copy, so changing one gradient leaves the other as it was."""
    a = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
    b = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
    sum_all(ad.add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    a.grad += 5.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_zero_grad_resets():
    x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
    sum_all(x).backward()
    assert x.grad is not None
    x.zero_grad()
    assert x.grad is None


def test_zero_grad_keeps_a_bound_gradient_bound():
    """Resetting a parameter whose gradient a buffer has bound zeroes its
    view in place: the next backward still reaches the flat gradient, and
    the optimizer's step moves the parameter."""
    buf = param_buffer([[[1.0, 2.0]]])
    (p,) = buf.tensors
    opt = Adam(buf, 0.1)
    p.grad += 5.0
    p.zero_grad()
    assert p.grad.base is buf.grads and not buf.grads.any()
    ad.frobenius_distance_sq(p, ad.Tensor([[2.0, 3.0]])).backward()
    np.testing.assert_array_equal(buf.grads, [-2.0, -2.0])
    assert p.grad.base is buf.grads
    opt.step()
    assert (p.data > [[1.0, 2.0]]).all()


def test_no_graph_when_nothing_requires_grad():
    a = ad.Tensor([[1.0]])
    b = ad.Tensor([[2.0]])
    out = ad.add(a, b)
    assert not out.requires_grad and out._parents == ()


def test_shared_node_gradient_sums_over_consumers():
    x = ad.Tensor([[3.0]], requires_grad=True)
    y = ad.add(x, x)           # dy/dx = 2
    loss = mul(y, y)        # d(y^2)/dx = 2y * 2 = 24
    loss.backward()
    assert x.grad[0, 0] == pytest.approx(24.0)


def test_deep_chain_does_not_hit_recursion_limit():
    x = ad.Tensor([[1.0]], requires_grad=True)
    one = ad.Tensor([[1.0]])
    out = x
    for _ in range(5000):
        out = ad.add(out, one)
    out.backward()
    assert x.grad[0, 0] == 1.0


def test_topo_order_visits_each_node_once():
    x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
    y = ad.softmax_rows(x)
    z = ad.add(y, y)
    order = ad.topo_order(sum_all(z))
    assert len(order) == len({id(n) for n in order})
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_penalty_graph_size_does_not_grow_with_tensor_count():
    """The L2 penalty adds no graph node however many tensors it covers:
    the loss graph is the same size for 1 and 100 penalized tensors, none
    of them is in it, and ``step(2 beta)`` still moves every one."""
    rng = np.random.default_rng(8)
    cfg = TrainingConfig(lam=1.0, gamma=0.1, beta=1e-3)

    def interior_nodes(n_penalized):
        logits = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        l_ce = ad.cross_entropy_loss(logits, [0, 1, 2])
        a = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        l_r = ad.frobenius_distance_sq(a, ad.Tensor(np.zeros((2, 2))))
        params = param_buffer([rng.standard_normal((2, 3))
                               for _ in range(n_penalized)])
        loss = total_loss(l_ce, l_r, cfg)
        order = ad.topo_order(loss)
        in_graph = {id(node) for node in order}
        assert not any(id(t) in in_graph for t in params.tensors)
        loss.backward()
        before = params.values.copy()
        Adam(params, 0.01).step(2.0 * cfg.beta)
        assert all((params.values != before).reshape(n_penalized, -1)
                   .all(axis=1))
        return sum(1 for node in order if node._parents)

    assert interior_nodes(1) == interior_nodes(100)


@pytest.mark.parametrize("block", [3, training.BLOCK])
@pytest.mark.parametrize("beta", [1e-6, 1e-3, 0.37])
def test_penalty_gradient_is_two_beta_p_added_last(beta, block, monkeypatch):
    """The L2 penalty is Adam's coupled weight decay: ``step(2 beta)`` gives
    the bits of adding 2 beta p to the flat gradient after every backward
    contribution and then taking the plain step, for a tensor reached only
    by the penalty and one also reached by L_r. A block of 3 entries splits
    both tensors across blocks; the second step runs on the moments of the
    first."""
    monkeypatch.setattr(training, "BLOCK", block)
    rng = np.random.default_rng(9)
    start = [rng.standard_normal((2, 4)), rng.standard_normal((3, 2))]
    target = ad.Tensor(rng.standard_normal((3, 2)))
    cfg = TrainingConfig(lam=1.0, gamma=0.3, beta=beta)
    decayed, manual = param_buffer(start), param_buffer(start)
    opt_decayed, opt_manual = Adam(decayed, 0.01), Adam(manual, 0.01)
    for _ in range(2):
        for buf in (decayed, manual):
            only, a = buf.tensors
            total_loss(ad.Tensor([[0.5]]), ad.frobenius_distance_sq(a, target),
                       cfg).backward()
            assert not only.grad.any()
        manual.grads += 2.0 * beta * manual.values
        opt_manual.step()
        opt_decayed.step(2.0 * beta)
        np.testing.assert_array_equal(decayed.values, manual.values)
    assert not np.array_equal(decayed.values, np.concatenate(
        [x.ravel() for x in start]))


def test_param_buffer_views_and_gradients():
    rng = np.random.default_rng(10)
    start = [rng.standard_normal((2, 3)), rng.standard_normal((1, 3))]
    values = np.concatenate([x.ravel() for x in start])
    buf = ad.ParamBuffer(values, [x.shape for x in start])
    assert buf.values is values
    p, q = buf.tensors
    assert p.requires_grad and q.requires_grad
    for t, x in zip(buf.tensors, start):
        np.testing.assert_array_equal(t.data, x)
    p.data[0, 0] = 7.0                   # writes reach the flat values
    assert buf.values[0] == 7.0
    assert buf.grads is None and p.grad is None
    buf.zero_grad()                      # makes the flat gradient, binds
    flat = buf.grads
    assert p.grad.base is flat and q.grad.base is flat
    assert not flat.any()
    sum_all(mul(p, p)).backward()        # adds into the bound view
    np.testing.assert_array_equal(flat[:6].reshape(2, 3), 2.0 * p.data)
    np.testing.assert_array_equal(flat[6:], 0.0)
    buf.zero_grad()                      # zeroes in place, keeps the binding
    assert buf.grads is flat and p.grad.base is flat and not flat.any()
    buf.release_grads()
    assert buf.grads is None and p.grad is None and q.grad is None
    sum_all(p).backward()             # without the flat gradient
    assert p.grad.base is None


def test_frobenius_distance_equals_difference_chain_bit_for_bit():
    """The one-node op against the subtract-then-square chain it replaced:
    forward (d * d).sum() of d = a - b, backward 2 g d and -2 g d."""
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (3, 2), (4, 5)]:
        a = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        c = float(rng.uniform(0.1, 3.0))
        out = mul(ad.frobenius_distance_sq(a, b), ad.Tensor([[c]]))
        out.backward()
        d = a.data - b.data
        assert out.item() == float((d * d).sum()) * c
        g = 2.0 * (1.0 * c) * d
        np.testing.assert_array_equal(a.grad, g)
        np.testing.assert_array_equal(b.grad, -g)


# ------------------------------------------------------------ error handling

def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ad.add(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 3))))
    x, w = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="linear"):
        ad.linear(x, w, ad.Tensor(np.zeros((1, 3))))
    with pytest.raises(ValueError, match="linear"):
        ad.linear(x, ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((1, 4))))
    s = ad.Tensor(np.zeros((2, 1)))
    with pytest.raises(ValueError, match="gate"):
        ad.gate(x, ad.Tensor(np.zeros((2, 2))), s, s)
    with pytest.raises(ValueError, match="gate"):
        ad.gate(x, x, ad.Tensor(np.zeros((3, 1))), ad.Tensor(np.zeros((3, 1))))
    with pytest.raises(ValueError, match="gate"):
        ad.gate(x, x, s, ad.Tensor(np.zeros((2, 2))))


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.softmax_rows(x).backward()


def test_misc_validation():
    with pytest.raises(ValueError):
        ad.Tensor(np.ones((2, 2))).item()
    with pytest.raises(ValueError):
        ad.mean_rows(ad.Tensor(np.zeros((0, 3))))
    with pytest.raises(ValueError):
        ad.mean_rows(ad.Tensor(np.zeros((3, 2))), [2])
    x, w = ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ad.segment_attention(x, w, w, w, [0, 3])
    with pytest.raises(ValueError):
        ad.segment_attention(x, w, w, ad.Tensor(np.zeros((3, 3))), [3])
    with pytest.raises(ValueError):
        ad.segment_attention(x, w, w, w, [1, 2], width=1)
    with pytest.raises(ValueError):
        ad.embed(w, w, [0], [2])
    with pytest.raises(ValueError):
        ad.embed(w, w, [0, 1], [0])
    with pytest.raises(ValueError):
        ad.take_rows(ad.Tensor(np.zeros((2, 2))), [2])
    with pytest.raises(ValueError, match="mlp"):
        ad.mlp(x, w, ad.Tensor(np.zeros((1, 3))), w, ad.Tensor(np.zeros((1, 2))))
    with pytest.raises(ValueError, match="residual_layer_norm"):
        ad.residual_layer_norm(x, w, ad.Tensor(np.ones((1, 2))),
                               ad.Tensor(np.zeros((1, 2))))
    with pytest.raises(ValueError):
        ad.weighted_sum([ad.Tensor([[1.0]])], [1.0, 2.0])
    with pytest.raises(ValueError):
        ad.concat_rows([])
    with pytest.raises(ValueError):
        ad.cross_entropy_loss(ad.Tensor([[0.5, 0.5]]), [2])
    with pytest.raises(ValueError):
        ad.cross_entropy_loss(ad.Tensor([[0.5, 0.5]]), [0, 1])


# ---------------------------------------------------------------- properties

@given(st.lists(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
                min_size=1, max_size=8).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_always_normalized(rows):
    out = ad.softmax_rows(ad.Tensor(np.array(rows)))
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(out.data >= 0.0)


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_layer_norm_is_shift_invariant(r, c, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((r, c))
    gain = ad.Tensor(np.ones((1, c)))
    bias = ad.Tensor(np.zeros((1, c)))
    a = ad.layer_norm(ad.Tensor(x), gain, bias).data
    b = ad.layer_norm(ad.Tensor(x + 3.7), gain, bias).data
    np.testing.assert_allclose(a, b, atol=1e-7)


@given(st.integers(1, 6), st.integers(2, 128), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
@example(1, 8, 0, 1.0, 0.0)
@example(1, 64, 0, 1.0, 0.0)
@settings(max_examples=60, deadline=None)
def test_layer_norm_equals_mean_var_formula_bit_for_bit(r, c, seed, spread,
                                                        shift):
    """Forward and input gradient equal the np.mean / np.var formulas, one
    row (Python-float statistics) and several alike, at widths up to those
    the model runs at."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((r, c)) * spread + shift
    gain, bias = rng.uniform(0.5, 1.5, (1, c)), rng.standard_normal((1, c))
    g = rng.standard_normal((r, c))
    xt = ad.Tensor(x.copy(), requires_grad=True)
    out = ad.layer_norm(xt, ad.Tensor(gain), ad.Tensor(bias))
    sum_all(mul(out, ad.Tensor(g))).backward()

    mu = x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv
    gh = g * gain
    gx = (gh - gh.mean(axis=1, keepdims=True)
          - xhat * (gh * xhat).mean(axis=1, keepdims=True)) * inv
    np.testing.assert_array_equal(out.data, xhat * gain + bias)
    np.testing.assert_array_equal(xt.grad, gx)
