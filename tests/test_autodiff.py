"""Autodiff engine: forward values, gradients, graph mechanics."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdialog import autodiff as ad
from kgdialog.decoder import LossWeights, total_loss

from helpers import build_grad_cases, max_rel_error, mul, sum_all

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
    p = ad.Tensor(a.data.copy(), requires_grad=True)
    q = ad.Tensor(m.data.copy(), requires_grad=True)
    assert ad.squared_norm(ad.ParamBuffer([p, q])).item() == pytest.approx(
        np.sum(a.data ** 2) + np.sum(m.data ** 2))
    assert ad.squared_norm(ad.ParamBuffer([])).item() == 0.0
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


def _chain_segment_attention(q, k, v, lengths, scale):
    """The segmented kernel over already projected rows: segments padded
    to G x L x D, batched matmuls, padded keys at -inf, row softmax."""
    g_count, width, d = len(lengths), max(lengths), q.shape[1]
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


def test_every_op_has_gradient_cases():
    """Each public op of the engine appears in >= 3 gradient-case labels,
    directly or through the named composite or label that exercises it."""
    through = {"cross_entropy_loss": "cross_entropy"}
    exempt = {"no_grad", "topo_order", "Tensor", "ParamBuffer"}
    ops = {name for name, f in vars(ad).items()
           if callable(f) and getattr(f, "__module__", None) == ad.__name__
           and not name.startswith("_")}
    labels = Counter(label.split(":")[0] for label, _, _ in GRAD_CASES)
    missing = {op: labels[through.get(op, op)] for op in sorted(ops - exempt)
               if labels[through.get(op, op)] < 3}
    assert not missing, f"ops with fewer than 3 gradient cases: {missing}"
    assert "gate" in ops and "linear" in ops


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
    """The L2 penalty is one node however many tensors it covers."""
    rng = np.random.default_rng(8)
    weights = LossWeights(1.0, 0.1, 1e-3)

    def interior_nodes(n_penalized):
        logits = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        l_ce = ad.cross_entropy_loss(logits, [0, 1, 2])
        a = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        l_r = ad.frobenius_distance_sq(a, ad.Tensor(np.zeros((2, 2))))
        params = ad.ParamBuffer(
            [ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
             for _ in range(n_penalized)])
        loss = total_loss(l_ce, l_r, params, weights)
        return sum(1 for node in ad.topo_order(loss) if node._parents)

    assert interior_nodes(1) == interior_nodes(100)


@pytest.mark.parametrize("block", [3, ad.BLOCK])
@pytest.mark.parametrize("beta", [1e-6, 1e-3, 0.37])
def test_penalty_gradient_is_two_beta_p_added_last(beta, block, monkeypatch):
    """Through ``total_loss``: a tensor reached only by the penalty gets
    exactly 2 beta p; one also reached by L_r gets exactly its L_r gradient
    plus 2 beta p, since the penalty's backward runs after every other.
    A block of 3 entries splits both tensors across blocks."""
    monkeypatch.setattr(ad, "BLOCK", block)
    rng = np.random.default_rng(9)
    a = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    only = ad.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    target = ad.Tensor(rng.standard_normal((3, 2)))
    l_ce = ad.Tensor([[0.5]])
    buf = ad.ParamBuffer([only, a])

    def backward(w):
        for t in (a, only):
            t.zero_grad()
        total_loss(l_ce, ad.frobenius_distance_sq(a, target), buf,
                   w).backward()

    backward(LossWeights(1.0, 0.3, 0.0))
    assert only.grad is None
    reg_grad = a.grad.copy()
    for _ in range(2):  # the second pass reuses the flat gradient's views
        backward(LossWeights(1.0, 0.3, beta))
        np.testing.assert_array_equal(only.grad, 2.0 * beta * only.data)
        np.testing.assert_array_equal(a.grad, reg_grad + 2.0 * beta * a.data)
        assert only.grad.base is buf.grads and a.grad.base is buf.grads


def test_param_buffer_views_and_gradients():
    rng = np.random.default_rng(10)
    start = [rng.standard_normal((2, 3)), rng.standard_normal((1, 3))]
    p, q = (ad.Tensor(x.copy(), requires_grad=True) for x in start)
    buf = ad.ParamBuffer([p, q])
    np.testing.assert_array_equal(buf.values,
                                  np.concatenate([x.ravel() for x in start]))
    p.data[0, 0] = 7.0                   # writes reach the flat values
    assert buf.values[0] == 7.0
    q.grad = np.ones((1, 3))             # assigned directly: copied in
    assert buf.collect_grads() == [False, True]
    assert p.grad is None and q.grad.base is buf.grads
    np.testing.assert_array_equal(buf.grads[6:], 1.0)
    sum_all(mul(p, p)).backward()  # first contribution: a copy
    assert p.grad.base is buf.grads
    np.testing.assert_array_equal(p.grad, 2.0 * p.data)
    buf.release_grads()
    assert buf.grads is None and p.grad is None and q.grad is None
    sum_all(p).backward()             # without the flat gradient
    assert p.grad.base is None


def test_param_buffer_rejects_members_of_another_buffer():
    p = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    ad.ParamBuffer([p])
    with pytest.raises(ValueError, match="view of another array"):
        ad.ParamBuffer([p])
    with pytest.raises(ValueError, match="does not require gradients"):
        ad.ParamBuffer([ad.Tensor(np.ones((2, 2)))])


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
