"""Shared test utilities: finite-difference gradient checking, a
generated dense knowledge graph, and a cap on the process's memory.

The case lists below are the single source of truth for "every op, at three
or more distinct shapes" — both the unit tests and the acceptance suite
sweep them: ``build_grad_cases`` covers the primitive ops,
``build_composite_grad_cases`` the pipeline-level composites.
``test_every_op_has_gradient_cases`` fails when a public op of
``kgdialog.autodiff`` has fewer than three ``build_grad_cases`` labels.
"""
from __future__ import annotations

import resource
from contextlib import contextmanager

import numpy as np

from kgdialog import autodiff as ad
from kgdialog.acquire import RelationTuple
from kgdialog.composer import (AttentionParams, EmbeddingTable,
                               EncoderBlockParams, FusionParams, MlpParams,
                               Vocabulary, compose_attributes,
                               encode_relation_tuples, fuse, prepare_context,
                               reorganize_relations)
from kgdialog.decoder import (DecoderBlockParams, LossWeights, OutputHead,
                              SemanticEnhanceParams, decode_states,
                              predict_token, semantic_enhance, total_loss)
from kgdialog.kb import AttributeValuePair, Entity, KnowledgeBase
from kgdialog.regularizer import (LatentQuerySet, SemanticProjectionParams,
                                  project_semantic)

EPS = 1e-5
DENOM_FLOOR = 1e-6


def max_rel_error(f, params, eps: float = EPS) -> float:
    """Worst relative error between backprop and central differences.

    ``f`` rebuilds the scalar loss from the current ``params`` data on every
    call, so perturbing ``p.data`` in place and re-running gives the numeric
    derivative.
    """
    for p in params:
        p.zero_grad()
    f().backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        for idx in np.ndindex(*p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            hi = f().item()
            p.data[idx] = orig - eps
            lo = f().item()
            p.data[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), DENOM_FLOOR)
            worst = max(worst, err)
    return worst


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise product, for building scalar test losses."""
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return ad._node(a.data * b.data, (a, b), backward)


def sum_all(x: ad.Tensor) -> ad.Tensor:
    """Sum of every entry as a 1 x 1 tensor, for building scalar losses."""
    def backward(g):
        if x.requires_grad:
            x._accum(np.full_like(x.data, g[0, 0]))

    return ad._node(np.array([[x.data.sum()]]), (x,), backward)


def attend(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, scale: bool = False,
           causal: bool = False) -> ad.Tensor:
    """The engine's attention kernel ``_attend`` over projected q, k and v
    as a node, so that its gradients can be checked on their own."""
    out, _, grads = ad._attend("attend", q.data, k.data, v.data, scale,
                               causal)

    def backward(g):
        for t, gt in zip((q, k, v), grads(g)):
            if t.requires_grad:
                t._accum(gt, fresh=True)

    return ad._node(out, (q, k, v), backward)


def _param(rng, rows, cols, lo=-1.0, hi=1.0):
    return ad.Tensor(rng.uniform(lo, hi, size=(rows, cols)), requires_grad=True)


def _project(out: ad.Tensor, seed: int) -> ad.Tensor:
    """Collapse a matrix output to a scalar via a fixed random weighting so
    every output element influences the loss."""
    c = np.random.default_rng(seed).standard_normal(out.shape)
    return sum_all(mul(out, ad.Tensor(c)))


def build_grad_cases(seed: int = 0):
    """(label, loss_fn, params) triples covering every op at >= 3 shapes."""
    rng = np.random.default_rng(seed)
    cases = []

    def case(label, f, params):
        cases.append((label, f, params))

    elementwise_shapes = [(1, 1), (2, 3), (5, 4)]
    for r, c in elementwise_shapes:
        a, b = _param(rng, r, c), _param(rng, r, c)
        case(f"add:{r}x{c}", lambda a=a, b=b: _project(ad.add(a, b), 1), [a, b])
        _param(rng, r, c), _param(rng, r, c)  # the deleted sub op's draws
        a3, b3 = _param(rng, r, c), _param(rng, r, c)
        case(f"mul:{r}x{c}", lambda a=a3, b=b3: _project(mul(a, b), 3), [a3, b3])
        _param(rng, r, c)  # the deleted mul_scalar op's draw
        _param(rng, r, c)  # the deleted tanh op's draw
        x5 = _param(rng, r, c)
        case(f"sum_all:{r}x{c}", lambda x=x5: sum_all(x), [x5])
        x6 = _param(rng, r, c)
        case(f"mean_rows:{r}x{c}", lambda x=x6: _project(ad.mean_rows(x), 8), [x6])
        # the draws of three deleted ops' cases, kept so that every later
        # case keeps its parameters
        _param(rng, r, c), _param(rng, r, c), _param(rng, 1, c)
        _param(rng, r, c), _param(rng, r, 1)
        x10 = _param(rng, r, c)
        case(f"softmax_rows:{r}x{c}",
             lambda x=x10: _project(ad.softmax_rows(x), 12), [x10])

    for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 2, 3)]:
        _param(rng, m, k), _param(rng, k, n)  # the deleted matmul op's draws

    for (r, c) in [(2, 2), (3, 4), (1, 6)]:
        x = _param(rng, r, c)
        g, bta = _param(rng, 1, c, lo=0.5, hi=1.5), _param(rng, 1, c)
        case(f"layer_norm:{r}x{c}",
             lambda x=x, g=g, b=bta: _project(ad.layer_norm(x, g, b), 14), [x, g, bta])

    for sizes in [(1, 1), (2, 3, 1), (4, 2, 3)]:
        parts = [_param(rng, s, 3) for s in sizes]
        case(f"concat_rows:{sizes}",
             lambda ps=parts: _project(ad.concat_rows(ps), 15), parts)

    for (r, c) in [(3, 2), (5, 3), (4, 4)]:
        # the draws of the deleted slice_rows op and another deleted op
        _param(rng, r, c), _param(rng, c, r)

    for (r, c, idx) in [(3, 2, [0, 2, 2]), (5, 4, [4, 1, 1, 0, 3]), (2, 3, [1])]:
        x = _param(rng, r, c)
        case(f"take_rows:{r}x{c}{idx}",
             lambda x=x, idx=idx: _project(ad.take_rows(x, idx), 18), [x])

    for (d_in, d_out, n) in [(2, 3, 1), (4, 4, 3), (3, 2, 5)]:
        x, w, b = _param(rng, n, d_in), _param(rng, d_in, d_out), _param(rng, 1, d_out)
        case(f"linear:{n}x{d_in}->{d_out}",
             lambda x=x, w=w, b=b: _project(ad.linear(x, w, b), 19), [x, w, b])

    for (d, h, n) in [(2, 3, 1), (4, 6, 2), (3, 5, 4)]:
        x = _param(rng, n, d)
        w1, b1 = _param(rng, d, h), _param(rng, 1, h)
        w2, b2 = _param(rng, h, d), _param(rng, 1, d)
        case(f"mlp:{n}x{d}(h={h})",
             lambda x=x, w1=w1, b1=b1, w2=w2, b2=b2:
             _project(ad.mlp(x, w1, b1, w2, b2), 20), [x, w1, b1, w2, b2])

    def attention_case(label, nq, nk, d, causal, scaled):
        """cross_attention of q over kv, or causal self-attention of q."""
        q, kv = _param(rng, nq, d), _param(rng, nk, d)
        wq, wk, wv = (_param(rng, d, d) for _ in range(3))

        def attn_loss(q=q, kv=kv, wq=wq, wk=wk, wv=wv):
            out, _ = ad.cross_attention(q, q if causal else kv, wq, wk, wv,
                                        scale=scaled, causal=causal)
            return _project(out, 21)

        case(label, attn_loss, [q, wq, wk, wv] if causal
             else [q, kv, wq, wk, wv])

    for (nq, nk, d, masked, scaled) in [(1, 1, 2, False, False),
                                        (3, 4, 3, False, False),
                                        (2, 5, 4, False, True),
                                        (4, 4, 3, True, False)]:
        attention_case(f"cross_attention:{nq}q{nk}k d={d} mask={masked} "
                       f"scale={scaled}", nq, nk, d, masked, scaled)

    for (r, c) in [(1, 2), (3, 3), (4, 2)]:
        a, b = _param(rng, r, c), _param(rng, r, c)
        case(f"frobenius_distance_sq:{r}x{c}",
             lambda a=a, b=b: ad.frobenius_distance_sq(a, b), [a, b])

    # drawn here, where the deleted sum_squares op drew them; their
    # squared_norm cases are appended last
    norm_inputs = [(shapes, [_param(rng, r, c) for r, c in shapes])
                   for shapes in [[(1, 1)], [(2, 3), (1, 3)],
                                  [(3, 2), (1, 4), (2, 2)]]]

    for (steps, v) in [(1, 3), (3, 5), (4, 2)]:
        logits = _param(rng, steps, v)
        targets = [int(t) for t in rng.integers(0, v, size=steps)]
        case(f"cross_entropy:{steps}steps V={v}",
             lambda z=logits, t=targets: ad.cross_entropy_loss(z, t),
             [logits])
    # logits over +-40: targets of probability ~e^-80, far below any floor
    # a loss over probabilities would need, and a tie at the top; no rng
    # draw, so every later case keeps its parameters
    spread = ad.Tensor([[-40.0, 40.0, 39.0, 38.5], [40.0, -40.0, 40.0, -40.0],
                        [40.0, 39.5, -40.0, 0.0]], requires_grad=True)
    case("cross_entropy:3steps V=4 logits +-40",
         lambda z=spread: ad.cross_entropy_loss(z, [0, 1, 0]), [spread])

    # segment_attention once took projected q, k, v; x is the draw that
    # was q, and the projections are drawn after every other case
    segment_inputs = []
    for (lengths, d, scaled) in [([4], 3, False), ([2, 2, 2], 2, False),
                                 ([3, 1, 2], 2, False),
                                 ([2, 5, 1, 3], 4, True)]:
        x = _param(rng, sum(lengths), d)
        _param(rng, sum(lengths), d), _param(rng, sum(lengths), d)
        segment_inputs.append((lengths, d, scaled, x))

    for (lengths, c) in [([1], 3), ([2, 1, 3], 2), ([1, 4, 1], 3)]:
        x = _param(rng, sum(lengths), c)
        case(f"mean_rows:segments {lengths} x{c}",
             lambda x=x, lengths=lengths: _project(ad.mean_rows(x, lengths), 23),
             [x])

    # appended last, so the cases above keep their random draws
    for (nq, nk, d, causal) in [(4, 4, 3, True), (1, 6, 4, False)]:
        attention_case(f"cross_attention:{nq}q{nk}k d={d} causal={causal} "
                       f"scale=True", nq, nk, d, causal, True)

    for (n, d) in [(1, 1), (3, 2), (4, 5)]:
        x, y = _param(rng, n, d), _param(rng, n, d)
        s_x, s_y = (_param(rng, n, 1, lo=-2.0, hi=2.0) for _ in range(2))
        case(f"gate:{n}x{d}",
             lambda x=x, y=y, s_x=s_x, s_y=s_y:
             _project(ad.gate(x, y, s_x, s_y)[0], 24), [x, y, s_x, s_y])

    for shapes, xs in norm_inputs:
        buf = ad.ParamBuffer(xs)
        case(f"squared_norm:{shapes}", lambda buf=buf: ad.squared_norm(buf),
             xs)

    for lengths, d, scaled, x in segment_inputs:
        ws = [_param(rng, d, d) for _ in range(3)]
        case(f"segment_attention:{lengths} d={d} scale={scaled}",
             lambda x=x, ws=ws, lengths=lengths, scaled=scaled:
             _project(ad.segment_attention(x, *ws, lengths, scale=scaled),
                      22), [x] + ws)

    for (v, p, ids, positions) in [(3, 2, [0], [1]),
                                   (4, 5, [2, 0, 2], [0, 1, 2]),
                                   (5, 3, [4, 1, 1, 0], [0, 1, 0, 2])]:
        token, position = _param(rng, v, 3), _param(rng, p, 3)
        case(f"embed:V={v} P={p} ids={ids} positions={positions}",
             lambda t=token, p=position, ids=ids, pos=positions:
             _project(ad.embed(t, p, ids, pos), 25), [token, position])

    for (n, d) in [(1, 2), (3, 3), (4, 5)]:
        h, y = _param(rng, n, d), _param(rng, n, d)
        g, bta = _param(rng, 1, d, lo=0.5, hi=1.5), _param(rng, 1, d)
        case(f"residual_layer_norm:{n}x{d}",
             lambda h=h, y=y, g=g, b=bta:
             _project(ad.residual_layer_norm(h, y, g, b), 26), [h, y, g, bta])

    # the kernel under cross_attention's backward, which inference also
    # runs on keys and values projected once; w_q is the draw of the deleted
    # attention op's query projection
    for (nq, nk, d, causal, scaled) in [(1, 1, 2, False, False),
                                        (3, 5, 3, False, True),
                                        (4, 4, 2, True, False)]:
        q, _ = _param(rng, nq, d), _param(rng, d, d)
        k, v = _param(rng, nk, d), _param(rng, nk, d)
        case(f"attention:{nq}q{nk}k d={d} causal={causal} scale={scaled}",
             lambda q=q, k=k, v=v, causal=causal, scaled=scaled:
             _project(attend(q, k, v, scaled, causal), 27), [q, k, v])

    for weights in [(0.7,), (1.0, -0.3), (2.0, 0.1, 1e-3)]:
        terms = [_param(rng, 1, 1) for _ in weights]
        case(f"weighted_sum:{weights}",
             lambda terms=terms, weights=weights:
             ad.weighted_sum(terms, weights), terms)

    return cases


# ------------------------------------------------- parameter factories

def make_attention(rng, d, scale=False) -> AttentionParams:
    return AttentionParams(_param(rng, d, d), _param(rng, d, d),
                           _param(rng, d, d), scale)


def make_mlp(rng, d, h) -> MlpParams:
    return MlpParams(_param(rng, d, h), _param(rng, 1, h),
                     _param(rng, h, d), _param(rng, 1, d))


def make_encoder_block(rng, d, h, scale=False) -> EncoderBlockParams:
    return EncoderBlockParams(make_attention(rng, d, scale),
                              _param(rng, 1, d, lo=0.5, hi=1.5),
                              _param(rng, 1, d),
                              make_mlp(rng, d, h),
                              _param(rng, 1, d, lo=0.5, hi=1.5),
                              _param(rng, 1, d))


def make_decoder_block(rng, d, h, scale=False) -> DecoderBlockParams:
    def gain():
        return _param(rng, 1, d, lo=0.5, hi=1.5)

    def attn():
        return make_attention(rng, d, scale)

    return DecoderBlockParams(attn(), gain(), _param(rng, 1, d),
                              attn(), gain(), _param(rng, 1, d),
                              attn(), gain(), _param(rng, 1, d),
                              make_mlp(rng, d, h), gain(), _param(rng, 1, d))


def make_fusion(rng, d) -> FusionParams:
    return FusionParams(_param(rng, d, d), _param(rng, 1, d),
                        _param(rng, d, d), _param(rng, 1, d),
                        _param(rng, d, 1))


def attention_tensors(attn: AttentionParams) -> list[ad.Tensor]:
    return [attn.w_q, attn.w_k, attn.w_v]


def mlp_tensors(mlp: MlpParams) -> list[ad.Tensor]:
    return [mlp.w1, mlp.b1, mlp.w2, mlp.b2]


def encoder_block_tensors(block: EncoderBlockParams) -> list[ad.Tensor]:
    return (attention_tensors(block.attn)
            + [block.ln1_gain, block.ln1_bias]
            + mlp_tensors(block.mlp)
            + [block.ln2_gain, block.ln2_bias])


def decoder_block_tensors(block: DecoderBlockParams) -> list[ad.Tensor]:
    return (attention_tensors(block.self_attn)
            + [block.ln1_gain, block.ln1_bias]
            + attention_tensors(block.knowledge_attn)
            + [block.ln2_gain, block.ln2_bias]
            + attention_tensors(block.encoder_attn)
            + [block.ln3_gain, block.ln3_bias]
            + mlp_tensors(block.mlp)
            + [block.ln4_gain, block.ln4_bias])


def fusion_tensors(f: FusionParams) -> list[ad.Tensor]:
    return [f.w_t, f.b_t, f.w_h, f.b_h, f.a]


def build_composite_grad_cases(seed: int = 1):
    """(label, loss_fn, params) triples for every pipeline composite."""
    rng = np.random.default_rng(seed)
    cases = []

    def case(label, f, params):
        cases.append((label, f, params))

    # compose_attributes: concat + shared encoder
    for i, (nk, nt, nv, d, h, n_blocks) in enumerate(
            [(1, 2, 1, 2, 3, 1), (2, 3, 0, 3, 4, 1), (0, 2, 2, 4, 5, 2)]):
        E_k, E_t, E_v = (_param(rng, nk, d), _param(rng, nt, d),
                         _param(rng, nv, d))
        blocks = tuple(make_encoder_block(rng, d, h) for _ in range(n_blocks))
        params = ([p for p, n in ((E_k, nk), (E_t, nt), (E_v, nv)) if n > 0]
                  + [t for b in blocks for t in encoder_block_tensors(b)])
        case(f"compose_attributes:{nk}+{nt}+{nv} d={d} blocks={n_blocks}",
             lambda E_k=E_k, E_t=E_t, E_v=E_v, blocks=blocks:
             _project(compose_attributes(E_k, E_t, E_v, blocks), 30 + i),
             params)

    # reorganize_relations: cross-attention reorganization
    for i, (nb, nh, d) in enumerate([(1, 1, 2), (3, 2, 3), (2, 4, 4)]):
        T_t, T_h = _param(rng, nb, d), _param(rng, nh, d)
        attn = make_attention(rng, d)
        case(f"reorganize_relations:{nb}x{nh} d={d}",
             lambda T_t=T_t, T_h=T_h, attn=attn:
             _project(reorganize_relations(T_t, T_h, attn)[0], 40 + i),
             [T_t, T_h] + attention_tensors(attn))

    # fuse: pairwise-softmax convex combination
    for i, (n, d) in enumerate([(1, 2), (3, 3), (4, 5)]):
        T_t, T_h_bar = _param(rng, n, d), _param(rng, n, d)
        fusion = make_fusion(rng, d)
        case(f"fuse:{n}x{d}",
             lambda T_t=T_t, T_h_bar=T_h_bar, fusion=fusion:
             _project(fuse(T_t, T_h_bar, fusion)[2], 50 + i),
             [T_t, T_h_bar] + fusion_tensors(fusion))

    # project_semantic: latent queries + MLP residual
    for i, (np_, nt, d, h) in enumerate([(1, 2, 2, 3), (2, 1, 3, 4),
                                         (3, 4, 4, 2)]):
        latent = LatentQuerySet(_param(rng, np_, d))
        T = _param(rng, nt, d)
        proj = SemanticProjectionParams(make_attention(rng, d),
                                        make_mlp(rng, d, h))
        case(f"project_semantic:P={np_} T={nt} d={d}",
             lambda latent=latent, T=T, proj=proj:
             _project(project_semantic(latent, T, proj), 60 + i),
             [latent.P_g, T] + attention_tensors(proj.attn)
             + mlp_tensors(proj.mlp))

    # decode_states: the full decoder stack at the last position
    for i, (nc, nk, ny, d, h, n_blocks) in enumerate(
            [(2, 1, 1, 2, 3, 1), (3, 0, 2, 3, 4, 1), (2, 2, 3, 3, 2, 2)]):
        T_c, E_k, E_y = (_param(rng, nc, d), _param(rng, nk, d),
                         _param(rng, ny, d))
        blocks = tuple(make_decoder_block(rng, d, h) for _ in range(n_blocks))
        params = ([p for p, n in ((T_c, nc), (E_k, nk), (E_y, ny)) if n > 0]
                  + [t for b in blocks for t in decoder_block_tensors(b)])
        case(f"decode_states:last row c={nc} k={nk} y={ny} d={d} "
             f"blocks={n_blocks}",
             lambda T_c=T_c, E_k=E_k, E_y=E_y, blocks=blocks, ny=ny:
             _project(ad.take_rows(decode_states(T_c, E_k, E_y, blocks),
                                   [ny - 1]), 70 + i), params)

    # semantic_enhance: the final cross-attention read
    for i, (nz, ns, d) in enumerate([(1, 1, 2), (2, 3, 3), (4, 2, 4)]):
        z_bar, T_sem = _param(rng, nz, d), _param(rng, ns, d)
        enh = SemanticEnhanceParams(make_attention(rng, d),
                                    _param(rng, 1, d, lo=0.5, hi=1.5),
                                    _param(rng, 1, d))
        case(f"semantic_enhance:{nz}x{ns} d={d}",
             lambda z_bar=z_bar, T_sem=T_sem, enh=enh:
             _project(semantic_enhance(z_bar, T_sem, enh), 80 + i),
             [z_bar, T_sem] + attention_tensors(enh.attn)
             + [enh.ln_gain, enh.ln_bias])

    # predict_token: output head + row softmax
    for i, (n, d, v) in enumerate([(1, 2, 3), (3, 3, 5), (2, 4, 4)]):
        z_hat = _param(rng, n, d)
        head = OutputHead(_param(rng, d, v), _param(rng, 1, v))
        case(f"predict_token:{n}x{d}->V={v}",
             lambda z_hat=z_hat, head=head:
             _project(predict_token(z_hat, head), 90 + i),
             [z_hat, head.w_y, head.b_y])

    # total_loss: weighted sum with the parameter-norm penalty
    for i, (steps, v, d, weights) in enumerate(
            [(1, 3, 2, LossWeights(1.0, 0.1, 1e-3)),
             (2, 4, 3, LossWeights(0.5, 1.0, 0.0)),
             (3, 2, 2, LossWeights(2.0, 0.0, 1e-2))]):
        logits = _param(rng, steps, v)
        targets = [int(t) for t in rng.integers(0, v, size=steps)]
        a, b = _param(rng, d, d), _param(rng, d, d)
        # ``a`` is both regularized and penalized: its gradient sums both
        extra = [_param(rng, 2, d), _param(rng, 1, d)]
        penalized = ad.ParamBuffer(extra + [a])

        def loss_fn(logits=logits, targets=targets, a=a, b=b,
                    penalized=penalized, weights=weights):
            l_ce = ad.cross_entropy_loss(logits, targets)
            l_r = ad.frobenius_distance_sq(a, b)
            return total_loss(l_ce, l_r, penalized, weights)

        case(f"total_loss:{steps}steps V={v} {weights}", loss_fn,
             [logits, a, b] + extra)

    # encode_relation_tuples: every tuple in one segmented encoder pass
    vocab = Vocabulary(["a", "b", "c", "near", "in"])
    tuples = [RelationTuple(("a", "near", "b c")),
              RelationTuple(("b", "in", "c", "near", "a")),
              RelationTuple(("c", "in", "a"))]
    table = EmbeddingTable(_param(rng, len(vocab), 3), _param(rng, 6, 3))
    blocks = tuple(make_encoder_block(rng, 3, 4, scale=True)
                   for _ in range(2))
    prepared = prepare_context([], [], np.zeros((0, 0)), tuples, vocab,
                               table.max_len)
    case("encode_relation_tuples:lengths 3+4+5 d=3 blocks=2 scale=True",
         lambda table=table, blocks=blocks:
         _project(encode_relation_tuples(prepared, table, blocks), 35),
         [table.token, table.position]
         + [t for b in blocks for t in encoder_block_tensors(b)])

    return cases


def dense_adjacency(n_entities: int, degree: int,
                    seed: int = 0) -> dict[str, list[tuple[str, str]]]:
    """Entities ``e000``, ``e001``, ... each with attributes ``r00``,
    ``r01``, ... whose ``degree`` values name distinct other entities, so
    every node of the graph has ``degree`` out-neighbours, none itself."""
    rng = np.random.default_rng(seed)
    names = [f"e{i:03d}" for i in range(n_entities)]
    return {name: [(f"r{k:02d}", names[(i + 1 + int(j)) % n_entities])
                   for k, j in enumerate(rng.choice(n_entities - 1,
                                                    size=degree,
                                                    replace=False))]
            for i, name in enumerate(names)}


def kb_of(adjacency: dict[str, list[tuple[str, str]]]) -> KnowledgeBase:
    """The knowledge base whose entities carry ``adjacency``'s pairs."""
    return KnowledgeBase(Entity(name, tuple(AttributeValuePair(t, v)
                                            for t, v in pairs))
                         for name, pairs in adjacency.items())


@contextmanager
def address_space_cap(extra: int = 1 << 30):
    """Cap this process's address space at its present size plus ``extra``
    bytes, so that code which allocates without bound fails with
    MemoryError instead of filling the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
