"""Output checks, run after the timed region.

Each check compares what the program produced against a reference written
here, independently of the package internals it verifies. A check returns
None when the output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import numpy as np

from kgdialog import autodiff as ad

# Greedy picks may differ from the teacher-forced argmax only on a near-tie:
# an incremental decoder must reproduce the step distributions to 1e-9.
TIE_TOLERANCE = 1e-9
LOG_FLOOR = 1e-12
GRAD_RTOL = 1e-4
FD_STEP = 1e-5


def _step_table(model, ctx, comp, ids):
    """Teacher-forced distributions after [BOS] + ids[:j], for j = 0..len.

    teacher_predictions needs a non-empty response and predicts one row per
    prefix, so one extra token is appended; causal masking keeps it from
    affecting the rows before it.
    """
    tokens = model.vocab.decode(list(ids) + [model.vocab.UNK])
    probs, _, _ = model.teacher_predictions(ctx, tokens,
                                            enhance_with="composed",
                                            comp=comp)
    return probs.data


def check_greedy(model, ctx, reply, max_len):
    """The reply must be the argmax path of the teacher-forced
    distributions, and must end exactly where </s> wins or max_len hits."""
    with ad.no_grad():
        comp = model.compose_context(ctx)
        ids = model.vocab.encode(reply)
        table = _step_table(model, ctx, comp, ids)
    wanted = ids + ([model.vocab.EOS] if len(ids) < max_len else [])
    for step, token in enumerate(wanted):
        row = table[step]
        if row[token] < row.max() - TIE_TOLERANCE:
            return (f"greedy step {step}: chose {token} with p={row[token]:.6g},"
                    f" best {int(np.argmax(row))} with p={row.max():.6g}")
    return None


def reference_beam(model, ctx, width, max_len):
    """Beam search over teacher-forced step distributions.

    Keeps the ``width`` best prefixes by summed log probability (floored at
    1e-12); each live prefix proposes its ``width`` best next tokens, lowest
    index first on ties; candidates rank by score, then by token sequence.
    Finished prefixes carry over unchanged.
    """
    eos = model.vocab.EOS
    with ad.no_grad():
        comp = model.compose_context(ctx)
        beams = [(0.0, (), False)]
        for _ in range(max_len):
            if all(done for _, _, done in beams):
                break
            candidates = []
            for score, ids, done in beams:
                if done:
                    candidates.append((score, ids, True))
                    continue
                row = _step_table(model, ctx, comp, ids)[len(ids)]
                logp = np.log(np.maximum(row, LOG_FLOOR))
                for token in np.argsort(-logp, kind="stable")[:width]:
                    token = int(token)
                    candidates.append((score + float(logp[token]),
                                       ids + (token,), token == eos))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            beams = candidates[:width]
    best = list(beams[0][1])
    if best and best[-1] == eos:
        best = best[:-1]
    return model.vocab.decode(best)


def check_beam(model, ctx, reply, width, max_len):
    expected = reference_beam(model, ctx, width, max_len)
    if list(reply) != expected:
        return f"beam:{width} reply {reply} != reference {expected}"
    return None


def maximal_paths(adjacency, seed, max_hops, max_tuples):
    """Every maximal simple path of 1..max_hops edges from ``seed``, as
    [node, label, node, ...] tuples, kept shortest first then
    lexicographically up to ``max_tuples``.

    Paths grow one hop per round; a path is maximal when it has used the
    hop budget or no edge leaves it to a node not yet on it.
    """
    found = []
    frontier = [((seed,), frozenset([seed]))]
    for hops in range(1, max_hops + 1):
        grown = []
        for entries, on_path in frontier:
            steps = [(label, tail) for label, tail in adjacency.get(entries[-1], ())
                     if tail not in on_path]
            if not steps and hops > 1:
                found.append(entries)
            for label, tail in steps:
                grown.append((entries + (label, tail), on_path | {tail}))
        frontier = grown
    found.extend(entries for entries, _ in frontier)
    found.sort(key=lambda entries: (len(entries), entries))
    return found[:max_tuples]


def check_walk(model, ctx, adjacency, seed, max_hops, max_tuples):
    """The tuples the model acquired must equal the brute-force walk."""
    _, tuples = model.acquire(ctx)
    got = sorted(t.entries for t in tuples)
    expected = sorted(maximal_paths(adjacency, seed, max_hops, max_tuples))
    if got != expected:
        return (f"walk from {seed!r}: {len(got)} tuples differ from "
                f"{len(expected)} reference tuples")
    return None


def check_gradients(model, pair):
    """Central finite differences of loss_pair against backward, at the
    largest-gradient entry of a few parameter tensors spread over the
    model (first, last and two in between)."""
    named = list(model.params.named().items())
    picks = sorted({0, len(named) // 3, 2 * len(named) // 3, len(named) - 1})
    for _, tensor in named:
        tensor.zero_grad()
    loss, _ = model.loss_pair(pair.context, pair.response)
    loss.backward()
    for index in picks:
        name, tensor = named[index]
        if tensor.grad is None:
            return f"no gradient reached {name}"
        entry = np.unravel_index(np.argmax(np.abs(tensor.grad)), tensor.shape)
        analytic = float(tensor.grad[entry])
        saved = float(tensor.data[entry])
        values = []
        for sign in (1.0, -1.0):
            tensor.data[entry] = saved + sign * FD_STEP
            values.append(model.loss_pair(pair.context, pair.response)[0].item())
        tensor.data[entry] = saved
        numeric = (values[0] - values[1]) / (2 * FD_STEP)
        scale = max(abs(analytic), abs(numeric))
        if scale and abs(analytic - numeric) / scale > GRAD_RTOL:
            return (f"gradient of {name}{tuple(int(i) for i in entry)}: "
                    f"backward {analytic:.8g} vs finite difference {numeric:.8g}")
    return None
