"""Corpus-level n-gram overlap metrics for generated responses.

Both metrics operate on token lists and aggregate clipped n-gram match
counts over the whole corpus before combining, so single sentences cannot
dominate through length alone.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

Tokens = Sequence[str]


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_ngrams(cand: Tokens, ref: Tokens, n: int) -> tuple[int, dict]:
    """The candidate's n-gram total, and each of its n-grams' count clipped
    to the reference's count, in the candidate's n-gram order."""
    cand_counts, ref_counts = _ngrams(cand, n), _ngrams(ref, n)
    return sum(cand_counts.values()), {g: min(c, ref_counts[g])
                                       for g, c in cand_counts.items()}


def _check_corpus(candidates: Sequence[Tokens],
                  references: Sequence[Tokens]) -> None:
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ValueError("empty corpus")


def bleu_n(candidates: Sequence[Tokens], references: Sequence[Tokens],
           max_order: int = 4) -> float:
    """Corpus BLEU with uniform weights over orders ``1..max_order``.

    Uses modified (clipped) n-gram precision, a geometric mean without
    smoothing, and the standard brevity penalty ``exp(1 - r/c)`` for
    candidates shorter than their references. Any empty order zeroes the
    whole score.
    """
    _check_corpus(candidates, references)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    matched = [0] * max_order
    total = [0] * max_order
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            n_total, clipped = _clipped_ngrams(cand, ref, n)
            total[n - 1] += n_total
            matched[n - 1] += sum(clipped.values())
    if any(t == 0 or m == 0 for m, t in zip(matched, total)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total))
    geo_mean = math.exp(log_precision / max_order)
    brevity = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / max(cand_len, 1))
    return brevity * geo_mean


_NIST_BETA = math.log(0.5) / math.log(1.5) ** 2


def _nist_info_weights(references: Sequence[Tokens],
                       max_order: int) -> dict[tuple[str, ...], float]:
    """Information weight of each reference n-gram.

    A unigram ``w`` carries ``log2(total_unigrams / count(w))``; a longer
    n-gram carries ``log2(count(prefix) / count(ngram))``, both estimated
    from the reference corpus.
    """
    counts: list[Counter] = [Counter() for _ in range(max_order)]
    for ref in references:
        for n in range(1, max_order + 1):
            counts[n - 1].update(_ngrams(ref, n))
    total_unigrams = sum(counts[0].values())
    info: dict[tuple[str, ...], float] = {}
    for n in range(1, max_order + 1):
        for gram, c in counts[n - 1].items():
            if n == 1:
                info[gram] = math.log2(total_unigrams / c)
            else:
                info[gram] = math.log2(counts[n - 2][gram[:-1]] / c)
    return info


def nist(candidates: Sequence[Tokens], references: Sequence[Tokens],
         max_order: int = 5) -> float:
    """Corpus NIST score over orders ``1..max_order``.

    Per order, sums the information weights of clipped candidate n-gram
    matches over total candidate n-grams; the orders are summed and scaled
    by the NIST brevity factor ``exp(beta * ln^2(min(c/r, 1)))``.
    """
    _check_corpus(candidates, references)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    info = _nist_info_weights(references, max_order)
    score = 0.0
    for n in range(1, max_order + 1):
        gained = 0.0
        total = 0
        for cand, ref in zip(candidates, references):
            n_total, clipped = _clipped_ngrams(cand, ref, n)
            total += n_total
            gained += sum(info.get(g, 0.0) * m for g, m in clipped.items())
        if total:
            score += gained / total
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    ratio = min(cand_len / ref_len, 1.0) if ref_len else 1.0
    brevity = math.exp(_NIST_BETA * math.log(ratio) ** 2)
    return brevity * score
