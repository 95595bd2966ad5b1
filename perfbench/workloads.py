"""The benchmark's workloads: generated inputs, set-up, timed loop, checks.

Every workload is a closed loop with one client and no think time: the
package is a single-process library whose callers wait for each reply.
All inputs come from the seed; the program sees only the generated
knowledge base, pairs and contexts.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from kgdialog.acquire import DialogContext
from kgdialog.config import TrainingConfig
from kgdialog.corpus import make_synthetic_corpus
from kgdialog.kb import AttributeValuePair, Entity, KnowledgeBase
from kgdialog.model import build_model, build_vocabulary
from kgdialog.training import train_model

import checks

# The overfit-study shape (scripts/run_overfit.py).
STUDY_SHAPE = dict(dim=64, enc_blocks=2, dec_blocks=2, n_latent=8,
                   learning_rate=5e-3, batch_size=4, attn_scale=True)
STUDY_ENTITIES, STUDY_PAIRS = 24, 32
# Each timed training run starts from a fresh model, so epoch 1 acquires
# and the rest are served from the acquisition cache.
TRAIN_EPOCHS = 4
# (class name, strategy, max_len) of the generate workload's request mix.
REQUEST_CLASSES = (("greedy_short", "greedy", 8),
                   ("greedy_long", "greedy", 32),
                   ("beam4", "beam:4", 16))
DENSE_ENTITIES, DENSE_DEGREE = 400, 24
DENSE_HOPS, DENSE_TUPLES, DENSE_MAX_LEN = 3, 64, 4
CHECKS_PER_CLASS = 4
GENERATE_CONTENT_SEED = 1
# An untraced run goes on past its seconds until it has this many windows,
# so that at least ten windows lie beyond their 75th percentile.
MIN_WINDOWS = 40


class Clock:
    """The measured time of a timed loop.

    The loop asks ``more(ops)`` before each op. ``between`` runs ``times``
    times, at even steps of measured time within the first ``seconds``, and
    the time it takes is left out of the measurement. The loop goes on
    until ``seconds`` have been measured and ``min_ops`` ops have been done.
    """

    def __init__(self, seconds: float, min_ops: int = 0, between=None,
                 times: int = 0):
        self.seconds, self.min_ops = seconds, min_ops
        self.between, self.times, self.done = between, times, 0
        self.paused = 0.0
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started - self.paused

    def more(self, ops: int) -> bool:
        elapsed = self.elapsed()
        while (self.done < self.times
               and elapsed >= self.seconds * (self.done + 1) / (self.times + 1)):
            t0 = time.perf_counter()
            self.between()
            self.paused += time.perf_counter() - t0
            self.done += 1
        return elapsed < self.seconds or ops < self.min_ops


@dataclass
class Op:
    """One timed sample (a reply, or a training epoch of ``items`` pairs)
    and what its checks need."""

    seconds: float
    items: int
    klass: str = ""
    payload: tuple = ()


@dataclass
class Result:
    ops: list[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)


def _fresh_context(ctx: DialogContext) -> DialogContext:
    """A new context object with the same content: a caller's request is a
    new object, so it misses the id-keyed acquisition cache."""
    return DialogContext(tuple(ctx.text_tokens), ctx.image_features.copy())


def _study_inputs(seed: int):
    syn = make_synthetic_corpus(seed, n_entities=STUDY_ENTITIES,
                                n_pairs=STUDY_PAIRS)
    vocab = build_vocabulary(
        [list(p.context.text_tokens) + list(p.response) for p in syn.pairs],
        syn.kb)
    return syn, vocab


class Workload:
    """Set-up, timed loop and checks; ``log`` is the package's log tap."""

    def __init__(self, log):
        self.log = log


# ------------------------------------------------------------------- train

class Train(Workload):
    """train_model at the overfit-study shape; one op is one training pair."""

    item = "pairs"
    window = 1  # an Op here is already a whole epoch

    def setup(self, seed: int) -> None:
        self.syn, self.vocab = _study_inputs(seed)
        self.cfg = TrainingConfig(**STUDY_SHAPE, epochs=TRAIN_EPOCHS, seed=seed)
        warm = build_model(self.vocab, self.syn.kb, self.cfg)
        train_model(warm, self.syn.pairs[:self.cfg.batch_size],
                    self.cfg.replace(epochs=1), log_every=0)
        self.reference_losses = None
        self.last_model = None

    def run(self, clock: Clock, tracer=None) -> Result:
        pairs, epoch_marks = self.syn.pairs, self.log.epoch_marks
        res = Result()
        losses = []
        while clock.more(len(res.ops)):
            epoch_marks.clear()
            res.attempted += len(pairs) * self.cfg.epochs
            model = build_model(self.vocab, self.syn.kb, self.cfg)
            t0 = time.perf_counter()
            try:
                out = train_model(model, pairs, self.cfg, log_every=1)
            except Exception as exc:  # every failure is counted, never dropped
                res.failed += len(pairs) * self.cfg.epochs
                res.errors.append(f"train_model: {exc!r}")
                res.ops.append(Op(time.perf_counter() - t0,
                                  len(pairs) * self.cfg.epochs))
                continue
            ends = [t0] + list(epoch_marks)
            if len(ends) != self.cfg.epochs + 1:
                # no per-epoch log records: spread the run evenly
                total = time.perf_counter() - t0
                ends = [t0 + total * k / self.cfg.epochs
                        for k in range(self.cfg.epochs + 1)]
            for a, b in zip(ends, ends[1:]):
                res.ops.append(Op(b - a, len(pairs)))
            problem = self._check_losses(out.epoch_losses)
            if problem:
                res.failed += len(pairs) * self.cfg.epochs
                res.errors.append(problem)
            losses = out.epoch_losses
            self.last_model = model
        res.wall_s = clock.elapsed()
        res.extra["epoch_losses"] = losses
        return res

    def _check_losses(self, losses):
        if not all(np.isfinite(losses)):
            return f"non-finite epoch loss {losses}"
        if not losses[-1] < losses[0]:
            return f"loss did not fall: {losses}"
        if self.reference_losses is None:
            self.reference_losses = list(losses)
        elif list(losses) != self.reference_losses:
            return f"fixed-seed retrain differs: {losses} vs {self.reference_losses}"
        return None

    def check(self, res: Result) -> None:
        if self.last_model is None:
            return
        problem = checks.check_gradients(self.last_model, self.syn.pairs[2])
        res.extra["checked"] = {"gradient": 1, "epoch_losses": len(res.ops)}
        if problem:
            res.failed += 1
            res.errors.append(problem)

    def per_item_ms(self, op: Op) -> float:
        return 1000.0 * op.seconds / op.items


# ---------------------------------------------------------------- requests

class _Requests(Workload):
    """Shared closed loop for the two reply workloads: one op is one reply."""

    item = "tokens"

    def request(self, i: int) -> tuple[str, DialogContext, str, int]:
        raise NotImplementedError

    def run(self, clock: Clock, tracer=None) -> Result:
        res = Result()
        i = 0
        while clock.more(len(res.ops)):
            klass, ctx, strategy, max_len = self.request(i)
            i += 1
            res.attempted += 1
            if tracer is not None:
                tracer.request_class = klass
            t0 = time.perf_counter()
            try:
                reply = self.model.generate_response(ctx, max_len=max_len,
                                                     strategy=strategy)
            except Exception as exc:  # every failure is counted, never dropped
                res.failed += 1
                res.errors.append(f"{klass}: {exc!r}")
                res.ops.append(Op(time.perf_counter() - t0, 0, klass))
                continue
            dt = time.perf_counter() - t0
            res.ops.append(Op(dt, len(reply), klass,
                              (ctx, reply, strategy, max_len)))
        res.wall_s = clock.elapsed()
        return res

    def check(self, res: Result) -> None:
        checked: dict[str, int] = {}
        for op in res.ops:
            if not op.payload or checked.get(op.klass, 0) >= CHECKS_PER_CLASS:
                continue
            checked[op.klass] = checked.get(op.klass, 0) + 1
            for problem in self.check_op(*op.payload):
                if problem:
                    res.failed += 1
                    res.errors.append(f"{op.klass}: {problem}")
                    break
        res.extra["checked"] = checked

    def check_op(self, ctx, reply, strategy, max_len):
        if strategy == "greedy":
            yield checks.check_greedy(self.model, ctx, reply, max_len)
        else:
            width = int(strategy.split(":")[1])
            yield checks.check_beam(self.model, ctx, reply, width, max_len)

    def per_item_ms(self, op: Op) -> float:
        return 1000.0 * op.seconds


class Generate(_Requests):
    """An untrained seeded model answering fresh copies of the synthetic
    contexts, cycling greedy max_len 8, greedy max_len 32 and beam:4
    max_len 16.

    The corpus and model come from GENERATE_CONTENT_SEED and the run's seed
    draws the order of the contexts. Where the untrained model stops is a
    property of its weights: over corpus seeds 1-6 the mean greedy reply
    at max_len 32 ran from 20 to 32 tokens, which would swamp the timing.
    """

    def setup(self, seed: int) -> None:
        self.syn, vocab = _study_inputs(GENERATE_CONTENT_SEED)
        cfg = TrainingConfig(**STUDY_SHAPE, seed=GENERATE_CONTENT_SEED)
        self.model = build_model(vocab, self.syn.kb, cfg)
        self.order = np.random.default_rng(seed).permutation(len(self.syn.pairs))
        for i in range(len(REQUEST_CLASSES)):
            _, ctx, strategy, max_len = self.request(i)
            self.model.generate_response(ctx, max_len=max_len, strategy=strategy)

    window = 4 * len(REQUEST_CLASSES)

    def request(self, i):
        klass, strategy, max_len = REQUEST_CLASSES[i % len(REQUEST_CLASSES)]
        pair = self.syn.pairs[int(self.order[i % len(self.order)])]
        return klass, _fresh_context(pair.context), strategy, max_len


def dense_kb_doc(seed: int) -> list[tuple[str, list[tuple[str, str]]]]:
    """DENSE_ENTITIES entities, each with DENSE_DEGREE attributes whose
    values are the names of distinct other entities, so every entity has
    out-degree DENSE_DEGREE in the graph."""
    rng = np.random.default_rng(seed)
    names = [f"site {i:03d}" for i in range(DENSE_ENTITIES)]
    doc = []
    for i, name in enumerate(names):
        others = np.array([j for j in range(DENSE_ENTITIES) if j != i])
        targets = rng.choice(others, size=DENSE_DEGREE, replace=False)
        doc.append((name, [(f"r{k:02d}", names[int(t)])
                           for k, t in enumerate(targets)]))
    return doc


class DenseKB(_Requests):
    """Greedy replies about one random entity of a dense generated graph:
    a 3-hop walk lists every path before it keeps 64 tuples."""

    window = 4

    def setup(self, seed: int) -> None:
        doc = dense_kb_doc(seed)
        kb = KnowledgeBase(Entity(name, tuple(AttributeValuePair(t, v)
                                              for t, v in attrs))
                           for name, attrs in doc)
        self.names = [name for name, _ in doc]
        self.adjacency = dict(doc)
        self.targets = np.random.default_rng(seed + 1).integers(
            len(self.names), size=4096)
        vocab = build_vocabulary([self._tokens(n) for n in self.names], kb)
        cfg = TrainingConfig(**STUDY_SHAPE, seed=seed, max_hops=DENSE_HOPS,
                             max_tuples=DENSE_TUPLES, max_gen_len=DENSE_MAX_LEN)
        self.model = build_model(vocab, kb, cfg)
        _, ctx, strategy, max_len = self.request(0)
        self.model.generate_response(ctx, max_len=max_len, strategy=strategy)

    @staticmethod
    def _tokens(name):
        return ["what", "is", "around"] + name.split()

    def request(self, i):
        name = self.names[int(self.targets[i % len(self.targets)])]
        return ("greedy4", DialogContext(tuple(self._tokens(name))),
                "greedy", DENSE_MAX_LEN)

    def check_op(self, ctx, reply, strategy, max_len):
        seed = " ".join(ctx.text_tokens[3:])
        yield checks.check_walk(self.model, ctx, self.adjacency, seed,
                                DENSE_HOPS, DENSE_TUPLES)
        yield from super().check_op(ctx, reply, strategy, max_len)


WORKLOADS = {"train": Train, "generate": Generate, "dense_kb": DenseKB}
