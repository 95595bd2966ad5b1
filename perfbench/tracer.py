"""Span tracing from outside the package.

The tracer replaces public functions and methods of ``kgdialog`` at every
place they are looked up: a function imported by name into another module
(``from .composer import compose``) is a separate binding, so each module
dict holding the same function object gets the wrapper. A target that no
longer exists is reported as absent instead of failing the run.

Each call records a span ``(name, start, end, parent, op)``; spans stay in
memory and are written out once, after the run. Self time is a span's
duration minus the time its direct children cover. Calls are strictly
nested (one thread), so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, "module:qualified.name"). Methods are patched on their class;
# functions are patched in every kgdialog module that binds them.
TARGETS = (
    ("model.loss_pair", "kgdialog.model:DialogModel.loss_pair"),
    ("model.generate_response", "kgdialog.model:DialogModel.generate_response"),
    ("acquire.acquire", "kgdialog.model:DialogModel.acquire"),
    ("acquire.text", "kgdialog.acquire:acquire_text_attributes"),
    ("acquire.visual", "kgdialog.acquire:acquire_visual_attributes"),
    ("acquire.walk", "kgdialog.acquire:walk_relations"),
    ("kb.build_graph", "kgdialog.kb:build_graph"),
    ("composer.compose", "kgdialog.composer:compose"),
    ("composer.encode", "kgdialog.composer:encode"),
    ("composer.tuple_encode", "kgdialog.composer:encode_relation_tuples"),
    ("composer.reorganize", "kgdialog.composer:reorganize_relations"),
    ("composer.fuse", "kgdialog.composer:fuse"),
    ("regularizer.project", "kgdialog.regularizer:project_semantic"),
    ("regularizer.truth_encode", "kgdialog.regularizer:encode_ground_truth"),
    ("decoder.states", "kgdialog.decoder:decode_states"),
    ("decoder.generate", "kgdialog.decoder:generate"),
    ("decoder.loss", "kgdialog.decoder:total_loss"),
    ("autodiff.backward", "kgdialog.autodiff:Tensor.backward"),
    ("autodiff.ce", "kgdialog.autodiff:cross_entropy_loss"),
    ("training.adam_step", "kgdialog.training:Adam.step"),
)

# A call to one of these starts a new operation (a training pair or a reply).
OP_ROOTS = {"model.loss_pair", "model.generate_response"}


def _resolve(spec):
    module_name, qualname = spec.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.op_class: dict[int, str] = {}
        self.request_class = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        self.absent = []
        for name, spec in TARGETS:
            try:
                owner, attr, original = _resolve(spec)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                places = [owner]
            else:
                places = [m for key, m in list(sys.modules.items())
                          if key.split(".")[0] == "kgdialog"]
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._undo.append((place, key, value))
                        setattr(place, key, wrapper)

    def uninstall(self) -> None:
        for place, key, value in reversed(self._undo):
            setattr(place, key, value)
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        starts_op = name in OP_ROOTS
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_op:
                self.op += 1
                self.op_class[self.op] = self.request_class
            if before is not None:
                before(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9),
                                     parent, op]))
                fh.write("\n")

    # ---------------------------------------------------------- reduction

    def reduce(self, first_op: int) -> dict:
        """Per-name totals over spans of operations numbered >= first_op.

        Returns {"incl": name -> seconds, "self": name -> seconds,
        "calls": name -> count, "by_class": (name, class) -> seconds,
        "ops": operation count, "ops_by_class": class -> count}.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl, own, calls, by_class = (defaultdict(float), defaultdict(float),
                                      Counter(), defaultdict(float))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op < first_op:
                continue
            duration = end - start
            incl[name] += duration
            own[name] += duration - child_time[index]
            calls[name] += 1
            by_class[name, self.op_class.get(op, "")] += duration
        ops = [op for op in self.op_class if op >= first_op]
        return {"incl": incl, "self": own, "calls": calls,
                "by_class": by_class, "ops": len(ops),
                "ops_by_class": Counter(self.op_class[op] for op in ops)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_graph(tracer, args, kwargs):
    from kgdialog import autodiff
    topo = getattr(autodiff, "topo_order", None)
    if topo is not None:
        tracer.counts["graph_nodes"] += len(topo(args[0]))
        tracer.counts["backward_calls"] += 1


def _count_rows(tracer, args, kwargs):
    tracer.counts["prefix_rows"] += _arg(args, kwargs, 2, "E_y").shape[0]


def _count_acquire(tracer, args, kwargs, result):
    tracer.counts["tuples"] += len(result[1])


def _count_targets(tracer, args, kwargs, result):
    # loss_pair predicts every response token plus the end marker
    tracer.counts["tokens", ""] += len(_arg(args, kwargs, 2,
                                            "response_tokens")) + 1


def _count_generated(tracer, args, kwargs, result):
    tracer.counts["tokens", tracer.request_class] += len(result)


_BEFORE = {"autodiff.backward": _count_graph,
           "decoder.states": _count_rows}
_AFTER = {"acquire.acquire": _count_acquire,
          "model.loss_pair": _count_targets,
          "model.generate_response": _count_generated}
