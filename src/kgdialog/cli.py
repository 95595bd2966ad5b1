"""Command-line entry point for the full dialog pipeline.

Commands: ``ingest`` validates a knowledge base, ``walk`` mines relation
tuples, ``retrieve`` runs attribute acquisition, ``synth`` generates a
knowledge base and corpus bundle, ``train`` fits a model, ``generate``
decodes a response, ``evaluate`` scores a corpus, ``dump-attention``
inspects the relation-attention and fusion gates, and ``export-reps``
dumps both semantic matrices per pair.

Exit codes: 0 on success, 1 on bad input, 2 on internal errors. Bad input
is a bad flag, an unreadable file, or a document its one reader rejects
(``kb_from_doc``, ``read_corpus``, ``DialogContext.from_utterances``,
``model_from_doc``, ``TrainingConfig.from_dict``): malformed or too deeply
nested JSON, a missing key, a wrong JSON type or a value out of range.
Diagnostics go to stderr; data goes to stdout or --out.
Where it makes sense, commands also read/write a "bundle" document
``{"kb": ..., "corpus": ..., "checkpoint": ...}`` so that
``synth | train | evaluate`` composes over pipes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import traceback

from . import __version__
from . import autodiff as ad
from .acquire import (AcquisitionConfig, DialogContext, acquire_attributes,
                      order_tuples, walk_relations)
from .config import TrainingConfig
from .corpus import (make_synthetic_corpus, pair_from_record, read_corpus,
                     save_corpus_records, save_kb_doc)
from .kb import build_graph, decode_json, kb_from_doc, parse_kb
from .model import checkpoint_doc, model_from_doc, save_checkpoint
from .training import TrainingDiverged, evaluate, train

# the package's format errors (KB, corpus, JSON, no images) are ValueErrors
_INPUT_ERRORS = (ValueError, OSError)


class _UsageError(Exception):
    """Bad command line; carries the message already printed via usage."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors as exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


# ----------------------------------------------------------------- plumbing

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: str | None) -> None:
    _emit(json.dumps(doc, sort_keys=True) + "\n", out)


def _document(path: str) -> str:
    return "stdin" if path == "-" else path


def _load_json(path: str):
    return decode_json(_read_text(path), _document(path))


def _in_document(path: str, read, *args):
    """``read(*args)``, a ValueError's message prefixed with the name of
    the document at ``path``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{_document(path)}: {exc}") from exc


def _context_from_args(args) -> DialogContext:
    """Build the dialog context from --context and/or --text/--features.

    A --context file is a JSON object {"utterances": [...]} with image
    features inline ("image_features": [[...], ...]) or by reference
    ("feature_files": [path, ...], each a JSON array of rows). Each file is
    read into a ``DialogContext`` of its own, so an error in one names its
    path, and the parts are joined in order.
    """
    utterances, parts = [], []
    if getattr(args, "context", None):
        doc = _load_json(args.context)
        if not isinstance(doc, dict) or not isinstance(
                doc.get("utterances"), list):
            raise ValueError(
                "--context file must be an object with an 'utterances' list")
        files = doc.get("feature_files") or []
        if not (isinstance(files, list)
                and all(isinstance(path, str) for path in files)):
            raise ValueError("--context 'feature_files' must be a list of "
                             "paths")
        utterances.extend(doc["utterances"])
        parts.append(_in_document(args.context, DialogContext.from_utterances,
                                  doc["utterances"],
                                  doc.get("image_features") or []))
        parts.extend(_in_document(path, DialogContext, (), _load_json(path))
                     for path in files)
    text = getattr(args, "text", None) or []
    utterances.extend(text)
    parts.append(DialogContext.from_utterances(text))
    if getattr(args, "features", None):
        parts.append(_in_document(args.features, DialogContext, (),
                                  _load_json(args.features)))
    if not utterances:
        raise ValueError("no context given: pass --context or --text")
    return DialogContext([t for part in parts for t in part.text_tokens],
                         [row for part in parts for row in part.image_features])


def _resolve_kb_corpus(args, need_model: bool):
    """Inputs from either --data (bundle) or separate --kb/--corpus/--model.

    Returns (kb, kb_doc, corpus records, DialogPairs, model-or-None).
    """
    checkpoint = None
    if args.data:
        bundle = _load_json(args.data)
        if not isinstance(bundle, dict) or "kb" not in bundle:
            raise ValueError(
                "bundle document must be an object with a 'kb' key")
        kb_doc = bundle["kb"]
        records = bundle.get("corpus", [])
        if not isinstance(records, list):
            raise ValueError("bundle 'corpus' must be a list of records")
        pairs = []
        for index, record in enumerate(records):
            try:
                pairs.append(pair_from_record(record))
            except ValueError as exc:
                raise ValueError(f"bundle corpus[{index}]: {exc}") from exc
        checkpoint = bundle.get("checkpoint")
    else:
        if not args.kb:
            raise ValueError("either --data or --kb is required")
        kb_doc = _load_json(args.kb)
        records, pairs = (read_corpus(_read_text(args.corpus))
                          if getattr(args, "corpus", None) else ([], []))
        if getattr(args, "checkpoint", None):
            checkpoint = _load_json(args.checkpoint)
    kb = kb_from_doc(kb_doc)
    model = None
    if need_model:
        if checkpoint is None:
            raise ValueError("a checkpoint is required: pass --checkpoint or "
                             "a bundle with a 'checkpoint' key")
        model = model_from_doc(checkpoint, kb)
    return kb, kb_doc, records, pairs, model


# -------------------------------------------------------------------- flags

# TrainingConfig's non-bool fields, in declaration order, with each flag's
# type by field annotation; the bool fields get --[no-] flags below
_FLAG_TYPES = {"int": int, "int | None": int, "float": float}
_CONFIG_FIELDS: dict[str, type] = {
    f.name: _FLAG_TYPES[f.type] for f in dataclasses.fields(TrainingConfig)
    if f.type != "bool"}


def _add_config_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_argument_group(
        "model configuration (flag > config file > default)")
    group.add_argument("--config", metavar="PATH",
                       help="JSON file of configuration fields")
    for name, kind in _CONFIG_FIELDS.items():
        group.add_argument(f"--{name.replace('_', '-')}", type=kind,
                           default=None, dest=name)
    group.add_argument("--relations", action=argparse.BooleanOptionalAction,
                       default=None, dest="use_relations",
                       help="compose walked relation tuples (default: on)")
    group.add_argument("--attention-scaling",
                       action=argparse.BooleanOptionalAction,
                       default=None, dest="attn_scale",
                       help="scale attention scores by 1/sqrt(dim)")


def _build_config(args) -> TrainingConfig:
    fields: dict = {}
    if getattr(args, "config", None):
        loaded = _load_json(args.config)
        if not isinstance(loaded, dict):
            raise ValueError("--config file must hold a JSON object")
        fields.update(loaded)
    for name in (*_CONFIG_FIELDS, "use_relations", "attn_scale"):
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    return TrainingConfig.from_dict(fields)


def _add_context_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--context", metavar="PATH",
                    help="JSON context file: utterances + feature files")
    sp.add_argument("--text", action="append", default=[], metavar="UTTERANCE",
                    help="context utterance (repeatable, in dialog order)")
    sp.add_argument("--features", metavar="PATH",
                    help="JSON file holding context image feature rows")


def _add_io_flags(sp: argparse.ArgumentParser, model: bool = False,
                  corpus: bool = False) -> None:
    sp.add_argument("--kb", metavar="PATH", help="knowledge base JSON file")
    sp.add_argument("--data", metavar="PATH",
                    help="bundle document ('-' reads standard input)")
    if corpus:
        sp.add_argument("--corpus", metavar="PATH",
                        help="corpus file, one JSON record per line")
    if model:
        sp.add_argument("--checkpoint", metavar="PATH",
                        help="checkpoint file")
    sp.add_argument("--out", metavar="PATH",
                    help="write primary output here instead of stdout")


# ----------------------------------------------------------------- commands

def _cmd_ingest(args) -> int:
    kb = parse_kb(_read_text(args.kb))
    graph = build_graph(kb)
    _emit_json({
        "entities": len(kb),
        "attribute_pairs": sum(len(e.attributes) for e in kb),
        "graph_nodes": len(graph.nodes),
        "graph_edges": len(graph.edges),
        "feature_dim": kb.feature_dim,
    }, args.out)
    return 0


def _cmd_walk(args) -> int:
    kb = parse_kb(_read_text(args.kb))
    graph = build_graph(kb)
    cfg = AcquisitionConfig(max_hops=args.hops, max_tuples=args.max_tuples)
    tuples = walk_relations(graph, args.seed, cfg)
    lines = [json.dumps({"entries": list(t.entries)}, sort_keys=True)
             for t in order_tuples(tuples)]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _cmd_retrieve(args) -> int:
    kb = parse_kb(_read_text(args.kb))
    ctx = _context_from_args(args)
    knowledge = acquire_attributes(ctx, kb,
                                   AcquisitionConfig(epsilon=args.epsilon))
    lines = [json.dumps({"entity": ap.source_entity,
                         "type": ap.pair.attribute_type,
                         "value": ap.pair.value, "provenance": ap.provenance},
                        sort_keys=True) for ap in knowledge]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _cmd_synth(args) -> int:
    syn = make_synthetic_corpus(args.seed, n_entities=args.entities,
                                n_pairs=args.pairs,
                                with_images=args.with_images)
    if args.out_kb:
        save_kb_doc(syn.kb_doc, args.out_kb)
    if args.out_corpus:
        save_corpus_records(syn.records, args.out_corpus)
    _emit_json({"kb": syn.kb_doc, "corpus": syn.records}, args.out)
    return 0


def _cmd_train(args) -> int:
    kb, kb_doc, records, pairs, _ = _resolve_kb_corpus(args, need_model=False)
    if not pairs:
        raise ValueError("training needs a corpus (--corpus or bundle)")
    cfg = _build_config(args)
    result = train(pairs, kb, cfg)
    if args.out_model:
        save_checkpoint(result.model, args.out_model)
    _emit_json({
        "kb": kb_doc,
        "corpus": records,
        "checkpoint": checkpoint_doc(result.model),
        "losses": result.epoch_losses,
    }, args.out)
    return 0


def _cmd_generate(args) -> int:
    _, _, _, _, model = _resolve_kb_corpus(args, need_model=True)
    ctx = _context_from_args(args)
    tokens = model.generate_response(ctx, max_len=args.max_len,
                                     strategy=args.strategy)
    _emit(" ".join(tokens) + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    _, _, _, pairs, model = _resolve_kb_corpus(args, need_model=True)
    if not pairs:
        raise ValueError("evaluation needs a corpus (--corpus or bundle)")
    scores = evaluate(model, pairs, strategy=args.strategy)
    _emit_json(scores, args.out)
    return 0


def _cmd_dump_attention(args) -> int:
    _, _, _, _, model = _resolve_kb_corpus(args, need_model=True)
    ctx = _context_from_args(args)
    with ad.no_grad():
        comp = model.compose_context(ctx)
    doc = {
        "tuples": [list(t.entries) for t in comp.tuples],
        "relation_attention": (comp.relation_attention.data.tolist()
                               if comp.relation_attention is not None else None),
        "fusion_r_t": (comp.r_t.data[:, 0].tolist()
                       if comp.r_t is not None else None),
        "fusion_r_h": (comp.r_h.data[:, 0].tolist()
                       if comp.r_h is not None else None),
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_export_reps(args) -> int:
    _, _, _, pairs, model = _resolve_kb_corpus(args, need_model=True)
    if not pairs:
        raise ValueError("export needs a corpus (--corpus or bundle)")
    lines = []
    for pair in pairs:
        doc = model.export_representations(pair.context, pair.response)
        lines.append(json.dumps(doc, sort_keys=True))
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgdialog",
                     description="knowledge-grounded dialog pipeline")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def command(name, func, help_text):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--version", action="version",
                        version=f"kgdialog {__version__}")
        sp.set_defaults(func=func)
        return sp

    sp = command("ingest", _cmd_ingest,
                 "validate a knowledge base file and print a summary")
    sp.add_argument("--kb", required=True, metavar="PATH")
    sp.add_argument("--out", metavar="PATH")

    sp = command("walk", _cmd_walk,
                 "mine n-hop relation tuples from seed entities")
    sp.add_argument("--kb", required=True, metavar="PATH")
    sp.add_argument("--seed", action="append", required=True,
                    metavar="ENTITY", help="seed entity name (repeatable)")
    sp.add_argument("--hops", type=int, default=2)
    sp.add_argument("--max-tuples", type=int, default=None)
    sp.add_argument("--out", metavar="PATH")

    sp = command("retrieve", _cmd_retrieve,
                 "acquire attribute knowledge for a dialog context")
    sp.add_argument("--kb", required=True, metavar="PATH")
    _add_context_flags(sp)
    sp.add_argument("--epsilon", type=float, default=0.8,
                    help="visual similarity threshold (exclusive)")
    sp.add_argument("--out", metavar="PATH")

    sp = command("synth", _cmd_synth,
                 "generate a synthetic knowledge base and corpus")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--entities", type=int, default=24)
    sp.add_argument("--pairs", type=int, default=32)
    sp.add_argument("--images", action=argparse.BooleanOptionalAction,
                    default=True, dest="with_images")
    sp.add_argument("--out", metavar="PATH", help="bundle document output")
    sp.add_argument("--out-kb", metavar="PATH",
                    help="also write the knowledge base file here")
    sp.add_argument("--out-corpus", metavar="PATH",
                    help="also write the corpus file here")

    sp = command("train", _cmd_train, "fit a model on a corpus")
    _add_io_flags(sp, corpus=True)
    sp.add_argument("--out-model", metavar="PATH",
                    help="also write the bare checkpoint file here")
    _add_config_flags(sp)

    sp = command("generate", _cmd_generate,
                 "decode a response for a dialog context")
    _add_io_flags(sp, model=True)
    _add_context_flags(sp)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--strategy", default="greedy",
                    help='"greedy" or "beam:K"')

    sp = command("evaluate", _cmd_evaluate,
                 "generate for every corpus pair and score the results")
    _add_io_flags(sp, model=True, corpus=True)
    sp.add_argument("--strategy", default="greedy")

    sp = command("dump-attention", _cmd_dump_attention,
                 "show relation attention weights and fusion gates")
    _add_io_flags(sp, model=True)
    _add_context_flags(sp)

    sp = command("export-reps", _cmd_export_reps,
                 "export both semantic matrices for every corpus pair")
    _add_io_flags(sp, model=True, corpus=True)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and dispatch; returns the process exit code."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"kgdialog: error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"kgdialog: training aborted: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
