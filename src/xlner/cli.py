"""Command-line entry point. Data goes to stdout, logs to stderr; exit 0
on success, 1 on operation errors, 2 on usage errors."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import tnt
from .conll import (
    ConllError,
    convert_corpus_iob1_to_bio2,
    corpus_stats,
    entity_kappa,
    read_conll,
    validate_bio,
    write_conll,
)
from .embeddings import (
    EmbeddingError,
    load_embeddings,
    mine_identical_seeds,
    save_embeddings,
)
from .evaluation import evaluate, render_report
from .serialize import ContainerError
from .tagger import TaggerConfig, TrainingError, load_model, parse_tagger_config, save_model, tag_corpus, train
from .transfer import (
    ExperimentError,
    parse_experiment_config,
    render_matrix,
    rotated_table,
    run_grid,
)

_ERRORS = (
    ConllError,
    EmbeddingError,
    ContainerError,
    TrainingError,
    ExperimentError,
    OSError,
    ValueError,
)


def _resolve(path: str) -> Path:
    """Paths resolve against XLNER_DATA_DIR when not found directly."""
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get("XLNER_DATA_DIR")
    if root and (Path(root) / path).exists():
        return Path(root) / path
    return p


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(report, fmt: str, text: Optional[str] = None) -> None:
    """A report dataclass as indented JSON, or as text: `text` when
    given, else one `field: value` line per field."""
    payload = dataclasses.asdict(report)
    if text is None:
        text = "\n".join(f"{key}: {value}" for key, value in payload.items())
    print(json.dumps(payload, indent=2) if fmt == "json" else text)


def _output(text: str, out: Optional[str]) -> None:
    """Write text to the --out file, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_stats(args) -> int:
    path = _resolve(args.file)
    corpus = read_conll(path)
    try:
        report = corpus_stats(corpus)
    except ConllError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    _emit(report, args.format)
    return 0


def _cmd_validate(args) -> int:
    corpus = read_conll(_resolve(args.file))
    total = 0
    for si, sentence in enumerate(corpus):
        for violation in validate_bio(sentence.tags):
            print(f"sentence {si} token {violation.position}: {violation.kind}")
            total += 1
    if total:
        _log(f"error: {total} BIO violations")
        return 1
    _log("valid")
    return 0


def _cmd_convert(args) -> int:
    corpus = convert_corpus_iob1_to_bio2(read_conll(_resolve(args.file)))
    _output(write_conll(corpus), args.out)
    return 0


def _cmd_kappa(args) -> int:
    result = entity_kappa(read_conll(_resolve(args.a)), read_conll(_resolve(args.b)))
    _emit(result, args.format)
    return 0


def _cmd_align(args) -> int:
    src = load_embeddings(_resolve(args.src))
    tgt = load_embeddings(_resolve(args.tgt))
    seeds = mine_identical_seeds(src, tgt)
    _log(f"seeds: {len(seeds)}")
    mapped = rotated_table(args.direction, src, tgt, seeds)
    save_embeddings(mapped, args.out)
    _log(f"wrote mapped table ({len(mapped)} words, dim {mapped.dim}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = (
        parse_tagger_config(Path(args.config).read_text(encoding="utf-8"), args.seed)
        if args.config
        else TaggerConfig(seed=args.seed)
    )
    pretrained = load_embeddings(_resolve(args.embeddings)) if args.embeddings else None
    train_corpus = read_conll(_resolve(args.train))
    dev_corpus = read_conll(_resolve(args.dev))
    tagger, history = train(config, train_corpus, dev_corpus, pretrained=pretrained, log=_log)
    save_model(tagger, args.out)
    best = history.dev_f1[history.best_epoch - 1] if history.best_epoch else float("nan")
    _log(f"best epoch {history.best_epoch}, dev F1 {best:.2f}; model -> {args.out}")
    return 0


def _cmd_tag(args) -> int:
    tagger = load_model(_resolve(args.model))
    corpus = read_conll(_resolve(args.input))
    _output(write_conll(tag_corpus(tagger, corpus)), args.out)
    return 0


def _cmd_eval(args) -> int:
    report = evaluate(read_conll(_resolve(args.gold)), read_conll(_resolve(args.pred)))
    _emit(report, args.format, render_report(report))
    return 0


def _cmd_baseline(args) -> int:
    train_corpus = read_conll(_resolve(args.train))
    input_corpus = read_conll(_resolve(args.input))
    if args.method == "tnt":
        model = tnt.estimate(train_corpus)
        if args.model_out:
            tnt.save_model(model, args.model_out)
        tagged = tnt.tag_corpus(model, input_corpus, beam=args.beam)
    else:
        from .evaluation import majority_baseline

        tagged = majority_baseline(train_corpus, input_corpus)
    _output(write_conll(tagged), args.out)
    return 0


def _cmd_experiment(args) -> int:
    configs = parse_experiment_config(Path(_resolve(args.config)).read_text(encoding="utf-8"))
    if args.seed is not None:
        configs = [dataclasses.replace(c, seeds=(args.seed,)) for c in configs]
    out_dir = Path(args.out) if args.out else Path("results")
    matrix = run_grid(configs, out_dir=out_dir, jobs=args.jobs)
    sys.stdout.write(render_matrix(matrix))
    _log(f"wrote {out_dir}/matrix.txt and matrix.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xlner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("file")
    fmt(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("validate", help="report BIO2 violations")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("convert", help="convert IOB1 tags to BIO2")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("kappa", help="inter-annotator agreement on entity tokens")
    p.add_argument("a")
    p.add_argument("b")
    fmt(p)
    p.set_defaults(fn=_cmd_kappa)

    p = sub.add_parser("align", help="Procrustes-align two embedding tables")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--direction", choices=("tgt_to_src", "src_to_tgt"), default="tgt_to_src")
    p.set_defaults(fn=_cmd_align)

    p = sub.add_parser("train", help="train the BiLSTM-CRF tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--config", help="flat key=value tagger options file")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("tag", help="tag a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tag)

    p = sub.add_parser("eval", help="span precision/recall/F1")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    fmt(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("baseline", help="TnT or majority baseline tagging")
    p.add_argument("--method", choices=("tnt", "majority"), required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--model-out")
    p.add_argument("--beam", type=int, default=None)
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("experiment", help="run a regime grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=None, help="override the seed list")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shown = {
        k: v for k, v in vars(args).items() if k not in ("fn", "command") and v is not None
    }
    _log("# xlner " + args.command + " " + " ".join(f"{k}={v}" for k, v in sorted(shown.items())))
    try:
        return args.fn(args)
    except _ERRORS as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
