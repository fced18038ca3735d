#!/usr/bin/env python3
"""End-to-end demo on generated twin languages.

Builds a pair of synthetic languages whose embedding spaces differ by a
planted rotation and writes them as files under <out>/data/: the source
corpora as eng.train and eng.testa in IOB1, as a CoNLL 2003 directory holds
them, the target corpora, both embedding tables and grid.conf. It then runs
the full regime grid (baselines, in-language, zero-shot, joint, fine-tune)
on them through `xlner experiment` and prints the result matrix. Writes
per-seed reports and models under <out>; `xlner experiment --config
<out>/data/grid.conf` runs the same grid again.
"""

import argparse
import json
from pathlib import Path

from xlner import cli
from xlner.conll import Corpus, write_conll
from xlner.embeddings import save_embeddings
from xlner.synthetic import make_twin_languages

CELLS = (
    "majority:none:tiny",
    "tnt_baseline:none:tiny",
    "in_language_plain:none:tiny",
    "in_language_pretrained:none:tiny",
    "zero_shot:large:none",
    "joint:large:tiny",
    "fine_tune:large:tiny",
)


def iob1(corpus: Corpus) -> Corpus:
    """corpus's BIO2 tags in IOB1: an entity opens with I-, and with B- only
    right after an entity of its type."""

    def tags(sentence):
        prev = ("O", *sentence.tags)
        return ["I-" + t[2:] if t.startswith("B-") and p[2:] != t[2:] else t for p, t in zip(prev, sentence.tags)]

    return Corpus(tuple(s.with_tags(tags(s)) for s in corpus), corpus.language)


def write_inputs(data: Path, seed: int, seeds: str, epochs: str) -> Path:
    """The twins' files and the grid config that reads them; returns the config path."""
    data.mkdir(parents=True, exist_ok=True)
    twins = make_twin_languages(seed=seed)
    for name, corpus in (
        ("eng.train", iob1(twins.src_train)),
        ("eng.testa", iob1(twins.src_dev)),
        ("tgt_train.conll", twins.tgt_train),
        ("tgt_dev.conll", twins.tgt_dev),
    ):
        (data / name).write_text(write_conll(corpus), encoding="utf-8")
    save_embeddings(twins.src_emb, data / "src.vec")
    save_embeddings(twins.tgt_emb, data / "tgt.vec")
    tagger = {
        "word_emb_dim": 16,
        "word_lstm_dim": 8,
        "char_emb_dim": 4,
        "char_lstm_dim": 4,
        "dropout": 0.0,
        "max_epochs": epochs,
        "patience": epochs,
    }
    lines = [
        f"data_dir = {data.resolve()}",
        "tgt_train_path = tgt_train.conll",
        "tgt_dev_path = tgt_dev.conll",
        "src_emb_path = src.vec",
        "tgt_emb_path = tgt.vec",
        f"seeds = {seeds}",
        *(f"tagger.{key} = {value}" for key, value in tagger.items()),
        *(f"cell = {cell}" for cell in CELLS),
    ]
    config = data / "grid.conf"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results-synthetic", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="corpus generation seed")
    parser.add_argument("--seeds", default="1,2", help="training seeds, comma separated")
    parser.add_argument("--epochs", default="10", help="maximum (and patience) training epochs")
    args = parser.parse_args(argv)

    out = Path(args.out)
    config = write_inputs(out / "data", args.seed, args.seeds, args.epochs)
    status = cli.main(["experiment", "--config", str(config), "--out", str(out)])
    if status != 0:
        return status
    print("\nfull per-cell results:")
    for key, summary in json.loads((out / "matrix.json").read_text(encoding="utf-8")).items():
        print(f"  {key:40s} F1 {summary['f1']['mean']:6.2f} ± {summary['f1']['std']:.2f}")
    print(f"\nreports and models written under {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
