#!/usr/bin/env python3
"""End-to-end demo on generated twin languages.

Builds a pair of synthetic languages whose embedding spaces differ by a
planted rotation, then runs the full regime grid (baselines, in-language,
zero-shot, joint, fine-tune) and prints the result matrix. Writes per-seed
reports and models under --out.
"""

import argparse
from pathlib import Path

from xlner.synthetic import make_twin_languages
from xlner.tagger import TaggerConfig
from xlner.transfer import ExperimentConfig, Resources, render_matrix, run_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results-synthetic", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="corpus generation seed")
    parser.add_argument("--seeds", default="1,2", help="training seeds, comma separated")
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args()

    twins = make_twin_languages(seed=args.seed)
    resources = Resources(
        src_train=twins.src_train,
        src_dev=twins.src_dev,
        tgt_train=twins.tgt_train,
        tgt_dev=twins.tgt_dev,
        src_emb=twins.src_emb,
        tgt_emb=twins.tgt_emb,
    )
    tagger = TaggerConfig(
        word_emb_dim=16,
        word_lstm_dim=8,
        char_emb_dim=4,
        char_lstm_dim=4,
        dropout=0.0,
        max_epochs=args.epochs,
        patience=args.epochs,
    )
    seeds = tuple(int(s) for s in args.seeds.split(","))

    def cell(regime, source="none", target="none"):
        return ExperimentConfig(
            regime=regime,
            source_size=source,
            target_size=target,
            seeds=seeds,
            tagger=tagger,
        )

    grid = [
        cell("majority", target="tiny"),
        cell("tnt_baseline", target="tiny"),
        cell("in_language_plain", target="tiny"),
        cell("in_language_pretrained", target="tiny"),
        cell("zero_shot", source="large"),
        cell("joint", source="large", target="tiny"),
        cell("fine_tune", source="large", target="tiny"),
    ]
    matrix = run_grid(grid, resources, out_dir=Path(args.out))
    print(render_matrix(matrix))
    print("full per-cell results:")
    for key, summary in sorted(matrix.items()):
        print(f"  {'/'.join(key):40s} F1 {summary.f1.mean:6.2f} ± {summary.f1.std:.2f}")
    print(f"\nreports and models written under {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
