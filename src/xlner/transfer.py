"""Experiment orchestration: the grid of training regimes x source sizes x
target sizes x seeds, with per-cell reports and models on disk and a
rendered result matrix."""

from __future__ import annotations

import json
import os
from collections import ChainMap
from collections.abc import Container, Iterable
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from . import tnt
from .conll import Corpus, convert_corpus_iob1_to_bio2, read_conll, take_first_tokens
from .embeddings import (
    EmbeddingTable,
    align_tables,
    cut_table,
    load_embeddings,
    merge_tables,
    word_form,
)
from .evaluation import (
    AggregateReport,
    EvalReport,
    aggregate,
    evaluate,
    majority_baseline,
)
from .serialize import replacing
from .tagger import Tagger, TaggerConfig, option_lines, save_model, tag_corpus, tagger_option, train

# The regimes and the resources each reads; bilingual_table checks the embedding tables.
_NEEDS = {
    "zero_shot": ("src_train", "src_dev", "tgt_dev"),
    "in_language_plain": ("tgt_train", "tgt_dev"),
    "in_language_pretrained": ("tgt_train", "tgt_dev", "tgt_emb"),
    "joint": ("src_train", "src_dev", "tgt_train", "tgt_dev"),
    "fine_tune": ("src_train", "src_dev", "tgt_train", "tgt_dev"),
    "tnt_baseline": ("tgt_train", "tgt_dev"),
    "majority": ("tgt_train", "tgt_dev"),
}
REGIMES = tuple(_NEEDS)
# Regimes that train on the source corpora, and so on the aligned source+target embedding table.
BILINGUAL_REGIMES = tuple(regime for regime, needs in _NEEDS.items() if "src_train" in needs)
# Regimes that start from the source-only model, and the corpora it reads (tgt_train when given).
SOURCE_MODEL_REGIMES = ("zero_shot", "fine_tune")
_SOURCE_MODEL_READS = ("src_train", "src_dev", "tgt_dev", "tgt_train")
# The English files each source size reads.
_SOURCE_FILES = {"medium": ("eng.testa",), "large": ("eng.train", "eng.testa")}
SOURCE_SIZES = ("none", *_SOURCE_FILES)
# Target sizes as token budgets on the target training file (whole sentences).
TARGET_TOKENS = {"none": 0, "tiny": 5000, "small": 10000}
# The two ways to align: rotate the target table into the source space, or the reverse.
ALIGNMENT_DIRECTIONS = ("tgt_to_src", "src_to_tgt")


class ExperimentError(Exception):
    pass


@dataclass
class ExperimentConfig:
    regime: str
    source_size: str = "none"
    target_size: str = "none"
    seeds: tuple[int, ...] = (1, 2, 3)
    tagger: TaggerConfig = field(default_factory=TaggerConfig)
    alignment_direction: str = ALIGNMENT_DIRECTIONS[0]
    data_dir: Optional[str] = None
    src_train_path: Optional[str] = None
    src_dev_path: Optional[str] = None
    tgt_train_path: Optional[str] = None
    tgt_dev_path: Optional[str] = None
    src_emb_path: Optional[str] = None
    tgt_emb_path: Optional[str] = None

    def __post_init__(self):
        if not self.seeds:
            raise ExperimentError("seeds must name at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ExperimentError(f"seeds must not repeat a seed, got {self.seeds}")
        if self.regime not in REGIMES:
            raise ExperimentError(f"unknown regime {self.regime!r}")
        if self.source_size not in SOURCE_SIZES or self.target_size not in TARGET_TOKENS:
            raise ExperimentError("bad source/target size")
        if self.alignment_direction not in ALIGNMENT_DIRECTIONS:
            raise ExperimentError(f"bad alignment direction {self.alignment_direction!r}")
        # Only regimes that read tgt_train take a target size; all but joint train on that slice alone.
        reads_target = "tgt_train" in _NEEDS[self.regime]
        if not reads_target and self.target_size != "none":
            raise ExperimentError(f"{self.regime} requires target_size = none")
        if reads_target and self.regime != "joint" and self.target_size == "none":
            raise ExperimentError(f"{self.regime} requires target_size = tiny or small")
        # Only regimes that read src_train take a source size; with none, they read the src_*_path files.
        reads_source = "src_train" in _NEEDS[self.regime]
        if not reads_source and self.source_size != "none":
            raise ExperimentError(f"{self.regime} requires source_size = none")
        if reads_source and self.source_size == "none" and not (self.src_train_path and self.src_dev_path):
            raise ExperimentError(f"{self.regime} with source_size = none requires src_train_path and src_dev_path")

    @property
    def cell(self) -> tuple[str, str, str]:
        return (self.regime, self.source_size, self.target_size)


@dataclass
class Resources:
    src_train: Optional[Corpus] = None
    src_dev: Optional[Corpus] = None
    tgt_train: Optional[Corpus] = None
    tgt_dev: Optional[Corpus] = None
    src_emb: Optional[EmbeddingTable] = None
    tgt_emb: Optional[EmbeddingTable] = None


def _data_root(config: ExperimentConfig) -> Path:
    """data_dir, else $XLNER_DATA_DIR, else the working directory."""
    return Path(config.data_dir or os.environ.get("XLNER_DATA_DIR", "."))


def prepare_sources(config: ExperimentConfig) -> tuple[Corpus, Corpus]:
    """English source corpora in BIO2. Large trains on eng.train with
    eng.testa for early stopping; Medium trains on the first 90% of
    eng.testa sentences and holds out the last 10% for early stopping."""
    if config.source_size not in _SOURCE_FILES:
        raise ExperimentError("prepare_sources needs source_size medium or large")
    paths = [_data_root(config) / name for name in _SOURCE_FILES[config.source_size]]
    for path in paths:
        if not path.exists():
            raise ExperimentError(f"missing source corpus: {path}")
    corpora = [convert_corpus_iob1_to_bio2(read_conll(path, "en")) for path in paths]
    if config.source_size == "large":
        return corpora[0], corpora[1]
    sentences = corpora[0].sentences
    cut = len(sentences) - max(1, len(sentences) // 10)
    return Corpus(sentences[:cut], "en"), Corpus(sentences[cut:], "en")


def load_resources(config: ExperimentConfig, loaded: Optional[dict] = None) -> Resources:
    """The corpora and embedding tables a config names. Passing the same
    `loaded` dict to several calls makes them share what they read: a
    file, or a prepared source split, already in it is not read again."""
    root = _data_root(config)
    if loaded is None:
        loaded = {}

    def once(key, read):
        if key not in loaded:
            loaded[key] = read()
        return loaded[key]

    def read(path, what, reader, *args):
        if path is None:
            return None
        p = root / path  # an absolute path replaces the root
        if not p.exists():
            raise ExperimentError(f"missing {what} file: {p}")
        return once((what, p, *args), lambda: reader(p, *args))

    res = Resources(
        tgt_train=read(config.tgt_train_path, "corpus", read_conll, "da"),
        tgt_dev=read(config.tgt_dev_path, "corpus", read_conll, "da"),
        src_emb=read(config.src_emb_path, "embedding", load_embeddings),
        tgt_emb=read(config.tgt_emb_path, "embedding", load_embeddings),
    )
    if config.src_train_path or config.src_dev_path:
        res.src_train = read(config.src_train_path, "corpus", read_conll, "en")
        res.src_dev = read(config.src_dev_path, "corpus", read_conll, "en")
    elif config.source_size in _SOURCE_FILES:
        res.src_train, res.src_dev = once(
            ("sources", root, config.source_size), lambda: prepare_sources(config)
        )
    return res


def _reached(known: Container[str], texts: Iterable[str]) -> set[str]:
    """The forms word_form finds in known for some of texts."""
    return {word_form(known, text) for text in texts} - {None}


def bilingual_table(config: ExperimentConfig, res: Resources, reach: Optional[Iterable[str]] = None) -> EmbeddingTable:
    """Source and target embeddings in one shared space via identical-seed
    Procrustes alignment, fitted on the whole tables; source-side vectors
    win on shared words. Given reach, the table holds only the rows of the
    forms word_form finds in the merged vocabulary for some text of reach,
    each taken from the side the merge takes it from, and only those rows
    are rotated: every such lookup finds the row the whole table holds."""
    src, tgt = res.src_emb, res.tgt_emb
    if src is None or tgt is None:
        raise ExperimentError("bilingual regimes need both embedding tables")
    if config.alignment_direction == "tgt_to_src":
        maps = {"secondary_map": align_tables(src, tgt)}
    else:
        maps = {"primary_map": align_tables(tgt, src)}
    if reach is not None:
        kept = _reached(ChainMap(src.index, tgt.index), reach)
        src, tgt = cut_table(src, kept), cut_table(tgt, kept.difference(src.index))
    return merge_tables(src, tgt, **maps)


def _concat(a: Corpus, b: Corpus) -> Corpus:
    return Corpus(a.sentences + b.sentences, f"{a.language}+{b.language}")


def _require(config: ExperimentConfig, res: Resources) -> None:
    for name in _NEEDS[config.regime]:
        if getattr(res, name) is None:
            raise ExperimentError(f"regime needs resource {name!r}")


def _source_model(config: ExperimentConfig, res: Resources, seed: int, shared: EmbeddingTable) -> Tagger:
    """The source-only model that zero_shot evaluates and fine_tune
    continues from. Its vocabulary is fixed by the config alone: the source
    training words plus the words of src_dev, tgt_dev and the whole
    tgt_train (when the config names one) that the table covers. So every
    cell on the same files, table, tagger options and seed has this model."""
    extra = [corpus for corpus in (res.tgt_dev, res.tgt_train) if corpus is not None]
    tagger_config = replace(config.tagger, seed=seed)
    return train(tagger_config, res.src_train, res.src_dev, pretrained=shared, extra_vocab_corpora=extra)[0]


def run_seed(
    config: ExperimentConfig,
    res: Resources,
    seed: int,
    shared: Optional[EmbeddingTable] = None,
    stage1: Optional[Tagger] = None,
) -> tuple[EvalReport, Optional[Tagger]]:
    """One training/evaluation run; the report scores the target dev set.
    Bilingual regimes train on `shared`, the bilingual table of res in the
    config's direction, and build it when it is None. zero_shot and
    fine_tune start from `stage1`, the source-only model of the same
    inputs and seed, and train it when it is None; fine_tune trains a copy."""
    regime = config.regime
    _require(config, res)
    if regime in BILINGUAL_REGIMES and shared is None:
        shared = bilingual_table(config, res)
    tgt_train = None if res.tgt_train is None else take_first_tokens(res.tgt_train, TARGET_TOKENS[config.target_size])
    if regime == "majority":
        return evaluate(res.tgt_dev, majority_baseline(tgt_train, res.tgt_dev)), None
    if regime == "tnt_baseline":
        return evaluate(res.tgt_dev, tnt.tag_corpus(tnt.estimate(tgt_train), res.tgt_dev)), None

    tagger_config = replace(config.tagger, seed=seed)
    if regime in SOURCE_MODEL_REGIMES:
        tagger = stage1 if stage1 is not None else _source_model(config, res, seed, shared)
        if regime == "fine_tune":
            # Same learning rate, fresh early stopping on the target dev set.
            tagger, _ = train(tagger_config, tgt_train, res.tgt_dev, initial=tagger)
    elif regime == "joint":
        # Early stopping on the target dev set (the reporting target).
        corpus = _concat(res.src_train, tgt_train)
        tagger, _ = train(tagger_config, corpus, res.tgt_dev, pretrained=shared, extra_vocab_corpora=[res.src_dev])
    else:  # in_language
        pretrained = res.tgt_emb if regime == "in_language_pretrained" else None
        tagger, _ = train(tagger_config, tgt_train, res.tgt_dev, pretrained=pretrained)
    return evaluate(res.tgt_dev, tag_corpus(tagger, res.tgt_dev)), tagger


Matrix = dict[tuple[str, str, str], AggregateReport]  # a grid's result: each cell's aggregate over its seeds


def matrix_dict(matrix: Matrix) -> dict:
    """matrix.json's content: each cell's aggregate under its "regime/source/target" key, keys sorted."""
    return {"/".join(key): asdict(report) for key, report in sorted(matrix.items())}


_ROW_SIZES = (("zero-shot", "none"), ("Tiny", "tiny"), ("Small", "small"))


def _matrix_columns(target_size: str) -> dict[str, tuple[tuple[str, str], ...]]:
    """Each matrix column's candidate (regime, source size) cells in the
    row of a target size; the first one in the matrix fills it. The
    transfer columns read zero_shot in the zero-shot row, joint in the
    others."""
    transfer = "zero_shot" if target_size == "none" else "joint"
    return {
        "TnT": (("tnt_baseline", "none"),),
        "plain": (("in_language_plain", "none"),),
        "+Poly": (("in_language_pretrained", "none"),),
        "+Medium": ((transfer, "medium"),),
        "+Large": ((transfer, "large"),),
        "FineTune": (("fine_tune", "medium"), ("fine_tune", "large")),
    }


def render_matrix(matrix: Matrix) -> str:
    """Text table: transfer columns by training-size rows, mean dev F1;
    absent cells render as ---."""
    width = 10
    lines = ["".ljust(width) + "".join(c.rjust(width) for c in _matrix_columns("none"))]
    for row_name, target_size in _ROW_SIZES:
        cells = ""
        for candidates in _matrix_columns(target_size).values():
            reports = (matrix.get((regime, source, target_size)) for regime, source in candidates)
            report = next(filter(None, reports), None)
            cells += (f"{report.f1.mean:.2f}" if report else "---").rjust(width)
        lines.append(row_name.ljust(width) + cells)
    return "\n".join(lines) + "\n"


def _grid_inputs(configs: list[ExperimentConfig]) -> list[tuple[Resources, Optional[EmbeddingTable]]]:
    """Each cell's inputs: a Resources holding only the fields its regime
    reads (_NEEDS, plus _SOURCE_MODEL_READS for the regimes that start from
    the source-only model) and, for bilingual regimes, its bilingual table.
    Every input file is read once and every table pair aligned once per
    direction, however many cells use them. Each table is then cut to the
    rows that word_form finds in it for some token of the grid's corpora,
    which are the only rows build_vocab and init_params read, so every
    output stays as it is with the whole table; the whole tables are not
    returned. A cell missing a resource its regime needs is an error here,
    before any task trains."""
    loaded: dict = {}
    given = [load_resources(config, loaded) for config in configs]
    corpora = [getattr(res, name) for res in given for name in ("src_train", "src_dev", "tgt_train", "tgt_dev")]
    texts = {text for corpus in filter(None, corpora) for sentence in corpus for text in sentence.texts}
    tables: dict = {}
    inputs = []
    for config, res in zip(configs, given):
        names = {*_NEEDS[config.regime], *(_SOURCE_MODEL_READS if config.regime in SOURCE_MODEL_REGIMES else ())}
        needed = Resources(**{name: getattr(res, name) for name in names})
        _require(config, needed)
        if needed.tgt_emb is not None:
            if id(res.tgt_emb) not in tables:
                tables[id(res.tgt_emb)] = cut_table(res.tgt_emb, _reached(res.tgt_emb.index, texts))
            needed.tgt_emb = tables[id(res.tgt_emb)]
        shared = None
        if config.regime in BILINGUAL_REGIMES:
            key = (id(res.src_emb), id(res.tgt_emb), config.alignment_direction)
            if key not in tables:
                tables[key] = bilingual_table(config, res, texts)
            shared = tables[key]
        inputs.append((needed, shared))
    return inputs


def _write_text(path: Path, text: str) -> None:
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


Cells = list[tuple[ExperimentConfig, Resources, Optional[EmbeddingTable]]]  # a task's cells and their inputs


def _grid_tasks(configs: list[ExperimentConfig]) -> list[tuple[int, Cells]]:
    """The grid's (seed, cells) tasks, in config order. zero_shot and
    fine_tune cells that read the same corpora and bilingual table with the
    same tagger options make one task per seed, which trains their
    source-only model once; every other cell is one task per seed."""
    groups: dict[tuple, Cells] = {}
    for i, (config, (res, shared)) in enumerate(zip(configs, _grid_inputs(configs))):
        if config.regime in SOURCE_MODEL_REGIMES:
            key = (*(id(getattr(res, name)) for name in _SOURCE_MODEL_READS), id(shared), astuple(config.tagger))
        else:
            key = (i,)
        for seed in config.seeds:
            groups.setdefault((*key, seed), []).append((config, res, shared))
    return [(key[-1], cells) for key, cells in groups.items()]


def _run_task(out_dir: Optional[Path], seed: int, cells: Cells) -> dict[tuple, EvalReport]:
    """One seed of a task's cells, by (cell key, seed); their zero_shot and
    fine_tune cells share one source-only model, trained here and dropped
    on return. With out_dir set, each cell's model, log and report.json
    land under <regime>/<src>/<tgt>/<seed>/, each whole or not at all,
    report.json last: a seed directory that holds it is complete."""
    config, res, shared = cells[0]
    stage1 = _source_model(config, res, seed, shared) if config.regime in SOURCE_MODEL_REGIMES else None
    reports = {}
    for config, res, shared in cells:
        report, tagger = run_seed(config, res, seed, shared, stage1)
        reports[config.cell, seed] = report
        if out_dir is None:
            continue
        seed_dir = Path(out_dir) / config.regime / config.source_size / config.target_size / str(seed)
        seed_dir.mkdir(parents=True, exist_ok=True)
        if tagger is not None:
            save_model(tagger, seed_dir / "model")
        label = f"regime={config.regime} source={config.source_size} target={config.target_size} seed={seed}"
        _write_text(seed_dir / "log", f"{label} f1={report.f1:.2f}\n")
        _write_text(seed_dir / "report.json", json.dumps(asdict(report), indent=2))
    return reports


def run_grid(configs: list[ExperimentConfig], out_dir: Optional[Path] = None, jobs: int = 1) -> Matrix:
    """Run every seed of every cell and aggregate each cell's reports.
    Cells share their inputs: each file the configs name is read once, each
    bilingual table is aligned once, and each source-only model is trained
    once per seed. A task carries only its cells' inputs; with jobs > 1 the
    tasks run in up to that many worker processes."""
    keys = [c.cell for c in configs]
    if not keys:
        raise ExperimentError("grid has no cells")
    if len(set(keys)) != len(keys):
        raise ExperimentError("duplicate cell keys in grid")
    tasks = _grid_tasks(configs)
    workers = min(jobs, len(tasks))
    reports = {}
    with ExitStack() as stack:
        run = map
        if workers > 1:  # imported here only: they add to a one-worker grid's peak memory
            import concurrent.futures
            import multiprocessing

            spawn = multiprocessing.get_context("spawn")  # fork is unsafe with BLAS threads
            run = stack.enter_context(concurrent.futures.ProcessPoolExecutor(workers, spawn)).map
        for done in run(_run_task, [out_dir] * len(tasks), *zip(*tasks)):
            reports.update(done)
    matrix = {config.cell: aggregate([reports[config.cell, seed] for seed in config.seeds]) for config in configs}
    if out_dir is not None:  # made by the tasks
        _write_text(Path(out_dir) / "matrix.json", json.dumps(matrix_dict(matrix), indent=2))
        _write_text(Path(out_dir) / "matrix.txt", render_matrix(matrix))
    return matrix


def parse_experiment_config(text: str) -> list[ExperimentConfig]:
    """Flat key-value grammar: `key = value` lines, `#` comments. Shared
    keys apply to every cell; each `cell = regime:source:target` line adds
    one grid cell. A file with no cell lines but a `regime` key defines a
    single cell; in a file with cell lines, a `regime`, `source_size` or
    `target_size` key is an error. Every ExperimentConfig field but
    `tagger` (set by `tagger.<option>` keys) is a key, `seeds` a
    comma-separated list. Errors name their line: a cell's invalid
    combination names its `cell` line, a single cell's its `regime` line."""
    options = {f.name for f in fields(ExperimentConfig)} - {"seeds", "tagger"}
    cells: list[tuple[int, str, str, str]] = []
    tagger_kwargs = {}
    config_kwargs = {}
    option_line = {}
    try:
        lines = list(option_lines(text))
    except ValueError as exc:
        raise ExperimentError(str(exc)) from None
    for lineno, key, value in lines:
        if key == "cell":
            parts = value.split(":")
            if len(parts) != 3:
                raise ExperimentError(f"line {lineno}: cell must be regime:source:target")
            cells.append((lineno, *parts))
        elif key.startswith("tagger."):
            name = key[len("tagger.") :]
            try:
                tagger_kwargs[name] = tagger_option(name, value)
            except ValueError as exc:
                raise ExperimentError(f"line {lineno}: {exc}") from None
        elif key == "seeds":
            try:
                seeds = tuple(int(s) for s in value.split(",") if s.strip())
            except ValueError:
                seeds = ()
            if not seeds:
                raise ExperimentError(f"line {lineno}: seeds wants comma-separated integers, got {value!r}")
            if len(set(seeds)) < len(seeds):
                raise ExperimentError(f"line {lineno}: seeds must not repeat a seed, got {value!r}")
            config_kwargs["seeds"] = seeds
        elif key in options:
            config_kwargs[key] = value
            option_line[key] = lineno
        else:
            raise ExperimentError(f"line {lineno}: unknown option {key!r}")

    tagger_config = TaggerConfig(**tagger_kwargs)

    def config_at(lineno: int, **kwargs) -> ExperimentConfig:
        try:
            return ExperimentConfig(tagger=tagger_config, **kwargs)
        except ExperimentError as exc:
            raise ExperimentError(f"line {lineno}: {exc}") from None

    if not cells:
        if "regime" not in config_kwargs:
            raise ExperimentError("config defines no cells and no regime")
        return [config_at(option_line["regime"], **config_kwargs)]
    for lineno, key, _ in lines:
        if key in ("regime", "source_size", "target_size"):
            raise ExperimentError(f"line {lineno}: {key} has no effect in a grid; each cell line sets it")
    return [
        config_at(lineno, regime=regime, source_size=source, target_size=target, **config_kwargs)
        for lineno, regime, source, target in cells
    ]
