import gc
import importlib.util
import json
import pickle
import re
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from xlner.conll import Corpus, convert_corpus_iob1_to_bio2, from_columns, read_conll, take_first_tokens, write_conll
from xlner.embeddings import EmbeddingTable, align_tables, save_embeddings, word_form
from xlner.evaluation import AggregateReport, EvalReport, MetricSummary, aggregate
from xlner.synthetic import make_twin_languages
from xlner.tagger import TaggerConfig
from xlner.serialize import replacing
from xlner.transfer import (
    ALIGNMENT_DIRECTIONS,
    BILINGUAL_REGIMES,
    REGIMES,
    TARGET_TOKENS,
    ExperimentConfig,
    ExperimentError,
    Resources,
    bilingual_table,
    load_resources,
    matrix_dict,
    parse_experiment_config,
    prepare_sources,
    render_matrix,
    run_grid,
    run_seed,
    _grid_inputs,
    _NEEDS,
)

from conftest import make_corpus


FAST = TaggerConfig(
    word_emb_dim=16,
    word_lstm_dim=8,
    char_emb_dim=4,
    char_lstm_dim=4,
    dropout=0.0,
    max_epochs=2,
    patience=2,
)


@pytest.fixture(scope="module")
def twins():
    return make_twin_languages(seed=0)


def twin_resources(twins):
    return Resources(
        src_train=twins.src_train,
        src_dev=twins.src_dev,
        tgt_train=twins.tgt_train,
        tgt_dev=twins.tgt_dev,
        src_emb=twins.src_emb,
        tgt_emb=twins.tgt_emb,
    )


GRID_CELLS = (
    "majority:none:tiny",
    "tnt_baseline:none:tiny",
    "in_language_plain:none:tiny",
    "in_language_pretrained:none:tiny",
    "zero_shot:large:none",
    "joint:large:tiny",
    "fine_tune:large:tiny",
)
ONE_EPOCH = replace(FAST, max_epochs=1, patience=1)


def write_grid(directory, twins=None):
    """A seven-cell grid config over twin-language files in directory,
    small twins unless given; returns the config path."""
    if twins is None:
        twins = make_twin_languages(seed=1, n_src_train=12, n_src_dev=6, n_tgt_train=8, n_tgt_dev=6)
    for name in ("src_train", "src_dev", "tgt_train", "tgt_dev"):
        (directory / f"{name}.conll").write_text(write_conll(getattr(twins, name)))
    save_embeddings(twins.src_emb, directory / "src.vec")
    save_embeddings(twins.tgt_emb, directory / "tgt.vec")
    lines = [
        f"data_dir = {directory}",
        *(f"{name}_path = {name}.conll" for name in ("src_train", "src_dev", "tgt_train", "tgt_dev")),
        "src_emb_path = src.vec",
        "tgt_emb_path = tgt.vec",
        "seeds = 1, 2",
        *(f"tagger.{key} = {value}" for key, value in vars(ONE_EPOCH).items()),
        *(f"cell = {cell}" for cell in GRID_CELLS),
    ]
    path = directory / "grid.conf"
    path.write_text("\n".join(lines) + "\n")
    return path


def grid_cell(directory, cell, **changes):
    """The config of one write_grid(directory) cell, "regime:source:target", with changes."""
    (config,) = [c for c in parse_experiment_config(write_grid(directory).read_text()) if ":".join(c.cell) == cell]
    return replace(config, **changes)


# ------------------------------------------------------------- config checks


def test_config_invariants():
    with pytest.raises(ExperimentError):
        ExperimentConfig(regime="zero_shot", target_size="tiny")
    with pytest.raises(ExperimentError):
        ExperimentConfig(regime="in_language_plain", source_size="medium")
    with pytest.raises(ExperimentError):
        ExperimentConfig(regime="nonsense")
    with pytest.raises(ExperimentError):
        ExperimentConfig(regime="joint", source_size="huge")
    with pytest.raises(ExperimentError):
        ExperimentConfig(regime="joint", alignment_direction="sideways")
    config = ExperimentConfig(regime="joint", source_size="medium", target_size="tiny")
    assert config.cell == ("joint", "medium", "tiny")
    assert ExperimentConfig(regime="joint", source_size="large").cell == ("joint", "large", "none")


@pytest.mark.parametrize(
    "regime, source",
    [
        ("majority", "none"),
        ("tnt_baseline", "none"),
        ("in_language_plain", "none"),
        ("in_language_pretrained", "none"),
        ("fine_tune", "large"),
    ],
)
def test_regime_that_trains_on_the_target_alone_needs_a_target_size(regime, source):
    # Rejected when the config is built, not when its task trains on an
    # empty corpus; a grid file names the cell line.
    with pytest.raises(ExperimentError, match=f"^{regime} requires target_size = tiny or small$"):
        ExperimentConfig(regime=regime, source_size=source)
    with pytest.raises(ExperimentError, match=f"^line 3: {regime} requires target_size = tiny or small$"):
        parse_experiment_config(f"seeds = 1\ncell = majority:none:tiny\ncell = {regime}:{source}:none\n")
    assert ExperimentConfig(regime=regime, source_size=source, target_size="tiny").cell == (regime, source, "tiny")


@pytest.mark.parametrize(
    "regime, source",
    [
        ("majority", "large"),
        ("tnt_baseline", "medium"),
        ("in_language_plain", "large"),
        ("in_language_pretrained", "medium"),
    ],
)
def test_regime_that_reads_no_source_rejects_a_source_size(regime, source):
    # It would fail at run time on an eng.* file that it never reads.
    with pytest.raises(ExperimentError, match=f"^{regime} requires source_size = none$"):
        ExperimentConfig(regime=regime, source_size=source, target_size="tiny")
    with pytest.raises(ExperimentError, match=f"^line 3: {regime} requires source_size = none$"):
        parse_experiment_config(f"seeds = 1\ncell = majority:none:tiny\ncell = {regime}:{source}:tiny\n")


@pytest.mark.parametrize("regime, target", [("zero_shot", "none"), ("joint", "tiny"), ("fine_tune", "tiny")])
def test_bilingual_regime_without_a_source_size_reads_the_source_paths(regime, target):
    message = f"{regime} with source_size = none requires src_train_path and src_dev_path"
    with pytest.raises(ExperimentError, match=f"^{message}$"):
        ExperimentConfig(regime=regime, target_size=target)
    for paths in ("", "src_train_path = en.train\n", "src_dev_path = en.dev\n"):
        with pytest.raises(ExperimentError, match=f"^line {2 + paths.count(chr(10))}: {message}$"):
            parse_experiment_config(f"seeds = 1\n{paths}cell = {regime}:none:{target}\n")
    text = f"src_train_path = en.train\nsrc_dev_path = en.dev\ncell = {regime}:none:{target}\n"
    assert [config.cell for config in parse_experiment_config(text)] == [(regime, "none", target)]


def slice_target(corpus, size):
    """The target training slice run_seed trains on."""
    return take_first_tokens(corpus, TARGET_TOKENS[size])


def test_slice_target_sizes():
    corpus = make_corpus(*[[(f"w{i}", "O")] * 10 for i in range(30)])  # 300 tokens
    assert len(slice_target(corpus, "none")) == 0
    tiny = slice_target(corpus, "tiny")
    assert sum(len(s) for s in tiny) <= 5000
    assert len(tiny) == len(corpus)  # corpus smaller than the budget


def test_slice_target_respects_sentence_boundaries():
    corpus = make_corpus(*[[(f"w{i}{j}", "O") for j in range(400)] for i in range(30)])
    tiny = slice_target(corpus, "tiny")
    total = sum(len(s) for s in tiny)
    assert total <= 5000
    assert total + 400 > 5000  # adding one more sentence would overflow


def test_prepare_sources_missing_files(tmp_path):
    config = ExperimentConfig(regime="zero_shot", source_size="large", data_dir=str(tmp_path))
    with pytest.raises(ExperimentError, match="missing source"):
        prepare_sources(config)


def test_prepare_sources_medium_split(tmp_path):
    rows = [[(f"w{i}", "O"), ("x", "O")] for i in range(20)]
    (tmp_path / "eng.testa").write_text(write_conll(make_corpus(*rows)))
    config = ExperimentConfig(regime="zero_shot", source_size="medium", data_dir=str(tmp_path))
    train_c, dev_c = prepare_sources(config)
    assert len(train_c) == 18 and len(dev_c) == 2
    assert train_c.sentences[0].texts == ("w0", "x")
    assert dev_c.sentences[-1].texts == ("w19", "x")


def test_prepare_sources_large_reads_iob1_train_and_dev_in_order(tmp_path):
    train_rows = [
        [("John", "I-PER"), ("Smith", "I-PER"), ("went", "O")],
        [("to", "O"), ("Paris", "I-LOC"), ("Rome", "B-LOC")],
        [("IBM", "I-ORG")],
    ]
    dev_rows = [[("Berlin", "I-LOC")], [("in", "O"), ("EU", "I-MISC"), ("talks", "O")]]
    (tmp_path / "eng.train").write_text(write_conll(make_corpus(*train_rows)))
    (tmp_path / "eng.testa").write_text(write_conll(make_corpus(*dev_rows)))
    config = ExperimentConfig(regime="joint", source_size="large", target_size="tiny", data_dir=str(tmp_path))
    train_c, dev_c = prepare_sources(config)
    assert train_c.language == dev_c.language == "en"
    assert [s.texts for s in train_c] == [tuple(w for w, _ in row) for row in train_rows]
    assert [s.tags for s in train_c] == [("B-PER", "I-PER", "O"), ("O", "B-LOC", "B-LOC"), ("B-ORG",)]
    assert [s.texts for s in dev_c] == [tuple(w for w, _ in row) for row in dev_rows]
    assert [s.tags for s in dev_c] == [("B-LOC",), ("O", "B-MISC", "O")]


# ---------------------------------------------------------- bilingual tables


def test_bilingual_table_contains_both_vocabularies(twins):
    config = ExperimentConfig(regime="zero_shot", source_size="large")
    table = bilingual_table(config, twin_resources(twins))
    src_word = next(iter(twins.src_emb.vectors))
    tgt_word = next(iter(twins.tgt_emb.vectors))
    assert src_word in table.vectors and tgt_word in table.vectors
    assert table.dim == twins.src_emb.dim


def test_bilingual_table_recovers_planted_rotation(twins):
    config = ExperimentConfig(regime="zero_shot", source_size="large")
    table = bilingual_table(config, twin_resources(twins))
    # after mapping tgt into src space, twin forms should nearly coincide
    from xlner.synthetic import twin_word

    errs = []
    for word, vec in twins.src_emb.vectors.items():
        twin = twin_word(word)
        if twin == word:
            continue
        errs.append(np.linalg.norm(table.vectors[twin] - vec))
    assert max(errs) < 1e-6


@pytest.mark.parametrize("direction", ["tgt_to_src", "src_to_tgt"])
@pytest.mark.parametrize("dim", [16, 64])
def test_bilingual_table_matches_per_row_dict_union(direction, dim):
    # The referee: the dict union of the unrotated table and per-row
    # `vec @ w` rotations of the other, source rows winning on shared words.
    twins = make_twin_languages(seed=3, dim=dim, entities_per_type=60)
    src, tgt = twins.src_emb, twins.tgt_emb
    if direction == "tgt_to_src":
        w = align_tables(src, tgt).matrix
        primary, secondary = src.vectors, {word: vec @ w for word, vec in tgt.vectors.items()}
    else:
        w = align_tables(tgt, src).matrix
        primary, secondary = {word: vec @ w for word, vec in src.vectors.items()}, tgt.vectors
    want = dict(secondary)
    want.update(primary)
    config = ExperimentConfig(regime="zero_shot", source_size="large", alignment_direction=direction)
    table = bilingual_table(config, twin_resources(twins))
    assert table.words == list(want)
    assert [table.vectors[word].tobytes() for word in table.words] == [vec.tobytes() for vec in want.values()]


def test_bilingual_table_requires_both(twins):
    config = ExperimentConfig(regime="zero_shot", source_size="large")
    res = twin_resources(twins)
    res.tgt_emb = None
    with pytest.raises(ExperimentError, match="embedding"):
        bilingual_table(config, res)


# ------------------------------------------------------------------ run_seed


def test_majority_regime(twins):
    config = ExperimentConfig(regime="majority", target_size="tiny", tagger=FAST)
    report, tagger = run_seed(config, twin_resources(twins), seed=1)
    assert tagger is None
    assert 0.0 <= report.f1 <= 100.0


def test_tnt_regime(twins):
    config = ExperimentConfig(regime="tnt_baseline", target_size="tiny", tagger=FAST)
    report, tagger = run_seed(config, twin_resources(twins), seed=1)
    assert tagger is None
    assert report.gold > 0


def test_regime_missing_resource(twins):
    config = ExperimentConfig(regime="in_language_plain", target_size="tiny", tagger=FAST)
    res = twin_resources(twins)
    res.tgt_train = None
    with pytest.raises(ExperimentError, match="tgt_train"):
        run_seed(config, res, seed=1)


# What each regime reads, and the error when exactly that one is missing.
BILINGUAL_ERROR = "bilingual regimes need both embedding tables"
NEEDED = {
    "majority": ("tgt_train", "tgt_dev"),
    "tnt_baseline": ("tgt_train", "tgt_dev"),
    "in_language_plain": ("tgt_train", "tgt_dev"),
    "in_language_pretrained": ("tgt_train", "tgt_dev", "tgt_emb"),
    "zero_shot": ("src_train", "src_dev", "tgt_dev", "src_emb", "tgt_emb"),
    "joint": ("src_train", "src_dev", "tgt_train", "tgt_dev", "src_emb", "tgt_emb"),
    "fine_tune": ("src_train", "src_dev", "tgt_train", "tgt_dev", "src_emb", "tgt_emb"),
}


@pytest.mark.parametrize(
    "regime, missing", [(regime, name) for regime in REGIMES for name in NEEDED[regime]]
)
def test_each_missing_resource_is_named(twins, regime, missing):
    source = "large" if regime in ("zero_shot", "joint", "fine_tune") else "none"
    target = "none" if regime == "zero_shot" else "tiny"
    config = ExperimentConfig(regime=regime, source_size=source, target_size=target, tagger=FAST)
    res = twin_resources(twins)
    setattr(res, missing, None)
    bilingual = regime in ("zero_shot", "joint", "fine_tune") and missing.endswith("_emb")
    message = BILINGUAL_ERROR if bilingual else f"regime needs resource {missing!r}"
    with pytest.raises(ExperimentError) as info:
        run_seed(config, res, seed=1)
    assert str(info.value) == message


def test_run_seed_deterministic(twins):
    config = ExperimentConfig(
        regime="in_language_plain", target_size="tiny", tagger=FAST
    )
    res = twin_resources(twins)
    a, _ = run_seed(config, res, seed=3)
    b, _ = run_seed(config, res, seed=3)
    assert a == b


# ------------------------------------------------------------ output layout


def test_run_regime_writes_cell_layout(tmp_path):
    config = grid_cell(tmp_path, "in_language_plain:none:tiny", seeds=(1, 2), tagger=FAST)
    summary = run_grid([config], out_dir=tmp_path)[config.cell]
    assert summary.runs == 2
    for seed in (1, 2):
        cell = tmp_path / "in_language_plain" / "none" / "tiny" / str(seed)
        assert (cell / "report.json").exists()
        assert (cell / "log").exists()
        assert (cell / "model").exists()
        payload = json.loads((cell / "report.json").read_text())
        assert {"precision", "recall", "f1", "per_type"} <= payload.keys()


def test_report_json_keys(tmp_path):
    config = grid_cell(tmp_path, "majority:none:tiny", seeds=(1,), tagger=FAST)
    matrix = run_grid([config], out_dir=tmp_path)
    scores = ["precision", "recall", "f1", "gold", "predicted", "correct"]
    payload = json.loads((tmp_path / "majority" / "none" / "tiny" / "1" / "report.json").read_text())
    assert list(payload) == scores + ["repairs", "per_type"]
    assert list(payload["per_type"]) == ["PER", "LOC", "ORG", "MISC"]
    assert all(list(type_scores) == scores for type_scores in payload["per_type"].values())
    cell = json.loads((tmp_path / "matrix.json").read_text())["majority/none/tiny"]
    assert list(cell) == ["runs", "precision", "recall", "f1", "per_type_f1"]
    assert list(cell["f1"]) == ["mean", "std"]
    assert cell == matrix_dict(matrix)["majority/none/tiny"]


def test_run_regime_baselines_write_no_model(tmp_path):
    config = grid_cell(tmp_path, "majority:none:tiny", seeds=(1,), tagger=FAST)
    run_grid([config], out_dir=tmp_path)
    cell = tmp_path / "majority" / "none" / "tiny" / "1"
    assert (cell / "report.json").exists()
    assert not (cell / "model").exists()


def test_seed_that_fails_writing_leaves_no_report_and_no_temp_file(tmp_path, monkeypatch):
    # report.json is written last, each file whole or not at all: a seed
    # directory that holds report.json is complete.
    import xlner.transfer as transfer

    save_model = transfer.save_model

    def save_fails_for_seed_2(tagger, path):
        if path.parent.name == "2":
            with replacing(path) as fh:
                fh.write(b"part of a model")
                raise OSError("disk full")
        save_model(tagger, path)

    monkeypatch.setattr(transfer, "save_model", save_fails_for_seed_2)
    config = grid_cell(tmp_path, "in_language_plain:none:tiny", seeds=(1, 2), tagger=FAST)
    with pytest.raises(OSError, match="disk full"):
        run_grid([config], out_dir=tmp_path)
    cell = tmp_path / "in_language_plain" / "none" / "tiny"
    assert sorted(p.name for p in (cell / "1").iterdir()) == ["log", "model", "report.json"]
    assert list((cell / "2").iterdir()) == []
    assert not (tmp_path / "matrix.json").exists()
    assert not list(tmp_path.rglob("*.tmp"))


# ------------------------------------------------------------------- matrix


def _fake_summary(f1):
    m = MetricSummary(f1, 0.0)
    return AggregateReport(runs=1, precision=m, recall=m, f1=m, per_type_f1={})


def test_render_matrix_shape_and_absences():
    matrix = {
        ("zero_shot", "medium", "none"): _fake_summary(42.5),
        ("joint", "large", "tiny"): _fake_summary(61.25),
    }
    text = render_matrix(matrix)
    lines = text.strip("\n").split("\n")
    assert len(lines) == 4  # header + three size rows
    header, zero, tiny, small = lines
    for column in ("TnT", "plain", "+Poly", "+Medium", "+Large", "FineTune"):
        assert column in header
    assert "42.50" in zero and "61.25" in tiny
    assert small.count("---") == 6


def test_render_matrix_full_text():
    # Every column filled: +Medium and +Large read zero_shot in the
    # zero-shot row (not the joint cells of that row) and joint in the
    # others; FineTune prefers medium over large.
    f1s = {
        ("tnt_baseline", "none", "tiny"): 11.0,
        ("tnt_baseline", "none", "small"): 12.0,
        ("in_language_plain", "none", "tiny"): 21.0,
        ("in_language_plain", "none", "small"): 22.0,
        ("in_language_pretrained", "none", "tiny"): 31.0,
        ("in_language_pretrained", "none", "small"): 32.0,
        ("zero_shot", "medium", "none"): 40.5,
        ("joint", "medium", "tiny"): 41.25,
        ("joint", "medium", "small"): 42.25,
        ("zero_shot", "large", "none"): 50.5,
        ("joint", "large", "tiny"): 51.25,
        ("joint", "large", "small"): 52.25,
        ("fine_tune", "medium", "tiny"): 61.0,
        ("fine_tune", "large", "tiny"): 71.0,
        ("fine_tune", "large", "small"): 72.0,
        ("joint", "medium", "none"): 98.0,
        ("joint", "large", "none"): 99.0,
    }
    assert render_matrix({cell: _fake_summary(f1) for cell, f1 in f1s.items()}) == (
        "                 TnT     plain     +Poly   +Medium    +Large  FineTune\n"
        "zero-shot        ---       ---       ---     40.50     50.50       ---\n"
        "Tiny           11.00     21.00     31.00     41.25     51.25     61.00\n"
        "Small          12.00     22.00     32.00     42.25     52.25     72.00\n"
    )


def test_run_grid_rejects_duplicate_cells(tmp_path):
    config = grid_cell(tmp_path, "majority:none:tiny", tagger=FAST)
    with pytest.raises(ExperimentError, match="duplicate"):
        run_grid([config, replace(config)])


def test_run_grid_writes_matrix_files(tmp_path):
    configs = [
        grid_cell(tmp_path, "majority:none:tiny", seeds=(1,), tagger=FAST),
        grid_cell(tmp_path, "tnt_baseline:none:tiny", seeds=(1,), tagger=FAST),
    ]
    matrix = run_grid(configs, out_dir=tmp_path)
    assert set(matrix) == {
        ("majority", "none", "tiny"),
        ("tnt_baseline", "none", "tiny"),
    }
    assert (tmp_path / "matrix.txt").exists()
    payload = json.loads((tmp_path / "matrix.json").read_text())
    assert "tnt_baseline/none/tiny" in payload


def test_run_grid_deterministic(tmp_path):
    configs = [grid_cell(tmp_path, "in_language_plain:none:tiny", seeds=(1, 2), tagger=FAST)]
    a = run_grid(configs)
    b = run_grid(configs)
    key = ("in_language_plain", "none", "tiny")
    assert a[key].f1 == b[key].f1


# ------------------------------------------------- shared grid inputs, --jobs

def test_run_grid_reads_each_input_once_and_aligns_once_per_direction(tmp_path, monkeypatch):
    import xlner.transfer as transfer

    configs = parse_experiment_config(write_grid(tmp_path).read_text())
    # fine_tune maps the other way, so both directions are fitted
    configs = [
        replace(c, alignment_direction="src_to_tgt") if c.regime == "fine_tune" else c
        for c in configs
    ]
    reads, fits = [], []

    def counted(name, log, arg):
        original = getattr(transfer, name)

        def wrapper(*args, **kwargs):
            log.append(arg(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(transfer, name, wrapper)

    counted("read_conll", reads, lambda path, *_: path.name)
    counted("load_embeddings", reads, lambda path, *_: path.name)
    counted("align_tables", fits, lambda src, tgt, *_: (id(src), id(tgt)))

    matrix = run_grid(configs)
    assert sorted(reads) == sorted(
        ["src_train.conll", "src_dev.conll", "tgt_train.conll", "tgt_dev.conll", "src.vec", "tgt.vec"]
    )
    assert len(fits) == 2 and len(set(fits)) == 2

    # Here fine_tune shares no source-only model with zero_shot; in the grid
    # as written it does. Either way each cell alone, as a one-cell grid and
    # seed by seed through run_seed, gets its grid result.
    sharing = parse_experiment_config(write_grid(tmp_path).read_text())
    for grid, results in ((configs, matrix), (sharing, run_grid(sharing))):
        for config in grid:
            alone = run_grid([config])[config.cell]
            assert asdict(results[config.cell]) == asdict(alone)
            if config.regime in ("zero_shot", "fine_tune"):
                reports = [run_seed(config, load_resources(config), seed)[0] for seed in config.seeds]
                assert asdict(aggregate(reports)) == asdict(alone)


def test_grid_inputs_hold_only_what_each_regime_reads(tmp_path):
    # Each task is pickled with its own cell's inputs, so this is also what
    # a --jobs worker receives.
    configs = parse_experiment_config(write_grid(tmp_path).read_text())
    flipped = [replace(c, alignment_direction="src_to_tgt") if c.regime == "fine_tune" else c for c in configs]
    for grid, n_tables in ((configs, {"tgt_to_src": 1}), (flipped, {"tgt_to_src": 1, "src_to_tgt": 1})):
        tables = {}
        for config, (res, shared) in zip(grid, _grid_inputs(grid)):
            # zero_shot's source-only model also reads the whole tgt_train, for its vocabulary
            reads = {*_NEEDS[config.regime], *(["tgt_train"] if config.regime == "zero_shot" else [])}
            for f in fields(Resources):
                assert (getattr(res, f.name) is not None) == (f.name in reads), (config.cell, f.name)
            assert res.src_emb is None
            assert (res.tgt_emb is not None) == (config.regime == "in_language_pretrained")
            assert (shared is not None) == (config.regime in BILINGUAL_REGIMES)
            if shared is not None:
                tables.setdefault(config.alignment_direction, set()).add(id(shared))
        assert {direction: len(ids) for direction, ids in tables.items()} == n_tables


def corpus_texts(res):
    corpora = (res.src_train, res.src_dev, res.tgt_train, res.tgt_dev)
    return {text for corpus in corpora for sentence in corpus for text in sentence.texts}


@pytest.fixture(scope="module")
def paper_scale_grid(tmp_path_factory):
    """write_grid's files of the twins' corpora with two 12,000-row 64-d
    tables, the size of the benchmark's pipeline_grid tables; returns the
    config path and the same inputs in memory. Each twin table is grown
    with the lowercase forms of the corpora's capitalized tokens, which
    word_form reaches only for a token that neither table holds, and then
    with random rows whose words the other table lacks and no token
    reaches."""
    twins = make_twin_languages(seed=2, dim=64)
    rng = np.random.default_rng(2)
    lowered = {text.lower() for text in corpus_texts(twin_resources(twins))}
    lowered = sorted(lowered - twins.src_emb.index.keys() - twins.tgt_emb.index.keys())

    def grown(table, prefix):
        extra = 12000 - len(table) - len(lowered)
        words = table.words + lowered + [f"{prefix}{i}" for i in range(extra)]
        return EmbeddingTable(words, np.vstack([table.matrix, rng.standard_normal((12000 - len(table), 64))]))

    twins = replace(twins, src_emb=grown(twins.src_emb, "~src"), tgt_emb=grown(twins.tgt_emb, "~tgt"))
    return write_grid(tmp_path_factory.mktemp("paper_scale"), twins), twin_resources(twins)


@pytest.mark.parametrize("direction", ALIGNMENT_DIRECTIONS)
def test_grid_tables_hold_only_the_rows_the_corpora_reach(paper_scale_grid, direction):
    # Each task's table holds exactly the rows word_form finds in the whole
    # table for some corpus token, bit for bit as the whole table holds
    # them; so a bilingual task pickles to under 1 MB, not 12 MB.
    config_path, res = paper_scale_grid
    configs = [replace(c, alignment_direction=direction) for c in parse_experiment_config(config_path.read_text())]
    texts = corpus_texts(res)
    checked = []
    for config, (needed, shared) in zip(configs, _grid_inputs(configs)):
        if config.regime in BILINGUAL_REGIMES:
            whole, table = bilingual_table(config, res), shared
            assert len(pickle.dumps((needed, shared))) < 1_000_000 < len(pickle.dumps(whole))
        elif config.regime == "in_language_pretrained":
            whole, table = res.tgt_emb, needed.tgt_emb
        else:
            continue
        reached = {word_form(whole.index, text) for text in texts} - {None}
        assert sorted(table.words) == sorted(reached) and 0 < len(table) < len(whole) // 20
        assert table.dim == whole.dim
        for word in table.words:
            assert table.matrix[table.index[word]].tobytes() == whole.matrix[whole.index[word]].tobytes()
        checked.append(config.regime)
    assert checked == ["in_language_pretrained", "zero_shot", "joint", "fine_tune"]


@pytest.mark.parametrize("cell", ["in_language_pretrained:none:tiny", "zero_shot:large:none"])
def test_table_no_corpus_reaches_still_fails_the_dimension_check(tmp_path, capsys, cell):
    # Cut to the rows the corpora reach, a 64-d table keeps no row, and a
    # 16-d model must still refuse it as the whole table is refused.
    from xlner.cli import main

    config_path = write_grid(tmp_path)
    rng = np.random.default_rng(0)
    for name in ("src.vec", "tgt.vec"):
        save_embeddings(EmbeddingTable([f"~{i}" for i in range(40)], rng.standard_normal((40, 64))), tmp_path / name)
    lines = [line for line in config_path.read_text().splitlines() if not line.startswith("cell =")]
    config_path.write_text("\n".join([*lines, f"cell = {cell}"]) + "\n")
    (config,) = parse_experiment_config(config_path.read_text())
    (res, shared), = _grid_inputs([config])
    assert len(shared if shared is not None else res.tgt_emb) == 0
    with pytest.raises(ValueError, match="^pretrained dim 64 != word_emb_dim 16$"):
        run_seed(config, load_resources(config), seed=1)
    assert main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: pretrained dim 64 != word_emb_dim 16"


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_experiment_jobs_match_serial_from_files(tmp_path, capsys):
    from xlner.cli import main

    config_path = write_grid(tmp_path)
    # One cell with two seeds is two tasks, which --jobs 2 runs in two workers.
    one_cell = tmp_path / "one_cell.conf"
    lines = [line for line in config_path.read_text().splitlines() if not line.startswith("cell =")]
    one_cell.write_text("\n".join([*lines, "cell = fine_tune:large:tiny"]) + "\n")
    for name, path, cells in (("grid", config_path, GRID_CELLS), ("one", one_cell, ("fine_tune:large:tiny",))):
        for jobs in ("1", "2"):
            argv = ["experiment", "--config", str(path), "--out", str(tmp_path / f"{name}{jobs}")]
            assert main([*argv, "--jobs", jobs]) == 0
        capsys.readouterr()
        serial, parallel = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert (parallel / "matrix.json").read_text() == (serial / "matrix.json").read_text()
        files = tree_bytes(serial)
        neural = [cell for cell in cells if not cell.startswith(("majority", "tnt_baseline"))]
        assert sorted(files) == sorted(
            ["matrix.json", "matrix.txt"]
            + [f"{cell.replace(':', '/')}/{seed}/{kind}" for cell in cells for seed in (1, 2) for kind in ("log", "report.json")]
            + [f"{cell.replace(':', '/')}/{seed}/model" for cell in neural for seed in (1, 2)]
        )
        assert tree_bytes(parallel) == files


# ------------------------------------------- one source-only model per seed


def write_eng_grid(directory, cells, seeds="1, 2"):
    """write_grid's files with its source corpora also as eng.train and
    eng.testa, and a grid config of cells that reads them, so that medium
    and large read different source corpora; returns the config path."""
    config_path = write_grid(directory)
    (directory / "eng.train").write_text((directory / "src_train.conll").read_text())
    (directory / "eng.testa").write_text((directory / "src_dev.conll").read_text())
    dropped = ("cell =", "src_train_path =", "src_dev_path =", "seeds =")
    lines = [line for line in config_path.read_text().splitlines() if not line.startswith(dropped)]
    path = directory / "eng.conf"
    path.write_text("\n".join([*lines, f"seeds = {seeds}", *(f"cell = {cell}" for cell in cells)]) + "\n")
    return path


def source_models(monkeypatch):
    """Wraps transfer.train and returns a list that gets a weakref to each
    source-only model it trains (the one training on an English corpus
    alone), in order. Before each such training it checks that every
    earlier one is gone: one task holds one source-only model at a time."""
    import xlner.transfer as transfer

    original, models = transfer.train, []

    def wrapper(config, train_corpus, *args, **kwargs):
        source_only = train_corpus.language == "en"
        if source_only:
            gc.collect()
            assert [ref() for ref in models if ref() is not None] == []
        tagger, history = original(config, train_corpus, *args, **kwargs)
        if source_only:
            models.append(weakref.ref(tagger))
        return tagger, history

    monkeypatch.setattr(transfer, "train", wrapper)
    return models


SOURCE_GRID = (
    "zero_shot:medium:none",
    "zero_shot:large:none",
    *(f"fine_tune:{source}:{target}" for source in ("medium", "large") for target in ("tiny", "small")),
)


def test_full_grid_trains_one_source_model_per_source_size_and_seed(tmp_path, monkeypatch):
    # Six cells of three seeds each trained their own: 18 source-only models.
    models = source_models(monkeypatch)
    configs = parse_experiment_config(write_eng_grid(tmp_path, SOURCE_GRID, "1, 2, 3").read_text())
    matrix = run_grid(configs)
    assert len(models) == 6 and sorted(matrix) == sorted(c.cell for c in configs)
    gc.collect()
    assert [ref() for ref in models if ref() is not None] == []


def test_seven_cell_grid_trains_one_source_model_per_seed(tmp_path, monkeypatch):
    # zero_shot and fine_tune trained one each per seed: 2 become 1.
    models = source_models(monkeypatch)
    configs = parse_experiment_config(write_grid(tmp_path).read_text())
    assert [c.cell for c in configs] == [tuple(cell.split(":")) for cell in GRID_CELLS]
    run_grid(configs)
    assert len(models) == 2  # seeds 1, 2


def test_grid_names_a_missing_resource_before_it_trains(tmp_path, monkeypatch):
    # The source-only model of a shared group trains before any cell's
    # run_seed: the grid checks every cell's inputs first.
    models = source_models(monkeypatch)
    configs = [
        grid_cell(tmp_path, "in_language_plain:none:tiny"),
        grid_cell(tmp_path, "zero_shot:large:none", tgt_dev_path=None),
    ]
    with pytest.raises(ExperimentError, match="^regime needs resource 'tgt_dev'$"):
        run_grid(configs)
    assert models == []


# ------------------------------------------------------------- the demo


@pytest.fixture(scope="module")
def demo():
    """scripts/run_synthetic_experiment.py as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_writes_its_inputs_and_its_grid_config_reruns_to_the_same_tree(tmp_path, capsys, demo):
    from xlner.cli import main

    out = tmp_path / "demo"
    assert demo.main(["--epochs", "1", "--seeds", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert all(f"  {cell.replace(':', '/')} " in printed for cell in GRID_CELLS)
    data = out / "data"
    names = ["eng.testa", "eng.train", "grid.conf", "src.vec", "tgt.vec", "tgt_dev.conll", "tgt_train.conll"]
    assert sorted(p.name for p in data.iterdir()) == names
    # the source files hold the twins' corpora in IOB1, which prepare_sources converts back
    twins = make_twin_languages(seed=0)
    for name, corpus in (("eng.train", twins.src_train), ("eng.testa", twins.src_dev)):
        assert convert_corpus_iob1_to_bio2(read_conll(data / name)).sentences == corpus.sentences
        assert "B-" not in (data / name).read_text()
    assert main(["experiment", "--config", str(data / "grid.conf"), "--out", str(tmp_path / "again"), "--jobs", "2"]) == 0
    files = tree_bytes(out)
    assert tree_bytes(tmp_path / "again") == {name: b for name, b in files.items() if not name.startswith("data/")}
    assert "zero_shot/large/none/1/model" in files


def test_demo_iob1_opens_an_entity_with_b_only_after_its_own_type(demo):
    tags = ("B-PER", "B-PER", "I-PER", "O", "B-LOC", "B-ORG", "I-ORG")
    corpus = Corpus((from_columns(tuple("abcdefg"), tags, ((),) * 7),), "en")
    (sentence,) = demo.iob1(corpus).sentences
    assert sentence.tags == ("I-PER", "B-PER", "I-PER", "O", "I-LOC", "I-ORG", "I-ORG")
    assert convert_corpus_iob1_to_bio2(demo.iob1(corpus)) == corpus


@pytest.mark.parametrize(
    "argv, key",
    [(["--seeds", "1,1"], "seeds"), (["--seeds", "1,x"], "seeds"), (["--epochs", "-1"], "tagger.max_epochs")],
)
def test_demo_bad_argument_ends_in_one_error_line_naming_its_config_line(tmp_path, capsys, demo, argv, key):
    out = tmp_path / "demo"
    assert demo.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert errors == err[-1:], err
    lineno = int(re.search(r": line (\d+): ", errors[0]).group(1))
    assert (out / "data" / "grid.conf").read_text().splitlines()[lineno - 1].startswith(f"{key} = ")
    assert not (out / "matrix.json").exists()


# ------------------------------------------------------------- config parser


def test_parse_single_cell():
    configs = parse_experiment_config(
        """
        # one cell
        regime = joint
        source_size = medium
        target_size = tiny
        seeds = 1, 2
        tagger.max_epochs = 3
        tagger.dropout = 0.1
        """
    )
    assert len(configs) == 1
    config = configs[0]
    assert config.cell == ("joint", "medium", "tiny")
    assert config.seeds == (1, 2)
    assert config.tagger.max_epochs == 3
    assert config.tagger.dropout == 0.1


def test_parse_multi_cell_grid():
    configs = parse_experiment_config(
        """
        seeds = 7
        cell = majority:none:tiny
        cell = tnt_baseline:none:small
        cell = zero_shot:large:none
        """
    )
    assert [c.cell for c in configs] == [
        ("majority", "none", "tiny"),
        ("tnt_baseline", "none", "small"),
        ("zero_shot", "large", "none"),
    ]
    assert all(c.seeds == (7,) for c in configs)


def test_parse_errors():
    with pytest.raises(ExperimentError, match="line 1"):
        parse_experiment_config("not a config")
    with pytest.raises(ExperimentError, match="regime:source:target"):
        parse_experiment_config("cell = joint:medium")
    with pytest.raises(ExperimentError, match="unknown tagger option"):
        parse_experiment_config("regime = majority\ntagger.width = 3")
    with pytest.raises(ExperimentError, match="unknown option"):
        parse_experiment_config("regime = majority\ncolour = red")
    with pytest.raises(ExperimentError, match="no cells"):
        parse_experiment_config("seeds = 1")
    with pytest.raises(ExperimentError, match="line 2: seeds"):
        parse_experiment_config("regime = majority\nseeds = a")
    with pytest.raises(ExperimentError, match="line 2: seeds"):
        parse_experiment_config("regime = majority\nseeds =")
    with pytest.raises(ExperimentError, match="line 3: zero_shot requires target_size = none"):
        parse_experiment_config("seeds = 1\ncell = majority:none:tiny\ncell = zero_shot:large:tiny")
    with pytest.raises(ExperimentError, match="line 2: zero_shot requires target_size = none"):
        parse_experiment_config("target_size = tiny\nregime = zero_shot")
    with pytest.raises(ExperimentError, match="^line 1: regime has no effect in a grid"):
        parse_experiment_config("regime = joint\ntarget_size = small\ncell = majority:none:tiny\n")
    with pytest.raises(ExperimentError, match="seeds"):
        ExperimentConfig(regime="majority", seeds=())


@pytest.mark.parametrize("key, value", [("regime", "joint"), ("source_size", "large"), ("target_size", "small")])
def test_grid_file_rejects_single_cell_keys(key, value):
    # Each cell line names its regime and sizes; a shared key would be ignored.
    for text, line in (
        (f"seeds = 1\n{key} = {value}\ncell = majority:none:tiny\n", 2),
        (f"cell = majority:none:tiny\n# note\n\n{key} = {value}\n", 4),
    ):
        with pytest.raises(ExperimentError, match=f"^line {line}: {key} has no effect in a grid"):
            parse_experiment_config(text)


def test_repeated_seeds_are_rejected():
    # A repeated seed would train the same run twice into one <cell>/<seed>
    # directory and count it twice in the cell's mean and std.
    with pytest.raises(ExperimentError, match=r"^line 2: seeds must not repeat a seed, got '1,1'$"):
        parse_experiment_config("regime = majority\nseeds = 1,1\ntarget_size = tiny")
    with pytest.raises(ExperimentError, match="^line 1: seeds must not repeat a seed"):
        parse_experiment_config("seeds = 3, 1, 3\ncell = majority:none:tiny")
    with pytest.raises(ExperimentError, match="seeds must not repeat a seed"):
        ExperimentConfig(regime="majority", target_size="tiny", seeds=(1, 1))


def test_every_string_field_is_a_config_key():
    values = {
        "regime": "joint",
        "source_size": "medium",
        "target_size": "small",
        "alignment_direction": "src_to_tgt",
    }
    strings = [f.name for f in fields(ExperimentConfig) if f.name not in ("seeds", "tagger")]
    text = "\n".join(f"{name} = {values.get(name, name + '.value')}" for name in strings)
    (config,) = parse_experiment_config(text)
    for name in strings:
        assert getattr(config, name) == values.get(name, name + ".value")


def test_parse_boolean_spellings():
    for text, want in (("True", True), ("yes", True), ("1", True), ("FALSE", False), ("No", False), ("0", False)):
        (config,) = parse_experiment_config(f"regime = majority\ntarget_size = tiny\ntagger.unk_word_dropout = {text}")
        assert config.tagger.unk_word_dropout is want
    with pytest.raises(ExperimentError, match="line 2.*unk_word_dropout"):
        parse_experiment_config("regime = majority\ntagger.unk_word_dropout = ture")


def test_parse_paths_and_direction():
    (config,) = parse_experiment_config(
        """
        regime = zero_shot
        source_size = large
        alignment_direction = src_to_tgt
        src_emb_path = emb/src.vec
        tgt_emb_path = emb/tgt.vec
        data_dir = /tmp/data
        """
    )
    assert config.alignment_direction == "src_to_tgt"
    assert config.src_emb_path == "emb/src.vec"
    assert config.data_dir == "/tmp/data"


def test_grid_file_keeps_a_hash_inside_a_value():
    configs = parse_experiment_config(
        """
        # the corpora live under a directory whose name holds a '#'
        data_dir = /x/a#b/data  # a trailing comment
        tgt_train_path = da#1.conll\t# tab before the comment
        tgt_dev_path = da.dev#
        seeds = 1, 2 #two seeds
        tagger.max_epochs = 2 # epochs
        cell = majority:none:tiny # one cell
        cell = tnt_baseline:none:tiny
        """
    )
    assert [c.cell for c in configs] == [("majority", "none", "tiny"), ("tnt_baseline", "none", "tiny")]
    for config in configs:
        assert (config.data_dir, config.tgt_train_path, config.tgt_dev_path) == ("/x/a#b/data", "da#1.conll", "da.dev#")
        assert config.seeds == (1, 2) and config.tagger.max_epochs == 2
    with pytest.raises(ExperimentError, match="^line 2: .*'2#3'"):
        parse_experiment_config("regime = majority\ntagger.max_epochs = 2#3\n")


# ----------------------------------------------------- cross-regime sanity


def test_fine_tune_without_target_epochs_matches_zero_shot_shape(twins):
    # fine-tuning for zero target epochs must still produce a full report
    config = ExperimentConfig(
        regime="fine_tune",
        source_size="large",
        target_size="tiny",
        tagger=replace(FAST, max_epochs=1),
    )
    report, tagger = run_seed(config, twin_resources(twins), seed=1)
    assert tagger is not None
    assert isinstance(report, EvalReport)
    assert report.gold > 0
