import json

import numpy as np
import pytest

from xlner.cli import main
from xlner.conll import parse_conll, write_conll
from xlner.embeddings import EmbeddingTable, align_tables, load_embeddings, save_embeddings
from xlner.serialize import read_container, write_container
from xlner.tagger import MODEL_MAGIC, Tagger, TaggerConfig, build_vocab, init_params, save_model

from conftest import TABLE_FIXTURE, drop_key, make_corpus


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.conll"
    path.write_text(TABLE_FIXTURE, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- stats


def test_stats_text(capsys, sample):
    code, out, err = run(capsys, "stats", sample)
    assert code == 0
    assert "sentences: 2" in out
    assert "# xlner stats" in err  # effective config goes to stderr


def test_stats_json(capsys, sample):
    code, out, _ = run(capsys, "stats", sample, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sentences"] == 2
    assert payload["entities"] == 3


def test_stats_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "stats", tmp_path / "nope.conll")
    assert code == 1
    assert "error:" in err


def test_data_dir_resolution(capsys, tmp_path, sample, monkeypatch):
    monkeypatch.setenv("XLNER_DATA_DIR", str(sample.parent))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, out, _ = run(capsys, "stats", "sample.conll")
    assert code == 0
    assert "sentences: 2" in out


# ------------------------------------------------------------------ validate


def test_validate_clean(capsys, sample):
    code, out, err = run(capsys, "validate", sample)
    assert code == 0
    assert "valid" in err


def test_validate_violations(capsys, tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("a O\nb I-PER\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", path)
    assert code == 1
    assert "token 1" in out
    assert "1 BIO violations" in err


# ------------------------------------------------------------------- convert


def test_convert_writes_bio2(capsys, tmp_path):
    src = tmp_path / "iob1.conll"
    src.write_text("Hans I-PER\nJensen I-PER\n\nEU I-ORG\n", encoding="utf-8")
    out_path = tmp_path / "bio2.conll"
    code, _, _ = run(capsys, "convert", src, "--out", out_path)
    assert code == 0
    corpus = parse_conll(out_path.read_text())
    assert corpus.sentences[0].tags == ("B-PER", "I-PER")
    assert corpus.sentences[1].tags == ("B-ORG",)


def test_convert_stdout(capsys, tmp_path):
    src = tmp_path / "iob1.conll"
    src.write_text("EU I-ORG\n", encoding="utf-8")
    code, out, _ = run(capsys, "convert", src)
    assert code == 0
    assert "EU B-ORG" in out


# --------------------------------------------------------------------- kappa


def test_kappa_identical_annotators(capsys, sample):
    code, out, _ = run(capsys, "kappa", sample, sample, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 1.0


def test_kappa_disagreement(capsys, tmp_path, sample):
    other = tmp_path / "other.conll"
    corpus = parse_conll(TABLE_FIXTURE)
    flipped = corpus.sentences[0].with_tags(
        ["B-PER" if t == "B-LOC" else t for t in corpus.sentences[0].tags]
    )
    other.write_text(
        write_conll(type(corpus)((flipped,) + corpus.sentences[1:], corpus.language))
    )
    code, out, _ = run(capsys, "kappa", sample, other, "--format", "json")
    assert code == 0
    assert json.loads(out)["kappa"] < 1.0


# ----------------------------------------------------------- JSON schemas

SCORE_KEYS = ["precision", "recall", "f1", "gold", "predicted", "correct"]
JSON_KEYS = {
    "stats": ["sentences", "tokens", "types", "ttr", "sentences_with_ne", "sentences_with_ne_pct", "entities"],
    "kappa": ["kappa", "p_o", "p_e", "items", "degenerate"],
    "eval": SCORE_KEYS + ["repairs", "per_type"],
}


@pytest.mark.parametrize("command", sorted(JSON_KEYS))
def test_json_report_keys(capsys, sample, command):
    argv = {"stats": [sample], "kappa": [sample, sample], "eval": ["--gold", sample, "--pred", sample]}[command]
    code, out, _ = run(capsys, command, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == JSON_KEYS[command]
    if command == "eval":
        assert list(payload["per_type"]) == ["PER", "LOC", "ORG", "MISC"]
        assert all(list(scores) == SCORE_KEYS for scores in payload["per_type"].values())


# --------------------------------------------------------------------- align


def test_align_round_trip(capsys, tmp_path):
    rng = np.random.default_rng(0)
    words = ["fælles1", "fælles2", "fælles3", "fælles4", "kilde"]
    src_vecs = {w: rng.standard_normal(4) for w in words}
    rotation = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    tgt_vecs = {w: v @ rotation for w, v in src_vecs.items() if w != "kilde"}
    tgt_vecs["mål"] = rng.standard_normal(4) @ rotation
    src_path, tgt_path, out_path = (
        tmp_path / "src.vec",
        tmp_path / "tgt.vec",
        tmp_path / "mapped.vec",
    )
    save_embeddings(EmbeddingTable(4, src_vecs), src_path)
    save_embeddings(EmbeddingTable(4, tgt_vecs), tgt_path)
    code, _, err = run(
        capsys, "align", "--src", src_path, "--tgt", tgt_path, "--out", out_path
    )
    assert code == 0
    assert "seeds: 4" in err
    mapped = load_embeddings(out_path)
    for w in tgt_vecs:
        if w in src_vecs:
            assert np.allclose(mapped.vectors[w], src_vecs[w], atol=1e-4)


@pytest.mark.parametrize("direction", ["tgt_to_src", "src_to_tgt"])
def test_align_output_bytes_match_per_row_reference(capsys, tmp_path, direction):
    # Several loader blocks of rows, 40 identical-word seeds in 16-d.
    rng = np.random.default_rng(1)
    src_vecs = {f"s{i}": rng.standard_normal(16) for i in range(300)}
    tgt_vecs = {f"t{i}": rng.standard_normal(16) for i in range(260)}
    rotation = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    for i in range(40):
        src_vecs[f"fælles{i}"] = rng.standard_normal(16)
        tgt_vecs[f"fælles{i}"] = src_vecs[f"fælles{i}"] @ rotation
    src, tgt = EmbeddingTable(16, src_vecs), EmbeddingTable(16, tgt_vecs)
    src_path, tgt_path, out_path = tmp_path / "src.vec", tmp_path / "tgt.vec", tmp_path / "mapped.vec"
    save_embeddings(src, src_path)
    save_embeddings(tgt, tgt_path)
    code, _, _ = run(
        capsys, "align", "--src", src_path, "--tgt", tgt_path, "--out", out_path, "--direction", direction
    )
    assert code == 0
    moved, fixed = (tgt, src) if direction == "tgt_to_src" else (src, tgt)
    w = align_tables(fixed, moved).matrix
    want = f"{len(moved)} 16\n" + "".join(
        word + " " + " ".join(repr(float(x)) for x in vec @ w) + "\n" for word, vec in moved.vectors.items()
    )
    assert out_path.read_bytes() == want.encode("utf-8")


# ------------------------------------------------------- train / tag / eval


def test_train_tag_eval_pipeline(capsys, tmp_path, sample):
    config_path = tmp_path / "tagger.conf"
    config_path.write_text(
        "word_emb_dim = 8\nword_lstm_dim = 4\nchar_emb_dim = 3\n"
        "char_lstm_dim = 3\ndropout = 0.0\nmax_epochs = 3\n"
    )
    model_path = tmp_path / "model.bin"
    code, _, err = run(
        capsys,
        "train",
        "--train", sample,
        "--dev", sample,
        "--out", model_path,
        "--config", config_path,
        "--seed", 7,
    )
    assert code == 0
    assert model_path.exists()

    tagged_path = tmp_path / "tagged.conll"
    code, _, _ = run(capsys, "tag", "--model", model_path, str(sample), "--out", tagged_path)
    assert code == 0
    tagged = parse_conll(tagged_path.read_text())
    assert len(tagged) == 2

    code, out, _ = run(
        capsys, "eval", "--gold", sample, "--pred", tagged_path, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["f1"] <= 100.0


def test_tag_empty_file(capsys, tmp_path, sample):
    model_path = tmp_path / "model.bin"
    write_model(model_path, sample, lambda header, tensors: None)
    empty = tmp_path / "empty.conll"
    empty.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "tag", "--model", model_path, empty)
    assert code == 0
    assert out == ""
    assert "error" not in err


def test_eval_identical_is_perfect(capsys, sample):
    code, out, _ = run(capsys, "eval", "--gold", sample, "--pred", sample)
    assert code == 0
    assert "F1 100.00" in out


def test_train_rejects_unknown_config_key(capsys, tmp_path, sample):
    config_path = tmp_path / "bad.conf"
    config_path.write_text("nonsense = 1\n")
    code, _, err = run(
        capsys,
        "train",
        "--train", sample,
        "--dev", sample,
        "--out", tmp_path / "m.bin",
        "--config", config_path,
    )
    assert code == 1
    assert "unknown tagger option" in err


def test_train_rejects_malformed_boolean(capsys, tmp_path, sample):
    config_path = tmp_path / "typo.conf"
    config_path.write_text("max_epochs = 1\nunk_word_dropout = ture\n")
    code, _, err = run(
        capsys,
        "train",
        "--train", sample,
        "--dev", sample,
        "--out", tmp_path / "m.bin",
        "--config", config_path,
    )
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "line 2" in errors[0] and "unk_word_dropout" in errors[0]
    assert not (tmp_path / "m.bin").exists()


# ----------------------------------------------------------- bad model files


def write_model(path, sample, edit):
    """A small model file whose header and tensors pass through edit first."""
    corpus = parse_conll(sample.read_text())
    config = TaggerConfig(word_emb_dim=4, word_lstm_dim=3, char_emb_dim=2, char_lstm_dim=2)
    vocab = build_vocab([corpus])
    save_model(Tagger(config, vocab, init_params(config, vocab)), path)
    header, tensors = read_container(path, MODEL_MAGIC)
    edit(header, tensors)
    write_container(path, MODEL_MAGIC, header, tensors)


def assert_tag_fails(capsys, model_path, sample, *words):
    code, out, err = run(capsys, "tag", "--model", model_path, sample)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    for word in words:
        assert word in errors[0]


def test_tag_rejects_unknown_config_key(capsys, tmp_path, sample):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: header["config"].update(width=3))
    assert_tag_fails(capsys, path, sample, "config", "width")


def test_tag_rejects_out_of_range_config_value(capsys, tmp_path, sample):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: header["config"].update(dropout=9.25))
    assert_tag_fails(capsys, path, sample, str(path), "dropout")


def test_tag_rejects_vocab_that_is_not_a_list(capsys, tmp_path, sample):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: header["vocab"].update(words=5))
    assert_tag_fails(capsys, path, sample, str(path), "'words'", "list of strings")


@pytest.mark.parametrize("key", ["words", "chars"])
def test_tag_rejects_vocab_without_unk(capsys, tmp_path, sample, key):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: header["vocab"][key].__setitem__(0, "zzz"))
    assert_tag_fails(capsys, path, sample, str(path), repr(key), "'<unk>'")


@pytest.mark.parametrize(
    "edit, words",
    [
        (lambda tensors: tensors.pop("proj_b"), ("missing", "proj_b")),
        (lambda tensors: tensors.update(extra_b=np.zeros(3)), ("unexpected", "extra_b")),
        (lambda tensors: tensors.update(proj_b=np.zeros(4)), ("proj_b", "(4,)", "(9,)")),
    ],
    ids=["missing", "extra", "misshapen"],
)
def test_tag_rejects_bad_tensors(capsys, tmp_path, sample, edit, words):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: edit(tensors))
    assert_tag_fails(capsys, path, sample, *words)


@pytest.mark.parametrize("key", ["config", "vocab", "vocab.words", "vocab.chars", "vocab.tags"])
def test_tag_rejects_missing_header_key(capsys, tmp_path, sample, key):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: drop_key(header, key))
    assert_tag_fails(capsys, path, sample, "lacks", repr(key.split(".")[-1]))


def test_tag_rejects_file_cut_in_header(capsys, tmp_path, sample):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: None)
    path.write_bytes(path.read_bytes()[:40])  # magic, version, length, 24 header bytes
    assert_tag_fails(capsys, path, sample, "truncated header", "offset 16")


def test_tag_rejects_file_cut_in_tensor_data(capsys, tmp_path, sample):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: None)
    path.write_bytes(path.read_bytes()[:-4])
    assert_tag_fails(capsys, path, sample, "truncated tensor", "data", "offset")


def test_tag_rejects_trailing_bytes(capsys, tmp_path, sample):
    path = tmp_path / "model.bin"
    write_model(path, sample, lambda header, tensors: None)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0" * 3)
    assert_tag_fails(capsys, path, sample, "3 trailing bytes", f"offset {size}")


# ------------------------------------------------------ malformed input files

# name: (file content, what the error line must name; "{path}" is the file)
BAD_CORPORA = {
    "one_column": ("Rom B-LOC\nblev\n", "{path}: line 2"),
    "unknown_tag": ("Rom B-LOC\nblev B-FOO\n", "{path}: line 2"),
    "non_utf8": (b"Rom B-LOC\n\xffblev O\n", "{path}"),
}
BAD_TABLES = {
    "short_row": ("a 1 2\nb 1\n", "{path}: line 2"),
    "non_numeric": ("a 1 2\nb 1 x\n", "{path}: line 2"),
    "nan": ("a 1 2\nb nan 1\n", "{path}: line 2"),
    "inf": ("a 1 2\nb 1 -inf\n", "{path}: line 2"),
    "non_utf8": (b"a 1 2\n\xff 1 2\n", "{path}"),
}
# A command that reads two files of one kind gets the bad one in either
# place, so its error line must say which file is malformed.
COMMANDS = {
    "stats": lambda bad, good, out: ["stats", bad],
    "train --train": lambda bad, good, out: ["train", "--train", bad, "--dev", good, "--out", out],
    "eval --pred": lambda bad, good, out: ["eval", "--gold", good, "--pred", bad],
    "kappa <b>": lambda bad, good, out: ["kappa", good, bad],
    "align --src": lambda bad, good, out: ["align", "--src", bad, "--tgt", good, "--out", out],
    "align --tgt": lambda bad, good, out: ["align", "--src", good, "--tgt", bad, "--out", out],
    "train --embeddings": lambda bad, good, out: ["train", "--train", good, "--dev", good, "--embeddings", bad, "--out", out],
}


@pytest.mark.parametrize(
    "command, content, named",
    [
        pytest.param(command, *BAD_CORPORA[case], id=f"{command}-{case}")
        for command in ("stats", "train --train", "eval --pred", "kappa <b>")
        for case in BAD_CORPORA
    ]
    + [
        pytest.param(command, *BAD_TABLES[case], id=f"{command}-{case}")
        for command in ("align --src", "align --tgt", "train --embeddings")
        for case in BAD_TABLES
    ]
    # IOB1 tags parse, but stats counts BIO2 spans: name the sentence and
    # token, and the command that converts the file.
    + [
        pytest.param(
            "stats",
            "Rom B-LOC\n\nblev O\nElvis I-PER\n",
            "{path}: sentence 1 token 1: orphan-I (not BIO2; convert IOB1 input with xlner convert)",
            id="stats-iob1",
        ),
    ],
)
def test_malformed_input_is_one_error_line(capsys, tmp_path, sample, command, content, named):
    bad = tmp_path / "bad"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content, encoding="utf-8")
    good = sample
    if command.startswith("align"):
        good = tmp_path / "good.vec"
        good.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *COMMANDS[command](bad, good, out))
    assert code == 1
    assert stdout == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert named.format(path=bad) in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "option", ["dropout = 2", "batch_size = 0", "word_lstm_dim = 0", "max_epochs = -1", "patience = -1"]
)
@pytest.mark.parametrize("command", ["train", "experiment"])
def test_out_of_range_tagger_option_names_its_line(capsys, tmp_path, sample, command, option):
    config_path = tmp_path / "bad.conf"
    out = tmp_path / "out"
    if command == "train":
        config_path.write_text(f"max_epochs = 1\n{option}\n")
        argv = ["train", "--train", sample, "--dev", sample, "--out", out, "--config", config_path]
    else:
        config_path.write_text(f"regime = majority\ntagger.{option}\n")
        argv = ["experiment", "--config", config_path, "--out", out]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: line 2: {option.split(' = ')[0]} must be ")
    assert not out.exists()


# ------------------------------------------------------------------ baseline


def test_baseline_majority(capsys, tmp_path, sample):
    out_path = tmp_path / "pred.conll"
    code, _, _ = run(
        capsys,
        "baseline", "--method", "majority",
        "--train", sample, "--input", sample, "--out", out_path,
    )
    assert code == 0
    pred = parse_conll(out_path.read_text())
    assert len(pred) == 2


def test_baseline_tnt_with_model(capsys, tmp_path, sample):
    out_path = tmp_path / "pred.conll"
    model_path = tmp_path / "tnt.bin"
    code, _, _ = run(
        capsys,
        "baseline", "--method", "tnt",
        "--train", sample, "--input", sample,
        "--out", out_path, "--model-out", model_path,
    )
    assert code == 0
    assert model_path.exists()
    assert len(parse_conll(out_path.read_text())) == 2


# ---------------------------------------------------------------- experiment


def test_experiment_grid(capsys, tmp_path):
    train_rows = [
        [("Elvis", "B-PER"), ("sang", "O")],
        [("Rom", "B-LOC"), ("faldt", "O")],
    ] * 6
    dev_rows = [[("Elvis", "B-PER"), ("sang", "O")]] * 3
    (tmp_path / "da.train").write_text(write_conll(make_corpus(*train_rows)))
    (tmp_path / "da.dev").write_text(write_conll(make_corpus(*dev_rows)))
    config_path = tmp_path / "grid.conf"
    config_path.write_text(
        f"data_dir = {tmp_path}\n"
        "tgt_train_path = da.train\n"
        "tgt_dev_path = da.dev\n"
        "seeds = 1\n"
        "cell = majority:none:tiny\n"
        "cell = tnt_baseline:none:tiny\n"
    )
    results = tmp_path / "results"
    code, out, err = run(capsys, "experiment", "--config", config_path, "--out", results)
    assert code == 0
    assert (results / "matrix.txt").exists()
    assert (results / "matrix.json").exists()
    assert "TnT" in out  # rendered matrix on stdout
    payload = json.loads((results / "matrix.json").read_text())
    assert "majority/none/tiny" in payload


def test_experiment_seed_override(capsys, tmp_path):
    (tmp_path / "da.train").write_text(
        write_conll(make_corpus([("Elvis", "B-PER"), ("sang", "O")]))
    )
    (tmp_path / "da.dev").write_text(
        write_conll(make_corpus([("Elvis", "B-PER"), ("sang", "O")]))
    )
    config_path = tmp_path / "one.conf"
    config_path.write_text(
        f"data_dir = {tmp_path}\n"
        "tgt_train_path = da.train\n"
        "tgt_dev_path = da.dev\n"
        "regime = majority\n"
        "target_size = tiny\n"
        "seeds = 1, 2, 3\n"
    )
    results = tmp_path / "results"
    code, _, _ = run(
        capsys, "experiment", "--config", config_path, "--out", results, "--seed", 9
    )
    assert code == 0
    assert (results / "majority" / "none" / "tiny" / "9").exists()
    assert not (results / "majority" / "none" / "tiny" / "1").exists()


# ----------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["align", "--src", "a.vec"])
    assert exc.value.code == 2
