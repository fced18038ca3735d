import copy
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlner.conll import TAGS, validate_bio
from xlner.embeddings import EmbeddingTable
from xlner.serialize import FORMAT_VERSION, ContainerError, read_container, write_container
from xlner.tagger import (
    MODEL_MAGIC,
    Tagger,
    TaggerConfig,
    batch_gradients,
    build_vocab,
    constrained_transitions,
    encode_sentence,
    init_params,
    load_model,
    save_model,
    tag_corpus,
    train,
)

from conftest import make_corpus


SMALL = TaggerConfig(
    word_emb_dim=4,
    word_lstm_dim=3,
    char_emb_dim=3,
    char_lstm_dim=3,
    dropout=0.0,
    max_epochs=0,
)


@pytest.fixture
def corpus():
    return make_corpus(
        [("Rom", "B-LOC"), ("blev", "O"), ("ikke", "O"), (".", "O")],
        [("Elvis", "B-PER"), ("sang", "O"), ("Sun", "B-MISC"), ("Records", "I-MISC")],
    )


def small_tagger(corpus, config=SMALL, pretrained=None):
    vocab = build_vocab([corpus], pretrained)
    return Tagger(config, vocab, init_params(config, vocab, pretrained))


# --------------------------------------------------------------------- vocab


def test_vocab_counts(example_corpus):
    vocab = build_vocab([example_corpus])
    assert vocab.num_words == 16 + 1  # 16 surface forms + UNK
    assert vocab.num_tags == 9
    assert tuple(vocab.tags) == TAGS


def test_vocab_includes_embedding_covered_words(corpus):
    extra = make_corpus([("Aarhus", "O"), ("zzz", "O")])
    table = EmbeddingTable(4, {"aarhus": np.zeros(4)})
    vocab = build_vocab([corpus, extra], table)
    assert vocab.word_id("Aarhus") != vocab.words["<unk>"]
    assert vocab.word_id("zzz") == vocab.words["<unk>"]


def test_vocab_without_embeddings(corpus):
    extra = make_corpus([("Aarhus", "O")])
    vocab = build_vocab([corpus, extra])
    assert "Aarhus" not in vocab.words


# ---------------------------------------------------------------------- init


def test_init_deterministic(corpus):
    vocab = build_vocab([corpus])
    p1 = init_params(SMALL, vocab)
    p2 = init_params(SMALL, vocab)
    assert set(p1) == set(p2)
    for name in p1:
        assert np.array_equal(p1[name], p2[name]), name


def test_init_copies_pretrained_rows(corpus):
    vocab = build_vocab([corpus])
    vec = np.arange(4, dtype=float)
    table = EmbeddingTable(4, {"Rom": vec})
    params = init_params(SMALL, vocab, table)
    assert np.array_equal(params["word_emb"][vocab.words["Rom"]], vec)


def test_init_respects_uniform_bounds(corpus):
    vocab = build_vocab([corpus])
    params = init_params(SMALL, vocab)
    rows = params["word_emb"]
    limit = np.sqrt(3.0 / SMALL.word_emb_dim)
    assert np.all(np.abs(rows) <= limit)
    # uniform on [-limit, limit]: mean near 0, spread fills the interval
    assert abs(rows.mean()) < 0.2 * limit
    assert rows.max() > 0.8 * limit and rows.min() < -0.8 * limit


def test_init_rejects_dim_mismatch(corpus):
    vocab = build_vocab([corpus])
    with pytest.raises(ValueError):
        init_params(SMALL, vocab, EmbeddingTable(7, {"Rom": np.zeros(7)}))


# -------------------------------------------------------------------- encode


def test_emission_shape(corpus):
    tagger = small_tagger(corpus)
    for sentence in corpus:
        assert encode_sentence(tagger, sentence).shape == (len(sentence), 9)


def test_encode_deterministic_without_dropout(corpus):
    tagger = small_tagger(corpus)
    a = encode_sentence(tagger, corpus.sentences[0])
    b = encode_sentence(tagger, corpus.sentences[0])
    assert np.array_equal(a, b)


def test_encode_dropout_reproducible_with_fixed_stream(corpus):
    # Training dropout comes from the generator batch_gradients is given:
    # two generators with one seed give the same loss and gradients.
    config = TaggerConfig(**{**SMALL.__dict__, "dropout": 0.5})
    tagger = small_tagger(corpus, config)
    batch = list(corpus.sentences)
    loss_a, grads_a = batch_gradients(tagger, batch, rng=np.random.default_rng(3))
    loss_b, grads_b = batch_gradients(tagger, batch, rng=np.random.default_rng(3))
    assert loss_a == loss_b
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name]), name
    loss_c, _ = batch_gradients(tagger, batch, rng=np.random.default_rng(4))
    assert loss_c != loss_a  # the mask is drawn, not fixed


def reference_emissions(tagger, sentence):
    """Oracle: the BiLSTM-CRF emissions by a plain loop, one token and one
    time step at a time, with no padding or batching."""
    p = tagger.params

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def lstm(xs, layer, direction):
        wx, wh, b = (p[f"{layer}_{direction}_{n}"] for n in ("wx", "wh", "b"))
        hd = wh.shape[0]
        h, c, out = np.zeros(hd), np.zeros(hd), []
        for x in xs:
            z = x @ wx + h @ wh + b
            i, f, g, o = sigmoid(z[:hd]), sigmoid(z[hd : 2 * hd]), np.tanh(z[2 * hd : 3 * hd]), sigmoid(z[3 * hd :])
            c = f * c + i * g
            h = o * np.tanh(c)
            out.append(h)
        return out

    reps = []
    for token in sentence:
        chars = [p["char_emb"][tagger.vocab.char_id(ch)] for ch in token.text]
        word = p["word_emb"][tagger.vocab.word_id(token.text)]
        reps.append(np.concatenate([word, lstm(chars, "char", "fwd")[-1], lstm(chars[::-1], "char", "bwd")[-1]]))
    fwd, bwd = lstm(reps, "word", "fwd"), lstm(reps[::-1], "word", "bwd")[::-1]
    return np.array([np.concatenate([f, b]) @ p["proj_w"] + p["proj_b"] for f, b in zip(fwd, bwd)])


def test_emissions_match_reference_loop():
    corpus = make_corpus(
        [("I", "O"), ("Copenhagen", "B-LOC"), ("og", "O"), ("Rom", "B-LOC")],
        [("Elvis", "B-PER")],
    )
    tagger = small_tagger(corpus)
    for sentence in corpus:
        got = encode_sentence(tagger, sentence)
        assert np.allclose(got, reference_emissions(tagger, sentence), rtol=0.0, atol=1e-12)


def test_unused_vocab_rows_do_not_affect_emissions(corpus):
    extra = make_corpus([("Aarhus", "O")])
    table = EmbeddingTable(4, {"Aarhus": np.ones(4)})
    vocab = build_vocab([corpus, extra], table)
    params = init_params(SMALL, vocab, table)
    tagger = Tagger(SMALL, vocab, params)
    before = encode_sentence(tagger, corpus.sentences[0])
    params["word_emb"][vocab.words["Aarhus"]] = 99.0  # unrelated row
    after = encode_sentence(tagger, corpus.sentences[0])
    assert np.array_equal(before, after)


# ----------------------------------------------------------------- gradients


def test_gradients_match_finite_differences(corpus):
    tagger = small_tagger(corpus)
    batch = list(corpus.sentences)
    loss, grads = batch_gradients(tagger, batch)
    eps = 1e-5
    rng = np.random.default_rng(0)
    for name, arr in tagger.params.items():
        flat = arr.reshape(-1)
        picks = rng.choice(arr.size, size=min(5, arr.size), replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            hi, _ = batch_gradients(tagger, batch)
            flat[i] = orig - eps
            lo, _ = batch_gradients(tagger, batch)
            flat[i] = orig
            num = (hi - lo) / (2 * eps)
            ana = grads[name].reshape(-1)[i]
            assert abs(num - ana) <= max(1e-4 * abs(num), 1e-6), (name, i)


def test_gradients_match_finite_differences_with_dropout():
    # Tokens of unequal length exercise the padded char-BiLSTM; "Rom"
    # twice in one sentence exercises repeated word-row accumulation.
    corpus = make_corpus(
        [("Rom", "B-LOC"), ("og", "O"), ("Rom", "B-LOC"), ("Copenhagen", "B-LOC")],
        [("Elvis", "B-PER"), ("sang", "O"), ("i", "O"), ("Rom", "B-LOC")],
    )
    config = TaggerConfig(**{**SMALL.__dict__, "dropout": 0.5, "unk_word_dropout": True})
    tagger = small_tagger(corpus, config)
    vocab = tagger.vocab
    counts = {}
    for sentence in corpus:
        for token in sentence:
            counts[token.text] = counts.get(token.text, 0) + 1

    def unk_dropout_ids(sentence, rng):  # train()'s singleton-to-UNK rule
        return [
            vocab.words["<unk>"] if counts[t.text] == 1 and rng.random() < 0.5 else vocab.word_id(t.text)
            for t in sentence
        ]

    batch = list(corpus.sentences)

    def gradients():
        return batch_gradients(tagger, batch, rng=np.random.default_rng(4), word_id_fn=unk_dropout_ids)

    loss, grads = gradients()
    assert np.count_nonzero(grads["word_emb"][vocab.words["<unk>"]])  # some singleton was dropped
    eps = 1e-5
    rng = np.random.default_rng(0)
    for name, arr in tagger.params.items():
        flat = arr.reshape(-1)
        picks = list(rng.choice(arr.size, size=min(5, arr.size), replace=False))
        if name == "word_emb":
            width = arr.shape[1]
            picks += [vocab.words["Rom"] * width, vocab.words["<unk>"] * width + 1]
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            hi, _ = gradients()
            flat[i] = orig - eps
            lo, _ = gradients()
            flat[i] = orig
            num = (hi - lo) / (2 * eps)
            ana = grads[name].reshape(-1)[i]
            assert abs(num - ana) <= max(1e-4 * abs(num), 1e-6), (name, i)


def test_train_epoch_applies_batch_gradients():
    sentence = [("Rom", "B-LOC"), ("og", "O"), ("Rom", "B-LOC"), (".", "O")]
    corpus = make_corpus(sentence)
    dev = make_corpus([("Rom", "B-LOC")])
    extra = make_corpus([("Aarhus", "O")])
    table = EmbeddingTable(4, {"Aarhus": np.ones(4)})
    config = TaggerConfig(**{**SMALL.__dict__, "max_epochs": 1})
    vocab = build_vocab([corpus, dev, extra], table)
    initial = Tagger(config, vocab, init_params(config, vocab, table))
    _, grads = batch_gradients(initial, list(corpus.sentences))
    trained, _ = train(config, corpus, dev, initial=initial)
    for name, arr in initial.params.items():
        expected = arr - config.learning_rate * grads[name]
        assert np.allclose(trained.params[name], expected, rtol=0.0, atol=1e-12), name
    outside = [i for w, i in vocab.words.items() if w not in {"Rom", "og", "."}]
    assert len(outside) == 2  # <unk> and Aarhus
    assert np.array_equal(trained.params["word_emb"][outside], initial.params["word_emb"][outside])


def test_unused_word_rows_have_zero_gradient(corpus):
    extra = make_corpus([("Aarhus", "O")])
    table = EmbeddingTable(4, {"Aarhus": np.ones(4)})
    vocab = build_vocab([corpus, extra], table)
    tagger = Tagger(SMALL, vocab, init_params(SMALL, vocab, table))
    _, grads = batch_gradients(tagger, list(corpus.sentences))
    assert np.array_equal(grads["word_emb"][vocab.words["Aarhus"]], np.zeros(4))


def test_sgd_step_decreases_loss(corpus):
    tagger = small_tagger(corpus)
    batch = list(corpus.sentences)
    loss, grads = batch_gradients(tagger, batch)
    for name, grad in grads.items():
        tagger.params[name] -= 0.01 * grad
    after, _ = batch_gradients(tagger, batch)
    assert after < loss


# ------------------------------------------------------------------ training


def test_zero_epochs_returns_init(corpus):
    dev = make_corpus([("Rom", "B-LOC"), (".", "O")])
    vocab = build_vocab([corpus, dev])
    expected = init_params(SMALL, vocab, None)
    tagger, history = train(SMALL, corpus, dev)
    assert history.dev_f1 == []
    assert history.best_epoch is None
    assert not history.stopped_early
    for name in expected:
        assert np.array_equal(tagger.params[name], expected[name])


def test_training_deterministic(corpus):
    dev = make_corpus([("Rom", "B-LOC"), ("blev", "O")])
    config = TaggerConfig(**{**SMALL.__dict__, "max_epochs": 3, "dropout": 0.2})
    t1, h1 = train(config, corpus, dev)
    t2, h2 = train(config, corpus, dev)
    assert h1.dev_f1 == h2.dev_f1
    for name in t1.params:
        assert np.array_equal(t1.params[name], t2.params[name])


def test_continue_training_zero_epochs_is_identity(corpus):
    dev = make_corpus([("Rom", "B-LOC"), ("blev", "O")])
    config = TaggerConfig(**{**SMALL.__dict__, "max_epochs": 2})
    stage1, _ = train(config, corpus, dev)
    stage2, _ = train(SMALL, corpus, dev, initial=stage1)
    for name in stage1.params:
        assert np.array_equal(stage1.params[name], stage2.params[name])


def test_best_epoch_within_run(corpus):
    dev = make_corpus([("Rom", "B-LOC"), ("blev", "O")])
    config = TaggerConfig(**{**SMALL.__dict__, "max_epochs": 4, "patience": 2})
    _, history = train(config, corpus, dev)
    if history.best_epoch is not None:
        assert history.best_epoch <= len(history.dev_f1)


# ------------------------------------------------------------------ decoding


def test_tagging_deterministic_and_preserves_text(corpus):
    tagger = small_tagger(corpus)
    a = tag_corpus(tagger, corpus)
    b = tag_corpus(tagger, corpus)
    assert a == b
    for orig, tagged in zip(corpus, a):
        assert orig.texts == tagged.texts


def test_constrained_decode_is_bio2_valid():
    rng = np.random.default_rng(1)
    for trial in range(25):
        corpus = make_corpus(
            [(f"w{i}{trial}", "O") for i in range(int(rng.integers(1, 7)))]
        )
        config = TaggerConfig(**{**SMALL.__dict__, "seed": trial})
        tagger = small_tagger(corpus, config)
        # exaggerate transitions so unconstrained decoding would go wrong
        tagger.params["transitions"] = rng.standard_normal((11, 11)) * 5
        (tagged,) = tag_corpus(tagger, corpus)
        assert validate_bio(tagged.tags) == []


def _blocked_by_grammar(source, target):
    """Independent BIO2 predicate for one transition: an I-X may follow
    only B-X or I-X, never the start or stop state, O or another type."""
    if not target.startswith("I-"):
        return False
    if source in ("<start>", "<stop>", "O"):
        return True
    return source.split("-")[1] != target.split("-")[1]


def test_constrained_transitions_only_blocks_illegal():
    rng = np.random.default_rng(7)
    for tags in (list(TAGS), [TAGS[i] for i in rng.permutation(len(TAGS))]):
        k = len(tags)
        # spread around -1e4 so the clamp both lowers and keeps entries
        tr = rng.standard_normal((k + 2, k + 2)) * 1e4
        out = constrained_transitions(tr, tags)
        states = tags + ["<start>", "<stop>"]
        for i, source in enumerate(states):
            for j, target in enumerate(states):
                expected = min(tr[i, j], -1e4) if _blocked_by_grammar(source, target) else tr[i, j]
                assert out[i, j] == expected, (source, target)


# ------------------------------------------------------------- serialization


def test_model_round_trip(tmp_path, corpus):
    tagger = small_tagger(corpus)
    path = tmp_path / "model.bin"
    save_model(tagger, path)
    loaded = load_model(path)
    assert loaded.config == tagger.config
    assert loaded.vocab == tagger.vocab
    for name in tagger.params:
        assert np.array_equal(loaded.params[name], tagger.params[name])
    assert tag_corpus(loaded, corpus) == tag_corpus(tagger, corpus)


def test_model_rejects_version_mismatch(tmp_path, corpus):
    path = tmp_path / "model.bin"
    save_model(small_tagger(corpus), path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="version"):
        load_model(path)


def test_every_truncation_is_a_container_error(tmp_path, corpus):
    path = tmp_path / "model.bin"
    save_model(small_tagger(corpus), path)
    for end in reversed(range(path.stat().st_size)):
        os.truncate(path, end)
        with pytest.raises(ContainerError):
            read_container(path, MODEL_MAGIC)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


def _header_paths(value, prefix=()):
    """The key path of every value nested in a JSON header, the containers
    included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _header_paths(child, prefix + (key,))


def test_any_header_value_loads_or_is_a_container_error(tmp_path, corpus):
    path = tmp_path / "model.bin"
    save_model(small_tagger(corpus), path)
    header, tensors = read_container(path, MODEL_MAGIC)
    paths = list(_header_paths(header))

    @given(st.sampled_from(paths), JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def check(key_path, value):
        edited = copy.deepcopy(header)
        parent = edited
        for key in key_path[:-1]:
            parent = parent[key]
        parent[key_path[-1]] = value
        write_container(path, MODEL_MAGIC, edited, tensors)
        try:
            assert isinstance(load_model(path), Tagger)
        except ContainerError:
            pass

    check()


def test_model_rejects_wrong_magic(tmp_path, corpus):
    path = tmp_path / "model.bin"
    save_model(small_tagger(corpus), path)
    raw = bytearray(path.read_bytes())
    raw[0:8] = b"XXXXXXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="magic"):
        load_model(path)
