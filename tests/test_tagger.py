import copy
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlner import tagger as tagger_module
from xlner.conll import TAGS, Corpus, validate_bio
from xlner.serialize import FORMAT_VERSION, ContainerError, read_container, write_container
from xlner.tagger import (
    MODEL_MAGIC,
    Tagger,
    TaggerConfig,
    build_vocab,
    constrained_transitions,
    init_params,
    load_model,
    parse_tagger_config,
    save_model,
    tag_corpus,
    train,
)

from conftest import batch_gradients, make_corpus, table_from_dict


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
    table = table_from_dict(4, {"aarhus": np.zeros(4)})
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
    table = table_from_dict(4, {"Rom": vec})
    params = init_params(SMALL, vocab, table)
    assert np.array_equal(params["word_emb"][vocab.words["Rom"]], vec)


def test_init_pretrained_rows_equal_a_per_row_copy(corpus):
    # More vocabulary words than one gather block, found through each step
    # of the word-form chain (exact, lowercase, digits) or not at all.
    from xlner.embeddings import BLOCK_ROWS, word_form

    words = [f"{stem}{i}" for i in range(BLOCK_ROWS + 40) for stem in ("w", "Cap", "x")]
    extra = make_corpus([(w, "O") for w in words], [("Rom", "O"), ("19", "O")])
    rng = np.random.default_rng(4)
    forms = [f"w{i}" for i in range(BLOCK_ROWS + 40)] + [f"cap{i}" for i in range(0, BLOCK_ROWS + 40, 2)] + ["rom", "##"]
    table = table_from_dict(4, {form: rng.standard_normal(4) for form in forms})
    vocab = build_vocab([corpus, extra], table)
    want = init_params(SMALL, vocab)["word_emb"].copy()
    for word, idx in vocab.words.items():
        form = word_form(table.vectors, word) if word != "<unk>" else None
        if form is not None:
            want[idx] = table.vectors[form]
    assert init_params(SMALL, vocab, table)["word_emb"].tobytes() == want.tobytes()


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
        init_params(SMALL, vocab, table_from_dict(7, {"Rom": np.zeros(7)}))


# -------------------------------------------------------------------- encode


def test_emission_shape(corpus):
    tagger = small_tagger(corpus)
    emissions = encode_sentences(tagger, corpus.sentences)
    assert [e.shape for e in emissions] == [(len(sentence), 9) for sentence in corpus]


def test_encode_deterministic_without_dropout(corpus):
    tagger = small_tagger(corpus)
    a = encode_sentences(tagger, corpus.sentences)
    b = encode_sentences(tagger, corpus.sentences)
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x, y)


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


def encode_sentences(tagger, sentences):
    """Per-token unnormalized tag scores of each sentence, shape
    (len(sentence), num_tags), in the order given, with no dropout: the
    emissions tag_corpus decodes, batch by batch."""
    out: list = [None] * len(sentences)
    word_ids = [[tagger.vocab.word_id(text) for text in sentence.texts] for sentence in sentences]
    for batch, emissions, lengths, _ in tagger_module._emission_batches(tagger, sentences, word_ids):
        for i, rows, n in zip(batch, emissions, lengths):
            out[i] = rows[:n]
    return out


def reference_emissions(tagger, sentence):
    """Oracle: the BiLSTM-CRF emissions by a plain loop, one token and one
    time step at a time, with no padding or batching."""
    p = tagger.params

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def lstm(xs, layer, direction):
        wx, wh, b = (p[f"{layer}_{n}"][direction] for n in ("wx", "wh", "b"))
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
        reps.append(np.concatenate([word, lstm(chars, "char", 0)[-1], lstm(chars[::-1], "char", 1)[-1]]))
    fwd, bwd = lstm(reps, "word", 0), lstm(reps[::-1], "word", 1)[::-1]
    return np.array([np.concatenate([f, b]) @ p["proj_w"] + p["proj_b"] for f, b in zip(fwd, bwd)])


def test_emissions_match_reference_loop():
    corpus = make_corpus(
        [("I", "O"), ("Copenhagen", "B-LOC"), ("og", "O"), ("Rom", "B-LOC")],
        [("Elvis", "B-PER")],
    )
    tagger = small_tagger(corpus)
    for sentence, got in zip(corpus, encode_sentences(tagger, corpus.sentences), strict=True):
        assert np.allclose(got, reference_emissions(tagger, sentence), rtol=0.0, atol=1e-12)


def test_unused_vocab_rows_do_not_affect_emissions(corpus):
    extra = make_corpus([("Aarhus", "O")])
    table = table_from_dict(4, {"Aarhus": np.ones(4)})
    vocab = build_vocab([corpus, extra], table)
    params = init_params(SMALL, vocab, table)
    tagger = Tagger(SMALL, vocab, params)
    before = encode_sentences(tagger, corpus.sentences)
    params["word_emb"][vocab.words["Aarhus"]] = 99.0  # unrelated row
    after = encode_sentences(tagger, corpus.sentences)
    for x, y in zip(before, after, strict=True):
        assert np.array_equal(x, y)


# Training words use only these characters; the rest of the alphabet is
# outside the char vocabulary.
TRAIN_CHARS = "abcdefgh"
ALPHABET = TRAIN_CHARS + "xyzÆø1-"


def varied_corpora(seed):
    """A training corpus and a test corpus of 80 sentences, two of each
    length 1 to 40 in shuffled order, over words of 1 to 20 characters:
    a 30-word lexicon of training words, repeated across and within
    sentences, mixed with unseen words that map to UNK, some of them
    spelled with characters outside the char vocabulary."""
    rng = np.random.default_rng(seed)

    def spell(chars, length):
        return "".join(rng.choice(list(chars), length))

    lexicon = [spell(TRAIN_CHARS, n) for n in (1, 20, *rng.integers(1, 21, 28))]
    lengths = rng.permutation(np.repeat(np.arange(1, 41), 2))
    sentences = []
    for length in lengths:
        words = [
            spell(ALPHABET, int(rng.integers(1, 21))) if rng.random() < 0.2 else lexicon[rng.integers(len(lexicon))]
            for _ in range(length)
        ]
        sentences.append([(w, "O") for w in words])
    return make_corpus([(w, "O") for w in lexicon]), make_corpus(*sentences)


@pytest.mark.parametrize("budget", [1, 64, None])
def test_batched_emissions_match_per_sentence_forward(monkeypatch, budget):
    # Budget 1 puts every word and every sentence in a batch of its own; 64
    # makes batches of 3 to 64 words and 1 to 64 sentences; None keeps the
    # defaults, under which the words still fill more than two batches.
    if budget is not None:
        monkeypatch.setattr(tagger_module, "CHAR_BATCH_CHARS", budget)
        monkeypatch.setattr(tagger_module, "WORD_BATCH_TOKENS", budget)
    train_corpus, corpus = varied_corpora(0)
    tagger = small_tagger(train_corpus)
    assert any(ch not in tagger.vocab.chars for sentence in corpus for ch in "".join(sentence.texts))
    assert any(tagger.vocab.word_id(t.text) == 0 for sentence in corpus for t in sentence)
    word_lengths = sorted((len(w) for w in {t.text for sentence in corpus for t in sentence}), reverse=True)
    assert len(list(tagger_module._runs(np.array(word_lengths), tagger_module.CHAR_BATCH_CHARS))) > 2
    for sentence, got in zip(corpus, encode_sentences(tagger, corpus.sentences), strict=True):
        want = reference_emissions(tagger, sentence)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_long_token_pads_only_its_own_batch(monkeypatch):
    # 1,499 distinct short words and one 3,000-char token: the long token
    # runs in a char batch of its own, and every other char batch holds at
    # most CHAR_BATCH_CHARS padded chars, so the long token pads no other
    # word; each distinct word runs once. The word layer calls the same
    # kernel, so only char-layer calls (those reading char_emb) count.
    calls = []
    forward = tagger_module.lstm_forward

    def spy(emb, ids, lengths, *weights):
        if emb is tagger.params["char_emb"]:
            calls.append(ids.shape)
        return forward(emb, ids, lengths, *weights)

    monkeypatch.setattr(tagger_module, "lstm_forward", spy)
    rng = np.random.default_rng(5)
    words = list(dict.fromkeys("".join(rng.choice(list(ALPHABET), rng.integers(3, 9))) for _ in range(1600)))[:1500]
    sentences = [words[i : i + 30] for i in range(0, len(words), 30)]
    sentences[7][3] = "x" * 3000
    corpus = make_corpus(*[[(w, "O") for w in s] for s in sentences])
    tagger = small_tagger(make_corpus([(w, "O") for w in TRAIN_WORDS]))
    emissions = encode_sentences(tagger, corpus.sentences)
    assert sum(n for _, _, n in calls) == len({t.text for sentence in corpus for t in sentence}) == 1500
    assert calls[0] == (2, 3000, 1)
    assert all(steps * n <= tagger_module.CHAR_BATCH_CHARS for _, steps, n in calls[1:])
    for sentence, got in zip(corpus, emissions, strict=True):
        assert np.allclose(got, reference_emissions(tagger, sentence), rtol=0.0, atol=1e-12)


def test_every_kernel_call_reads_lengths_longest_first(monkeypatch):
    # lstm_forward runs step t on a prefix of the batch, which holds only
    # for sequences sorted longest first: every call from training and
    # from inference, char and word layer, gets non-increasing lengths.
    seen = []
    forward = tagger_module.lstm_forward

    def spy(emb, ids, lengths, *weights):
        seen.append(lengths.copy())
        return forward(emb, ids, lengths, *weights)

    monkeypatch.setattr(tagger_module, "lstm_forward", spy)
    train_corpus, corpus = varied_corpora(0)
    tagger = small_tagger(train_corpus)
    for run in (
        lambda: batch_gradients(tagger, corpus.sentences[:4], np.random.default_rng(0)),
        lambda: encode_sentences(tagger, corpus.sentences),
        lambda: tag_corpus(tagger, corpus),
    ):
        seen.clear()
        run()
        assert len(seen) > 2
        assert all(np.all(np.diff(lengths) <= 0) for lengths in seen)


def reference_viterbi(emissions, transitions):
    """Oracle decoder for one sentence, a loop over tags: the best path,
    ties going to the lowest tag index."""
    t_len, k = emissions.shape
    delta = [transitions[k, j] + emissions[0, j] for j in range(k)]
    back = []
    for t in range(1, t_len):
        prev = [max(range(k), key=lambda i: (delta[i] + transitions[i, j], -i)) for j in range(k)]
        delta = [delta[prev[j]] + transitions[prev[j], j] + emissions[t, j] for j in range(k)]
        back.append(prev)
    path = [max(range(k), key=lambda j: (delta[j] + transitions[j, k + 1], -j))]
    for prev in reversed(back):
        path.append(prev[path[-1]])
    return path[::-1]


TRAIN_WORDS = ("Rom", "blev", "ikke", ".", "Elvis", "sang", "Sun", "Records")
INFERENCE_WORDS = st.sampled_from(TRAIN_WORDS) | st.text(alphabet="RomØæ.xyz", min_size=1, max_size=20)


@given(st.lists(st.lists(INFERENCE_WORDS, min_size=1, max_size=40), max_size=12), st.integers(0, 2**32 - 1))
@example([], 0)
@example([["Rom"]], 0)
@example([["Elvis", "sang", "i", "Rom"]] * 5, 0)
@settings(max_examples=60, deadline=None)
def test_tag_corpus_matches_per_sentence_reference(sentences, seed):
    corpus = make_corpus(*[[(w, "O") for w in words] for words in sentences], language="da")
    tagger = small_tagger(make_corpus([(w, "O") for w in TRAIN_WORDS]), TaggerConfig(**{**SMALL.__dict__, "seed": seed}))
    # large transitions give the decode something to do
    tagger.params["transitions"] = np.random.default_rng(seed).standard_normal((11, 11)) * 3
    transitions = constrained_transitions(tagger.params["transitions"])
    tagged = tag_corpus(tagger, corpus)
    assert tagged.language == "da"
    assert len(tagged) == len(corpus)
    for sentence, out in zip(corpus, tagged):
        assert out.texts == sentence.texts  # corpus order
        emissions = reference_emissions(tagger, sentence)
        assert list(out.tags) == [TAGS[i] for i in reference_viterbi(emissions, transitions)]


def test_empty_corpus_tags_to_empty(corpus):
    tagger = small_tagger(corpus)
    assert encode_sentences(tagger, []) == []
    assert tag_corpus(tagger, Corpus((), "da")) == Corpus((), "da")


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


def test_minibatch_gradients_are_the_mean_of_sentence_gradients():
    # One generator drawn through a minibatch, or through its sentences one
    # at a time, gives the same UNK-dropout ids and masks, so the batched
    # forward and backward must give the mean of the one-sentence gradients.
    # "Rom" and "og" repeat within and across sentences, and the lengths
    # differ, so the word layer pads and each char gradient sums occurrences.
    corpus = make_corpus(
        [("Rom", "B-LOC"), ("og", "O"), ("Rom", "B-LOC"), ("Copenhagen", "B-LOC")],
        [("Elvis", "B-PER"), ("sang", "O"), ("i", "O"), ("Rom", "B-LOC"), ("og", "O"), ("Aarhus", "B-LOC")],
        [("og", "O")],
        [("Sun", "B-MISC"), ("Records", "I-MISC"), ("og", "O")],
    )
    config = TaggerConfig(**{**SMALL.__dict__, "dropout": 0.5, "unk_word_dropout": True})
    tagger = small_tagger(corpus, config)
    singletons = {w for w in tagger.vocab.words if sum(s.texts.count(w) for s in corpus) == 1}

    unk = tagger.vocab.words["<unk>"]

    def unk_dropout_ids(sentence, rng):  # train()'s singleton-to-UNK rule
        return [unk if t in singletons and rng.random() < 0.5 else tagger.vocab.word_id(t) for t in sentence.texts]

    batch = list(corpus.sentences)
    loss, grads = batch_gradients(tagger, batch, np.random.default_rng(4), unk_dropout_ids)
    rng = np.random.default_rng(4)
    parts = [batch_gradients(tagger, [sentence], rng, unk_dropout_ids) for sentence in batch]
    assert abs(loss - np.mean([part[0] for part in parts])) <= 1e-12
    for name, grad in grads.items():
        want = sum(part[1][name] for part in parts) / len(parts)
        assert np.allclose(grad, want, rtol=0.0, atol=1e-12), name
    assert np.count_nonzero(grads["word_emb"][unk])  # some singleton was dropped to UNK


@pytest.mark.parametrize("batch_size", [1, 4])
def test_training_step_runs_each_distinct_word_once(monkeypatch, batch_size):
    # Each SGD step runs the char-BiLSTM once per distinct word of its
    # sentences, however often the word repeats within or across them.
    steps, calls, char_emb = [], [], []
    forward, gradients = tagger_module.lstm_forward, tagger_module._gradients

    def spy_forward(emb, ids, lengths, *weights):
        if char_emb and emb is char_emb[0]:
            calls.append(len(lengths))
        return forward(emb, ids, lengths, *weights)

    def spy_gradients(tagger, batch, *args):
        calls.clear()
        char_emb[:] = [tagger.params["char_emb"]]
        out = gradients(tagger, batch, *args)
        steps.append((sum(calls), len({text for sentence in batch for text in sentence.texts})))
        return out

    monkeypatch.setattr(tagger_module, "lstm_forward", spy_forward)
    monkeypatch.setattr(tagger_module, "_gradients", spy_gradients)
    sentences = ["Rom og Rom og Rom", "og Elvis og", "Rom", "Sun Records Sun", "og Rom"]
    corpus = make_corpus(*[[(w, "O") for w in words.split()] for words in sentences])
    config = TaggerConfig(**{**SMALL.__dict__, "max_epochs": 1, "batch_size": batch_size, "dropout": 0.5})
    train(config, corpus, corpus)
    assert len(steps) == -(-len(sentences) // batch_size)
    assert all(ran == distinct for ran, distinct in steps), steps


def test_train_epoch_applies_batch_gradients():
    sentence = [("Rom", "B-LOC"), ("og", "O"), ("Rom", "B-LOC"), (".", "O")]
    corpus = make_corpus(sentence)
    dev = make_corpus([("Rom", "B-LOC")])
    extra = make_corpus([("Aarhus", "O")])
    table = table_from_dict(4, {"Aarhus": np.ones(4)})
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
    table = table_from_dict(4, {"Aarhus": np.ones(4)})
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


def train_with_full_copies(monkeypatch, config, train_corpus, dev, **kwargs):
    """train(), and a full copy of every tensor taken at the end of each
    epoch, as train() tags the dev set."""
    full_copies = []
    tag_dev = tagger_module.tag_corpus

    def copy_then_tag(tagger, sentences):  # train() tags dev once per epoch
        full_copies.append({n: a.copy() for n, a in tagger.params.items()})
        return tag_dev(tagger, sentences)

    monkeypatch.setattr(tagger_module, "tag_corpus", copy_then_tag)
    tagger, history = train(config, train_corpus, dev, **kwargs)
    assert len(full_copies) == len(history.dev_f1)
    return tagger, history, full_copies


def assert_best_epoch_restored(tagger, history, full_copies):
    """The returned parameters equal the best epoch's full copy, and
    word_emb changed after it, so the restore had rows to write back."""
    for name, want in full_copies[history.best_epoch - 1].items():
        assert np.array_equal(tagger.params[name], want), name
    assert not np.array_equal(tagger.params["word_emb"], full_copies[-1]["word_emb"])


BEST_EPOCH_DEV = make_corpus([("Rom", "B-LOC"), ("blev", "O")], [("Elvis", "B-PER"), ("sang", "O"), ("Sun", "B-MISC")])


def test_best_epoch_parameters_equal_a_full_copy(corpus, monkeypatch):
    # Dev F1 runs 0, 40, 0, 50, 80, 80, 66.7, 66.7: the best epoch (5) is
    # neither the first improvement nor the last epoch, and a non-improving
    # epoch falls between two snapshots. The restored parameters must equal
    # a full copy of every tensor taken at the end of that epoch.
    config = TaggerConfig(
        **{**SMALL.__dict__, "max_epochs": 8, "patience": 8, "learning_rate": 0.3, "seed": 1,
           "dropout": 0.25, "unk_word_dropout": True}
    )
    tagger, history, full_copies = train_with_full_copies(monkeypatch, config, corpus, BEST_EPOCH_DEV)
    assert [round(f, 1) for f in history.dev_f1] == [0.0, 40.0, 0.0, 50.0, 80.0, 80.0, 66.7, 66.7]
    assert history.best_epoch == 5
    assert_best_epoch_restored(tagger, history, full_copies)


def test_early_stop_restores_the_best_epoch(corpus, monkeypatch):
    # Dev F1 runs 0, 0, 40, 0, 50, 80, 40, 80: patience 2 runs out at epoch
    # 8, two epochs after the best (6).
    config = TaggerConfig(
        **{**SMALL.__dict__, "max_epochs": 12, "patience": 2, "learning_rate": 0.3, "seed": 3, "dropout": 0.25}
    )
    tagger, history, full_copies = train_with_full_copies(monkeypatch, config, corpus, BEST_EPOCH_DEV)
    assert [round(f, 1) for f in history.dev_f1] == [0.0, 0.0, 40.0, 0.0, 50.0, 80.0, 40.0, 80.0]
    assert history.stopped_early and history.best_epoch == 6
    assert_best_epoch_restored(tagger, history, full_copies)


def test_batched_steps_with_repeated_words_restore_the_best_epoch(monkeypatch):
    # Two sentences per step, and every step's sentences repeat words (Rom,
    # sang, Elvis), so a step's row ids repeat; the log must save each row
    # once, with its value from before the step. Dev F1 runs 0, 33.3, 33.3,
    # 66.7, 80, 66.7: the best epoch is 5 of 6.
    train_corpus = make_corpus(
        [("Elvis", "B-PER"), ("sang", "O"), ("i", "O"), ("Rom", "B-LOC")],
        [("Rom", "B-LOC"), ("sang", "O"), ("Elvis", "B-PER"), (".", "O")],
        [("Sun", "B-MISC"), ("Records", "I-MISC"), ("blev", "O"), ("Rom", "B-LOC")],
    )
    config = TaggerConfig(
        **{**SMALL.__dict__, "max_epochs": 6, "patience": 6, "batch_size": 2, "learning_rate": 0.5, "seed": 1,
           "dropout": 0.25}
    )
    tagger, history, full_copies = train_with_full_copies(monkeypatch, config, train_corpus, BEST_EPOCH_DEV)
    assert [round(f, 1) for f in history.dev_f1] == [0.0, 33.3, 33.3, 66.7, 80.0, 66.7]
    assert history.best_epoch == 5
    assert_best_epoch_restored(tagger, history, full_copies)


def test_continued_training_restores_the_best_epoch_and_leaves_initial_alone(corpus, monkeypatch):
    # train(initial=stage1) trains a copy: stage1's tensors keep their bits
    # while the continuation restores its own best epoch.
    stage1, _ = train(TaggerConfig(**{**SMALL.__dict__, "max_epochs": 2, "patience": 2, "dropout": 0.25}),
                      corpus, BEST_EPOCH_DEV)
    stage1_copy = {n: a.copy() for n, a in stage1.params.items()}
    config = TaggerConfig(
        **{**SMALL.__dict__, "max_epochs": 8, "patience": 8, "learning_rate": 0.3, "seed": 3, "dropout": 0.25}
    )
    tagger, history, full_copies = train_with_full_copies(
        monkeypatch, config, corpus, BEST_EPOCH_DEV, initial=stage1
    )
    assert 1 < history.best_epoch < len(history.dev_f1), history.dev_f1
    assert_best_epoch_restored(tagger, history, full_copies)
    for name, want in stage1_copy.items():
        assert np.array_equal(stage1.params[name], want), name
        assert stage1.params[name] is not tagger.params[name]


def test_training_holds_one_word_emb(corpus):
    # A 20,000-word vocabulary comes in through extra_vocab_corpora and a
    # pretrained table, as zero_shot pulls in the target dev set; SGD
    # touches the rows of a few training words. train()'s traced peak may
    # exceed what the returned tagger holds by less than one word_emb: a
    # full best-epoch copy of the table would be one on its own.
    words = [f"w{i:05d}" for i in range(20_000)]
    rng = np.random.default_rng(0)
    pretrained = table_from_dict(64, {w: rng.uniform(-0.1, 0.1, 64) for w in words})
    extra = make_corpus(*([(w, "O") for w in words[i : i + 20]] for i in range(0, len(words), 20)))
    config = TaggerConfig(**{**SMALL.__dict__, "word_emb_dim": 64, "max_epochs": 3, "patience": 3, "dropout": 0.25})
    tracemalloc.start()
    try:
        tagger, _ = train(config, corpus, BEST_EPOCH_DEV, pretrained=pretrained, extra_vocab_corpora=[extra])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    word_emb = tagger.params["word_emb"]
    assert tagger.vocab.num_words > 20_000
    assert peak - held < word_emb.nbytes, (peak - held, word_emb.nbytes)


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


def test_failed_write_keeps_the_old_model(tmp_path, corpus):
    # the write raises at its last tensor, not an array, after the header
    # and every other tensor went out: the old file keeps its bytes, and
    # no temporary file is left beside it
    path = tmp_path / "model.bin"
    save_model(small_tagger(corpus), path)
    old = path.read_bytes()
    header, tensors = read_container(path, MODEL_MAGIC)
    with pytest.raises(AttributeError):
        write_container(path, MODEL_MAGIC, header, {**tensors, "broken": None})
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["model.bin"]


@given(
    st.lists(st.lists(INFERENCE_WORDS, min_size=1, max_size=6), min_size=1, max_size=5),
    st.tuples(*[st.integers(1, 4)] * 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_save_load_round_trip_property(tmp_path_factory, sentences, dims, seed):
    corpus = make_corpus(*[[(w, "O") for w in words] for words in sentences])
    config = TaggerConfig(**dict(zip(("word_emb_dim", "word_lstm_dim", "char_emb_dim", "char_lstm_dim"), dims)), seed=seed)
    tagger = small_tagger(corpus, config)
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(tagger, path)
    loaded = load_model(path)
    assert loaded.config == tagger.config
    assert loaded.vocab == tagger.vocab
    assert list(loaded.params) == list(tagger.params)
    for name, arr in tagger.params.items():
        assert loaded.params[name].dtype == arr.dtype
        assert loaded.params[name].tobytes() == arr.tobytes(), name  # bit-equal, -0.0 included
    assert tag_corpus(loaded, corpus) == tag_corpus(tagger, corpus)


def structural_ranges(raw: bytes) -> list[tuple[str, int, int]]:
    """(field, start, end) of every byte range of a container that is not
    tensor data, found by walking the documented layout."""
    ranges = [("magic", 0, 8), ("version", 8, 12), ("header length", 12, 16)]
    (header_len,) = struct.unpack_from("<I", raw, 12)
    ranges.append(("header", 16, 16 + header_len))
    at = 16 + header_len
    ranges.append(("tensor count", at, at + 4))
    (count,) = struct.unpack_from("<I", raw, at)
    at += 4
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, at)
        ranges += [("name length", at, at + 4), ("name", at + 4, at + 4 + name_len)]
        at += 4 + name_len
        (ndim,) = struct.unpack_from("<I", raw, at)
        ranges += [("rank", at, at + 4), ("shape", at + 4, at + 4 + 8 * ndim)]
        shape = struct.unpack_from(f"<{ndim}Q", raw, at + 4)
        at += 4 + 8 * ndim + 8 * int(np.prod(shape))
    assert at == len(raw)
    return [r for r in ranges if r[2] > r[1]]


def test_structural_corruption_is_a_container_error(tmp_path, corpus):
    path = tmp_path / "model.bin"
    save_model(small_tagger(corpus), path)
    raw = path.read_bytes()
    ranges = structural_ranges(raw)
    # Changing any of these always breaks the file; a changed header or
    # tensor name byte may still spell a valid model.
    always_bad = {"magic", "version", "header length", "tensor count", "name length", "rank", "shape"}

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def check(data):
        field, start, end = data.draw(st.sampled_from(ranges))
        at = data.draw(st.integers(start, end - 1))
        patch = data.draw(st.binary(min_size=1, max_size=min(8, end - at)))
        corrupt = raw[:at] + patch + raw[at + len(patch) :]
        path.write_bytes(corrupt)
        try:
            load_model(path)
        except ContainerError:
            return
        assert field not in always_bad or corrupt == raw, field

    check()


@pytest.mark.parametrize(
    "shape_bytes", [struct.pack("<2Q", 0, 2**63), struct.pack("<2Q", 2**64 - 1, 0)], ids=["zero-huge", "huge-zero"]
)
def test_impossible_tensor_shape_is_a_container_error(tmp_path, shape_bytes):
    # The shapes hold no data, so the size check passes; numpy rejects them.
    path = tmp_path / "bad.bin"
    write_container(path, MODEL_MAGIC, {}, {"t": np.zeros((0, 1))})
    raw = path.read_bytes()
    path.write_bytes(raw[: -len(shape_bytes)] + shape_bytes)
    with pytest.raises(ContainerError, match="'t'"):
        read_container(path, MODEL_MAGIC)


def test_file_cut_after_fstat_is_a_container_error(tmp_path, corpus, monkeypatch):
    # fstat still reports the full size, so every size check before a read
    # passes; the count each read returns must catch the cut.
    path = tmp_path / "model.bin"
    save_model(small_tagger(corpus), path)
    full = path.stat().st_size
    real_fstat = os.fstat

    def stale_fstat(fd):
        fields = list(real_fstat(fd))
        fields[6] = full  # st_size
        return os.stat_result(fields)

    monkeypatch.setattr(os, "fstat", stale_fstat)
    for end in reversed(range(full)):
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


def test_tagger_config_hash_starts_a_comment_only_at_a_line_start_or_after_whitespace():
    text = "# a comment line\nmax_epochs = 3 # the epochs\n  #indented comment\nbatch_size = 4\t#tab\n"
    config = parse_tagger_config(text, seed=1)
    assert (config.max_epochs, config.batch_size) == (3, 4)
    # a `#` inside a value is part of it, so the value is refused, not cut to 3
    with pytest.raises(ValueError, match="^line 2: .*'3#4'"):
        parse_tagger_config("seed = 2\nmax_epochs = 3#4\n", seed=1)
