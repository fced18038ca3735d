import itertools
import math

import numpy as np
import pytest

from xlner.serialize import ContainerError, read_container, write_container
from xlner.tnt import (
    START,
    STOP,
    TNT_MAGIC,
    TntModel,
    estimate,
    load_model,
    save_model,
    tag_corpus,
    tnt_decode,
)

from conftest import drop_key, make_corpus


def sequence_logp(model, words, tags):
    """Independent scorer: log P(tags, words) under the smoothed HMM."""
    padded = [START, START, *tags, STOP]
    total = 0.0
    for t1, t2, t3 in zip(padded, padded[1:], padded[2:]):
        lp = model.transition_logp(t1, t2, t3)
        if lp == float("-inf"):
            return float("-inf")
        total += lp
    for word, tag in zip(words, tags):
        lp = model.emission_logp(word, tag)
        if lp == float("-inf"):
            return float("-inf")
        total += lp
    return total


def brute_force_decode(model, words):
    best, best_score = None, float("-inf")
    for tags in itertools.product(model.tags, repeat=len(words)):
        score = sequence_logp(model, words, tags)
        if score > best_score:
            best, best_score = tags, score
    return best, best_score


@pytest.fixture
def train3():
    # hand corpus used for the frozen deleted-interpolation weights below
    return make_corpus(
        [("en", "O"), ("by", "O"), ("Rom", "B-PER")],
        [("og", "O"), ("Elvis", "B-PER"), ("sang", "O")],
        [("det", "O"), ("var", "O"), ("alt", "O")],
    )


def test_lambda_simplex_everywhere():
    for corpus in (
        make_corpus([("Rom", "B-PER"), ("by", "O")]),
        make_corpus([("a", "O")] * 3, [("b", "O"), ("c", "O")]),
        make_corpus([("x", "B-LOC"), ("y", "I-LOC"), ("z", "O")]),
    ):
        model = estimate(corpus)
        l1, l2, l3 = model.lambdas
        assert min(l1, l2, l3) >= 0
        assert l1 + l2 + l3 == pytest.approx(1.0, abs=1e-12)


def test_hand_run_deleted_interpolation(train3):
    # Hand execution of the credit rule over the 9 trigram types of the
    # fixture (ties credit the lower order): lambda1 gets 7 counts,
    # lambda2 gets 5, lambda3 none; normalized over 12.
    model = estimate(train3)
    assert model.lambdas[0] == pytest.approx(7 / 12)
    assert model.lambdas[1] == pytest.approx(5 / 12)
    assert model.lambdas[2] == pytest.approx(0.0)


def test_smoothed_transitions_are_distributions(train3):
    model = estimate(train3)
    support = (*model.tags, STOP)
    contexts = [
        (START, START),
        (START, "O"),
        ("O", "O"),
        ("O", "B-PER"),
        ("B-PER", "O"),
        ("B-PER", "B-PER"),  # unseen context
        ("I-LOC", "I-MISC"),  # fully unseen tags as context
    ]
    for t1, t2 in contexts:
        total = sum(math.exp(model.transition_logp(t1, t2, t3)) for t3 in support)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_single_sentence_counts():
    model = estimate(make_corpus([("Rom", "B-PER"), ("by", "O")]))
    assert model.trigrams[(START, START, "B-PER")] == 1
    assert model.trigrams[(START, "B-PER", "O")] == 1
    assert model.trigrams[("B-PER", "O", STOP)] == 1
    assert sum(model.lambdas) == pytest.approx(1.0)


def test_overfit_oracle(train3):
    for sentence in train3:
        single = make_corpus(list(zip(sentence.texts, sentence.tags)))
        model = estimate(single)
        assert tnt_decode(model, sentence) == list(sentence.tags)


def test_exact_decode_matches_brute_force(train3):
    model = estimate(train3)
    for words in (["en", "Rom"], ["og", "Elvis", "sang"], ["det", "by", "Rom", "alt"]):
        decoded = tnt_decode(model, words)
        score = sequence_logp(model, words, decoded)
        _, best_score = brute_force_decode(model, words)
        assert score == pytest.approx(best_score, abs=1e-12)


def test_unknown_words_never_crash(train3):
    model = estimate(train3)
    tags = tnt_decode(model, ["Ukendtby", "xyzzy", "9999"])
    assert len(tags) == 3
    assert all(t in model.tags for t in tags)


def test_unknown_word_uses_suffix_distribution():
    # capitalized rare words are entities; suffix statistics should push
    # an unseen capitalized -sen word toward B-PER
    rows = []
    for name in ("Jensen", "Hansen", "Larsen", "Nielsen", "Olsen", "Poulsen"):
        rows.append([(name, "B-PER"), ("gik", "O"), ("hjem", "O")])
    for _ in range(6):
        rows.append([("manden", "O"), ("saa", "O"), ("huset", "O")])
    model = estimate(make_corpus(*rows))
    dist = model.suffix_model.tag_given_word("Madsen", model.tags)
    assert dist["B-PER"] > dist["O"]


def test_all_words_frequent_uniform_fallback():
    corpus = make_corpus(*([[("ja", "O"), ("tak", "O")]] * 12))
    model = estimate(corpus)
    assert not model.suffix_model.tag_probs  # no rare words at threshold 10
    dist = model.suffix_model.tag_given_word("ukendt", model.tags)
    assert dist == {t: pytest.approx(1.0 / len(model.tags)) for t in model.tags}
    assert tnt_decode(model, ["ukendt", "ja"])  # still decodes


def test_beam_never_beats_exact(train3):
    model = estimate(train3)
    words = ["det", "Elvis", "by", "sang"]
    exact = sequence_logp(model, words, tnt_decode(model, words))
    for beam in (1, 2, 3):
        beamed = sequence_logp(model, words, tnt_decode(model, words, beam=beam))
        assert beamed <= exact + 1e-12


def test_beam_validation():
    model = estimate(make_corpus([("a", "O")]))
    with pytest.raises(ValueError):
        tnt_decode(model, ["a"], beam=0)


def test_degenerate_single_tag():
    model = estimate(make_corpus([("a", "O"), ("b", "O")]))
    assert model.tags == ("O",)
    assert tnt_decode(model, ["a", "b", "c"]) == ["O", "O", "O"]


def test_tag_corpus_repairs_bio(train3):
    model = estimate(train3)
    out = tag_corpus(model, train3)
    from xlner.conll import validate_bio

    for sentence in out:
        assert validate_bio(sentence.tags) == []


def test_model_round_trip(tmp_path, train3):
    model = estimate(train3)
    save_model(model, tmp_path / "tnt.bin")
    loaded = load_model(tmp_path / "tnt.bin")
    assert loaded.tags == model.tags
    assert loaded.lambdas == pytest.approx(model.lambdas)
    words = ["det", "Elvis", "ukendt"]
    assert tnt_decode(loaded, words) == tnt_decode(model, words)
    assert loaded.transition_logp("O", "O", "B-PER") == pytest.approx(
        model.transition_logp("O", "O", "B-PER")
    )


def test_load_model_ignores_word_freq_of_older_files(tmp_path, train3):
    # A file from before word counts came from the emission table also
    # carries a word_freq header table; it loads and decodes the same.
    path = tmp_path / "tnt.bin"
    model = estimate(train3)
    save_model(model, path)
    header, tensors = read_container(path, TNT_MAGIC)
    word_freq = {w: sum(c.values()) for w, c in model.emissions.items()}
    header = {**header, "word_freq": word_freq}
    write_container(path, TNT_MAGIC, header, tensors)
    loaded = load_model(path)
    assert loaded == model
    for sentence in train3:
        assert tnt_decode(loaded, sentence) == tnt_decode(model, sentence)
    for words in (["det", "Elvis", "ukendt"], ["Ukendtby", "xyzzy", "9999"]):
        assert tnt_decode(loaded, words) == tnt_decode(model, words)


@pytest.mark.parametrize("key", ["tags", "emissions", "total_tokens", "suffix.theta"])
def test_load_model_rejects_missing_header_key(tmp_path, train3, key):
    path = tmp_path / "tnt.bin"
    save_model(estimate(train3), path)
    header, tensors = read_container(path, TNT_MAGIC)
    drop_key(header, key)
    write_container(path, TNT_MAGIC, header, tensors)
    with pytest.raises(ContainerError, match=f"lacks '{key.split('.')[-1]}'"):
        load_model(path)
