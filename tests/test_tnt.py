import itertools
import math
from collections import Counter, defaultdict
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlner import tnt
from xlner.conll import Corpus, Sentence, repair_bio, write_conll
from xlner.serialize import ContainerError, read_container, require_keys, write_container
from xlner.tnt import (
    MAX_SUFFIX_LEN,
    RARE_THRESHOLD,
    START,
    STOP,
    TNT_MAGIC,
    SuffixModel,
    TntModel,
    estimate,
    save_model,
    tag_corpus,
)

from conftest import drop_key, make_corpus

NEG_INF = float("-inf")


def tnt_decode(model, sentence):
    """The best tags of one sentence, a Sentence or a list of words, by
    tag_corpus's exact Viterbi, before any BIO2 repair."""
    words = sentence.texts if isinstance(sentence, Sentence) else list(sentence)
    if not words:
        return []
    ((_, paths),) = tnt._viterbi_batches(model, [words])
    return [model.tags[t] for t in paths[0]]


def emission_row(model, word):
    """log P(word | t) for each tag, the word's own emission row: a known
    word's from emission_logps, an unknown word's by Bayes inversion
    (suffix_logps) of the referee's P(t | word), never through the rows
    tag_corpus shares between unknown words."""
    if word in model.emissions:
        return model.emission_logps(word)
    return model.suffix_logps(reference_tag_given_word(model, word))


def emission_logp(model, word, tag):
    """log P(word | tag), one entry of the word's own emission row: the
    referees below score every word on its own."""
    return emission_row(model, word)[model.tags.index(tag)]


def suffix_dist(model, word):
    """P(t | word) of an unknown word as tag_corpus computes it."""
    suffix_model = model.suffix_model
    return suffix_model.normalized(suffix_model.suffix_chain(word, model.tags)[1], model.tags)


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
        lp = emission_logp(model, word, tag)
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


def reference_decode(model, sentence):
    """The decoder's referee: Viterbi over a dict of (previous tag, current
    tag) states, one transition and emission lookup per candidate. Ties go
    to the first candidate in dict order."""
    words = sentence.texts if isinstance(sentence, Sentence) else list(sentence)
    if not words:
        return []

    # state: (t_prev, t_cur) -> (score, backpointer state)
    states: dict[tuple[str, str], tuple[float, Optional[tuple[str, str]]]] = {}
    for tag in model.tags:
        em = emission_logp(model, words[0], tag)
        tr = model.transition_logp(START, START, tag)
        if em > NEG_INF and tr > NEG_INF:
            states[(START, tag)] = (em + tr, None)
    if not states:  # every tag pruned; fall back to uniform emissions
        states = {
            (START, tag): (model.transition_logp(START, START, tag), None)
            for tag in model.tags
        }
    back: list[dict[tuple[str, str], tuple[str, str]]] = []

    for word in words[1:]:
        nxt: dict[tuple[str, str], tuple[float, tuple[str, str]]] = {}
        for tag in model.tags:
            em = emission_logp(model, word, tag)
            if em == NEG_INF:
                continue
            for (t1, t2), (score, _) in states.items():
                tr = model.transition_logp(t1, t2, tag)
                if tr == NEG_INF:
                    continue
                cand = score + tr + em
                key = (t2, tag)
                if key not in nxt or cand > nxt[key][0]:
                    nxt[key] = (cand, (t1, t2))
        if not nxt:  # all paths pruned; keep best state and force O-ish continue
            best_state = max(states, key=lambda s: states[s][0])
            for tag in model.tags:
                nxt[(best_state[1], tag)] = (states[best_state][0], best_state)
        back.append({k: v[1] for k, v in nxt.items()})
        states = {k: (v[0], v[1]) for k, v in nxt.items()}

    # close with the stop transition
    def final_score(state):
        t1, t2 = state
        tr = model.transition_logp(t1, t2, STOP)
        return states[state][0] + (tr if tr > NEG_INF else -1e9)

    best = max(sorted(states), key=final_score)
    path = [best]
    for pointers in reversed(back):
        path.append(pointers[path[-1]])
    path.reverse()
    return [cur for _, cur in path]


def suffix_key(model, word):
    """The suffix key's referee, a linear walk: (capitalized, longest
    suffix whose every shorter suffix is in the capitalization's table)."""
    capitalized = word[:1].isupper()
    table = model.suffix_model.suffix_counts.get(capitalized) or {}
    matched = ""
    for length in range(1, min(len(word), MAX_SUFFIX_LEN) + 1):
        suffix = word[-length:]
        if suffix not in table:
            break
        matched = suffix
    return capitalized, matched


def reference_tag_given_word(model, word):
    """P(t | word) by successive abstraction over the suffixes of the
    referee's key, one step per suffix, without any memo."""
    suffix_model, tags = model.suffix_model, model.tags
    if not suffix_model.tag_probs:
        return {t: 1.0 / len(tags) for t in tags}
    capitalized, matched = suffix_key(model, word)
    dist = {t: suffix_model.tag_probs.get(t, 0.0) for t in tags}
    for length in range(1, len(matched) + 1):
        dist = suffix_model.abstraction_step(suffix_model.suffix_counts[capitalized][matched[-length:]], dist)
    norm = sum(dist.values())
    if norm <= 0.0:
        return {t: 1.0 / len(tags) for t in tags}
    return {t: p / norm for t, p in dist.items()}


def reference_estimate(train):
    """The estimator's referee: one Counter increment per n-gram and per
    token, sentence by sentence, and per suffix of each rare word's tag."""
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    trigrams: Counter = Counter()
    emissions: dict[str, Counter] = defaultdict(Counter)
    total = 0
    for sentence in train:
        tags = [START, START, *sentence.tags, STOP]
        for tag in tags[2:]:
            unigrams[tag] += 1
            total += 1
        for a, b in zip(tags[1:], tags[2:]):
            bigrams[(a, b)] += 1
        for a, b, c in zip(tags, tags[1:], tags[2:]):
            trigrams[(a, b, c)] += 1
        bigrams[(START, START)] += 1
        unigrams[START] += 1
        for token in sentence:
            emissions[token.text][token.tag] += 1

    tag_set = tuple(sorted(t for t in unigrams if t not in (START, STOP)))
    rare_totals: Counter = Counter()
    suffix_counts: dict[bool, dict[str, Counter]] = {True: {}, False: {}}
    n_rare = 0
    for word, tag_counts in emissions.items():
        if sum(tag_counts.values()) >= RARE_THRESHOLD:
            continue
        table = suffix_counts[word[:1].isupper()]
        for tag, count in tag_counts.items():
            rare_totals[tag] += count
            n_rare += count
            for length in range(1, min(len(word), MAX_SUFFIX_LEN) + 1):
                table.setdefault(word[-length:], Counter())[tag] += count
    if n_rare:
        tag_probs = {t: c / n_rare for t, c in rare_totals.items()}
        mean = sum(tag_probs.get(t, 0.0) for t in tag_set) / len(tag_set)
        if len(tag_set) > 1:
            theta = sum((tag_probs.get(t, 0.0) - mean) ** 2 for t in tag_set) / (len(tag_set) - 1)
        else:
            theta = 0.0
        theta = max(theta, 1e-10)
    else:
        tag_probs, theta = {}, 1e-10
    return TntModel(
        tags=tag_set,
        unigrams=unigrams,
        bigrams=bigrams,
        trigrams=trigrams,
        lambdas=tnt._deleted_interpolation(unigrams, bigrams, trigrams, total),
        emissions=dict(emissions),
        suffix_model=SuffixModel(tag_probs, theta, suffix_counts),
        total_tokens=total,
    )


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
    dist = suffix_dist(model, "Madsen")
    assert dist["B-PER"] > dist["O"]


def test_all_words_frequent_uniform_fallback():
    corpus = make_corpus(*([[("ja", "O"), ("tak", "O")]] * 12))
    model = estimate(corpus)
    assert not model.suffix_model.tag_probs  # no rare words at threshold 10
    dist = suffix_dist(model, "ukendt")
    assert dist == {t: pytest.approx(1.0 / len(model.tags)) for t in model.tags}
    assert tnt_decode(model, ["ukendt", "ja"])  # still decodes


TNT_TAGS = ("B-LOC", "B-PER", "I-PER", "O")
KNOWN = ("a", "ab", "Bb", "c")
# "b" and "Bb" suffixes are known; "zz" shares none; "xb" and "yb" share a
# matched suffix, so tag_corpus gives them one emission row; the last is
# longer than MAX_SUFFIX_LEN
UNKNOWN = ("xb", "yb", "Qb", "zz", "q" * tnt.MAX_SUFFIX_LEN + "ab")


@st.composite
def tnt_cases(draw):
    """A training corpus of a few sentences over few words and tags,
    repeated up to three times, and sentences of mixed lengths to tag.

    Small integer counts make exact score ties; repeats push deleted
    interpolation to lambda1 = 0, so unseen transitions are -inf and a
    word can have no admissible tag at the first or a later position."""
    tags = draw(st.lists(st.sampled_from(TNT_TAGS), min_size=1, max_size=4, unique=True))
    token = st.tuples(st.sampled_from(KNOWN), st.sampled_from(tags))
    rows = draw(st.lists(st.lists(token, min_size=1, max_size=4), min_size=1, max_size=4))
    train = make_corpus(*(rows * draw(st.integers(1, 3))))
    texts = draw(st.lists(st.lists(st.sampled_from(KNOWN + UNKNOWN), min_size=1, max_size=5), min_size=1, max_size=6))
    return train, make_corpus(*[[(w, "O") for w in words] for words in texts])


def _case(train_rows, texts):
    return make_corpus(*train_rows), make_corpus(*[[(w, "O") for w in words] for words in texts])


@settings(max_examples=400, deadline=None)
@given(tnt_cases())
# lambda1 = 0; "c" (only ever I-PER, never first) has no admissible tag at
# the first position, and after "a" none at the second
@example(_case([[("a", "O"), ("c", "I-PER")]] * 2, [["c", "a"], ["a", "a", "c"], ["c"]]))
# one tag
@example(_case([[("a", "O"), ("ab", "O")]], [["a", "zz", "ab"], ["Bb"]]))
def test_tag_corpus_matches_reference_decoder(case):
    train, corpus = case
    model = estimate(train)
    want = [reference_decode(model, sentence) for sentence in corpus]
    assert [tnt_decode(model, sentence) for sentence in corpus] == want
    repaired = Corpus(tuple(s.with_tags(repair_bio(tags)[0]) for s, tags in zip(corpus, want)), corpus.language)
    assert write_conll(tag_corpus(model, corpus)) == write_conll(repaired)


@st.composite
def tagged_corpora(draw):
    """A training corpus whose words, capitalized or not and some longer
    than MAX_SUFFIX_LEN, are each seen 1 to 12 times, so on both sides of
    RARE_THRESHOLD, under mixed tags, in sentences of 1 to 12 tokens."""
    words = draw(st.lists(st.text("aBe", min_size=1, max_size=MAX_SUFFIX_LEN + 3), min_size=1, max_size=6, unique=True))
    tokens = []
    for word in words:
        tokens += [(word, draw(st.sampled_from(TNT_TAGS))) for _ in range(draw(st.integers(1, 12)))]
    tokens = draw(st.permutations(tokens))
    sentences = []
    while tokens:
        length = draw(st.integers(1, 12))
        sentences.append(tokens[:length])
        tokens = tokens[length:]
    return make_corpus(*sentences)


@settings(max_examples=200, deadline=None)
@given(tagged_corpora())
@example(
    make_corpus(
        *[[("Hansen", "B-PER"), ("gik", "O"), ("q" * 12 + "sen", "B-LOC")]] * 9,
        *[[("gik", "O"), ("Olsen", "B-LOC"), ("ud", "I-PER")]] * 3,
        [("Ud", "O")],
    )
)
def test_estimate_writes_the_reference_estimates_bytes(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("estimate")
    save_model(estimate(corpus), path / "fast.bin")
    save_model(reference_estimate(corpus), path / "reference.bin")
    assert (path / "fast.bin").read_bytes() == (path / "reference.bin").read_bytes()


@pytest.mark.parametrize("budget", [1, 250])
def test_tag_corpus_splits_length_groups_across_batches(monkeypatch, train3, budget):
    # 21 sentences each of lengths 5, 7 and 9; with two tags a budget of 250
    # decodes them 8, 6 and 5 at a time, so each group ends in a part batch
    model = estimate(train3)
    words = ("en", "by", "Rom", "og", "Elvis", "sang", "det", "var", "alt", "Ukendt", "xyzzy")
    rows = [[(words[(7 * i + 3 * j) % len(words)], "O") for j in range((5, 7, 9)[i % 3])] for i in range(63)]
    corpus = make_corpus(*rows)
    default = write_conll(tag_corpus(model, corpus))
    single = [s.with_tags(repair_bio(tnt_decode(model, s))[0]) for s in corpus]
    assert default == write_conll(Corpus(tuple(single), corpus.language))

    lengths = []  # the sentence length of each decoded batch
    viterbi = tnt._viterbi

    def recording_viterbi(em, tables):
        lengths.append(len(em))
        return viterbi(em, tables)

    monkeypatch.setattr(tnt, "TNT_BATCH_VALUES", budget)
    monkeypatch.setattr(tnt, "_viterbi", recording_viterbi)
    assert write_conll(tag_corpus(model, corpus)) == default
    assert Counter(lengths) == ({5: 21, 7: 21, 9: 21} if budget == 1 else {5: 3, 7: 4, 9: 5})


def _built_rows(monkeypatch, model, sentences):
    """(words, emission rows) of every sentence as _viterbi_batches hands
    them to the decoder."""
    out = []

    def recording_viterbi(em, tables):
        out.append(em)
        return np.zeros((em.shape[2], em.shape[0]), dtype=np.intp)

    monkeypatch.setattr(tnt, "_viterbi", recording_viterbi)
    for batch, _ in tnt._viterbi_batches(model, sentences):
        for j, i in enumerate(batch):
            yield sentences[i], out[-1][:, :, j]


SUFFIX_TRAIN = make_corpus(
    [("Hansen", "B-PER"), ("gik", "O"), ("hjem", "O")],
    [("Olsen", "B-LOC"), ("manden", "O"), ("huset", "O")],
)


@pytest.mark.parametrize(
    "train", [SUFFIX_TRAIN, make_corpus(*([[("ja", "O"), ("tak", "B-PER")]] * 12))], ids=["rare", "uniform"]
)
def test_shared_rows_equal_each_words_own_row(monkeypatch, train):
    # suffix keys: Jensen's and Karlsen's differ only in the first letter
    # of the matched suffix, Jen's and jen's only in capitalization, and
    # the other words share keys with these or with each other. The keys'
    # chains share suffixes: Jensen's, Karlsen's and Svansen's run through
    # (True, "sen"), landen's and hunden's through (False, "nden"), and
    # Jen's and jen's through "en" under each capitalization.
    model = estimate(train)
    unknown = ["Jensen", "Karlsen", "Jen", "jen", "Tensen", "Ensen", "Svansen", "landen", "hunden", "xen",
               "q" * 12 + "sen", "zz", "Z", "7"]
    sentences = [unknown[i : i + 3] for i in range(len(unknown))] + [["Hansen", "gik", "jen"], ["ja", "Jen"]]

    # one tag_corpus call abstracts each (capitalization, suffix) of the
    # keys' chains once
    where = {id(counts): (cap, suffix) for cap, table in model.suffix_model.suffix_counts.items()
             for suffix, counts in table.items()}
    steps = []
    step = SuffixModel.abstraction_step

    def counting_step(self, counts, dist):
        steps.append(where[id(counts)])
        return step(self, counts, dist)

    monkeypatch.setattr(SuffixModel, "abstraction_step", counting_step)
    tag_corpus(model, make_corpus(*[[(w, "O") for w in words] for words in sentences]))
    abstracted = Counter(steps)
    keys = {suffix_key(model, w) for words in sentences for w in words if w not in model.emissions}
    assert abstracted == Counter({(cap, suffix[-n:]) for cap, suffix in keys for n in range(1, len(suffix) + 1)})

    seen = 0
    for words, rows in _built_rows(monkeypatch, model, sentences):
        assert np.array_equal(rows, [emission_row(model, w) for w in words])
        seen += 1
    assert seen == len(sentences)
    if train is SUFFIX_TRAIN:
        keys = [suffix_key(model, w) for w in unknown]
        assert keys[:4] == [(True, "nsen"), (True, "lsen"), (True, "en"), (False, "en")]
        assert len(set(keys)) == 9
        assert sum(abstracted.values()) == 11 < sum(len(suffix) for _, suffix in set(keys))
        assert emission_row(model, "Jen") != emission_row(model, "jen")
        assert emission_row(model, "Jensen") != emission_row(model, "Karlsen")


@settings(max_examples=200, deadline=None)
@given(tagged_corpora(), st.lists(st.text("aBeq", min_size=1, max_size=MAX_SUFFIX_LEN + 3), min_size=1, max_size=8))
def test_suffix_chain_matches_referees(corpus, words):
    model = estimate(corpus)
    memo: dict = {}
    for word in words:
        for shared in (memo, None):
            key, dist = model.suffix_model.suffix_chain(word, model.tags, shared)
            assert key == suffix_key(model, word)
            assert model.suffix_model.normalized(dist, model.tags) == reference_tag_given_word(model, word)


class CountingTable(dict):
    """A suffix table that records every suffix looked up in it."""

    def __init__(self, table, capitalized, lookups):
        super().__init__(table)
        self.capitalized, self.lookups = capitalized, lookups

    def get(self, suffix, default=None):
        self.lookups.append((self.capitalized, suffix))
        return super().get(suffix, default)

    def __contains__(self, suffix):
        self.lookups.append((self.capitalized, suffix))
        return super().__contains__(suffix)

    def __getitem__(self, suffix):
        self.lookups.append((self.capitalized, suffix))
        return super().__getitem__(suffix)


def test_tag_corpus_looks_up_each_unknown_words_suffixes_once():
    # one linear walk per distinct unknown word looks each suffix up at
    # most once, the first missing one included; a second walk over a new
    # key's chain, or over a repeated word, would look its suffixes up again
    model = estimate(SUFFIX_TRAIN)
    sentences = [["Jensen", "Karlsen", "Jen", "jen"], ["Tensen", "landen", "hunden", "Jensen"], ["zz", "gik", "Hansen"]]
    one_walk = Counter()
    for word in dict.fromkeys(w for words in sentences for w in words if w not in model.emissions):
        capitalized, matched = suffix_key(model, word)
        walked = min(len(word), MAX_SUFFIX_LEN, len(matched) + 1)
        one_walk.update((capitalized, word[-n:]) for n in range(1, walked + 1))
    lookups: list = []
    model.suffix_model.suffix_counts = {
        cap: CountingTable(table, cap, lookups) for cap, table in model.suffix_model.suffix_counts.items()
    }
    tag_corpus(model, make_corpus(*[[(w, "O") for w in words] for words in sentences]))
    assert lookups and not Counter(lookups) - one_walk
    # the memo answers the suffixes that an earlier word's walk found
    assert len(lookups) < one_walk.total()


def test_tag_corpus_repairs_only_paths_with_inside_tags(monkeypatch):
    # the model knows I-PER, and of the decoded paths some hold a valid
    # I-PER, some need a repair and some hold no I- tag at all
    train = make_corpus(
        [("Rom", "B-PER"), ("Hansen", "I-PER"), ("by", "O")],
        [("by", "O"), ("Rom", "B-PER")],
        [("Hansen", "I-PER"), ("by", "O")],
    )
    model = estimate(train)
    texts = (["Rom", "Hansen", "by"], ["by", "by"], ["Rom"], ["Hansen"], ["by", "Hansen"], ["by", "Rom", "by"])
    corpus = make_corpus(*[[(w, "O") for w in words] for words in texts])
    decoded = [reference_decode(model, sentence) for sentence in corpus]
    inside = [any(tag.startswith("I-") for tag in tags) for tags in decoded]
    fixes = [repair_bio(tags)[1] for tags in decoded]
    assert not all(inside)
    assert any(i and not n for i, n in zip(inside, fixes)) and any(fixes)
    repaired = []

    def recording_repair(tags):
        repaired.append(list(tags))
        return repair_bio(tags)

    monkeypatch.setattr(tnt, "repair_bio", recording_repair)
    want = Corpus(tuple(s.with_tags(repair_bio(tags)[0]) for s, tags in zip(corpus, decoded)))
    assert tag_corpus(model, corpus) == want
    assert sorted(repaired) == sorted(tags for tags, i in zip(decoded, inside) if i)


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


HEADER_KEYS = ("tags", "unigrams", "bigrams", "trigrams", "lambdas", "emissions", "suffix", "total_tokens")


def load_model(path) -> TntModel:
    """Referee of tnt.save_model: the model a TnT file holds, read back;
    header keys beyond the ones save_model writes (older files also carry a
    `word_freq` table) are ignored."""
    header, _ = read_container(path, TNT_MAGIC)
    require_keys(header, HEADER_KEYS, path)
    require_keys(header["suffix"], ("tag_probs", "theta", "counts"), path, "header suffix")
    return TntModel(
        tags=tuple(header["tags"]),
        unigrams=Counter(header["unigrams"]),
        bigrams=Counter({tuple(k.split("\t")): v for k, v in header["bigrams"].items()}),
        trigrams=Counter({tuple(k.split("\t")): v for k, v in header["trigrams"].items()}),
        lambdas=tuple(header["lambdas"]),
        emissions=header["emissions"],
        suffix_model=SuffixModel(
            header["suffix"]["tag_probs"],
            header["suffix"]["theta"],
            {cap == "True": table for cap, table in header["suffix"]["counts"].items()},
        ),
        total_tokens=header["total_tokens"],
    )


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
