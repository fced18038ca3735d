"""Trigram HMM tagger in the TnT style (Brants 2000): deleted-interpolation
transition smoothing, suffix-based unknown-word emissions with successive
abstraction, and exact Viterbi decoding over (previous tag, current tag)
states.

Estimation counts each n-gram order in bulk. Decoding is table driven.
Each call looks up every smoothed transition once, into arrays, and one
emission row per distinct known word and per suffix key of the unknown
ones, walking each unknown word's suffixes once and abstracting each
(capitalization, suffix) on those keys' chains once, then runs one
second-order Viterbi per batch of equal-length sentences."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterator, Sequence

import numpy as np

from .conll import Corpus, repair_bio
from .serialize import write_container

START = "<s>"
STOP = "</s>"
TNT_MAGIC = b"XLNTNT1\x00"

MAX_SUFFIX_LEN = 10
RARE_THRESHOLD = 10
NEG_INF = float("-inf")
# Values per decoding batch of sentences of one length n, counted as
# sentences x K x K x (K + n) for K tags: a step's temporaries hold
# sentences x (K+1) x K x K values and the backpointers sentences x (n-1) x
# K x K, so this bounds a batch's memory whatever the corpus and model.
TNT_BATCH_VALUES = 2**16


@dataclass
class SuffixModel:
    """Per-tag distributions conditioned on word suffixes, estimated from
    rare training words; capitalized and uncapitalized words keep separate
    statistics."""

    tag_probs: dict[str, float]  # unconditioned P(t) over rare words
    theta: float  # successive-abstraction weight (variance of tag_probs)
    suffix_counts: dict[bool, dict[str, dict[str, int]]]  # capitalized -> suffix -> tag counts

    def abstraction_step(self, counts: dict[str, int], dist: dict[str, float]) -> dict[str, float]:
        """One successive-abstraction step: the unnormalized distribution
        given a suffix, from the suffix's tag counts and the distribution
        given the suffix one letter shorter."""
        total = sum(counts.values())
        return {t: (counts.get(t, 0) / total + self.theta * p) / (1.0 + self.theta) for t, p in dist.items()}

    def suffix_chain(
        self, word: str, tags: Sequence[str], memo: dict | None = None
    ) -> tuple[tuple[bool, str], dict[str, float]]:
        """One walk over a word's ever-longer suffixes, stopping at the
        longest observed one: its key (capitalized, longest matched suffix),
        which every word with the same chain shares, and the unnormalized
        P(t | word) after successive abstraction over the chain. A memo maps
        capitalization, then suffix, to the distribution after that
        suffix's step, and the empty suffix to the one before any step, so
        words that share a suffix, passing one memo and the same tags,
        abstract it once."""
        capitalized = word[:1].isupper()
        table = self.suffix_counts.get(capitalized) or {}
        after = ({} if memo is None else memo).setdefault(capitalized, {})
        if "" not in after:
            after[""] = {t: self.tag_probs.get(t, 0.0) for t in tags}
        matched = ""
        dist = after[matched]
        for length in range(1, min(len(word), MAX_SUFFIX_LEN) + 1):
            suffix = word[-length:]
            step = after.get(suffix)
            if step is None:
                counts = table.get(suffix)
                if counts is None:
                    break
                step = after[suffix] = self.abstraction_step(counts, dist)
            dist, matched = step, suffix
        return (capitalized, matched), dist

    def normalized(self, dist: dict[str, float], tags: Sequence[str]) -> dict[str, float]:
        """P(t | word) from suffix_chain's distribution; uniform when there
        were no rare training words or the distribution has no mass."""
        norm = sum(dist.values()) if self.tag_probs else 0.0
        if norm <= 0.0:
            return {t: 1.0 / len(tags) for t in tags}
        return {t: p / norm for t, p in dist.items()}


@dataclass
class TntModel:
    tags: tuple[str, ...]  # observed tags, boundary symbols excluded
    unigrams: Counter
    bigrams: Counter
    trigrams: Counter
    lambdas: tuple[float, float, float]
    emissions: dict[str, dict[str, int]]  # word -> tag counts, words in first-seen order
    suffix_model: SuffixModel
    total_tokens: int

    def transition_logp(self, t1: str, t2: str, t3: str) -> float:
        """Smoothed log P(t3 | t1 t2); the interpolation weights of unseen
        contexts are dropped and the rest renormalized so the result is a
        proper distribution for every context."""
        l1, l2, l3 = self.lambdas
        p = l1 * (self.unigrams[t3] / self.total_tokens)
        denom = l1
        big_ctx = self.unigrams[t2]
        if big_ctx > 0:
            p += l2 * (self.bigrams[(t2, t3)] / big_ctx)
            denom += l2
        tri_ctx = self.bigrams[(t1, t2)]
        if tri_ctx > 0:
            p += l3 * (self.trigrams[(t1, t2, t3)] / tri_ctx)
            denom += l3
        if denom <= 0.0 or p <= 0.0:
            return NEG_INF
        return math.log(p / denom)

    def emission_logps(self, word: str) -> list[float]:
        """log P(word | t) for each of `tags` of a known word, by maximum
        likelihood."""
        counts = self.emissions[word]
        return [math.log(c / self.unigrams[t]) if (c := counts.get(t, 0)) else NEG_INF for t in self.tags]

    def suffix_logps(self, tag_dist: dict[str, float]) -> list[float]:
        """log P(word | t) for each of `tags` of an unknown word whose
        P(t | word) is tag_dist."""
        row = []
        for tag in self.tags:
            p_tag = self.unigrams[tag] / self.total_tokens
            p = tag_dist.get(tag, 0.0)
            row.append(math.log(p / p_tag) if p_tag > 0.0 and p > 0.0 else NEG_INF)
        return row


def _deleted_interpolation(
    unigrams: Counter, bigrams: Counter, trigrams: Counter, total: int
) -> tuple[float, float, float]:
    """Brants' credit rule: each trigram's count goes to the lambda whose
    relative-frequency estimate is largest; lambdas then normalize."""
    credit = [0.0, 0.0, 0.0]
    for (t1, t2, t3), count in trigrams.items():
        c3 = (trigrams[(t1, t2, t3)] - 1) / (bigrams[(t1, t2)] - 1) if bigrams[(t1, t2)] > 1 else 0.0
        c2 = (bigrams[(t2, t3)] - 1) / (unigrams[t2] - 1) if unigrams[t2] > 1 else 0.0
        c1 = (unigrams[t3] - 1) / (total - 1) if total > 1 else 0.0
        best = max(range(3), key=lambda i: (c1, c2, c3)[i])
        credit[best] += count
    norm = sum(credit)
    if norm == 0.0:
        return (1.0, 0.0, 0.0)
    return (credit[0] / norm, credit[1] / norm, credit[2] / norm)


def estimate(train: Corpus) -> TntModel:
    """Maximum-likelihood tables, interpolation weights and the suffix
    model of a tagged corpus. Each n-gram table is one bulk count over
    every sentence's padded tags (START, START, *tags, STOP); the START
    unigram and the (START, START) bigram, one per sentence, are entered
    after the first sentence's n-grams, the order a per-sentence count
    gives, which save_model writes."""
    if not len(train):
        raise ValueError("train corpus is empty")
    padded = [(START, START, *sentence.tags, STOP) for sentence in train]
    first, rest = padded[0], padded[1:]
    unigrams = Counter(first[2:])
    unigrams[START] = len(padded)  # context mass for bigram backoff at position 1
    unigrams.update(chain.from_iterable(tags[2:] for tags in rest))
    bigrams = Counter(zip(first[1:], first[2:]))
    bigrams[(START, START)] = len(padded)
    bigrams.update(chain.from_iterable(zip(tags[1:], tags[2:]) for tags in rest))
    trigrams = Counter(chain.from_iterable(zip(tags, tags[1:], tags[2:]) for tags in padded))
    total = sum(map(len, padded)) - 2 * len(padded)  # every token and STOP
    emissions: dict[str, dict[str, int]] = {}
    for sentence in train:
        for text, tag in zip(sentence.texts, sentence.tags):
            counts = emissions.get(text)
            if counts is None:
                emissions[text] = {tag: 1}
            else:
                counts[tag] = counts.get(tag, 0) + 1

    tag_set = tuple(sorted(t for t in unigrams if t not in (START, STOP)))
    lambdas = _deleted_interpolation(unigrams, bigrams, trigrams, total)

    rare_totals: Counter = Counter()
    suffix_counts: dict[bool, dict[str, dict[str, int]]] = {True: {}, False: {}}
    n_rare = 0
    for word, tag_counts in emissions.items():
        if sum(tag_counts.values()) >= RARE_THRESHOLD:
            continue
        table = suffix_counts[word[:1].isupper()]
        for tag, count in tag_counts.items():
            rare_totals[tag] += count
            n_rare += count
            for length in range(1, min(len(word), MAX_SUFFIX_LEN) + 1):
                suffix = word[-length:]
                counts = table.get(suffix)
                if counts is None:
                    table[suffix] = {tag: count}
                else:
                    counts[tag] = counts.get(tag, 0) + count

    if n_rare:
        tag_probs = {t: c / n_rare for t, c in rare_totals.items()}
        mean = sum(tag_probs.get(t, 0.0) for t in tag_set) / len(tag_set)
        if len(tag_set) > 1:
            theta = sum((tag_probs.get(t, 0.0) - mean) ** 2 for t in tag_set) / (len(tag_set) - 1)
        else:
            theta = 0.0
        theta = max(theta, 1e-10)
    else:
        tag_probs = {}
        theta = 1e-10

    return TntModel(
        tags=tag_set,
        unigrams=unigrams,
        bigrams=bigrams,
        trigrams=trigrams,
        lambdas=lambdas,
        emissions=emissions,
        suffix_model=SuffixModel(tag_probs, theta, suffix_counts),
        total_tokens=total,
    )


def _first_max(values: np.ndarray, present: np.ndarray):
    """Along axis 0: the index of the first present entry that holds the
    maximum, and that maximum. A maximum of -inf still picks a present
    entry; a slice with none present gives -inf."""
    top = np.where(present, values, NEG_INF).max(axis=0)
    return (present & (values == top)).argmax(axis=0), top


def _viterbi(em: np.ndarray, tables) -> np.ndarray:
    """Best tag paths (batch, length) of a batch of equal-length sentences
    from their emission rows em (length, K, batch).

    States are (previous tag, current tag) pairs held as (P, K, batch)
    arrays, where P is 1 (START) at the first word and K after it; the
    batch axis is last so that every elementwise step runs over it. A
    state can exist with a score of -inf, so existence is a mask of its
    own. Ties between equal scores go to the first state in (current tag,
    previous tag) index order, except at STOP, where they go to the first
    in sorted(states) order."""
    first, step, step_ok, stop, sorted_position = tables
    n, k, b = em.shape
    em_ok = em > NEG_INF
    ok = em_ok[0] & (first[:, None] > NEG_INF)
    stuck = ~ok.any(axis=0)  # every tag pruned: uniform emissions
    score = np.where(ok, em[0] + first[:, None], NEG_INF)
    score[:, stuck] = first[:, None]
    score, exists = score[None], (ok | stuck)[None]
    prev = slice(k, k + 1)  # the rows of the tables that the states' previous tags index

    cols = np.arange(b)
    back = []
    for i in range(1, n):
        # (previous, current, next, batch): state (p, c) moving on to (c, t)
        valid = exists[:, :, None] & step_ok[prev][..., None] & em_ok[i]
        cand = score[:, :, None] + step[prev][..., None] + em[i]
        pointer, best = _first_max(cand, valid)
        new_exists = valid.any(axis=0)
        stuck = ~new_exists.any(axis=(0, 1))
        if stuck.any():  # all paths pruned: keep the best state, any tag next
            at, p = cols[stuck], len(score)
            key, top = _first_max(score[:, :, at].swapaxes(0, 1).reshape(k * p, -1),
                                  exists[:, :, at].swapaxes(0, 1).reshape(k * p, -1))
            c, q = divmod(key, p)
            new_exists[c, :, at] = True
            best[c, :, at] = top[:, None]
            pointer[c, :, at] = q[:, None]
        score, exists, prev = best, new_exists, slice(0, k)
        back.append(pointer)

    # close with the STOP transition; the first best in sorted(states) order
    states = len(score) * k
    order = np.argsort(sorted_position[prev], axis=None)
    at, _ = _first_max((score + stop[prev][..., None]).reshape(states, b)[order], exists.reshape(states, b)[order])
    q, cur = divmod(order[at], k)
    path = np.empty((b, n), dtype=np.intp)
    path[:, n - 1] = cur
    for i in range(n - 2, -1, -1):
        q, cur = back[i][q, cur, cols], q
        path[:, i] = cur
    return path


def _emission_rows(model: TntModel, words: Collection[str]) -> np.ndarray:
    """The (len(words), K) emission rows of distinct words, one computed
    per known word and one per suffix key of the unknown ones. Each unknown
    word's suffixes are walked once, for its key and, through one memo
    shared by every chain, its distribution; the memo and the rows by key
    are freed on return, before any decoding."""
    suffix_model, tags = model.suffix_model, model.tags
    keys = []
    rows = {}
    suffix_memo: dict = {}
    for word in words:
        if word in model.emissions:  # a known word keys its own row
            key = word
            rows[key] = model.emission_logps(word)
        else:  # unknown words share one per suffix key
            key, dist = suffix_model.suffix_chain(word, tags, suffix_memo)
            if key not in rows:
                rows[key] = model.suffix_logps(suffix_model.normalized(dist, tags))
        keys.append(key)
    return np.array([rows[key] for key in keys]).reshape(len(keys), len(tags))


def _viterbi_batches(model: TntModel, sentences: Sequence[Sequence[str]]) -> Iterator[tuple[list[int], np.ndarray]]:
    """(indices into sentences, tag-index paths) per batch of non-empty
    equal-length sentences. Transitions are looked up once per call, and
    emissions once per distinct known word and once per suffix key of the
    unknown ones (see _emission_rows)."""
    tags = model.tags
    k = len(tags)
    labels = (*tags, START)
    first = np.array([model.transition_logp(START, START, t) for t in tags])
    step = np.array([[[model.transition_logp(a, c, t) for t in tags] for c in tags] for a in labels])
    stop = np.array([[model.transition_logp(a, c, STOP) for c in tags] for a in labels])
    stop[stop == NEG_INF] = -1e9  # a STOP that cannot follow still closes the path
    sorted_position = np.empty((k + 1) * k, dtype=np.intp)
    sorted_position[sorted(range((k + 1) * k), key=lambda s: (labels[s // k], tags[s % k]))] = np.arange((k + 1) * k)
    tables = first, step, step > NEG_INF, stop, sorted_position.reshape(k + 1, k)

    index = {word: i for i, word in enumerate(dict.fromkeys(w for words in sentences for w in words))}
    emissions = _emission_rows(model, index)
    by_length = defaultdict(list)
    for i, words in enumerate(sentences):
        by_length[len(words)].append(i)
    for n, members in by_length.items():
        size = max(1, TNT_BATCH_VALUES // (k * k * (k + n)))
        for start in range(0, len(members), size):
            batch = members[start : start + size]
            ids = [[index[w] for w in sentences[i]] for i in batch]
            yield batch, _viterbi(np.ascontiguousarray(emissions[ids].transpose(1, 2, 0)), tables)


def tag_corpus(model: TntModel, corpus: Corpus) -> Corpus:
    """The best tags of every sentence by exact Viterbi over (previous
    tag, current tag) states, a batch of equal-length sentences at a time,
    repaired to BIO2. Ties go to the first state in (current tag, previous
    tag) index order, and at STOP to the first in sorted(states) order.
    Only a path that holds an I- tag can break the BIO2 rule, so only
    those go through repair_bio. Sentences come back in corpus order,
    their token texts untouched."""
    sentences = corpus.sentences
    tagged: list = [None] * len(sentences)
    names = np.array(model.tags, dtype=object)
    inside = np.array([tag.startswith("I-") for tag in model.tags], dtype=bool)
    for batch, paths in _viterbi_batches(model, [sentence.texts for sentence in sentences]):
        for i, tags, repair in zip(batch, names[paths].tolist(), inside[paths].any(axis=1).tolist()):
            tagged[i] = sentences[i].with_tags(repair_bio(tags)[0] if repair else tags)
    return Corpus(tuple(tagged), corpus.language)


def save_model(model: TntModel, path) -> None:
    header = {
        "tags": list(model.tags),
        "unigrams": dict(model.unigrams),
        "bigrams": {f"{a}\t{b}": c for (a, b), c in model.bigrams.items()},
        "trigrams": {f"{a}\t{b}\t{c}": n for (a, b, c), n in model.trigrams.items()},
        "lambdas": list(model.lambdas),
        "emissions": {w: dict(c) for w, c in model.emissions.items()},
        "suffix": {
            "tag_probs": model.suffix_model.tag_probs,
            "theta": model.suffix_model.theta,
            "counts": {
                str(cap): {s: dict(c) for s, c in table.items()}
                for cap, table in model.suffix_model.suffix_counts.items()
            },
        },
        "total_tokens": model.total_tokens,
    }
    write_container(path, TNT_MAGIC, header, {})
