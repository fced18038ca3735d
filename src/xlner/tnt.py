"""Trigram HMM tagger in the TnT style: deleted-interpolation transition
smoothing, suffix-based unknown-word emissions with successive abstraction,
and beam Viterbi decoding over tag-pair states."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .conll import Corpus, Sentence, repair_bio
from .serialize import read_container, require_keys, write_container

START = "<s>"
STOP = "</s>"
TNT_MAGIC = b"XLNTNT1\x00"

MAX_SUFFIX_LEN = 10
RARE_THRESHOLD = 10
NEG_INF = float("-inf")


@dataclass
class SuffixModel:
    """Per-tag distributions conditioned on word suffixes, estimated from
    rare training words; capitalized and uncapitalized words keep separate
    statistics."""

    tag_probs: dict[str, float]  # unconditioned P(t) over rare words
    theta: float  # successive-abstraction weight (variance of tag_probs)
    suffix_counts: dict[bool, dict[str, Counter]]  # capitalized -> suffix -> tag counts

    def tag_given_word(self, word: str, tags: Sequence[str]) -> dict[str, float]:
        """P(t | word) by successive abstraction over ever-longer suffixes,
        stopping at the longest observed one."""
        if not self.tag_probs:
            return {t: 1.0 / len(tags) for t in tags}
        capitalized = word[:1].isupper()
        table = self.suffix_counts.get(capitalized) or {}
        dist = {t: self.tag_probs.get(t, 0.0) for t in tags}
        for length in range(1, min(len(word), MAX_SUFFIX_LEN) + 1):
            counts = table.get(word[-length:])
            if counts is None:
                break
            total = sum(counts.values())
            dist = {
                t: (counts.get(t, 0) / total + self.theta * dist[t]) / (1.0 + self.theta)
                for t in tags
            }
        norm = sum(dist.values())
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
    emissions: dict[str, Counter]  # word -> tag counts
    word_freq: Counter
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

    def transition_prob(self, t1: str, t2: str, t3: str) -> float:
        lp = self.transition_logp(t1, t2, t3)
        return 0.0 if lp == NEG_INF else math.exp(lp)

    def emission_logp(self, word: str, tag: str) -> float:
        """Known words: maximum likelihood P(w|t); unknown words: Bayes
        inversion of the suffix model's P(t|w)."""
        if word in self.emissions:
            count = self.emissions[word].get(tag, 0)
            if count == 0:
                return NEG_INF
            return math.log(count / self.unigrams[tag])
        tag_dist = self.suffix_model.tag_given_word(word, self.tags)
        p_tag = self.unigrams[tag] / self.total_tokens
        if p_tag <= 0.0 or tag_dist.get(tag, 0.0) <= 0.0:
            return NEG_INF
        return math.log(tag_dist[tag] / p_tag)


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
    if not len(train):
        raise ValueError("train corpus is empty")
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    trigrams: Counter = Counter()
    emissions: dict[str, Counter] = defaultdict(Counter)
    word_freq: Counter = Counter()
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
        unigrams[START] += 1  # context mass for bigram backoff at position 1
        for token in sentence:
            emissions[token.text][token.tag] += 1
            word_freq[token.text] += 1

    tag_set = tuple(sorted(t for t in unigrams if t not in (START, STOP)))
    lambdas = _deleted_interpolation(unigrams, bigrams, trigrams, total)

    rare_totals: Counter = Counter()
    suffix_counts: dict[bool, dict[str, Counter]] = {True: {}, False: {}}
    n_rare = 0
    for word, freq in word_freq.items():
        if freq >= RARE_THRESHOLD:
            continue
        capitalized = word[:1].isupper()
        for tag, count in emissions[word].items():
            rare_totals[tag] += count
            n_rare += count
            for length in range(1, min(len(word), MAX_SUFFIX_LEN) + 1):
                suffix = word[-length:]
                suffix_counts[capitalized].setdefault(suffix, Counter())[tag] += count

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
        emissions=dict(emissions),
        word_freq=word_freq,
        suffix_model=SuffixModel(tag_probs, theta, suffix_counts),
        total_tokens=total,
    )


def tnt_decode(
    model: TntModel,
    sentence: Union[Sentence, Sequence[str]],
    beam: Optional[int] = None,
) -> list[str]:
    """Viterbi over (previous tag, current tag) states; `beam` keeps only
    the best states per position (None = exact search)."""
    if beam is not None and beam < 1:
        raise ValueError("beam must be >= 1")
    words = sentence.texts if isinstance(sentence, Sentence) else list(sentence)
    if not words:
        return []

    # state: (t_prev, t_cur) -> (score, backpointer state)
    states: dict[tuple[str, str], tuple[float, Optional[tuple[str, str]]]] = {}
    for tag in model.tags:
        em = model.emission_logp(words[0], tag)
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
        if beam is not None and len(states) > beam:
            keep = sorted(states, key=lambda s: -states[s][0])[:beam]
            states = {s: states[s] for s in keep}
        nxt: dict[tuple[str, str], tuple[float, tuple[str, str]]] = {}
        for tag in model.tags:
            em = model.emission_logp(word, tag)
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


def tag_corpus(model: TntModel, corpus: Corpus, beam: Optional[int] = None) -> Corpus:
    tagged = []
    for sentence in corpus:
        tags, _ = repair_bio(tnt_decode(model, sentence, beam))
        tagged.append(sentence.with_tags(tags))
    return Corpus(tuple(tagged), corpus.language)


_HEADER_KEYS = (
    "tags",
    "unigrams",
    "bigrams",
    "trigrams",
    "lambdas",
    "emissions",
    "word_freq",
    "suffix",
    "total_tokens",
)


def save_model(model: TntModel, path) -> None:
    header = {
        "tags": list(model.tags),
        "unigrams": dict(model.unigrams),
        "bigrams": {f"{a}\t{b}": c for (a, b), c in model.bigrams.items()},
        "trigrams": {f"{a}\t{b}\t{c}": n for (a, b, c), n in model.trigrams.items()},
        "lambdas": list(model.lambdas),
        "emissions": {w: dict(c) for w, c in model.emissions.items()},
        "word_freq": dict(model.word_freq),
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


def load_model(path) -> TntModel:
    header, _ = read_container(path, TNT_MAGIC)
    require_keys(header, _HEADER_KEYS, path)
    require_keys(header["suffix"], ("tag_probs", "theta", "counts"), path, "header suffix")
    return TntModel(
        tags=tuple(header["tags"]),
        unigrams=Counter(header["unigrams"]),
        bigrams=Counter({tuple(k.split("\t")): v for k, v in header["bigrams"].items()}),
        trigrams=Counter({tuple(k.split("\t")): v for k, v in header["trigrams"].items()}),
        lambdas=tuple(header["lambdas"]),
        emissions={w: Counter(c) for w, c in header["emissions"].items()},
        word_freq=Counter(header["word_freq"]),
        suffix_model=SuffixModel(
            header["suffix"]["tag_probs"],
            header["suffix"]["theta"],
            {
                cap == "True": {s: Counter(c) for s, c in table.items()}
                for cap, table in header["suffix"]["counts"].items()
            },
        ),
        total_tokens=header["total_tokens"],
    )
