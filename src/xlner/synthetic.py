"""Synthetic corpora for controlled experiments: a pair of twin languages
with lexically determined entities and embedding spaces related by a known
rotation. Used by the transfer-ordering checks and the demo script."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conll import Corpus, Sentence, from_columns
from .embeddings import EmbeddingTable, OrthogonalMap, apply_mapping

_VOWEL_MAP = str.maketrans("aeiou", "eioua")
_BEGIN = {etype: f"B-{etype}" for etype in ("PER", "LOC", "ORG")}

# Identical in both languages: the free supervision for alignment.
SHARED_WORDS = tuple(str(d) for d in range(10)) + (
    ".", ",", ":", "-", "ok", "internet", "radio", "tv", "usa", "fc",
    "bank", "euro", "pop", "jazz", "club", "net", "x", "y", "z", "plus",
    "mini", "super", "data", "test", "foto", "video", "musik", "park",
)


def twin_word(word: str) -> str:
    """Deterministic surface transform giving the other language's form;
    capitalization is preserved, shared words stay identical."""
    if word in SHARED_WORDS:
        return word
    # suffix contains letters no generated or shared word uses, so twin
    # forms can never collide with source-language or shared forms
    out = word.lower().translate(_VOWEL_MAP) + "oq"
    return out.capitalize() if word[:1].isupper() else out


def _random_words(rng: np.random.Generator, n: int, capitalized: bool, used: set) -> list[str]:
    consonants = "bcdfgklmnprst"
    vowels = "aeiou"
    words = []
    while len(words) < n:
        length = rng.integers(2, 4)
        word = "".join(
            consonants[rng.integers(len(consonants))] + vowels[rng.integers(len(vowels))]
            for _ in range(length)
        )
        word = word.capitalize() if capitalized else word
        if word not in used:
            used.add(word)
            words.append(word)
    return words


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


@dataclass
class TwinLanguages:
    src_train: Corpus
    src_dev: Corpus
    tgt_train: Corpus
    tgt_dev: Corpus
    src_emb: EmbeddingTable
    tgt_emb: EmbeddingTable
    rotation: np.ndarray  # tgt vectors = src vectors @ rotation


def make_twin_languages(
    seed: int = 0,
    dim: int = 16,
    n_src_train: int = 60,
    n_src_dev: int = 25,
    n_tgt_train: int = 10,
    n_tgt_dev: int = 30,
    entities_per_type: int = 20,
    n_fillers: int = 25,
) -> TwinLanguages:
    rng = np.random.default_rng(seed)
    used: set = set(SHARED_WORDS)
    lexicon = {
        "PER": _random_words(rng, entities_per_type, True, used),
        "LOC": _random_words(rng, entities_per_type, True, used),
        "ORG": _random_words(rng, entities_per_type, True, used),
    }
    fillers = _random_words(rng, n_fillers, False, used)

    def sentence(words_of) -> Sentence:
        texts, tags = [], []
        for _ in range(int(rng.integers(2, 5))):
            for _ in range(int(rng.integers(1, 3))):
                texts.append(words_of(fillers[rng.integers(len(fillers))]))
                tags.append("O")
            etype = ("PER", "LOC", "ORG")[rng.integers(3)]
            texts.append(words_of(lexicon[etype][rng.integers(len(lexicon[etype]))]))
            tags.append(_BEGIN[etype])
        texts.append(words_of("."))
        tags.append("O")
        return from_columns(tuple(texts), tuple(tags), ((),) * len(texts))

    def corpus(n: int, words_of, language: str) -> Corpus:
        return Corpus(tuple(sentence(words_of) for _ in range(n)), language)

    src_train = corpus(n_src_train, lambda w: w, "src")
    src_dev = corpus(n_src_dev, lambda w: w, "src")
    tgt_train = corpus(n_tgt_train, twin_word, "tgt")
    tgt_dev = corpus(n_tgt_dev, twin_word, "tgt")

    words = sorted(set(fillers) | set(SHARED_WORDS) | {w for ws in lexicon.values() for w in ws})
    src_emb = EmbeddingTable(words, rng.standard_normal((len(words), dim)))
    rotation = random_orthogonal(rng, dim)
    tgt_rows = apply_mapping(src_emb, OrthogonalMap(rotation)).matrix
    tgt_emb = EmbeddingTable([twin_word(w) for w in words], tgt_rows)
    return TwinLanguages(
        src_train,
        src_dev,
        tgt_train,
        tgt_dev,
        src_emb,
        tgt_emb,
        rotation,
    )
