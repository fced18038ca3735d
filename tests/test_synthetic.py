import numpy as np
import pytest

from xlner.conll import Corpus, Sentence, Token, write_conll
from xlner.synthetic import SHARED_WORDS, _random_words, make_twin_languages, random_orthogonal, twin_word


def reference_twins(seed, dim):
    """make_twin_languages' draws at its defaults, with one standard_normal
    draw and one `v @ rotation` per table row: (corpora, src rows, tgt
    rows, rotation), each table a {word: row} dict."""
    rng = np.random.default_rng(seed)
    used = set(SHARED_WORDS)
    lexicon = {etype: _random_words(rng, 20, True, used) for etype in ("PER", "LOC", "ORG")}
    fillers = _random_words(rng, 25, False, used)

    def sentence(words_of):
        tokens = []
        for _ in range(int(rng.integers(2, 5))):
            for _ in range(int(rng.integers(1, 3))):
                tokens.append(Token(words_of(fillers[rng.integers(len(fillers))]), "O"))
            etype = ("PER", "LOC", "ORG")[rng.integers(3)]
            name = lexicon[etype][rng.integers(len(lexicon[etype]))]
            tokens.append(Token(words_of(name), f"B-{etype}"))
        tokens.append(Token(words_of("."), "O"))
        return Sentence(tuple(tokens))

    corpora = [
        Corpus(tuple(sentence(words_of) for _ in range(n)), language)
        for n, words_of, language in ((60, str, "src"), (25, str, "src"), (10, twin_word, "tgt"), (30, twin_word, "tgt"))
    ]
    vocab = set(fillers) | set(SHARED_WORDS) | {w for ws in lexicon.values() for w in ws}
    src = {w: rng.standard_normal(dim) for w in sorted(vocab)}
    rotation = random_orthogonal(rng, dim)
    tgt = {twin_word(w): v @ rotation for w, v in src.items()}
    return corpora, src, tgt, rotation


def table_bytes(table):
    return [(word, table.vectors[word].tobytes()) for word in table.words]


@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("seed", [0, 5])
def test_twins_match_per_row_reference(seed, dim):
    twins = make_twin_languages(seed=seed, dim=dim)
    corpora, src, tgt, rotation = reference_twins(seed, dim)
    got = (twins.src_train, twins.src_dev, twins.tgt_train, twins.tgt_dev)
    assert [write_conll(c) for c in got] == [write_conll(c) for c in corpora]
    assert list(got) == corpora
    assert [c.language for c in got] == [c.language for c in corpora]
    assert table_bytes(twins.src_emb) == [(w, v.tobytes()) for w, v in src.items()]
    assert table_bytes(twins.tgt_emb) == [(w, v.tobytes()) for w, v in tgt.items()]
    assert twins.rotation.tobytes() == rotation.tobytes()
