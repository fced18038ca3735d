import numpy as np
import pytest
from hypothesis import strategies as st

from xlner.conll import ENTITY_TYPES, Corpus, Sentence, Token, parse_conll
from xlner.embeddings import EmbeddingTable
from xlner.tagger import _gradients

TABLE_FIXTURE = """\
Rom B-LOC
blev O
ikke O
bygget O
på O
èn O
dag O
. O

vinyl O
, O
som O
Elvis B-PER
indspillede O
i O
Sun B-MISC
Records I-MISC
"""


@pytest.fixture
def example_corpus() -> Corpus:
    return parse_conll(TABLE_FIXTURE, language="da")


def make_corpus(*tagged_sentences, language=""):
    """Build a corpus from [(word, tag), ...] sentences."""
    return Corpus(
        tuple(
            Sentence(tuple(Token(w, t) for w, t in sent)) for sent in tagged_sentences
        ),
        language,
    )


def table_from_dict(dim, vectors):
    """The EmbeddingTable of a {word: (dim,) vector} dict, rows in the
    dict's order."""
    return EmbeddingTable(list(vectors), np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim))


def batch_gradients(tagger, batch, rng=None, word_id_fn=None):
    """Mean CRF NLL over the batch and its dense gradient with respect to
    every parameter tensor: tagger._gradients, the gradient train()
    applies, with its word_emb rows summed into a table of zeros. Dropout
    is drawn from rng (default: one seeded with the config's seed), and
    word ids come from word_id_fn(sentence, rng) (default: the vocabulary's
    lookup, without UNK dropout)."""
    if rng is None:
        rng = np.random.default_rng(tagger.config.seed)
    if word_id_fn is None:
        def word_id_fn(sentence, _):
            return [tagger.vocab.word_id(text) for text in sentence.texts]
    loss, grads, (row_ids, rows) = _gradients(tagger, batch, rng, word_id_fn)
    word_grad = np.zeros_like(tagger.params["word_emb"])
    np.add.at(word_grad, row_ids, rows)
    return loss, {name: word_grad if name == "word_emb" else grads[name] for name in tagger.params}


def drop_key(header: dict, dotted: str) -> None:
    """Delete a model header key; `vocab.words` names a nested one."""
    *parents, key = dotted.split(".")
    for name in parents:
        header = header[name]
    del header[key]


# ---------------------------------------------------------------- strategies

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x24F),
    min_size=1,
    max_size=6,
)


@st.composite
def bio2_tags(draw, max_len=8):
    """A BIO2-valid tag sequence built left to right."""
    length = draw(st.integers(1, max_len))
    tags = []
    prev = "O"
    for _ in range(length):
        options = ["O"] + [f"B-{t}" for t in ENTITY_TYPES]
        if prev != "O":
            options.append("I-" + prev.split("-")[1])
        tags.append(draw(st.sampled_from(options)))
        prev = tags[-1]
    return tags


@st.composite
def iob1_tags(draw, max_len=8):
    """An IOB1-valid sequence: I-X opens entities; B-X only legal directly
    after a same-type tag."""
    length = draw(st.integers(1, max_len))
    tags = []
    prev = "O"
    for _ in range(length):
        options = ["O"] + [f"I-{t}" for t in ENTITY_TYPES]
        if prev != "O":
            options.append("B-" + prev.split("-")[1])
        tags.append(draw(st.sampled_from(options)))
        prev = tags[-1]
    return tags


@st.composite
def corpora(draw, max_sentences=4):
    n = draw(st.integers(0, max_sentences))
    sentences = []
    for _ in range(n):
        tags = draw(bio2_tags())
        tokens = tuple(Token(draw(words), tag) for tag in tags)
        sentences.append(Sentence(tokens))
    return Corpus(tuple(sentences))


def _scan_spans_iob1(tags):
    """Character-level scanner oracle for IOB1 spans."""
    spans = set()
    start = None
    etype = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans.add((start, i - 1, etype))
                start = None
            continue
        prefix, ttype = tag.split("-")
        opens = start is None or ttype != etype or prefix == "B"
        if opens:
            if start is not None:
                spans.add((start, i - 1, etype))
            start, etype = i, ttype
    if start is not None:
        spans.add((start, len(tags) - 1, etype))
    return spans
