import pytest

from xlner.conll import Corpus, Sentence, Token, parse_conll

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


def drop_key(header: dict, dotted: str) -> None:
    """Delete a model header key; `vocab.words` names a nested one."""
    *parents, key = dotted.split(".")
    for name in parents:
        header = header[name]
    del header[key]
