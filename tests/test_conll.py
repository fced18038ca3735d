import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlner.conll import (
    TAGS,
    ConllError,
    Corpus,
    ParseError,
    TagError,
    cohen_kappa,
    corpus_stats,
    entity_kappa,
    extract_sentence_spans,
    parse_conll,
    repair_bio,
    take_first_tokens,
    validate_bio,
    write_conll,
)

from conftest import TABLE_FIXTURE, _scan_spans_iob1, bio2_tags, corpora, iob1_tags, make_corpus

# ------------------------------------------------------------------- parsing


def test_parse_empty():
    assert parse_conll("") == Corpus(())


def test_parse_example_sentence():
    corpus = parse_conll(TABLE_FIXTURE)
    assert len(corpus) == 2
    first = corpus.sentences[0]
    assert len(first) == 8
    assert first.tokens[0].text == "Rom"
    assert first.tokens[0].tag == "B-LOC"


def test_parse_skips_docstart():
    corpus = parse_conll("-DOCSTART- -X- O O\n\nRom B-LOC\n")
    assert len(corpus) == 1
    assert corpus.sentences[0].tokens[0].text == "Rom"


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_conll("Rom B-LOC\nblev\n")
    assert err.value.line == 2


def test_parse_unknown_tag():
    with pytest.raises(TagError) as err:
        parse_conll("Rom B-LOC\nblev B-GPE\n")
    assert err.value.line == 2


def test_parse_preserves_middle_columns():
    corpus = parse_conll("Rom NNP I-NP B-LOC\n")
    token = corpus.sentences[0].tokens[0]
    assert token.extras == ("NNP", "I-NP")
    assert write_conll(corpus) == "Rom NNP I-NP B-LOC\n"


def test_write_empty():
    assert write_conll(Corpus(())) == ""


def test_write_example_shape():
    corpus = parse_conll(TABLE_FIXTURE)
    out = write_conll(corpus)
    lines = out.split("\n")
    assert lines[:2] == ["Rom B-LOC", "blev O"]
    assert lines[8] == ""  # blank separator after the 8-token sentence


def test_parse_write_parse_fixed_point():
    corpus = parse_conll(TABLE_FIXTURE)
    assert parse_conll(write_conll(corpus)) == corpus


@given(corpora())
def test_parse_inverts_write(corpus):
    assert parse_conll(write_conll(corpus)) == corpus


# ---------------------------------------------------------------- validation


def test_validate_all_outside():
    assert validate_bio(["O", "O", "O"]) == []


def test_validate_orphan():
    violations = validate_bio(["O", "I-PER"])
    assert len(violations) == 1
    assert (violations[0].position, violations[0].kind) == (1, "orphan-I")


def test_validate_type_mismatch():
    violations = validate_bio(["B-PER", "I-LOC"])
    assert len(violations) == 1
    assert (violations[0].position, violations[0].kind) == (1, "type-mismatch-I")


def _bio2_valid_by_grammar(tags):
    """Independent BIO2 recognizer: I-X requires an immediately preceding
    B-X or I-X."""
    for i, tag in enumerate(tags):
        if tag.startswith("I-"):
            if i == 0:
                return False
            prev = tags[i - 1]
            if prev == "O" or prev.split("-")[1] != tag.split("-")[1]:
                return False
    return True


def test_validate_matches_grammar_exhaustively():
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    for length in range(1, 5):
        for tags in itertools.product(alphabet, repeat=length):
            assert (validate_bio(tags) == []) == _bio2_valid_by_grammar(tags), tags


def test_all_length2_pairs_classified():
    for a, b in itertools.product(TAGS, repeat=2):
        violations = validate_bio([a, b])
        expected = []
        if a.startswith("I-"):
            expected.append((0, "orphan-I"))
        if b.startswith("I-"):
            if a == "O":
                expected.append((1, "orphan-I"))
            elif a.split("-")[1] != b.split("-")[1]:
                expected.append((1, "type-mismatch-I"))
        assert [(v.position, v.kind) for v in violations] == expected


@given(bio2_tags())
def test_repair_is_identity_on_valid(tags):
    repaired, n = repair_bio(tags)
    assert n == 0
    assert list(repaired) == list(tags)


# --------------------------------------------------------------- conversion


def test_convert_sentence_initial():
    assert repair_bio(["I-PER", "I-PER"]) == (("B-PER", "I-PER"), 1)


def test_convert_type_change():
    assert repair_bio(["I-PER", "I-LOC"]) == (("B-PER", "B-LOC"), 2)


@given(iob1_tags())
def test_conversion_preserves_spans(tags):
    converted, _ = repair_bio(tags)
    assert validate_bio(converted) == []
    assert extract_sentence_spans(converted) == _scan_spans_iob1(tags)


# -------------------------------------------------------------------- spans


def test_extract_spans_example():
    tags = ["O", "O", "O", "B-PER", "O", "O", "B-MISC", "I-MISC"]
    assert extract_sentence_spans(tags) == {(3, 3, "PER"), (6, 7, "MISC")}


def test_extract_spans_all_outside():
    assert extract_sentence_spans(["O"] * 5) == set()


def _scan_spans_bio2(tags):
    spans = set()
    start = None
    etype = None
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            if start is not None:
                spans.add((start, i - 1, etype))
            start, etype = i, tag[2:]
        elif tag == "O":
            if start is not None:
                spans.add((start, i - 1, etype))
                start = None
    if start is not None:
        spans.add((start, len(tags) - 1, etype))
    return spans


@given(bio2_tags())
def test_extract_spans_matches_scanner(tags):
    assert extract_sentence_spans(tags) == _scan_spans_bio2(tags)


# -------------------------------------------------------------------- stats


def test_stats_example(example_corpus):
    report = corpus_stats(example_corpus)
    assert report.sentences == 2
    assert report.tokens == 16
    assert report.entities == 3
    assert report.sentences_with_ne == 2
    assert report.sentences_with_ne_pct == 1.0
    assert report.ttr == report.types / report.tokens


def test_stats_rejects_invalid():
    # IOB1 input: the error names the first bad sentence and token.
    corpus = make_corpus([("Rom", "B-LOC"), ("by", "O")], [("og", "O"), ("Elvis", "I-PER")])
    with pytest.raises(ConllError, match=r"^sentence 1 token 1: orphan-I .*xlner convert"):
        corpus_stats(corpus)


def test_stats_empty():
    report = corpus_stats(Corpus(()))
    assert report.sentences == report.tokens == report.entities == 0
    assert report.ttr is None
    assert report.sentences_with_ne_pct is None


@given(corpora())
def test_stats_invariants(corpus):
    report = corpus_stats(corpus)
    assert report.sentences_with_ne <= report.sentences
    assert report.entities >= report.sentences_with_ne
    if report.tokens:
        assert 0 < report.ttr <= 1
        assert report.ttr == report.types / report.tokens


# --------------------------------------------------------- sentence slicing


def test_take_zero(example_corpus):
    assert take_first_tokens(example_corpus, 0) == Corpus((), "da")


def test_take_everything(example_corpus):
    assert take_first_tokens(example_corpus, 100) == example_corpus


def test_take_stops_at_sentence_boundary(example_corpus):
    sliced = take_first_tokens(example_corpus, 8)
    assert len(sliced) == 1
    assert sliced.num_tokens == 8
    # one token short of the second sentence: still only one sentence
    assert len(take_first_tokens(example_corpus, 15)) == 1


# -------------------------------------------------------------------- kappa


def test_kappa_identical():
    result = cohen_kappa(["PER", "LOC"], ["PER", "LOC"])
    assert result.kappa == 1.0


def test_kappa_hand_case():
    result = cohen_kappa(["PER", "PER", "LOC", "LOC"], ["PER", "LOC", "LOC", "LOC"])
    assert result.p_o == pytest.approx(0.75)
    assert result.p_e == pytest.approx(0.5)
    assert result.kappa == pytest.approx(0.5)


def test_kappa_degenerate_constant():
    result = cohen_kappa(["PER", "PER"], ["PER", "PER"])
    assert result.kappa == 1.0
    assert result.degenerate


def test_kappa_length_mismatch():
    with pytest.raises(ValueError):
        cohen_kappa(["PER"], ["PER", "LOC"])


def test_kappa_independent_labels():
    # Monte-Carlo oracle: independent annotators drive kappa to 0
    import random

    rng = random.Random(7)
    labels = ["PER", "LOC", "ORG"]
    n = 10**5
    a = [rng.choice(labels) for _ in range(n)]
    b = [rng.choice(labels) for _ in range(n)]
    assert abs(cohen_kappa(a, b).kappa) < 0.05


@given(
    st.lists(st.sampled_from(["PER", "LOC", "ORG", "MISC"]), min_size=1, max_size=30),
    st.permutations(["PER", "LOC", "ORG", "MISC"]),
)
def test_kappa_relabeling_invariance(a, perm):
    import random

    rng = random.Random(len(a))
    b = [rng.choice(["PER", "LOC", "ORG", "MISC"]) for _ in a]
    mapping = dict(zip(["PER", "LOC", "ORG", "MISC"], perm))
    plain = cohen_kappa(a, b)
    renamed = cohen_kappa([mapping[x] for x in a], [mapping[x] for x in b])
    assert renamed.kappa == pytest.approx(plain.kappa)


def test_entity_kappa_uses_entity_tokens_only():
    a = make_corpus([("Rom", "B-LOC"), ("blev", "O"), ("Elvis", "B-PER")])
    b = make_corpus([("Rom", "B-PER"), ("blev", "O"), ("Elvis", "B-PER")])
    result = entity_kappa(a, b)
    assert result.items == 2  # the shared O token is not an item
    assert result.p_o == pytest.approx(0.5)
