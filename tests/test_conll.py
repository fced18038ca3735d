import gc
import itertools
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlner.conll import (
    TAGS,
    ConllError,
    Corpus,
    ParseError,
    Sentence,
    TagError,
    Token,
    cohen_kappa,
    convert_corpus_iob1_to_bio2,
    corpus_stats,
    entity_kappa,
    extract_sentence_spans,
    parse_conll,
    read_conll,
    repair_bio,
    take_first_tokens,
    validate_bio,
    write_conll,
)
from xlner.synthetic import make_twin_languages

from conftest import TABLE_FIXTURE, _scan_spans_iob1, bio2_tags, corpora, iob1_tags, make_corpus, words

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


def test_token_rejects_empty_and_whitespace_text():
    spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
    for text in ["", *(t for c in spaces for t in (c, c + "ab", "a" + c + "b", "ab" + c))]:
        with pytest.raises(ValueError, match="^token text must be non-empty and whitespace-free: "):
            Token(text, "O")


def test_token_accepts_text_without_whitespace():
    # zero-width and joiner characters are not whitespace to str.isspace
    for text in ("a", "\u200b", "a\u200db", "\ufeffa", "x" * 300):
        assert Token(text, "O").text == text


def test_with_tags_retags_every_token():
    sentence = parse_conll("Rom NNP I-NP B-LOC\nblev VB I-VP O\n").sentences[0]
    retagged = sentence.with_tags(["B-PER", "I-PER"])
    want = (Token("Rom", "B-PER", ("NNP", "I-NP")), Token("blev", "I-PER", ("VB", "I-VP")))
    assert retagged.tokens == want
    assert [hash(t) for t in retagged.tokens] == [hash(t) for t in want]
    assert sentence.tags == ("B-LOC", "O")
    assert retagged.with_tags(("B-LOC", "O")) == sentence


@given(corpora(), st.data())
def test_with_tags_equals_checked_tokens(corpus, data):
    for sentence in corpus:
        tags = data.draw(st.lists(st.sampled_from(TAGS), min_size=len(sentence), max_size=len(sentence)))
        want = tuple(Token(t.text, tag, t.extras) for t, tag in zip(sentence, tags))
        got = sentence.with_tags(tags).tokens
        assert got == want
        assert list(map(hash, got)) == list(map(hash, want))


@pytest.mark.parametrize(
    "tags, message",
    [
        (["O"], "tag sequence length mismatch"),
        (["O", "O", "O"], "tag sequence length mismatch"),
        (["O", "B-XYZ"], "unknown tag 'B-XYZ'"),
        (["I-FOO", "bar"], "unknown tag 'I-FOO'"),
    ],
)
def test_with_tags_rejects(tags, message):
    sentence = make_corpus([("Rom", "B-LOC"), ("blev", "O")]).sentences[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        sentence.with_tags(tags)


def test_parse_skips_docstart():
    corpus = parse_conll("-DOCSTART- -X- O O\n\nRom B-LOC\n")
    assert len(corpus) == 1
    assert corpus.sentences[0].tokens[0].text == "Rom"


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_conll("Rom B-LOC\nblev\n")
    assert err.value.line == 2


def test_parse_splits_lines_on_newline_only():
    # "\r", "\x85" and "\u2028" separate columns within a line, as
    # str.split sees them, and end no line.
    corpus = parse_conll("Rom\u2028NNP B-LOC\r\nblev\x85VB O\n")
    assert corpus.sentences[0].texts == ("Rom", "blev")
    assert corpus.sentences[0].extras == (("NNP",), ("VB",))


def test_read_conll_errors_name_the_file(tmp_path):
    bad_tag = tmp_path / "tag.conll"
    bad_tag.write_text("Rom B-LOC\n\nblev B-GPE\n", encoding="utf-8")
    with pytest.raises(TagError, match=f"^{re.escape(str(bad_tag))}: line 3: unknown tag 'B-GPE'$") as err:
        read_conll(bad_tag)
    assert err.value.line == 3
    latin1 = tmp_path / "latin1.conll"
    latin1.write_bytes("Rom B-LOC\n\nS\u00f8ren B-PER\n".encode("latin-1"))
    with pytest.raises(ConllError, match=f"^{re.escape(str(latin1))}: not UTF-8 text \\(invalid start byte\\)$"):
        read_conll(latin1)


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


# --------------------------------------------------------- columnar layout

middle_columns = st.lists(st.text(alphabet="ABNPVX-_.", min_size=1, max_size=4), max_size=3)
blank_line = st.sampled_from(["", " ", "\t", "  \t "])
docstart_line = st.sampled_from(["-DOCSTART-", "-DOCSTART- O", "-DOCSTART- -X- -X- O"])


@st.composite
def conll_documents(draw):
    """(text, its sentences as Token tuples): tokens with 0 to 3 middle
    columns, sentences apart by runs of blank or whitespace-only lines,
    and -DOCSTART- lines among them, at the start and at the end."""
    sentences = draw(
        st.lists(
            st.lists(st.builds(Token, words, st.sampled_from(TAGS), middle_columns.map(tuple)), min_size=1, max_size=5)
            .map(tuple),
            max_size=4,
        )
    )
    separator = st.lists(st.one_of(blank_line, docstart_line), max_size=3).map(lambda lines: [*lines, ""])
    lines = draw(st.lists(st.one_of(blank_line, docstart_line), max_size=2))
    for tokens in sentences:
        lines += [" ".join((t.text, *t.extras, t.tag)) for t in tokens]
        lines += draw(separator)
    return "\n".join(lines), sentences


@settings(max_examples=200)
@given(conll_documents())
def test_parse_write_round_trip_with_middle_columns(document):
    text, sentences = document
    corpus = parse_conll(text)
    assert corpus == Corpus(tuple(map(Sentence, sentences)))
    assert [s.tokens for s in corpus] == sentences
    assert [hash(s) for s in corpus] == [hash(Sentence(tokens)) for tokens in sentences]
    written = write_conll(corpus)
    assert written == "".join("\n".join(" ".join((t.text, *t.extras, t.tag)) for t in tokens) + "\n\n" for tokens in sentences)[:-1]
    assert parse_conll(written) == corpus


FOUR_COLUMNS = "Rom NNP I-NP B-LOC\nblev VB I-VP O\nbygget VB I-VP O\n\nElvis NNP I-NP B-PER\n"


def test_sentence_of_tokens_equals_parsed_sentence():
    parsed = parse_conll(FOUR_COLUMNS).sentences[0]
    tokens = (Token("Rom", "B-LOC", ("NNP", "I-NP")), Token("blev", "O", ("VB", "I-VP")), Token("bygget", "O", ("VB", "I-VP")))
    built = Sentence(tokens)
    assert built == parsed and hash(built) == hash(parsed)
    assert (built.texts, built.tags, built.extras) == (("Rom", "blev", "bygget"), ("B-LOC", "O", "O"), (("NNP", "I-NP"), ("VB", "I-VP"), ("VB", "I-VP")))
    assert built.tokens == tokens and list(built) == list(tokens)
    assert all(type(t) is Token for t in built.tokens)
    assert len(built) == 3
    assert built != parsed.with_tags(("B-LOC", "O", "B-PER")) and built != tokens


def test_parsed_tokens_share_texts_tags_and_middle_columns():
    first, second = parse_conll(FOUR_COLUMNS + "\nblev VB I-VP O\nRom NNP I-NP B-LOC\n").sentences[::2]
    assert first.texts[1] is second.texts[0] and first.texts[0] is second.texts[1]
    assert first.extras[1] is first.extras[2] is second.extras[0]
    assert all(tag is TAGS[TAGS.index(tag)] for tag in first.tags + second.tags)


@pytest.mark.parametrize("protocol", [2, 5])
def test_pickle_round_trip(protocol):
    corpus = parse_conll(FOUR_COLUMNS + "\nen O\n", language="da")
    loaded = pickle.loads(pickle.dumps(corpus, protocol=protocol))
    assert loaded == corpus and loaded.language == "da"
    assert [type(s) for s in loaded] == [Sentence] * 3
    assert [hash(s) for s in loaded] == [hash(s) for s in corpus]


def test_with_tags_shares_texts_and_extras():
    sentence = parse_conll(FOUR_COLUMNS).sentences[0]
    retagged = sentence.with_tags(["B-PER", "I-PER", "O"])
    assert retagged.texts is sentence.texts and retagged.extras is sentence.extras
    assert retagged.tags == ("B-PER", "I-PER", "O")
    with pytest.raises(ValueError, match="^tag sequence length mismatch$"):
        sentence.with_tags(["O", "O"])
    with pytest.raises(ValueError, match="^unknown tag 'B-GPE'$"):
        sentence.with_tags(["O", "B-GPE", "O"])


@pytest.mark.parametrize("name", ["texts", "tags", "extras", "tokens", "other"])
def test_sentence_is_immutable(name):
    sentence = parse_conll(FOUR_COLUMNS).sentences[0]
    with pytest.raises(FrozenInstanceError):
        setattr(sentence, name, ())
    with pytest.raises(FrozenInstanceError):
        delattr(sentence, name)
    assert sentence == parse_conll(FOUR_COLUMNS).sentences[0]


@dataclass(frozen=True)
class TokenSentence:
    """The layout sentences had before they were columnar: a tuple of one
    Token object per token."""

    tokens: tuple


def token_object_parse(text):
    """parse_conll into that layout, one fresh Token per line."""
    sentences, current = [], []
    for line in text.split("\n"):
        fields = line.split()
        if not fields:
            if current:
                sentences.append(TokenSentence(tuple(current)))
                current = []
            continue
        current.append(Token(fields[0], fields[-1], tuple(fields[1:-1])))
    if current:
        sentences.append(TokenSentence(tuple(current)))
    return tuple(sentences)


def retained_bytes(parse, text):
    """Bytes still allocated, by tracemalloc, once parse(text) returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse(text)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del parsed
    return after - before


def test_parsed_corpus_retains_at_most_two_thirds_of_token_objects_bytes():
    corpus = make_twin_languages(seed=3, n_src_train=1000).src_train
    text = write_conll(corpus)
    tokens = sum(map(len, corpus))
    columnar = retained_bytes(parse_conll, text) / tokens
    token_objects = retained_bytes(token_object_parse, text) / tokens
    assert columnar <= 2 / 3 * token_objects, (columnar, token_objects)


def test_read_conll_peak_is_bounded_by_the_parsed_corpus(tmp_path):
    # read_conll parses its file a line at a time: neither the whole text
    # nor a list of its lines is held while the corpus is built.
    corpus = make_twin_languages(seed=3, n_src_train=1000).src_train
    path = tmp_path / "train.conll"
    path.write_text(write_conll(corpus), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        parsed = read_conll(path, corpus.language)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == corpus
    assert peak <= 1.25 * retained + 64 * 1024, (peak, retained)


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


def test_convert_keeps_unrepaired_sentences():
    corpus = make_corpus(
        [("Hans", "I-PER"), ("Jensen", "I-PER")],
        [("EU", "B-ORG"), ("og", "O")],
        [("Rom", "O")],
        [("EU", "I-ORG"), ("Rom", "I-LOC")],
    )
    converted = convert_corpus_iob1_to_bio2(corpus)
    assert converted.language == corpus.language
    assert [s is c for s, c in zip(converted, corpus, strict=True)] == [False, True, True, False]
    assert [s.tags for s in converted] == [repair_bio(s.tags)[0] for s in corpus]


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
    assert sum(map(len, sliced)) == 8
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
