from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlner.conll import ENTITY_TYPES, TAGS, Corpus, Sentence, Token
from xlner.evaluation import (
    aggregate,
    evaluate,
    majority_baseline,
    render_report,
)

from conftest import _scan_spans_iob1, bio2_tags, corpora, make_corpus


def retagged(gold, tags_per_sentence):
    return Corpus(
        tuple(s.with_tags(t) for s, t in zip(gold, tags_per_sentence)),
        gold.language,
    )


# ------------------------------------------------------------------ evaluate


def test_perfect_prediction(example_corpus):
    report = evaluate(example_corpus, example_corpus)
    assert (report.precision, report.recall, report.f1) == (100.0, 100.0, 100.0)


def test_boundary_error_counts_fully_wrong():
    gold = make_corpus([("Sankt", "B-LOC"), ("Petersborg", "O")])
    pred = retagged(gold, [["B-LOC", "I-LOC"]])
    report = evaluate(gold, pred)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
    assert report.gold == 1 and report.predicted == 1 and report.correct == 0


def test_half_right_prediction():
    gold = make_corpus(
        [("Rom", "B-LOC"), ("og", "O"), ("Elvis", "B-PER"), ("sang", "O")]
    )
    pred = retagged(gold, [["B-LOC", "O", "O", "B-PER"]])
    report = evaluate(gold, pred)
    assert report.precision == 50.0
    assert report.recall == 50.0
    assert report.f1 == 50.0


def test_per_type_counts_sum_to_overall():
    gold = make_corpus(
        [("Rom", "B-LOC"), ("Elvis", "B-PER"), ("Sun", "B-MISC"), ("Records", "I-MISC")]
    )
    pred = retagged(gold, [["B-LOC", "B-LOC", "B-MISC", "I-MISC"]])
    report = evaluate(gold, pred)
    assert sum(s.correct for s in report.per_type.values()) == report.correct
    assert sum(s.gold for s in report.per_type.values()) == report.gold
    assert sum(s.predicted for s in report.per_type.values()) == report.predicted
    # micro scores recomputable from the counts
    assert report.precision == pytest.approx(100.0 * report.correct / report.predicted)
    assert report.recall == pytest.approx(100.0 * report.correct / report.gold)


def test_structure_mismatch_reports_sentence():
    gold = make_corpus([("a", "O")], [("b", "O")])
    pred = make_corpus([("a", "O")], [("c", "O")])
    with pytest.raises(ValueError, match="sentence 1"):
        evaluate(gold, pred)


def test_invalid_pred_is_repaired_and_counted():
    gold = make_corpus([("a", "O"), ("b", "O")])
    pred = retagged(gold, [["O", "I-PER"]])  # orphan I
    report = evaluate(gold, pred)
    assert report.repairs == 1
    assert report.predicted == 1  # repaired into a B-PER span


@given(corpora(max_sentences=3))
def test_self_evaluation_is_perfect(corpus):
    report = evaluate(corpus, corpus)
    if report.gold:
        assert (report.precision, report.recall, report.f1) == (100.0, 100.0, 100.0)
    else:
        assert report.correct == 0


def test_spurious_span_lowers_precision_not_recall():
    gold = make_corpus([("Rom", "B-LOC"), ("x", "O"), ("y", "O")])
    exact = evaluate(gold, gold)
    spurious = evaluate(gold, retagged(gold, [["B-LOC", "O", "B-PER"]]))
    assert spurious.precision < exact.precision
    assert spurious.recall == exact.recall


def test_label_renaming_permutes_rows():
    gold = make_corpus([("a", "B-PER"), ("b", "B-LOC"), ("c", "O")])
    pred = retagged(gold, [["B-PER", "B-ORG", "O"]])
    swap = {"PER": "LOC", "LOC": "PER", "ORG": "MISC", "MISC": "ORG"}

    def rename(corpus):
        return Corpus(
            tuple(
                s.with_tags(
                    [
                        t if t == "O" else t[:2] + swap[t[2:]]
                        for t in s.tags
                    ]
                )
                for s in corpus
            )
        )

    a = evaluate(gold, pred)
    b = evaluate(rename(gold), rename(pred))
    assert a.f1 == b.f1
    for etype in ENTITY_TYPES:
        x, y = a.per_type[etype], b.per_type[swap[etype]]
        assert (x.precision, x.recall, x.f1) == (y.precision, y.recall, y.f1)


@st.composite
def gold_and_predicted_tags(draw, max_sentences=3):
    """BIO2 gold tag sequences, each paired with any tag sequence of its
    length."""
    pairs = []
    for gold_tags in draw(st.lists(bio2_tags(), max_size=max_sentences)):
        n = len(gold_tags)
        pairs.append((gold_tags, draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n))))
    return pairs


def _broken_continuations(tags):
    """I-X tags that do not continue a B-X or I-X."""
    count = 0
    for i, tag in enumerate(tags):
        if tag.startswith("I-"):
            prev = tags[i - 1] if i else "O"
            count += prev == "O" or prev.split("-")[1] != tag.split("-")[1]
    return count


@given(gold_and_predicted_tags())
def test_evaluate_matches_conlleval_scanner(pairs):
    gold = make_corpus(*[[(f"w{i}", tag) for i, tag in enumerate(g)] for g, _ in pairs])
    report = evaluate(gold, retagged(gold, [p for _, p in pairs]))
    gold_spans = {(si, *span) for si, (g, _) in enumerate(pairs) for span in _scan_spans_iob1(g)}
    pred_spans = {(si, *span) for si, (_, p) in enumerate(pairs) for span in _scan_spans_iob1(p)}
    correct = gold_spans & pred_spans
    assert (report.gold, report.predicted, report.correct) == (len(gold_spans), len(pred_spans), len(correct))
    for etype in ENTITY_TYPES:
        scores = report.per_type[etype]
        assert (scores.gold, scores.predicted, scores.correct) == tuple(
            sum(label == etype for *_, label in spans) for spans in (gold_spans, pred_spans, correct)
        )
    assert report.repairs == sum(_broken_continuations(p) for _, p in pairs)


# ----------------------------------------------------------------- aggregate


def _report_with_f1(f1):
    gold = make_corpus([("Rom", "B-LOC"), ("x", "O")])
    return replace(evaluate(gold, gold), precision=f1, recall=f1, f1=f1)


def test_aggregate_single():
    summary = aggregate([_report_with_f1(70.0)])
    assert summary.f1.mean == 70.0
    assert summary.f1.std == 0.0


def test_aggregate_hand_case():
    summary = aggregate([_report_with_f1(f) for f in (60.0, 70.0, 80.0)])
    assert summary.f1.mean == pytest.approx(70.0)
    assert summary.f1.std == pytest.approx(10.0)


def test_aggregate_permutation_invariant():
    a = aggregate([_report_with_f1(f) for f in (60.0, 70.0, 80.0)])
    b = aggregate([_report_with_f1(f) for f in (80.0, 60.0, 70.0)])
    assert a.f1 == b.f1 and a.precision == b.precision


def test_aggregate_empty():
    with pytest.raises(ValueError):
        aggregate([])


# ------------------------------------------------------------------ majority


def test_majority_tags_known_words():
    train = make_corpus([("Elvis", "B-PER"), ("sang", "O")], [("Elvis", "B-PER")])
    out = majority_baseline(train, make_corpus([("Elvis", "O"), ("sang", "O")]))
    assert out.sentences[0].tags == ("B-PER", "O")


def test_majority_unseen_is_outside():
    train = make_corpus([("Elvis", "B-PER")])
    out = majority_baseline(train, make_corpus([("Ukendt", "O")]))
    assert out.sentences[0].tags == ("O",)


def test_majority_tie_is_outside():
    train = make_corpus([("bold", "B-MISC")], [("bold", "B-ORG")])
    out = majority_baseline(train, make_corpus([("bold", "O")]))
    assert out.sentences[0].tags == ("O",)


def test_majority_misses_untrained_types_entirely():
    # dominant PER name in training; LOC/ORG never seen: their recall is 0
    train = make_corpus(*[[("Elvis", "B-PER"), ("sang", "O")]] * 5)
    gold = make_corpus(
        [("Elvis", "B-PER"), ("i", "O"), ("Rom", "B-LOC")],
        [("Fiat", "B-ORG"), ("og", "O"), ("Elvis", "B-PER")],
    )
    report = evaluate(gold, majority_baseline(train, gold))
    assert report.per_type["PER"].recall == 100.0
    assert report.per_type["LOC"].recall == 0.0
    assert report.per_type["ORG"].recall == 0.0


def test_majority_output_is_bio2_valid():
    from xlner.conll import validate_bio

    train = make_corpus([("a", "I-PER")])  # majority tag would be an orphan I
    out = majority_baseline(train, make_corpus([("a", "O"), ("a", "O")]))
    for sentence in out:
        assert validate_bio(sentence.tags) == []


# ----------------------------------------------------------------- rendering


def test_render_marks_absent_types():
    gold = make_corpus([("Rom", "B-LOC")])
    text = render_report(evaluate(gold, gold))
    assert "MISC     ---" in text
    assert "overall" in text
