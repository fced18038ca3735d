"""Exact-match span precision/recall/F1 in the CoNLL style, scored straight
from each sentence's tags (predictions repaired by conll.repair_bio, as
conlleval reads them), per-type breakdown, the per-token majority
baseline, and multi-run aggregation."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

from .conll import ENTITY_TYPES, Corpus, extract_sentence_spans, repair_bio, validate_bio


def _prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    p = 100.0 * correct / predicted if predicted else 0.0
    r = 100.0 * correct / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass(frozen=True)
class TypeScores:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    correct: int


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    correct: int
    repairs: int  # BIO2 fixes applied to the prediction before scoring
    per_type: dict[str, TypeScores]


def evaluate(gold: Corpus, pred: Corpus) -> EvalReport:
    """Exact (sentence, start, end, label) span matching, micro-averaged.
    Predictions failing BIO2 validation are repaired first (orphan/mismatched
    I becomes B), matching conlleval's tolerance."""
    if len(gold) != len(pred):
        raise ValueError(f"sentence count mismatch: gold {len(gold)} vs pred {len(pred)}")
    gold_spans: set[tuple[int, int, int, str]] = set()  # (sentence, start, end, label)
    pred_spans: set[tuple[int, int, int, str]] = set()
    gold_violations = repairs = 0
    for si, (gs, ps) in enumerate(zip(gold, pred)):
        if gs.texts != ps.texts:
            raise ValueError(f"sentence {si}: token texts differ between gold and pred")
        gold_violations += len(validate_bio(gs.tags))
        tags, n = repair_bio(ps.tags)
        repairs += n
        if not gold_violations:
            gold_spans.update((si, *span) for span in extract_sentence_spans(gs.tags))
        pred_spans.update((si, *span) for span in extract_sentence_spans(tags))
    if gold_violations:
        raise ValueError(f"gold corpus is not BIO2-valid ({gold_violations} violations)")

    correct_spans = gold_spans & pred_spans
    g, p, c = (Counter(label for *_, label in spans) for spans in (gold_spans, pred_spans, correct_spans))
    prec, rec, f1 = _prf(len(correct_spans), len(pred_spans), len(gold_spans))
    return EvalReport(
        precision=prec,
        recall=rec,
        f1=f1,
        gold=len(gold_spans),
        predicted=len(pred_spans),
        correct=len(correct_spans),
        repairs=repairs,
        per_type={
            t: TypeScores(*_prf(c[t], p[t], g[t]), gold=g[t], predicted=p[t], correct=c[t])
            for t in ENTITY_TYPES
        },
    )


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float  # sample standard deviation; 0 for a single report


@dataclass(frozen=True)
class AggregateReport:
    runs: int
    precision: MetricSummary
    recall: MetricSummary
    f1: MetricSummary
    per_type_f1: dict[str, MetricSummary]


def _summary(values: Sequence[float]) -> MetricSummary:
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    return MetricSummary(mean, std)


def aggregate(reports: Sequence[EvalReport]) -> AggregateReport:
    """Mean and sample std of every headline metric over repeated runs."""
    if not reports:
        raise ValueError("no reports to aggregate")
    return AggregateReport(
        runs=len(reports),
        precision=_summary([r.precision for r in reports]),
        recall=_summary([r.recall for r in reports]),
        f1=_summary([r.f1 for r in reports]),
        per_type_f1={
            t: _summary([r.per_type[t].f1 for r in reports]) for t in ENTITY_TYPES
        },
    )


def majority_baseline(train: Corpus, corpus: Corpus) -> Corpus:
    """Tag each token with its most frequent training tag; ties and unseen
    words map to O, then BIO2 repair guarantees valid output."""
    if not len(train):
        raise ValueError("train corpus is empty")
    counts: dict[str, Counter] = defaultdict(Counter)
    for sentence in train:
        for text, tag in zip(sentence.texts, sentence.tags):
            counts[text][tag] += 1
    lexicon = {}
    for word, tag_counts in counts.items():
        best = tag_counts.most_common()
        if len(best) > 1 and best[0][1] == best[1][1]:
            lexicon[word] = "O"
        else:
            lexicon[word] = best[0][0]
    tagged = []
    for sentence in corpus:
        tags = [lexicon.get(text, "O") for text in sentence.texts]
        tagged.append(sentence.with_tags(repair_bio(tags)[0]))
    return Corpus(tuple(tagged), corpus.language)


def render_report(report: EvalReport) -> str:
    """conlleval-like table; types with no gold and no predicted spans
    render as ---."""
    lines = [
        f"processed: gold {report.gold} spans, predicted {report.predicted} spans, "
        f"correct {report.correct}; BIO repairs {report.repairs}",
        f"overall  precision {report.precision:6.2f}  recall {report.recall:6.2f}  "
        f"F1 {report.f1:6.2f}",
    ]
    for etype in ENTITY_TYPES:
        s = report.per_type[etype]
        if s.gold == 0 and s.predicted == 0:
            lines.append(f"{etype:<8} ---")
        else:
            lines.append(
                f"{etype:<8} precision {s.precision:6.2f}  recall {s.recall:6.2f}  "
                f"F1 {s.f1:6.2f}  ({s.correct}/{s.predicted} pred, {s.gold} gold)"
            )
    return "\n".join(lines)
