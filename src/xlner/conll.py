"""CoNLL-format NER corpora: parsing, the BIO2 rule and everything built on
it (validation, conlleval-style repair, which doubles as IOB1 -> BIO2
conversion, and span extraction), statistics and inter-annotator
agreement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
# Fixed 9-label BIO2 alphabet, O first.
TAGS = ("O",) + tuple(f"{p}-{t}" for t in ENTITY_TYPES for p in ("B", "I"))
TAG_SET = frozenset(TAGS)

DOCSTART = "-DOCSTART-"


class ConllError(Exception):
    pass


class ParseError(ConllError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TagError(ParseError):
    pass


def _split_tag(tag: str) -> tuple[str, str]:
    """Return (prefix, type); O maps to ('O', '')."""
    if tag == "O":
        return "O", ""
    prefix, _, etype = tag.partition("-")
    return prefix, etype


@dataclass(frozen=True)
class Token:
    text: str
    tag: str
    # Middle columns (POS, chunk, ...) kept opaquely for round-tripping.
    extras: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.text or any(c.isspace() for c in self.text):
            raise ValueError(f"token text must be non-empty and whitespace-free: {self.text!r}")
        if self.tag not in TAG_SET:
            raise ValueError(f"unknown tag {self.tag!r}")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must be non-empty")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t.tag for t in self.tokens)

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(t.text for t in self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def with_tags(self, tags: Sequence[str]) -> "Sentence":
        if len(tags) != len(self.tokens):
            raise ValueError("tag sequence length mismatch")
        return Sentence(tuple(Token(t.text, tag, t.extras) for t, tag in zip(self.tokens, tags)))


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    language: str = ""

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    @property
    def num_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class BioViolation:
    position: int
    kind: str  # "orphan-I" or "type-mismatch-I"


def parse_conll(text: str, language: str = "") -> Corpus:
    """Parse one-token-per-line CoNLL text; tag is the last column, blank
    lines separate sentences, -DOCSTART- lines are dropped."""
    sentences: list[Sentence] = []
    current: list[Token] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            if current:
                sentences.append(Sentence(tuple(current)))
                current = []
            continue
        fields = line.split()
        if fields[0] == DOCSTART:
            continue
        if len(fields) < 2:
            raise ParseError(f"expected at least 2 columns, got {len(fields)}", lineno)
        text_col, tag = fields[0], fields[-1]
        if tag not in TAG_SET:
            raise TagError(f"unknown tag {tag!r}", lineno)
        current.append(Token(text_col, tag, tuple(fields[1:-1])))
    if current:
        sentences.append(Sentence(tuple(current)))
    return Corpus(tuple(sentences), language)


def write_conll(corpus: Corpus) -> str:
    """Inverse of parse_conll: space-separated columns, blank line between
    sentences, trailing newline (empty corpus writes the empty string)."""
    if not corpus.sentences:
        return ""
    blocks = []
    for sentence in corpus:
        blocks.append("\n".join(" ".join((t.text, *t.extras, t.tag)) for t in sentence))
    return "\n\n".join(blocks) + "\n"


def read_conll(path, language: str = "") -> Corpus:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConllError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return parse_conll(text, language)
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def bio_violation(prev: str, tag: str) -> Optional[str]:
    """The BIO2 rule for one adjacent pair of tags: an I-X must follow a
    B-X or an I-X. Returns "orphan-I" for an I-X after O, "type-mismatch-I"
    for an I-X after a tag of another type, else None. A sentence start
    counts as prev = "O"."""
    if not tag.startswith("I-"):
        return None
    if prev == "O":
        return "orphan-I"
    return None if prev[2:] == tag[2:] else "type-mismatch-I"


def validate_bio(tags: Sequence[str]) -> list[BioViolation]:
    """Every BIO2 violation of a tag sequence, in order."""
    return [
        BioViolation(i, kind)
        for i, (prev, tag) in enumerate(zip(("O", *tags), tags))
        if (kind := bio_violation(prev, tag))
    ]


def repair_bio(tags: Sequence[str]) -> tuple[tuple[str, ...], int]:
    """Turn every violating I-X into B-X (conlleval tolerance).
    Returns (repaired tags, number of repairs). The same rewrite converts
    IOB1 to BIO2 without changing its spans: IOB1 opens an entity with I-X
    unless it directly follows a tag of the same type."""
    out = list(tags)
    violations = validate_bio(tags)
    for v in violations:
        out[v.position] = "B-" + _split_tag(tags[v.position])[1]
    return tuple(out), len(violations)


def convert_corpus_iob1_to_bio2(corpus: Corpus) -> Corpus:
    return Corpus(tuple(s.with_tags(repair_bio(s.tags)[0]) for s in corpus), corpus.language)


def extract_sentence_spans(tags: Sequence[str]) -> set[tuple[int, int, str]]:
    """Maximal B-initiated runs of a tag sequence as (start, end, label)
    triples with inclusive bounds. The tags must be BIO2-valid, which is
    not checked here: callers validate (validate_bio) or repair
    (repair_bio) them first."""
    spans = set()
    start = None
    etype = ""
    for i, tag in enumerate(tags):
        prefix, ttype = _split_tag(tag)
        if prefix != "I" and start is not None:
            spans.add((start, i - 1, etype))
            start = None
        if prefix == "B":
            start, etype = i, ttype
    if start is not None:
        spans.add((start, len(tags) - 1, etype))
    return spans


@dataclass(frozen=True)
class StatsReport:
    sentences: int
    tokens: int
    types: int  # distinct case-sensitive surface forms
    ttr: Optional[float]  # None for an empty corpus
    sentences_with_ne: int
    sentences_with_ne_pct: Optional[float]
    entities: int


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Size and entity counts of a BIO2 corpus; the first BIO2 violation
    is a ConllError naming its sentence and token."""
    tokens = 0
    forms = set()
    with_ne = 0
    entities = 0
    for si, sentence in enumerate(corpus):
        bad = validate_bio(sentence.tags)
        if bad:
            raise ConllError(
                f"sentence {si} token {bad[0].position}: {bad[0].kind}"
                " (not BIO2; convert IOB1 input with xlner convert)"
            )
        tokens += len(sentence)
        forms.update(sentence.texts)
        spans = extract_sentence_spans(sentence.tags)
        entities += len(spans)
        if spans:
            with_ne += 1
    n_sent = len(corpus)
    return StatsReport(
        sentences=n_sent,
        tokens=tokens,
        types=len(forms),
        ttr=len(forms) / tokens if tokens else None,
        sentences_with_ne=with_ne,
        sentences_with_ne_pct=with_ne / n_sent if n_sent else None,
        entities=entities,
    )


def take_first_tokens(corpus: Corpus, n: int) -> Corpus:
    """Whole-sentence prefix: include sentences in order while the running
    token count stays <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    kept = []
    total = 0
    for sentence in corpus:
        if total + len(sentence) > n:
            break
        kept.append(sentence)
        total += len(sentence)
    return Corpus(tuple(kept), corpus.language)


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    p_o: float
    p_e: float
    items: int
    degenerate: bool = False  # p_e == 1: agreement is trivially perfect


def cohen_kappa(a: Sequence[str], b: Sequence[str]) -> KappaResult:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e) with p_e from
    per-annotator label marginals."""
    if len(a) != len(b):
        raise ValueError(f"assignment length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise ValueError("no items to compare")
    p_o = sum(x == y for x, y in zip(a, b)) / n
    labels = set(a) | set(b)
    p_e = sum((list(a).count(l) / n) * (list(b).count(l) / n) for l in labels)
    if p_e >= 1.0 - 1e-15:
        return KappaResult(1.0, p_o, 1.0, n, degenerate=True)
    return KappaResult((p_o - p_e) / (1.0 - p_e), p_o, p_e, n)


def entity_kappa(a: Corpus, b: Corpus) -> KappaResult:
    """Agreement restricted to tokens either annotator marked as part of an
    entity; items carry the entity type (or O for the non-marking side)."""
    if len(a) != len(b):
        raise ValueError("corpora differ in sentence count")
    items_a: list[str] = []
    items_b: list[str] = []
    for si, (sa, sb) in enumerate(zip(a, b)):
        if sa.texts != sb.texts:
            raise ValueError(f"sentence {si}: token texts differ")
        for ta, tb in zip(sa.tags, sb.tags):
            if ta == "O" and tb == "O":
                continue
            items_a.append(_split_tag(ta)[1] or "O")
            items_b.append(_split_tag(tb)[1] or "O")
    return cohen_kappa(items_a, items_b)
