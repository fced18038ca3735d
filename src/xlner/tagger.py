"""BiLSTM-CRF tagger: character and word BiLSTM encoders over trainable
embeddings with hand-written numpy forward and backward passes, CRF
training by forward-backward, batched inference (the char-BiLSTM once per
distinct word, the word-BiLSTM and Viterbi over batches of length-sorted
sentences) with optional BIO2 transition constraints, SGD with sparse
word-embedding updates and early stopping; the `key = value`
tagger-option parser that `xlner train` and experiment configs share;
checked model files."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, Optional, Sequence

import numpy as np

from .conll import TAGS, Corpus, Sentence, bio_violation
from .crf import crf_nll_grad, viterbi_decode
from .embeddings import EmbeddingTable, word_form
from .lstm import lstm_backward, lstm_final_states, lstm_forward
from .serialize import ContainerError, read_container, require_keys, write_container

UNK = "<unk>"
MODEL_MAGIC = b"XLNMDL1\x00"


class TrainingError(Exception):
    pass


@dataclass
class TaggerConfig:
    word_emb_dim: int = 64
    word_lstm_dim: int = 50
    char_emb_dim: int = 50
    char_lstm_dim: int = 50  # per direction
    dropout: float = 0.25
    learning_rate: float = 0.1
    max_epochs: int = 50
    patience: int = 5
    seed: int = 1
    batch_size: int = 1
    constrain_decode: bool = True
    unk_word_dropout: bool = False  # singleton words -> UNK with p=0.5 in training

    def __post_init__(self):
        for name in ("word_emb_dim", "word_lstm_dim", "char_emb_dim", "char_lstm_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        for name, low in (("max_epochs", 0), ("patience", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def option_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each `key = value` line of text;
    `#` starts a comment, blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def tagger_option(name: str, value: str):
    """The text value of TaggerConfig option `name`, coerced to the type of
    its default and range-checked on its own, so that callers can name the
    option's line. Booleans are true/false, yes/no or 1/0 in any case."""
    defaults = {f.name: f.default for f in fields(TaggerConfig)}
    if name not in defaults:
        raise ValueError(f"unknown tagger option {name!r}")
    kind = type(defaults[name])
    if kind is not bool:
        coerced = kind(value)
    elif value.lower() in _BOOLEANS:
        coerced = _BOOLEANS[value.lower()]
    else:
        raise ValueError(f"tagger option {name!r} wants true/false/yes/no/1/0, got {value!r}")
    TaggerConfig(**{name: coerced})  # range-checks this option alone
    return coerced


def parse_tagger_config(text: str, seed: int) -> TaggerConfig:
    """A TaggerConfig from `key = value` option lines, each key optionally
    prefixed `tagger.`; seed applies unless the text sets it. Unknown keys
    and malformed values are errors naming their line."""
    kwargs = {"seed": seed}
    for lineno, key, value in option_lines(text):
        name = key.removeprefix("tagger.")
        try:
            kwargs[name] = tagger_option(name, value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return TaggerConfig(**kwargs)


@dataclass(frozen=True)
class Vocab:
    words: dict[str, int]  # UNK at index 0
    chars: dict[str, int]  # UNK at index 0
    tags: tuple[str, ...] = TAGS

    @property
    def num_words(self) -> int:
        return len(self.words)

    @property
    def num_chars(self) -> int:
        return len(self.chars)

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    def word_id(self, word: str) -> int:
        form = word_form(self.words, word)
        return self.words[UNK if form is None else form]

    def char_id(self, char: str) -> int:
        return self.chars.get(char, self.chars[UNK])

    def tag_id(self, tag: str) -> int:
        return self.tags.index(tag)


def build_vocab(corpora: Sequence[Corpus], embeddings: Optional[EmbeddingTable] = None) -> Vocab:
    """Word vocab: all training words (first corpus) plus words from the
    remaining corpora that the embedding table covers. Char vocab from
    training characters. Tag vocab is the fixed 9-label BIO2 set."""
    if not corpora:
        raise ValueError("need at least one corpus")
    words = set()
    chars = set()
    for sentence in corpora[0]:
        for token in sentence:
            words.add(token.text)
            chars.update(token.text)
    if embeddings is not None and len(embeddings):
        for corpus in corpora[1:]:
            for sentence in corpus:
                for token in sentence:
                    if word_form(embeddings.vectors, token.text) is not None:
                        words.add(token.text)
    word_map = {UNK: 0}
    for w in sorted(words):
        word_map.setdefault(w, len(word_map))
    char_map = {UNK: 0}
    for c in sorted(chars):
        char_map.setdefault(c, len(char_map))
    return Vocab(word_map, char_map)


def _uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    limit = np.sqrt(3.0 / fan_in)
    return rng.uniform(-limit, limit, shape)


def _param_shapes(config: TaggerConfig, vocab: Vocab) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's shape, in the order init_params draws them."""
    dw, dc = config.word_emb_dim, config.char_emb_dim
    hc, hw = config.char_lstm_dim, config.word_lstm_dim
    k = vocab.num_tags
    shapes = {"word_emb": (vocab.num_words, dw), "char_emb": (vocab.num_chars, dc)}
    for layer, n_in, h in (("char", dc, hc), ("word", dw + 2 * hc, hw)):
        for direction in ("fwd", "bwd"):
            shapes[f"{layer}_{direction}_wx"] = (n_in, 4 * h)
            shapes[f"{layer}_{direction}_wh"] = (h, 4 * h)
            shapes[f"{layer}_{direction}_b"] = (4 * h,)
    shapes["proj_w"] = (2 * hw, k)
    shapes["proj_b"] = (k,)
    shapes["transitions"] = (k + 2, k + 2)
    return shapes


def init_params(
    config: TaggerConfig,
    vocab: Vocab,
    pretrained: Optional[EmbeddingTable] = None,
) -> dict[str, np.ndarray]:
    """Seeded uniform(-sqrt(3/fan_in), +sqrt(3/fan_in)) weights, zero
    biases; pretrained rows overwrite matching word embedding rows."""
    if pretrained is not None and len(pretrained) and pretrained.dim != config.word_emb_dim:
        raise ValueError(
            f"pretrained dim {pretrained.dim} != word_emb_dim {config.word_emb_dim}"
        )
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in _param_shapes(config, vocab).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            # embedding rows are indexed, so their fan-in is the row width
            fan_in = shape[1] if name.endswith("_emb") else shape[0]
            params[name] = _uniform(rng, shape, fan_in)

    if pretrained is not None and len(pretrained):
        for word, idx in vocab.words.items():
            if word == UNK:
                continue
            form = word_form(pretrained.vectors, word)
            if form is not None:
                params["word_emb"][idx] = pretrained.vectors[form]
    return params


@dataclass
class Tagger:
    config: TaggerConfig
    vocab: Vocab
    params: dict[str, np.ndarray]


def _stacked(params: dict[str, np.ndarray], layer: str) -> tuple[np.ndarray, ...]:
    """A BiLSTM layer's weights with the direction (fwd, bwd) as axis 0."""
    return tuple(
        np.stack([params[f"{layer}_fwd_{name}"], params[f"{layer}_bwd_{name}"]])
        for name in ("wx", "wh", "b")
    )


def _char_ids(vocab: Vocab, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Char ids (2, longest text, len(texts)) and lengths (len(texts),):
    text j's k-th char sits at step k of column j, forwards in [0] and
    backwards in [1], each column padded at its end."""
    lengths = np.array([len(text) for text in texts], dtype=np.intp)
    col = np.repeat(np.arange(len(texts)), lengths)
    step = np.arange(len(col)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    chars = [vocab.char_id(c) for text in texts for c in text]
    char_ids = np.zeros((2, lengths.max(initial=0), len(texts)), dtype=np.intp)
    char_ids[0, step, col] = chars
    char_ids[1, lengths[col] - 1 - step, col] = chars
    return char_ids, lengths


def _forward(
    params: dict[str, np.ndarray],
    vocab: Vocab,
    sentence: Sentence,
    word_ids: Sequence[int],
    dropout_mask: Optional[np.ndarray],
):
    """Emissions (len(sentence), num_tags) and the cache _backward needs.
    The char-BiLSTM runs over all tokens at once as a (max_chars, tokens)
    batch, each token's chars padded at their end in both directions, and
    each token's final state is read at its own length; dropout_mask, if
    given, scales the token representations."""
    char_ids, lengths = _char_ids(vocab, sentence.texts)
    char_w = _stacked(params, "char")
    char_cache = lstm_forward(params["char_emb"][char_ids], *char_w)
    char_final = char_cache[2][:, lengths, np.arange(len(lengths))]  # (dirs, tokens, char_lstm_dim)

    reps = np.concatenate([params["word_emb"][word_ids], char_final[0], char_final[1]], axis=1)
    if dropout_mask is not None:
        reps = reps * dropout_mask
    word_w = _stacked(params, "word")
    word_cache = lstm_forward(np.stack([reps, reps[::-1]])[:, :, None, :], *word_w)
    hs = word_cache[2][:, 1:, 0]
    feats = np.concatenate([hs[0], hs[1][::-1]], axis=1)
    emissions = feats @ params["proj_w"] + params["proj_b"]
    return emissions, (char_ids, lengths, char_w, char_cache, dropout_mask, word_w, word_cache, feats)


def _backward(
    params: dict[str, np.ndarray], cache, d_emissions: np.ndarray, grads: dict[str, np.ndarray]
) -> np.ndarray:
    """Accumulate one sentence's gradients into grads (every tensor but
    word_emb) and return the gradient of its word_emb rows, one per token."""
    char_ids, lengths, char_w, char_cache, dropout_mask, word_w, word_cache, feats = cache
    grads["proj_w"] += feats.T @ d_emissions
    grads["proj_b"] += d_emissions.sum(axis=0)
    d_feats = d_emissions @ params["proj_w"].T
    hw = d_feats.shape[1] // 2
    d_hs = np.stack([d_feats[:, :hw], d_feats[::-1, hw:]])[:, :, None, :]
    d_xs, *d_word_w = lstm_backward(word_cache, d_hs, *word_w[:2])
    d_reps = d_xs[0, :, 0] + d_xs[1, ::-1, 0]
    if dropout_mask is not None:
        d_reps = d_reps * dropout_mask

    dw = params["word_emb"].shape[1]
    hc = char_w[1].shape[1]
    d_char_hs = np.zeros((*char_ids.shape, hc))
    d_final = np.stack([d_reps[:, dw : dw + hc], d_reps[:, dw + hc :]])
    d_char_hs[:, lengths - 1, np.arange(len(lengths))] = d_final
    d_chars, *d_char_w = lstm_backward(char_cache, d_char_hs, *char_w[:2])
    real = np.broadcast_to(np.arange(char_ids.shape[1])[:, None] < lengths, char_ids.shape)
    np.add.at(grads["char_emb"], char_ids[real], d_chars[real])
    for layer, d_w in (("char", d_char_w), ("word", d_word_w)):
        for name, d in zip(("wx", "wh", "b"), d_w):
            grads[f"{layer}_fwd_{name}"] += d[0]
            grads[f"{layer}_bwd_{name}"] += d[1]
    return d_reps[:, :dw]


def _dropout_mask(config: TaggerConfig, rng: np.random.Generator, n_tokens: int) -> Optional[np.ndarray]:
    """Inverted-dropout mask over token representations; one draw per
    sentence, the same stream as one rng.random(rep_dim) per token."""
    if config.dropout <= 0.0:
        return None
    keep = 1.0 - config.dropout
    rep_dim = config.word_emb_dim + 2 * config.char_lstm_dim
    return (rng.random((n_tokens, rep_dim)) < keep) / keep


def _gradients(tagger: Tagger, batch: Sequence[Sentence], rng, word_id_fn):
    """Mean CRF NLL over the batch under training dropout, the dense
    gradient of every tensor but word_emb, and word_emb's gradient as
    (row ids, rows) with one row per token; a repeated id appears once per
    occurrence."""
    params = tagger.params
    grads = {name: np.zeros_like(arr) for name, arr in params.items() if name != "word_emb"}
    total = 0.0
    row_ids, rows = [], []
    for sentence in batch:
        word_ids = (
            word_id_fn(sentence, rng)
            if word_id_fn is not None
            else [tagger.vocab.word_id(t.text) for t in sentence]
        )
        mask = _dropout_mask(tagger.config, rng, len(sentence))
        emissions, cache = _forward(params, tagger.vocab, sentence, word_ids, mask)
        tag_ids = [tagger.vocab.tag_id(t.tag) for t in sentence]
        nll, d_emissions, d_transitions = crf_nll_grad(emissions, params["transitions"], tag_ids)
        total += nll
        grads["transitions"] += d_transitions
        rows.append(_backward(params, cache, d_emissions, grads))
        row_ids.extend(word_ids)
    scale = 1.0 / len(batch)
    for grad in grads.values():
        grad *= scale
    return total * scale, grads, (np.array(row_ids, dtype=np.intp), np.concatenate(rows) * scale)


def batch_gradients(
    tagger: Tagger,
    batch: Sequence[Sentence],
    rng: Optional[np.random.Generator] = None,
    word_id_fn=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean CRF negative log-likelihood over the batch, with dropout drawn
    from rng as in training, and its gradient with respect to every
    parameter tensor."""
    if rng is None:
        rng = np.random.default_rng(tagger.config.seed)
    loss, grads, (row_ids, rows) = _gradients(tagger, batch, rng, word_id_fn)
    word_grad = np.zeros_like(tagger.params["word_emb"])
    np.add.at(word_grad, row_ids, rows)
    return loss, {name: word_grad if name == "word_emb" else grads[name] for name in tagger.params}


def constrained_transitions(transitions: np.ndarray, tags: Sequence[str] = TAGS) -> np.ndarray:
    """Clamp to -1e4 every transition that breaks the BIO2 pair rule
    (conll.bio_violation), the start and stop states counting as O, making
    decoded sequences BIO2-valid."""
    out = transitions.copy()
    for i, prev in enumerate((*tags, "O", "O")):
        for j, tag in enumerate(tags):
            if bio_violation(prev, tag):
                out[i, j] = min(out[i, j], -1e4)
    return out


# Padded chars (words x longest word) per char-BiLSTM batch and padded
# tokens (sentences x longest sentence) per word-BiLSTM batch at inference.
# They bound the memory of each batch's ids and, for words, lstm_forward's
# cache, whatever the corpus holds: one long token pads only its own batch.
# On 8-token sentences 256 tokens ran faster than 128, 512 or 1024 and kept
# peak RSS lowest; char budgets from 256 up to one batch for all of a
# file's ~475 words took the same time.
CHAR_BATCH_CHARS = 2048
WORD_BATCH_TOKENS = 256


def _runs(lengths: np.ndarray, budget: int):
    """Slices of consecutive items, sorted longest first, each holding at
    most budget // (its first item's length) items, and at least one."""
    start = 0
    while start < len(lengths):
        stop = start + max(1, budget // lengths[start])
        yield slice(start, stop)
        start = stop


def _emission_batches(tagger: Tagger, sentences: Sequence[Sentence]):
    """Inference emissions, batch by batch: (indices into sentences,
    emissions (batch, steps, num_tags), lengths) for runs of the sentences
    sorted longest first, each batch end-padded to its longest sentence.

    The char-BiLSTM runs once per distinct word, over runs of the words
    sorted longest first: with no dropout, a word's representation depends
    on its spelling alone. The word-BiLSTM reads each sentence forwards
    and, through per-sentence reversed indices, backwards, and only real
    steps' outputs become emissions."""
    params, vocab = tagger.params, tagger.vocab
    distinct = dict.fromkeys(token.text for sentence in sentences for token in sentence)
    words = sorted(distinct, key=len, reverse=True)  # longest first, ties in first-seen order
    position = {word: i for i, word in enumerate(words)}
    char_w = _stacked(params, "char")
    dw, hc = params["word_emb"].shape[1], char_w[1].shape[1]
    reps = np.empty((len(words), dw + 2 * hc))  # word row, forward and backward char final states
    reps[:, :dw] = params["word_emb"][[vocab.word_id(word) for word in words]]
    word_lengths = np.array([len(word) for word in words], dtype=np.intp)
    for run in _runs(word_lengths, CHAR_BATCH_CHARS):
        final = lstm_final_states(params["char_emb"], *_char_ids(vocab, words[run]), *char_w)
        reps[run, dw:] = final.transpose(1, 0, 2).reshape(-1, 2 * hc)

    word_w = _stacked(params, "word")
    lengths = np.array([len(sentence) for sentence in sentences], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    for run in _runs(lengths[order], WORD_BATCH_TOKENS):
        batch = order[run]
        n = lengths[batch]
        steps = np.arange(n[0])
        real = steps < n[:, None]  # (batch, steps)
        ids = np.zeros(real.shape, dtype=np.intp)
        ids[real] = [position[token.text] for i in batch for token in sentences[i]]
        # rev reverses each sentence's real steps and is its own inverse: it
        # orders the backward reading and maps backward outputs to tokens.
        rev = np.where(real, n[:, None] - 1 - steps, steps)
        reading = np.stack([ids, np.take_along_axis(ids, rev, axis=1)])  # (dirs, batch, steps)
        hs = lstm_forward(reps[reading.transpose(0, 2, 1)], *word_w)[2][:, 1:]  # (dirs, steps, batch, hw)
        feats = np.concatenate([hs[0].transpose(1, 0, 2), hs[1][rev, np.arange(len(batch))[:, None]]], axis=2)
        yield batch, feats @ params["proj_w"] + params["proj_b"], n


def encode_sentences(tagger: Tagger, sentences: Sequence[Sentence]) -> list[np.ndarray]:
    """Per-token unnormalized tag scores of each sentence, shape
    (len(sentence), num_tags), in the order given, with no dropout."""
    out: list = [None] * len(sentences)
    for batch, emissions, lengths in _emission_batches(tagger, sentences):
        for i, rows, n in zip(batch, emissions, lengths):
            out[i] = rows[:n]
    return out


def tag_corpus(tagger: Tagger, corpus: Corpus) -> Corpus:
    """Viterbi-tag every sentence, under the BIO2 constraints if the config
    asks for them; one batched Viterbi per word-BiLSTM batch. Sentences
    come back in corpus order, their token texts untouched."""
    transitions = tagger.params["transitions"]
    if tagger.config.constrain_decode:
        transitions = constrained_transitions(transitions, tagger.vocab.tags)
    tags = tagger.vocab.tags
    tagged: list = [None] * len(corpus)
    for batch, emissions, lengths in _emission_batches(tagger, corpus.sentences):
        for i, path in zip(batch, viterbi_decode(emissions, transitions, lengths)):
            tagged[i] = corpus.sentences[i].with_tags([tags[t] for t in path])
    return Corpus(tuple(tagged), corpus.language)


@dataclass
class TrainHistory:
    dev_f1: list[float] = field(default_factory=list)
    best_epoch: Optional[int] = None  # 1-based
    stopped_early: bool = False


def _singleton_words(corpus: Corpus) -> set[str]:
    counts: dict[str, int] = {}
    for sentence in corpus:
        for token in sentence:
            counts[token.text] = counts.get(token.text, 0) + 1
    return {w for w, c in counts.items() if c == 1}


def train(
    config: TaggerConfig,
    train_corpus: Corpus,
    dev_corpus: Corpus,
    pretrained: Optional[EmbeddingTable] = None,
    initial: Optional[Tagger] = None,
    extra_vocab_corpora: Sequence[Corpus] = (),
    log=None,
) -> tuple[Tagger, TrainHistory]:
    """Epochs of seeded, shuffled SGD; keeps the parameters of the best
    dev span-F1 epoch and stops once `patience` epochs pass without
    improvement. Fully deterministic given (config, data, pretrained)."""
    from .evaluation import evaluate  # local import: evaluation is a leaf

    if not len(train_corpus):
        raise ValueError("train corpus is empty")
    if not len(dev_corpus):
        raise ValueError("dev corpus is empty")

    if initial is not None:
        tagger = Tagger(config, initial.vocab, {n: a.copy() for n, a in initial.params.items()})
    else:
        vocab = build_vocab([train_corpus, dev_corpus, *extra_vocab_corpora], pretrained)
        tagger = Tagger(config, vocab, init_params(config, vocab, pretrained))

    rng = np.random.default_rng(config.seed)
    singletons = _singleton_words(train_corpus) if config.unk_word_dropout else set()

    def word_ids_for(sentence: Sentence, step_rng: np.random.Generator) -> list[int]:
        ids = []
        for token in sentence:
            if token.text in singletons and step_rng.random() < 0.5:
                ids.append(tagger.vocab.words[UNK])
            else:
                ids.append(tagger.vocab.word_id(token.text))
        return ids

    history = TrainHistory()
    best_f1 = -1.0
    best_params = {n: a.copy() for n, a in tagger.params.items()}
    bad_epochs = 0
    sentences = list(train_corpus)

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(sentences))
        for start in range(0, len(order), config.batch_size):
            batch = [sentences[i] for i in order[start : start + config.batch_size]]
            loss, grads, (row_ids, rows) = _gradients(tagger, batch, rng, word_ids_for)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}")
            for name, grad in grads.items():
                tagger.params[name] -= config.learning_rate * grad
            np.subtract.at(tagger.params["word_emb"], row_ids, config.learning_rate * rows)
        report = evaluate(dev_corpus, tag_corpus(tagger, dev_corpus))
        history.dev_f1.append(report.f1)
        if log is not None:
            log(f"epoch {epoch}: dev F1 {report.f1:.2f}")
        if report.f1 > best_f1:
            best_f1 = report.f1
            best_params = {n: a.copy() for n, a in tagger.params.items()}
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                history.stopped_early = True
                break

    tagger.params = best_params
    return tagger, history


def save_model(tagger: Tagger, path) -> None:
    header = {
        "config": asdict(tagger.config),
        "vocab": {
            "words": sorted(tagger.vocab.words, key=tagger.vocab.words.get),
            "chars": sorted(tagger.vocab.chars, key=tagger.vocab.chars.get),
            "tags": list(tagger.vocab.tags),
        },
    }
    write_container(path, MODEL_MAGIC, header, tagger.params)


def load_model(path) -> Tagger:
    """Read a model file; the header config must be a valid TaggerConfig,
    the vocab words, chars and tags lists of strings (words and chars
    holding UNK), and the tensors exactly those the config and vocab sizes
    call for, in their shapes."""
    header, tensors = read_container(path, MODEL_MAGIC)
    require_keys(header, ("config", "vocab"), path)
    try:
        config = TaggerConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: bad tagger config in header: {exc}") from None
    v = require_keys(header["vocab"], ("words", "chars", "tags"), path, "header vocab")
    for key in ("words", "chars", "tags"):
        if not isinstance(v[key], list) or not all(isinstance(item, str) for item in v[key]):
            raise ContainerError(f"{path}: header vocab {key!r} is not a list of strings")
    for key in ("words", "chars"):
        if UNK not in v[key]:
            raise ContainerError(f"{path}: header vocab {key!r} lacks {UNK!r}")
    vocab = Vocab(
        {w: i for i, w in enumerate(v["words"])},
        {c: i for i, c in enumerate(v["chars"])},
        tuple(v["tags"]),
    )
    expected = _param_shapes(config, vocab)
    problems = [f"missing tensor {name!r}" for name in expected if name not in tensors]
    problems += [f"unexpected tensor {name!r}" for name in tensors if name not in expected]
    problems += [
        f"tensor {name!r} has shape {tensors[name].shape}, want {shape}"
        for name, shape in expected.items()
        if name in tensors and tensors[name].shape != shape
    ]
    if problems:
        raise ContainerError(f"{path}: " + "; ".join(problems))
    return Tagger(config, vocab, tensors)
