"""BiLSTM-CRF tagger: character and word BiLSTM encoders over trainable
embeddings, one batched numpy forward pass that training and inference
share (the char-BiLSTM once per distinct word, the word-BiLSTM over
batches of length-sorted sentences) and one backward pass, CRF training
by forward-backward, batched Viterbi with optional BIO2 transition
constraints, SGD with sparse word-embedding updates and early stopping;
the `key = value` tagger-option parser that `xlner train` and experiment
configs share; checked model files."""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from .conll import TAG_SET, TAGS, Corpus, Sentence, bio_violation
from .crf import crf_nll_grad, viterbi_decode
from .embeddings import BLOCK_ROWS, EmbeddingTable, word_form
from .lstm import lstm_backward, lstm_forward
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
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and > 0")
        for name, low in (("max_epochs", 0), ("patience", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def option_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each `key = value` line of text;
    `#` starts a comment at the start of a line or after whitespace, so a
    value such as a path may hold one; blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
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
    words = {text for sentence in corpora[0] for text in sentence.texts}
    chars = set(chain.from_iterable(words))
    if embeddings is not None and len(embeddings):
        for corpus in corpora[1:]:
            for sentence in corpus:
                words.update(text for text in sentence.texts if word_form(embeddings.index, text) is not None)
    return Vocab(*({item: i for i, item in enumerate([UNK, *sorted(items - {UNK})])} for items in (words, chars)))


def _uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    limit = np.sqrt(3.0 / fan_in)
    return rng.uniform(-limit, limit, shape)


def _param_shapes(config: TaggerConfig, vocab: Vocab) -> dict[str, tuple[int, ...]]:
    """Every model-file tensor's shape, each BiLSTM weight per direction
    (char_fwd_wx, char_bwd_wx), in the order init_params draws them."""
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
    # Only a table with neither rows nor dimension (an empty file) is exempt:
    # one cut to no rows keeps the dimension of the table it was cut from.
    if pretrained is not None and (len(pretrained) or pretrained.dim) and pretrained.dim != config.word_emb_dim:
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
        forms = ((idx, word_form(pretrained.index, word)) for word, idx in vocab.words.items() if word != UNK)
        found = [(idx, pretrained.index[form]) for idx, form in forms if form is not None]
        # Gathers of BLOCK_ROWS rows: one of every row would copy a table.
        for start in range(0, len(found), BLOCK_ROWS):
            ids, rows = zip(*found[start : start + BLOCK_ROWS])
            params["word_emb"][list(ids)] = pretrained.matrix[list(rows)]
    return _stack_directions(params)


def _stack_directions(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Model-file tensors in memory: each BiLSTM weight's fwd and bwd
    tensors stacked under one name (char_wx), direction as axis 0."""
    return {
        name.replace("_fwd", ""): np.stack([arr, tensors[name.replace("_fwd", "_bwd")]]) if "_fwd_" in name else arr
        for name, arr in tensors.items()
        if "_bwd_" not in name
    }


@dataclass
class Tagger:
    config: TaggerConfig
    vocab: Vocab
    params: dict[str, np.ndarray]  # BiLSTM weights stacked: see _stack_directions


def _readings(lengths: np.ndarray, items) -> tuple[np.ndarray, ...]:
    """Ids (2, longest, len(lengths)) of both readings of sequences laid
    end to end in items, sequence j holding lengths[j] of them: its item k
    at step k of column j forwards in [0] and at step lengths[j] - 1 - k
    backwards in [1], each column padded at its end with id 0; and each
    item's forward step and column."""
    col = np.repeat(np.arange(len(lengths)), lengths)
    step = np.arange(len(col)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids = np.zeros((2, lengths.max(initial=0), len(lengths)), dtype=np.intp)
    ids[0, step, col] = ids[1, lengths[col] - 1 - step, col] = items
    return ids, step, col


def _dropout_mask(config: TaggerConfig, rng: np.random.Generator, n_tokens: int) -> np.ndarray:
    """Inverted-dropout mask over token representations, all ones without
    dropout; one draw per sentence, the same stream as one
    rng.random(rep_dim) per token."""
    shape = (n_tokens, config.word_emb_dim + 2 * config.char_lstm_dim)
    if config.dropout <= 0.0:
        return np.ones(shape)
    keep = 1.0 - config.dropout
    return (rng.random(shape) < keep) / keep


def _gradients(tagger: Tagger, batch: Sequence[Sentence], rng, word_id_fn):
    """Mean CRF NLL over the batch under training dropout drawn from rng,
    each sentence's word ids from word_id_fn(sentence, rng), the dense
    gradient of every tensor but word_emb, and word_emb's gradient as
    (row ids, rows) with one row per token; a repeated id appears once per
    occurrence."""
    params, vocab = tagger.params, tagger.vocab
    # each sentence's UNK-dropout draws, then its mask
    word_ids, masks = zip(*[(word_id_fn(s, rng), _dropout_mask(tagger.config, rng, len(s))) for s in batch])
    total, d_transitions, runs = 0.0, 0.0, []
    for run, emissions, lengths, cache in _emission_batches(tagger, batch, word_ids, masks):
        d_emissions = np.zeros_like(emissions)
        for j, (i, n) in enumerate(zip(run.tolist(), lengths.tolist())):
            tag_ids = [vocab.tag_id(tag) for tag in batch[i].tags]
            nll, d_emissions[j, :n], d_trans = crf_nll_grad(emissions[j, :n], params["transitions"], tag_ids)
            total += nll
            d_transitions = d_transitions + d_trans
        runs.append((cache, d_emissions))
    grads, (row_ids, rows) = _emission_backward(params, runs)
    grads["transitions"] = d_transitions
    scale = 1.0 / len(batch)
    for grad in grads.values():
        grad *= scale
    return total * scale, grads, (row_ids, rows * scale)


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
# They bound the memory of each batch's ids, gate table and the states
# lstm_forward keeps, whatever the corpus holds: one long token pads only
# its own batch. On 3,000 CoNLL-shaped sentences (1-40 tokens, mean 13.4;
# one core) tag_corpus traced a 18.3, 19.8 and 22.7 MB peak at 256, 512
# and 1024 for both, and 512 ran fastest in 3 of 4 interleaved rounds.
CHAR_BATCH_CHARS = 512
WORD_BATCH_TOKENS = 512


def _runs(lengths: np.ndarray, budget: int):
    """Slices of consecutive items, sorted longest first, each holding at
    most budget // (its first item's length) items, and at least one."""
    start = 0
    while start < len(lengths):
        stop = start + max(1, budget // lengths[start])
        yield slice(start, stop)
        start = stop


def _emission_batches(tagger: Tagger, sentences: Sequence[Sentence], word_ids, masks=None):
    """The forward pass, batch by batch: (indices into sentences,
    emissions (batch, steps, num_tags), lengths, cache) for runs of the
    sentences sorted longest first, each batch end-padded to its longest
    sentence; word_ids holds each sentence's word_emb rows.

    The char-BiLSTM runs once per distinct word, over runs of the words
    sorted longest first: a word's char states depend on its spelling
    alone. The word-BiLSTM projects only its batch's own rows, and only
    real steps' outputs become emissions. Without masks (inference) a
    batch's tokens of one spelling and word id share a row. masks, one
    (len(sentence), rep_dim) array per sentence, scale each token's
    representation for training: then each token reads a row of its own,
    and each cache holds what _emission_backward reads (None without)."""
    params, vocab = tagger.params, tagger.vocab
    distinct = dict.fromkeys(text for sentence in sentences for text in sentence.texts)
    words = sorted(distinct, key=len, reverse=True)  # longest first, ties in first-seen order
    position = {word: i for i, word in enumerate(words)}
    chars = np.empty((len(words), 2 * params["char_wh"].shape[1]))  # forward and backward final states
    char_runs = []  # each char-BiLSTM batch's (run, lengths, cache), kept for the backward
    word_lengths = np.array([len(word) for word in words], dtype=np.intp)
    for run in _runs(word_lengths, CHAR_BATCH_CHARS):
        n = word_lengths[run]
        ids = _readings(n, [vocab.char_id(ch) for word in words[run] for ch in word])[0]
        cache = lstm_forward(params["char_emb"], ids, n, params["char_wx"], params["char_wh"], params["char_b"])
        chars[run] = cache[0][:, n, np.arange(len(n))].transpose(1, 0, 2).reshape(len(n), -1)
        if masks is not None:
            char_runs.append((run, n, cache))
        del cache  # at inference, a batch's states die before the next batch runs

    word_emb = params["word_emb"]
    lengths = np.array([len(sentence) for sentence in sentences], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    for run in _runs(lengths[order], WORD_BATCH_TOKENS):
        batch, n = order[run], lengths[order[run]]
        c = np.array([position[text] for i in batch for text in sentences[i].texts], dtype=np.intp)
        w = np.array([word_id for i in batch for word_id in word_ids[i]], dtype=np.intp)
        if masks is None:  # one row per (spelling, word id), in spelling order
            mask = 1.0
            keys, local = np.unique(c * len(word_emb) + w, return_inverse=True)
            c, w = np.divmod(keys, len(word_emb))
        else:
            mask, local = np.concatenate([masks[i] for i in batch]), np.arange(len(c))
        x = np.concatenate([word_emb[w], chars[c]], axis=1)
        x *= mask
        ids, step, col = _readings(n, local)
        word_cache = lstm_forward(x, ids, n, params["word_wx"], params["word_wh"], params["word_b"])
        hs = word_cache[0]
        feats = np.zeros((len(batch), n[0], 2 * hs.shape[3]))  # token k: forward step k, backward step n - 1 - k
        feats[col, step] = np.concatenate([hs[0, step + 1, col], hs[1, n[col] - step, col]], axis=1)
        cache = None if masks is None else (chars, char_runs, n, step, col, w, c, mask, word_cache, feats)
        del word_cache  # at inference, the states die with the batch, as above
        yield batch, feats @ params["proj_w"] + params["proj_b"], n, cache


def _emission_backward(params: dict[str, np.ndarray], runs):
    """The backward pass of one _emission_batches call with masks, runs
    holding each batch's (cache, d_emissions): the gradients of every
    tensor but word_emb and transitions, and word_emb's gradient as (row
    ids, rows), one row per token, batch after batch. Each distinct word's
    char-state gradient is summed over its occurrences before the char
    backward."""
    terms = defaultdict(list)  # each tensor's gradient from each kernel call
    chars, char_runs = runs[0][0][:2]
    dw, hw, hc = params["word_emb"].shape[1], params["word_wh"].shape[1], params["char_wh"].shape[1]
    d_chars = np.zeros_like(chars)
    word_rows = []  # (row ids, rows) of each batch
    for (_, _, n, step, col, w, c, mask, cache, feats), d_emissions in runs:
        d_tokens = d_emissions[col, step]
        terms["proj_w"].append(feats[col, step].T @ d_tokens)
        terms["proj_b"].append(d_tokens.sum(axis=0))
        d_feats = d_tokens @ params["proj_w"].T
        d_hs = np.zeros((2, n[0], len(n), hw))  # as _readings reads: forward step k, backward step n - 1 - k
        d_hs[0, step, col], d_hs[1, n[col] - 1 - step, col] = d_feats[:, :hw], d_feats[:, hw:]
        d_x, *d_word_w = lstm_backward(cache, d_hs, params["word_wx"], params["word_wh"])
        d_x *= mask
        word_rows.append((w, d_x[:, :dw]))
        np.add.at(d_chars, c, d_x[:, dw:])
        for name, grad in zip(("word_wx", "word_wh", "word_b"), d_word_w):
            terms[name].append(grad)
    char_w = params["char_wx"], params["char_wh"]
    for run, n, cache in char_runs:
        d_hs = np.zeros((2, n[0], len(n), hc))
        d_hs[:, n - 1, np.arange(len(n))] = d_chars[run].reshape(-1, 2, hc).transpose(1, 0, 2)
        for name, grad in zip(("char_emb", "char_wx", "char_wh", "char_b"), lstm_backward(cache, d_hs, *char_w)):
            terms[name].append(grad)
    grads = {name: sum(parts[1:], parts[0]) for name, parts in terms.items()}  # the first part starts each sum
    return grads, tuple(map(np.concatenate, zip(*word_rows)))


def tag_corpus(tagger: Tagger, corpus: Corpus) -> Corpus:
    """Viterbi-tag every sentence, under the BIO2 constraints if the config
    asks for them; one batched Viterbi per word-BiLSTM batch. Sentences
    come back in corpus order, their token texts untouched."""
    transitions = tagger.params["transitions"]
    if tagger.config.constrain_decode:
        transitions = constrained_transitions(transitions, tagger.vocab.tags)
    tags = tagger.vocab.tags
    tagged: list = [None] * len(corpus)
    word_ids = [[tagger.vocab.word_id(text) for text in sentence.texts] for sentence in corpus]
    for batch, emissions, lengths, _ in _emission_batches(tagger, corpus.sentences, word_ids):
        for i, path in zip(batch, viterbi_decode(emissions, transitions, lengths)):
            tagged[i] = corpus.sentences[i].with_tags([tags[t] for t in path])
    return Corpus(tuple(tagged), corpus.language)


@dataclass
class TrainHistory:
    dev_f1: list[float] = field(default_factory=list)
    best_epoch: Optional[int] = None  # 1-based
    stopped_early: bool = False


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
    counts = Counter(text for sentence in train_corpus for text in sentence.texts) if config.unk_word_dropout else {}
    singletons = {w for w, c in counts.items() if c == 1}

    def word_ids_for(sentence: Sentence, step_rng: np.random.Generator) -> list[int]:
        unk, word_id = tagger.vocab.words[UNK], tagger.vocab.word_id
        return [unk if text in singletons and step_rng.random() < 0.5 else word_id(text) for text in sentence.texts]

    history = TrainHistory()
    best_f1 = -1.0
    best = {n: a.copy() for n, a in tagger.params.items() if n != "word_emb"}
    # SGD changes only the word_emb rows of the sentences it sees, so the best
    # epoch's word_emb is an undo log: blocks of (row ids, their values at the
    # best epoch), each row saved before the first step after it that changes it
    word_emb = tagger.params["word_emb"]
    saved, undo = np.zeros(len(word_emb), dtype=bool), []
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
                grad *= config.learning_rate
                tagger.params[name] -= grad
            # row_ids repeats ids; np.unique would import numpy.ma (~1.5 MB RSS)
            new = np.fromiter(dict.fromkeys(row_ids[~saved[row_ids]].tolist()), np.intp)
            if len(new):
                saved[new] = True
                undo.append((new, word_emb[new]))
            np.subtract.at(word_emb, row_ids, config.learning_rate * rows)
        report = evaluate(dev_corpus, tag_corpus(tagger, dev_corpus))
        history.dev_f1.append(report.f1)
        if log is not None:
            log(f"epoch {epoch}: dev F1 {report.f1:.2f}")
        if report.f1 > best_f1:
            best_f1 = report.f1
            best = {n: a.copy() for n, a in tagger.params.items() if n != "word_emb"}
            saved[:], undo = False, []
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                history.stopped_early = True
                break

    for ids, values in undo:
        word_emb[ids] = values
    tagger.params.update(best)
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
    tensors = {}  # _param_shapes' names and order: each BiLSTM weight split by direction
    for name in _param_shapes(tagger.config, tagger.vocab):
        stacked = name.replace("_fwd", "").replace("_bwd", "")
        tensors[name] = tagger.params[stacked][int("_bwd_" in name)] if stacked != name else tagger.params[name]
    write_container(path, MODEL_MAGIC, header, tensors)


# the JSON type a header config value must have, by its field's type
_JSON_TYPES = {bool: ("boolean", bool), int: ("integer", int), float: ("number", (int, float))}


def load_model(path) -> Tagger:
    """Read a model file; the header config must be a valid TaggerConfig
    whose values have their fields' JSON types (true and false are neither
    integers nor numbers), the vocab words, chars and tags lists of distinct
    strings (words and chars holding UNK, tags from the BIO2 set), and the
    tensors exactly those the config and vocab sizes call for, in their
    shapes."""
    header, tensors = read_container(path, MODEL_MAGIC)
    require_keys(header, ("config", "vocab"), path)
    if isinstance(header["config"], dict):
        for f in fields(TaggerConfig):
            wanted, accepted = _JSON_TYPES[type(f.default)]
            value = header["config"].get(f.name, f.default)
            if not isinstance(value, accepted) or (isinstance(value, bool) and accepted is not bool):
                raise ContainerError(f"{path}: bad tagger config in header: {f.name} is not a JSON {wanted}")
    try:
        config = TaggerConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: bad tagger config in header: {exc}") from None
    v = require_keys(header["vocab"], ("words", "chars", "tags"), path, "header vocab")
    index = {}
    for key in ("words", "chars", "tags"):
        if not isinstance(v[key], list) or not set(map(type, v[key])) <= {str}:
            raise ContainerError(f"{path}: header vocab {key!r} is not a list of strings")
        index[key] = {item: i for i, item in enumerate(v[key])}
        if len(index[key]) < len(v[key]):  # a dict keeps an item's last index
            repeat = next(item for i, item in enumerate(v[key]) if index[key][item] != i)
            raise ContainerError(f"{path}: header vocab {key!r} repeats {repeat!r}")
        if key != "tags" and UNK not in index[key]:
            raise ContainerError(f"{path}: header vocab {key!r} lacks {UNK!r}")
    if not TAG_SET.issuperset(v["tags"]):
        stray = next(tag for tag in v["tags"] if tag not in TAG_SET)
        raise ContainerError(f"{path}: header vocab 'tags' holds {stray!r}, not a BIO2 tag")
    vocab = Vocab(index["words"], index["chars"], tuple(v["tags"]))
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
    return Tagger(config, vocab, _stack_directions({name: tensors[name] for name in expected}))
