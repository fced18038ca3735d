"""BiLSTM-CRF tagger: character and word BiLSTM encoders over trainable
embeddings with hand-written numpy forward and backward passes, CRF
training by forward-backward, Viterbi decoding with optional BIO2
transition constraints, SGD with sparse word-embedding updates and early
stopping."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .conll import TAGS, Corpus, Sentence, _split_tag
from .crf import crf_nll_grad, viterbi_decode
from .embeddings import EmbeddingTable, _DIGITS
from .lstm import lstm_backward, lstm_forward
from .serialize import read_container, write_container

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
        if self.max_epochs < 0 or self.patience < 0 or self.batch_size < 1:
            raise ValueError("bad training schedule")


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
        for candidate in (word, word.lower(), _DIGITS.sub("#", word)):
            idx = self.words.get(candidate)
            if idx is not None:
                return idx
        return self.words[UNK]

    def char_id(self, char: str) -> int:
        return self.chars.get(char, self.chars[UNK])

    def tag_id(self, tag: str) -> int:
        return self.tags.index(tag)


def _embedding_form(table: EmbeddingTable, word: str) -> Optional[str]:
    for candidate in (word, word.lower(), _DIGITS.sub("#", word)):
        if candidate in table.vectors:
            return candidate
    return None


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
                    if _embedding_form(embeddings, token.text) is not None:
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
    dw, dc = config.word_emb_dim, config.char_emb_dim
    hc, hw = config.char_lstm_dim, config.word_lstm_dim
    rep = dw + 2 * hc
    k = vocab.num_tags

    params = {
        "word_emb": _uniform(rng, (vocab.num_words, dw), dw),
        "char_emb": _uniform(rng, (vocab.num_chars, dc), dc),
    }
    for direction in ("fwd", "bwd"):
        params[f"char_{direction}_wx"] = _uniform(rng, (dc, 4 * hc), dc)
        params[f"char_{direction}_wh"] = _uniform(rng, (hc, 4 * hc), hc)
        params[f"char_{direction}_b"] = np.zeros(4 * hc)
    for direction in ("fwd", "bwd"):
        params[f"word_{direction}_wx"] = _uniform(rng, (rep, 4 * hw), rep)
        params[f"word_{direction}_wh"] = _uniform(rng, (hw, 4 * hw), hw)
        params[f"word_{direction}_b"] = np.zeros(4 * hw)
    params["proj_w"] = _uniform(rng, (2 * hw, k), 2 * hw)
    params["proj_b"] = np.zeros(k)
    params["transitions"] = _uniform(rng, (k + 2, k + 2), k + 2)

    if pretrained is not None and len(pretrained):
        for word, idx in vocab.words.items():
            if word == UNK:
                continue
            form = _embedding_form(pretrained, word)
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


def _forward(
    params: dict[str, np.ndarray],
    vocab: Vocab,
    sentence: Sentence,
    word_ids: Sequence[int],
    dropout_mask: Optional[np.ndarray],
):
    """Emissions (len(sentence), num_tags) and the cache _backward needs.
    The char-BiLSTM runs over all tokens at once as a (max_chars, tokens)
    padded batch; dropout_mask, if given, scales the token representations."""
    chars = [[vocab.char_id(c) for c in token.text] for token in sentence]
    lengths = np.array([len(ids) for ids in chars])
    char_ids = np.zeros((2, lengths.max(), len(chars)), dtype=np.intp)
    for j, ids in enumerate(chars):
        char_ids[0, : len(ids), j] = ids
        char_ids[1, : len(ids), j] = ids[::-1]
    keep = np.arange(char_ids.shape[1])[:, None] < lengths[None, :]  # (max_chars, tokens)
    char_w = _stacked(params, "char")
    char_cache = lstm_forward(params["char_emb"][char_ids], *char_w, keep[:, :, None])
    char_final = char_cache[2][:, -1]  # (dirs, tokens, char_lstm_dim)

    reps = np.concatenate([params["word_emb"][word_ids], char_final[0], char_final[1]], axis=1)
    if dropout_mask is not None:
        reps = reps * dropout_mask
    word_w = _stacked(params, "word")
    word_cache = lstm_forward(np.stack([reps, reps[::-1]])[:, :, None, :], *word_w)
    hs = word_cache[2][:, 1:, 0]
    feats = np.concatenate([hs[0], hs[1][::-1]], axis=1)
    emissions = feats @ params["proj_w"] + params["proj_b"]
    return emissions, (char_ids, keep, char_w, char_cache, dropout_mask, word_w, word_cache, feats)


def _backward(
    params: dict[str, np.ndarray], cache, d_emissions: np.ndarray, grads: dict[str, np.ndarray]
) -> np.ndarray:
    """Accumulate one sentence's gradients into grads (every tensor but
    word_emb) and return the gradient of its word_emb rows, one per token."""
    char_ids, keep, char_w, char_cache, dropout_mask, word_w, word_cache, feats = cache
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
    d_char_hs[:, -1] = np.stack([d_reps[:, dw : dw + hc], d_reps[:, dw + hc :]])
    d_chars, *d_char_w = lstm_backward(char_cache, d_char_hs, *char_w[:2])
    real = np.broadcast_to(keep, char_ids.shape)
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


def encode_sentence(
    tagger: Tagger,
    sentence: Sentence,
    train_mode: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-token unnormalized tag scores, shape (len(sentence), 9)."""
    mask = None
    if train_mode:
        if rng is None:
            rng = np.random.default_rng(tagger.config.seed)
        mask = _dropout_mask(tagger.config, rng, len(sentence))
    word_ids = [tagger.vocab.word_id(t.text) for t in sentence]
    return _forward(tagger.params, tagger.vocab, sentence, word_ids, mask)[0]


def _gradients(tagger: Tagger, batch: Sequence[Sentence], rng, train_mode: bool, word_id_fn):
    """Mean CRF NLL over the batch, the dense gradient of every tensor but
    word_emb, and word_emb's gradient as (row ids, rows) with one row per
    token; a repeated id appears once per occurrence."""
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
        mask = _dropout_mask(tagger.config, rng, len(sentence)) if train_mode else None
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
    train_mode: bool = True,
    word_id_fn=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean CRF negative log-likelihood over the batch and its gradient
    with respect to every parameter tensor."""
    if rng is None:
        rng = np.random.default_rng(tagger.config.seed)
    loss, grads, (row_ids, rows) = _gradients(tagger, batch, rng, train_mode, word_id_fn)
    word_grad = np.zeros_like(tagger.params["word_emb"])
    np.add.at(word_grad, row_ids, rows)
    return loss, {name: word_grad if name == "word_emb" else grads[name] for name in tagger.params}


def constrained_transitions(transitions: np.ndarray, tags: Sequence[str] = TAGS) -> np.ndarray:
    """Clamp transitions into I-X from anything but B-X/I-X (start state
    included) to -1e4, making decoded sequences BIO2-valid."""
    k = len(tags)
    out = transitions.copy()
    for j, tag in enumerate(tags):
        prefix, etype = _split_tag(tag)
        if prefix != "I":
            continue
        for i in range(k + 2):
            if i < k:
                p_prefix, p_type = _split_tag(tags[i])
                legal = p_prefix in ("B", "I") and p_type == etype
            else:
                legal = False  # start/stop states never precede an I tag
            if not legal:
                out[i, j] = min(out[i, j], -1e4)
    return out


def _decode_transitions(tagger: Tagger) -> np.ndarray:
    transitions = tagger.params["transitions"]
    if tagger.config.constrain_decode:
        transitions = constrained_transitions(transitions, tagger.vocab.tags)
    return transitions


def _decode(tagger: Tagger, sentence: Sentence, transitions: np.ndarray) -> list[str]:
    path = viterbi_decode(encode_sentence(tagger, sentence), transitions)
    return [tagger.vocab.tags[i] for i in path]


def decode_sentence(tagger: Tagger, sentence: Sentence) -> list[str]:
    return _decode(tagger, sentence, _decode_transitions(tagger))


def tag_corpus(tagger: Tagger, corpus: Corpus) -> Corpus:
    """Viterbi-tag every sentence; token texts are untouched."""
    transitions = _decode_transitions(tagger)
    return Corpus(
        tuple(s.with_tags(_decode(tagger, s, transitions)) for s in corpus),
        corpus.language,
    )


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
    vocab: Optional[Vocab] = None,
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
        if vocab is None:
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
            loss, grads, (row_ids, rows) = _gradients(tagger, batch, rng, True, word_ids_for)
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
    header, tensors = read_container(path, MODEL_MAGIC)
    config = TaggerConfig(**header["config"])
    v = header["vocab"]
    vocab = Vocab(
        {w: i for i, w in enumerate(v["words"])},
        {c: i for i, c in enumerate(v["chars"])},
        tuple(v["tags"]),
    )
    return Tagger(config, vocab, tensors)
