"""Finite-difference checks of the hand-written differentiation: the LSTM
kernels' backward-through-time, the embedding gathers' scatter-add, and
the CRF's log-sum-exp; and the LSTM forward kernel against a plain
per-sequence, per-step loop."""

import numpy as np

from xlner.crf import _logsumexp
from xlner.lstm import lstm_backward, lstm_forward
from xlner.tagger import Tagger, TaggerConfig, build_vocab, init_params

from conftest import batch_gradients, make_corpus


def numeric_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x, dtype=float)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = fn()
        xf[i] = orig - eps
        lo = fn()
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return g


def lstm_instance(lengths, seed=0, n_sym=4, d=3, hd=2):
    """Random embeddings, ids and weights for both directions of an LSTM
    layer over sequences of the given lengths, longest first, and random
    loss weights on every output state, past each sequence's end too. Each
    of the n_sym embedding rows is read by many steps."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths)
    assert np.all(np.diff(lengths) <= 0)
    emb = rng.standard_normal((n_sym, d))
    ids = rng.integers(0, n_sym, (2, lengths[0], len(lengths)))
    wx = rng.standard_normal((2, d, 4 * hd)) * 0.5
    wh = rng.standard_normal((2, hd, 4 * hd)) * 0.5
    b = rng.standard_normal((2, 4 * hd)) * 0.5
    weights = rng.standard_normal((2, lengths[0], len(lengths), hd))
    return emb, ids, lengths, wx, wh, b, weights


def check_lstm(names, emb, ids, lengths, wx, wh, b, weights):
    """The loss sum(weights * h) over every output state: lstm_backward's
    gradients of the named inputs against central finite differences.
    States past a sequence's end are zero, so their weights add nothing."""
    def loss():
        return float((lstm_forward(emb, ids, lengths, wx, wh, b)[0][:, 1:] * weights).sum())

    cache = lstm_forward(emb, ids, lengths, wx, wh, b)
    grads = dict(zip(("emb", "wx", "wh", "b"), lstm_backward(cache, weights, wx, wh)))
    values = {"emb": emb, "wx": wx, "wh": wh, "b": b}
    for name in names:
        num = numeric_grad(loss, values[name])
        assert np.allclose(grads[name], num, atol=1e-7), name


def test_add_broadcast():
    # The bias is added at every step of every sequence.
    check_lstm(["b"], *lstm_instance([4, 2, 1], seed=1))


def test_matmul():
    # Gate inputs are rows of one table emb @ wx per direction, and each
    # emb row's gradient sums every step that reads it.
    check_lstm(["emb", "wx"], *lstm_instance([4, 3, 1], seed=2))


def test_vector_matmul():
    # The training word-BiLSTM's shape: one sequence, a batch of one.
    check_lstm(["emb", "wx", "wh", "b"], *lstm_instance([5], seed=3))


def test_tanh_sigmoid():
    # A single step: only the gate nonlinearities lie between inputs and h.
    check_lstm(["emb", "wx", "b"], *lstm_instance([1, 1], seed=4))


def test_shared_subexpression_accumulates():
    # Each h feeds both the loss and the next step; each c the next step
    # and h.
    check_lstm(["emb", "wh"], *lstm_instance([4, 4], seed=5))
    check_lstm(["emb", "wh", "b"], *lstm_instance([4, 3, 2], seed=6))


def test_end_padding_leaves_real_steps_alone():
    # Padding after a sequence's end: whatever ids it holds, every state
    # is the same, and the emb row that only padding reads gets exactly
    # zero gradient, while every row a real step reads gets some.
    emb, ids, lengths, wx, wh, b, weights = lstm_instance([4, 3, 1], seed=11, n_sym=5)
    padded = np.arange(4)[:, None] >= lengths  # (steps, batch)
    ids = np.where(padded, 4, ids % 4)
    hs = lstm_forward(emb, ids, lengths, wx, wh, b)[0]
    noisy = np.where(padded, np.random.default_rng(12).integers(0, 4, ids.shape), ids)
    assert not np.array_equal(noisy, ids)
    assert np.array_equal(lstm_forward(emb, noisy, lengths, wx, wh, b)[0], hs)
    d_emb = lstm_backward(lstm_forward(emb, ids, lengths, wx, wh, b), weights, wx, wh)[0]
    assert np.all(d_emb[4] == 0.0)
    assert np.all(d_emb[:4] != 0.0)


def reference_states(emb, ids, lengths, wx, wh, b):
    """Oracle: every output state by a plain loop, each direction and
    sequence on its own, one step at a time, in lstm_forward's hs layout;
    states past a sequence's end stay zero."""
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    hd = wh.shape[1]
    hs = np.zeros((2, ids.shape[1] + 1, ids.shape[2], hd))
    for d in range(2):
        for j, n in enumerate(lengths):
            h, c = np.zeros(hd), np.zeros(hd)
            for t in range(n):
                z = emb[ids[d, t, j]] @ wx[d] + h @ wh[d] + b[d]
                i, f, g, o = sigmoid(z[:hd]), sigmoid(z[hd : 2 * hd]), np.tanh(z[2 * hd : 3 * hd]), sigmoid(z[3 * hd :])
                c = f * c + i * g
                h = o * np.tanh(c)
                hs[d, t + 1, j] = h
    return hs


def test_final_states_match_forward():
    # lstm_forward against the per-step loop on sequences of 7 steps down
    # to 1, each direction reading its own ids: every real step's state
    # matches, each final state hs[:, length] among them, and states past
    # a sequence's end are zero.
    rng = np.random.default_rng(13)
    lengths = np.sort(rng.integers(1, 8, 10))[::-1]
    lengths[0] = 7
    lengths[-2:] = 1
    emb, ids, _, wx, wh, b, _ = lstm_instance(lengths, seed=14, n_sym=6)
    got = lstm_forward(emb, ids, lengths, wx, wh, b)[0]
    want = reference_states(emb, ids, lengths, wx, wh, b)
    assert got.shape == want.shape == (2, 8, 10, 2)
    real = np.arange(8)[:, None] <= lengths  # (steps + 1, batch): the zero initial state, then real steps
    assert np.allclose(got[:, real], want[:, real], rtol=0.0, atol=1e-12)
    assert np.all(got[:, ~real] == 0.0)


def test_getitem_fancy_repeated_indices():
    # "Rom" twice in one sentence and characters repeated within and across
    # tokens: gathered embedding rows must accumulate every occurrence.
    corpus = make_corpus([("Rom", "B-LOC"), ("og", "O"), ("Rom", "B-LOC"), ("Roma", "B-LOC")])
    config = TaggerConfig(
        word_emb_dim=3, word_lstm_dim=2, char_emb_dim=2, char_lstm_dim=2, dropout=0.0, max_epochs=0
    )
    vocab = build_vocab([corpus])
    tagger = Tagger(config, vocab, init_params(config, vocab))
    batch = list(corpus.sentences)
    _, grads = batch_gradients(tagger, batch)

    def loss():
        return batch_gradients(tagger, batch)[0]

    char_num = numeric_grad(loss, tagger.params["char_emb"])
    assert np.allclose(grads["char_emb"], char_num, atol=1e-7)
    row = vocab.words["Rom"]
    word_num = numeric_grad(loss, tagger.params["word_emb"][row])
    assert np.allclose(grads["word_emb"][row], word_num, atol=1e-7)


def test_logsumexp_full():
    x = np.random.default_rng(7).standard_normal((4, 3))
    assert np.isclose(_logsumexp(x), np.log(np.exp(x).sum()))
    # Large magnitudes neither overflow nor underflow.
    assert np.isclose(_logsumexp(x + 1000.0), _logsumexp(x) + 1000.0)
    assert np.isclose(_logsumexp(x - 1000.0), _logsumexp(x) - 1000.0)


def test_logsumexp_axis():
    x = np.random.default_rng(8).standard_normal((4, 3))
    for axis in (0, 1):
        got = _logsumexp(x, axis=axis)
        assert got.shape == (x.shape[1 - axis],)
        assert np.allclose(got, np.log(np.exp(x).sum(axis=axis)))
        assert np.allclose(_logsumexp(x + 1000.0, axis=axis), got + 1000.0)
