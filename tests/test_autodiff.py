"""Finite-difference checks of the hand-written differentiation: the LSTM
kernels' backward-through-time, the embedding gathers' scatter-add, and
the CRF's log-sum-exp; and the inference-only LSTM kernel against the
forward pass."""

import numpy as np

from xlner.crf import _logsumexp
from xlner.lstm import lstm_backward, lstm_forward, lstm_states
from xlner.tagger import Tagger, TaggerConfig, batch_gradients, build_vocab, init_params

from conftest import make_corpus


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


def lstm_instance(steps, batch, lengths=None, seed=0, d=3, hd=2):
    """Random inputs and weights for both directions of an LSTM layer and
    random loss weights on its output states. For sequences of the given
    lengths (None: all `steps` long), padded at their end, the weights
    past each sequence's length are zero."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((2, steps, batch, d))
    wx = rng.standard_normal((2, d, 4 * hd)) * 0.5
    wh = rng.standard_normal((2, hd, 4 * hd)) * 0.5
    b = rng.standard_normal((2, 4 * hd)) * 0.5
    weights = rng.standard_normal((2, steps, batch, hd))
    if lengths is not None:
        weights *= (np.arange(steps)[:, None] < np.asarray(lengths)[None, :])[:, :, None]
    return xs, wx, wh, b, weights


def check_lstm(names, xs, wx, wh, b, weights):
    """The loss sum(weights * h) over every output state: lstm_backward's
    gradients of the named inputs against central finite differences."""
    def loss():
        return float((lstm_forward(xs, wx, wh, b)[2][:, 1:] * weights).sum())

    cache = lstm_forward(xs, wx, wh, b)
    grads = dict(zip(("xs", "wx", "wh", "b"), lstm_backward(cache, weights, wx, wh)))
    values = {"xs": xs, "wx": wx, "wh": wh, "b": b}
    for name in names:
        num = numeric_grad(loss, values[name])
        assert np.allclose(grads[name], num, atol=1e-7), name


def test_add_broadcast():
    # The bias is added at every step of every sequence.
    check_lstm(["b"], *lstm_instance(4, 3, lengths=[4, 2, 1], seed=1))


def test_matmul():
    # Gate inputs are one matmul xs @ wx per direction over all steps.
    check_lstm(["xs", "wx"], *lstm_instance(4, 3, lengths=[3, 4, 1], seed=2))


def test_vector_matmul():
    # The word-BiLSTM's shape: one sequence, a batch of one.
    check_lstm(["xs", "wx", "wh", "b"], *lstm_instance(5, 1, seed=3))


def test_tanh_sigmoid():
    # A single step: only the gate nonlinearities lie between inputs and h.
    check_lstm(["xs", "wx", "b"], *lstm_instance(1, 2, seed=4))


def test_shared_subexpression_accumulates():
    # Each h feeds both the loss and the next step; each c the next step
    # and h.
    check_lstm(["xs", "wh"], *lstm_instance(4, 2, seed=5))
    check_lstm(["xs", "wh"], *lstm_instance(4, 3, lengths=[2, 4, 3], seed=6))


def test_end_padding_leaves_real_steps_alone():
    # Padding after a sequence's end: changing its inputs changes no real
    # step's output, and with no loss on padded steps their inputs get
    # exactly zero gradient.
    lengths = np.array([4, 1, 3])
    xs, wx, wh, b, weights = lstm_instance(5, 3, lengths=lengths, seed=11)
    padded = (np.arange(5)[:, None] >= lengths[None, :])[None, :, :, None]
    hs = lstm_forward(xs, wx, wh, b)[2][:, 1:]
    noisy = np.where(padded, np.random.default_rng(12).standard_normal(xs.shape) * 10.0, xs)
    noisy_hs = lstm_forward(noisy, wx, wh, b)[2][:, 1:]
    real = np.broadcast_to(~padded, hs.shape)
    assert np.array_equal(noisy_hs[real], hs[real])
    assert not np.array_equal(noisy_hs, hs)
    d_xs = lstm_backward(lstm_forward(noisy, wx, wh, b), weights, wx, wh)[0]
    assert np.all(d_xs[np.broadcast_to(padded, d_xs.shape)] == 0.0)
    assert np.all(d_xs[np.broadcast_to(~padded, d_xs.shape)] != 0.0)


def test_final_states_match_forward():
    # lstm_states against lstm_forward on the same end-padded batch, each
    # direction reading its own ids, sequences of 7 steps down to 1: every
    # real step's state matches, each final state hs[:, length] among
    # them, and states past a sequence's end stay zero.
    rng = np.random.default_rng(13)
    lengths = np.sort(rng.integers(1, 8, 10))[::-1]
    lengths[0] = 7
    lengths[-2:] = 1
    emb = rng.standard_normal((6, 3))
    ids = rng.integers(0, 6, (2, 7, 10))
    _, wx, wh, b, _ = lstm_instance(7, 10, seed=14)
    got = lstm_states(emb, ids, lengths, wx, wh, b)
    want = lstm_forward(emb[ids], wx, wh, b)[2]
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
