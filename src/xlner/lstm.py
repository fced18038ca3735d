"""LSTM layer kernels in numpy, both directions of a BiLSTM at once, over
sequences sorted longest first: lstm_forward runs each step on the
sequences still live and keeps the cache that lstm_backward, backward
through time, reads. Training and inference run the same two kernels.

Padding sits after each sequence's last step in both directions, and no
padded step is run: padding reaches no state, and the embedding rows it
reads get no gradient."""

from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray) -> None:
    """z = 1 / (1 + exp(-z)), in place."""
    np.exp(np.negative(z, out=z), out=z)
    np.divide(1.0, np.add(z, 1.0, out=z), out=z)


def _gate_slices(hd: int) -> tuple[slice, ...]:
    """Input, forget, cell and output gate slices of a 4*hd gate vector."""
    return tuple(slice(k * hd, (k + 1) * hd) for k in range(4))


def lstm_forward(emb: np.ndarray, ids: np.ndarray, lengths: np.ndarray, wx, wh, b):
    """Both directions of an LSTM layer over length-sorted sequences.

    ids is (dirs, steps, batch), rows of emb that each direction reads in
    its own order; sequences come longest first, with lengths (batch,), so
    the sequences that still have a step t are a prefix of the batch, and
    step t runs on that prefix alone. wx, wh and b hold the direction as
    axis 0. Each step gathers its gate inputs from the projected table
    emb @ wx + b, one row per symbol and direction.

    Returns the cache (hs, cs, emb, table, rows, real), which holds no
    gates. hs, (dirs, steps + 1, batch, hidden), holds every step's output
    state: hs[:, t + 1] is step t's, so hs[:, n] is the final state of a
    sequence of length n, and states after a sequence's last step stay
    zero; cs holds the cell states alike."""
    n_dir, steps, batch = ids.shape
    hd = wh.shape[1]
    gi, gf, gg, go = _gate_slices(hd)
    table = (emb @ wx + b[:, None, :]).reshape(-1, 4 * hd)
    rows = ids + (len(emb) * np.arange(n_dir))[:, None, None]  # direction d reads table rows d * len(emb) + id
    real = np.arange(steps)[:, None] < lengths  # (steps, batch): the live steps
    hs = np.zeros((n_dir, steps + 1, batch, hd))
    cs = np.zeros((n_dir, steps + 1, batch, hd))
    for t, n in enumerate(real.sum(axis=1).tolist()):
        z = table[rows[:, t, :n]]
        z += hs[:, t, :n] @ wh
        g = np.tanh(z[..., gg])
        _sigmoid(z)  # the input, forget and output gates; the cell slice is not read
        c = cs[:, t + 1, :n]
        np.multiply(z[..., gf], cs[:, t, :n], out=c)
        c += z[..., gi] * g
        np.multiply(z[..., go], np.tanh(c), out=hs[:, t + 1, :n])
    return hs, cs, emb, table, rows, real


def lstm_backward(cache, d_hs: np.ndarray, wx: np.ndarray, wh: np.ndarray):
    """Backward through time for lstm_forward. d_hs, (dirs, steps, batch,
    hidden), is the loss gradient with respect to each step's output state
    hs[:, t + 1]; its entries past a sequence's last step are not read.
    Returns the gradients of emb, wx, wh and b; each emb row's gradient
    sums every step that reads it.

    The gates are computed again from the cached states, for every live
    step at once (one matmul may round them otherwise than the forward's
    per-step ones), packed in real's row-major order: step t's live
    sequences, a prefix of the batch, follow step t - 1's."""
    hs, cs, emb, table, rows, real = cache
    n_dir, _, batch, hd = hs.shape
    gi, gf, gg, go = _gate_slices(hd)
    slot_rows = rows[:, real]
    h_prev, c_prev, tc = hs[:, :-1][:, real], cs[:, :-1][:, real], np.tanh(cs[:, 1:][:, real])
    z = table[slot_rows]
    z += h_prev @ wh
    g = np.tanh(z[..., gg])
    _sigmoid(z)
    # k scales dc (for the output gate, dh) into each gate's pre-activation
    # gradient: g i(1-i), c_prev f(1-f), i (1-g^2) and tanh(c) o(1-o); p
    # scales dh into dc: o (1 - tanh(c)^2).
    k = z * (1.0 - z)
    k[..., gi] *= g
    k[..., gf] *= c_prev
    np.multiply(z[..., gi], 1.0 - g * g, out=k[..., gg])
    k[..., go] *= tc
    p = z[..., go] * (1.0 - tc * tc)
    dz = np.empty_like(z)
    three = (n_dir, -1, 3, hd)  # the input, forget and cell gate slices side by side
    k3, dz3 = k[..., : 3 * hd].reshape(three), dz[..., : 3 * hd].reshape(three)
    wh_t = wh.transpose(0, 2, 1)
    dh = np.zeros((n_dir, batch, hd))
    dc = np.zeros((n_dir, batch, hd))
    live = real.sum(axis=1)
    for t, n, end in zip(range(len(live) - 1, -1, -1), live[::-1].tolist(), np.cumsum(live)[::-1].tolist()):
        s, h, c = slice(end - n, end), dh[:, :n], dc[:, :n]
        h += d_hs[:, t, :n]
        c += h * p[:, s]
        np.multiply(c[:, :, None], k3[:, s], out=dz3[:, s])
        np.multiply(h, k[:, s, go], out=dz[:, s, go])
        c *= z[:, s, gf]
        h[...] = dz[:, s] @ wh_t
    slot_ids = slot_rows - (len(emb) * np.arange(n_dir))[:, None]
    d_wx = emb[slot_ids].transpose(0, 2, 1) @ dz
    d_wh = h_prev.transpose(0, 2, 1) @ dz
    # Each slot's input gradient summed into its emb row in slot order, as
    # np.add.at would, but by one bincount over (row, column) cells, which
    # is two to four times faster here.
    d_x = (dz @ wx.transpose(0, 2, 1)).reshape(-1)
    cells = slot_ids.reshape(-1, 1) * emb.shape[1] + np.arange(emb.shape[1])
    d_emb = np.bincount(cells.reshape(-1), d_x, minlength=emb.size).reshape(emb.shape)
    return d_emb, d_wx, d_wh, dz.sum(axis=1)
