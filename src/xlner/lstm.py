"""LSTM layer kernels in numpy, both directions of a BiLSTM at once:
training's forward and backward-through-time over batches padded at their
end, and inference's cache-free forward over length-sorted sequences.

In lstm_forward and lstm_backward, padding sits after each sequence's last
real step in both directions, so no real step's output depends on it: the
kernels run every step in full, and the caller reads each sequence's final
state at its own last step and puts no loss gradient on padded steps.
lstm_states runs no padded step at all."""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    out = np.exp(np.negative(x, out=out), out=out)  # 1 / (1 + exp(-x)), into out when given
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


def _gate_slices(hd: int) -> tuple[slice, ...]:
    """Input, forget, cell and output gate slices of a 4*hd gate vector."""
    return tuple(slice(k * hd, (k + 1) * hd) for k in range(4))


def lstm_forward(xs: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
    """Both directions of an LSTM layer over end-padded sequences at once.

    xs is (dirs, steps, batch, d), each direction's inputs in the order it
    reads them; wx, wh and b hold the direction as axis 0. Returns the
    cache (xs, gates, hs, cs, tcs), in which hs[:, t + 1] is the output
    state of step t, so hs[:, n] is the final state of a sequence of
    length n."""
    n_dir, steps, batch, _ = xs.shape
    hd = wh.shape[1]
    gi, gf, gg, go = _gate_slices(hd)
    gx = (xs.reshape(n_dir, steps * batch, -1) @ wx).reshape(n_dir, steps, batch, 4 * hd) + b[:, None, None, :]
    gates = np.empty_like(gx)
    hs = np.zeros((n_dir, steps + 1, batch, hd))
    cs = np.zeros((n_dir, steps + 1, batch, hd))
    tcs = np.empty((n_dir, steps, batch, hd))
    for t in range(steps):
        z = gx[:, t] + hs[:, t] @ wh
        a = gates[:, t]
        _sigmoid(z, out=a)
        np.tanh(z[..., gg], out=a[..., gg])
        cs[:, t + 1] = a[..., gf] * cs[:, t] + a[..., gi] * a[..., gg]
        tcs[:, t] = np.tanh(cs[:, t + 1])
        hs[:, t + 1] = a[..., go] * tcs[:, t]
    return xs, gates, hs, cs, tcs


def lstm_backward(cache, d_hs: np.ndarray, wx: np.ndarray, wh: np.ndarray):
    """Backward through time for lstm_forward. d_hs, (dirs, steps, batch,
    hidden), is the loss gradient with respect to each output state; with
    none on a sequence's padded steps, their input gradient is exactly
    zero. Returns the gradients of xs, wx, wh and b."""
    xs, gates, hs, cs, tcs = cache
    n_dir, steps, batch, _ = xs.shape
    hd = wh.shape[1]
    gi, gf, gg, go = _gate_slices(hd)
    # Activation derivatives: s(1-s) for the sigmoid gates, 1-g^2 for the cell gate.
    deriv = gates * (1.0 - gates)
    deriv[..., gg] = 1.0 - gates[..., gg] ** 2
    d_tcs = 1.0 - tcs**2  # of tanh(c)
    dz = np.empty_like(gates)
    wh_t = wh.transpose(0, 2, 1)
    dh = np.zeros((n_dir, batch, hd))
    dc = np.zeros((n_dir, batch, hd))
    for t in range(steps - 1, -1, -1):
        dh += d_hs[:, t]
        a, d = gates[:, t], dz[:, t]
        dc += dh * a[..., go] * d_tcs[:, t]
        np.multiply(dc, a[..., gg], out=d[..., gi])
        np.multiply(dc, cs[:, t], out=d[..., gf])
        np.multiply(dc, a[..., gi], out=d[..., gg])
        np.multiply(dh, tcs[:, t], out=d[..., go])
        d *= deriv[:, t]
        dc *= a[..., gf]
        dh = d @ wh_t
    flat_dz = dz.reshape(n_dir, steps * batch, 4 * hd)
    d_wx = xs.reshape(n_dir, steps * batch, -1).transpose(0, 2, 1) @ flat_dz
    d_wh = hs[:, :-1].reshape(n_dir, steps * batch, hd).transpose(0, 2, 1) @ flat_dz
    d_xs = (flat_dz @ wx.transpose(0, 2, 1)).reshape(xs.shape)
    return d_xs, d_wx, d_wh, flat_dz.sum(axis=1)


def lstm_states(emb: np.ndarray, ids: np.ndarray, lengths: np.ndarray, wx, wh, b) -> np.ndarray:
    """Every step's output state for inference, no cache, no dropout, in
    lstm_forward's hs layout (dirs, steps + 1, batch, hidden): hs[:, n] is
    the final state of a sequence of length n.

    ids is (dirs, steps, batch), rows of emb that each direction reads in
    its own order; sequences come longest first, with lengths (batch,), so
    the sequences that still have a step t are a prefix of the batch, and
    step t runs on that prefix alone. Each step gathers its gate inputs
    from the projected table emb @ wx + b, one row per symbol and
    direction; no (steps, batch, 4 * hidden) tensor is built. States after
    a sequence's last step stay zero."""
    n_dir, steps, batch = ids.shape
    n_sym = emb.shape[0]
    hd = wh.shape[1]
    gi, gf, gg, go = _gate_slices(hd)
    table = (emb @ wx + b[:, None, :]).reshape(n_dir * n_sym, 4 * hd)
    rows = ids + (n_sym * np.arange(n_dir))[:, None, None]  # direction d reads table rows d * n_sym + id
    live = (lengths > np.arange(steps)[:, None]).sum(axis=1)  # live[t]: sequences longer than t
    hs = np.zeros((n_dir, steps + 1, batch, hd))
    c = np.zeros((n_dir, batch, hd))
    for t, n in enumerate(live):
        z = table[rows[:, t, :n]] + hs[:, t, :n] @ wh
        a = _sigmoid(z)
        c[:, :n] = a[..., gf] * c[:, :n] + a[..., gi] * np.tanh(z[..., gg])
        hs[:, t + 1, :n] = a[..., go] * np.tanh(c[:, :n])
    return hs
