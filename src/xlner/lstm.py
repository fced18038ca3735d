"""LSTM layer kernels in numpy: forward and backward-through-time for
both directions of a BiLSTM at once, over batches padded at their end.

Padding sits after each sequence's last real step in both directions, so
no real step's output depends on it: the kernels run every step in full,
and the caller reads each sequence's final state at its own last step and
puts no loss gradient on padded steps."""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


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
        a[...] = _sigmoid(z)
        a[..., gg] = np.tanh(z[..., gg])
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
    dz = np.empty_like(gates)
    wh_t = wh.transpose(0, 2, 1)
    dh = np.zeros((n_dir, batch, hd))
    dc = np.zeros((n_dir, batch, hd))
    for t in range(steps - 1, -1, -1):
        dh = dh + d_hs[:, t]
        a, d = gates[:, t], dz[:, t]
        dc = dc + dh * a[..., go] * (1.0 - tcs[:, t] ** 2)
        d[..., gi] = dc * a[..., gg]
        d[..., gf] = dc * cs[:, t]
        d[..., gg] = dc * a[..., gi]
        d[..., go] = dh * tcs[:, t]
        d *= deriv[:, t]
        dc = dc * a[..., gf]
        dh = d @ wh_t
    flat_dz = dz.reshape(n_dir, steps * batch, 4 * hd)
    d_wx = xs.reshape(n_dir, steps * batch, -1).transpose(0, 2, 1) @ flat_dz
    d_wh = hs[:, :-1].reshape(n_dir, steps * batch, hd).transpose(0, 2, 1) @ flat_dz
    d_xs = (flat_dz @ wx.transpose(0, 2, 1)).reshape(xs.shape)
    return d_xs, d_wx, d_wh, flat_dz.sum(axis=1)
