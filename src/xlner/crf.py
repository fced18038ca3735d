"""Linear-chain CRF: path scores, Viterbi decoding of a batch of sequences
of different lengths at once, and the negative log-likelihood with its
gradient by the forward-backward algorithm.

Transition matrices are (K+2) x (K+2): K tag states plus a start state at
index K and a stop state at index K+1.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def _logsumexp(x: np.ndarray, axis: Optional[int] = None):
    m = x.max(axis=axis)  # axis: None, 0, or 1 of a 2-d x
    return np.log(np.exp(x - (m[:, None] if axis == 1 else m)).sum(axis=axis)) + m


def crf_score(emissions: np.ndarray, transitions: np.ndarray, tags: Sequence[int]) -> float:
    """Unnormalized log-score of one tag path, start/stop terms included."""
    t_len, k = emissions.shape
    start, stop = k, k + 1
    tags = list(tags)
    score = transitions[start, tags[0]] + emissions[0, tags[0]]
    for t in range(1, t_len):
        score += transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    return float(score + transitions[tags[-1], stop])


def viterbi_decode(emissions: np.ndarray, transitions: np.ndarray, lengths: Sequence[int]) -> list[list[int]]:
    """Highest-scoring tag path of each sequence of a batch. emissions is
    (batch, steps, k); sequence b has lengths[b] >= 1 real steps, and its
    steps after them are ignored. Argmax ties resolve to the lowest tag
    index at every step."""
    batch, steps, k = emissions.shape
    start, stop = k, k + 1
    lengths = np.asarray(lengths)
    delta = transitions[start, :k] + emissions[:, 0]
    backptr = np.zeros((batch, steps, k), dtype=np.intp)
    for t in range(1, steps):
        scores = delta[:, :, None] + transitions[:k, :k]
        backptr[:, t] = scores.argmax(axis=1)  # first max = lowest prev index
        delta = np.where((t < lengths)[:, None], scores.max(axis=1) + emissions[:, t], delta)
    best = (delta + transitions[:k, stop]).argmax(axis=1)
    paths = np.empty((batch, steps), dtype=np.intp)
    rows = np.arange(batch)
    tag = best
    for t in range(steps - 1, -1, -1):
        tag = np.where(t == lengths - 1, best, tag)  # a sequence's last step takes its best final tag
        paths[:, t] = tag
        tag = backptr[rows, t, tag]
    return [path[:n].tolist() for path, n in zip(paths, lengths)]


def crf_nll_grad(
    emissions: np.ndarray, transitions: np.ndarray, tags: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray]:
    """The negative log-likelihood of the gold path tags, log Z minus its
    crf_score, and its gradients with respect to emissions and
    transitions: posterior tag (and tag-pair) marginals from the
    forward-backward algorithm, minus the gold path's indicators."""
    t_len, k = emissions.shape
    start, stop = k, k + 1
    trans = transitions[:k, :k]
    alpha = np.empty((t_len, k))  # log sum over path prefixes ending in each tag at step t
    alpha[0] = transitions[start, :k] + emissions[0]
    for t in range(1, t_len):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans + emissions[t][None, :], axis=0)
    beta = np.empty((t_len, k))  # log sum over path suffixes after step t
    beta[-1] = transitions[:k, stop]
    for t in range(t_len - 2, -1, -1):
        beta[t] = _logsumexp(trans + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)
    log_z = float(_logsumexp(alpha[-1] + beta[-1]))

    d_emissions = np.exp(alpha + beta - log_z)
    d_transitions = np.zeros_like(transitions)
    d_transitions[start, :k] = d_emissions[0]
    d_transitions[:k, stop] = d_emissions[-1]
    if t_len > 1:
        pairs = alpha[:-1, :, None] + trans[None] + (emissions[1:] + beta[1:])[:, None, :]
        d_transitions[:k, :k] = np.exp(pairs - log_z).sum(axis=0)

    tags = np.asarray(tags, dtype=np.intp)
    d_emissions[np.arange(t_len), tags] -= 1.0
    np.subtract.at(d_transitions, (np.concatenate(([start], tags)), np.concatenate((tags, [stop]))), 1.0)
    return log_z - crf_score(emissions, transitions, tags), d_emissions, d_transitions
