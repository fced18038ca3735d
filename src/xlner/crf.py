"""Linear-chain CRF: log-partition via the forward algorithm, Viterbi
decoding, and the negative log-likelihood with its gradient by
forward-backward posteriors.

Transition matrices are (K+2) x (K+2): K tag states plus a start state at
index K and a stop state at index K+1.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def _logsumexp(x: np.ndarray, axis: Optional[int] = None):
    m = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    return out.squeeze(axis) if axis is not None else out.item()


def crf_score(emissions: np.ndarray, transitions: np.ndarray, tags: Sequence[int]) -> float:
    """Unnormalized log-score of one tag path, start/stop terms included."""
    t_len, k = emissions.shape
    start, stop = k, k + 1
    tags = list(tags)
    score = transitions[start, tags[0]] + emissions[0, tags[0]]
    for t in range(1, t_len):
        score += transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    return float(score + transitions[tags[-1], stop])


def _forward_scores(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """alpha[t, j]: log sum of exp(score) over path prefixes ending in tag
    j at step t, the start transition included."""
    t_len, k = emissions.shape
    alpha = np.empty((t_len, k))
    alpha[0] = transitions[k, :k] + emissions[0]
    for t in range(1, t_len):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + transitions[:k, :k] + emissions[t][None, :], axis=0)
    return alpha


def crf_log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """log sum over all tag paths of exp(path score)."""
    k = emissions.shape[1]
    return float(_logsumexp(_forward_scores(emissions, transitions)[-1] + transitions[:k, k + 1]))


def crf_neg_log_likelihood(
    emissions: np.ndarray, transitions: np.ndarray, tags: Sequence[int]
) -> float:
    return crf_log_partition(emissions, transitions) - crf_score(emissions, transitions, tags)


def viterbi_decode(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Highest-scoring tag path; argmax ties resolve to the lowest tag
    index at every step."""
    t_len, k = emissions.shape
    start, stop = k, k + 1
    delta = transitions[start, :k] + emissions[0]
    backptr = np.zeros((t_len, k), dtype=np.intp)
    for t in range(1, t_len):
        scores = delta[:, None] + transitions[:k, :k]
        backptr[t] = scores.argmax(axis=0)  # first max = lowest prev index
        delta = scores.max(axis=0) + emissions[t]
    delta = delta + transitions[:k, stop]
    best = int(delta.argmax())
    path = [best]
    for t in range(t_len - 1, 0, -1):
        best = int(backptr[t, best])
        path.append(best)
    path.reverse()
    return path


def crf_nll_grad(
    emissions: np.ndarray, transitions: np.ndarray, tags: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray]:
    """crf_neg_log_likelihood and its gradients with respect to emissions
    and transitions: posterior tag (and tag-pair) marginals from the
    forward-backward algorithm, minus the gold path's indicators."""
    t_len, k = emissions.shape
    start, stop = k, k + 1
    trans = transitions[:k, :k]
    alpha = _forward_scores(emissions, transitions)
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
