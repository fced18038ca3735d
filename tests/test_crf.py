import itertools

import numpy as np
import pytest

from xlner.crf import crf_nll_grad, crf_score, viterbi_decode


def brute_force_paths(emissions, transitions):
    """Oracle: enumerate every tag path and score it by direct summation."""
    t_len, k = emissions.shape
    start, stop = k, k + 1
    scores = {}
    for path in itertools.product(range(k), repeat=t_len):
        s = transitions[start, path[0]] + emissions[0, path[0]]
        for t in range(1, t_len):
            s += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        s += transitions[path[-1], stop]
        scores[path] = s
    return scores


def nll(emissions, transitions, gold):
    """crf_nll_grad's negative log-likelihood of the gold path."""
    return crf_nll_grad(emissions, transitions, gold)[0]


def log_partition(emissions, transitions):
    """log Z as crf_nll_grad computes it: the NLL of a path (all tag 0)
    plus that path's crf_score."""
    path = [0] * len(emissions)
    return nll(emissions, transitions, path) + crf_score(emissions, transitions, path)


def random_instance(rng, t_len, k, scale=2.0):
    return (
        scale * rng.standard_normal((t_len, k)),
        scale * rng.standard_normal((k + 2, k + 2)),
    )


def test_single_step_partition():
    rng = np.random.default_rng(0)
    em, tr = random_instance(rng, 1, 4)
    k = 4
    expected = np.logaddexp.reduce(tr[k, :k] + em[0] + tr[:k, k + 1])
    assert log_partition(em, tr) == pytest.approx(expected, abs=1e-12)


def test_partition_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t_len = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        em, tr = random_instance(rng, t_len, k)
        scores = brute_force_paths(em, tr)
        expected = np.logaddexp.reduce(list(scores.values()))
        assert log_partition(em, tr) == pytest.approx(expected, abs=1e-10)


def test_emission_shift_property():
    rng = np.random.default_rng(2)
    em, tr = random_instance(rng, 4, 3)
    c = 1.7
    shifted = log_partition(em + c, tr)
    assert shifted == pytest.approx(log_partition(em, tr) + 4 * c, abs=1e-9)


def test_partition_dominates_any_path():
    rng = np.random.default_rng(3)
    for _ in range(20):
        em, tr = random_instance(rng, 3, 3)
        log_z = log_partition(em, tr)
        for path, score in brute_force_paths(em, tr).items():
            assert log_z >= score - 1e-12


def test_path_posteriors_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        t_len = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        em, tr = random_instance(rng, t_len, k)
        log_z = log_partition(em, tr)
        total = sum(np.exp(s - log_z) for s in brute_force_paths(em, tr).values())
        assert total == pytest.approx(1.0, abs=1e-10)


def test_nll_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(30):
        t_len = int(rng.integers(1, 4))
        k = 3
        em, tr = random_instance(rng, t_len, k)
        gold = [int(g) for g in rng.integers(0, k, t_len)]
        scores = brute_force_paths(em, tr)
        expected = np.logaddexp.reduce(list(scores.values())) - scores[tuple(gold)]
        assert nll(em, tr, gold) == pytest.approx(expected, abs=1e-10)


def test_nll_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(50):
        em, tr = random_instance(rng, 4, 4)
        gold = [int(g) for g in rng.integers(0, 4, 4)]
        assert nll(em, tr, gold) >= -1e-9


def test_nll_vanishes_with_huge_margin():
    k = 3
    em = np.zeros((2, k))
    em[0, 1] = em[1, 2] = 100.0
    tr = np.zeros((k + 2, k + 2))
    assert nll(em, tr, [1, 2]) == pytest.approx(0.0, abs=1e-6)


def test_viterbi_single_token():
    rng = np.random.default_rng(7)
    em, tr = random_instance(rng, 1, 5)
    totals = tr[5, :5] + em[0] + tr[:5, 6]
    assert viterbi_decode(em[None], tr, [1]) == [[int(np.argmax(totals))]]


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(60):
        t_len = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        em, tr = random_instance(rng, t_len, k)
        scores = brute_force_paths(em, tr)
        best = max(scores, key=lambda p: (scores[p], [-x for x in p]))
        assert tuple(viterbi_decode(em[None], tr, [t_len])[0]) == best


def test_viterbi_tie_break_lowest_index():
    k = 3
    em = np.zeros((2, k))
    tr = np.zeros((k + 2, k + 2))
    assert viterbi_decode(em[None], tr, [2]) == [[0, 0]]


def test_batched_viterbi_matches_enumeration():
    # Each batch holds a length-1 sequence; padded steps hold large noise
    # that a decoder reading past a sequence's length would follow.
    rng = np.random.default_rng(14)
    for _ in range(40):
        batch, steps, k = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(2, 4))
        lengths = rng.integers(1, steps + 1, batch)
        lengths[rng.integers(batch)] = 1
        em = rng.standard_normal((batch, steps, k)) * 2.0
        em[np.arange(steps) >= lengths[:, None]] = 50.0 * rng.standard_normal(k)
        tr = rng.standard_normal((k + 2, k + 2)) * 2.0
        paths = viterbi_decode(em, tr, lengths)
        assert len(paths) == batch
        for b, n in enumerate(lengths):
            scores = brute_force_paths(em[b, :n], tr)
            assert tuple(paths[b]) == max(scores, key=scores.get)


def test_batched_viterbi_tie_break_lowest_index():
    # Integer scores make ties exact. Lowest-index argmax at the last step
    # and along the back-pointers picks, among best paths, the one whose
    # reversed tag sequence is smallest.
    rng = np.random.default_rng(15)
    for _ in range(40):
        batch, steps, k = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
        lengths = rng.integers(1, steps + 1, batch)
        lengths[rng.integers(batch)] = 1
        em = rng.integers(-1, 2, (batch, steps, k)).astype(float)
        tr = rng.integers(-1, 2, (k + 2, k + 2)).astype(float)
        for b, path in enumerate(viterbi_decode(em, tr, lengths)):
            scores = brute_force_paths(em[b, : lengths[b]], tr)
            top = max(scores.values())
            assert tuple(path) == min((p for p, s in scores.items() if s == top), key=lambda p: p[::-1])


def test_decoded_score_dominates_gold():
    rng = np.random.default_rng(9)
    for _ in range(30):
        em, tr = random_instance(rng, 4, 4)
        gold = [int(g) for g in rng.integers(0, 4, 4)]
        (decoded,) = viterbi_decode(em[None], tr, [4])
        assert crf_score(em, tr, decoded) >= crf_score(em, tr, gold) - 1e-12


# Shapes (T, k) for the gradient checks: single steps, a single tag, both.
GRAD_SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (4, 2), (2, 4)]


def test_tape_nll_matches_plain():
    # the gradient checks' shapes, single steps and a single tag included,
    # against plain enumeration
    rng = np.random.default_rng(10)
    for t_len, k in GRAD_SHAPES * 3:
        em, tr = random_instance(rng, t_len, k)
        gold = [int(g) for g in rng.integers(0, k, t_len)]
        scores = brute_force_paths(em, tr)
        expected = np.logaddexp.reduce(list(scores.values())) - scores[tuple(gold)]
        assert nll(em, tr, gold) == pytest.approx(expected, abs=1e-10)


def test_nll_grad_emissions_are_posterior_minus_gold():
    rng = np.random.default_rng(11)
    for t_len, k in GRAD_SHAPES:
        em, tr = random_instance(rng, t_len, k)
        gold = [int(g) for g in rng.integers(0, k, t_len)]
        scores = brute_force_paths(em, tr)
        log_z = np.logaddexp.reduce(list(scores.values()))
        expected = np.zeros((t_len, k))
        for path, score in scores.items():
            expected[np.arange(t_len), list(path)] += np.exp(score - log_z)
        expected[np.arange(t_len), gold] -= 1.0
        _, d_em, _ = crf_nll_grad(em, tr, gold)
        assert np.allclose(d_em, expected, atol=1e-10), (t_len, k)


def test_tape_nll_gradients():
    rng = np.random.default_rng(12)
    eps = 1e-6
    for t_len, k in GRAD_SHAPES:
        em, tr = random_instance(rng, t_len, k)
        gold = [int(g) for g in rng.integers(0, k, t_len)]
        _, _, d_tr = crf_nll_grad(em, tr, gold)
        num = np.zeros_like(tr)
        for ix in np.ndindex(tr.shape):
            orig = tr[ix]
            tr[ix] = orig + eps
            hi = nll(em, tr, gold)
            tr[ix] = orig - eps
            lo = nll(em, tr, gold)
            tr[ix] = orig
            num[ix] = (hi - lo) / (2 * eps)
        assert np.allclose(d_tr, num, atol=1e-8), (t_len, k)
