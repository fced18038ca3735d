import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlner.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    OrthogonalMap,
    align_tables,
    apply_mapping,
    load_embeddings,
    mine_identical_seeds,
    procrustes_align,
    save_embeddings,
    word_form,
)
from xlner.synthetic import random_orthogonal


def table_of(words, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(dim, {w: rng.standard_normal(dim) for w in words})


# ------------------------------------------------------------------- loading


def test_load_basic():
    table = load_embeddings(io.StringIO("hund 1 2 3\nkat 4 5 6\n"))
    assert len(table) == 2
    assert table.dim == 3
    assert np.array_equal(table.vectors["hund"], [1, 2, 3])


def test_load_header():
    table = load_embeddings(io.StringIO("2 4\na 1 2 3 4\nb 5 6 7 8\n"))
    assert table.dim == 4
    assert len(table) == 2


def test_load_inconsistent_rows():
    with pytest.raises(EmbeddingError, match="line 2"):
        load_embeddings(io.StringIO("a 1 2 3\nb 1 2\n"))


def test_load_duplicate_keeps_first(caplog):
    table = load_embeddings(io.StringIO("a 1 2\na 3 4\n"))
    assert np.array_equal(table.vectors["a"], [1, 2])


def test_save_load_round_trip(tmp_path):
    table = table_of(["a", "b", "ø"], dim=5)
    save_embeddings(table, tmp_path / "t.vec")
    loaded = load_embeddings(tmp_path / "t.vec")
    assert loaded.dim == 5
    assert set(loaded.vectors) == set(table.vectors)
    for w in table.vectors:
        assert np.allclose(loaded.vectors[w], table.vectors[w], atol=1e-6)


# -------------------------------------------------------------------- lookup


def test_lookup_exact():
    table = table_of(["Rom", "rom"])
    assert word_form(table.vectors, "Rom") == "Rom"


def test_lookup_lowercase_fallback():
    table = table_of(["rom"])
    assert word_form(table.vectors, "Rom") == "rom"


def test_lookup_digit_fallback():
    table = table_of(["##", "x"])
    assert word_form(table.vectors, "19") == "##"


def test_lookup_oov():
    table = table_of(["a"])
    assert word_form(table.vectors, "zzz") is None


# --------------------------------------------------------------------- seeds


def test_seeds_disjoint():
    with pytest.raises(EmbeddingError, match="no seeds"):
        mine_identical_seeds(table_of(["a"]), table_of(["b"]))


def test_seeds_intersection():
    seeds = mine_identical_seeds(table_of(["a", "b", "c"]), table_of(["b", "c", "d"]))
    assert seeds.pairs == (("b", "b"), ("c", "c"))


def test_seeds_case_sensitive():
    with pytest.raises(EmbeddingError):
        mine_identical_seeds(table_of(["Rom"]), table_of(["rom"]))


def test_seeds_symmetric():
    src, tgt = table_of(["a", "b", "x"]), table_of(["b", "x", "y"])
    fwd = {s for s, _ in mine_identical_seeds(src, tgt).pairs}
    bwd = {s for s, _ in mine_identical_seeds(tgt, src).pairs}
    assert fwd == bwd


# ---------------------------------------------------------------- procrustes


def test_identity_alignment():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 4))
    mapping = procrustes_align(x, x)
    assert np.linalg.norm(mapping.matrix - np.eye(4)) < 1e-8


def test_recovers_planted_rotation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 6))
    r = random_orthogonal(rng, 6)
    mapping = procrustes_align(x, x @ r)
    assert np.linalg.norm(mapping.matrix - r) < 1e-6


def test_beats_random_rotations():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 4))
    y = x @ random_orthogonal(rng, 4) + 0.01 * rng.standard_normal((20, 4))
    w = procrustes_align(x, y).matrix
    loss = np.linalg.norm(x @ w - y)
    for _ in range(100):
        q = random_orthogonal(rng, 4)
        assert loss <= np.linalg.norm(x @ q - y) + 1e-12


def test_orthogonality_enforced():
    with pytest.raises(EmbeddingError):
        OrthogonalMap(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_rank_deficient_input_still_orthogonal():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((12, 1))
    x = base @ rng.standard_normal((1, 5))
    y = base @ rng.standard_normal((1, 5))
    mapping = procrustes_align(x, y)  # validated orthogonal in the constructor
    assert mapping.dim == 5
    zeros = np.zeros((4, 3))
    assert procrustes_align(zeros, zeros).dim == 3


def test_rejects_nan():
    x = np.zeros((3, 2))
    y = np.full((3, 2), np.nan)
    with pytest.raises(EmbeddingError):
        procrustes_align(x, y)


def test_alignment_deterministic():
    src = table_of(["a", "b", "c", "d", "e"], dim=4, seed=5)
    tgt = table_of(["a", "b", "c", "d", "e"], dim=4, seed=6)
    w1 = align_tables(src, tgt).matrix
    w2 = align_tables(src, tgt).matrix
    assert np.array_equal(w1, w2)


# ------------------------------------------------------------------- mapping


def test_identity_map_keeps_table():
    table = table_of(["a", "b"], dim=3)
    mapped = apply_mapping(table, OrthogonalMap(np.eye(3)))
    for w in table.vectors:
        assert np.allclose(mapped.vectors[w], table.vectors[w])


def test_mapping_preserves_norms_and_cosines():
    rng = np.random.default_rng(7)
    table = table_of(["a", "b", "c"], dim=6, seed=8)
    mapping = OrthogonalMap(random_orthogonal(rng, 6))
    mapped = apply_mapping(table, mapping)
    for w in table.vectors:
        assert np.linalg.norm(mapped.vectors[w]) == pytest.approx(
            np.linalg.norm(table.vectors[w]), abs=1e-6
        )
    a, b = table.vectors["a"], table.vectors["b"]
    am, bm = mapped.vectors["a"], mapped.vectors["b"]
    assert float(a @ b) == pytest.approx(float(am @ bm), abs=1e-6)


def test_inverse_mapping_round_trip():
    rng = np.random.default_rng(9)
    table = table_of(["a", "b"], dim=5, seed=10)
    mapping = OrthogonalMap(random_orthogonal(rng, 5))
    back = apply_mapping(apply_mapping(table, mapping), OrthogonalMap(mapping.matrix.T))
    for w in table.vectors:
        assert np.allclose(back.vectors[w], table.vectors[w], atol=1e-6)


def test_mapping_dimension_mismatch():
    with pytest.raises(EmbeddingError):
        apply_mapping(table_of(["a"], dim=3), OrthogonalMap(np.eye(4)))
