import io
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xlner import embeddings
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
        assert np.array_equal(loaded.vectors[w], table.vectors[w])


def reference_load(text):
    """The per-line loader: (dim, vectors, duplicate warnings), or an
    EmbeddingError with the loader's message."""
    vectors, warned, dim = {}, [], None
    for lineno, line in enumerate(io.StringIO(text), start=1):
        fields = line.split()
        if not fields:
            continue
        if lineno == 1 and len(fields) == 2:
            try:
                int(fields[0]), int(fields[1])
            except ValueError:
                pass
            else:
                dim = int(fields[1])
                continue
        word, values = fields[0], fields[1:]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, got {len(values)}")
        if word in vectors:
            warned.append(f"duplicate word {word!r} at line {lineno}; keeping first")
            continue
        try:
            row = [float(v) for v in values]
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        bad = [v for v in values if not math.isfinite(float(v))]
        if bad:
            raise EmbeddingError(f"line {lineno}: non-finite value {bad[0]!r}")
        vectors[word] = np.array(row)
    return (dim if dim is not None else 0), vectors, warned


ORDINARY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-10, 10).map("{:.6f}".format),
    st.integers(-999, 999).map(str),
)
# float() accepts the first two and loadtxt does not; the rest are
# non-finite or rejected by both.
ODD = st.sampled_from(["1_0", "\u0661", "nan", "inf", "-inf", "1e400", "0x10", "1e"])
WORDS = st.text(alphabet="ab1Zæøλ中\u0661", min_size=1, max_size=3)


@st.composite
def table_texts(draw):
    """Embedding-table text with an optional `count dim` header, blank
    lines, duplicate words (well-formed and malformed rows), ragged and
    value-less rows, non-ASCII words and odd value tokens."""
    dim = draw(st.integers(1, 4))
    lines, words = [], []
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 99))} {draw(st.sampled_from([dim, dim, dim + 1]))}")
    # A third of the tables hold well-formed rows only: no block of them
    # needs the checked loop.
    kinds = draw(st.sampled_from([["row"], ["row"], ["row"] * 6 + ["blank", "dup", "dup", "ragged", "odd", "bare"]]))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        word = draw(st.sampled_from(words)) if kind == "dup" and words else draw(WORDS)
        words.append(word)
        width = dim + draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0 if kind == "bare" else dim
        values = draw(st.lists(ORDINARY, min_size=width, max_size=width))
        if kind == "odd" or (kind == "dup" and draw(st.booleans())):
            values[draw(st.integers(0, dim - 1))] = draw(ODD)
        lines.append(" ".join([word, *values]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("block", [1, 3, embeddings.BLOCK_ROWS])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=table_texts())
def test_load_matches_reference_loader(caplog, block, text):
    caplog.clear()
    try:
        want = reference_load(text)
    except EmbeddingError as exc:
        want = exc
    with pytest.MonkeyPatch.context() as mp, caplog.at_level(logging.WARNING, logger="xlner.embeddings"):
        mp.setattr(embeddings, "BLOCK_ROWS", block)
        try:
            got = load_embeddings(io.StringIO(text))
        except EmbeddingError as exc:
            got = exc
    if isinstance(want, EmbeddingError):
        assert isinstance(got, EmbeddingError)
        assert str(got) == str(want)
        return
    dim, vectors, warned = want
    assert not isinstance(got, EmbeddingError), got
    assert got.dim == dim
    assert list(got.vectors) == list(vectors)
    for word, row in vectors.items():
        assert got.vectors[word].dtype == np.float64
        assert got.vectors[word].tobytes() == row.tobytes()
    assert [r.getMessage() for r in caplog.records] == warned


@pytest.mark.parametrize(
    "bad, message",
    [("nan", "non-finite value 'nan'"), ("1e", "could not convert string to float: '1e'")],
)
def test_bad_value_in_a_later_block_names_its_line(tmp_path, bad, message):
    n = 2 * embeddings.BLOCK_ROWS + 10
    lines = [f"{n} 3"] + [f"w{i} {i} 0.5 -1" for i in range(n)]
    lineno = 2 * embeddings.BLOCK_ROWS + 7  # in the third block of rows
    lines[lineno - 1] = f"w{lineno} 1 {bad} 2"
    path = tmp_path / "t.vec"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(EmbeddingError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}: line {lineno}: {message}"


@pytest.mark.parametrize("text, dim", [("", 0), ("0 64\n", 64), ("\n \n\t\n", 0)])
def test_empty_and_header_only_tables(text, dim):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_embeddings(io.StringIO(text))
    assert table.dim == dim
    assert table.vectors == {}


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


@pytest.mark.parametrize("n", [1000, 1, 0])
def test_mapping_bit_equal_to_per_row_product(n):
    rng = np.random.default_rng(11)
    table = table_of([f"w{i}" for i in range(n)], dim=64, seed=12)
    w = random_orthogonal(rng, 64)
    mapped = apply_mapping(table, OrthogonalMap(w))
    assert mapped.dim == 64
    assert list(mapped.vectors) == list(table.vectors)
    for word, vec in table.vectors.items():
        assert mapped.vectors[word].tobytes() == (vec @ w).tobytes()


def test_mapping_dimension_mismatch():
    with pytest.raises(EmbeddingError):
        apply_mapping(table_of(["a"], dim=3), OrthogonalMap(np.eye(4)))
