import io
import logging
import math
import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xlner import embeddings
from xlner.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    OrthogonalMap,
    align_tables,
    apply_mapping,
    cut_table,
    load_embeddings,
    merge_tables,
    mine_identical_seeds,
    procrustes_align,
    save_embeddings,
    word_form,
)
from xlner.synthetic import random_orthogonal

from conftest import table_from_dict


def table_of(words, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return table_from_dict(dim, {w: rng.standard_normal(dim) for w in words})


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


def test_save_writes_each_value_as_its_float_repr(tmp_path):
    # The per-value writer, repr(float(x)) for each numpy scalar, is the
    # referee: float32 rows widen exactly, integers become floats, and
    # signed zeros, large and small magnitudes keep repr's spelling.
    table = table_from_dict(
        4,
        {
            "f32": np.array([0.1, -2.5, 3.4028235e38, 1e-5], dtype=np.float32),
            "int": np.array([0, -3, 2**53 + 1, 7], dtype=np.int64),
            "zeros": np.array([-0.0, 0.0, -0.0, 1.0]),
            "wide": np.array([1e16, 1e-5, -1e16, 123456789.125]),
            "ø": np.random.default_rng(0).standard_normal(4),
        },
    )
    save_embeddings(table, tmp_path / "t.vec")
    expected = "5 4\n" + "".join(
        word + " " + " ".join(repr(float(x)) for x in vec) + "\n" for word, vec in table.vectors.items()
    )
    assert (tmp_path / "t.vec").read_bytes() == expected.encode("utf-8")
    assert "-0.0 0.0 -0.0 1.0" in expected and "1e+16 1e-05" in expected


def test_failed_save_keeps_the_old_table(tmp_path, monkeypatch):
    # one row per write, and the write raises at a word UTF-8 cannot encode
    # (a lone surrogate), after the header and the first row went out: the
    # old file keeps its bytes, and no temporary file is left beside it
    path = tmp_path / "t.vec"
    save_embeddings(table_of(["a", "b"]), path)
    old = path.read_bytes()
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", 1)
    with pytest.raises(UnicodeEncodeError):
        save_embeddings(table_of(["c", "\ud800"]), path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["t.vec"]


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
                if dim < 0:
                    raise EmbeddingError(f"line 1: negative dimension {dim}")
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
# A headerless first row that reads as `count dim` with a negative dim is a
# bad header, not a row: the loader rejects it at line 1.
@example(text="1 -1\n1 0.0\n")
@example(text="1 -1\n")
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


def test_negative_header_dimension_is_an_error():
    with pytest.raises(EmbeddingError, match="line 1: negative dimension -2"):
        load_embeddings(io.StringIO("0 -2\n"))


def traced_peak(fn, *args):
    """fn(*args) and the peak of the Python memory it allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def rows_text(n, dim):
    rng = np.random.default_rng(n)
    row = " ".join(["%.6f"] * dim)
    lines = [f"w{i} " + row % tuple(vec) for i, vec in enumerate(rng.standard_normal((n, dim)))]
    # a duplicate in the last block takes the checked loop and warns
    return "\n".join([*lines[:-1], "w1 " + lines[-1].split(None, 1)[1]]) + "\n"


@pytest.mark.parametrize("count", [0, 1, 100, 10**12])
def test_header_count_is_only_a_hint(caplog, count):
    # Too small or far too large a count loads the rows present, with the
    # values and warnings of the per-line loader, and allocates no more
    # than the same rows under a true count plus one more matrix.
    n, dim = 2 * embeddings.BLOCK_ROWS + 10, 64
    body = rows_text(n, dim)
    want_dim, want, warned = reference_load(f"{n - 1} {dim}\n" + body)
    peaks = []
    for header in (f"{n - 1} {dim}", f"{count} {dim}"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="xlner.embeddings"):
            table, peak = traced_peak(load_embeddings, io.StringIO(header + "\n" + body))
        peaks.append(peak)
        assert table.dim == want_dim
        assert table.words == list(want) and len(table.matrix) == len(want)
        assert table.matrix.tobytes() == np.stack(list(want.values())).tobytes()
        assert [r.getMessage() for r in caplog.records] == warned
    true_peak, peak = peaks
    assert peak <= true_peak + table.matrix.nbytes, (peak, true_peak)


@pytest.mark.parametrize("as_file", [True, False])
def test_headerless_files_and_streams_load(tmp_path, as_file):
    text = rows_text(embeddings.BLOCK_ROWS + 5, 3)
    path = tmp_path / "t.vec"
    path.write_text(text, encoding="utf-8")
    table = load_embeddings(path if as_file else text.splitlines(keepends=True))
    dim, want, _ = reference_load(text)
    assert table.dim == dim == 3
    assert table.words == list(want)
    assert table.matrix.tobytes() == np.stack(list(want.values())).tobytes()


def test_load_peaks_below_one_and_a_half_matrices(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("12000 64\n" + rows_text(12_001, 64), encoding="utf-8")
    table, peak = traced_peak(load_embeddings, path)
    assert table.matrix.shape == (12_000, 64)
    assert peak < 1.5 * table.matrix.nbytes, (peak, table.matrix.nbytes)


@pytest.mark.parametrize("protocol", sorted({pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL}))
def test_unpickling_allocates_about_one_matrix(protocol):
    words = [f"w{i:05d}" for i in range(20_000)]
    table = EmbeddingTable(words, np.random.default_rng(0).standard_normal((20_000, 64)))
    blob = pickle.dumps(table, protocol=protocol)
    copy, peak = traced_peak(pickle.loads, blob)
    assert peak < 1.3 * table.matrix.nbytes, (peak, table.matrix.nbytes)
    assert copy.words == words and copy.index == table.index
    assert copy.matrix.tobytes() == table.matrix.tobytes()


def test_vectors_is_a_read_only_view():
    table = table_of(["a", "b"])
    assert list(table.vectors) == ["a", "b"] and "b" in table.vectors and len(table.vectors) == 2
    assert np.shares_memory(table.vectors["b"], table.matrix)
    with pytest.raises(AttributeError):
        table.vectors = {}
    with pytest.raises(ValueError):
        table.vectors["a"][0] = 1.0


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
    with pytest.raises(EmbeddingError, match="dimension mismatch"):
        save_embeddings(table_of(["a"], dim=3), os.devnull, OrthogonalMap(np.eye(4)))


@pytest.mark.parametrize("n", [300, 1, 0])
def test_save_with_a_mapping_writes_the_mapped_table(tmp_path, n):
    # Blocks rotated as they are written give apply_mapping's bytes.
    table = table_of([f"w{i}" for i in range(n)], dim=16, seed=13)
    mapping = OrthogonalMap(random_orthogonal(np.random.default_rng(14), 16))
    save_embeddings(table, tmp_path / "streamed.vec", mapping)
    save_embeddings(apply_mapping(table, mapping), tmp_path / "mapped.vec")
    assert (tmp_path / "streamed.vec").read_bytes() == (tmp_path / "mapped.vec").read_bytes()


def test_cut_table_keeps_the_named_rows_in_table_order():
    table = table_of(["a", "b", "c", "d"], seed=15)
    cut = cut_table(table, ["d", "zz", "b"])
    assert cut.words == ["b", "d"] and cut.index == {"b": 0, "d": 1}
    assert cut.matrix.tobytes() == table.matrix[[1, 3]].tobytes()
    assert not cut.matrix.flags.writeable
    empty = cut_table(table, ["zz"])
    assert (len(empty), empty.dim, empty.matrix.shape) == (0, 3, (0, 3))


def test_merge_is_the_dict_union():
    primary, secondary = table_of(["a", "b", "c"], seed=1), table_of(["c", "d", "a"], seed=2)
    merged = merge_tables(primary, secondary)
    want = dict(secondary.vectors)
    want.update(primary.vectors)
    assert merged.words == list(want) == ["c", "d", "a", "b"]
    assert merged.index == {w: i for i, w in enumerate(want)}
    assert merged.matrix.tobytes() == np.stack(list(want.values())).tobytes()
