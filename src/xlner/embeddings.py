"""Word embedding tables: text loading/saving, the word-form fallback
chain shared by vocabulary building and pretrained-row lookup,
identical-word seed mining, and orthogonal Procrustes alignment between
languages."""

from __future__ import annotations

import itertools
import logging
import math
import re
from collections.abc import Container, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, TextIO, Union

import numpy as np

from .serialize import replacing

log = logging.getLogger(__name__)

_DIGITS = re.compile(r"\d")


class EmbeddingError(Exception):
    pass


class EmbeddingTable(Mapping):
    """A word embedding table, and a read-only word -> row mapping: words
    in row order, each word's row number in index, and one C-contiguous
    (n, dim) float64 matrix, made read-only. Tables made from one another
    may share words and index, so neither is ever changed."""

    __slots__ = ("words", "index", "matrix")

    def __init__(self, words: list[str], matrix: np.ndarray, index: Optional[dict[str, int]] = None):
        """The table whose row i is words[i]'s vector, holding matrix (a
        C-contiguous (len(words), dim) float64 array) and index as given,
        or built from words."""
        self.words = words
        self.index = {word: i for i, word in enumerate(words)} if index is None else index
        self.matrix = matrix
        matrix.flags.writeable = False

    # Pickled as words and matrix: the index is rebuilt, not shipped.
    def __getstate__(self) -> tuple[list[str], np.ndarray]:
        return self.words, self.matrix

    def __setstate__(self, state: tuple[list[str], np.ndarray]) -> None:
        self.__init__(*state)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def vectors(self) -> EmbeddingTable:
        """The table itself, as its word -> row mapping; only the
        benchmark's table_rows (perfbench/workloads.py) reads it."""
        return self

    def __getitem__(self, word: str) -> np.ndarray:
        return self.matrix[self.index[word]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)


def word_form(known: Container[str], word: str) -> Optional[str]:
    """The first of the exact form, the lowercased form and the
    digit-normalized form (digits -> #) of word that is in known, or None.
    Each form is built only when the ones before it miss."""
    if word in known:
        return word
    lower = word.lower()
    if lower in known:
        return lower
    digits = _DIGITS.sub("#", word)
    return digits if digits in known else None


BLOCK_ROWS = 128  # lines parsed, or rows mapped, gathered or written, per numpy call


def load_embeddings(source: Union[str, Path, TextIO, Iterable[str]]) -> EmbeddingTable:
    """Read `word v1 ... vd` text lines; an optional `count dim` header is
    recognized on the first line. Duplicate words keep the first row (with
    a warning). Values must be finite numbers.

    The source is read BLOCK_ROWS lines at a time, and each block's values
    are parsed by one np.loadtxt call. A block that is in any doubt (blank
    or value-less lines, ragged or mis-sized rows, a token loadtxt rejects,
    a non-finite value, a repeated word) goes through the per-line checked
    loop instead, which gives its exact `line N:` error, its warnings and
    its values. loadtxt accepts a subset of what float() accepts (not `1_0`
    or non-ASCII digits), with the same values, so both paths agree. Rows
    go into one matrix that grows in place, doubling but not past a header
    count still ahead, and is trimmed at the end: a true count is allocated
    exactly, a false one costs at most twice the rows present."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            try:
                return load_embeddings(fh)
            except UnicodeDecodeError as exc:
                raise EmbeddingError(f"{source}: not UTF-8 text ({exc.reason})") from None
            except EmbeddingError as exc:
                raise EmbeddingError(f"{source}: {exc}") from None

    lines = iter(source)
    first = next(lines, "")
    count, dim = _header(first) or (0, None)
    lines, start = (itertools.chain([first], lines), 1) if dim is None else (lines, 2)
    words: list[str] = []
    index: dict[str, int] = {}
    matrix = np.empty((0, 0))
    while block := list(itertools.islice(lines, BLOCK_ROWS)):
        new_words, rows = _parsed_block(block, index, dim) or _checked_lines(block, start, index, dim)
        start += len(block)
        if new_words:
            n, need, dim = len(words), len(words) + len(new_words), rows.shape[1]
            if need > len(matrix):
                size = max(2 * len(matrix), need)
                matrix.resize((min(size, count) if count >= need else size, dim), refcheck=False)
            matrix[n:need] = rows
            index.update(zip(new_words, range(n, need)))
            words += new_words
    matrix.resize((len(words), dim or 0), refcheck=False)
    return EmbeddingTable(words, matrix, index)


def _header(line: str) -> Optional[tuple[int, int]]:
    """(count, dim) if line is a `count dim` header line, else None."""
    try:
        count, dim = map(int, line.split())
    except ValueError:
        return None
    if dim < 0:
        raise EmbeddingError(f"line 1: negative dimension {dim}")
    return count, dim


def _parsed_block(block: list[str], index: dict[str, int], dim: Optional[int]) -> Optional[tuple[list[str], np.ndarray]]:
    """block's words and (rows, dim) matrix, or None if the checked loop
    would do anything other than take every line as a new row of dim
    values."""
    pairs = [line.split(None, 1) for line in block]
    if any(len(pair) != 2 for pair in pairs):
        return None
    words = [word for word, _ in pairs]
    if len(set(words)) != len(words) or not index.keys().isdisjoint(words):
        return None
    try:
        rows = np.loadtxt([rest for _, rest in pairs], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (len(words), rows.shape[1] if dim is None else dim) or not np.isfinite(rows).all():
        return None
    return words, rows


def _checked_lines(lines: list[str], start: int, index: dict[str, int], dim: Optional[int]) -> tuple[list[str], np.ndarray]:
    """The new words of lines, numbered from start, and their rows, read
    one line at a time: blank lines are skipped, words in index or earlier
    in lines are warned about and skipped, and the first bad line raises.
    Rows must have dim values; the first row sets dim if it is None."""
    rows: dict[str, list[float]] = {}
    for lineno, line in enumerate(lines, start=start):
        fields = line.split()
        if not fields:
            continue
        word, values = fields[0], fields[1:]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, got {len(values)}")
        if word in index or word in rows:
            log.warning("duplicate word %r at line %d; keeping first", word, lineno)
            continue
        try:
            row = [float(v) for v in values]
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        # The sum is finite unless a value is not (or finite values overflow):
        # one cheap test per row, the per-value test only when it fails.
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            bad = next(v for v in values if not math.isfinite(float(v)))
            raise EmbeddingError(f"line {lineno}: non-finite value {bad!r}")
        rows[word] = row
    return list(rows), np.array(list(rows.values()), dtype=np.float64).reshape(len(rows), dim or 0)


def save_embeddings(table: EmbeddingTable, path: Union[str, Path], mapping: Optional[OrthogonalMap] = None) -> None:
    """Write table as text in place of path, whole or not at all (see
    serialize.replacing), BLOCK_ROWS rows per write. Given a mapping, each
    block is rotated as apply_mapping rotates it just before it is written,
    so no rotated copy of the table is made."""
    _check_dim(table, mapping)
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for start in range(0, len(table), BLOCK_ROWS):
            block = _rotated(table.matrix[start : start + BLOCK_ROWS], mapping)
            rows = zip(table.words[start : start + BLOCK_ROWS], block.tolist())
            fh.write("".join(word + " " + " ".join(map(repr, row)) + "\n" for word, row in rows))


@dataclass(frozen=True)
class SeedLexicon:
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.pairs:
            raise EmbeddingError("no seeds")
        if len({s for s, _ in self.pairs}) != len(self.pairs):
            raise EmbeddingError("duplicate source words in seed lexicon")

    def __len__(self) -> int:
        return len(self.pairs)


def mine_identical_seeds(src: EmbeddingTable, tgt: EmbeddingTable) -> SeedLexicon:
    """Words spelled identically in both vocabularies, case-sensitive,
    in lexicographic order."""
    shared = sorted(src.index.keys() & tgt.index.keys())
    if not shared:
        raise EmbeddingError("no seeds: vocabularies share no identical words")
    return SeedLexicon(tuple((w, w) for w in shared))


@dataclass(frozen=True)
class OrthogonalMap:
    matrix: np.ndarray

    def __post_init__(self):
        w = self.matrix
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise EmbeddingError("mapping must be a square matrix")
        err = np.linalg.norm(w.T @ w - np.eye(w.shape[0]))
        if err >= 1e-8:
            raise EmbeddingError(f"matrix is not orthogonal (||W'W - I|| = {err:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def procrustes_align(x: np.ndarray, y: np.ndarray) -> OrthogonalMap:
    """Orthogonal W minimizing ||X W - Y||_F, closed form W = U V' from the
    SVD of X'Y. Rows of X and Y are paired seed vectors (target, source).

    W is unique when X'Y has full rank. With fewer independent seed pairs
    than dimensions (say the 38 synthetic.SHARED_WORDS seeds in 64-d) it
    is not: any orthogonal W that agrees on the span of the seeds reaches
    the same minimum, and which one is returned depends on how the SVD
    completes the null space of X'Y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2:
        raise EmbeddingError(f"shape mismatch: {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise EmbeddingError("non-finite values in alignment input")
    u, _, vt = np.linalg.svd(x.T @ y)
    return OrthogonalMap(u @ vt)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def align_tables(src: EmbeddingTable, tgt: EmbeddingTable, seeds: Optional[SeedLexicon] = None) -> OrthogonalMap:
    """Map the target space onto the source space using identical-word
    seeds; seed vectors are unit-normalized before the fit."""
    if src.dim != tgt.dim:
        raise EmbeddingError(f"dimension mismatch: src {src.dim} vs tgt {tgt.dim}")
    if seeds is None:
        seeds = mine_identical_seeds(src, tgt)
    x = _unit_rows(tgt.matrix[[tgt.index[t] for _, t in seeds.pairs]])
    y = _unit_rows(src.matrix[[src.index[s] for s, _ in seeds.pairs]])
    return procrustes_align(x, y)


def _check_dim(table: EmbeddingTable, mapping: Optional[OrthogonalMap]) -> None:
    if mapping is not None and table.dim != mapping.dim:
        raise EmbeddingError(f"dimension mismatch: table {table.dim} vs map {mapping.dim}")


def apply_mapping(table: EmbeddingTable, mapping: OrthogonalMap) -> EmbeddingTable:
    """Rotate every vector into the aligned space. The result shares the
    table's words and index."""
    _check_dim(table, mapping)
    matrix = np.empty_like(table.matrix)
    _put_rows(matrix, np.arange(len(table)), table, mapping)
    return EmbeddingTable(table.words, matrix, table.index)


def cut_table(table: EmbeddingTable, words: Iterable[str]) -> EmbeddingTable:
    """The table's rows of those of words it holds, in table order, as one
    new matrix; a cut with no rows keeps the table's dimension."""
    rows = sorted(table.index[word] for word in words if word in table.index)
    return EmbeddingTable([table.words[i] for i in rows], table.matrix[rows])


def merge_tables(
    primary: EmbeddingTable,
    secondary: EmbeddingTable,
    primary_map: Optional[OrthogonalMap] = None,
    secondary_map: Optional[OrthogonalMap] = None,
) -> EmbeddingTable:
    """The union of two same-dimension tables in dict-union order:
    secondary's words, then primary's words that secondary lacks, with
    primary's rows on shared words. A table given a map is rotated as
    apply_mapping rotates it, straight into the merged matrix."""
    index = dict(secondary.index)
    for word in primary.words:
        index.setdefault(word, len(index))
    matrix = np.empty((len(index), primary.dim))
    _put_rows(matrix, np.arange(len(secondary)), secondary, secondary_map)
    _put_rows(matrix, np.array([index[word] for word in primary.words], dtype=np.intp), primary, primary_map)
    return EmbeddingTable(list(index), matrix, index)


def _put_rows(out: np.ndarray, at: np.ndarray, table: EmbeddingTable, mapping: Optional[OrthogonalMap]) -> None:
    """out[at[i]] = table's row i, times mapping's matrix unless mapping is
    None, BLOCK_ROWS rows at a time."""
    for start in range(0, len(table), BLOCK_ROWS):
        out[at[start : start + BLOCK_ROWS]] = _rotated(table.matrix[start : start + BLOCK_ROWS], mapping)


def _rotated(rows: np.ndarray, mapping: Optional[OrthogonalMap]) -> np.ndarray:
    """rows times mapping's matrix, or rows themselves if mapping is None.
    A stack of vector-matrix products: bit-equal to each row's `vec @ w`,
    where the matrix-matrix product `rows @ w` is not."""
    return rows if mapping is None else np.matmul(rows[:, None, :], mapping.matrix)[:, 0]
