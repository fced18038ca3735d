"""Word embedding tables: text loading/saving, the word-form fallback
chain shared by vocabulary building and pretrained-row lookup,
identical-word seed mining, and orthogonal Procrustes alignment between
languages."""

from __future__ import annotations

import itertools
import logging
import math
import re
from collections.abc import Container
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, TextIO, Union

import numpy as np

from .serialize import replacing

log = logging.getLogger(__name__)

_DIGITS = re.compile(r"\d")


class EmbeddingError(Exception):
    pass


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        for word, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise EmbeddingError(f"vector for {word!r} has shape {vec.shape}, want ({self.dim},)")

    def __len__(self) -> int:
        return len(self.vectors)


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


BLOCK_ROWS = 128  # lines parsed, or rows mapped, per numpy call


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
    or non-ASCII digits), with the same values, so both paths agree. Each
    row is a view into its block's matrix."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            try:
                return load_embeddings(fh)
            except UnicodeDecodeError as exc:
                raise EmbeddingError(f"{source}: not UTF-8 text ({exc.reason})") from None
            except EmbeddingError as exc:
                raise EmbeddingError(f"{source}: {exc}") from None

    vectors: dict[str, np.ndarray] = {}
    lines = iter(source)
    # Line 1 may be a header, which only the checked loop recognizes.
    dim = _checked_lines(itertools.islice(lines, 1), 1, vectors, None)
    start = 2
    while block := list(itertools.islice(lines, BLOCK_ROWS)):
        rows = _parsed_block(block, vectors, dim)
        dim = _checked_lines(block, start, vectors, dim) if rows is None else rows.shape[1]
        start += len(block)
    return EmbeddingTable(dim if dim is not None else 0, vectors)


def _parsed_block(block: list[str], vectors: dict[str, np.ndarray], dim: Optional[int]) -> Optional[np.ndarray]:
    """Add block's rows to vectors and return their matrix, or return None
    (adding nothing) if the checked loop would do anything other than add
    every line as a new row of dim values."""
    pairs = [line.split(None, 1) for line in block]
    if any(len(pair) != 2 for pair in pairs):
        return None
    words = [word for word, _ in pairs]
    if len(set(words)) != len(words) or not vectors.keys().isdisjoint(words):
        return None
    try:
        rows = np.loadtxt([rest for _, rest in pairs], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (len(words), rows.shape[1] if dim is None else dim) or not np.isfinite(rows).all():
        return None
    vectors.update(zip(words, rows))
    return rows


def _checked_lines(lines: Iterable[str], start: int, vectors: dict[str, np.ndarray], dim: Optional[int]) -> Optional[int]:
    """Add the rows of lines, numbered from start, to vectors one line at a
    time: blank lines are skipped, a `count dim` line 1 sets dim, and the
    first bad line raises. Returns the width rows must have from now on."""
    for lineno, line in enumerate(lines, start=start):
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
        vectors[word] = np.array(row)
    return dim


def save_embeddings(table: EmbeddingTable, path: Union[str, Path]) -> None:
    """Write table as text in place of path, whole or not at all (see
    serialize.replacing)."""
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in table.vectors.items():
            fh.write(word + " " + " ".join(map(repr, np.asarray(vec, dtype=np.float64).tolist())) + "\n")


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
    shared = sorted(set(src.vectors) & set(tgt.vectors))
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
    x = _unit_rows(np.stack([tgt.vectors[t] for _, t in seeds.pairs]))
    y = _unit_rows(np.stack([src.vectors[s] for s, _ in seeds.pairs]))
    return procrustes_align(x, y)


def apply_mapping(table: EmbeddingTable, mapping: OrthogonalMap) -> EmbeddingTable:
    """Rotate every vector into the aligned space: one stacked matmul per
    BLOCK_ROWS rows, each mapped row a view into its block's product."""
    if table.dim != mapping.dim:
        raise EmbeddingError(f"dimension mismatch: table {table.dim} vs map {mapping.dim}")
    # Stacks of vector-matrix products: bit-equal to each row's `vec @ w`,
    # where the matrix-matrix product `rows @ w` is not. Blocks keep peak
    # RSS down: a whole-table stack, or one preallocated (n, d) result,
    # raised it by ~6 MB on a 12k-row 64-d table.
    items = iter(table.vectors.items())
    mapped: dict[str, np.ndarray] = {}
    while block := list(itertools.islice(items, BLOCK_ROWS)):
        words, rows = zip(*block)
        mapped.update(zip(words, np.matmul(np.stack(rows)[:, None, :], mapping.matrix)[:, 0]))
    return EmbeddingTable(table.dim, mapped)
