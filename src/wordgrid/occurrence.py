"""Counting the lines and segments of a grid that read a given word.

A line contains a word when the forward or the reversed reading equals it; a
line matching both ways still counts once. Dense grids are scanned through the
cached column-major table `lines.segment_table`, and one kernel, `_match`,
finds the matching rows for `count_word`, `count_word_set` (with or without
`collect_matches`) and `count_segments_word`. Procedural grids take an
explicit line stream or the sampling estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Grid, Word
from .lines import (CanonicalLine, _draw_line_codes, _symbol_coords, line_points, sample_line,
                    segment_table)

HOEFFDING_CONFIDENCE = 0.99

# Values per buffer in one chunk of the estimator. An AMM d=40 estimate
# peaks at 0.4 MB under tracemalloc with 2**14 and at 4.7 MB with 2**18,
# whatever the sample count; 2**16 is 10% faster there, 2**12 70% slower.
DRAW_CHUNK = 2**14


@dataclass(frozen=True)
class OccurrenceReport:
    """Lines containing the word: total, split by direction weight, optional list."""

    total: int
    per_weight: dict[int, int]
    matches: tuple[CanonicalLine, ...] | None = None

    def __post_init__(self) -> None:
        if self.total != sum(self.per_weight.values()):
            raise ValueError("total must equal the per-weight sum")


def _word_symbols(w: Word, grid: Grid) -> tuple[int, ...]:
    """Word letter indices translated into the grid's alphabet."""
    if w.alphabet == grid.alphabet:
        return w.symbols
    try:
        return tuple(grid.alphabet.index(ch) for ch in w.text)
    except ValueError:
        raise ValueError(
            f"word {w.text!r} uses letters outside the grid alphabet "
            f"{''.join(grid.alphabet.letters)!r}"
        ) from None


def line_contains(w: Word, grid: Grid, line: CanonicalLine) -> bool:
    """True iff the line reads w forward or backward."""
    if w.n != grid.n:
        raise ValueError(f"word length {w.n} != grid side {grid.n}")
    sym = _word_symbols(w, grid)
    reading = tuple(grid.at(q) for q in line_points(line, grid.n))
    return reading == sym or reading == sym[::-1]


def _count_stream(probes: set[tuple[int, ...]], grid: Grid,
                  lines: Iterable[CanonicalLine], collect: bool) -> OccurrenceReport:
    per_weight: dict[int, int] = {r: 0 for r in range(1, grid.d + 1)}
    hits: list[CanonicalLine] = []
    total = 0
    for line in lines:
        reading = tuple(grid.at(q) for q in line_points(line, grid.n))
        if reading in probes:
            total += 1
            per_weight[line.weight] += 1
            if collect:
                hits.append(line)
    return OccurrenceReport(total=total, per_weight=per_weight,
                            matches=tuple(hits) if collect else None)


def _match(cells: bytes, idx: np.ndarray, probes: Iterable[tuple[int, ...]]) -> np.ndarray:
    """Rows of a `segment_table` whose reading of the cells equals any probe.

    The reading is column-major, like idx, so each probe is compared one
    contiguous column at a time.
    """
    readings = np.frombuffer(cells, dtype=np.uint8)[idx]
    matched = np.zeros(len(readings), dtype=bool)
    for probe in probes:
        hit = readings[:, 0] == probe[0]
        for i in range(1, len(probe)):
            hit &= readings[:, i] == probe[i]
        matched |= hit
    return matched


def _count_rows(symbol_rows: Sequence[tuple[int, ...]], grid: Grid,
                lines: Iterable[CanonicalLine] | None, collect: bool) -> OccurrenceReport:
    """Lines reading any symbol row either way: the stream, or the whole grid."""
    probes = {sym for s in symbol_rows for sym in (s, s[::-1])}
    if lines is not None:
        return _count_stream(probes, grid, lines, collect)
    if not grid.dense:
        raise ValueError(
            "procedural grid needs an explicit line stream; use estimate_fraction "
            "when full enumeration is infeasible"
        )
    n, d = grid.n, grid.d
    idx, weights = segment_table(n, d, n)
    matched = _match(grid.cells, idx, probes)
    rows = np.flatnonzero(matched)  # in table order, which is enumerate_lines order
    row_weights = weights[rows]
    tally = np.bincount(row_weights, minlength=d + 1)
    per_weight = {r: int(tally[r]) for r in range(1, d + 1)}
    matches = None
    if collect:
        # 1-based points of each matched line's first two cells; v is their step
        p = np.stack(np.unravel_index(idx[rows, 0], (n,) * d), axis=1) + 1
        v = np.stack(np.unravel_index(idx[rows, 1], (n,) * d), axis=1) + 1 - p
        matches = tuple(CanonicalLine(tuple(a), tuple(b), r) for a, b, r
                        in zip(p.tolist(), v.tolist(), row_weights.tolist()))
    return OccurrenceReport(total=len(rows), per_weight=per_weight, matches=matches)


def count_word(w: Word, grid: Grid, lines: Iterable[CanonicalLine] | None = None,
               collect_matches: bool = False) -> OccurrenceReport:
    """f(w, G): the number of lines of the grid containing w.

    Dense grids are counted over all lines via the line table; an explicit
    `lines` stream restricts the count to those lines (and works on procedural
    grids). Counting a partition of the stream and summing gives the full
    count. A dense grid with more lines than `lines.DEFAULT_LINE_CAP` is refused.
    """
    if w.n != grid.n:
        raise ValueError(f"word length {w.n} != grid side {grid.n}")
    return _count_rows([_word_symbols(w, grid)], grid, lines, collect_matches)


def count_word_set(words: Iterable[Word], grid: Grid,
                   lines: Iterable[CanonicalLine] | None = None,
                   collect_matches: bool = False) -> OccurrenceReport:
    """f(W, G): lines containing any word of W; a line counts once."""
    word_list = list(words)
    if not word_list:
        raise ValueError("word set must be nonempty")
    if any(w.n != grid.n for w in word_list):
        raise ValueError("all words must have length equal to the grid side")
    rows = [_word_symbols(w, grid) for w in word_list]
    return _count_rows(rows, grid, lines, collect_matches)


def is_diagonal_latin(grid: Grid) -> bool:
    """True iff every row, column, and both diagonals hold n distinct letters."""
    if grid.d != 2:
        raise ValueError("diagonal Latin squares are two-dimensional")
    n = grid.n
    if len(grid.alphabet) != n:
        raise ValueError(f"alphabet size {len(grid.alphabet)} != order {n}")
    idx, _ = segment_table(n, 2, n)
    readings = np.sort(np.frombuffer(grid.to_dense().cells, dtype=np.uint8)[idx], axis=1)
    return bool((readings[:, 1:] != readings[:, :-1]).all())


def count_segments_word(w: Word, grid: Grid) -> int:
    """Length-k occurrences: segments of the grid reading w forward or backward."""
    k = w.n
    if k > grid.n:
        raise ValueError(f"word length {k} exceeds grid side {grid.n}")
    if not grid.dense:
        raise ValueError("segment counting needs a dense grid")
    sym = _word_symbols(w, grid)
    idx, _ = segment_table(grid.n, grid.d, k)
    return int(np.count_nonzero(_match(grid.cells, idx, {sym, sym[::-1]})))


def hoeffding_radius(samples: int) -> float:
    """Two-sided Hoeffding deviation radius at confidence HOEFFDING_CONFIDENCE."""
    return math.sqrt(math.log(2 / (1 - HOEFFDING_CONFIDENCE)) / (2 * samples))


def estimate_fraction(w: Word, grid: Grid, samples: int, rng) -> tuple[float, float]:
    """Empirical fraction of lines containing w, with a 99% Hoeffding radius.

    Draws uniform lines exactly as repeated `lines.sample_line` calls do, so
    one seed gives one result and leaves one rng state on every path. The
    draws go through `rng.getrandbits`; for a `random.Random` the stream is
    the one `randrange` gives. Dense and symmetric grids draw and read the
    lines in chunks whose buffers hold at most about DRAW_CHUNK values, so
    memory does not grow with `samples`. A drawn value x at axis j is row x
    of `lines._segment_symbols(n, n)`, a (start, step) symbol: a dense grid
    adds (start-1)·n^(d-1-j) to the line's first flat index and step·n^(d-1-j)
    to its flat stride. A symmetric grid is read per profile class: a line's
    reading depends only on its symbol counts, at step i each symbol counts
    toward the value its coordinate takes there, and the rule is called once
    per profile for the call. Other procedural grids are read point by point,
    so they work in any dimension. Drawn lines are not oriented, so a reading
    may run backward; the word is matched both ways.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if w.n != grid.n:
        raise ValueError(f"word length {w.n} != grid side {grid.n}")
    n, d = grid.n, grid.d
    if not (grid.dense or grid.permutation_invariant):
        hits = sum(line_contains(w, grid, sample_line(n, d, rng)) for _ in range(samples))
        return hits / samples, hoeffding_radius(samples)
    sym = np.array(_word_symbols(w, grid))
    read = _dense_reader(grid) if grid.dense else _symmetric_reader(grid)
    per_chunk = max(1, DRAW_CHUNK // max(d, n * n))  # d draws, n profiles of n
    hits = 0
    for start in range(0, samples, per_chunk):
        readings = read(_draw_line_codes(n, d, rng, min(per_chunk, samples - start)))
        hits += int(np.count_nonzero((readings == sym).all(axis=1)
                                     | (readings == sym[::-1]).all(axis=1)))
    return hits / samples, hoeffding_radius(samples)


def _dense_reader(grid: Grid):
    """Line codes (m, d) -> letter indices (m, n) of a dense grid, by flat index."""
    n, d = grid.n, grid.d
    cells = np.frombuffer(grid.cells, dtype=np.uint8)
    place = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
    step, coord = _symbol_coords(n, n)
    offsets = np.arange(n)

    def read(codes: np.ndarray) -> np.ndarray:
        first = coord[codes, 0] @ place
        stride = step[codes] @ place
        return cells[first[:, None] + stride[:, None] * offsets]
    return read


def _symmetric_reader(grid: Grid):
    """Line codes (m, d) -> letter indices (m, n) of a permutation-invariant grid.

    Each distinct profile of a chunk is looked up once, and the rule is called
    once per profile for the reader's life, on the sorted point.
    """
    n, rule = grid.n, grid.rule
    letters: dict[tuple[int, ...], int] = {}  # profile -> letter
    _, coord = _symbol_coords(n, n)
    symbols = len(coord)
    # (symbol, step * n + value): 1 where the symbol's coordinate at the step is the value
    at = (coord[:, :, None] == np.arange(n)).reshape(symbols, n * n).astype(np.int64)

    def read(codes: np.ndarray) -> np.ndarray:
        m = len(codes)
        counts = np.bincount((codes + symbols * np.arange(m)[:, None]).ravel(),
                             minlength=m * symbols).reshape(m, symbols)
        profiles = counts @ at  # (line, step * n + value)
        # distinct rows by lexsort: np.unique(axis=0) sorts a void view, about
        # 6x slower, and a mixed-radix key passes 2^63 (41^12 at d=40, n=12)
        flat = profiles.reshape(-1, n)
        order = np.lexsort(flat.T)
        ordered = flat[order]
        new = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
        inverse = np.empty(len(flat), dtype=np.int64)
        inverse[order] = np.cumsum(new) - 1
        distinct = ordered[new]
        table = np.empty(len(distinct), dtype=np.int64)
        for j, key in enumerate(map(tuple, distinct.tolist())):
            if key not in letters:
                letters[key] = rule(tuple(v for v, c in enumerate(key, 1) for _ in range(c)))
            table[j] = letters[key]
        return table[inverse.reshape(m, n)]
    return read
