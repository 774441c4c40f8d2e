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
from .lines import CanonicalLine, _draw_line_code, line_points, sample_line, segment_table

HOEFFDING_CONFIDENCE = 0.99


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


def hoeffding_radius(samples: int, confidence: float = HOEFFDING_CONFIDENCE) -> float:
    """Two-sided Hoeffding deviation radius at the given confidence."""
    return math.sqrt(math.log(2 / (1 - confidence)) / (2 * samples))


def estimate_fraction(w: Word, grid: Grid, samples: int, rng) -> tuple[float, float]:
    """Empirical fraction of lines containing w, with a 99% Hoeffding radius.

    Draws uniform lines exactly as `lines.sample_line` does, so one seed gives
    one result and leaves one rng state on every path. A dense grid reads
    each drawn line by flat-index arithmetic: a numeral x adds x·n^(d-1-j) to
    the first cell, '+' adds n^(d-1-j) to the step and '-' adds
    (n-1)·n^(d-1-j) to the first cell and subtracts n^(d-1-j) from the step.
    A symmetric grid is read per profile class: a line's reading depends only
    on its symbol counts c (at step i the profile is the numeral counts plus
    c+ at value i and c- at value n+1-i), and letters are cached per profile
    for the call. Other procedural grids are read point by point, so they
    work in any dimension. Drawn lines are not mirrored, so a reading may run
    backward; the word is matched both ways.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if w.n != grid.n:
        raise ValueError(f"word length {w.n} != grid side {grid.n}")
    n, d = grid.n, grid.d
    if not (grid.dense or grid.permutation_invariant):
        hits = sum(line_contains(w, grid, sample_line(n, d, rng)) for _ in range(samples))
        return hits / samples, hoeffding_radius(samples)
    sym = _word_symbols(w, grid)
    probes = (sym, sym[::-1])
    hits = 0
    if grid.dense:
        cells = grid.cells
        place = [n ** (d - 1 - j) for j in range(d)]
        for _ in range(samples):
            first = step = 0
            for x, v in zip(_draw_line_code(n, d, rng), place):
                if x < n:
                    first += x * v
                elif x == n:
                    step += v
                else:
                    first += (n - 1) * v
                    step -= v
            hits += tuple(cells[first + i * step] for i in range(n)) in probes
        return hits / samples, hoeffding_radius(samples)
    rule = grid.rule
    letters: dict[tuple[int, ...], int] = {}  # profile -> letter
    for _ in range(samples):
        counts = [0] * (n + 2)
        for x in _draw_line_code(n, d, rng):
            counts[x] += 1
        reading = []
        for i in range(n):
            profile = counts[:n]
            profile[i] += counts[n]
            profile[n - 1 - i] += counts[n + 1]
            key = tuple(profile)
            if key not in letters:
                letters[key] = rule(tuple(v for v, c in enumerate(key, 1) for _ in range(c)))
            reading.append(letters[key])
        hits += tuple(reading) in probes
    return hits / samples, hoeffding_radius(samples)
