"""Counting the lines and segments of a grid that read a given word.

A line contains a word when the forward or the reversed reading equals it; a
line matching both ways still counts once. `_probes` builds those readings,
and one kernel, `_match`, finds the rows reading one: of the cached table
`lines.segment_table` for `count_word`, `count_word_set` and
`count_segments_word`, and of the lines `estimate_fraction` draws on dense
and symmetric grids. The table's rows are grouped by weight, so each weight
is tallied over one slice; `lines._table_lines` decodes the matched rows for
`collect_matches`. Other procedural grids are read point by point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import BATCH_VALUES, Grid, Word, _batch_letters
from .lines import (CanonicalLine, _draw_line_codes, _line_profiles, _symbol_coords,
                    _table_lines, line_points, sample_line, segment_table)

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
    """True iff the line reads w forward or backward; counted through `count_word`."""
    return count_word(w, grid, lines=(line,)).total == 1


def _probes(symbol_rows: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The readings that contain a row: each row, then its reversal, in order
    of first appearance and without repeats, so a palindrome gives one."""
    return list(dict.fromkeys(r for row in symbol_rows for r in (row, row[::-1])))


def _count_stream(probes: Sequence[tuple[int, ...]], grid: Grid,
                  lines: Iterable[CanonicalLine], collect: bool) -> OccurrenceReport:
    """Lines of the stream whose reading, point by point, is a probe."""
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


def _match(cells: bytes | np.ndarray, idx: np.ndarray,
           probes: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Rows of idx (cell indices in reading order) whose reading of the uint8
    cells is a probe. A column-major idx, like a `segment_table`, gives a
    column-major reading, so each probe is compared one contiguous column at a
    time. With fewer rows than probe positions (a symmetric estimate's
    one-line chunks) that is mostly call overhead, and whole rows are
    compared instead."""
    readings = np.frombuffer(cells, dtype=np.uint8)[idx]
    if len(readings) < readings.shape[1]:
        return (readings[:, None, :] == np.array(probes)).all(axis=2).any(axis=1)
    matched = np.zeros(len(readings), dtype=bool)
    for probe in probes:
        hit = readings[:, 0] == probe[0]
        for i in range(1, len(probe)):
            hit &= readings[:, i] == probe[i]
        matched |= hit
    return matched


def count_word(w: Word, grid: Grid, lines: Iterable[CanonicalLine] | None = None,
               collect_matches: bool = False) -> OccurrenceReport:
    """f(w, G): the number of lines of the grid containing w.

    Dense grids are counted over all lines via the line table; an explicit
    `lines` stream restricts the count to those lines (and works on procedural
    grids). Counting a partition of the stream and summing gives the full
    count. A dense grid with more lines than `lines.DEFAULT_LINE_CAP` is refused.
    """
    return count_word_set([w], grid, lines, collect_matches)


def count_word_set(words: Iterable[Word], grid: Grid,
                   lines: Iterable[CanonicalLine] | None = None,
                   collect_matches: bool = False) -> OccurrenceReport:
    """f(W, G): lines containing any word of W; a line counts once."""
    word_list = list(words)
    if not word_list:
        raise ValueError("word set must be nonempty")
    for w in word_list:
        if w.n != grid.n:
            raise ValueError(f"word length {w.n} != grid side {grid.n}")
    probes = _probes([_word_symbols(w, grid) for w in word_list])
    if lines is not None:
        return _count_stream(probes, grid, lines, collect_matches)
    if not grid.dense:
        raise ValueError(
            "procedural grid needs an explicit line stream; use estimate_fraction "
            "when full enumeration is infeasible"
        )
    n, d = grid.n, grid.d
    idx, starts = segment_table(n, d, n)
    matched = _match(grid.cells, idx, probes)
    # the table's rows are grouped by weight, so each weight is one slice
    per_weight = {r: int(np.count_nonzero(matched[starts[r - 1]:starts[r]]))
                  for r in range(1, d + 1)}
    matches = _table_lines(idx[matched], n, d) if collect_matches else None
    return OccurrenceReport(total=sum(per_weight.values()), per_weight=per_weight,
                            matches=matches)


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
    if not grid.dense:
        raise ValueError("segment counting needs a dense grid")
    idx, _ = segment_table(grid.n, grid.d, w.n)
    return int(np.count_nonzero(_match(grid.cells, idx, _probes([_word_symbols(w, grid)]))))


def hoeffding_radius(samples: int) -> float:
    """Two-sided Hoeffding deviation radius at confidence HOEFFDING_CONFIDENCE."""
    return math.sqrt(math.log(2 / (1 - HOEFFDING_CONFIDENCE)) / (2 * samples))


def estimate_fraction(w: Word, grid: Grid, samples: int, rng) -> tuple[float, float]:
    """Empirical fraction of lines containing w, with a 99% Hoeffding radius.

    `samples` must be an integer (`operator.index`), at least one. Draws
    uniform lines exactly as repeated `lines.sample_line` calls do, so
    one seed gives one result and leaves one rng state on every path. The
    draws go through `rng.getrandbits`; for a `random.Random` the stream is
    the one `randrange` gives. Dense and symmetric grids draw all `samples`
    lines as one stream (`lines._draw_line_codes`) and read them in chunks
    whose buffers hold at most about BATCH_VALUES values, so memory does not
    grow with `samples`; the chunks only batch the reads, and the draws run
    on from one chunk into the next. A dense chunk holds each line's d draws
    and n flat indices, a symmetric one also its n x n profile counts. A
    chunk holds at least one line, so when n^2 > BATCH_VALUES a symmetric
    grid's chunk is one line, and memory grows with n^2; its draws still come
    in rounds of about BATCH_VALUES words, and each line's profiles take three
    array operations, so such an estimate costs about one batch rule call
    per line. A drawn value x at axis j is row x of
    `lines._segment_symbols(n, n)`, a (start, step) symbol: a dense grid adds
    (start-1)·n^(d-1-j) to the line's first flat index and step·n^(d-1-j) to
    its flat stride. A symmetric grid is read per profile class: a line's
    reading depends only on its symbol counts, at step i each symbol counts
    toward the value its coordinate takes there, and the letters come from the
    grid's batch rule once per chunk (a batch rule derived from a point rule
    calls it once per distinct profile of the chunk). Other procedural grids
    are read point by point, the drawn lines counted as a stream through
    `count_word`, so they work in any dimension. Drawn lines are not
    oriented, so a reading may run backward; each reader returns (cells, idx)
    and `_match` compares the readings with the word's `_probes`, both ways,
    as it does for a line table.
    """
    try:
        samples = operator.index(samples)
    except TypeError:
        raise TypeError(f"sample count must be an integer, not {samples!r}") from None
    if samples < 1:
        raise ValueError("need at least one sample")
    if w.n != grid.n:
        raise ValueError(f"word length {w.n} != grid side {grid.n}")
    n, d = grid.n, grid.d
    if not (grid.dense or grid.permutation_invariant):
        hits = count_word(w, grid, lines=(sample_line(n, d, rng) for _ in range(samples))).total
        return hits / samples, hoeffding_radius(samples)
    probes = _probes([_word_symbols(w, grid)])
    read = _dense_reader(grid) if grid.dense else _symmetric_reader(grid)
    # per line, d draws and n flat indices, or n profiles of n
    per_chunk = max(1, BATCH_VALUES // max(d, n if grid.dense else n * n))
    hits = 0
    for codes in _draw_line_codes(n, d, rng, samples, per_chunk):
        cells, idx = read(codes)
        hits += int(np.count_nonzero(_match(cells, idx, probes)))
    return hits / samples, hoeffding_radius(samples)


def _dense_reader(grid: Grid):
    """Line codes (m, d) -> (cells, idx): the grid's cells, each line's flat indices."""
    n, d = grid.n, grid.d
    place = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
    step, coord = _symbol_coords(n, n)
    offsets = np.arange(n)

    def read(codes: np.ndarray) -> tuple[bytes, np.ndarray]:
        first = coord[codes, 0] @ place
        stride = step[codes] @ place
        return grid.cells, first[:, None] + stride[:, None] * offsets
    return read


def _symmetric_reader(grid: Grid):
    """Line codes (m, d) -> (cells, idx) of a symmetric grid: cells holds the
    letter of every line's profile at every step (`lines._line_profiles`), from
    one batch rule call per chunk, each letter checked against the alphabet,
    and idx[j, i] = j * n + i."""
    n, batch_rule, alphabet = grid.n, grid.batch_rule, grid.alphabet

    def read(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        profiles = _line_profiles(codes, n).reshape(-1, n)
        letters = _batch_letters(batch_rule, profiles, alphabet)  # type: ignore[arg-type]
        return letters, np.arange(len(codes) * n).reshape(-1, n)
    return read
