"""Lines and segments of [n]^d: canonical pairs, enumeration, tables, counting, sampling.

A line is the point sequence p, p+v, ..., p+(n-1)v staying inside [n]^d; the
canonical pair orients v so its first nonzero coordinate is +1. Lines are
encoded as sequences over {1..n, +, -} with at least one sign and a leading
'+' sign: numeral a fixes a coordinate at a, '+' sweeps 1..n upward, '-'
sweeps n..1 downward. Segments of length k <= n use the same scheme with
sign symbols carrying their start offset; a line is the segment of length n,
so one enumerator and one index table serve both. The symbols are the
(start, step) rows of `_segment_symbols(n, k)`, and a line drawn at random
is d values in {0..n+1}, each the index of its row in `_segment_symbols(n, n)`.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .core import Point

Direction = tuple[int, ...]

SAMPLE_CAP = 10**6

DEFAULT_LINE_CAP = 5_000_000

# Bytes of cached segment tables kept before the least recently used go. The
# census tables, (3,8) to (8,4,k=4), take 11.3 MB together; one n=3 table
# at DEFAULT_LINE_CAP takes about 120 MB and is kept alone.
TABLE_CACHE_BYTES = 64 * 2**20
_tables: OrderedDict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = OrderedDict()
_tables_lock = threading.Lock()

_UNIT_STEPS = frozenset((-1, 0, 1))


@dataclass(frozen=True)
class CanonicalLine:
    """Canonical (p; v) pair of a full line; weight is the nonzero count of v."""

    p: Point
    v: Direction
    weight: int

    def __post_init__(self) -> None:
        v = self.v
        if len(self.p) != len(v):
            raise ValueError("p and v must have the same dimension")
        for x in v:  # x ends as the first nonzero coordinate
            if x != 0:
                break
        else:
            raise ValueError("direction must have a nonzero coordinate")
        if x != 1:
            raise ValueError("first nonzero direction coordinate must be +1")
        if not _UNIT_STEPS.issuperset(v):
            raise ValueError("direction coordinates must be in {-1, 0, +1}")
        if self.weight != len(v) - v.count(0):
            raise ValueError("weight must equal the nonzero count of v")


@dataclass(frozen=True)
class Segment:
    """Canonical (p; v) pair of a length-k segment."""

    p: Point
    v: Direction
    k: int
    weight: int

    def __post_init__(self) -> None:
        v = self.v
        if len(self.p) != len(v):
            raise ValueError("p and v must have the same dimension")
        x = 0
        for x in v:  # x ends as the first nonzero coordinate, or 0
            if x != 0:
                break
        if x != 1:
            raise ValueError("first nonzero direction coordinate must be +1")
        if not _UNIT_STEPS.issuperset(v):
            raise ValueError("direction coordinates must be in {-1, 0, +1}")
        if self.k < 2:
            raise ValueError("segments need k >= 2")
        if self.weight != len(v) - v.count(0):
            raise ValueError("weight must equal the nonzero count of v")


def canonicalize(p: Point, v: Direction, n: int) -> CanonicalLine:
    """Canonical pair of the full line through (p, v); both orientations agree."""
    if n < 2:
        raise ValueError("lines need n >= 2")
    if len(p) != len(v):
        raise ValueError("p and v must have the same dimension")
    if all(x == 0 for x in v):
        raise ValueError("direction must be nonzero")
    for i in range(n):
        for pj, vj in zip(p, v):
            x = pj + i * vj
            if not 1 <= x <= n:
                raise ValueError(f"line ({p}; {v}) leaves [1, {n}]^{len(p)} at step {i + 1}")
    return _oriented(p, v, n)


def _oriented(p: Point, v: Direction, n: int) -> CanonicalLine:
    """The line p, p+v, ..., p+(n-1)v walked from whichever end makes its
    first nonzero step +1."""
    if next(x for x in v if x != 0) == -1:
        p = tuple(pj + (n - 1) * vj for pj, vj in zip(p, v))
        v = tuple(-vj for vj in v)
    return CanonicalLine(p, v, weight=len(v) - v.count(0))


def _walk(kind: str, pair: CanonicalLine | Segment, k: int, n: int) -> list[Point]:
    """The k points p, p+v, ..., p+(k-1)v, checked against [1, n]^d."""
    pts = []
    for i in range(k):
        q = tuple(pj + i * vj for pj, vj in zip(pair.p, pair.v))
        if any(not 1 <= x <= n for x in q):
            raise ValueError(f"{kind} {pair} leaves [1, {n}]^{len(pair.p)}")
        pts.append(q)
    return pts


def line_points(line: CanonicalLine, n: int) -> list[Point]:
    """The n points of the line in canonical order, checked against [1, n]^d."""
    return _walk("line", line, n, n)


def segment_points(seg: Segment, n: int) -> list[Point]:
    """The k points of the segment, checked against [1, n]^d."""
    return _walk("segment", seg, seg.k, n)


def _canonical_pairs(n: int, d: int, k: int) -> Iterator[tuple[Point, Direction, int]]:
    """(p, v, weight) of every canonical length-k segment, in encoding order.

    The stream is lexicographic over {1..n, +, -}^d with the symbol order of
    `_segment_symbols`; codes with no sign or a leading '-' are skipped.
    """
    for code in itertools.product(_segment_symbols(n, k), repeat=d):
        for _, step in code:
            if step:
                break
        if step != 1:
            continue
        p, v = zip(*code)
        yield p, v, d - v.count(0)


def enumerate_lines(n: int, d: int, weight: int | None = None) -> Iterator[CanonicalLine]:
    """All canonical lines of [n]^d, each exactly once, in encoding order.

    Lines are the segments of length n, so the stream is that of
    `enumerate_segments(n, d, n)`: lexicographic over encoded sequences with
    per-coordinate symbol order 1..n, '+', '-', and deterministic.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if weight is not None and not 1 <= weight <= d:
        raise ValueError(f"weight {weight} out of [1, d={d}]")
    for p, v, r in _canonical_pairs(n, d, n):
        if weight is None or r == weight:
            yield CanonicalLine(p, v, r)


def count_lines(n: int, d: int) -> tuple[dict[int, int], int]:
    """Closed-form line tally per weight r and in total.

    Weight r contributes C(d,r) * 2^(r-1) * n^(d-r); the total telescopes to
    ((n+2)^d - n^d) / 2.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    per_weight = {r: comb(d, r) * 2 ** (r - 1) * n ** (d - r) for r in range(1, d + 1)}
    total = ((n + 2) ** d - n**d) // 2
    assert sum(per_weight.values()) == total
    return per_weight, total


def sample_line(n: int, d: int, rng) -> CanonicalLine:
    """One uniform canonical line, by rejection over {1..n, +, -}^d.

    Sequences without a sign are rejected; the rest are oriented so the
    first sign is '+'. Every line has exactly two preimages, so accepted
    draws are uniform over lines.
    """
    symbols = _segment_symbols(n, n)
    p, v = zip(*(symbols[x] for x in _draw_line_code(n, d, rng)))
    return _oriented(p, v, n)


def _draw_line_code(n: int, d: int, rng) -> list[int]:
    """The first draw from {0..n+1}^d holding a sign, before orienting.

    Value x is row x of `_segment_symbols(n, n)`: the numerals 1..n, then
    '+', then '-', so a value of n or more is a sign. Every
    sampler of lines draws through here or through `_draw_line_codes`, which
    replays it, so one seed gives one line sequence.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    for _ in range(SAMPLE_CAP):
        raw = [rng.randrange(n + 2) for _ in range(d)]
        if any(x >= n for x in raw):
            return raw
    raise RuntimeError(f"no line accepted within {SAMPLE_CAP} draws")


def _draw_line_codes(n: int, d: int, rng, count: int) -> np.ndarray:
    """`count` calls of `_draw_line_code` as the rows of one (count, d) array.

    The rows and the rng state left behind are those of the scalar calls.
    On CPython `randrange(m)` keeps the top m.bit_length() bits of one
    32-bit `getrandbits` word and redraws values >= m, and `getrandbits(32k)`
    returns the next k words, the first one lowest. So the words are read in
    rounds, each no longer than what the scalar calls would still consume:
    (rows still needed)·d less the values already pending. Values >= n+2 are
    dropped, the rest cut into rows of d, and rows with no sign rejected.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    m = n + 2
    if m.bit_length() > 32:
        raise ValueError(f"n = {n} is too large for one 32-bit word per draw")
    shift = 32 - m.bit_length()
    accepted = [np.empty((0, d), dtype=np.int64)]
    pending = np.empty(0, dtype=np.int64)  # the values of an unfinished row
    got = rejected = 0  # rejected: rows without a sign since the last accepted
    while got < count:
        words = (count - got) * d - len(pending)
        raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                            dtype="<u4") >> shift
        values = np.concatenate((pending, raw[raw < m]))
        full = len(values) - len(values) % d
        rows, pending = values[:full].reshape(-1, d), values[full:]
        keep = np.flatnonzero((rows >= n).any(axis=1))
        gaps = np.diff(keep, prepend=-1 - rejected) - 1
        rejected = len(rows) - 1 - keep[-1] if len(keep) else rejected + len(rows)
        if max(gaps.max(initial=0), rejected) >= SAMPLE_CAP:
            raise RuntimeError(f"no line accepted within {SAMPLE_CAP} draws")
        accepted.append(rows[keep])
        got += len(keep)
    return np.concatenate(accepted)


def _segment_symbols(n: int, k: int) -> list[tuple[int, int]]:
    """Per-coordinate symbols as (start, step): numerals a fix the coordinate at a,
    then up-starts ('+', step +1), then down-starts ('-', step -1). At k = n the
    only starts are 1 up and n down, the line symbols '+' and '-'."""
    return ([(a, 0) for a in range(1, n + 1)]
            + [(a, 1) for a in range(1, n - k + 2)]
            + [(b, -1) for b in range(k, n + 1)])


def _symbol_coords(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(step, coord) of the `_segment_symbols(n, k)` rows: step[s] is symbol s's
    step and coord[s, i] its 0-based coordinate at the i-th point."""
    start, step = np.array(_segment_symbols(n, k)).T
    return step, start[:, None] - 1 + step[:, None] * np.arange(k)


def enumerate_segments(n: int, d: int, k: int) -> Iterator[Segment]:
    """All canonical length-k segments of [n]^d, each exactly once."""
    count_segments(n, d, k)  # rejects k outside [2, n] and d < 1
    for p, v, r in _canonical_pairs(n, d, k):
        yield Segment(p, v, k=k, weight=r)


def count_segments(n: int, d: int, k: int) -> int:
    """Closed-form segment count ((3n-2k+2)^d - n^d) / 2."""
    if not 2 <= k <= n:
        raise ValueError(f"segment length k={k} out of [2, n={n}]")
    if d < 1:
        raise ValueError("need d >= 1")
    return ((3 * n - 2 * k + 2) ** d - n**d) // 2


def segment_table(n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat point indices of every canonical length-k segment, plus weights.

    Returns (idx, weights): idx has one row of k indices per segment in
    enumeration order, weights the nonzero count of each direction. Lines are
    the case k = n. The table grows one coordinate at a time: each row branches
    on every symbol with `idx * n + coord`, rows whose first sign is '-' are
    dropped as they appear and rows with no sign at the last coordinate, so the
    kept rows stay in enumeration order.

    idx is column-major (Fortran order), and so is the reading `cells[idx]`:
    each column, the i-th point of every segment, is contiguous. Matching
    compares one column at a time over all rows, which is several times
    faster than reducing each short row.

    Tables are cached, read-only and shared by every caller. The cache drops
    the least recently used tables once their bytes exceed TABLE_CACHE_BYTES;
    the table just returned always stays.
    """
    key = (n, d, k)
    with _tables_lock:
        if key in _tables:
            _tables.move_to_end(key)
            return _tables[key]
    table = _build_segment_table(n, d, k)
    with _tables_lock:
        _tables[key] = table
        held = sum(idx.nbytes + weights.nbytes for idx, weights in _tables.values())
        while held > TABLE_CACHE_BYTES and len(_tables) > 1:
            idx, weights = _tables.popitem(last=False)[1]
            held -= idx.nbytes + weights.nbytes
    return table


def _build_segment_table(n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    total = count_segments(n, d, k)
    if total > DEFAULT_LINE_CAP:
        raise ValueError(
            f"{total} length-{k} segments at (n={n}, d={d}) exceed the table cap "
            f"{DEFAULT_LINE_CAP}; for full lines use estimate_fraction"
        )
    step, coord = _symbol_coords(n, k)
    idx = np.zeros((1, k), dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)  # step of the first signed axis, 0 if none yet
    weights = np.zeros(1, dtype=np.int8)
    for j in range(d):
        lead = np.where(first[:, None] != 0, first[:, None], step)
        keep = lead > 0 if j == d - 1 else lead >= 0
        grown = np.empty((np.count_nonzero(keep), k), dtype=np.int64, order="F")
        for i in range(k):  # column by column, so no (rows, symbols, k) block is held
            grown[:, i] = (idx[:, i, None] * n + coord[:, i])[keep]
        idx, first = grown, lead[keep]
        weights = (weights[:, None] + (step != 0))[keep]
    assert len(idx) == total
    idx.flags.writeable = weights.flags.writeable = False
    return idx, weights


def format_line(line: CanonicalLine) -> str:
    """Render a canonical pair as `p1,...,pd ; v1,...,vd`."""
    return ",".join(map(str, line.p)) + " ; " + ",".join(map(str, line.v))
