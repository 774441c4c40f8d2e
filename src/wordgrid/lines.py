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
The enumerator builds only the canonical codes, in lexicographic order, by
joining each prefix to a prebuilt tail block of at most TAIL_BLOCK codes
(or of one coordinate's symbols, when those alone are more). A line's
class, the multiset of its symbols, is what a symmetric grid reads;
`line_class_table` ranks each class's profiles without listing its lines.

The `CanonicalLine` and `Segment` constructors check every pair (`_check_pair`);
the enumerator checks each tail code and prefix once instead and builds its
lines and segments from those checked parts without a per-object check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import BATCH_VALUES, Point, _cached_table

Direction = tuple[int, ...]

SAMPLE_CAP = 10**6

DEFAULT_LINE_CAP = 5_000_000

TAIL_BLOCK = 256  # most codes in the tail block `_canonical_pairs` builds per call

_UNIT_STEPS = frozenset((-1, 0, 1))


def _check_sign(v: Direction) -> None:
    """The sign rule: v has a nonzero coordinate and the first one is not -1;
    a first step outside {-1, 0, +1} is left to the step check to name."""
    for x in v:  # x ends as the first nonzero coordinate
        if x != 0:
            break
    else:
        raise ValueError("direction must have a nonzero coordinate")
    if x == -1:
        raise ValueError("first nonzero direction coordinate must be +1")


def _check_steps(p: Point, v: Direction, weight: int) -> None:
    """The check a whole pair and each code part of the stream share: p and v
    have the same length, every step is in {-1, 0, +1}, and weight is the
    nonzero count of v."""
    if len(p) != len(v):
        raise ValueError("p and v must have the same dimension")
    if not _UNIT_STEPS.issuperset(v):
        raise ValueError("direction coordinates must be in {-1, 0, +1}")
    if weight != len(v) - v.count(0):
        raise ValueError("weight must equal the nonzero count of v")


def _check_pair(pair: CanonicalLine | Segment) -> None:
    """Reject a (p; v) pair that is not canonical or whose weight is wrong."""
    if len(pair.p) == len(pair.v):  # else the step check reports the lengths first
        _check_sign(pair.v)
    _check_steps(pair.p, pair.v, pair.weight)


def _checked_lead(p: Point, v: Direction, weight: int) -> int:
    """The step check on one code part of the stream, then the step of its
    first sign, 0 if there is none."""
    _check_steps(p, v, weight)
    return next(filter(None, v), 0)


@dataclass(frozen=True)
class CanonicalLine:
    """Canonical (p; v) pair of a full line; weight is the nonzero count of v."""

    p: Point
    v: Direction
    weight: int

    __post_init__ = _check_pair


@dataclass(frozen=True)
class Segment:
    """Canonical (p; v) pair of a length-k segment."""

    p: Point
    v: Direction
    k: int
    weight: int

    def __post_init__(self) -> None:
        _check_pair(self)
        if self.k < 2:
            raise ValueError("segments need k >= 2")


def canonicalize(p: Point, v: Direction, n: int) -> CanonicalLine:
    """Canonical pair of the full line through (p, v); both orientations agree."""
    if n < 2:
        raise ValueError("lines need n >= 2")
    line = _oriented(p, v, n)  # CanonicalLine checks the pair
    line_points(line, n)  # and this that the line stays in [1, n]^d
    return line


def _oriented(p: Point, v: Direction, n: int) -> CanonicalLine:
    """The line p, p+v, ..., p+(n-1)v walked from whichever end makes its
    first nonzero step +1."""
    if next(filter(None, v), 0) == -1:
        # zip stops at the shorter, so p keeps its tail and CanonicalLine sees any mismatch
        p = tuple(pj + (n - 1) * vj for pj, vj in zip(p, v)) + p[len(v):]
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
    `_segment_symbols`, less the codes with no sign or a leading '-'; only the
    canonical codes are built. A code is a prefix over the first d - m
    coordinates and a tail over the last m, where m is the largest width up
    to d whose tail block holds at most TAIL_BLOCK codes, or 1 when one
    coordinate's symbols alone are more. The block is built once per call;
    a prefix whose first sign is '+' takes all of it, a prefix with no sign
    only the tail codes whose first sign is '+', and a prefix whose first
    sign is '-' none.

    Every tail code and every prefix goes through `_checked_lead` once, and
    its lead decides the join, so each joined code is canonical by
    construction at a cost of O(prefixes + tail codes), not O(segments).
    """
    symbols = _segment_symbols(n, k)
    m = 1
    while m < d and len(symbols) ** (m + 1) <= TAIL_BLOCK:
        m += 1
    tail = list(_codes(symbols, m))
    plus_tail = [code for code in tail if _checked_lead(*code) == 1]
    for hp, hv, hr in _codes(symbols, d - m):
        lead = _checked_lead(hp, hv, hr)
        if lead >= 0:
            for p, v, r in tail if lead else plus_tail:
                yield hp + p, hv + v, hr + r


def _codes(symbols: list[tuple[int, int]], m: int) -> Iterator[tuple[Point, Direction, int]]:
    """(p, v, weight) of every code over m coordinates, in encoding order."""
    for code in itertools.product(symbols, repeat=m):
        p, v = zip(*code) if code else ((), ())
        yield p, v, m - v.count(0)


def enumerate_lines(n: int, d: int, weight: int | None = None) -> Iterator[CanonicalLine]:
    """All canonical lines of [n]^d, each exactly once, in encoding order.

    Lines are the segments of length n, so the stream is that of
    `enumerate_segments(n, d, n)`: lexicographic over encoded sequences with
    per-coordinate symbol order 1..n, '+', '-', and deterministic.

    Each line is built from code parts `_canonical_pairs` checked once, by
    `object.__new__` and an update of the instance dict (a frozen dataclass
    refuses only attribute assignment): it is the object `CanonicalLine(p, v,
    weight)` builds, and that constructor still checks every pair.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if weight is not None and not 1 <= weight <= d:
        raise ValueError(f"weight {weight} out of [1, d={d}]")
    new = object.__new__
    for p, v, r in _canonical_pairs(n, d, n):
        if weight is None or r == weight:
            line = new(CanonicalLine)
            line.__dict__.update(p=p, v=v, weight=r)
            yield line


def count_lines(n: int, d: int) -> tuple[dict[int, int], int]:
    """Closed-form line tally per weight r and in total.

    Weight r contributes C(d,r) * 2^(r-1) * n^(d-r); the total telescopes to
    ((n+2)^d - n^d) / 2. C(d,r) comes from C(d,r-1) by one exact division.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    per_weight, binom = {}, 1
    for r in range(1, d + 1):
        binom = binom * (d - r + 1) // r
        per_weight[r] = binom * 2 ** (r - 1) * n ** (d - r)
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


def _draw_line_codes(n: int, d: int, rng, count: int, rows: int) -> Iterator[np.ndarray]:
    """`count` calls of `_draw_line_code` as the rows of (rows, d) arrays, the
    last one shorter when `rows` does not divide `count`.

    The arrays are one draw stream cut into pieces: concatenated, their rows
    and the rng state left behind are those of the scalar calls. On CPython
    `randrange(m)` keeps the top m.bit_length() bits of one 32-bit
    `getrandbits` word and redraws values >= m, and `getrandbits(32k)` returns
    the next k words, the first one lowest. So the words are read in rounds of
    at most max(rows·d, BATCH_VALUES) words, each no longer than what the scalar
    calls would still consume: (rows still needed for the whole count)·d less
    the values already pending. A round is not cut to one array, so arrays of
    one row (a symmetric estimate with n^2 > BATCH_VALUES) still read about
    BATCH_VALUES words per `getrandbits` call. Values >= n+2 are dropped, the
    rest cut into rows of d, and rows with no sign rejected. Accepted rows
    beyond one array, and the values of an unfinished row, carry over into the
    next array. Values are held in the smallest unsigned type that takes n+1
    (uint8 up to n = 254).
    """
    m = n + 2
    if m.bit_length() > 32:
        raise ValueError(f"n = {n} is too large for one 32-bit word per draw")
    shift = 32 - m.bit_length()
    dtype = np.min_scalar_type(n + 1)
    held = np.empty((0, d), dtype=dtype)  # accepted rows not yet yielded
    pending = np.empty(0, dtype=dtype)  # the values of an unfinished row
    got = rejected = 0  # rejected: rows without a sign since the last accepted
    for start in range(0, count, rows):
        want = min(rows, count - start)
        while len(held) < want:
            words = min(max(rows * d, BATCH_VALUES), (count - got) * d - len(pending))
            # one name for the raw words and the values, so that the words are
            # not held while the reader has the array yielded last
            values = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                                   dtype="<u4") >> shift
            values = np.concatenate((pending, values[values < m].astype(dtype)))
            full = len(values) - len(values) % d
            block, pending = values[:full].reshape(-1, d), values[full:]
            keep = np.flatnonzero((block >= n).any(axis=1))
            gaps = np.diff(keep, prepend=-1 - rejected) - 1
            rejected = len(block) - 1 - keep[-1] if len(keep) else rejected + len(block)
            if max(gaps.max(initial=0), rejected) >= SAMPLE_CAP:
                raise RuntimeError(f"no line accepted within {SAMPLE_CAP} draws")
            held = np.concatenate((held, block[keep]))
            got += len(keep)
        yield held[:want]
        held = held[want:]


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


def _line_profiles(codes: np.ndarray, n: int) -> np.ndarray:
    """The (m, n, n) profiles of the lines with codes (m, d): [j, i, x-1] counts
    line j's coordinates equal to x at its i-th point. They are its numeral
    counts at every point, its '+' count added at value i and its '-' count
    at value n+1-i: three array operations whatever n."""
    m, steps = len(codes), np.arange(n)
    counts = np.bincount((codes + (n + 2) * np.arange(m)[:, None]).ravel(),
                         minlength=m * (n + 2)).reshape(m, n + 2)
    profiles = np.repeat(counts[:, None, :n], n, axis=1)
    profiles[:, steps, steps] += counts[:, n, None]
    profiles[:, steps, steps[::-1]] += counts[:, n + 1, None]
    return profiles


def enumerate_segments(n: int, d: int, k: int) -> Iterator[Segment]:
    """All canonical length-k segments of [n]^d, each exactly once.

    Built as `enumerate_lines` builds lines, from checked code parts without
    `Segment.__init__`; `Segment(...)` still checks every pair.
    """
    count_segments(n, d, k)  # rejects k outside [2, n] and d < 1
    new = object.__new__
    for p, v, r in _canonical_pairs(n, d, k):
        seg = new(Segment)
        seg.__dict__.update(p=p, v=v, k=k, weight=r)
        yield seg


def count_segments(n: int, d: int, k: int) -> int:
    """Closed-form segment count ((3n-2k+2)^d - n^d) / 2."""
    if not 2 <= k <= n:
        raise ValueError(f"segment length k={k} out of [2, n={n}]")
    if d < 1:
        raise ValueError("need d >= 1")
    return ((3 * n - 2 * k + 2) ** d - n**d) // 2


@_cached_table
def segment_table(n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat point indices of every canonical length-k segment, grouped by weight.

    Returns (idx, starts): idx has one row of k indices per segment, and rows
    starts[r-1]:starts[r] are the segments of weight r (the nonzero count of
    the direction), for r = 1..d, so starts[0] = 0 and starts[d] = len(idx).
    Within a weight the rows keep enumeration order. Lines are the case k = n.
    Grouped rows let a per-weight tally count each weight over one slice
    instead of gathering each matched row's weight; no consumer of the table
    depends on the order of its rows, and its decoder, `_table_lines`, turns
    any rows of a line table back into lines in enumeration order.

    The table is built from the last coordinate to the first, so no sort is
    needed. The codes over the last j coordinates are kept grouped by weight,
    each group in encoding order, with the step of each code's first sign.
    Prepending a coordinate gives weight w the numerals on the codes of weight
    w, then the signs on the codes of weight w - 1, each symbol-major: the
    prepended symbol leads the encoding order, so every group stays in it.
    Codes with no sign or a leading '-' are kept until coordinate 1, where
    numerals go only on codes led by '+' and '+' is the only sign. The last
    step writes the table once, into its final place.

    idx is column-major (Fortran order), and so is the reading `cells[idx]`:
    each column, the i-th point of every segment, is contiguous. Matching
    compares one column at a time over all rows, which is several times
    faster than reducing each short row.

    Tables are read-only and shared by every caller through `core._cached_table`,
    whose one TABLE_CACHE_BYTES budget also holds the profile-class and symmetry
    tables; the least recently used go first and the table just returned stays.
    """
    total = count_segments(n, d, k)
    if total > DEFAULT_LINE_CAP:
        raise ValueError(
            f"{total} length-{k} segments at (n={n}, d={d}) exceed the table cap "
            f"{DEFAULT_LINE_CAP}; for full lines use estimate_fraction"
        )
    step, coord = _symbol_coords(n, k)
    step = step.astype(np.int8)
    coord = coord.T[:, :, None]  # coord[i, s]: symbol s's coordinate at point i
    numeral = step == 0
    # codes over the last j coordinates, by weight w: flat[w] holds their partial
    # flat indices, one row per point, and lead[w] the step of each one's first sign
    flat, lead = [np.zeros((k, 1), dtype=np.int64)], [np.zeros(1, dtype=np.int8)]
    for j in range(d):
        last = j == d - 1  # prepending coordinate 1
        # per new weight, the (symbols, codes, their leads) to join: numerals
        # first, as they come first in the symbol order
        pieces = [[] for _ in range(j + 2)]
        for w in range(j + 1):
            keep = lead[w] > 0 if last else slice(None)
            pieces[w].append((numeral, flat[w][:, keep], lead[w][keep]))
        for w in range(j + 1):
            pieces[w + 1].append((step > 0 if last else ~numeral, flat[w], lead[w]))
        sizes = [sum(np.count_nonzero(s) * f.shape[1] for s, f, _ in piece) for piece in pieces]
        out = np.empty((k, sum(sizes)), dtype=np.int64)
        flat, lead, at = [], [], 0
        for piece in pieces:
            begin, leads = at, []
            for s, f, led in piece:
                shape = (k, np.count_nonzero(s), f.shape[1])
                rows = shape[1] * shape[2]
                # symbol-major, since the prepended symbol leads the encoding order
                np.add(coord[:, s] * n**j, f[:, None, :], out=out[:, at:at + rows].reshape(shape))
                leads.append(np.where(numeral[s, None], led, step[s, None]).ravel())
                at += rows
            flat.append(out[:, begin:at])
            lead.append(np.concatenate(leads))
    assert out.shape[1] == total
    return out.T, np.cumsum(sizes)


def _class_table_fits(n: int, d: int) -> bool:
    """Whether `line_class_table(n, d)` is within DEFAULT_LINE_CAP: its rows,
    C(n+d+1, d) - C(n+d-1, d), and its profile classes, C(n+d-1, d), are each
    at most the cap. Both are checked with `math.comb` before anything is built."""
    classes = math.comb(n + d - 1, d)
    return max(math.comb(n + d + 1, d) - classes, classes) <= DEFAULT_LINE_CAP


@_cached_table
def line_class_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                              np.ndarray]:
    """The line classes of [n]^d: (counts, codes, idx, starts, reps).

    A line's code is d symbols over {1..n, +, -}. On a symmetric grid its
    reading depends only on the multiset of those symbols, the line's class,
    as at step i a '+' coordinate takes the value i and a '-' one n+1-i. Row c
    of `counts` is a class with at least one sign: its numeral counts for the
    values 1..n, then its '+' and '-' counts. It holds codes[c] =
    d!/prod(counts[c]!) codes, two per line, as swapping '+' and '-' reverses
    a line; `codes` is int64 while (n+2)^d, which bounds every sum of them,
    fits it, else Python ints. Rows are grouped by weight, the sign count, as
    in `segment_table`: rows starts[r-1]:starts[r] have weight r, each weight
    '+'-count-major over the numeral multisets of size d - r.

    idx[c, i-1] is the rank of class c's profile at step i (its numeral
    counts, plus its '+' count at value i and its '-' count at n+1-i) among
    the profile classes of [n]^d, with the rank `core._profile_classes`
    gives. So a grid's letter per profile class and idx are the (cells, idx)
    pair `occurrence._match` reads, idx column-major as in `segment_table`.
    reps[k] is one position c + len(counts)·(i-1) of idx holding rank k;
    every profile is some class's at some step.

    Rows are ranked, never sorted. With S_x the coordinates at most x, the
    rank of a sorted 0-based a_0 <= .. <= a_(d-1), sum_j C(a_j + j, j + 1),
    telescopes to C(n+d-1, d) - 1 - sum_{x=1..n-1} C(x - 1 + S_x, x). At
    step i, S_x is the class's numerals up to x, plus its '+' count once
    x >= i and its '-' count once x >= n+1-i, so one pass over x keeps the
    running sums of that term at the four shifts (none, '+', '-', both) and
    settles steps i and n+1-i as it passes the lower and the upper of their
    two sign values: O(rows · n), never a (rows, n, d) array.

    Refused, naming the cap, beyond `_class_table_fits`; every partial rank
    then stays well inside int32.
    """
    if not _class_table_fits(n, d):
        raise ValueError(
            f"{math.comb(n + d + 1, d) - math.comb(n + d - 1, d)} line classes and "
            f"{math.comb(n + d - 1, d)} profile classes at (n={n}, d={d}) exceed the "
            f"table cap {DEFAULT_LINE_CAP}; use estimate_fraction")
    dtype = np.min_scalar_type(d)
    # the numeral multisets of each size below d as count rows: size m + 1
    # from size m by one more value at least the largest present (top)
    numerals, top = [np.zeros((1, n), dtype=dtype)], np.zeros(1, dtype=np.int64)
    for _ in range(d - 1):
        more = n - top
        grown = np.repeat(numerals[-1], more, axis=0)
        top = np.arange(len(grown)) - np.repeat(np.cumsum(more) - more - top, more)
        grown[np.arange(len(grown)), top] += 1
        numerals.append(grown)
    blocks = []
    for r in range(1, d + 1):
        part = numerals[d - r]
        plus = np.repeat(np.arange(r + 1, dtype=dtype), len(part))
        blocks.append(np.column_stack((np.tile(part, (r + 1, 1)), plus, r - plus)))
    counts = np.concatenate(blocks)
    starts = np.cumsum([0] + [len(b) for b in blocks])
    # a multinomial is the product of C(placed, c) over its counts c, placed
    # the running total of the counts up to c
    exact = np.int64 if (n + 2)**d < 2**63 else object
    pascal = np.array([[math.comb(a, b) for b in range(d + 1)] for a in range(d + 1)],
                      dtype=exact)
    codes, placed = np.ones(len(counts), dtype=exact), np.zeros(len(counts), dtype=np.int64)
    for column in counts.T:
        placed += column
        codes *= pascal[placed, column]
    rows, classes = len(counts), math.comb(n + d - 1, d)
    # term[x, s] = C(x - 1 + s, x), the rank term of value x with s coordinates at most x
    term = np.array([[math.comb(x - 1 + s, x) if x else 0 for s in range(d + 1)]
                     for x in range(n)], dtype=np.int64)
    plus, minus = counts[:, n].astype(np.int64), counts[:, n + 1].astype(np.int64)
    shifts = np.stack((np.zeros(rows, dtype=np.int64), plus, minus, plus + minus))
    below = np.zeros(rows, dtype=np.int64)  # numerals up to x
    run = np.zeros((4, rows), dtype=np.int64)  # the terms up to x at each shift
    idx = np.empty((rows, n), dtype=np.int32, order="F")
    for x in range(n):
        if x:
            below += counts[:, x - 1]
            run += term[x][below + shifts]
        none, up, down, both = run
        y = n - 1 - x  # 0-based: step x has '+' at x and '-' at y, step y the reverse
        if x < y:
            idx[:, x] = none - up
            idx[:, y] = none - down
        elif x == y:
            idx[:, x] = none - both
        else:
            idx[:, y] += up - both
            idx[:, x] += down - both
    idx += both[:, None]
    np.subtract(classes - 1, idx, out=idx)
    reps = np.empty(classes, dtype=np.int64)
    for i in range(n):
        reps[idx[:, i]] = np.arange(i * rows, (i + 1) * rows)
    return counts, codes, idx, starts, reps


def _table_lines(rows: np.ndarray, n: int, d: int) -> tuple[CanonicalLine, ...]:
    """The lines of some rows of `segment_table(n, d, n)`, in `enumerate_lines` order.

    A row's first two cells give p and v. Encoding order is lexicographic in
    each coordinate's row of `_segment_symbols(n, n)`: numeral a is row a - 1,
    '+' row n and '-' row n + 1.
    """
    p = np.stack(np.unravel_index(rows[:, 0], (n,) * d), axis=1) + 1
    v = np.stack(np.unravel_index(rows[:, 1], (n,) * d), axis=1) + 1 - p
    codes = np.where(v == 0, p - 1, np.where(v > 0, n, n + 1))
    order = np.lexsort(codes.T[::-1])  # lexsort's last key leads
    return tuple(CanonicalLine(tuple(a), tuple(b), len(b) - b.count(0))
                 for a, b in zip(p[order].tolist(), v[order].tolist()))


def format_line(line: CanonicalLine | Segment) -> str:
    """Render a canonical pair as `p1,...,pd ; v1,...,vd`."""
    return ",".join(map(str, line.p)) + " ; " + ",".join(map(str, line.v))
