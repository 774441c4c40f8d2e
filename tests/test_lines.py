"""Tests for line/segment enumeration against brute-force and closed forms."""

import itertools
import math
import random

from collections import OrderedDict

import numpy as np
import pytest

from wordgrid import lines
from wordgrid.core import all_points, point_index
from wordgrid.lines import (
    CanonicalLine,
    Segment,
    canonicalize,
    count_lines,
    count_segments,
    enumerate_lines,
    enumerate_segments,
    format_line,
    line_points,
    sample_line,
    segment_points,
    segment_table,
)
from wordgrid.occurrence import DRAW_CHUNK


def brute_line_sets(n, d):
    """Independent line collection: all (p, v) pairs, deduped by point set."""
    dirs = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    found = set()
    for p in all_points(n, d):
        for v in dirs:
            pts = [tuple(p[j] + i * v[j] for j in range(d)) for i in range(n)]
            if all(1 <= x <= n for q in pts for x in q):
                found.add(frozenset(pts))
    return found


def brute_segment_sets(n, d, k):
    """All in-grid k-point runs (p, v, ..., p+(k-1)v), deduped by point tuple."""
    dirs = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    found = set()
    for p in all_points(n, d):
        for v in dirs:
            pts = [tuple(p[j] + i * v[j] for j in range(d)) for i in range(k)]
            if all(1 <= x <= n for q in pts for x in q):
                found.add(min(tuple(pts), tuple(reversed(pts))))
    return found


# ---------------------------------------------------------------- canonicalize

def test_canonicalize_examples():
    assert canonicalize((3, 1), (-1, 1), 3) == CanonicalLine((1, 3), (1, -1), 2)
    assert canonicalize((1, 2), (1, 0), 3) == CanonicalLine((1, 2), (1, 0), 1)
    for i in range(1, 4):
        assert canonicalize((i, 1), (0, 1), 3) == CanonicalLine((i, 1), (0, 1), 1)


def test_canonicalize_orientation_invariant():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 5)
        d = rng.randint(1, 4)
        line = sample_line(n, d, rng)
        fwd = canonicalize(line.p, line.v, n)
        endpoint = tuple(pj + (n - 1) * vj for pj, vj in zip(line.p, line.v))
        bwd = canonicalize(endpoint, tuple(-x for x in line.v), n)
        assert fwd == bwd == line
        assert canonicalize(fwd.p, fwd.v, n) == fwd


def test_canonicalize_errors():
    with pytest.raises(ValueError):
        canonicalize((1, 1), (0, 0), 3)
    with pytest.raises(ValueError):
        canonicalize((2, 1), (1, 1), 3)  # leaves the grid at step 3
    with pytest.raises(ValueError):
        canonicalize((1,), (1,), 1)


def test_line_points_examples():
    assert line_points(CanonicalLine((1, 1), (1, 1), 2), 3) == [(1, 1), (2, 2), (3, 3)]
    assert line_points(CanonicalLine((1, 3), (1, -1), 2), 3) == [(1, 3), (2, 2), (3, 1)]
    assert line_points(CanonicalLine((2, 1), (0, 1), 1), 3) == [(2, 1), (2, 2), (2, 3)]


# ---------------------------------------------------------------- validation

def _reference_line_check(p, v, weight):
    """The list-and-generator validation that `CanonicalLine` replaced."""
    if len(p) != len(v):
        raise ValueError("p and v must have the same dimension")
    nz = [x for x in v if x != 0]
    if not nz:
        raise ValueError("direction must have a nonzero coordinate")
    if nz[0] != 1:
        raise ValueError("first nonzero direction coordinate must be +1")
    if any(x not in (-1, 0, 1) for x in v):
        raise ValueError("direction coordinates must be in {-1, 0, +1}")
    if weight != len(nz):
        raise ValueError("weight must equal the nonzero count of v")


def _reference_segment_check(p, v, k, weight):
    """The list-based validation that `Segment` replaced."""
    if len(p) != len(v):
        raise ValueError("p and v must have the same dimension")
    nz = [x for x in v if x != 0]
    if not nz or nz[0] != 1:
        raise ValueError("first nonzero direction coordinate must be +1")
    if any(x not in (-1, 0, 1) for x in v):
        raise ValueError("direction coordinates must be in {-1, 0, +1}")
    if k < 2:
        raise ValueError("segments need k >= 2")
    if weight != len(nz):
        raise ValueError("weight must equal the nonzero count of v")


def _verdict(make, *args):
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def test_validation_matches_reference():
    rng = random.Random(12)
    cases = [((), (), 0, 2), ((1, 1), (0, 0), 0, 2), ((3, 1), (-1, 1), 2, 3), ((1, 2), (2, 0), 1, 2),
             ((1, 2), (1, -2), 2, 2), ((1, 2), (1, 2), 2, 2), ((1, 2), (1, 1), 1, 2), ((1,), (1, 0), 1, 2),
             ((1, 1), (0, 1), 1, 1), ((1, 1), (0, 1), 1, 0), ((2, 1), (0, 1), 1, 2)]
    for _ in range(20_000):
        d = rng.randint(0, 4)
        v = tuple(rng.choice((-2, -1, -1, 0, 0, 0, 1, 1, 1, 2)) for _ in range(d))
        p = tuple(rng.randint(1, 4) for _ in range(d + rng.choice((-1, 0, 0, 0, 0, 1))))
        weight = sum(x != 0 for x in v) + rng.choice((-1, 0, 0, 0, 1))
        cases.append((p, v, weight, rng.randint(0, 4)))
    verdicts = set()
    for p, v, weight, k in cases:
        line = _verdict(CanonicalLine, p, v, weight)
        assert line == _verdict(_reference_line_check, p, v, weight), (p, v, weight)
        seg = _verdict(Segment, p, v, k, weight)
        assert seg == _verdict(_reference_segment_check, p, v, k, weight), (p, v, k, weight)
        verdicts |= {("line", line), ("segment", seg)}
    assert len(verdicts) == 6 + 6  # acceptance and every message of both classes occur


# ---------------------------------------------------------------- enumeration

def test_enumerate_lines_counts():
    assert sum(1 for _ in enumerate_lines(3, 2)) == 8
    assert sum(1 for _ in enumerate_lines(2, 1)) == 1
    tally = {}
    for line in enumerate_lines(3, 3):
        tally[line.weight] = tally.get(line.weight, 0) + 1
    assert tally == {1: 27, 2: 18, 3: 4}


def test_enumerate_lines_matches_brute_force():
    for n, d in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        ours = [frozenset(line_points(l, n)) for l in enumerate_lines(n, d)]
        assert len(ours) == len(set(ours))  # no duplicates
        assert set(ours) == brute_line_sets(n, d)


def test_emitted_lines_touch_boundary():
    # an up axis starts at 1, a down axis starts at n
    for n, d in [(3, 2), (4, 3)]:
        for line in enumerate_lines(n, d):
            for pj, vj in zip(line.p, line.v):
                if vj == 1:
                    assert pj == 1
                elif vj == -1:
                    assert pj == n


def test_tallies_match_closed_form():
    for n in range(2, 7):
        for d in range(1, 6):
            per_weight, total = count_lines(n, d)
            seen = {}
            for line in enumerate_lines(n, d):
                seen[line.weight] = seen.get(line.weight, 0) + 1
            assert seen == per_weight
            assert sum(seen.values()) == total


def test_count_lines_values():
    assert count_lines(3, 2)[1] == 8
    assert count_lines(3, 3)[1] == 49
    assert count_lines(5, 2)[1] == 12
    per_weight, _ = count_lines(4, 3)
    assert per_weight[1] == 3 * 16
    with pytest.raises(ValueError):
        count_lines(1, 2)


def test_weight_filter():
    diag = list(enumerate_lines(3, 3, weight=3))
    assert len(diag) == 4
    assert all(line.weight == 3 for line in diag)
    for weight in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"weight {weight} out of \[1, d=2\]"):
            list(enumerate_lines(3, 2, weight=weight))


# ---------------------------------------------------------------- sampling

class FixedDraws(random.Random):
    """`randrange` returns the given values in turn."""

    def __init__(self, values):
        super().__init__()
        self.values = iter(values)

    def randrange(self, *args):
        return next(self.values)


def test_sample_line_decodes_and_orients_draws():
    # values 0..2 are the numerals 1..3 at n = 3, value 3 is '+' and 4 is '-'
    cases = [
        ([3, 1], ((1, 2), (1, 0), 1)),  # '+' then the numeral 2
        ([4, 3], ((1, 3), (1, -1), 2)),  # '-' first: the line is walked from the other end
        ([1, 4], ((2, 1), (0, 1), 1)),  # numeral 2 then '-', oriented up
        ([3, 4], ((1, 3), (1, -1), 2)),  # '+' then '-'
    ]
    for draws, want in cases:
        assert sample_line(3, 2, FixedDraws(draws)) == CanonicalLine(*want), draws


def test_sample_line_uniform_small():
    rng = random.Random(1234)
    counts = {}
    m = 100_000
    for _ in range(m):
        line = sample_line(3, 2, rng)
        counts[line] = counts.get(line, 0) + 1
    assert len(counts) == 8
    for c in counts.values():
        assert abs(c / m - 0.125) < 0.01


def test_sample_line_uniform_3d():
    rng = random.Random(5150)
    counts = {}
    m = 100_000
    for _ in range(m):
        line = sample_line(3, 3, rng)
        counts[line] = counts.get(line, 0) + 1
    assert len(counts) == 49
    p = 1 / 49
    se = math.sqrt(p * (1 - p) / m)
    for c in counts.values():
        assert abs(c / m - p) < 4 * se


def scalar_codes(n, d, rng, count):
    return [lines._draw_line_code(n, d, rng) for _ in range(count)]


@pytest.mark.parametrize("n", range(2, 8))  # n+2 is a power of two at n = 2 and 6
def test_batched_draws_replay_the_scalar_draws(n):
    for d in range(1, 13):
        # the last count spans several estimator chunks of DRAW_CHUNK values
        for count in (1, 7, 3 * DRAW_CHUNK // d + 5):
            rng, ref = random.Random(f"{n} {d} {count}"), random.Random(f"{n} {d} {count}")
            got = lines._draw_line_codes(n, d, rng, count)
            assert got.shape == (count, d)
            assert got.tolist() == scalar_codes(n, d, ref, count), (n, d, count)
            assert rng.getstate() == ref.getstate(), (n, d, count)


class WordStream(random.Random):
    """`getrandbits` over a given stream of 32-bit words, cut as CPython cuts them."""

    def __init__(self, words):
        super().__init__()
        self.words = iter(words)

    def getrandbits(self, k):
        if k <= 32:
            return next(self.words) >> (32 - k)
        return sum(next(self.words) << (32 * i) for i in range(k // 32))


def outcome(draw):
    try:
        return draw()
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("count", [1, 7, 1000])
@pytest.mark.parametrize("zero_rows", [49, 50, None])  # None: zeros without end
def test_batched_draws_give_up_like_the_scalar_draws(monkeypatch, count, zero_rows):
    # a zero word is the numeral 1, so zero_rows leading rows have no sign
    monkeypatch.setattr(lines, "SAMPLE_CAP", 50)
    n, d = 3, 4

    def stream():
        tail = random.Random(5)
        zeros = itertools.repeat(0) if zero_rows is None else [0] * (zero_rows * d)
        return itertools.chain(zeros, iter(lambda: tail.getrandbits(32), None))
    want = outcome(lambda: scalar_codes(n, d, WordStream(stream()), count))
    got = outcome(lambda: lines._draw_line_codes(n, d, WordStream(stream()), count).tolist())
    assert got == want
    assert (want == "no line accepted within 50 draws") == (zero_rows != 49)


# ---------------------------------------------------------------- segments

def test_count_segments_values():
    assert count_segments(3, 2, 3) == 8
    assert count_segments(5, 2, 2) == 72
    assert count_segments(5, 1, 4) == 2
    with pytest.raises(ValueError):
        count_segments(3, 2, 1)
    with pytest.raises(ValueError):
        count_segments(3, 2, 4)


def test_enumerate_segments_matches_brute_force():
    for n, d, k in [(3, 1, 2), (5, 1, 4), (3, 2, 2), (4, 2, 3), (5, 2, 2), (3, 3, 2), (4, 3, 3)]:
        segs = list(enumerate_segments(n, d, k))
        assert len(segs) == count_segments(n, d, k)
        keyed = set()
        for seg in segs:
            pts = segment_points(seg, n)
            keyed.add(min(tuple(pts), tuple(reversed(pts))))
        assert len(keyed) == len(segs)
        assert keyed == brute_segment_sets(n, d, k)


def test_segments_at_full_length_are_lines():
    for n, d in [(3, 2), (2, 3), (4, 2)]:
        segs = [(s.p, s.v) for s in enumerate_segments(n, d, n)]
        lines = [(l.p, l.v) for l in enumerate_lines(n, d)]
        assert segs == lines
    for n in range(2, 7):
        for d in range(1, 6):
            assert count_segments(n, d, n) == count_lines(n, d)[1]


def test_segment_table_matches_python_walk():
    cases = [(n, d, k) for n in range(2, 7) for d in range(1, 5) for k in range(2, n + 1)]
    cases += [(n, 5, n) for n in range(2, 7)]
    for n, d, k in cases:
        idx, weights = segment_table(n, d, k)
        # the count kernel reads whole columns; a row-major table is several times slower
        assert idx.flags.f_contiguous and idx.dtype == np.int64, (n, d, k)
        segs = list(enumerate_segments(n, d, k))
        want = [[point_index(q, n, d) for q in segment_points(seg, n)] for seg in segs]
        assert idx.tolist() == want, (n, d, k)
        assert weights.tolist() == [seg.weight for seg in segs], (n, d, k)


def test_segment_table_cache_evicts_oldest_past_byte_budget(monkeypatch):
    def nbytes(table):
        return table[0].nbytes + table[1].nbytes

    monkeypatch.setattr(lines, "_tables", OrderedDict())
    first = segment_table(4, 3, 4)
    second = segment_table(3, 3, 3)
    monkeypatch.setattr(lines, "TABLE_CACHE_BYTES", nbytes(first) + nbytes(second))
    assert segment_table(4, 3, 4) is first  # a hit, and now the most recent
    third = segment_table(5, 2, 3)
    assert list(lines._tables) == [(4, 3, 4), (5, 2, 3)]  # the least recent went
    again = segment_table(3, 3, 3)
    assert again is not second
    assert np.array_equal(again[0], second[0]) and np.array_equal(again[1], second[1])
    assert again[0].flags.f_contiguous and not again[0].flags.writeable
    assert not again[1].flags.writeable
    assert list(lines._tables) == [(5, 2, 3), (3, 3, 3)]
    assert segment_table(5, 2, 3) is third
    monkeypatch.setattr(lines, "TABLE_CACHE_BYTES", 1)
    big = segment_table(5, 3, 5)
    assert list(lines._tables) == [(5, 3, 5)]  # over the budget alone, kept alone
    assert segment_table(5, 3, 5) is big


def test_segment_type_checks():
    with pytest.raises(ValueError):
        Segment((1, 1), (0, 0), 2, 0)
    with pytest.raises(ValueError):
        Segment((1, 3), (-1, 1), 2, 2)  # wrong orientation
    with pytest.raises(ValueError, match=r"direction coordinates must be in \{-1, 0, \+1\}"):
        Segment((1, 1), (1, 2), 2, 2)  # would walk (1, 1), (2, 3)


def test_format_line():
    assert format_line(CanonicalLine((1, 3), (1, -1), 2)) == "1,3 ; 1,-1"
