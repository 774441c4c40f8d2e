"""Tests for line/segment enumeration against brute-force and closed forms."""

import dataclasses
import itertools
import math
import random

from collections import OrderedDict

import numpy as np
import pytest

from wordgrid import core, lines
from wordgrid.core import BATCH_VALUES, all_points, point_index
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
    # the pair checks are CanonicalLine's and the in-grid check line_points'
    for p, v, n, message in [
        ((1, 1), (0, 0), 3, "direction must have a nonzero coordinate"),
        ((1, 1, 1), (1, 0), 3, "p and v must have the same dimension"),
        # a leading -1 flips the pair, and p keeps its length through the flip
        ((3, 1, 1), (-1, 0), 3, "p and v must have the same dimension"),
        ((1, 1), (-1, 0, 0), 3, "p and v must have the same dimension"),
        ((1, 1), (2, 0), 5, r"first nonzero direction coordinate must be \+1"),
        ((1, 1), (1, 2), 5, r"direction coordinates must be in \{-1, 0, \+1\}"),
        ((2, 1), (1, 1), 3,  # leaves the grid at step 3
         r"line CanonicalLine\(p=\(2, 1\), v=\(1, 1\), weight=2\) leaves \[1, 3\]\^2"),
        ((3, 3), (-1, -1), 2,  # walked from the other end
         r"line CanonicalLine\(p=\(2, 2\), v=\(1, 1\), weight=2\) leaves \[1, 2\]\^2"),
        ((1,), (1,), 1, "lines need n >= 2"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            canonicalize(p, v, n)


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
    """A segment is checked as a line's pair is, and then for k >= 2."""
    _reference_line_check(p, v, weight)
    if k < 2:
        raise ValueError("segments need k >= 2")


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
    assert len(verdicts) == 6 + 7  # acceptance and every message of both classes occur


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


def test_count_lines_matches_the_binomial_formula():
    # count_lines carries C(d, r) from weight to weight; the reference takes
    # math.comb per weight
    for n in range(2, 8):
        for d in (*range(1, 40), 300):
            want = {r: math.comb(d, r) * 2 ** (r - 1) * n ** (d - r) for r in range(1, d + 1)}
            assert count_lines(n, d)[0] == want, (n, d)


def test_weight_filter():
    diag = list(enumerate_lines(3, 3, weight=3))
    assert len(diag) == 4
    assert all(line.weight == 3 for line in diag)
    for weight in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"weight {weight} out of \[1, d=2\]"):
            list(enumerate_lines(3, 2, weight=weight))


def reference_pairs(n, d, k):
    """The stream built from every code: each code of {1..n, +, -}^d, filtered."""
    for code in itertools.product(lines._segment_symbols(n, k), repeat=d):
        for _, step in code:
            if step:
                break
        if step != 1:
            continue
        p, v = zip(*code)
        yield p, v, d - v.count(0)


def test_canonical_pairs_match_the_filtered_product():
    for n in range(2, 7):
        for d in range(1, 6):
            for k in range(2, n + 1):
                assert list(lines._canonical_pairs(n, d, k)) == list(reference_pairs(n, d, k)), \
                    (n, d, k)


@pytest.mark.parametrize("tail_block", [1, 10**9])
def test_canonical_pairs_at_any_tail_width(monkeypatch, tail_block):
    # a block of 1 leaves a tail of one coordinate; 10**9 makes the whole code tail
    monkeypatch.setattr(lines, "TAIL_BLOCK", tail_block)
    for n, d, k in [(2, 1, 2), (3, 2, 2), (3, 4, 3), (4, 3, 2), (4, 4, 4), (5, 3, 3)]:
        assert list(lines._canonical_pairs(n, d, k)) == list(reference_pairs(n, d, k)), \
            (n, d, k)


def test_canonical_pairs_when_one_coordinate_exceeds_the_tail_block():
    for k in (2, 150, 300):
        assert len(lines._segment_symbols(300, k)) > lines.TAIL_BLOCK
        assert list(lines._canonical_pairs(300, 2, k)) == list(reference_pairs(300, 2, k)), k


def test_weight_filter_is_the_filtered_stream():
    for n, d in [(2, 1), (3, 3), (4, 4), (2, 6)]:
        every = list(enumerate_lines(n, d))
        for r in range(1, d + 1):
            assert list(enumerate_lines(n, d, weight=r)) == [l for l in every if l.weight == r]


def assert_built_by_the_constructor(streamed, built):
    assert type(streamed) is type(built)
    assert list(vars(streamed).items()) == list(vars(built).items())
    assert streamed == built and hash(streamed) == hash(built) and repr(streamed) == repr(built)


def assert_frozen(obj):
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.weight = 0


def test_streamed_lines_are_the_checked_constructors_lines():
    # the stream builds its lines without `__init__`; each must be the object
    # `CanonicalLine` builds, through its check, from the same fields
    for n in range(2, 7):
        for d in range(1, 6):
            for line in enumerate_lines(n, d):
                assert_built_by_the_constructor(line, CanonicalLine(line.p, line.v, line.weight))
    assert_frozen(line)


def test_streamed_segments_are_the_checked_constructors_segments():
    for n in range(2, 7):
        for d in range(1, 4):
            for k in range(2, n + 1):
                for seg in enumerate_segments(n, d, k):
                    assert_built_by_the_constructor(seg, Segment(seg.p, seg.v, seg.k, seg.weight))
    assert_frozen(seg)


def drain(stream):
    """The objects a stream yields before it raises, and the error."""
    got = []
    with pytest.raises(ValueError) as err:
        for obj in stream:
            got.append(obj)
    return got, str(err.value)


def test_stream_checks_each_code_part_once(monkeypatch):
    # (n, d, k) = (3, 4, 3): five symbols, a tail block over 3 coordinates, prefixes over 1
    n, d, k = 3, 4, 3
    calls = []
    checked_lead = lines._checked_lead
    monkeypatch.setattr(lines, "_checked_lead", lambda *part: calls.append(part) or checked_lead(*part))
    assert len(list(enumerate_segments(n, d, k))) == count_segments(n, d, k) == 272
    assert len(calls) == 5**3 + 5  # every tail code and every prefix, once each


def test_stream_refuses_a_symbol_step_outside_the_unit_steps(monkeypatch):
    symbols = lines._segment_symbols
    monkeypatch.setattr(lines, "_segment_symbols", lambda n, k: symbols(n, k)[:-1] + [(n, 2)])
    for stream in (enumerate_lines(3, 2), enumerate_segments(3, 2, 2), enumerate_lines(3, 4)):
        assert drain(stream) == ([], "direction coordinates must be in {-1, 0, +1}")


def corrupt_weight(monkeypatch, width, at):
    """`_codes` with the weight of code `at` over `width` coordinates one too high."""
    codes = lines._codes

    def patched(symbols, m):
        for i, (p, v, r) in enumerate(codes(symbols, m)):
            yield p, v, r + (m == width and i == at)
    monkeypatch.setattr(lines, "_codes", patched)


def test_stream_refuses_a_tail_code_of_the_wrong_weight(monkeypatch):
    corrupt_weight(monkeypatch, 3, 7)
    for stream in (enumerate_lines(3, 4), enumerate_segments(3, 4, 3)):
        assert drain(stream) == ([], "weight must equal the nonzero count of v")


def test_stream_refuses_a_prefix_of_the_wrong_weight_before_joining_it(monkeypatch):
    # the '+' prefix is the fourth of 1, 2, 3, '+', '-'; the three numeral
    # prefixes before it each join the tail codes led by '+', and are good
    corrupt_weight(monkeypatch, 1, 3)
    got, err = drain(enumerate_lines(3, 4))
    assert err == "weight must equal the nonzero count of v"
    assert len(got) == 3 * count_lines(3, 3)[1]
    for line in got:
        assert_built_by_the_constructor(line, CanonicalLine(line.p, line.v, line.weight))


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


def batched_codes(n, d, rng, count, rows):
    """The arrays `_draw_line_codes` yields, checked for size and dtype, as one list of rows."""
    arrays = list(lines._draw_line_codes(n, d, rng, count, rows))
    assert [len(a) for a in arrays] == [min(rows, count - i) for i in range(0, count, rows)]
    assert all(a.shape[1:] == (d,) and a.dtype == np.min_scalar_type(n + 1) for a in arrays)
    return [row for a in arrays for row in a.tolist()]


# n+2 is a power of two at n = 2, 6 and 254; values pass uint8 at n = 255
@pytest.mark.parametrize("n", [*range(2, 8), 254, 255])
def test_batched_draws_replay_the_scalar_draws(n):
    for d in range(1, 13) if n < 8 else (5, 12):
        for rows in (1, 3, BATCH_VALUES // d):
            # the last count spans several arrays; at BATCH_VALUES // d rows, the
            # estimator's chunks of BATCH_VALUES values
            for count in (1, 7, 3 * rows + 5):
                key = f"{n} {d} {rows} {count}"
                rng, ref = random.Random(key), random.Random(key)
                got = batched_codes(n, d, rng, count, rows)
                assert got == scalar_codes(n, d, ref, count), key
                assert rng.getstate() == ref.getstate(), key


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


SIGN = 3 << 29  # a word whose top three bits read 3, the sign '+' at n = 3


@pytest.mark.parametrize("count", [1, 7, 1000])
@pytest.mark.parametrize("zero_rows", [49, 50, None])  # None: zeros without end
def test_batched_draws_give_up_like_the_scalar_draws(monkeypatch, count, zero_rows):
    # a zero word is the numeral 1, so the zero_rows rows after the lead have no sign
    monkeypatch.setattr(lines, "SAMPLE_CAP", 50)
    n, d = 3, 4
    for rows, lead in [
        (1000, []),
        # rows 1 and 3, which hold a sign, fill the first array of two, and
        # at count 7 the sign-less run after them crosses from the first
        # round (7 rows) into the next (5 rows)
        (2, [SIGN, 0, 0, 0] + [0] * 4 + [SIGN, 0, 0, 0]),
    ]:
        def stream():
            tail = random.Random(5)
            zeros = itertools.repeat(0) if zero_rows is None else [0] * (zero_rows * d)
            return itertools.chain(lead, zeros, iter(lambda: tail.getrandbits(32), None))
        want = outcome(lambda: scalar_codes(n, d, WordStream(stream()), count))
        got = outcome(lambda: batched_codes(n, d, WordStream(stream()), count, rows))
        assert got == want, rows
        reaches_run = count > lead.count(SIGN)
        assert (want == "no line accepted within 50 draws") == (zero_rows != 49 and reaches_run)


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
    # rows are the enumeration stably grouped by weight; starts bound the groups
    cases = [(n, d, k) for n in range(2, 7) for d in range(1, 5) for k in range(2, n + 1)]
    cases += [(n, 5, n) for n in range(2, 7)]
    for n, d, k in cases:
        idx, starts = segment_table(n, d, k)
        # the count kernel reads whole columns; a row-major table is several times slower
        assert idx.flags.f_contiguous and idx.dtype == np.int64, (n, d, k)
        segs = sorted(enumerate_segments(n, d, k), key=lambda seg: seg.weight)
        want = [[point_index(q, n, d) for q in segment_points(seg, n)] for seg in segs]
        assert idx.tolist() == want, (n, d, k)
        assert starts[0] == 0 and starts[-1] == len(idx), (n, d, k)
        sizes = [math.comb(d, r) * 2 ** (r - 1) * (n - k + 1) ** r * n ** (d - r)
                 for r in range(1, d + 1)]
        assert np.diff(starts).tolist() == sizes, (n, d, k)
        if k == n:
            assert sizes == list(count_lines(n, d)[0].values()), (n, d)


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3), (4, 3)])
def test_table_lines_decode_rows_in_enumeration_order(n, d):
    # the whole table comes back as the stream; a shuffled third of its rows
    # comes back as the stream's lines among them, in the stream's order
    idx, _ = segment_table(n, d, n)
    stream = tuple(enumerate_lines(n, d))
    assert lines._table_lines(idx, n, d) == stream
    pick = np.random.default_rng(10 * n + d).permutation(len(idx))[:len(idx) // 3]
    got = lines._table_lines(idx[pick], n, d)
    chosen = set(got)
    assert len(chosen) == len(pick)
    assert got == tuple(line for line in stream if line in chosen)


def test_segment_table_cache_evicts_oldest_past_byte_budget(monkeypatch):
    def nbytes(table):
        return table[0].nbytes + table[1].nbytes

    def cached():
        return [key[1:] for key in core._tables]

    monkeypatch.setattr(core, "_tables", OrderedDict())
    first = segment_table(4, 3, 4)
    second = segment_table(3, 3, 3)
    monkeypatch.setattr(core, "TABLE_CACHE_BYTES", nbytes(first) + nbytes(second))
    assert segment_table(4, 3, 4) is first  # a hit, and now the most recent
    third = segment_table(5, 2, 3)
    assert cached() == [(4, 3, 4), (5, 2, 3)]  # the least recent went
    again = segment_table(3, 3, 3)
    assert again is not second
    assert np.array_equal(again[0], second[0]) and np.array_equal(again[1], second[1])
    assert again[0].flags.f_contiguous and not again[0].flags.writeable
    assert not again[1].flags.writeable
    assert cached() == [(5, 2, 3), (3, 3, 3)]
    assert segment_table(5, 2, 3) is third
    monkeypatch.setattr(core, "TABLE_CACHE_BYTES", 1)
    big = segment_table(5, 3, 5)
    assert cached() == [(5, 3, 5)]  # over the budget alone, kept alone
    assert segment_table(5, 3, 5) is big


def test_segment_type_checks():
    with pytest.raises(ValueError, match="direction must have a nonzero coordinate"):
        Segment((1, 1), (0, 0), 2, 0)
    with pytest.raises(ValueError):
        Segment((1, 3), (-1, 1), 2, 2)  # wrong orientation
    with pytest.raises(ValueError, match=r"direction coordinates must be in \{-1, 0, \+1\}"):
        Segment((1, 1), (1, 2), 2, 2)  # would walk (1, 1), (2, 3)


def test_format_line():
    assert format_line(CanonicalLine((1, 3), (1, -1), 2)) == "1,3 ; 1,-1"
