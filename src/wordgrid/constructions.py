"""Grid constructions, each carrying its certified lower bound.

Every builder returns the grid together with two numbers: the count its
defining argument guarantees, and the count actually measured on the built
grid. Construction never returns an unverified certificate: achieved >=
guaranteed is asserted at build time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor
from string import ascii_uppercase
from typing import Callable

import numpy as np

from .core import Alphabet, BatchRule, Grid, Point, Word, word_stats
from .lines import CanonicalLine, count_lines, line_points
from .occurrence import count_word

DENSE_CAP = 65536

COUNTER_POINT_TRIES = 100_000

@dataclass(frozen=True)
class ConstructionResult:
    """A built grid with its certificate: achieved is the measured count."""

    grid: Grid
    guaranteed: int
    achieved: int
    provenance: str

    def __post_init__(self) -> None:
        if self.achieved < self.guaranteed:
            raise AssertionError(
                f"{self.provenance} built a grid achieving {self.achieved}, "
                f"below its certificate {self.guaranteed}"
            )


@dataclass(frozen=True)
class PointProfile:
    """Coordinate-value counts of a point: pi[i-1] = |{j : p_j = i}|."""

    pi: tuple[int, ...]

    @classmethod
    def of(cls, p: Point, n: int) -> "PointProfile":
        pi = [0] * n
        for x in p:
            pi[x - 1] += 1
        return cls(tuple(pi))

    @property
    def n(self) -> int:
        return len(self.pi)

    @property
    def d(self) -> int:
        return sum(self.pi)

    def tau(self, i: int) -> int:
        return self.pi[i - 1] + self.pi[self.n - i]

    @property
    def sigma(self) -> int:
        return sum(self.pi[: self.n // 2])


@dataclass(frozen=True)
class CounterpointParams:
    """The layered grid's thresholds at (n, d): c = 3.9d/(n+2) and k = 2.3d/(n+2)."""

    n: int
    d: int

    @classmethod
    def for_grid(cls, n: int, d: int) -> "CounterpointParams":
        return cls(n, d)

    def __post_init__(self) -> None:
        if self.n < 3 or self.d < 1:
            raise ValueError("layered classification needs n >= 3 and d >= 1")

    @property
    def c(self) -> Fraction:
        return Fraction(39 * self.d, 10 * (self.n + 2))

    @property
    def k(self) -> Fraction:
        return Fraction(23 * self.d, 10 * (self.n + 2))

    @cached_property
    def bounds(self) -> tuple[int, int, int]:
        """floor(c), ceil(1.1c) and ceil(k): for integer counts, tau1 > c is tau1 > floor(c),
        tau1 < 1.1c is tau1 < ceil(1.1c) and tau_i >= k is tau_i >= ceil(k)."""
        return floor(self.c), ceil(self.c * Fraction(11, 10)), ceil(self.k)


def is_counter_point(p: Point, n: int, d: int) -> bool:
    return classify_point(p, n, d) == "counter-point"


def classify_point(p: Point, n: int, d: int) -> str:
    """Which of the three assignment branches the point falls into."""
    params = CounterpointParams.for_grid(n, d)
    return _classify(PointProfile.of(p, n), params)[0]


def _classify(prof: PointProfile, params: CounterpointParams) -> tuple[str, int | None]:
    n, d = params.n, params.d
    tau1_max, cap, tau_min = params.bounds
    pi = prof.pi
    tau1 = pi[0] + pi[-1]  # prof.tau(1); pi[-i] is pi[prof.n - i]
    if tau1_max < tau1 < cap:
        # 0.99 (d - tau1) / (n - 2) <= pi_i <= 1.01 (d - tau1) / (n - 2)
        lo, hi, scale = 99 * (d - tau1), 101 * (d - tau1), 100 * (n - 2)
        if all(lo <= x * scale <= hi for x in pi[1 : n - 1]):
            return "counter-point", None
    if tau1 <= tau1_max:
        # tau is mirror-symmetric, so scanning past the middle adds nothing;
        # at the middle index both word sides agree, making parity irrelevant
        cands = [i for i in range(2, (n + 1) // 2 + 1) if pi[i - 1] + pi[-i] >= tau_min]
        if len(cands) == 1:
            return "band-index", cands[0]
    return "arbitrary", None


def counterpoint_grid(w: Word, d: int) -> Grid:
    """Procedural grid reading w along almost every line as d grows.

    Points are classified by exact rational thresholds on their coordinate
    profiles; the parity of sigma decides which end of the word a point
    serves. Points matching no rule get the word's first or last letter by
    the same parity, which can only add lines.
    """
    return Grid.symmetric(w.n, d, w.alphabet, *_counterpoint_rules(w, d))


def _counterpoint_rules(w: Word, d: int) -> tuple[Callable[[Point], int], BatchRule]:
    """The letter of a point by its branch and the parity of its sigma, as a
    point rule and as its batch form on profile count rows."""
    n = w.n
    if n < 3:
        raise ValueError("needs word length >= 3; length-2 words are covered by "
                         "the parity and constant constructions")
    params = CounterpointParams.for_grid(n, d)
    sym = w.symbols

    def rule(p: Point) -> int:
        prof = PointProfile.of(p, n)
        branch, i = _classify(prof, params)
        odd = prof.sigma % 2 == 1
        if branch == "band-index":
            return sym[i - 1] if odd else sym[n - i]
        return sym[0] if odd else sym[n - 1]

    # A counter-point needs tau1 > c and a band index tau1 <= c, so only the band
    # index moves a letter off the ends; counts are at most 2d, exact in int64.
    tau1_max, _, tau_min = params.bounds
    half = (n + 1) // 2
    letters = np.array(sym)

    def batch(counts: np.ndarray) -> np.ndarray:
        tau = counts[:, :half] + counts[:, ::-1][:, :half]  # tau[:, i - 1] = tau(i)
        big = tau[:, 1:] >= tau_min  # the candidate indices 2..half
        band = (tau[:, 0] <= tau1_max) & (np.count_nonzero(big, axis=1) == 1)
        i = np.where(band, big.argmax(axis=1) + 2, 1)  # the ends read as index 1
        odd = counts[:, : n // 2].sum(axis=1) % 2 == 1
        return letters[np.where(odd, i - 1, n - i)]

    return rule, batch


def sigma_parity_check(line: CanonicalLine, n: int) -> bool:
    """Odd-weight lines keep sigma parity on the first half and flip it on the last."""
    if line.weight % 2 == 0:
        raise ValueError("sigma parity splits sides only on odd-weight lines")
    pts = line_points(line, n)
    base = PointProfile.of(pts[0], n).sigma % 2
    for i in range(1, n + 1):
        par = PointProfile.of(pts[i - 1], n).sigma % 2
        if i <= n // 2 and par != base:
            return False
        if i > (n + 1) // 2 and par == base:
            return False
    return True


def sample_counter_point(n: int, d: int, rng) -> Point:
    """One uniform-ish counter-point, built boundary-first then band-checked."""
    params = CounterpointParams.for_grid(n, d)
    tau1_max, cap, _ = params.bounds
    rs = range(tau1_max + 1, cap)  # the integers in (c, 1.1c)
    # r admits a counter-point when m = n - 2 interior counts within 1% of (d - r)/m
    # sum to d - r; the draws still take r from all of rs, so no seeded draw moves
    m = n - 2
    if not any(m * -(-99 * (d - r) // (100 * m)) <= d - r <= m * (101 * (d - r) // (100 * m))
               for r in rs):
        raise ValueError(f"no integer boundary count in ({params.c}, "
                         f"{params.c * Fraction(11, 10)}) at d={d} admits interior counts "
                         f"in the 1% band")
    for _ in range(COUNTER_POINT_TRIES):
        r = rng.choice(rs)
        p = [rng.randrange(2, n) for _ in range(d)]
        for j in rng.sample(range(d), r):
            p[j] = rng.choice((1, n))
        q = tuple(p)
        if is_counter_point(q, n, d):
            return q
    raise RuntimeError(f"no counter-point found in {COUNTER_POINT_TRIES} tries at (n={n}, d={d})")


def sample_odd_flip_set(p: Point, n: int, rng) -> frozenset[int]:
    """Random odd-size set of boundary coordinates covering at least 0.49 of them."""
    boundary = [j for j, x in enumerate(p) if x in (1, n)]
    r = len(boundary)
    s_min = -(-49 * r // 100) | 1  # the least odd s >= 0.49 r: ceil, then up to odd
    if s_min > r:
        raise ValueError("point has no odd flip-set size above the threshold")
    s = rng.choice(range(s_min, r + 1, 2))
    return frozenset(rng.sample(boundary, s))


def flip_line_points(p: Point, flips: frozenset[int], n: int) -> list[Point]:
    """The n points obtained by sweeping the flipped boundary coordinates."""
    for j in flips:
        if p[j] not in (1, n):
            raise ValueError(f"coordinate {j} of {p} is not on the boundary")
    v = [0] * len(p)
    for j in flips:
        v[j] = 1 if p[j] == 1 else -1
    return [tuple(p[j] + i * v[j] for j in range(len(p))) for i in range(n)]


# ---------------------------------------------------------------- d=2 builders

def _square_result(w: Word, cells, guaranteed: int, provenance: str,
                   alphabet: Alphabet | None = None) -> ConstructionResult:
    """The n x n grid of `cells` over w's alphabet (or `alphabet`), recounted."""
    grid = Grid(n=w.n, d=2, alphabet=alphabet or w.alphabet, cells=bytes(cells))
    return ConstructionResult(grid, guaranteed=guaranteed, achieved=count_word(w, grid).total,
                              provenance=provenance)


def rows_grid(w: Word) -> ConstructionResult:
    """Write w along every row; rows and both diagonals read it."""
    return _square_result(w, w.symbols * w.n, w.n + 2, "rows")


def cross_grid(w: Word, a: str) -> ConstructionResult:
    """Rows indexed by the positions of letter a carry w; other rows are constant.

    Each selected row and column reads w, plus the main diagonal: 2k+1 lines
    for k occurrences of a. When the mirror position of every occurrence also
    holds a, the antidiagonal reads w too and the certificate rises to 2k+2.
    """
    n = w.n
    ia = w.alphabet.index(a)
    I = [i for i in range(1, n + 1) if w.symbols[i - 1] == ia]
    if not I:
        raise ValueError(f"letter {a!r} does not occur in {w.text!r}")
    cells = bytearray()
    for i in range(1, n + 1):
        if i in I:
            cells.extend(w.symbols)
        else:
            cells.extend([w.symbols[i - 1]] * n)
    mirrored = all(w.symbols[n - i] == ia for i in I)
    return _square_result(w, cells, 2 * len(I) + (2 if mirrored else 1), f"cross({a})")


def _filler_letter(w: Word, a: str, m: str) -> tuple[Alphabet, int]:
    """Deterministic filler: the word's first letter unless it is a or m,
    else one fresh letter (preferring X) appended to the alphabet."""
    first = w.alphabet.letters[w.symbols[0]]
    if first not in (a, m):
        return w.alphabet, w.symbols[0]
    for ch in "X" + ascii_uppercase:
        if ch not in w.alphabet:
            return Alphabet(w.alphabet.letters + (ch,)), len(w.alphabet)
    raise ValueError("no fresh filler letter available")


def quad_grid(w: Word, a: str, m: str) -> ConstructionResult:
    """Four bands of rows and columns read w: those indexed by T = {i : w_i = a,
    w_{n-i+1} = m} and by its mirror image S, giving 4|T| lines."""
    st = word_stats(w)
    tset = st.t_set(a, m)
    if not tset:
        raise ValueError(f"no index holds {a!r} mirrored by {m!r} in {w.text!r}")
    sset = st.t_set(m, a)
    n = w.n
    sym = w.symbols
    alphabet, filler = _filler_letter(w, a, m)
    cells = bytearray()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            vals = set()
            if i in tset:
                vals.add(sym[j - 1])
            if j in tset:
                vals.add(sym[i - 1])
            if i in sset:
                vals.add(sym[n - j])
            if j in sset:
                vals.add(sym[n - i])
            if len(vals) > 1:
                raise AssertionError(f"cell ({i},{j}) is doubly defined: {vals}")
            cells.append(vals.pop() if vals else filler)
    return _square_result(w, cells, 4 * len(tset), f"quad({a},{m})", alphabet)


def stripe_grid(w: Word) -> ConstructionResult:
    """Binary words: rows holding the first letter carry w forward, the rest
    backward; every row reads w and the columns indexed by T add t more."""
    st = word_stats(w)
    if not st.binary:
        raise ValueError(f"{w.text!r} is not binary")
    n = w.n
    a = w.alphabet.letters[w.symbols[0]]
    m = next(ch for ch in w.alphabet.letters
             if ch != a and w.alphabet.index(ch) in w.symbols)
    t = st.t(a, m)
    cells = bytearray()
    for i in range(1, n + 1):
        if w.symbols[i - 1] == w.symbols[0]:
            cells.extend(w.symbols)
        else:
            cells.extend(w.symbols[::-1])
    return _square_result(w, cells, n + t, "stripe")


# ---------------------------------------------------------------- parity grid

def _parity_achieved(n: int, d: int, value_set: frozenset[int]) -> int:
    """Exact line count on the parity grid of a binary word of length n whose
    first letter stands at the positions I = `value_set`, by stratifying lines.

    Along a canonical line with u rising and m falling coordinates, the
    coordinate-sum statistic at step i is (fixed part) + u*[i in I] +
    m*[n-i+1 in I], so the whole reading depends only on (u, m, fixed parity).
    Strata sizes come in closed form, making the count exact at any d. Only
    the parities of the fixed part, u and m enter the reading, so a reading is
    an n-bit mask, bit i-1 set where the other letter stands: the XOR of the
    all-ones mask (odd fixed part), the mask of I (odd u) and the mask of I
    mirrored (odd m). The word is the all-ones mask XOR the mask of I, so
    each of the at most eight readings is compared with the word and its
    reversal as masks. A weight r's strata are summed over the two parities
    of u at once: the sum of C(r-1, u-1) over the u of one parity is
    2^(r-2) for r >= 2, and 1 (u odd) or 0 (u even) at r = 1. The index set
    I is the parity rule's, from `_parity_letters`.
    """
    ones = (1 << n) - 1
    rising = sum(1 << (i - 1) for i in value_set)
    falling = sum(1 << (n - i) for i in value_set)
    word, backward = ones ^ rising, ones ^ falling
    reads_w = {}  # (fixed parity, u mod 2, m mod 2) -> whether the reading is w either way
    for key in itertools.product((0, 1), repeat=3):
        beta, u, m = key
        reads_w[key] = (ones * beta ^ rising * u ^ falling * m) in (word, backward)
    z = n - 2 * len(value_set)  # zero for antisymmetric words; kept for clarity
    total = 0
    fixed, z_power, binom = 1, 1, 1  # n^(d-r), z^(d-r) and C(d, r), from r = d down
    for r in range(d, 0, -1):
        fixed_even = (fixed + z_power) // 2
        strata = (fixed_even, fixed - fixed_even)
        for u in (1, 0):  # odd u, then even u
            patterns = 1 << (r - 2) if r >= 2 else u
            for beta in (0, 1):
                if reads_w[beta, u, (r - u) % 2]:
                    total += binom * patterns * strata[beta]
        fixed, z_power, binom = fixed * n, z_power * z, binom * r // (d - r + 1)
    return total


def parity_grid(w: Word, d: int) -> ConstructionResult:
    """Binary antisymmetric words: color points by the parity of how many
    coordinates hold values from the first letter's index set. Every
    odd-weight line then reads w, one way per side."""
    st = word_stats(w)
    if not (st.binary and st.antisymmetric):
        raise ValueError(f"{w.text!r} is not binary antisymmetric")
    n = w.n
    letters = _parity_letters(w)
    grid = _symmetric_grid(w, d, _parity_rule(letters), _parity_batch(letters))
    guaranteed = ((n + 2) ** d - (n - 2) ** d) // 4
    achieved = _parity_achieved(n, d, letters[2])
    return ConstructionResult(grid, guaranteed=guaranteed, achieved=achieved,
                              provenance="parity")


def _parity_letters(w: Word) -> tuple[int, int, frozenset[int]]:
    """The parity rule's two letters, first and other, and the first letter's index set."""
    first = w.symbols[0]
    other = next(s for s in w.symbols if s != first)
    return first, other, frozenset(i + 1 for i, s in enumerate(w.symbols) if s == first)


def _parity_rule(letters: tuple[int, int, frozenset[int]]) -> Callable[[Point], int]:
    """The first letter where an even number of coordinates lie in the first
    letter's index set, the other letter elsewhere; `letters` from `_parity_letters`."""
    first, other, value_set = letters

    def rule(p: Point) -> int:
        hits = sum(1 for x in p if x in value_set)
        return first if hits % 2 == 0 else other

    return rule


def _parity_batch(letters: tuple[int, int, frozenset[int]]) -> BatchRule:
    """`_parity_rule` on profile count rows: the hits are the counts of the index set."""
    first, other, value_set = letters
    columns = [i - 1 for i in sorted(value_set)]
    return lambda counts: np.where(counts[:, columns].sum(axis=1) % 2 == 0, first, other)


def _symmetric_grid(w: Word, d: int, rule: Callable[[Point], int], batch: BatchRule) -> Grid:
    """The symmetric grid of a profile rule and its batch form, materialized up
    to DENSE_CAP cells."""
    grid = Grid.symmetric(w.n, d, w.alphabet, rule, batch)
    return grid.to_dense() if w.n**d <= DENSE_CAP else grid


# ---------------------------------------------------------------- other builders

def few_letter_word(k: int) -> Word:
    """Length-4k word whose letters each appear at most 1 + n/4 times, yet
    whose quad certificate 4(k+1) beats the n+2 baseline."""
    if k < 1:
        raise ValueError("need k >= 1")
    middles = [ch for ch in ascii_uppercase if ch not in ("A", "M")][: 2 * k - 2]
    if len(middles) < 2 * k - 2:
        raise ValueError(f"alphabet exhausted at k={k}")
    return Word.from_string("A" * (k + 1) + "".join(middles) + "M" * (k + 1))


def _constant_result(w: Word, d: int) -> ConstructionResult:
    sym = w.symbols[0]
    grid = _symmetric_grid(w, d, lambda p: sym, lambda counts: np.full(len(counts), sym))
    total = count_lines(w.n, d)[1]
    return ConstructionResult(grid, guaranteed=total, achieved=total, provenance="constant")


def _candidates(w: Word, d: int) -> list[ConstructionResult]:
    """Each construction that applies to w at d, built once, in the tie-break
    order that `best_construction` gives."""
    st = word_stats(w)
    if d == 2:
        letters = sorted(w.alphabet.letters[ia] for ia in w.letters_used())
        results = [cross_grid(w, a) for a in letters]
        results += [quad_grid(w, a, m) for a, m in itertools.permutations(letters, 2)
                    if st.t(a, m) > 0]
        if st.binary:
            results.append(stripe_grid(w))
        if st.binary and st.antisymmetric:
            results.append(parity_grid(w, 2))
        return results + [rows_grid(w)]
    results = []
    if st.kmax == w.n:
        results.append(_constant_result(w, d))
    elif st.binary and st.antisymmetric:
        results.append(parity_grid(w, d))
    if w.n >= 3:
        grid = _symmetric_grid(w, d, *_counterpoint_rules(w, d))
        achieved = count_word(w, grid).total if grid.dense else 0
        results.append(ConstructionResult(grid, guaranteed=0, achieved=achieved,
                                          provenance="counterpoint"))
    return results


def best_construction(w: Word, d: int = 2) -> ConstructionResult:
    """Best certified grid over all applicable builders.

    Ties in achieved value go to the first of `_candidates(w, d)`: at d = 2
    cross, quad, stripe, parity, rows; above it parity or constant, then
    counterpoint; letters in code-point order, quad pairs in lexicographic
    order. Every word is covered: length 2 by constant or parity, longer
    words by counterpoint.
    """
    if d < 2:
        raise ValueError("needs d >= 2")
    return max(_candidates(w, d), key=lambda r: r.achieved)
