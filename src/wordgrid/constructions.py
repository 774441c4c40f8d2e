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
from math import comb
from string import ascii_uppercase
from typing import Callable

from .core import Alphabet, Grid, Point, Word, word_stats
from .lines import CanonicalLine, count_lines, line_points
from .occurrence import count_word

DENSE_CAP = 65536

COUNTER_POINT_TRIES = 100_000

PROVENANCE_RANK = {
    "cross": 0,
    "quad": 1,
    "stripe": 2,
    "parity": 3,
    "rows": 4,
    "constant": 5,
    "counterpoint": 6,
}


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
    """Exact rational thresholds classifying points of the layered grid."""

    n: int
    d: int
    c: Fraction
    k: Fraction
    upper_mult: Fraction = Fraction(11, 10)
    band_lo: Fraction = Fraction(99, 100)
    band_hi: Fraction = Fraction(101, 100)

    @classmethod
    def for_grid(cls, n: int, d: int) -> "CounterpointParams":
        if n < 3 or d < 1:
            raise ValueError("layered classification needs n >= 3 and d >= 1")
        return cls(n=n, d=d, c=Fraction(39 * d, 10 * (n + 2)), k=Fraction(23 * d, 10 * (n + 2)))

    def __post_init__(self) -> None:
        if not self.c > self.k > 0:
            raise ValueError("thresholds must satisfy c > k > 0")


def is_counter_point(p: Point, n: int, d: int) -> bool:
    params = CounterpointParams.for_grid(n, d)
    return _classify(PointProfile.of(p, n), params)[0] == "counter-point"


def classify_point(p: Point, n: int, d: int) -> str:
    """Which of the three assignment branches the point falls into."""
    params = CounterpointParams.for_grid(n, d)
    return _classify(PointProfile.of(p, n), params)[0]


def _classify(prof: PointProfile, params: CounterpointParams) -> tuple[str, int | None]:
    n, d = params.n, params.d
    tau1 = prof.tau(1)
    if params.c < tau1 < params.c * params.upper_mult:
        lo = params.band_lo * (d - tau1) / (n - 2)
        hi = params.band_hi * (d - tau1) / (n - 2)
        if all(lo <= prof.pi[i - 1] <= hi for i in range(2, n)):
            return "counter-point", None
    if tau1 <= params.c:
        # tau is mirror-symmetric, so scanning past the middle adds nothing;
        # at the middle index both word sides agree, making parity irrelevant
        cands = [i for i in range(2, (n + 1) // 2 + 1) if prof.tau(i) >= params.k]
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

    return Grid.symmetric(n, d, w.alphabet, rule)


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
    r_lo, r_hi = params.c, params.c * params.upper_mult
    rs = [r for r in range(int(r_lo) + 1, int(r_hi) + 1) if r_lo < r < r_hi]
    if not rs:
        raise ValueError(f"no integer boundary count lies in ({r_lo}, {r_hi}) at d={d}")
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
    s_min = None
    for s in range(1, r + 1):
        if s % 2 == 1 and Fraction(s) >= Fraction(49, 100) * r:
            s_min = s
            break
    if s_min is None:
        raise ValueError("point has no odd flip-set size above the threshold")
    sizes = list(range(s_min, r + 1, 2))
    s = rng.choice(sizes)
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

def rows_grid(w: Word) -> ConstructionResult:
    """Write w along every row; rows and both diagonals read it."""
    n = w.n
    cells = bytes(w.symbols[j] for _ in range(n) for j in range(n))
    grid = Grid(n=n, d=2, alphabet=w.alphabet, cells=cells)
    achieved = count_word(w, grid).total
    return ConstructionResult(grid, guaranteed=n + 2, achieved=achieved, provenance="rows")


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
    grid = Grid(n=n, d=2, alphabet=w.alphabet, cells=bytes(cells))
    mirrored = all(w.symbols[n - i] == ia for i in I)
    guaranteed = 2 * len(I) + (2 if mirrored else 1)
    achieved = count_word(w, grid).total
    return ConstructionResult(grid, guaranteed=guaranteed, achieved=achieved,
                              provenance=f"cross({a})")


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
    grid = Grid(n=n, d=2, alphabet=alphabet, cells=bytes(cells))
    achieved = count_word(w, grid).total
    return ConstructionResult(grid, guaranteed=4 * len(tset), achieved=achieved,
                              provenance=f"quad({a},{m})")


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
    grid = Grid(n=n, d=2, alphabet=w.alphabet, cells=bytes(cells))
    achieved = count_word(w, grid).total
    return ConstructionResult(grid, guaranteed=n + t, achieved=achieved, provenance="stripe")


# ---------------------------------------------------------------- parity grid

def _parity_achieved(w: Word, d: int, value_set: frozenset[int]) -> int:
    """Exact line count on the parity grid by stratifying lines.

    Along a canonical line with u rising and m falling coordinates, the
    coordinate-sum statistic at step i is (fixed part) + u*[i in I] +
    m*[n-i+1 in I], so the whole reading depends only on (u, m, fixed parity).
    Strata sizes come in closed form, making the count exact at any d.
    """
    n = w.n
    sym = w.symbols
    first, other = sym[0], next(s for s in sym if s != sym[0])
    in_i = [0] * (n + 2)
    for i in value_set:
        in_i[i] = 1
    z = n - 2 * len(value_set)  # zero for antisymmetric words; kept for clarity
    total = 0
    for r in range(1, d + 1):
        fixed = n ** (d - r)
        fixed_even = (fixed + (z ** (d - r))) // 2
        fixed_odd = fixed - fixed_even
        for u in range(1, r + 1):
            patterns = comb(d, r) * comb(r - 1, u - 1)
            for beta, strata in ((0, fixed_even), (1, fixed_odd)):
                reading = tuple(
                    first if (beta + u * in_i[i] + (r - u) * in_i[n - i + 1]) % 2 == 0
                    else other
                    for i in range(1, n + 1)
                )
                if reading == sym or reading == sym[::-1]:
                    total += patterns * strata
    return total


def parity_grid(w: Word, d: int) -> ConstructionResult:
    """Binary antisymmetric words: color points by the parity of how many
    coordinates hold values from the first letter's index set. Every
    odd-weight line then reads w, one way per side."""
    st = word_stats(w)
    if not (st.binary and st.antisymmetric):
        raise ValueError(f"{w.text!r} is not binary antisymmetric")
    n = w.n
    grid = _symmetric_grid(w, d, _parity_rule(w))
    guaranteed = ((n + 2) ** d - (n - 2) ** d) // 4
    value_set = frozenset(i + 1 for i, s in enumerate(w.symbols) if s == w.symbols[0])
    achieved = _parity_achieved(w, d, value_set)
    return ConstructionResult(grid, guaranteed=guaranteed, achieved=achieved,
                              provenance="parity")


def _parity_rule(w: Word) -> Callable[[Point], int]:
    """The first letter where an even number of coordinates lie in the first
    letter's index set, the other letter elsewhere."""
    first = w.symbols[0]
    other = next(s for s in w.symbols if s != first)
    value_set = frozenset(i + 1 for i, s in enumerate(w.symbols) if s == first)

    def rule(p: Point) -> int:
        hits = sum(1 for x in p if x in value_set)
        return first if hits % 2 == 0 else other

    return rule


def _symmetric_grid(w: Word, d: int, rule: Callable[[Point], int]) -> Grid:
    """The symmetric grid of a profile rule, materialized up to DENSE_CAP cells."""
    grid = Grid.symmetric(w.n, d, w.alphabet, rule)
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


def product_grid(w: Word, n: int) -> Grid:
    """Stack an optimal single-row witness for w in every row of an n x n grid."""
    k = w.n
    if k > n:
        raise ValueError(f"word length {k} exceeds the side {n}")
    from .bounds import f1_exact  # deferred: bounds builds on constructions elsewhere

    row = f1_exact(w, n).witness
    alphabet = w.alphabet
    cells = bytes(alphabet.index(ch) for _ in range(n) for ch in row)
    return Grid(n=n, d=2, alphabet=alphabet, cells=cells)


def _constant_result(w: Word, d: int) -> ConstructionResult:
    sym = w.symbols[0]
    grid = _symmetric_grid(w, d, lambda p: sym)
    total = count_lines(w.n, d)[1]
    return ConstructionResult(grid, guaranteed=total, achieved=total, provenance="constant")


def best_construction(w: Word, d: int = 2) -> ConstructionResult:
    """Best certified grid over all applicable builders.

    Ties in achieved value break by provenance rank, then by provenance
    label, so the dispatch is deterministic.
    """
    if d < 2:
        raise ValueError("needs d >= 2")
    st = word_stats(w)
    results: list[ConstructionResult] = []
    if d == 2:
        for ia in w.letters_used():
            results.append(cross_grid(w, w.alphabet.letters[ia]))
        for ia, im in itertools.permutations(w.letters_used(), 2):
            a, m = w.alphabet.letters[ia], w.alphabet.letters[im]
            if st.t(a, m) > 0:
                results.append(quad_grid(w, a, m))
        if st.binary:
            results.append(stripe_grid(w))
        if st.binary and st.antisymmetric:
            results.append(parity_grid(w, 2))
        results.append(rows_grid(w))
    else:
        if st.kmax == w.n:
            results.append(_constant_result(w, d))
        elif st.binary and st.antisymmetric:
            results.append(parity_grid(w, d))
        if w.n >= 3:
            grid = counterpoint_grid(w, d)
            achieved = 0
            if w.n**d <= DENSE_CAP:
                achieved = count_word(w, grid.to_dense()).total
            results.append(ConstructionResult(grid, guaranteed=0, achieved=achieved,
                                              provenance="counterpoint"))
        if not results:
            raise ValueError(f"no construction covers {w.text!r} at d={d}")
    results.sort(key=lambda r: (-r.achieved,
                                PROVENANCE_RANK[r.provenance.split("(")[0]],
                                r.provenance))
    return results[0]
