"""Core domain types: alphabets, words, grids, grid symmetries, WG1 codec.

All public contracts use 1-based coordinates (points in [1, n]^d); flat cell
indices are 0-based with coordinate 1 most significant and coordinate d
fastest. Every value in this module is immutable after construction and every
operation is pure.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Iterator

import numpy as np

Point = tuple[int, ...]

# A symmetric rule's batch form: (m, n) profile count rows -> m letter indices.
BatchRule = Callable[[np.ndarray], np.ndarray]

MAX_ALPHABET = 26

# Values per block of profile count rows that `_cells_by_profile` hands a batch
# rule: n = 100, d = 2 is 31 blocks of 163 rows, not one 5050 x 100 int64 matrix.
PROFILE_BLOCK = 2**14

# Bytes of cached tables kept before the least recently used go. The census
# segment tables, (3,8) to (8,4,k=4), take 11.3 MB together; one n=3 segment
# table at `lines.DEFAULT_LINE_CAP` takes about 120 MB and is kept alone.
TABLE_CACHE_BYTES = 64 * 2**20
_tables: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
_tables_lock = threading.Lock()


class GridFormatError(ValueError):
    """Raised when a WG1 document cannot be parsed; message carries the line number."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character letters; index order is stable."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.letters) <= MAX_ALPHABET:
            raise ValueError(f"alphabet must have 1..{MAX_ALPHABET} letters, got {len(self.letters)}")
        for ch in self.letters:
            if len(ch) != 1 or not ch.isprintable() or ch.isspace():
                raise ValueError(f"letter {ch!r} is not a printable non-space character")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, ch: str) -> bool:
        return ch in self.letters

    def index(self, ch: str) -> int:
        try:
            return self.letters.index(ch)
        except ValueError:
            raise ValueError(f"letter {ch!r} not in alphabet {''.join(self.letters)!r}") from None


def infer_alphabet(text: str) -> Alphabet:
    """Alphabet of the distinct letters of `text` in order of first appearance."""
    seen: list[str] = []
    for ch in text:
        if ch not in seen:
            seen.append(ch)
    return Alphabet(tuple(seen))


@dataclass(frozen=True)
class Word:
    """A fixed word: letter indices into `alphabet`. Length n >= 2 throughout."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError("words must have length >= 2")
        for s in self.symbols:
            if not 0 <= s < len(self.alphabet):
                raise ValueError(f"symbol index {s} out of range for alphabet of size {len(self.alphabet)}")

    @classmethod
    def from_string(cls, text: str, alphabet: Alphabet | None = None) -> "Word":
        """Build a word from a raw letter string, inferring the alphabet unless given."""
        if alphabet is None:
            # an empty text has no letters to infer, so Word's length check reports it
            alphabet = infer_alphabet(text or "A")
        return cls(alphabet, tuple(alphabet.index(ch) for ch in text))

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def text(self) -> str:
        return "".join(self.alphabet.letters[s] for s in self.symbols)

    def reversed_word(self) -> "Word":
        return Word(self.alphabet, self.symbols[::-1])

    def letters_used(self) -> tuple[int, ...]:
        """Distinct symbol indices, in order of first appearance in the word."""
        seen: list[int] = []
        for s in self.symbols:
            if s not in seen:
                seen.append(s)
        return tuple(seen)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class WordStats:
    """Per-word derived quantities feeding the bounds and constructions.

    counts[i] is the occurrence count of alphabet letter i; s counts indices
    with w_i = w_{n-i+1}; T(a, m) is the set of 1-based indices i with
    w_i = a and w_{n-i+1} = m.
    """

    word: Word
    counts: tuple[int, ...]
    kmax: int
    s: int
    palindrome: bool
    binary: bool
    antisymmetric: bool

    def t_set(self, a: str, m: str) -> frozenset[int]:
        w = self.word
        ia, im = w.alphabet.index(a), w.alphabet.index(m)
        n = w.n
        return frozenset(
            i for i in range(1, n + 1)
            if w.symbols[i - 1] == ia and w.symbols[n - i] == im
        )

    def t(self, a: str, m: str) -> int:
        return len(self.t_set(a, m))


# An entry is a WordStats: the word, a tuple of at most 26 letter counts and five small fields.
@lru_cache(maxsize=1024)
def word_stats(w: Word) -> WordStats:
    counts = [0] * len(w.alphabet)
    for sym in w.symbols:
        counts[sym] += 1
    n = w.n
    s = sum(1 for i in range(n) if w.symbols[i] == w.symbols[n - 1 - i])
    used = sum(1 for c in counts if c > 0)
    return WordStats(
        word=w,
        counts=tuple(counts),
        kmax=max(counts),
        s=s,
        palindrome=(s == n),
        binary=(used == 2),
        antisymmetric=(s == 0),
    )


def _cached_table(build: Callable) -> Callable:
    """Cache `build`'s numpy table (an array or a tuple of arrays) by its positional
    arguments, read-only and shared. All cached tables share one budget: past
    TABLE_CACHE_BYTES the least recently used go; the table just returned stays."""
    @wraps(build)
    def cached(*args):
        key = (build.__name__, *args)
        with _tables_lock:
            if key in _tables:
                _tables.move_to_end(key)
                return _tables[key][0]
        table = build(*args)
        arrays = table if isinstance(table, tuple) else (table,)
        for a in arrays:
            a.flags.writeable = False
        with _tables_lock:
            _tables[key] = table, sum(a.nbytes for a in arrays)
            held = sum(size for _, size in _tables.values())
            while held > TABLE_CACHE_BYTES and len(_tables) > 1:
                held -= _tables.popitem(last=False)[1][1]
        return table
    return cached


def point_index(p: Point, n: int, d: int) -> int:
    """Flat index of a 1-based point; coordinate 1 most significant."""
    if len(p) != d:
        raise ValueError(f"point has {len(p)} coordinates, expected {d}")
    idx = 0
    for x in p:
        if not 1 <= x <= n:
            raise ValueError(f"coordinate {x} out of [1, {n}] in point {p}")
        idx = idx * n + (x - 1)
    return idx


def index_point(idx: int, n: int, d: int) -> Point:
    """Inverse of point_index."""
    if not 0 <= idx < n**d:
        raise ValueError(f"index {idx} out of [0, {n}^{d})")
    coords = [0] * d
    for i in range(d - 1, -1, -1):
        idx, r = divmod(idx, n)
        coords[i] = r + 1
    return tuple(coords)


def all_points(n: int, d: int) -> Iterator[Point]:
    """All points of [n]^d in flat-index order."""
    return itertools.product(range(1, n + 1), repeat=d)


def _letter(x: int, alphabet: Alphabet) -> int:
    """A rule's value x, checked to be an integer that indexes a letter of the alphabet."""
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"cell letter index must be an integer, got {x!r}") from None
    if not 0 <= x < len(alphabet.letters):
        raise ValueError("cell letter index out of alphabet range")
    return x


def _batch_letters(batch: BatchRule, counts: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """uint8 letters of profile count rows by a batch rule, checked as `_letter` checks one."""
    letters = np.asarray(batch(counts))
    if letters.shape != (len(counts),):
        raise ValueError(f"batch rule gave shape {letters.shape} for {len(counts)} profiles")
    if letters.dtype.kind not in "biu":  # bool too, as `_letter` takes True
        raise ValueError(f"cell letter index must be an integer, got dtype {letters.dtype}")
    if not 0 <= letters.min() <= letters.max() < len(alphabet.letters):
        raise ValueError("cell letter index out of alphabet range")
    return letters.astype(np.uint8)


@dataclass(frozen=True)
class Grid:
    """A function from [n]^d to letters: dense cell array or procedural rule.

    Dense storage is a bytes object of letter indices in flat-index order.
    A procedural rule maps a 1-based Point to a letter index and must be pure.
    A symmetric grid (`Grid.symmetric`) promises more: its rule gives every
    permutation of a point's coordinates the same letter, so the letter
    depends only on the point's profile, how many coordinates take each
    value. A symmetric grid is a rule grid with a `batch_rule`, the rule's
    batch form: it maps an (m, n) integer array of profile count rows
    (row[x - 1] coordinates equal x) to m letter indices. `to_dense` at
    d >= 2 and `occurrence.estimate_fraction` read every symmetric grid
    through it, one call per block of profiles; `to_dense` at d = 1, where
    each point is its own profile, calls the rule once per cell. Given no
    batch rule, `Grid.symmetric` derives one from the rule (`_rule_batch`).
    `rule` stays the reference: `at` reads it on every grid.
    Which cells share a profile depends only on (n, d), so `to_dense` reads it
    from a map in the shared table cache and per call only finds the letters and gathers.
    """

    n: int
    d: int
    alphabet: Alphabet
    cells: bytes | None = None
    rule: Callable[[Point], int] | None = None
    batch_rule: BatchRule | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("grid needs n >= 1 and d >= 1")
        if (self.cells is None) == (self.rule is None):
            raise ValueError("grid must have exactly one of cells or rule")
        if self.cells is not None:
            if len(self.cells) != self.n**self.d:
                raise ValueError(f"expected {self.n ** self.d} cells, got {len(self.cells)}")
            if self.cells.translate(None, bytes(range(len(self.alphabet)))):
                raise ValueError("cell letter index out of alphabet range")
            if self.batch_rule is not None:
                raise ValueError("only a procedural grid is marked symmetric")

    @property
    def dense(self) -> bool:
        return self.cells is not None

    @property
    def permutation_invariant(self) -> bool:
        """True on a symmetric grid, which is a rule grid with a batch rule."""
        return self.batch_rule is not None

    @classmethod
    def from_rows(cls, rows: list[str], alphabet: Alphabet | None = None) -> "Grid":
        """Dense d=2 grid from row strings (row i = coordinate 1 = i)."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("rows must form an n x n square")
        if alphabet is None:
            alphabet = infer_alphabet("".join(rows))
        cells = bytes(alphabet.index(ch) for row in rows for ch in row)
        return cls(n=n, d=2, alphabet=alphabet, cells=cells)

    @classmethod
    def procedural(cls, n: int, d: int, alphabet: Alphabet, rule: Callable[[Point], int]) -> "Grid":
        return cls(n=n, d=d, alphabet=alphabet, rule=rule)

    @classmethod
    def symmetric(cls, n: int, d: int, alphabet: Alphabet, rule: Callable[[Point], int],
                  batch_rule: BatchRule | None = None) -> "Grid":
        """Procedural grid whose rule does not change when coordinates are permuted,
        with the rule's batch form on profile count rows, derived from the rule
        by `_rule_batch` when none is given."""
        if batch_rule is None:
            batch_rule = _rule_batch(rule, alphabet)
        return cls(n=n, d=d, alphabet=alphabet, rule=rule, batch_rule=batch_rule)

    def at(self, p: Point) -> int:
        """Letter index at 1-based point p."""
        idx = point_index(p, self.n, self.d)  # checks the point on both paths
        if self.cells is not None:
            return self.cells[idx]
        return _letter(self.rule(p), self.alphabet)  # type: ignore[misc]

    def letter_at(self, p: Point) -> str:
        return self.alphabet.letters[self.at(p)]

    def rows(self) -> list[str]:
        """Data lines in WG1 order: n^{d-1} strings of n letters each."""
        if self.cells is None:
            raise ValueError("procedural grids have no materialized rows")
        text = self.cells.decode("latin-1").translate(dict(enumerate(self.alphabet.letters)))
        n = self.n
        return [text[i : i + n] for i in range(0, len(text), n)]

    def to_dense(self, cap: int | None = None) -> "Grid":
        """Materialize a procedural grid (identity on dense grids).

        A symmetric grid at d >= 2 is filled per profile class
        (`_cells_by_profile`): its batch rule is called once per block of
        classes, and the class of every cell comes from `_profile_classes(n, d)`,
        kept per (n, d) in the shared table cache. At d = 1 every point is its
        own class, so there, as on any other rule grid, the rule is called once
        per point. Each letter is checked to be an integer index into the
        alphabet before it becomes a cell. A cap below n^d, or NaN, refuses
        the grid. The dense grid keeps no rule and so no batch rule.
        """
        if self.cells is not None:
            return self
        size = self.n**self.d
        if cap is not None and not size <= cap:
            raise ValueError(f"grid has {size} cells, above the dense cap {cap}")
        if self.batch_rule is not None and self.d > 1:
            cells = _cells_by_profile(self.n, self.d, self.batch_rule, self.alphabet)
        else:
            cells = bytes(_letter(self.rule(p), self.alphabet)  # type: ignore[misc]
                          for p in all_points(self.n, self.d))
        return Grid(n=self.n, d=self.d, alphabet=self.alphabet, cells=cells)


@_cached_table
def _profile_classes(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profile classes of [n]^d as read-only int32 arrays (reps, step, ids).

    `reps[c]` is the sorted 1-based point of class c, `step[c][x - 1]` the class
    of a class-c prefix of d-1 coordinates extended by x, and `ids` the classes
    of the n^(d-1) prefixes in flat-index order, so `step[ids].ravel()` is the
    class of every cell. Ids grow one coordinate at a time, as
    `lines.segment_table` grows its index.

    The loop over coordinates starts from the largest (n, j < d) table already
    in the shared table cache: its reps, and its ids advanced by its step, are
    the loop's state after j coordinates, so building (n, d) after (n, d - 1)
    costs one coordinate. With no smaller table cached it starts from j = 0.
    The cache is only read, never asked to build a smaller table, so no call
    nests inside another.

    A class of k coordinates is a multiset, and its id is its rank in the
    combinatorial number system: the sorted 0-based a_0 <= .. <= a_(k-1) ranks
    as sum_i C(a_i + i, i + 1), a bijection onto [0, C(n+k-1, k)), so no
    deduplication is needed. `pascal[i, a]` = C(a + i, i + 1) is row i - 1
    summed cumulatively (Pascal's rule), so a coordinate ranks every grown row
    with one gather of `pascal[i, a_i]` for all i at once, read column by
    column so the sum runs over whole columns. Every rank is below
    the class count, which is checked to fit int32 first.
    """
    if math.comb(n + d - 1, d) > np.iinfo(np.int32).max:
        raise ValueError(f"[{n}]^{d} has more profile classes than int32 ids hold")
    with _tables_lock:
        start = max((key[2] for key in _tables
                     if key[:2] == ("_profile_classes", n) and key[2] < d), default=0)
        cached = _tables["_profile_classes", n, start][0] if start else None
    if cached:
        reps, step, ids = cached
        reps, ids = reps - 1, step[ids].ravel()
    else:
        reps, ids = np.zeros((1, 0), dtype=np.int32), np.zeros(1, dtype=np.int32)
    pascal = np.empty((d, n), dtype=np.int32)
    pascal[0] = np.arange(n)
    for i in range(1, d):
        pascal[i] = np.cumsum(pascal[i - 1])
    for j in range(start, d):
        # x inserted into a sorted row r lands as max(r[i-1], min(r[i], x)) at every i
        below = np.full((len(reps), 1, j + 1), -1, dtype=np.int32)
        above = np.full((len(reps), 1, j + 1), n, dtype=np.int32)
        below[:, 0, 1:] = above[:, 0, :j] = reps
        x = np.arange(n, dtype=np.int32)[:, None]
        grown = np.maximum(below, np.minimum(above, x)).reshape(-1, j + 1)
        # one flat gather: column i of the grown rows reads row i of pascal
        cols = np.ascontiguousarray(grown.T) + n * np.arange(j + 1)[:, None]
        ranks = pascal.take(cols).sum(axis=0)
        step = ranks.astype(np.int32).reshape(len(reps), n)
        reps = np.empty((math.comb(n + j, j + 1), j + 1), dtype=np.int32)
        reps[ranks] = grown
        if j < d - 1:
            ids = step[ids].ravel()
    reps += 1
    return reps, step, ids


def _cells_by_profile(n: int, d: int, batch_rule: BatchRule, alphabet: Alphabet) -> bytes:
    """Cells of a symmetric grid in flat-index order, from one letter per profile class.

    The classes are `_profile_classes(n, d)`, read from the shared table cache
    or built into it. The batch rule is called on the classes' count rows,
    built from the sorted points a block of at most PROFILE_BLOCK values at a
    time, and its letters are checked against the alphabet before they are
    cast to uint8; the last coordinate maps straight to letters,
    `letters[step][ids]`, so no `(n^d, d)` array is ever built.
    """
    reps, step, ids = _profile_classes(n, d)
    letters = np.empty(len(reps), dtype=np.uint8)
    rows = max(1, PROFILE_BLOCK // max(n, d))
    for start in range(0, len(reps), rows):
        block = reps[start:start + rows]
        # row r's value x lands at r * n + x - 1, so one bincount counts every row
        flat = (block + (n * np.arange(len(block)) - 1)[:, None]).ravel()
        counts = np.bincount(flat, minlength=len(block) * n).reshape(len(block), n)
        letters[start:start + len(block)] = _batch_letters(batch_rule, counts, alphabet)
    return letters[step][ids].tobytes()


def _rule_batch(rule: Callable[[Point], int], alphabet: Alphabet) -> BatchRule:
    """The batch form of a symmetric point rule: each call rebuilds the sorted
    points of its count rows with one `np.repeat` and calls the rule once per
    distinct point, each letter checked by `_letter`."""
    def batch(counts: np.ndarray) -> np.ndarray:
        m, n = counts.shape
        values = np.repeat(np.tile(np.arange(1, n + 1), m), counts.ravel()).reshape(m, -1)
        points = list(map(tuple, values.tolist()))
        letters = {p: _letter(rule(p), alphabet) for p in dict.fromkeys(points)}
        return np.fromiter(map(letters.__getitem__, points), dtype=np.uint8, count=m)
    return batch


@dataclass(frozen=True)
class GridSymmetry:
    """Hyperoctahedral symmetry: axis permutation followed by per-axis reflection.

    Acts on points as q[i] = flip_i(p[perm[i]]) with flip(x) = n+1-x.
    The group of all such symmetries has order 2^d * d!.
    """

    perm: tuple[int, ...]
    flips: tuple[bool, ...]

    def __post_init__(self) -> None:
        d = len(self.perm)
        if sorted(self.perm) != list(range(d)) or len(self.flips) != d:
            raise ValueError("perm must be a permutation of 0..d-1 with matching flips")

    @property
    def d(self) -> int:
        return len(self.perm)

    def apply_point(self, p: Point, n: int) -> Point:
        return tuple(
            (n + 1 - p[self.perm[i]]) if self.flips[i] else p[self.perm[i]]
            for i in range(len(self.perm))
        )

    def compose(self, other: "GridSymmetry") -> "GridSymmetry":
        """Standard composition: (self.compose(other))(p) = self(other(p))."""
        perm = tuple(other.perm[self.perm[i]] for i in range(self.d))
        flips = tuple(self.flips[i] ^ other.flips[self.perm[i]] for i in range(self.d))
        return GridSymmetry(perm, flips)

    def inverse(self) -> "GridSymmetry":
        d = self.d
        inv_perm = [0] * d
        inv_flips = [False] * d
        for i in range(d):
            inv_perm[self.perm[i]] = i
            inv_flips[self.perm[i]] = self.flips[i]
        return GridSymmetry(tuple(inv_perm), tuple(inv_flips))

    @classmethod
    def identity(cls, d: int) -> "GridSymmetry":
        return cls(tuple(range(d)), (False,) * d)


def all_symmetries(d: int) -> list[GridSymmetry]:
    """The full group: all 2^d * d! axis permutations with reflections."""
    return [
        GridSymmetry(perm, flips)
        for perm in itertools.permutations(range(d))
        for flips in itertools.product((False, True), repeat=d)
    ]


def _cell_map(n: int, d: int, perm: tuple[int, ...], flips: tuple[bool, ...]) -> np.ndarray:
    """Flat map cell -> g(cell) of g = (perm, flips): the (n,)*d cell cube's
    axes permuted by `perm`, then the flipped coordinates reflected."""
    coords = np.indices((n,) * d)[list(perm)]
    coords[list(flips)] = n - 1 - coords[list(flips)]
    return np.ravel_multi_index(tuple(coords), (n,) * d).ravel()


@_cached_table
def symmetry_cell_tables(n: int, d: int) -> np.ndarray:
    """Read-only int32 array, shape (2^d * d!, n^d): row k is the flat map cell -> g(cell) of
    the k-th g of `all_symmetries(d)`, a reflection map read at a permutation map."""
    perms = np.array([_cell_map(n, d, p, (False,) * d) for p in itertools.permutations(range(d))])
    refl = np.array([_cell_map(n, d, tuple(range(d)), flips)
                     for flips in itertools.product((False, True), repeat=d)], dtype=np.int32)
    return refl[:, perms].transpose(1, 0, 2).reshape(-1, n**d)


def apply_symmetry(grid: Grid, g: GridSymmetry) -> Grid:
    """Grid H with H(p) = G(g(p)). Dense grids only."""
    if not grid.dense:
        raise ValueError("apply_symmetry requires a dense grid")
    if g.d != grid.d:
        raise ValueError(f"symmetry acts on {g.d} axes, grid has {grid.d}")
    image = _cell_map(grid.n, grid.d, g.perm, g.flips)
    cells = np.frombuffer(grid.cells, dtype=np.uint8)[image].tobytes()  # type: ignore[arg-type]
    return Grid(n=grid.n, d=grid.d, alphabet=grid.alphabet, cells=cells)


WG1_MAGIC = "WG1"


def serialize_grid(grid: Grid) -> str:
    """Canonical WG1 text: header plus n^{d-1} data lines, newline separated.

    The body is built in one vectorized pass: the cells, as rows of n, go to
    their letters' code points in an (n^{d-1}, n+1) array whose last column
    is the newline, and that array is decoded once as UTF-32. The text equals
    the header and `grid.rows()` joined by newlines, with a final newline.
    """
    if grid.cells is None:
        raise ValueError("only dense grids serialize to WG1")
    sigma = "".join(grid.alphabet.letters)
    n = grid.n
    codes = np.array([ord(ch) for ch in sigma], dtype="<u4")
    body = np.empty((len(grid.cells) // n, n + 1), dtype="<u4")
    body[:, :n] = codes[np.frombuffer(grid.cells, dtype=np.uint8).reshape(-1, n)]
    body[:, n] = ord("\n")
    return f"{WG1_MAGIC} d={grid.d} n={n} sigma={sigma}\n" + body.tobytes().decode("utf-32-le")


def _power_text(n: int, e: int) -> str:
    """n^e in decimal, or as `n^e` when it has more than 4,300 digits (CPython's
    default limit for int-to-str conversion), so it is never computed."""
    if n > 1 and e * math.log10(n) >= 4300:
        return f"{n}^{e}"
    return str(n**e)


def parse_grid(text: str) -> Grid:
    """Parse a WG1 document; inverse of serialize_grid on dense grids.

    Only the comment and header lines are walked one by one. The data lines
    are counted with one `str.count`, so a header whose n^{d-1} runs past the
    document is refused without computing it. Row widths, newline positions
    and letters are then checked in one vectorized pass over the body's code
    points, with a lookup table from code point to letter index. On any
    mismatch a line walk finds the first bad line and raises its error; it
    never returns a grid.
    """
    pos = start = 0  # line number and offset of the line being read, 0-based
    while text.startswith("#", start):
        nl = text.find("\n", start)
        start = len(text) if nl < 0 else nl + 1
        pos += 1
    if start >= len(text):
        raise GridFormatError(f"line {pos + 1}: missing WG1 header")
    nl = text.find("\n", start)
    header = text[start:] if nl < 0 else text[start:nl]
    body = "" if nl < 0 else text[nl + 1 :]
    parts = header.split()
    if len(parts) != 4 or parts[0] != WG1_MAGIC:
        raise GridFormatError(f"line {pos + 1}: bad header {header!r}")
    fields = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        d = int(fields["d"])
        n = int(fields["n"])
        sigma = fields["sigma"]
    except (KeyError, ValueError):
        raise GridFormatError(f"line {pos + 1}: header must carry d=, n=, sigma=") from None
    if d < 1 or n < 1:
        raise GridFormatError(f"line {pos + 1}: need d >= 1 and n >= 1")
    try:
        alphabet = Alphabet(tuple(sigma))
    except ValueError as exc:
        raise GridFormatError(f"line {pos + 1}: {exc}") from None
    if body and not body.endswith("\n"):
        body += "\n"
    found = body.count("\n")
    # n^(d-1) > found once d-1 reaches found's bit length, so larger powers are never built
    if (n > 1 and d - 1 >= found.bit_length()) or n ** (d - 1) != found:
        raise GridFormatError(
            f"line {pos + 2 + found}: expected {_power_text(n, d)} cells "
            f"({_power_text(n, d - 1)} lines of {n}), got {found} lines"
        )
    # The body holds `found` newlines and sigma none, so if it has found * (n+1) code
    # points and n letters of sigma open each row, every row ends in its newline.
    if len(body) == found * (n + 1):
        points = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        codes = [ord(ch) for ch in sigma]
        lut = np.full(max(codes) + 2, 255, dtype=np.uint8)  # the last slot takes every larger point
        lut[codes] = range(len(codes))
        cells = lut[np.minimum(points.reshape(found, n + 1)[:, :n], len(lut) - 1)]
        if (cells < len(codes)).all():
            return Grid(n=n, d=d, alphabet=alphabet, cells=cells.tobytes())
    for off, row in enumerate(body.split("\n")):  # report the first bad line
        lineno = pos + 2 + off
        if len(row) != n:
            raise GridFormatError(f"line {lineno}: expected {n} cells, got {len(row)}")
        for ch in row:
            if ch not in alphabet:
                raise GridFormatError(f"line {lineno}: letter {ch!r} not in declared alphabet {sigma!r}")
    raise AssertionError("the vectorized pass and the line walk disagree")
