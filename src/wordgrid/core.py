"""Core domain types: alphabets, words, grids, grid symmetries, WG1 codec.

All public contracts use 1-based coordinates (points in [1, n]^d); flat cell
indices are 0-based with coordinate 1 most significant and coordinate d
fastest. Every value in this module is immutable after construction and every
operation is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

Point = tuple[int, ...]

MAX_ALPHABET = 26


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
            alphabet = infer_alphabet(text)
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


@lru_cache(maxsize=None)
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


@dataclass(frozen=True)
class Grid:
    """A function from [n]^d to letters: dense cell array or procedural rule.

    Dense storage is a bytes object of letter indices in flat-index order.
    A procedural rule maps a 1-based Point to a letter index and must be pure.
    A symmetric grid (`Grid.symmetric`) promises more: its rule gives every
    permutation of a point's coordinates the same letter, so the letter
    depends only on the point's profile, how many coordinates take each
    value. `to_dense` and `occurrence.estimate_fraction` then call the rule
    once per profile, on the sorted point, instead of once per point.
    """

    n: int
    d: int
    alphabet: Alphabet
    cells: bytes | None = None
    rule: Callable[[Point], int] | None = None
    permutation_invariant: bool = False

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
            if self.permutation_invariant:
                raise ValueError("only a procedural grid is marked symmetric")

    @property
    def dense(self) -> bool:
        return self.cells is not None

    @classmethod
    def from_cells(cls, n: int, d: int, alphabet: Alphabet, cells: bytes) -> "Grid":
        return cls(n=n, d=d, alphabet=alphabet, cells=cells)

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
    def symmetric(cls, n: int, d: int, alphabet: Alphabet, rule: Callable[[Point], int]) -> "Grid":
        """Procedural grid whose rule does not change when coordinates are permuted."""
        return cls(n=n, d=d, alphabet=alphabet, rule=rule, permutation_invariant=True)

    def at(self, p: Point) -> int:
        """Letter index at 1-based point p."""
        if self.cells is not None:
            return self.cells[point_index(p, self.n, self.d)]
        for x in p:
            if not 1 <= x <= self.n:
                raise ValueError(f"coordinate {x} out of [1, {self.n}] in point {p}")
        return self.rule(p)  # type: ignore[misc]

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

        A symmetric grid is filled per profile class (`_cells_by_profile`);
        any other rule is called once per point.
        """
        if self.cells is not None:
            return self
        size = self.n**self.d
        if cap is not None and size > cap:
            raise ValueError(f"grid has {size} cells, above the dense cap {cap}")
        if self.permutation_invariant:
            cells = _cells_by_profile(self.n, self.d, self.rule)  # type: ignore[arg-type]
        else:
            cells = bytes(self.rule(p) for p in all_points(self.n, self.d))  # type: ignore[misc]
        return Grid(n=self.n, d=self.d, alphabet=self.alphabet, cells=cells)


def _cells_by_profile(n: int, d: int, rule: Callable[[Point], int]) -> bytes:
    """Cells of a symmetric rule in flat-index order, one rule call per profile class.

    A class is keyed by its sorted point. Ids grow one coordinate at a time,
    as `lines.segment_table` grows its index: step[c][x - 1] is the class of
    a class-c prefix extended by coordinate x, so the ids of all n^(j+1)
    prefixes are `step[ids].ravel()`. The last coordinate maps straight to
    letters, so at most one int32 id per n cells is held, never a point array.
    """
    ids = np.zeros(1, dtype=np.int32)
    reps: list[Point] = [()]
    for j in range(d):
        grown: dict[Point, int] = {}
        step = np.array([[grown.setdefault(tuple(sorted(rep + (x,))), len(grown))
                          for x in range(1, n + 1)] for rep in reps], dtype=np.int32)
        reps = list(grown)
        if j < d - 1:
            ids = step[ids].ravel()
    letters = np.array([rule(rep) for rep in reps], dtype=np.uint8)
    return letters[step][ids].tobytes()


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


# Under the solver's 64-cell cap the largest table, 2^6, is 46,080 x 64 int32s: 11.8 MB.
@lru_cache(maxsize=4)
def symmetry_cell_tables(n: int, d: int) -> np.ndarray:
    """Read-only int32 array, shape (2^d * d!, n^d): row k is the flat map cell -> g(cell) of
    the k-th g of `all_symmetries(d)`, a reflection map read at a permutation map."""
    perms = np.array([_cell_map(n, d, p, (False,) * d) for p in itertools.permutations(range(d))])
    refl = np.array([_cell_map(n, d, tuple(range(d)), flips)
                     for flips in itertools.product((False, True), repeat=d)], dtype=np.int32)
    tables = refl[:, perms].transpose(1, 0, 2).reshape(-1, n**d)
    tables.flags.writeable = False
    return tables


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
    """Canonical WG1 text: header plus n^{d-1} data lines, newline separated."""
    if not grid.dense:
        raise ValueError("only dense grids serialize to WG1")
    sigma = "".join(grid.alphabet.letters)
    lines = [f"{WG1_MAGIC} d={grid.d} n={grid.n} sigma={sigma}"]
    lines.extend(grid.rows())
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> Grid:
    """Parse a WG1 document; inverse of serialize_grid on dense grids."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    if pos >= len(lines):
        raise GridFormatError(f"line {pos + 1}: missing WG1 header")
    header = lines[pos]
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
    data_lines = lines[pos + 1 :]
    expected_lines = n ** (d - 1)
    if len(data_lines) != expected_lines:
        raise GridFormatError(
            f"line {pos + 1 + len(data_lines) + 1}: expected {n ** d} cells "
            f"({expected_lines} lines of {n}), got {len(data_lines)} lines"
        )
    body = "".join(data_lines)
    if any(len(row) != n for row in data_lines) or not set(body) <= set(sigma):
        for off, row in enumerate(data_lines):  # report the first bad line
            lineno = pos + 2 + off
            if len(row) != n:
                raise GridFormatError(f"line {lineno}: expected {n} cells, got {len(row)}")
            for ch in row:
                if ch not in alphabet:
                    raise GridFormatError(f"line {lineno}: letter {ch!r} not in declared alphabet {sigma!r}")
    cells = body.translate({ord(ch): i for i, ch in enumerate(sigma)}).encode("latin-1")
    return Grid(n=n, d=d, alphabet=alphabet, cells=cells)
