"""Closed-form bounds on line counts, exact formulas, and the 1-D optimum.

Upper bounds come from counting arguments on rows, columns, and diagonals;
lower bounds come from the certified constructions. A bracket combines both
and refuses to return if they cross.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .constructions import best_construction
from .core import Grid, Word, word_stats


@dataclass(frozen=True)
class BoundReport:
    """Bounds with provenance. `applied` lists every rule that was evaluated."""

    lower: int | None
    upper: int
    exact: tuple[int, str] | None
    applied: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.lower is not None and self.lower > self.upper:
            raise AssertionError(f"lower {self.lower} exceeds upper {self.upper}")
        if self.exact is not None:
            value = self.exact[0]
            if (self.lower is not None and value < self.lower) or value > self.upper:
                raise AssertionError(
                    f"exact value {self.exact} outside [{self.lower}, {self.upper}]"
                )


def upper_bound_2d(w: Word) -> BoundReport:
    """Minimum of the applicable 2-D upper bounds, with the full rule table.

    The minimum is not always tight: AMM gets upper 6 while its optimum is 5.
    """
    st = word_stats(w)
    n = w.n
    k = st.kmax
    applied: list[tuple[str, int]] = [("total", 2 * n + 2)]
    if not st.palindrome:
        applied.append(("non-palindrome", 2 * n))
    applied.append(("max-letter", max(4 * k, n) + 2))
    applied.append(("symmetry-defect", max(n + 2 * k - st.s, n) + 2))
    counts = sorted((c for c in st.counts if c > 0), reverse=True)
    ladder = min(
        max(4 * ki, n + sum(counts[:i])) + 2
        for i, ki in enumerate(counts)
    )
    applied.append(("letter-ladder", ladder))
    return BoundReport(lower=None, upper=min(v for _, v in applied),
                       exact=None, applied=tuple(applied))


def upper_bound_d(w: Word, d: int) -> int:
    """Ceiling on lines containing w in any d-dimensional grid."""
    if d < 1:
        raise ValueError("need d >= 1")
    n = w.n
    if not word_stats(w).palindrome:
        return ((n + 2) ** d - (n - 2) ** d) // 4
    return ((n + 2) ** d - n**d) // 2


def _two_block(w: Word) -> int | None:
    """k for words of shape A^k M^(n-k) up to reversal and renaming, else None."""
    runs = [(s, len(list(g))) for s, g in itertools.groupby(w.symbols)]
    if len(runs) != 2:
        return None
    return min(runs[0][1], runs[1][1])


def exact_formula(w: Word) -> tuple[int, str] | None:
    """The 2-D optimum when a closed form pins it, with the rule's name.

    Rules are checked in a fixed order; co-applying rules are asserted to
    agree, so the order only picks the reported name.
    """
    st = word_stats(w)
    n = w.n
    hits: list[tuple[int, str]] = []
    k = _two_block(w)
    if k is not None:
        hits.append((max(2 * (n - k) + 1, 4 * k), "two-block"))
    if st.palindrome:
        hits.append((max(n, 2 * st.kmax) + 2, "palindrome"))
    if st.binary and st.antisymmetric:
        hits.append((2 * n, "antisymmetric"))
    if 4 * st.kmax <= n:
        hits.append((n + 2, "rare-letters"))
    if not hits:
        return None
    if len({v for v, _ in hits}) != 1:
        raise AssertionError(f"formulas disagree on {w.text!r}: {hits}")
    return hits[0]


def exact_formula_d(w: Word, d: int) -> tuple[int, str] | None:
    """The d-dimensional optimum, known only for binary antisymmetric words."""
    if d < 1:
        raise ValueError("need d >= 1")
    st = word_stats(w)
    if not (st.binary and st.antisymmetric):
        return None
    n = w.n
    return ((n + 2) ** d - (n - 2) ** d) // 4, "antisymmetric"


class F1Result(NamedTuple):
    value: int
    witness: str


def f1_exact(w: Word, n: int) -> F1Result:
    """Maximum windows reading w over single rows of length n, by automaton DP.

    The states are the proper prefixes of w and of its reversal, at most 2k-1
    of them with the empty prefix shared. Placing letter c in state s reads
    t = s + (c,): it gains a window when t is w or its reversal, and moves to
    the longest suffix of t that is a state, as in Aho-Corasick matching. The
    state keeps every letter a later window can use, so best[j][s], the most
    windows in the last j cells entered in state s, is exact. The witness
    walks forward from the empty state taking the first optimal letter in
    letter order, so it is the lexicographically smallest optimal row.
    """
    k = w.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= {k} <= {n}")
    letters = sorted(w.alphabet.letters[s] for s in w.letters_used())
    syms = [w.alphabet.index(ch) for ch in letters]
    fwd = w.symbols
    bwd = fwd[::-1]
    states = {word[:i] for word in (fwd, bwd) for i in range(k)}
    step: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = {}
    for s in states:
        step[s] = []
        for c in syms:
            t = s + (c,)
            nxt = next(t[i:] for i in range(len(t) + 1) if t[i:] in states)
            step[s].append((c, int(t == fwd or t == bwd), nxt))
    best = [dict.fromkeys(states, 0)]
    for _ in range(n):
        prev = best[-1]
        best.append({s: max(g + prev[t] for _, g, t in step[s]) for s in states})
    row: list[str] = []
    state: tuple[int, ...] = ()
    for j in range(n, 0, -1):
        for c, g, t in step[state]:  # letter order, so the first hit is smallest
            if g + best[j - 1][t] == best[j][state]:
                row.append(w.alphabet.letters[c])
                state = t
                break
    return F1Result(best[n][()], "".join(row))


def f1_subadditivity_check(w: Word, n: int) -> bool:
    """Growing the row by k-1 cells adds at most one window (distinct letters)."""
    st = word_stats(w)
    if st.kmax != 1:
        raise ValueError(f"{w.text!r} repeats a letter")
    k = w.n
    return f1_exact(w, n + k - 1).value <= f1_exact(w, n).value + 1


def product_grid(w: Word, n: int) -> Grid:
    """Stack an optimal single-row witness for w in every row of an n x n grid."""
    row = f1_exact(w, n).witness
    alphabet = w.alphabet
    cells = bytes(alphabet.index(ch) for _ in range(n) for ch in row)
    return Grid(n=n, d=2, alphabet=alphabet, cells=cells)


def sandwich_2d(w: Word, n: int) -> tuple[int, int]:
    """Two-sided bounds on the n x n optimum for a length-k word via row optima."""
    k = w.n
    f1 = f1_exact(w, n).value
    lower = max(0, f1 * (3 * n - 4 * k))
    upper = f1 * 2 * n + 4 * sum(f1_exact(w, i).value for i in range(k, n + 1))
    return lower, upper


def bracket(w: Word, d: int = 2) -> BoundReport:
    """Certified lower, closed-form upper, and exact value when a rule pins it.

    The lower end is `best_construction`'s achieved count. At d >= 3 that is
    the parity or constant closed form or the layered grid's count by line
    class, so no grid is materialized, and the layered count stays exact
    past `constructions.DENSE_CAP` up to the class table cap
    `lines.DEFAULT_LINE_CAP`.
    A crossing (lower > upper, or exact outside) raises instead of clamping:
    it would mean a verified count exceeded a proven ceiling.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        # the only line is the row itself, and writing w there attains it
        return BoundReport(lower=1, upper=1, exact=(1, "single-line"),
                           applied=(("total", 1),))
    built = best_construction(w, d)
    lower = built.achieved
    if d == 2:
        frag = upper_bound_2d(w)
        upper, applied = frag.upper, frag.applied
        exact = exact_formula(w)
    else:
        upper = upper_bound_d(w, d)
        applied = (("total-d" if word_stats(w).palindrome else "non-palindrome-d",
                    upper),)
        exact = exact_formula_d(w, d)
    return BoundReport(lower=lower, upper=upper, exact=exact, applied=applied)
