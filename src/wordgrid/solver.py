"""Exact maximization of f(w, G) over all grids by branch-and-bound.

The search fills cells in a fixed order (most incident lines first) over the
letters of the word only: in any optimal grid, a cell lying on no matched
line can be recolored to the word's first letter without destroying matches,
since matches are full-line exact patterns. Some optimum therefore uses only
letters of w, and the search space is |letters(w)|^(n^d).

Lines are tracked as bits of one Python int per search state. Each probe (a
reading of a word, forward or reversed) owns L bits, one per line, at offset
p*L; a set bit means the assignments so far contradict that line's probe-p
reading. A line is dead when its bit is set in every probe's segment, so one
step is an OR of the branch's mask and a popcount of the dead lines. For one
or two probes that is one expression, the popcount of the state ANDed with
itself shifted by sh: sh = 0 for a palindrome (P = 1), L for one word
(P = 2). A set of P >= 3 probes ANDs every shift L, 2L, ..., (P-1)L.
The bound (lines alive, L less the dead) is exact at leaves and monotone
along any branch, so pruning against the incumbent is safe. Every mask comes
from one numpy bit table indexed [depth, letter, probe, line], filled by one
scatter of the line table's cell depths against the probes.

Symmetry breaking (lex-leader, as in Crawford, Ginsberg, Luks and Roy,
KR 1996): with `SolveConfig.symmetry`, a node is pruned when some symmetry
of the grid maps its assignment, read in branch order, to a smaller one
over the positions both sides have assigned. Only the first SYMMETRY_DEPTH
depths are compared; past that horizon no node is cut by symmetry. The
check is incremental: each map's comparison is split into blocks by the
depth at which they become comparable, a map still tied waits for its next
block, and a map whose image compared greater is left alone for the whole
subtree. The image of an optimal grid is optimal, so the first optimal
leaf in branch order, and the least member of each optimal class, is no
greater than any of its images and is never cut: the optimum, the witness
and the class count do not depend on the horizon, only the tallies and a
budget-cut result do.

The search starts from the best grid the package can certify without it:
the beam seed, or for `solve` the best construction when that grid uses only
the search letters and reaches more lines. The beam steps all its states of
a depth at once as byte arrays of the same table and keeps those with the
fewest dead lines, ties going to the least assignment. When that seed
already meets the proven ceiling (`upper_bound_2d` at d = 2,
`upper_bound_d` otherwise), the optimum is known, and without witness
enumeration the branch-and-bound is skipped. A seed is a claim until a recount backs it: every witness is
recounted, so a seed no grid reaches raises instead of returning a wrong
witness.

One depth-first search from the root visits the tree in branch order, so
the outputs and the node and prune tallies are deterministic.
`SolveConfig.workers` is validated but has no effect. Every node counts
against the node budget, and the search stops at the first node past it.
A node makes one stop test: its count against the next count at which the
budget or the clock applies, -1 once the search has stopped. Bound prunes
are not counted one by one: every expanded node tries every letter, so a
pass's bound prunes follow from its expanded nodes and the nodes it
entered, and only the nodes that are not expanded are counted.
A solve with witness enumeration runs one pass, which prunes strictly
(bound < incumbent, which can never cut a subtree holding an optimal leaf)
and keeps every leaf at the incumbent. Without it, the search prunes ties
with the incumbent too, so every leaf it reaches raises it. When no leaf
did (the seed held the optimum, or the search was skipped), the witness
pass runs the same search again, pruning strictly and stopping at the
first leaf: the first optimal leaf in branch order. The passes share the
budgets and the tallies.
"""

from __future__ import annotations

import operator
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .bounds import upper_bound_2d, upper_bound_d
from .constructions import ConstructionResult, best_construction
from .core import (Alphabet, Grid, Word, infer_alphabet, point_index, serialize_grid,
                   symmetry_cell_tables)
from .lines import enumerate_lines, line_points, segment_table
from .occurrence import _probes, count_word_set

DEFAULT_CELL_CAP = 64
SET_CELL_CAP = 25
ORACLE_STATE_CAP = 2**28
BEAM_WIDTH = 64
SYMMETRY_DEPTH = 24
CLOCK_CHECK_MASK = 0xFFF


@dataclass(frozen=True)
class SolveConfig:
    """Search knobs; defaults give an exact run.

    A node budget is a whole number and exact: a search stopped by it has
    visited `node_budget + 1` nodes. The time budget runs from entry to
    `solve` or `solve_set`, setup included, and is checked every
    CLOCK_CHECK_MASK + 1 nodes. `workers` must be a whole number at least 1
    and has no effect: every solve is one sequential search."""

    node_budget: int | None = None
    time_budget: float | None = None
    symmetry: bool = True
    enumerate_witnesses: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        # `not x > 0`, not `x <= 0`, so a NaN budget, which never runs out, is
        # refused, and `not workers >= 1` refuses a NaN worker count the same way
        if self.node_budget is not None and not self.node_budget > 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time budget must be positive")
        if not self.workers >= 1:
            raise ValueError("worker count must be >= 1")
        # a budget of 1.5 would stop the search at node 3, not at budget + 1
        for name, value in (("node budget", self.node_budget), ("worker count", self.workers)):
            if value is not None:
                try:
                    operator.index(value)
                except TypeError:
                    raise TypeError(f"{name} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class SolveStats:
    """Tallies of one solve.

    `nodes` and the two prune counts, and `elapsed` with them, cover every
    pass: the branch-and-bound search and the witness pass that looks up the
    first optimal leaf. `bound_prunes` counts the children cut by the bound,
    those tried while a stopped search unwinds included; each pass derives
    it as A * (expanded nodes) - (entries - 1), since an expanded node tries
    all A letters. `elapsed` runs from entry to `solve` or `solve_set`, so
    it also covers compilation and both seeds, the construction and the beam."""

    nodes: int
    bound_prunes: int
    symmetry_prunes: int
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a search: exact optimum, or a certified interval on budget.

    `witnesses` holds grids achieving `lower`, deduplicated to the
    lexicographically minimal representative of each symmetry class; with
    witness enumeration on, every optimal class is present and `classes`
    counts them. Stats are deterministic and do not depend on `workers`.
    """

    complete: bool
    lower: int
    upper: int
    witnesses: tuple[Grid, ...]
    classes: int | None
    stats: SolveStats

    @property
    def optimum(self) -> int | None:
        return self.lower if self.complete else None

    def canonical_text(self) -> str:
        """Stable rendering of the mathematically meaningful output."""
        out = []
        if self.complete:
            out.append(f"optimum {self.lower}")
        else:
            out.append(f"interval {self.lower} {self.upper}")
        out.append(f"classes {self.classes if self.classes is not None else 'unknown'}")
        out.append(f"witnesses {len(self.witnesses)}")
        for g in self.witnesses:
            out.append(serialize_grid(g).rstrip("\n"))
        return "\n".join(out) + "\n"


class _Problem:
    """Compiled search instance: masks, branch order, lex-leader schedule.

    The masks come from one bit table, `bits[depth, a, p, li]`, set when
    letter a at the cell branched on at that depth contradicts line li's
    probe-p reading. The beam reads it as `words[depth, a, p]`, the L line
    bits as little-endian bytes, and the search as `masks[depth][a]`, one
    Python int with bit p*L + li. Cells on most lines come first in the
    branch order, ties by cell index."""

    def __init__(self, symbol_rows: Sequence[tuple[int, ...]], alphabet: Alphabet,
                 n: int, d: int, symmetry: bool):
        self.n, self.d = n, d
        self.alphabet = alphabet
        self.A = A = len(alphabet)
        self.N = N = n**d
        line_cells = segment_table(n, d, n)[0]
        self.L = L = len(line_cells)

        probes = np.array(_probes(symbol_rows))
        P = len(probes)
        self.shifts = tuple(p * L for p in range(1, P))

        incident = np.bincount(line_cells.ravel(), minlength=N)
        order = np.argsort(-incident, kind="stable")
        self.order = order.tolist()
        pos_of = np.argsort(order)  # depth of each cell

        bits = np.zeros((N, A, P, L), dtype=bool)
        # line li's t-th cell, at depth pos_of[line_cells[li, t]], is
        # contradicted by letter a in probe p when a != probes[p, t]
        bits[pos_of[line_cells], :, :, np.arange(L)[:, None]] = \
            probes.T[:, None, :] != np.arange(A)[:, None]
        self.words = np.packbits(bits, axis=-1, bitorder="little")
        packed = np.packbits(bits.reshape(N, A, P * L), axis=-1, bitorder="little")
        self.masks = [[int.from_bytes(m.tobytes(), "little") for m in row] for row in packed]

        # The lex-leader schedule. images[k, i] is the depth of the image of
        # depth i's cell under the k-th non-identity symmetry. Position i of
        # that image can be compared with the prefix from depth ready[k, i],
        # one past the prefix maximum of max(i, images[k, i]). Pairs that
        # always tie (images[k, i] == i) and pairs not ready by the horizon
        # are dropped, and maps left with the same pairs are kept once. A
        # block holds one map's pairs that are ready at the same depth, as
        # (getter of the prefix letters, getter of their images, depth of the
        # map's next block or 0, that block). buckets[q] starts out with the
        # first block of every map whose first block is ready at depth q.
        self.buckets: list[list[tuple]] = [[] for _ in range(N + 1)]
        if symmetry:
            H = min(SYMMETRY_DEPTH, N)
            images = pos_of[symmetry_cell_tables(n, d)[1:, self.order[:H]]]
            at = np.arange(H)
            ready = np.maximum.accumulate(np.maximum(images, at), axis=1) + 1
            images[(ready > H) | (images == at)] = -1
            # each row as one opaque value: np.unique(axis=0) is far slower
            rows = np.ascontiguousarray(images)
            rows = rows.view(np.dtype((np.void, rows.itemsize * H))).ravel()
            keep = np.sort(np.unique(rows, return_index=True)[1])
            images, ready = images[keep], ready[keep]
            k, i = np.nonzero(images >= 0)
            j, q = images[k, i], ready[k, i]
            starts = np.flatnonzero(np.diff(k * (H + 1) + q, prepend=-1)).tolist()
            ends = starts[1:] + [len(k)]
            k, i, j, q = k.tolist(), i.tolist(), j.tolist(), q.tolist()
            # built from the last block back, so each block can name the next
            nxt_q, nxt = 0, None
            for lo, hi in zip(reversed(starts), reversed(ends)):
                if hi == len(k) or k[hi] != k[lo]:  # the map's last block
                    nxt_q, nxt = 0, None
                nxt_q, nxt = q[lo], (itemgetter(*i[lo:hi]), itemgetter(*j[lo:hi]), nxt_q, nxt)
                if lo == 0 or k[lo - 1] != k[lo]:  # the map's first block
                    self.buckets[nxt_q].append(nxt)


class _Search:
    """State the passes of one solve share.

    It holds the incumbent, the budgets and the stop flag, the tallies, the
    best leaf (the first in branch order at the incumbent, or None when no
    leaf reached it), the leaves at the incumbent that enumeration collected,
    in branch order, and the highest bound a stop left open."""

    def __init__(self, incumbent: int, node_budget: int | None, deadline: float | None):
        self.incumbent = incumbent
        self.node_budget = node_budget
        self.deadline = deadline
        self.stopped = False
        self.nodes = self.bound_prunes = self.symmetry_prunes = 0
        self.best_leaf: bytes | None = None
        self.collected: list[bytes] = []
        self.open_bound = -1


def _search_letters(words: Sequence[Word]) -> tuple[Alphabet, list[tuple[int, ...]]]:
    """One alphabet of all the words' letters (first-appearance order), each word's symbols."""
    alphabet = infer_alphabet("".join(w.text for w in words))
    return alphabet, [Word.from_string(w.text, alphabet).symbols for w in words]


def _beam_seed(problem: _Problem) -> tuple[int, bytes]:
    """Deterministic beam of BEAM_WIDTH over the branch order; returns (value, assignment).

    Each level keeps the children with the fewest dead lines, ties going to
    the least assignment. A level steps all its states at once on
    `problem.words` bytes: each letter's words are ORed into every state,
    the probe segments ANDed, and the dead lines counted through a byte
    popcount table (numpy 1.24 has no `bitwise_count`). A child's assignment
    orders as (its parent's, its letter), so each kept state carries its
    rank among the kept assignments, the children sort on (dead lines,
    parent's rank * A + letter), and the winner's assignment is read back
    through the kept indices."""
    A, L = problem.A, problem.L
    P = problem.words.shape[2]
    popcount = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)
    states = np.zeros((1,) + problem.words.shape[2:], dtype=np.uint8)  # (state, probe, byte)
    rank = np.zeros(1, dtype=np.intp)
    letters = np.arange(A)
    kept = []  # per depth, the kept children as parent * A + letter
    for row in problem.words:
        children = states[:, None] | row  # (state, letter, probe, byte)
        contradicted = children[:, :, 0]  # in every probe
        for p in range(1, P):
            contradicted = contradicted & children[:, :, p]
        dead = popcount.take(contradicted).sum(axis=2).ravel()
        key = (rank[:, None] * A + letters).ravel()
        keep = np.lexsort((key, dead))[:BEAM_WIDTH]
        states = children.reshape((-1,) + states.shape[1:])[keep]
        rank = np.argsort(np.argsort(key[keep]))
        kept.append(keep)
    # state 0 has the fewest dead lines, then the least assignment
    value, s, i = L - int(dead[keep[0]]), [], 0
    for keep in reversed(kept):
        i, a = divmod(int(keep[i]), A)
        s.append(a)
    return value, bytes(reversed(s))


def _dfs(problem: _Problem, state: _Search, collect: bool = False, first: bool = False) -> None:
    """Depth-first search from the root in branch order, into `state`.

    The caller names the pass: the search (the default) prunes ties with the
    incumbent; enumeration (`collect`) searches them and appends every leaf it
    reaches to `state.collected`; the witness pass (`first`) searches them and
    stops at the first leaf. A leaf that raises the incumbent becomes the best
    leaf and empties the collected list, and one that ties it is the best leaf
    only when there is none yet, so the list holds exactly the leaves at the
    incumbent, and the best leaf is the first leaf reached at it.

    Each node is counted and makes one compare against `check`: the next
    count at which the node budget or the clock (read every
    CLOCK_CHECK_MASK + 1 nodes) applies, or -1 once the pass has stopped, so
    every entry after the stop takes the same cold path, raises the open
    bound and returns. A node carries its dead-line count, L less its bound.
    A child is pruned when that count exceeds the cap L - incumbent (less
    one when ties are pruned too), re-read after each child since a leaf may
    raise the incumbent. A node's last letter is entered by looping (tail
    descent), so only the earlier letters recurse.

    Bound prunes are not counted where they happen. Every expanded node tries
    all A letters, and each try is either pruned or enters a node, so the
    pass's bound prunes are A * (expanded nodes) - (entries - 1), the root
    being the one entry no try made. Only what is not expanded is counted,
    each on its own cold path: leaves, nodes cut by symmetry, the node that
    meets a budget, and entries after the stop (the counter runs on past the
    stop; the count at the stop is the pass's nodes).

    A node of depth q compares only the blocks waiting in buckets[q]: a
    smaller image prunes it, a larger one drops the map, and a tie moves the
    map to the bucket of its next block. buckets[N] also holds a block that
    always ties, so only nodes that compare blocks test for a leaf. Each
    move is pushed on one undo stack, and a frame that moved maps takes its
    moves back when it returns, so a frame that moves none does no undo
    work. The tallies, the incumbent, the best leaf and the open bound are
    closure locals, written back to `state` on exit."""
    L, A, N = problem.L, problem.A, problem.N
    shifts = problem.shifts
    # children[q]: (letter, mask) for each letter at depth q, in branch order
    children = [list(enumerate(row)) for row in problem.masks]
    buckets = [list(waiting) for waiting in problem.buckets]
    buckets[N].append((len, len, 0, None))  # always ties: len(s) == len(s)
    undo: list[list[tuple]] = []  # the bucket each move appended to, in order

    def unwind(mark: int) -> None:
        """Take back every move made since the undo stack was mark - 1 long."""
        while len(undo) >= mark:
            undo.pop().pop()

    # one dead-count expression for one probe (a palindrome, sh = 0) or two
    few, sh = len(shifts) <= 1, shifts[0] if shifts else 0
    slack = 0 if collect or first else 1
    collected = state.collected
    budget = state.node_budget if state.node_budget is not None else sys.maxsize
    deadline = state.deadline
    last = A - 1
    s = [0] * N
    nodes = start = state.nodes
    stop_at = start if state.stopped else None  # the node count when the pass stopped
    open_bound, incumbent, best_leaf = state.open_bound, state.incumbent, state.best_leaf
    leaves = symmetry_prunes = met_budget = 0
    cap = L - incumbent - slack
    # the next node count at which the budget or the clock applies, -1 once stopped
    check = budget + 1 if deadline is None else min(budget + 1, (nodes | CLOCK_CHECK_MASK) + 1)
    if state.stopped:
        check = -1

    def dfs(q: int, bads: int, dead: int) -> None:
        nonlocal nodes, stop_at, open_bound, leaves, symmetry_prunes, met_budget
        nonlocal incumbent, cap, best_leaf, check
        mark = 0  # 1 + the undo stack's length before this frame's first move
        while True:
            nodes += 1
            if nodes >= check:
                if check < 0 or nodes > budget or time.monotonic() > deadline:
                    if check >= 0:
                        stop_at, check, met_budget = nodes, -1, 1
                    open_bound = max(open_bound, L - dead)
                    return
                check = min(budget + 1, nodes + CLOCK_CHECK_MASK + 1)
            if buckets[q]:
                if not mark:
                    mark = len(undo) + 1
                for own, image, nxt_q, nxt in buckets[q]:
                    x, y = image(s), own(s)
                    if x == y:
                        if nxt_q:
                            to = buckets[nxt_q]
                            to.append(nxt)
                            undo.append(to)
                    elif x < y:
                        symmetry_prunes += 1
                        unwind(mark)
                        return
                if q == N:
                    leaves += 1
                    value = L - dead
                    if first:
                        stop_at, check = nodes, -1
                    # every leaf reached is at the incumbent or above it
                    if value > incumbent:
                        incumbent = value
                        cap = L - incumbent - slack
                        best_leaf = None
                        collected.clear()
                    # leaves arrive in branch order, so the first at a value is the least
                    if best_leaf is None:
                        best_leaf = bytes(s)
                    if collect:
                        collected.append(bytes(s))
                    unwind(mark)
                    return
            for a, m in children[q]:
                nb = bads | m
                if few:
                    dead = (nb & (nb >> sh)).bit_count()
                else:
                    dead = nb
                    for t in shifts:
                        dead &= nb >> t
                    dead = dead.bit_count()
                if dead > cap:
                    continue
                s[q] = a
                if a == last:
                    break
                dfs(q + 1, nb, dead)
            else:
                if mark:
                    unwind(mark)
                return
            q, bads = q + 1, nb

    dfs(0, 0, 0)
    entries = nodes - start
    if stop_at is not None:
        nodes = stop_at
    expanded = nodes - start - leaves - symmetry_prunes - met_budget
    state.bound_prunes += A * expanded - (entries - 1)
    state.nodes, state.stopped, state.open_bound = nodes, stop_at is not None, open_bound
    state.symmetry_prunes += symmetry_prunes
    state.incumbent, state.best_leaf = incumbent, best_leaf


def _canonical_cells(blob: bytes, problem: _Problem) -> bytes:
    """Lexicographically minimal cell array over the symmetry group.

    Maps are narrowed one cell at a time to those whose image holds the least
    letter there, so only the least image is built whole."""
    cells = np.empty(problem.N, dtype=np.uint8)
    cells[problem.order] = np.frombuffer(blob, dtype=np.uint8)
    tables = symmetry_cell_tables(problem.n, problem.d)
    rows = np.arange(len(tables))
    for j in range(problem.N):
        col = cells[tables[rows, j]]
        rows = rows[col == col.min()]
        if len(rows) == 1:
            break
    return cells[tables[rows[0]]].tobytes()


def _leaf_of(problem: _Problem, grid: Grid) -> bytes | None:
    """A grid's letters in branch order, or None when it uses a letter the
    search does not branch on."""
    cells = grid.to_dense().cells
    to_search = [problem.alphabet.index(ch) if ch in problem.alphabet else None
                 for ch in grid.alphabet.letters]
    if any(to_search[c] is None for c in set(cells)):
        return None
    return bytes(to_search[cells[c]] for c in problem.order)


def _compile(words: Sequence[Word], n: int, d: int, cfg: SolveConfig,
             cell_cap: int) -> _Problem:
    if any(w.n != n for w in words):
        raise ValueError("word length must equal the grid side n")
    if n**d > cell_cap:
        raise ValueError(f"{n}^{d} cells exceed the search cap {cell_cap}")
    alphabet, rows = _search_letters(words)
    return _Problem(rows, alphabet, n, d, symmetry=cfg.symmetry)


def _solve_rows(problem: _Problem, words: Sequence[Word], cfg: SolveConfig, start: float,
                seed: ConstructionResult | None = None,
                ceiling: int | None = None) -> SolveResult:
    """Search from the better of the beam seed and `seed`; skip the search
    when that start meets `ceiling` and no witnesses are enumerated, then run
    the witness pass when no leaf reached the start's value. Every witness is
    recounted on `words`. The clock runs from `start`."""
    incumbent, seed_leaf = _beam_seed(problem)
    if seed is not None and seed.achieved > incumbent:
        leaf = _leaf_of(problem, seed.grid)
        if leaf is not None:
            incumbent, seed_leaf = seed.achieved, leaf
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None
    state = _Search(incumbent, cfg.node_budget, deadline)
    if cfg.enumerate_witnesses or ceiling is None or incumbent < ceiling:
        _dfs(problem, state, collect=cfg.enumerate_witnesses)
    complete = not state.stopped
    if complete and not cfg.enumerate_witnesses and state.best_leaf is None:
        # No leaf reached the seed's value; find the first leaf that does.
        # A budget may cut this pass, and then the seed leaf is the witness.
        _dfs(problem, state, first=True)
    stats = SolveStats(nodes=state.nodes, bound_prunes=state.bound_prunes,
                       symmetry_prunes=state.symmetry_prunes,
                       elapsed=time.monotonic() - start)
    lower = state.incumbent
    upper = lower if complete else max(lower, state.open_bound)
    if ceiling is not None:
        if ceiling < lower:
            raise AssertionError(f"lower {lower} exceeds the ceiling {ceiling}")
        upper = min(upper, ceiling)
    enumerated = cfg.enumerate_witnesses and complete
    blobs = state.collected if enumerated else [state.best_leaf or seed_leaf]
    witnesses = tuple(Grid(n=problem.n, d=problem.d, alphabet=problem.alphabet, cells=cells)
                      for cells in sorted({_canonical_cells(b, problem) for b in blobs}))
    if not witnesses:
        raise AssertionError(f"no leaf reaches the claimed optimum {lower}")
    for g in witnesses:
        got = count_word_set(words, g).total
        if got != lower:
            raise AssertionError(f"witness re-verification got {got}, expected {lower}")
    return SolveResult(complete=complete, lower=lower, upper=upper, witnesses=witnesses,
                       classes=len(witnesses) if enumerated else None, stats=stats)


def solve(w: Word, n: int, d: int, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Maximize f(w, G) over all (n, d)-grids; exact unless a budget is hit.

    The search starts from `best_construction(w, d)` (d >= 2) when that grid
    uses only the letters of w and beats the beam seed. When the start
    already meets the proven ceiling (`upper_bound_2d` at d = 2,
    `upper_bound_d` otherwise), the optimum is reported without the
    branch-and-bound, unless witnesses are enumerated; the witness pass
    still looks up the first optimal leaf, and the start grid is the witness
    only when a budget cuts that pass. An incomplete result reports no upper end above the ceiling."""
    start = time.monotonic()
    problem = _compile([w], n, d, cfg, DEFAULT_CELL_CAP)
    seed = best_construction(w, d) if d >= 2 else None
    ceiling = upper_bound_2d(w).upper if d == 2 else upper_bound_d(w, d)
    return _solve_rows(problem, [w], cfg, start, seed, ceiling)


def solve_set(words: Sequence[Word], n: int, d: int,
              cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Maximize f(W, G). The single-word letter reduction does not carry over
    to sets, so the search alphabet is the union of all word letters and the
    cell cap is tighter."""
    start = time.monotonic()
    word_list = list(words)
    if not word_list:
        raise ValueError("word set must be nonempty")
    problem = _compile(word_list, n, d, cfg, SET_CELL_CAP)
    return _solve_rows(problem, word_list, cfg, start)


def solve_oracle(w: Word, n: int, d: int) -> int:
    """f(w) by plain enumeration of every grid over letters(w).

    No pruning and no symmetry: an independent check on solve. Grids are the
    axes of a |letters|^(n^d) tensor; each line orientation adds 1 on the
    slice of grids reading it, so the tensor maximum is the optimum.
    """
    if w.n != n:
        raise ValueError("word length must equal the grid side n")
    alphabet, (row,) = _search_letters([w])
    A = len(alphabet)
    N = n**d
    if A**N > ORACLE_STATE_CAP:
        raise ValueError(f"{A}^{N} grids exceed the oracle cap {ORACLE_STATE_CAP}")
    scores = np.zeros((A,) * N, dtype=np.uint8)
    readings = [row] if row == row[::-1] else [row, row[::-1]]
    for line in enumerate_lines(n, d):
        cells = [point_index(q, n, d) for q in line_points(line, n)]
        for reading in readings:
            slicer: list = [slice(None)] * N
            for t, c in enumerate(cells):
                slicer[c] = reading[t]
            scores[tuple(slicer)] += 1
    return int(scores.max())
