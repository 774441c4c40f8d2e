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
step is an OR of the branch's mask, an AND of the state with itself shifted by
L, 2L, ..., (P-1)L, and a popcount of the low L bits that remain. The bound
(lines alive) is exact at leaves and monotone along any branch, so pruning
against the incumbent is safe.

The search starts from the best grid the package can certify without it:
the beam seed, or for `solve` the best construction when that grid uses only
the search letters and reaches more lines. When that seed already meets the
proven ceiling (`upper_bound_2d` at d = 2, `upper_bound_d` otherwise), the
optimum is known, and without witness enumeration the branch-and-bound is
skipped; only the witness hunt runs. A seed is a claim until a leaf backs it:
a complete result whose optimum no leaf reaches raises instead of returning
no witness.

The tree is split into prefix tasks, and the tasks run one after another in
branch order against one search state, so the outputs and the node and prune
tallies are deterministic. `SolveConfig.workers` is validated but has no
effect. Witness enumeration prunes strictly (bound < incumbent), which can
never cut a subtree containing an optimal leaf.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import upper_bound_2d, upper_bound_d
from .constructions import ConstructionResult, best_construction
from .core import Alphabet, Grid, Word, point_index, serialize_grid, symmetry_cell_tables
from .lines import enumerate_lines, line_points, segment_table
from .occurrence import count_word, count_word_set

DEFAULT_CELL_CAP = 64
SET_CELL_CAP = 25
ORACLE_STATE_CAP = 2**28
BEAM_WIDTH = 64
SYMMETRY_DEPTH = 12
MIN_TASKS = 8
BUDGET_CHECK_MASK = 0xFFF
COLLECT_TRIM = 200_000


@dataclass(frozen=True)
class SolveConfig:
    """Search knobs; defaults give an exact run.

    `workers` must be at least 1 and has no effect: every solve is one
    sequential search."""

    node_budget: int | None = None
    time_budget: float | None = None
    symmetry: bool = True
    enumerate_witnesses: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")


@dataclass(frozen=True)
class SolveStats:
    """Tallies of one solve.

    `nodes` and the two prune counts count the branch-and-bound search, not
    the witness hunt, and read 0 when the seed met the proven ceiling and
    the search was skipped. `elapsed` covers the beam seed and the search."""

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
    """Compiled search instance: masks, branch order, symmetry maps."""

    def __init__(self, symbol_rows: Sequence[tuple[int, ...]], letters: tuple[str, ...],
                 n: int, d: int, symmetry: bool):
        self.n, self.d = n, d
        self.letters = letters
        A = len(letters)
        self.A = A
        N = n**d
        self.N = N
        line_cells = segment_table(n, d, n)[0].tolist()
        self.L = len(line_cells)

        probes: list[tuple[int, ...]] = []
        for row in symbol_rows:
            for pr in (row, row[::-1]):
                if pr not in probes:
                    probes.append(pr)
        self.shifts = tuple(p * self.L for p in range(1, len(probes)))

        incident = np.bincount(np.ravel(line_cells), minlength=N).tolist()
        self.order = sorted(range(N), key=lambda c: (-incident[c], c))
        pos_of = [0] * N
        for i, c in enumerate(self.order):
            pos_of[c] = i

        # masks[depth][a]: bit p*L + li is set when letter a at the cell
        # branched on at that depth contradicts line li's probe-p reading
        masks = [[0] * A for _ in range(N)]
        for li, cells in enumerate(line_cells):
            for t, c in enumerate(cells):
                at_depth = masks[pos_of[c]]
                for p, pr in enumerate(probes):
                    bit = 1 << (p * self.L + li)
                    for a in range(A):
                        if a != pr[t]:
                            at_depth[a] |= bit
        self.masks = masks

        self.gmaps: tuple[tuple[int, ...], ...] = ()
        if symmetry:
            tables = symmetry_cell_tables(n, d)
            seen = set()
            gmaps = []
            for tg in tables[1:]:
                gm = tuple(pos_of[tg[self.order[i]]] for i in range(N))
                if gm not in seen:
                    seen.add(gm)
                    gmaps.append(gm)
            self.gmaps = tuple(gmaps)


class _Search:
    """State one search carries across its task list.

    It holds the incumbent, the budgets and the stop flag, the tallies, the
    best leaf (the first in branch order at the highest value reached), the
    leaves collected for enumeration and the highest bound a stop left open.
    With `strict`, ties with the incumbent are searched; with `first`, the
    search stops at the first leaf it reaches."""

    def __init__(self, incumbent: int, strict: bool, collect: bool = False,
                 node_budget: int | None = None, deadline: float | None = None,
                 first: bool = False):
        self.incumbent = incumbent
        self.strict, self.collect, self.first = strict, collect, first
        self.node_budget = node_budget
        self.deadline = deadline
        self.stopped = False
        self.nodes = self.bound_prunes = self.symmetry_prunes = 0
        self.best_value = -1
        self.best_leaf: bytes | None = None
        self.collected: list[tuple[int, bytes]] = []
        self.open_bound = -1

    def charge(self, nodes: int) -> bool:
        """Account a node batch; returns True when the search must stop."""
        self.nodes += nodes
        if self.node_budget is not None and self.nodes > self.node_budget:
            self.stopped = True
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.stopped = True
        return self.stopped


def _search_letters(words: Sequence[Word]) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """Distinct letters over all words (first-appearance order) and remapped rows."""
    letters: list[str] = []
    for w in words:
        for ch in w.text:
            if ch not in letters:
                letters.append(ch)
    rows = [tuple(letters.index(ch) for ch in w.text) for w in words]
    return tuple(letters), rows


def _step(problem: _Problem, bads: int, m: int) -> tuple[int, int]:
    """One assignment: OR its packed mask into the state, count live lines.

    ANDing the state with itself shifted by each probe offset leaves, in the
    low L bits, the lines contradicted in every probe, and nothing above them.
    A palindrome has a single probe and no shift."""
    c = bads | m
    dead = c
    for sh in problem.shifts:
        dead &= c >> sh
    return c, problem.L - dead.bit_count()


def _lex_leader(gmaps: Sequence[tuple[int, ...]], s: Sequence[int], q: int) -> bool:
    """False when some symmetry maps the assigned prefix s[:q] below itself."""
    for gm in gmaps:
        for i in range(q):
            j = gm[i]
            if j >= q:
                break
            if s[j] < s[i]:
                return False
            if s[j] > s[i]:
                break
    return True


def _beam_seed(problem: _Problem, width: int = BEAM_WIDTH) -> tuple[int, bytes]:
    """Deterministic beam over the branch order; returns (value, assignment)."""
    A = problem.A
    root = (problem.L, 0, ())
    states: list[tuple[int, int, tuple[int, ...]]] = [root]
    for row in problem.masks:
        nxt: list[tuple[int, int, tuple[int, ...]]] = []
        for _, bads, s in states:
            for a in range(A):
                nb, live = _step(problem, bads, row[a])
                nxt.append((live, nb, s + (a,)))
        nxt.sort(key=lambda e: (-e[0], e[2]))
        states = nxt[:width]
    best = max(states, key=lambda e: (e[0], tuple(-x for x in e[2])))
    return best[0], bytes(best[2])


def _run_task(problem: _Problem, prefix: tuple[int, ...], state: _Search) -> None:
    """Depth-first search below one prefix of the branch order, into `state`.

    The task counts its own nodes and charges them to the state every
    BUDGET_CHECK_MASK + 1 nodes and once at its end; budgets stop at those
    points only."""
    L, A, N = problem.L, problem.A, problem.N
    masks, shifts = problem.masks, problem.shifts
    gmaps = problem.gmaps
    strict = state.strict
    s: list[int] = list(prefix)
    counter = [0]

    def leaf(value: int) -> None:
        if state.first:
            state.stopped = True
        if value > state.incumbent:
            state.incumbent = value
        blob = bytes(s)
        if state.collect and value >= state.incumbent:
            state.collected.append((value, blob))
            if len(state.collected) > COLLECT_TRIM:
                inc = state.incumbent
                state.collected[:] = [e for e in state.collected if e[0] >= inc]
        # leaves arrive in branch order, so the first at a value is the least
        if value > state.best_value:
            state.best_value = value
            state.best_leaf = blob

    def dfs(q: int, bads: int, bound: int) -> None:
        if state.stopped:
            state.open_bound = max(state.open_bound, bound)
            return
        counter[0] += 1
        if counter[0] & BUDGET_CHECK_MASK == 0:
            if state.charge(BUDGET_CHECK_MASK + 1):
                state.open_bound = max(state.open_bound, bound)
                return
        if 2 <= q <= SYMMETRY_DEPTH and not _lex_leader(gmaps, s, q):
            state.symmetry_prunes += 1
            return
        if q == N:
            leaf(bound)
            return
        inc = state.incumbent
        mq = masks[q]
        for a in range(A):
            nb = bads | mq[a]  # _step, inlined
            dead = nb
            for sh in shifts:
                dead &= nb >> sh
            nbound = L - dead.bit_count()
            if nbound < inc or (not strict and nbound == inc):
                state.bound_prunes += 1
                continue
            s.append(a)
            dfs(q + 1, nb, nbound)
            s.pop()
            inc = state.incumbent

    bads, bound = 0, L
    for depth, a in enumerate(prefix):
        bads, bound = _step(problem, bads, masks[depth][a])
    dfs(len(prefix), bads, bound)
    state.charge(counter[0] & BUDGET_CHECK_MASK)


def _hunt_witness(problem: _Problem, target: int) -> bytes | None:
    """First leaf in branch order achieving the target; sequential, deterministic.

    Strict pruning against a fixed incumbent equal to the target cuts exactly
    the subtrees with fewer than `target` live lines."""
    state = _Search(incumbent=target, strict=True, first=True)
    _run_task(problem, (), state)
    return state.best_leaf


def _task_prefixes(problem: _Problem) -> list[tuple[int, ...]]:
    """Prefixes splitting the tree into tasks, in branch order."""
    A, N = problem.A, problem.N
    depth = 0
    while A**depth < MIN_TASKS and depth < N and depth < 4:
        depth += 1
    return [prefix for prefix in itertools.product(range(A), repeat=depth)
            if not 2 <= depth <= SYMMETRY_DEPTH or _lex_leader(problem.gmaps, prefix, depth)]


def _canonical_cells(blob: bytes, problem: _Problem) -> bytes:
    """Lexicographically minimal cell array over the symmetry group."""
    N = problem.N
    cells = bytearray(N)
    for depth, a in enumerate(blob):
        cells[problem.order[depth]] = a
    tables = symmetry_cell_tables(problem.n, problem.d)
    return min(bytes(cells[tg[c]] for c in range(N)) for tg in tables)


def _leaf_of(problem: _Problem, grid: Grid) -> bytes | None:
    """A grid's letters in branch order, or None when it uses a letter the
    search does not branch on."""
    cells = grid.to_dense().cells
    to_search = [problem.letters.index(ch) if ch in problem.letters else None
                 for ch in grid.alphabet.letters]
    if any(to_search[c] is None for c in set(cells)):
        return None
    return bytes(to_search[cells[c]] for c in problem.order)


def _assemble(problem: _Problem, state: _Search, seed_leaf: bytes,
              enumerate_witnesses: bool, ceiling: int | None, elapsed: float,
              verify) -> SolveResult:
    stats = SolveStats(nodes=state.nodes, bound_prunes=state.bound_prunes,
                       symmetry_prunes=state.symmetry_prunes, elapsed=elapsed)
    lower = state.incumbent
    complete = not state.stopped
    upper = lower if complete else max(lower, state.open_bound)
    if ceiling is not None:
        if ceiling < lower:
            raise AssertionError(f"lower {lower} exceeds the ceiling {ceiling}")
        upper = min(upper, ceiling)

    alphabet = Alphabet(problem.letters)

    def grid_of(cells: bytes) -> Grid:
        return Grid(n=problem.n, d=problem.d, alphabet=alphabet, cells=cells)

    if enumerate_witnesses and complete:
        forms = {_canonical_cells(blob, problem)
                 for value, blob in state.collected if value == lower}
        witnesses = tuple(grid_of(c) for c in sorted(forms))
        classes: int | None = len(witnesses)
    else:
        # Without enumeration the search prunes ties, so its best leaf is the
        # first optimal leaf in branch order unless the seed already held the
        # optimum; only then does a complete run hunt for that leaf.
        if state.best_value == lower:
            blob = state.best_leaf
        elif complete:
            blob = _hunt_witness(problem, lower)
        else:
            blob = seed_leaf
        witnesses = (grid_of(_canonical_cells(blob, problem)),) if blob is not None else ()
        classes = None

    if not witnesses:
        raise AssertionError(f"no leaf reaches the claimed optimum {lower}")
    for g in witnesses:
        got = verify(g)
        if got != lower:
            raise AssertionError(f"witness re-verification got {got}, expected {lower}")
    return SolveResult(complete=complete, lower=lower, upper=upper,
                       witnesses=witnesses, classes=classes, stats=stats)


def _compile(words: Sequence[Word], n: int, d: int, cfg: SolveConfig,
             cell_cap: int) -> _Problem:
    if any(w.n != n for w in words):
        raise ValueError("word length must equal the grid side n")
    if n**d > cell_cap:
        raise ValueError(f"{n}^{d} cells exceed the search cap {cell_cap}")
    letters, rows = _search_letters(words)
    return _Problem(rows, letters, n, d, symmetry=cfg.symmetry)


def _solve_rows(problem: _Problem, cfg: SolveConfig, verify,
                seed: ConstructionResult | None = None,
                ceiling: int | None = None) -> SolveResult:
    """Search from the better of the beam seed and `seed`; skip the search
    when that start meets `ceiling` and no witnesses are enumerated."""
    start = time.monotonic()
    incumbent, seed_leaf = _beam_seed(problem)
    if seed is not None and seed.achieved > incumbent:
        leaf = _leaf_of(problem, seed.grid)
        if leaf is not None:
            incumbent, seed_leaf = seed.achieved, leaf
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None
    # strict pruning keeps every optimal leaf reachable for enumeration
    state = _Search(incumbent=incumbent, strict=cfg.enumerate_witnesses,
                    collect=cfg.enumerate_witnesses, node_budget=cfg.node_budget,
                    deadline=deadline)
    if cfg.enumerate_witnesses or ceiling is None or incumbent < ceiling:
        for prefix in _task_prefixes(problem):
            _run_task(problem, prefix, state)
    elapsed = time.monotonic() - start
    return _assemble(problem, state, seed_leaf, cfg.enumerate_witnesses, ceiling,
                     elapsed, verify)


def solve(w: Word, n: int, d: int, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Maximize f(w, G) over all (n, d)-grids; exact unless a budget is hit.

    The search starts from `best_construction(w, d)` (d >= 2) when that grid
    uses only the letters of w and beats the beam seed. When the start
    already meets the proven ceiling (`upper_bound_2d` at d = 2,
    `upper_bound_d` otherwise), the optimum is reported without a search,
    unless witnesses are enumerated; the witness still comes from a leaf.
    An incomplete result reports no upper end above the ceiling."""
    problem = _compile([w], n, d, cfg, DEFAULT_CELL_CAP)
    seed = best_construction(w, d) if d >= 2 else None
    ceiling = upper_bound_2d(w).upper if d == 2 else upper_bound_d(w, d)
    return _solve_rows(problem, cfg, lambda g: count_word(w, g).total, seed, ceiling)


def solve_set(words: Sequence[Word], n: int, d: int,
              cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Maximize f(W, G). The single-word letter reduction does not carry over
    to sets, so the search alphabet is the union of all word letters and the
    cell cap is tighter."""
    word_list = list(words)
    if not word_list:
        raise ValueError("word set must be nonempty")
    problem = _compile(word_list, n, d, cfg, SET_CELL_CAP)
    return _solve_rows(problem, cfg, lambda g: count_word_set(word_list, g).total)


def solve_oracle(w: Word, n: int, d: int) -> int:
    """f(w) by plain enumeration of every grid over letters(w).

    No pruning and no symmetry: an independent check on solve. Grids are the
    axes of a |letters|^(n^d) tensor; each line orientation adds 1 on the
    slice of grids reading it, so the tensor maximum is the optimum.
    """
    if w.n != n:
        raise ValueError("word length must equal the grid side n")
    letters, (row,) = _search_letters([w])
    A = len(letters)
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
