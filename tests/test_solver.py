"""Tests for the branch-and-bound solver against the exhaustive oracle."""

import functools
import itertools
import random
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import wordgrid.solver as solver_mod
from wordgrid.bounds import bracket
from wordgrid.constructions import ConstructionResult, best_construction
from wordgrid.core import (Alphabet, Grid, Word, all_points, all_symmetries, infer_alphabet,
                           point_index, symmetry_cell_tables)
from wordgrid.lines import segment_table
from wordgrid.occurrence import _probes, count_word, count_word_set
from wordgrid.solver import (BEAM_WIDTH, CLOCK_CHECK_MASK, SYMMETRY_DEPTH, SolveConfig,
                             _beam_seed, _canonical_cells, _dfs, _Problem, _Search, solve,
                             solve_oracle, solve_set)

BINARY = Alphabet(("A", "M"))


def binary_words(n):
    for bits in itertools.product("AM", repeat=n):
        yield Word.from_string("".join(bits), BINARY)


# ---------------------------------------------------------------- basics

def test_solve_amm_plane():
    r = solve(Word.from_string("AMM"), 3, 2)
    assert r.complete and r.optimum == 5
    assert r.lower == r.upper == 5
    assert len(r.witnesses) == 1
    assert r.witnesses[0].rows() == ["AAA", "AMM", "AMM"]
    assert count_word(Word.from_string("AMM"), r.witnesses[0]).total == 5


def test_solve_constant_words():
    for n in (2, 3, 4, 5):
        w = Word(Alphabet(("A",)), (0,) * n)
        assert solve(w, n, 2).optimum == 2 * n + 2


def test_solve_one_dimension():
    assert solve(Word.from_string("AMM"), 3, 1).optimum == 1


def test_solve_ama():
    r = solve(Word.from_string("AMA"), 3, 2)
    assert r.optimum == 6
    assert solve_oracle(Word.from_string("AMA"), 3, 2) == 6


def test_solve_antisymmetric_3d():
    # n=2 antisymmetric binary words reach a quarter of (n+2)^d lines
    w = Word.from_string("AM")
    assert solve(w, 2, 3).optimum == 16
    assert solve(w, 2, 4).optimum == 64


# ---------------------------------------------------------------- oracle equivalence

def test_oracle_matches_solve_binary():
    for w in binary_words(3):
        assert solve(w, 3, 2).optimum == solve_oracle(w, 3, 2), w.text


def test_oracle_matches_solve_ternary_sample():
    rng = random.Random(555)
    for _ in range(8):
        text = "".join(rng.choice("ABC") for _ in range(3))
        w = Word.from_string(text, Alphabet(("A", "B", "C")))
        assert solve(w, 3, 2).optimum == solve_oracle(w, 3, 2), text


def test_oracle_abc():
    assert solve_oracle(Word.from_string("ABC"), 3, 2) == 5


def test_oracle_guards():
    with pytest.raises(ValueError):
        solve_oracle(Word.from_string("AM"), 3, 2)
    with pytest.raises(ValueError):
        solve_oracle(Word.from_string("AMM"), 3, 4)  # 2^81 states


# ---------------------------------------------------------------- packed live count

def _step(problem, bads, m):
    """One assignment: OR its packed mask into the state, count live lines.

    ANDing the state with itself shifted by each probe offset leaves, in the
    low L bits, the lines contradicted in every probe, and nothing above them.
    A palindrome has a single probe and no shift."""
    c = bads | m
    dead = c
    for sh in problem.shifts:
        dead &= c >> sh
    return c, problem.L - dead.bit_count()


def _recount_live(texts, n, d, assigned):
    """Lines some reading of some word agrees with on every assigned cell."""
    probes = {r for t in texts for r in (t, t[::-1])}
    return sum(any(all(c not in assigned or assigned[c] == pr[t] for t, c in enumerate(line))
                   for pr in probes)
               for line in segment_table(n, d, n)[0].tolist())


@pytest.mark.parametrize("texts, n, d", [
    (("AMM",), 3, 2), (("AMM",), 3, 3), (("ABC",), 3, 2), (("ABC",), 3, 3),
    (("AMAM",), 4, 2), (("AMAM",), 4, 3), (("AMA",), 3, 2), (("ABCD", "ABDC"), 4, 2),
])
def test_packed_live_count_matches_recount(texts, n, d):
    # the packed state's bound against a recount from the line table, at every
    # depth of seeded random assignments along the branch order
    problem = _Problem([Word.from_string(t) for t in texts], n, d, symmetry=False)
    rng = random.Random(f"{texts} {n} {d}")
    for _ in range(12):
        bads, live, assigned = 0, problem.L, {}
        assert live == _recount_live(texts, n, d, assigned)
        for depth, cell in enumerate(problem.order):
            a = rng.randrange(problem.A)
            bads, live = _step(problem, bads, problem.masks[depth][a])
            assigned[cell] = problem.alphabet.letters[a]
            assert live == _recount_live(texts, n, d, assigned), (depth, assigned)


# ---------------------------------------------------------------- witnesses

def test_witness_enumeration_counts_classes():
    r = solve(Word.from_string("AMM"), 3, 2, SolveConfig(enumerate_witnesses=True))
    assert r.optimum == 5
    assert r.classes == len(r.witnesses) > 0
    seen = set()
    for g in r.witnesses:
        assert count_word(Word.from_string("AMM"), g).total == 5
        assert g.cells not in seen
        seen.add(g.cells)


def test_symmetry_off_same_optimum_and_classes():
    for text in ("AMM", "AMA", "AAM"):
        w = Word.from_string(text)
        on = solve(w, 3, 2, SolveConfig(enumerate_witnesses=True))
        off = solve(w, 3, 2, SolveConfig(enumerate_witnesses=True, symmetry=False))
        assert on.optimum == off.optimum
        assert on.classes == off.classes
        assert [g.cells for g in on.witnesses] == [g.cells for g in off.witnesses]


def test_determinism_across_workers():
    # workers selects nothing, so outputs and stats alike are identical
    for text, n, d, enum in (("AAMM", 4, 2, True), ("ABC", 3, 3, False)):
        seen = set()
        for workers in (1, 2, 8):
            r = solve(Word.from_string(text), n, d,
                      SolveConfig(enumerate_witnesses=enum, workers=workers))
            s = r.stats
            seen.add((r.complete, r.lower, r.upper, r.classes, s.nodes, s.bound_prunes,
                      s.symmetry_prunes, r.canonical_text()))
        assert len(seen) == 1, text


def _small_words():
    for n in (2, 3, 4, 5):
        for t in itertools.product("ABC", repeat=n):
            if "".join(dict.fromkeys(t)) == "ABC"[:len(set(t))]:  # one word per renaming
                yield "".join(t), n, 2
    for t in itertools.product("AB", repeat=5):  # many of these beat the beam seed
        yield "A" + "".join(t), 6, 2
    yield from (("ABC", 3, 3), ("AAB", 3, 3), ("AMM", 3, 3))


def _first_leaf_reaching(problem, target):
    """First leaf in branch order with at least `target` live lines, by a
    plain recursive search with no symmetry and no incumbent."""
    def walk(depth, bads, live, prefix):
        if live < target:
            return None
        if depth == problem.N:
            return bytes(prefix)
        for a in range(problem.A):
            found = walk(depth + 1, *_step(problem, bads, problem.masks[depth][a]), prefix + [a])
            if found is not None:
                return found
        return None
    return walk(0, 0, problem.L, [])


def test_witness_is_first_optimal_leaf_in_branch_order():
    # the witness a complete solve returns, from its search or from the
    # witness pass, is the canonical form of the first optimal leaf in branch
    # order; the symmetry check only cuts leaves with a smaller image
    for text, n, d in _small_words():
        w = Word.from_string(text)
        r = solve(w, n, d)
        problem = _Problem([w], n, d, symmetry=False)
        want = _canonical_cells(_first_leaf_reaching(problem, r.lower), problem)
        assert r.complete and r.witnesses[0].cells == want, (text, n, d)


@pytest.mark.parametrize("text, n, d", [("AMM", 3, 3), ("AM", 2, 5)])
def test_canonical_cells_is_least_image(text, n, d):
    # the least image over the group, each element's cell map built point by point
    problem = _Problem([Word.from_string(text)], n, d, symmetry=True)
    tables = [[point_index(g.apply_point(p, n), n, d) for p in all_points(n, d)]
              for g in all_symmetries(d)]
    rng = random.Random(n * 10 + d)
    for _ in range(5):
        blob = bytes(rng.randrange(problem.A) for _ in range(problem.N))
        cells = bytearray(problem.N)
        for depth, a in enumerate(blob):
            cells[problem.order[depth]] = a
        want = min(bytes(cells[c] for c in table) for table in tables)
        assert _canonical_cells(blob, problem) == want


@pytest.mark.parametrize("text, n, d", [("AM", 2, 4), ("AM", 2, 6), ("ABC", 3, 3),
                                        ("ABCD", 4, 3)])
def test_canonical_cells_matches_bytes_minimum(text, n, d):
    # the column-by-column minimum against the minimum over one bytes object
    # per image; blobs over fewer letters tie many images through many cells
    problem = _Problem([Word.from_string(text)], n, d, symmetry=True)
    rng = random.Random(n * 10 + d)
    blobs = [bytes(problem.N), bytes([problem.A - 1]) * problem.N]
    for used in range(2, problem.A + 1):
        blobs += [bytes(rng.randrange(used) for _ in range(problem.N)) for _ in range(4)]
    for blob in blobs:
        cells = np.empty(problem.N, dtype=np.uint8)
        cells[problem.order] = np.frombuffer(blob, dtype=np.uint8)
        want = min(map(bytes, cells[symmetry_cell_tables(n, d)]))
        assert _canonical_cells(blob, problem) == want, (text, n, d, blob)


SEARCH, WITNESS_PASS = {"collect": False}, {"first": True}


@pytest.mark.parametrize("text, n, d, passes", [
    pytest.param("ABC", 3, 3, [SEARCH], id="ABC-3-3-1"),
    pytest.param("AAAMM", 5, 2, [SEARCH, WITNESS_PASS], id="AAAMM-5-2-2"),
    pytest.param("AMAM", 4, 3, [WITNESS_PASS], id="AMAM-4-3-1"),
])
def test_witness_pass_only_when_no_leaf_reached_the_seed(monkeypatch, text, n, d, passes):
    # ABC 3^3 beats its beam seed in the search; AAAMM 5^2's beam seed holds
    # the optimum, so the search prunes every tie and a second pass finds the
    # leaf; AMAM 4^3's seed meets the ceiling, so the witness pass is the only one
    calls = []
    dfs = solver_mod._dfs

    def counting(problem, state, **mode):
        calls.append(mode)
        dfs(problem, state, **mode)

    monkeypatch.setattr(solver_mod, "_dfs", counting)
    solve(Word.from_string(text), n, d)
    assert calls == passes


# ---------------------------------------------------------------- budgets

def test_node_budget_interval():
    w = Word.from_string("AAMMM")
    full = solve(w, 5, 2)
    assert full.optimum == 8
    limited = solve(w, 5, 2, SolveConfig(node_budget=3))
    assert not limited.complete
    assert limited.optimum is None
    assert limited.lower <= 8 <= limited.upper
    if limited.witnesses:
        assert count_word(w, limited.witnesses[0]).total == limited.lower


@pytest.mark.parametrize("text, budget, head", [
    # from the beam seed (5) these two stayed open at 20k nodes; from the rows
    # construction (8) they close within that budget
    pytest.param("ABACBD", 20_000, "optimum 8", id="ABACBD"),
    pytest.param("ABBCBD", 20_000, "optimum 8", id="ABBCBD"),
    pytest.param("ABCDBE", 5_000, "interval 8 10", id="ABCDBE"),
])
def test_budgeted_upper_within_proven_ceiling(text, budget, head):
    w = Word.from_string(text)
    r = solve(w, 6, 2, SolveConfig(node_budget=budget))
    b = bracket(w, 2)
    assert r.canonical_text().splitlines()[0] == head
    assert b.lower <= r.lower <= r.upper <= b.upper


def test_budget_binds_on_the_witness_pass():
    # the parity construction reaches the ceiling 52, so the branch-and-bound
    # is skipped; the budget cuts the witness pass, and the seed is the witness
    w = Word.from_string("AMAM")
    r = solve(w, 4, 3, SolveConfig(node_budget=1000))
    assert r.canonical_text().startswith("optimum 52\n")
    assert r.stats.nodes == 1001
    assert count_word(w, r.witnesses[0]).total == 52


@pytest.mark.parametrize("budget", [1, 3, 4096, 5000])
def test_node_budget_is_exact(budget):
    r = solve(Word.from_string("AMMA"), 4, 3, SolveConfig(node_budget=budget))
    assert not r.complete
    assert r.stats.nodes == budget + 1


def test_spent_time_budget_stops_at_the_first_clock_read():
    # the clock is read every CLOCK_CHECK_MASK + 1 nodes, so a deadline that has
    # already passed stops the search at node 4,096, not before
    r = solve(Word.from_string("ABCD"), 4, 3, SolveConfig(time_budget=1e-9))
    assert not r.complete
    assert r.stats.nodes == CLOCK_CHECK_MASK + 1 == 4096


def test_solve_and_solve_set_recount_every_witness_on_their_words(monkeypatch):
    # both entry points recount their witnesses through count_word_set, so a
    # recount that disagrees with the search raises on either
    real = solver_mod.count_word_set
    monkeypatch.setattr(solver_mod, "count_word_set",
                        lambda words, g: SimpleNamespace(total=real(words, g).total - 1))
    with pytest.raises(AssertionError, match="^witness re-verification got 4, expected 5$"):
        solve(Word.from_string("AMM"), 3, 2)
    with pytest.raises(AssertionError, match="^witness re-verification got 4, expected 5$"):
        solve_set([Word.from_string("ABC"), Word.from_string("ACB")], 3, 2)


def test_elapsed_covers_compile(monkeypatch):
    # the solve clock starts on entry, so compilation is part of `elapsed`
    problem_ = solver_mod._Problem

    def slow_problem(*args):
        time.sleep(0.3)
        return problem_(*args)

    monkeypatch.setattr(solver_mod, "_Problem", slow_problem)
    r = solve(Word.from_string("AMM"), 3, 2)
    assert r.optimum == 5
    assert r.stats.elapsed >= 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(node_budget=0)
    with pytest.raises(ValueError):
        SolveConfig(time_budget=-1.0)
    # NaN compares false to everything, so `nan <= 0` would let it through
    with pytest.raises(ValueError, match="node budget must be positive"):
        SolveConfig(node_budget=float("nan"))
    with pytest.raises(ValueError, match="time budget must be positive"):
        SolveConfig(time_budget=float("nan"))
    with pytest.raises(ValueError):
        SolveConfig(workers=0)


def test_nan_worker_count_is_refused():
    # `nan < 1` is False too, so only `not workers >= 1` refuses it
    with pytest.raises(ValueError, match="worker count must be >= 1"):
        SolveConfig(workers=float("nan"))


@pytest.mark.parametrize("field, value, message", [
    ("node_budget", 1.5, "node budget must be an integer, not 1.5"),
    ("node_budget", float("inf"), "node budget must be an integer, not inf"),
    ("workers", 1.5, "worker count must be an integer, not 1.5"),
])
def test_non_integer_budget_or_worker_count_is_refused(field, value, message):
    # a node budget of 1.5 was accepted and the cut search reported 3 nodes,
    # not node_budget + 1
    with pytest.raises(TypeError, match=f"^{message}$"):
        SolveConfig(**{field: value})


def test_integer_like_budget_and_worker_count_are_accepted():
    r = solve(Word.from_string("AMMA"), 4, 3,
              SolveConfig(node_budget=np.int64(7), workers=np.int32(2)))
    assert r.stats.nodes == 8


def test_cell_cap():
    with pytest.raises(ValueError, match=r"^3\^5 cells exceed the search cap 64$"):
        solve(Word.from_string("AMM"), 3, 5)  # 243 cells
    with pytest.raises(ValueError, match="^word length must equal the grid side n$"):
        solve(Word.from_string("AMM"), 4, 2)


# ---------------------------------------------------------------- construction seed

def _construction_claims(monkeypatch, achieved):
    """Make the construction the solver consults claim `achieved` lines; 0
    forces the beam seed and the full search."""
    def claim(w, d):
        built = best_construction(w, d)
        return ConstructionResult(built.grid, guaranteed=0, achieved=achieved,
                                  provenance=built.provenance)
    monkeypatch.setattr(solver_mod, "best_construction", claim)


def _outputs(r):
    return r.complete, r.lower, r.upper, r.classes, r.canonical_text()


def test_seeded_solve_matches_unseeded_search(monkeypatch):
    runs = [(text, n, d, False) for text, n, d in _small_words() if d == 2]
    runs += [("AMAM", 4, 3, True), ("ABC", 3, 3, True), ("AMM", 3, 3, True)]
    seeded = [_outputs(solve(Word.from_string(t), n, d, SolveConfig(enumerate_witnesses=e)))
              for t, n, d, e in runs]
    _construction_claims(monkeypatch, 0)
    for (t, n, d, e), want in zip(runs, seeded):
        got = _outputs(solve(Word.from_string(t), n, d, SolveConfig(enumerate_witnesses=e)))
        assert got == want, (t, n, d, e)


@pytest.mark.parametrize("enumerate_witnesses", [False, True])
def test_unbacked_seed_is_refused(monkeypatch, enumerate_witnesses):
    # AMM 3^2 has optimum 5 under a ceiling of 6; a construction claiming 6
    # must not come back as an optimum with no witness
    w = Word.from_string("AMM")
    assert solve(w, 3, 2).optimum == 5 and bracket(w, 2).upper == 6
    _construction_claims(monkeypatch, 6)
    with pytest.raises(AssertionError):
        solve(w, 3, 2, SolveConfig(enumerate_witnesses=enumerate_witnesses))


# ---------------------------------------------------------------- word sets

def test_solve_set_permutations():
    perms = [Word.from_string("".join(p), Alphabet(tuple("1234")))
             for p in itertools.permutations("1234")]
    r = solve_set(perms, 4, 2)
    assert r.optimum == 10
    from wordgrid.occurrence import is_diagonal_latin
    assert is_diagonal_latin(r.witnesses[0])


def test_solve_set_singleton_matches_solve():
    w = Word.from_string("AMM")
    assert solve_set([w], 3, 2).optimum == solve(w, 3, 2).optimum


@pytest.mark.parametrize("text", ["AMM", "ABC"])
def test_solve_set_with_the_reversed_word_is_the_word_alone(text):
    # a line reads w or its reversal, so adding the reversal adds no probe:
    # the masks, the search and its tallies are those of the word alone
    w = Word.from_string(text)
    pair, alone = solve_set([w, w.reversed_word()], 3, 2), solve_set([w], 3, 2)
    assert pair.canonical_text() == alone.canonical_text()
    tallies = [(r.stats.nodes, r.stats.bound_prunes, r.stats.symmetry_prunes)
               for r in (pair, alone)]
    assert tallies[0] == tallies[1]


def test_solve_set_two_constant_words():
    ab = Alphabet(("A", "M"))
    words = [Word.from_string("AA", ab), Word.from_string("MM", ab)]
    r = solve_set(words, 2, 2)
    assert r.optimum == 6
    assert count_word_set(words, r.witnesses[0]).total == 6


def test_solve_set_guards():
    with pytest.raises(ValueError):
        solve_set([], 3, 2)
    with pytest.raises(ValueError, match=r"^3\^3 cells exceed the search cap 25$"):
        solve_set([Word.from_string("AMM")], 3, 3)  # 27 cells over the set cap
    with pytest.raises(ValueError, match="^word length must equal the grid side n$"):
        solve_set([Word.from_string("AMM"), Word.from_string("AM")], 3, 2)


# ---------------------------------------------------------------- pinned search

def _word(text):
    return Word.from_string(text)


# Exact output and search tallies. Node and prune counts are deterministic
# and do not depend on workers, so any change to the branch order, the bound,
# the symmetry check, the seed or the witness pass shows up here. Each entry
# holds the run, (complete, lower, upper, classes, nodes, bound prunes,
# symmetry prunes) and the canonical text.
PINNED = {
    "amm_3d_enumerate": (
        lambda: solve(_word("AMM"), 3, 3, SolveConfig(enumerate_witnesses=True)),
        (True, 28, 28, 3, 16088, 14053, 1015),
        "optimum 28\nclasses 3\nwitnesses 3\n"
        "WG1 d=3 n=3 sigma=AM\nAAA\nAMM\nAMM\nAMM\nMMA\nMAM\nMAM\nAMM\nMMA\n"
        "WG1 d=3 n=3 sigma=AM\nAAA\nAMM\nAMM\nAMM\nMMM\nMMA\nAMM\nMMA\nMAM\n"
        "WG1 d=3 n=3 sigma=AM\nAAA\nAMM\nAMM\nMMA\nMMM\nMMA\nMMA\nAMM\nMAM\n",
    ),
    "abc_3d": (
        lambda: solve(_word("ABC"), 3, 3),
        (True, 25, 25, None, 66781, 119388, 4724),
        "optimum 25\nclasses unknown\nwitnesses 1\n"
        "WG1 d=3 n=3 sigma=ABC\nAAA\nAAA\nAAA\nABA\nBBB\nCBC\nCCC\nCCC\nCCC\n",
    ),
    "amam_3d": (
        # the parity construction meets the ceiling: only the witness pass runs
        lambda: solve(_word("AMAM"), 4, 3),
        (True, 52, 52, None, 7958, 5851, 1049),
        "optimum 52\nclasses unknown\nwitnesses 1\n"
        "WG1 d=3 n=4 sigma=AM\nAMAM\nMAMA\nAMAM\nMAMA\nMAMA\nAMAM\nMAMA\nAMAM\n"
        "AMAM\nMAMA\nAMAM\nMAMA\nMAMA\nAMAM\nMAMA\nAMAM\n",
    ),
    "aaamm_plane": (
        lambda: solve(_word("AAAMM"), 5, 2),
        (True, 8, 8, None, 229, 179, 18),
        "optimum 8\nclasses unknown\nwitnesses 1\n"
        "WG1 d=2 n=5 sigma=AM\nAAAMM\nAAAMM\nAAAAA\nMMAAA\nMMAAA\n",
    ),
    "abc_plane": (
        lambda: solve(_word("ABC"), 3, 2),
        (True, 5, 5, None, 36, 49, 5),
        "optimum 5\nclasses unknown\nwitnesses 1\n"
        "WG1 d=2 n=3 sigma=ABC\nAAA\nBBB\nCCC\n",
    ),
    "ama_palindrome_enumerate": (
        lambda: solve(_word("AMA"), 3, 2, SolveConfig(enumerate_witnesses=True)),
        (True, 6, 6, 1, 15, 12, 1),
        "optimum 6\nclasses 1\nwitnesses 1\n"
        "WG1 d=2 n=3 sigma=AM\nAMA\nMMM\nAMA\n",
    ),
    "amm_plane_no_symmetry": (
        lambda: solve(_word("AMM"), 3, 2, SolveConfig(enumerate_witnesses=True, symmetry=False)),
        (True, 5, 5, 6, 168, 105, 0),
        "optimum 5\nclasses 6\nwitnesses 6\n"
        "WG1 d=2 n=3 sigma=AM\nAAA\nAMM\nAMM\n"
        "WG1 d=2 n=3 sigma=AM\nAAA\nAMM\nMMM\n"
        "WG1 d=2 n=3 sigma=AM\nAAA\nMMM\nMMM\n"
        "WG1 d=2 n=3 sigma=AM\nAAM\nMMA\nAMM\n"
        "WG1 d=2 n=3 sigma=AM\nAMA\nMMM\nMAM\n"
        "WG1 d=2 n=3 sigma=AM\nAMM\nMMA\nMAM\n",
    ),
    "set_abcd_abdc": (
        lambda: solve_set([_word("ABCD"), _word("ABDC")], 4, 2),
        (True, 6, 6, None, 799, 1942, 112),
        "optimum 6\nclasses unknown\nwitnesses 1\n"
        "WG1 d=2 n=4 sigma=ABCD\nAAAA\nBBBB\nCCCC\nDDDD\n",
    ),
    "amma_3d": (
        # one probe (a palindrome), and the witness pass
        lambda: solve(_word("AMMA"), 4, 3),
        (True, 52, 52, None, 151862, 150651, 592),
        "optimum 52\nclasses unknown\nwitnesses 1\n"
        "WG1 d=3 n=4 sigma=AM\nAAAA\nAMMA\nAMMA\nAAAA\nAMMA\nMMMM\nMMMM\nAMMA\n"
        "AMMA\nMMMM\nMMMM\nAMMA\nAAAA\nAMMA\nAMMA\nAAAA\n",
    ),
    "abcd_3d_node_budget": (
        # four letters, stopped partway through a sibling loop: the prunes
        # counted while unwinding are part of the tally
        lambda: solve(_word("ABCD"), 4, 3, SolveConfig(node_budget=5000)),
        (False, 32, 52, None, 5001, 14824, 31),
        "interval 32 52\nclasses unknown\nwitnesses 1\n"
        "WG1 d=3 n=4 sigma=ABCD\nAAAA\nABBA\nDCCD\nDDDD\nABBA\nBBBB\nCCCC\nDCCD\n"
        "DCCD\nCCCC\nBBBB\nABBA\nDDDD\nDCCD\nABBA\nAAAA\n",
    ),
    "aammm_node_budget": (
        lambda: solve(_word("AAMMM"), 5, 2, SolveConfig(node_budget=3)),
        (False, 8, 10, None, 4, 1, 0),
        "interval 8 10\nclasses unknown\nwitnesses 1\n"
        "WG1 d=2 n=5 sigma=AM\nAAMMM\nAAMMM\nMMAMM\nMMMAA\nMMMAA\n",
    ),
}


# The tallies that differ when the symmetry check stops at depth 12, as the
# rescan of every map did before the check became incremental; each output
# and every other tally is the same at both horizons.
PINNED_AT_DEPTH_12 = {
    "amm_3d_enumerate": (True, 28, 28, 3, 31716, 31561, 75),
    "abc_3d": (True, 25, 25, None, 118005, 234406, 534),
    "amam_3d": (True, 52, 52, None, 20697, 20526, 81),
    "amma_3d": (True, 52, 52, None, 388894, 388753, 57),
    "abcd_3d_node_budget": (False, 32, 52, None, 5001, 14943, 0),
}


def _pinned_facts(r):
    s = r.stats
    return (r.complete, r.lower, r.upper, r.classes, s.nodes, s.bound_prunes, s.symmetry_prunes)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_search(key):
    run, expected, text = PINNED[key]
    r = run()
    assert _pinned_facts(r) == expected
    assert r.canonical_text() == text


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_search_at_depth_12(monkeypatch, key):
    # the incremental check at the old horizon prunes exactly the nodes the
    # per-node rescan pruned, so every tally and text of the rescan returns
    monkeypatch.setattr(solver_mod, "SYMMETRY_DEPTH", 12)
    run, expected, text = PINNED[key]
    r = run()
    assert _pinned_facts(r) == PINNED_AT_DEPTH_12.get(key, expected)
    assert r.canonical_text() == text


# ---------------------------------------------------------------- the search before its node rewrite

def _lex_leader(gmaps, s, q):
    """False when some symmetry maps the assigned prefix s[:q] below itself:
    every map is scanned from depth 0 until its image differs from s or
    reaches an unassigned depth."""
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


def _reference_gmaps(problem, horizon):
    """gmaps[k][i]: depth of the k-th non-identity image of depth i's cell,
    over the first `horizon` depths, maps equal there kept once, in order."""
    pos_of = np.argsort(problem.order)
    gmaps = pos_of[symmetry_cell_tables(problem.n, problem.d)[1:, problem.order[:horizon]]]
    first = np.unique(gmaps, axis=0, return_index=True)[1]
    return gmaps[np.sort(first)].tolist()


def _reference_dfs(problem, state, leader, horizon, collect=False, first=False):
    """`_dfs` before each node ran fewer bytecodes and before the incremental
    symmetry check: the state is read and written through attributes, every
    child is a call, the prefix is a list grown and shrunk, the dead count
    folds every probe shift, and every node of depth 2 to `horizon` asks
    `leader` whether its prefix is a lex-leader."""
    L, A, N = problem.L, problem.A, problem.N
    masks, shifts = problem.masks, problem.shifts
    strict = collect or first
    budget = state.node_budget if state.node_budget is not None else sys.maxsize
    deadline = state.deadline
    s = []
    nodes = state.nodes

    def leaf(value):
        if first:
            state.stopped = True
        if value > state.incumbent:
            state.incumbent = value
            state.best_leaf = None
            state.collected = []
        blob = bytes(s)
        if state.best_leaf is None:
            state.best_leaf = blob
        if collect:
            state.collected.append(blob)

    def dfs(q, bads, bound):
        nonlocal nodes
        if state.stopped:
            state.open_bound = max(state.open_bound, bound)
            return
        nodes += 1
        if nodes > budget or (nodes & CLOCK_CHECK_MASK == 0 and deadline is not None
                              and time.monotonic() > deadline):
            state.stopped = True
            state.open_bound = max(state.open_bound, bound)
            return
        if 2 <= q <= horizon and not leader(s):
            state.symmetry_prunes += 1
            return
        if q == N:
            leaf(bound)
            return
        inc = state.incumbent
        mq = masks[q]
        for a in range(A):
            nb = bads | mq[a]
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

    dfs(0, 0, L)
    state.nodes = nodes


def _reference_search(problem, symmetry, horizon=SYMMETRY_DEPTH):
    """`_reference_dfs` with the rescan of the problem's symmetry maps at
    `horizon`. The answer depends on the prefix alone, so it is kept per
    prefix for every search the returned function runs."""
    gmaps = _reference_gmaps(problem, horizon) if symmetry else []
    answers = {}

    def leader(s):
        key = bytes(s)
        if key not in answers:
            answers[key] = _lex_leader(gmaps, s, len(s))
        return answers[key]

    return functools.partial(_reference_dfs, leader=leader, horizon=horizon)


def _reference_masks(texts, n, d):
    """`_Problem`'s (masks, order, L, shifts) before its bit table: one bit
    ORed in per line, cell, probe and contradicting letter."""
    alphabet = infer_alphabet("".join(texts))
    symbol_rows = [Word.from_string(t, alphabet).symbols for t in texts]
    A, N = len(alphabet), n**d
    line_cells = segment_table(n, d, n)[0].tolist()
    L = len(line_cells)
    probes = _probes(symbol_rows)
    incident = np.bincount(np.ravel(line_cells), minlength=N).tolist()
    order = sorted(range(N), key=lambda c: (-incident[c], c))
    pos_of = np.argsort(order)
    masks = [[0] * A for _ in range(N)]
    for li, cells in enumerate(line_cells):
        for t, c in enumerate(cells):
            at_depth = masks[pos_of[c]]
            for p, pr in enumerate(probes):
                bit = 1 << (p * L + li)
                for a in range(A):
                    if a != pr[t]:
                        at_depth[a] |= bit
    return masks, order, L, tuple(p * L for p in range(1, len(probes)))


def _reference_beam_seed(problem):
    """`_beam_seed` before the rewrite: tuple assignments, one (-live, s) sort key."""
    states = [(problem.L, 0, ())]
    for row in problem.masks:
        nxt = []
        for _, bads, s in states:
            for a in range(problem.A):
                nb, live = _step(problem, bads, row[a])
                nxt.append((live, nb, s + (a,)))
        nxt.sort(key=lambda e: (-e[0], e[2]))
        states = nxt[:BEAM_WIDTH]
    live, _, s = states[0]
    return live, bytes(s)


def _search_facts(state):
    """Everything a pass leaves in its state that a solve reads."""
    return (state.nodes, state.bound_prunes, state.symmetry_prunes, state.open_bound,
            state.stopped, state.incumbent, state.best_leaf, list(state.collected))


def _leaf_value(problem, blob):
    """Lines alive at a full assignment, recounted one step at a time."""
    bads, live = 0, problem.L
    for row, a in zip(problem.masks, blob):
        bads, live = _step(problem, bads, row[a])
    return live


# one probe (AMA, AMMA), two probes (one word, or a set of two reversals) and
# more (sets), with and without symmetry
DIFF_PROBLEMS = [
    (("AMA",), 3, 2, True), (("AMMA",), 4, 2, True), (("AMM",), 3, 2, True),
    (("AMM",), 3, 2, False), (("ABC",), 3, 2, True), (("AAMM",), 4, 2, True),
    (("AM",), 2, 3, True), (("AMM",), 3, 3, True), (("ABCD", "ABDC"), 4, 2, True),
    (("AB", "BA"), 2, 2, True), (("AMM", "MAM", "MMA"), 3, 2, True),
    (("ABCD",), 4, 2, True),
]
# (node budget, deadline): budgets that stop at the root, one and two nodes
# in, around the first clock read and partway through sibling loops; a spent
# deadline stops at the first clock read
DIFF_LIMITS = [(1, None), (2, None), (3, None), (50, None), (4096, None), (4097, None),
               (10_000, None), (None, None), (None, 0.0)]


def _diff_problem(texts, n, d, symmetry):
    return _Problem([Word.from_string(t) for t in texts], n, d, symmetry=symmetry)


def _assert_dfs_matches(problem, reference):
    """Fresh identical states in the passes a solve runs, from the beam's
    value and from two below it (so leaves raise the incumbent): the search,
    followed on the same state by the witness pass when it completes, and
    the enumeration, whose leaves are recounted: all at the incumbent, in
    branch order, the first of them the best leaf."""
    value, _ = _beam_seed(problem)
    for incumbent, (budget, deadline), collect in itertools.product(
            (value, value - 2), DIFF_LIMITS, (False, True)):
        states = []
        for search in (_dfs, reference):
            state = _Search(incumbent, budget, deadline)
            search(problem, state, collect=collect)
            facts = [_search_facts(state)]
            if not collect and not state.stopped:
                search(problem, state, first=True)
                facts.append(_search_facts(state))
            states.append(facts)
        assert states[0] == states[1], (incumbent, budget, deadline, collect)
        if collect:
            leaves = state.collected
            assert leaves == sorted(set(leaves))
            assert all(_leaf_value(problem, blob) == state.incumbent for blob in leaves)
            assert state.best_leaf == (leaves[0] if leaves else None)


# the exact-search panel of the benchmark and the CI step "Solver tallies"
PANEL_PROBLEMS = [(("ABC",), 3, 3), (("AMAM",), 4, 3), (("AMMA",), 4, 3), (("AMM",), 3, 3),
                  (("AAAMM",), 5, 2), (("ABCD", "ABDC"), 4, 2), (("ABCD",), 4, 3)]


@pytest.mark.parametrize("texts, n, d", [
    *dict.fromkeys((texts, n, d) for texts, n, d, _ in DIFF_PROBLEMS),
    (("AM",), 2, 6), (("AAA",), 3, 2), (("ABC", "BCA"), 3, 2), (("ABCD",), 4, 3),
])
def test_masks_match_the_per_line_loop(texts, n, d):
    # the scattered bit table packs to the loop's ints, order, L and shifts:
    # one probe (AMA, AAA), two, three (AMM, MAM, MMA) and four (ABC, BCA)
    problem = _diff_problem(texts, n, d, False)
    got = (problem.masks, problem.order, problem.L, problem.shifts)
    assert got == _reference_masks(texts, n, d)


@pytest.mark.parametrize("texts, n, d", [
    *(((text,), n, d) for text, n, d in _small_words() if n <= 4 and d == 2), *PANEL_PROBLEMS,
])
def test_beam_matches_the_sorted_beam(texts, n, d):
    problem = _diff_problem(texts, n, d, False)
    assert _beam_seed(problem) == _reference_beam_seed(problem)


@pytest.mark.parametrize("texts, n, d, symmetry", DIFF_PROBLEMS)
def test_dfs_and_beam_match_the_pre_rewrite_search(texts, n, d, symmetry):
    problem = _diff_problem(texts, n, d, symmetry)
    assert _beam_seed(problem) == _reference_beam_seed(problem)
    _assert_dfs_matches(problem, _reference_search(problem, symmetry))


@pytest.mark.parametrize("texts, n, d, symmetry", DIFF_PROBLEMS)
def test_dfs_matches_the_rescan_at_depth_12(monkeypatch, texts, n, d, symmetry):
    # at the old horizon the schedule is cut short on grids of more than 12
    # cells, and the rescan there is the parent's symmetry check
    monkeypatch.setattr(solver_mod, "SYMMETRY_DEPTH", 12)
    problem = _diff_problem(texts, n, d, symmetry)
    _assert_dfs_matches(problem, _reference_search(problem, symmetry, 12))


# Node budgets on ABCD 4^3, the benchmark's budget instance, whose stop node
# is entered inside a four-letter sibling loop (1,152: letter 1 at depth 25,
# two siblings left; 1,250: letter 0 at depth 28, three left) or by tail
# descent (3,949 and 3,951: the last letter at depths 32 and 31). The bound
# prunes the unwinding frames count after the stop are part of the tally.
@pytest.mark.parametrize("budget", [1152, 1250, 3949, 3951])
def test_abcd_4_3_budget_cuts_match_the_pre_rewrite_search(budget):
    problem = _diff_problem(("ABCD",), 4, 3, True)
    value, _ = _beam_seed(problem)
    reference = _reference_search(problem, True)
    for collect in (False, True):
        facts = []
        for search in (_dfs, reference):
            state = _Search(value, budget, None)
            search(problem, state, collect=collect)
            facts.append(_search_facts(state))
        assert facts[0] == facts[1], collect
        assert facts[0][0] == budget + 1


@pytest.mark.parametrize("texts, n, d", [(("AMM",), 3, 2), (("ABCD",), 4, 3)])
@pytest.mark.parametrize("mode", [{}, {"collect": True}, {"first": True}])
def test_dfs_entered_stopped_matches_the_pre_rewrite_search(texts, n, d, mode):
    # a pass entered after the stop visits no node and counts nothing; only
    # the root's bound, every line, is left open
    problem = _diff_problem(texts, n, d, True)
    value, _ = _beam_seed(problem)
    facts = []
    for search in (_dfs, _reference_search(problem, True)):
        state = _Search(value, None, None)
        state.nodes, state.bound_prunes, state.symmetry_prunes = 7, 5, 3
        state.stopped = True
        search(problem, state, **mode)
        facts.append(_search_facts(state))
    assert facts[0] == facts[1]
    assert facts[0][:5] == (7, 5, 3, problem.L, True)


@pytest.mark.parametrize("start", [0, 5000])
def test_clock_cadence_matches_the_pre_rewrite_search(monkeypatch, start):
    # a fake clock reads 0, 1, 2, ..., so a deadline of 2.5 passes at the
    # fourth read: node 4 * 4,096 from a fresh state, and from one that has
    # counted 5,000 nodes already (a witness pass) the fourth multiple of
    # 4,096 past it
    problem = _diff_problem(("ABCD",), 4, 3, True)
    value, _ = _beam_seed(problem)
    got = []
    for search in (_dfs, _reference_search(problem, True)):
        monkeypatch.setattr(time, "monotonic", itertools.count().__next__)
        state = _Search(value, node_budget=None, deadline=2.5)
        state.nodes = start
        search(problem, state)
        got.append(_search_facts(state))
    assert got[0] == got[1]
    assert got[0][0] == (start // 4096 + 4) * 4096


@pytest.mark.parametrize("text, n, d, symmetry", [
    ("AMM", 3, 3, True), ("AM", 2, 4, True), ("AMM", 3, 2, False), ("AAMM", 4, 2, True),
])
def test_enumeration_from_below_the_optimum_keeps_only_leaves_at_it(
        monkeypatch, text, n, d, symmetry):
    # started two below the beam's value, with no construction seed, the
    # enumeration reaches leaves below the optimum before it raises the
    # incumbent to it; those leaves must not survive into the classes
    cfg = SolveConfig(enumerate_witnesses=True, symmetry=symmetry)
    w = Word.from_string(text)
    want = solve(w, n, d, cfg)
    beam, dfs = solver_mod._beam_seed, solver_mod._dfs
    passes = []

    def lowered(problem):
        value, leaf = beam(problem)
        return value - 2, leaf

    def recording(problem, state, **mode):
        start = state.incumbent
        dfs(problem, state, **mode)
        passes.append((problem, start, state))

    monkeypatch.setattr(solver_mod, "_beam_seed", lowered)
    monkeypatch.setattr(solver_mod, "best_construction", lambda w, d: None)
    monkeypatch.setattr(solver_mod, "_dfs", recording)
    got = solve(w, n, d, cfg)
    assert (got.classes, got.canonical_text()) == (want.classes, want.canonical_text())
    ((problem, start, state),) = passes
    assert start < state.incumbent == got.lower
    assert state.collected
    assert all(_leaf_value(problem, blob) == got.lower for blob in state.collected)
