"""Tests for the branch-and-bound solver against the exhaustive oracle."""

import itertools
import random
import time

import pytest

import wordgrid.solver as solver_mod
from wordgrid.bounds import bracket
from wordgrid.constructions import ConstructionResult, best_construction
from wordgrid.core import Alphabet, Grid, Word, all_points, all_symmetries, point_index
from wordgrid.lines import segment_table
from wordgrid.occurrence import count_word, count_word_set
from wordgrid.solver import (SolveConfig, _canonical_cells, _Problem, _search_letters, _step,
                             solve, solve_oracle, solve_set)

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
    letters, rows = _search_letters([Word.from_string(t) for t in texts])
    problem = _Problem(rows, letters, n, d, symmetry=False)
    rng = random.Random(f"{texts} {n} {d}")
    for _ in range(12):
        bads, live, assigned = 0, problem.L, {}
        assert live == _recount_live(texts, n, d, assigned)
        for depth, cell in enumerate(problem.order):
            a = rng.randrange(problem.A)
            bads, live = _step(problem, bads, problem.masks[depth][a])
            assigned[cell] = letters[a]
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
        letters, rows = _search_letters([w])
        problem = _Problem(rows, letters, n, d, symmetry=False)
        want = _canonical_cells(_first_leaf_reaching(problem, r.lower), problem)
        assert r.complete and r.witnesses[0].cells == want, (text, n, d)


@pytest.mark.parametrize("text, n, d", [("AMM", 3, 3), ("AM", 2, 5)])
def test_canonical_cells_is_least_image(text, n, d):
    # the least image over the group, each element's cell map built point by point
    letters, rows = _search_letters([Word.from_string(text)])
    problem = _Problem(rows, letters, n, d, symmetry=True)
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


@pytest.mark.parametrize("text, n, d, passes", [
    ("ABC", 3, 3, 1), ("AAAMM", 5, 2, 2), ("AMAM", 4, 3, 1),
])
def test_witness_pass_only_when_no_leaf_reached_the_seed(monkeypatch, text, n, d, passes):
    # ABC 3^3 beats its beam seed in the search; AAAMM 5^2's beam seed holds
    # the optimum, so the search prunes every tie and a second pass finds the
    # leaf; AMAM 4^3's seed meets the ceiling, so the witness pass is the only one
    calls = []
    dfs = solver_mod._dfs

    def counting(problem, state):
        calls.append(state.first)
        dfs(problem, state)

    monkeypatch.setattr(solver_mod, "_dfs", counting)
    solve(Word.from_string(text), n, d)
    assert len(calls) == passes


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


def test_elapsed_covers_compile(monkeypatch):
    # the solve clock starts on entry, so compilation is part of `elapsed`
    compile_ = solver_mod._compile

    def slow_compile(*args):
        time.sleep(0.3)
        return compile_(*args)

    monkeypatch.setattr(solver_mod, "_compile", slow_compile)
    r = solve(Word.from_string("AMM"), 3, 2)
    assert r.optimum == 5
    assert r.stats.elapsed >= 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(node_budget=0)
    with pytest.raises(ValueError):
        SolveConfig(time_budget=-1.0)
    with pytest.raises(ValueError):
        SolveConfig(workers=0)


def test_cell_cap():
    with pytest.raises(ValueError):
        solve(Word.from_string("AMM"), 3, 5)  # 243 cells


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


def test_solve_set_two_constant_words():
    ab = Alphabet(("A", "M"))
    words = [Word.from_string("AA", ab), Word.from_string("MM", ab)]
    r = solve_set(words, 2, 2)
    assert r.optimum == 6
    assert count_word_set(words, r.witnesses[0]).total == 6


def test_solve_set_guards():
    with pytest.raises(ValueError):
        solve_set([], 3, 2)
    with pytest.raises(ValueError):
        solve_set([Word.from_string("AMM")], 3, 3)  # 27 cells over the set cap


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
        (True, 28, 28, 3, 31716, 31561, 75),
        "optimum 28\nclasses 3\nwitnesses 3\n"
        "WG1 d=3 n=3 sigma=AM\nAAA\nAMM\nAMM\nAMM\nMMA\nMAM\nMAM\nAMM\nMMA\n"
        "WG1 d=3 n=3 sigma=AM\nAAA\nAMM\nAMM\nAMM\nMMM\nMMA\nAMM\nMMA\nMAM\n"
        "WG1 d=3 n=3 sigma=AM\nAAA\nAMM\nAMM\nMMA\nMMM\nMMA\nMMA\nAMM\nMAM\n",
    ),
    "abc_3d": (
        lambda: solve(_word("ABC"), 3, 3),
        (True, 25, 25, None, 118005, 234406, 534),
        "optimum 25\nclasses unknown\nwitnesses 1\n"
        "WG1 d=3 n=3 sigma=ABC\nAAA\nAAA\nAAA\nABA\nBBB\nCBC\nCCC\nCCC\nCCC\n",
    ),
    "amam_3d": (
        # the parity construction meets the ceiling: only the witness pass runs
        lambda: solve(_word("AMAM"), 4, 3),
        (True, 52, 52, None, 20697, 20526, 81),
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
    "aammm_node_budget": (
        lambda: solve(_word("AAMMM"), 5, 2, SolveConfig(node_budget=3)),
        (False, 8, 10, None, 4, 1, 0),
        "interval 8 10\nclasses unknown\nwitnesses 1\n"
        "WG1 d=2 n=5 sigma=AM\nAAMMM\nAAMMM\nMMAMM\nMMMAA\nMMMAA\n",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_search(key):
    run, expected, text = PINNED[key]
    r = run()
    s = r.stats
    got = (r.complete, r.lower, r.upper, r.classes, s.nodes, s.bound_prunes, s.symmetry_prunes)
    assert got == expected
    assert r.canonical_text() == text
