"""Constructions: frozen small cases, certificates, and the layered grid."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from wordgrid.bounds import product_grid
from wordgrid.constructions import (
    DENSE_CAP,
    ConstructionResult,
    CounterpointParams,
    PointProfile,
    best_construction,
    _candidates,
    _classify,
    _constant_result,
    _parity_achieved,
    _parity_letters,
    classify_point,
    counterpoint_grid,
    cross_grid,
    few_letter_word,
    flip_line_points,
    is_counter_point,
    parity_grid,
    quad_grid,
    rows_grid,
    sample_counter_point,
    sample_odd_flip_set,
    sigma_parity_check,
    stripe_grid,
)
from wordgrid.core import Grid, Word, word_stats
from wordgrid.lines import count_lines, enumerate_lines
from wordgrid.occurrence import count_segments_word, count_word

W = Word.from_string


def grid_rows(g: Grid) -> list[str]:
    return ["".join(g.alphabet.letters[g.at((i, j))] for j in range(1, g.n + 1))
            for i in range(1, g.n + 1)]


def antisymmetric_words(n: int) -> list[Word]:
    words = []
    for half in itertools.product("AM", repeat=n // 2):
        tail = "".join("M" if c == "A" else "A" for c in reversed(half))
        words.append(W("".join(half) + tail))
    return words


def random_word(rng: random.Random, n: int, letters: str = "ABC") -> Word:
    return W("".join(rng.choice(letters) for _ in range(n)))


# ---------------------------------------------------------------- certificates

def test_result_rejects_uncertified_grid():
    g = rows_grid(W("AMM")).grid
    with pytest.raises(AssertionError):
        ConstructionResult(g, guaranteed=99, achieved=5, provenance="rows")


def test_rows_grid_reads_along_rows_and_diagonals():
    r = rows_grid(W("AMM"))
    assert grid_rows(r.grid) == ["AMM", "AMM", "AMM"]
    assert r.guaranteed == 5
    assert r.achieved == 5


def test_rows_guarantee_holds_over_random_words():
    rng = random.Random(1301)
    for _ in range(60):
        w = random_word(rng, rng.randint(2, 6))
        r = rows_grid(w)
        assert r.achieved >= r.guaranteed == w.n + 2


# ---------------------------------------------------------------- cross

def test_cross_without_mirror_upgrade():
    r = cross_grid(W("BAACA"), "A")
    assert r.guaranteed == 7  # k=3 occurrences, antidiagonal not aligned


def test_cross_with_mirror_upgrade():
    r = cross_grid(W("ABACA"), "A")
    assert r.guaranteed == 8  # every A faces an A, antidiagonal joins in


def test_cross_frozen_grids():
    r = cross_grid(W("AMM"), "M")
    assert grid_rows(r.grid) == ["AAA", "AMM", "AMM"]
    assert (r.guaranteed, r.achieved) == (5, 5)
    r = cross_grid(W("AMA"), "A")
    assert grid_rows(r.grid) == ["AMA", "MMM", "AMA"]
    assert (r.guaranteed, r.achieved) == (6, 6)


def test_cross_rejects_absent_letter():
    with pytest.raises(ValueError):
        cross_grid(W("AMM"), "Z")


def test_cross_guarantee_sweep():
    rng = random.Random(1302)
    for _ in range(60):
        w = random_word(rng, rng.randint(2, 6))
        a = w.alphabet.letters[rng.choice(w.letters_used())]
        r = cross_grid(w, a)
        assert r.achieved >= r.guaranteed >= 2 * 1 + 1


# ---------------------------------------------------------------- quad / stripe

def test_quad_frozen_grid():
    r = quad_grid(W("AMAAM"), "A", "M")
    assert r.guaranteed == 8  # T = {1, 4}
    assert grid_rows(r.grid) == ["AMAAM", "MAAMA", "AAXAA", "AMAAM", "MAAMA"]


def test_quad_rejects_empty_band():
    with pytest.raises(ValueError):
        quad_grid(W("AMA"), "A", "M")  # no A faces an M


def test_quad_cells_never_conflict():
    # every applicable case must agree wherever bands intersect
    rng = random.Random(1303)
    built = 0
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 7))
        for ia, im in itertools.permutations(w.letters_used(), 2):
            a, m = w.alphabet.letters[ia], w.alphabet.letters[im]
            from wordgrid.core import word_stats
            if word_stats(w).t(a, m) == 0:
                continue
            r = quad_grid(w, a, m)
            assert r.achieved >= r.guaranteed
            built += 1
    assert built > 50


def test_stripe_frozen():
    r = stripe_grid(W("AMAAM"))
    assert r.guaranteed == 7
    assert r.achieved == 7


def test_stripe_rejects_nonbinary():
    with pytest.raises(ValueError):
        stripe_grid(W("ABC"))


def test_stripe_guarantee_sweep():
    rng = random.Random(1304)
    for _ in range(80):
        w = random_word(rng, rng.randint(2, 7), letters="AM")
        if len(w.letters_used()) != 2:
            continue
        r = stripe_grid(w)
        assert r.achieved >= r.guaranteed >= w.n


# ---------------------------------------------------------------- parity grid

def test_parity_frozen_small():
    r = parity_grid(W("AM"), 2)
    assert grid_rows(r.grid) == ["AM", "MA"]
    assert (r.guaranteed, r.achieved) == (4, 4)
    assert parity_grid(W("AM"), 3).achieved == 16
    assert parity_grid(W("AAMM"), 2).achieved == 8


def test_parity_rejects_symmetric_words():
    with pytest.raises(ValueError):
        parity_grid(W("AMA"), 2)
    with pytest.raises(ValueError):
        parity_grid(W("ABMM"), 2)  # not binary


def test_parity_count_matches_formula_and_direct_count():
    for n in (2, 4):
        for d in (1, 2, 3):
            for w in antisymmetric_words(n):
                r = parity_grid(w, d)
                want = ((n + 2) ** d - (n - 2) ** d) // 4
                assert r.guaranteed == r.achieved == want
                assert count_word(w, r.grid.to_dense()).total == want


def test_parity_stratified_count_scales_to_huge_grids():
    # 2^19 cells: the stratified count stays exact where enumeration would not
    r = parity_grid(W("AM"), 19)
    assert r.achieved == (4**19 - 0) // 4
    assert r.grid.cells is None
    # at d = 3000 C(d, r) is carried from weight to weight, not recomputed for each
    for word in ("AM", "AMAM"):
        n = len(word)
        assert parity_grid(W(word), 3000).achieved == ((n + 2) ** 3000 - (n - 2) ** 3000) // 4


def _reference_parity_achieved(w: Word, d: int) -> int:
    """`_parity_achieved` as it was before its readings became masks: each of
    the eight readings built position by position, each weight's strata
    summed one u at a time."""
    n = w.n
    sym = w.symbols
    first, other, value_set = _parity_letters(w)
    in_i = [0] * (n + 2)
    for i in value_set:
        in_i[i] = 1
    reads_w = {}
    for key in itertools.product((0, 1), repeat=3):
        beta, u, m = key
        reading = tuple(first if (beta + u * in_i[i] + m * in_i[n - i + 1]) % 2 == 0 else other
                        for i in range(1, n + 1))
        reads_w[key] = reading == sym or reading == sym[::-1]
    z = n - 2 * len(value_set)
    total = 0
    for r in range(1, d + 1):
        fixed = n ** (d - r)
        fixed_even = (fixed + (z ** (d - r))) // 2
        fixed_odd = fixed - fixed_even
        for u in range(1, r + 1):
            patterns = comb(d, r) * comb(r - 1, u - 1)
            for beta, strata in ((0, fixed_even), (1, fixed_odd)):
                if reads_w[beta, u % 2, (r - u) % 2]:
                    total += patterns * strata
    return total


def test_parity_count_matches_the_per_position_reference():
    cases = [(w, d) for n in range(2, 11, 2) for w in antisymmetric_words(n)
             for d in range(1, 13)]
    cases += [(W("AM" * (n // 2)), d) for n in (12, 20, 100, 1000) for d in (1, 2, 3)]
    for w, d in cases:
        want = _reference_parity_achieved(w, d)
        assert _parity_achieved(w.n, d, _parity_letters(w)[2]) == want, (w.text, d)
        # a dense count too where the grid has at most 4,096 cells; (2, 10)
        # to (2, 12) are left out, their line tables take 16 MB and more
        if w.n**d <= 4096 and count_lines(w.n, d)[1] <= 2**18:
            r = parity_grid(w, d)
            assert r.achieved == count_word(w, r.grid.to_dense()).total == want, (w.text, d)


def test_parity_grid_procedural_rule_is_two_coloring():
    r = parity_grid(W("AAMM"), 3)
    g = r.grid
    seen = {g.at(p) for p in itertools.product(range(1, 5), repeat=3)}
    assert seen == {0, 1}


# ---------------------------------------------------------------- special words

def test_few_letter_word_frozen():
    assert few_letter_word(1).text == "AAMM"
    assert few_letter_word(2).text == "AAABCMMM"


def test_few_letter_word_beats_baseline_via_quad():
    for k in (1, 2, 3):
        w = few_letter_word(k)
        n = w.n
        assert n == 4 * k
        from wordgrid.core import word_stats
        assert word_stats(w).kmax == k + 1
        r = quad_grid(w, "A", "M")
        assert r.guaranteed == 4 * (k + 1) > n + 2


def test_few_letter_word_rejects_bad_k():
    with pytest.raises(ValueError):
        few_letter_word(0)
    with pytest.raises(ValueError):
        few_letter_word(14)


def test_product_grid_stacks_optimal_rows():
    g = product_grid(W("ABCD"), 7)
    assert grid_rows(g) == ["ABCDCBA"] * 7
    assert count_segments_word(W("ABCD"), g) >= 2 * (3 * 7 - 4 * 4)


def test_product_grid_refuses_a_word_longer_than_the_side():
    # f1_exact refuses k > n, so product_grid has no check of its own
    with pytest.raises(ValueError, match="^need 2 <= 5 <= 4$"):
        product_grid(W("ABCDE"), 4)


# ---------------------------------------------------------------- layered grid

def test_counterpoint_params_are_exact_rationals():
    p = CounterpointParams.for_grid(3, 40)
    assert p.c == Fraction(39 * 40, 50)
    assert p.k == Fraction(23 * 40, 50)
    assert p.c > p.k


def test_counterpoint_rejects_short_words():
    with pytest.raises(ValueError):
        counterpoint_grid(W("AM"), 5)


def _classify_fraction(prof, params):
    """`_classify` in the construction's Fraction constants: c < tau1 < 1.1c,
    the band 0.99 to 1.01 times (d - tau1)/(n - 2), tau1 <= c and tau_i >= k."""
    n, d = params.n, params.d
    tau1 = prof.tau(1)
    if params.c < tau1 < params.c * Fraction(11, 10):
        lo = Fraction(99, 100) * (d - tau1) / (n - 2)
        hi = Fraction(101, 100) * (d - tau1) / (n - 2)
        if all(lo <= prof.pi[i - 1] <= hi for i in range(2, n)):
            return "counter-point", None
    if tau1 <= params.c:
        cands = [i for i in range(2, (n + 1) // 2 + 1) if prof.tau(i) >= params.k]
        if len(cands) == 1:
            return "band-index", cands[0]
    return "arbitrary", None


def _profiles(n, d):
    """Every profile of a point of [n]^d: the compositions of d into n parts."""
    for cuts in itertools.combinations(range(d + n - 1), n - 1):
        bounds = (-1,) + cuts + (d + n - 1,)
        yield PointProfile(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:])))


def _random_profile(rng, n, d):
    cuts = sorted(rng.randrange(d + 1) for _ in range(n - 1))
    return PointProfile(tuple(b - a for a, b in zip([0] + cuts, cuts + [d])))


def test_integer_classify_matches_fraction_reference_on_every_small_profile():
    branches = set()
    for n in range(3, 7):
        for d in range(1, 11):
            params = CounterpointParams.for_grid(n, d)
            for prof in _profiles(n, d):
                got = _classify(prof, params)
                assert got == _classify_fraction(prof, params), (prof, d)
                branches.add(got[0])
    assert branches == {"counter-point", "band-index", "arbitrary"}


@pytest.mark.parametrize("d", [12, 40, 80])
def test_integer_classify_matches_fraction_reference_on_sampled_profiles(d):
    rng = random.Random(d)
    branches = set()
    for n in (3, 4, 5, 6, 9):
        params = CounterpointParams.for_grid(n, d)
        for _ in range(400):
            prof = _random_profile(rng, n, d)
            got = _classify(prof, params)
            assert got == _classify_fraction(prof, params), (prof, d)
            branches.add(got[0])
    assert "arbitrary" in branches and len(branches) >= 2


def test_counterpoint_params_need_three_values():
    with pytest.raises(ValueError, match="n >= 3"):
        CounterpointParams(2, 4)


def test_classification_is_total_and_deterministic():
    for p in itertools.product(range(1, 4), repeat=3):
        branch = classify_point(p, 3, 3)
        assert branch in ("counter-point", "band-index", "arbitrary")
        assert classify_point(p, 3, 3) == branch


def test_point_profile_invariants():
    rng = random.Random(1305)
    for _ in range(100):
        n = rng.randint(2, 6)
        d = rng.randint(1, 10)
        p = tuple(rng.randint(1, n) for _ in range(d))
        prof = PointProfile.of(p, n)
        assert prof.d == d
        for i in range(1, n + 1):
            assert prof.tau(i) == prof.tau(n - i + 1)


def test_sampled_counter_points_classify_as_such():
    rng = random.Random(1306)
    for d in (12, 40):
        for _ in range(20):
            p = sample_counter_point(3, d, rng)
            assert is_counter_point(p, 3, d)
            assert classify_point(p, 3, d) == "counter-point"


def test_boundary_counts_match_the_fraction_filtered_list():
    # sample_counter_point draws from range(floor(c) + 1, ceil(1.1c)); the
    # reference keeps the integers strictly between c and 1.1c as Fractions
    for n in range(3, 13):
        for d in range(1, 401):
            params = CounterpointParams.for_grid(n, d)
            lo, hi = params.c, params.c * Fraction(11, 10)
            want = [r for r in range(int(lo) + 1, int(hi) + 1) if lo < r < hi]
            tau1_max, cap, _ = params.bounds
            assert list(range(tau1_max + 1, cap)) == want, (n, d)


def test_sampled_counter_points_are_pinned():
    # the points a seeded run returned before the thresholds became integer
    # bounds, and the rng state it left
    rng = random.Random(3303)
    pinned = {
        (3, 12): ["111131322111", "221113113131"],
        (3, 40): ["3233311223311212311133313133313131123121",
                  "1211233121113121331313121111312313311333"],
        (5, 30): ["431521355141114253134151212155", "115552213553413141253412551541"],
        (4, 20): ["14311414432142112311", "41411241344232443144"],
    }
    for (n, d), want in pinned.items():
        got = ["".join(map(str, sample_counter_point(n, d, rng))) for _ in want]
        assert got == want, (n, d)
    assert rng.random() == 0.373152650407815


def test_sampling_fails_when_no_boundary_count_fits():
    with pytest.raises(ValueError, match=r"\(39/50, 429/500\) at d=1"):
        sample_counter_point(3, 1, random.Random(0))


def test_sampling_fails_at_once_when_no_interior_profile_fits():
    # tau1 is 27 or 28 at (7, 60), and no five integers within 1% of their
    # mean sum to 33 or 32, so no counter-point exists; the 100,000 tries took
    # seconds before raising RuntimeError
    rng = random.Random(0)
    state = rng.getstate()
    start = time.monotonic()
    with pytest.raises(ValueError, match=r"^no integer boundary count in \(26, 143/5\) at d=60 "):
        sample_counter_point(7, 60, rng)
    assert time.monotonic() - start < 1.0
    assert rng.getstate() == state  # refused before any draw


def test_flip_lines_from_counter_points_read_the_word():
    rng = random.Random(1307)
    for word in ("AMM", "AMA", "ABC"):
        w = W(word)
        g = counterpoint_grid(w, 12)
        for _ in range(25):
            p = sample_counter_point(3, 12, rng)
            flips = sample_odd_flip_set(p, 3, rng)
            assert len(flips) % 2 == 1
            pts = flip_line_points(p, flips, 3)
            reading = tuple(g.at(q) for q in pts)
            assert reading in (w.symbols, w.symbols[::-1])


def _reference_odd_flip_set(p, n, rng):
    """The Fraction scan `sample_odd_flip_set` replaced with integer arithmetic."""
    boundary = [j for j, x in enumerate(p) if x in (1, n)]
    r = len(boundary)
    s_min = None
    for s in range(1, r + 1):
        if s % 2 == 1 and Fraction(s) >= Fraction(49, 100) * r:
            s_min = s
            break
    if s_min is None:
        raise ValueError("point has no odd flip-set size above the threshold")
    s = rng.choice(list(range(s_min, r + 1, 2)))
    return frozenset(rng.sample(boundary, s))


def test_odd_flip_set_matches_the_fraction_scan():
    # r boundary coordinates, alternately 1 and n, then 3 interior ones, for every r up to 300
    for r in range(301):
        p = tuple(1 + 2 * (j % 2) if j < r else 2 for j in range(r + 3))
        rng, ref_rng = random.Random(r), random.Random(r)
        try:
            want = _reference_odd_flip_set(p, 3, ref_rng)
        except ValueError as exc:
            assert r == 0
            with pytest.raises(ValueError, match=str(exc)):
                sample_odd_flip_set(p, 3, rng)
        else:
            assert sample_odd_flip_set(p, 3, rng) == want, r
        assert rng.getstate() == ref_rng.getstate(), r


def test_flip_line_rejects_interior_coordinates():
    with pytest.raises(ValueError):
        flip_line_points((2, 1, 3), frozenset({0, 1}), 3)


def test_sigma_parity_splits_line_sides():
    rng = random.Random(1308)
    for n, d in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3)):
        odd = [ln for ln in enumerate_lines(n, d) if ln.weight % 2 == 1]
        for ln in rng.sample(odd, min(30, len(odd))):
            assert sigma_parity_check(ln, n)


def test_sigma_parity_rejects_even_weight():
    even = next(ln for ln in enumerate_lines(3, 2) if ln.weight == 2)
    with pytest.raises(ValueError):
        sigma_parity_check(even, 3)


# ---------------------------------------------------------------- dispatch

def test_best_construction_frozen_choices():
    r = best_construction(W("AMM"))
    assert r.provenance == "cross(M)"
    assert r.achieved == 5
    assert grid_rows(r.grid) == ["AAA", "AMM", "AMM"]
    assert best_construction(W("AAMM")).achieved == 8
    assert best_construction(W("AMA")).achieved == 6
    assert best_construction(W("ABC")).achieved == 5


def test_best_construction_high_dimensional_routes():
    r = best_construction(W("AM"), 3)
    assert r.provenance == "parity"
    assert r.achieved == 16
    r = best_construction(W("AAA"), 3)
    assert r.provenance == "constant"
    assert r.achieved == 49
    r = best_construction(W("AMM"), 3)
    assert r.provenance == "counterpoint"
    assert r.guaranteed == 0
    assert r.achieved == count_word(W("AMM"), r.grid.to_dense()).total


def test_best_construction_counts_and_returns_one_counterpoint_grid():
    for text, d in (("AMM", 3), ("ABC", 5), ("ABCA", 4), ("AMAMM", 6), ("AMM", 10)):
        w = W(text)
        r = best_construction(w, d)
        assert r.provenance == "counterpoint"
        assert r.grid.dense and r.grid.n**d <= DENSE_CAP
        assert r.grid.cells == counterpoint_grid(w, d).to_dense().cells
        assert r.achieved == count_word(w, r.grid).total
    # above the cap the grid stays procedural and uncounted
    r = best_construction(W("AMM"), 11)
    assert r.provenance == "counterpoint" and r.achieved == 0
    assert not r.grid.dense and r.grid.permutation_invariant


def test_best_construction_rejects_low_dimension():
    with pytest.raises(ValueError):
        best_construction(W("AMM"), 1)


def test_best_never_loses_to_any_single_builder():
    rng = random.Random(1309)
    for _ in range(40):
        w = random_word(rng, rng.randint(2, 5))
        best = best_construction(w)
        assert best.achieved >= rows_grid(w).achieved
        for ia in w.letters_used():
            a = w.alphabet.letters[ia]
            assert best.achieved >= cross_grid(w, a).achieved


# The ranking best_construction used before it took the first best of
# _candidates: a rank per provenance, then the label.
REFERENCE_RANK = {"cross": 0, "quad": 1, "stripe": 2, "parity": 3, "rows": 4,
                  "constant": 5, "counterpoint": 6}


def reference_key(r: ConstructionResult):
    return (-r.achieved, REFERENCE_RANK[r.provenance.split("(")[0]], r.provenance)


def reference_results(w: Word, d: int) -> list[ConstructionResult]:
    """Every builder that applies to w at d, chosen as best_construction chose them."""
    st = word_stats(w)
    if d > 2:
        results = []
        if st.kmax == w.n:
            results.append(_constant_result(w, d))
        elif st.binary and st.antisymmetric:
            results.append(parity_grid(w, d))
        if w.n >= 3:
            grid = counterpoint_grid(w, d).to_dense()
            results.append(ConstructionResult(grid, guaranteed=0,
                                              achieved=count_word(w, grid).total,
                                              provenance="counterpoint"))
        return results
    results = [rows_grid(w)]
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
    return results


def test_candidates_and_best_match_the_reference_ranking():
    for n in range(2, 6):
        for letters in itertools.product("ABM", repeat=n):
            w = W("".join(letters))
            for d in (2, 3, 4):
                reference = reference_results(w, d)
                candidates = _candidates(w, d)
                # the same builders, listed in the reference's tie-break order
                ranked = sorted(reference, key=lambda r: reference_key(r)[1:])
                assert [r.provenance for r in candidates] == [r.provenance for r in ranked]
                want = min(reference, key=reference_key)
                got = best_construction(w, d)
                assert (got.provenance, got.guaranteed, got.achieved) == \
                    (want.provenance, want.guaranteed, want.achieved), (w.text, d)
                assert got.grid.alphabet == want.grid.alphabet
                assert got.grid.cells == want.grid.cells, (w.text, d)
