"""Bounds: rule tables, exact formulas, the 1-D optimum, and brackets."""

import itertools
import random

import pytest

from wordgrid.bounds import (
    BoundReport,
    bracket,
    exact_formula,
    exact_formula_d,
    f1_exact,
    f1_subadditivity_check,
    product_grid,
    sandwich_2d,
    upper_bound_2d,
    upper_bound_d,
)
from wordgrid.constructions import best_construction
from wordgrid.core import Word
from wordgrid.occurrence import count_segments_word

W = Word.from_string


def brute_f1(w: Word, n: int) -> int:
    syms = sorted(set(w.symbols))
    fwd, bwd = w.symbols, w.symbols[::-1]
    k = w.n
    best = 0
    for row in itertools.product(syms, repeat=n):
        hits = sum(1 for i in range(n - k + 1)
                   if row[i:i + k] in (fwd, bwd))
        best = max(best, hits)
    return best


def suffix_f1(w: Word, n: int) -> tuple[int, str]:
    """Reference row optimum: a DP whose state is the last k-1 letters placed.

    It has |letters|^(k-1) states, so it serves small words only. The witness
    is the lexicographically smallest optimal row.
    """
    k = w.n
    syms = [w.alphabet.index(ch)
            for ch in sorted(w.alphabet.letters[s] for s in w.letters_used())]
    fwd, bwd = w.symbols, w.symbols[::-1]

    def gain(state: tuple[int, ...], c: int) -> int:
        return 1 if state + (c,) in (fwd, bwd) else 0

    def as_text(state: tuple[int, ...]) -> str:
        return "".join(w.alphabet.letters[s] for s in state)

    states = list(itertools.product(syms, repeat=k - 1))
    # best[t][s]: windows in positions t+1..n given the last k-1 letters are s
    best = {n: dict.fromkeys(states, 0)}
    for t in range(n - 1, k - 2, -1):
        best[t] = {s: max(gain(s, c) + best[t + 1][s[1:] + (c,)] for c in syms)
                   for s in states}
    value = max(best[k - 1].values())
    state = min((s for s in states if best[k - 1][s] == value), key=as_text)
    row, remaining = list(state), value
    for t in range(k, n + 1):
        for c in syms:  # letter-sorted, so the first hit is lex-smallest
            g = gain(state, c)
            if g + best[t][state[1:] + (c,)] == remaining:
                row.append(c)
                state = state[1:] + (c,)
                remaining -= g
                break
    return value, as_text(tuple(row))


def random_word(rng: random.Random, n: int, letters: str = "ABC") -> Word:
    return W("".join(rng.choice(letters) for _ in range(n)))


# ---------------------------------------------------------------- upper bounds

def test_report_rejects_crossed_bounds():
    with pytest.raises(AssertionError):
        BoundReport(lower=7, upper=6, exact=None, applied=())
    with pytest.raises(AssertionError):
        BoundReport(lower=1, upper=6, exact=(9, "x"), applied=())


def test_rule_table_amm():
    r = upper_bound_2d(W("AMM"))
    assert dict(r.applied) == {
        "total": 8,
        "non-palindrome": 6,
        "max-letter": 10,
        "symmetry-defect": 8,
        "letter-ladder": 7,
    }
    assert r.upper == 6  # not tight: the true optimum is 5


def test_rule_table_palindrome():
    r = upper_bound_2d(W("AMA"))
    assert "non-palindrome" not in dict(r.applied)
    assert dict(r.applied)["symmetry-defect"] == 6
    assert r.upper == 6


def test_rule_table_constant_word():
    r = upper_bound_2d(W("AAAA"))
    assert r.upper == 10  # only the total-line count binds


def test_ladder_beats_max_letter_on_skewed_counts():
    # two letters with counts (2n/3, n/3): the second rung wins
    r = dict(upper_bound_2d(W("AAMMMM")).applied)
    assert r["letter-ladder"] < r["max-letter"]


def test_upper_bound_d_values():
    assert upper_bound_d(W("AM"), 3) == 16
    assert upper_bound_d(W("AA"), 2) == 6
    assert upper_bound_d(W("AMM"), 3) == 31  # optimum is 28, so not tight
    with pytest.raises(ValueError):
        upper_bound_d(W("AM"), 0)


def test_no_certified_crossing_on_random_words():
    rng = random.Random(1401)
    for _ in range(60):
        w = random_word(rng, rng.randint(2, 6))
        upper = upper_bound_2d(w).upper
        built = best_construction(w)
        assert built.achieved <= upper, (w.text, built.provenance)


# ---------------------------------------------------------------- exact formulas

def test_exact_formula_frozen():
    assert exact_formula(W("AMM")) == (5, "two-block")
    assert exact_formula(W("AAMMM")) == (8, "two-block")
    assert exact_formula(W("AMAM")) == (8, "antisymmetric")
    assert exact_formula(W("AMA")) == (6, "palindrome")
    assert exact_formula(W("ABC")) is None


def test_two_block_recognized_up_to_reversal_and_renaming():
    assert exact_formula(W("MMMAA")) == (8, "two-block")
    assert exact_formula(W("BAAAA")) == (max(2 * 4 + 1, 4), "two-block")


def test_rare_letters_formula():
    # 8 letters, each once: kmax = 1 <= n/4
    w = W("ABCDEFGH")
    assert exact_formula(w) == (10, "rare-letters")


def test_exact_formula_d():
    assert exact_formula_d(W("AM"), 5) == (256, "antisymmetric")
    assert exact_formula_d(W("AAMM"), 3) == (52, "antisymmetric")
    assert exact_formula_d(W("AMA"), 3) is None


def test_palindrome_formula_matches_construction_sweep():
    rng = random.Random(1402)
    for _ in range(40):
        n = rng.randint(2, 5)
        half = "".join(rng.choice("AM") for _ in range((n + 1) // 2))
        word = half + half[: n // 2][::-1]
        w = W(word)
        value, rule = exact_formula(w)
        assert rule in ("palindrome", "two-block")
        assert best_construction(w).achieved <= value


# ---------------------------------------------------------------- 1-D optimum

def test_f1_frozen_values():
    assert f1_exact(W("ABCD"), 4) == (1, "ABCD")
    assert f1_exact(W("ABCD"), 7) == (2, "ABCDCBA")
    assert f1_exact(W("AB"), 4) == (3, "ABAB")


def test_f1_matches_brute_force():
    rng = random.Random(1403)
    for _ in range(50):
        k = rng.randint(2, 4)
        n = rng.randint(k, 8)
        w = random_word(rng, k)
        assert f1_exact(w, n).value == brute_f1(w, n), (w.text, n)


def test_f1_witness_is_lex_smallest_optimum():
    rng = random.Random(1404)
    for _ in range(20):
        k = rng.randint(2, 3)
        n = rng.randint(k, 7)
        w = random_word(rng, k, letters="AB")
        value, witness = f1_exact(w, n)
        fwd, bwd = w.symbols, w.symbols[::-1]
        syms = sorted(set(w.symbols))
        for row in itertools.product(syms, repeat=n):
            hits = sum(1 for i in range(n - k + 1) if row[i:i + k] in (fwd, bwd))
            if hits == value:
                text = "".join(w.alphabet.letters[s] for s in row)
                assert witness <= text
                break


def test_f1_matches_suffix_dp_reference():
    rng = random.Random(1405)
    cases = []
    for _ in range(1000):
        k = rng.randint(2, 5)
        cases.append((random_word(rng, k), rng.randint(k, 12)))
    # inferred alphabets out of letter order: the witness follows letter text
    for text in ("MAM", "ZAZ", "BAAB"):
        cases += [(W(text), n) for n in range(len(text), 12)]
    for w, n in cases:
        assert f1_exact(w, n) == suffix_f1(w, n), (w.text, n)


def test_f1_long_distinct_letter_words():
    letters = "ABCDEFGHIJKLMNOPQRST"
    for k in (2, 3, 7, 12, 20):
        w = W(letters[:k])
        fwd, bwd = w.text, w.text[::-1]
        for n in (k, k + 1, 2 * k - 1, 3 * k + 5, 60):
            value, witness = f1_exact(w, n)
            assert value == 1 + (n - k) // (k - 1), (k, n)
            assert len(witness) == n
            hits = sum(witness[i:i + k] in (fwd, bwd) for i in range(n - k + 1))
            assert hits == value, (k, n, witness)


def test_f1_rejects_bad_sizes_and_takes_long_words():
    with pytest.raises(ValueError):
        f1_exact(W("ABCD"), 3)
    assert f1_exact(W("ABCDEFGH"), 10).value == 1


def test_f1_density_approaches_one_third():
    value = f1_exact(W("ABCD"), 30).value
    assert abs(value / 30 - 1 / 3) <= 0.15 / 3


def test_subadditivity_on_distinct_letter_words():
    assert f1_subadditivity_check(W("ABCD"), 4)
    assert f1_subadditivity_check(W("ABC"), 5)
    assert f1_subadditivity_check(W("AB"), 3)
    for n in range(4, 12):
        assert f1_subadditivity_check(W("ABCD"), n)
    with pytest.raises(ValueError):
        f1_subadditivity_check(W("AAB"), 5)


# ---------------------------------------------------------------- sandwich

def test_sandwich_frozen():
    assert sandwich_2d(W("AB"), 4) == (12, 48)


def test_sandwich_clamps_degenerate_lower():
    lower, upper = sandwich_2d(W("ABCD"), 4)
    assert lower == 0  # 3n - 4k < 0 pre-clamp
    assert upper > 0


def test_product_grid_count_lies_in_sandwich():
    rng = random.Random(1405)
    for _ in range(30):
        k = rng.randint(2, 4)
        n = rng.randint(k, 9)
        w = random_word(rng, k)
        lower, upper = sandwich_2d(w, n)
        counted = count_segments_word(w, product_grid(w, n))
        assert lower <= counted <= upper, (w.text, n, lower, counted, upper)


# ---------------------------------------------------------------- bracket

def test_bracket_frozen():
    b = bracket(W("AMM"))
    assert (b.lower, b.upper, b.exact) == (5, 6, (5, "two-block"))
    b = bracket(W("AM"), 7)
    assert b.lower == b.upper == 4096
    assert b.exact == (4096, "antisymmetric")
    b = bracket(W("ABC"))
    assert (b.lower, b.upper, b.exact) == (5, 6, None)
    b = bracket(W("AMM"), 1)
    assert (b.lower, b.upper) == (1, 1)


def test_bracket_never_crosses_on_random_words():
    rng = random.Random(1406)
    for _ in range(40):
        w = random_word(rng, rng.randint(2, 5))
        b = bracket(w)
        assert b.lower <= b.upper
        if b.exact is not None:
            assert b.lower <= b.exact[0] <= b.upper
