"""The three workloads: their inputs, timed ops, expected values and metrics.

Each workload defines
  inputs(pkg, seed, tiny)   what the ops consume, generated from the seed;
  expected(pkg, inp)        expected outputs from paths the ops do not time,
                            plus a count of reference cross-checks and the
                            ones that disagreed;
  ops(pkg, inp, tracer)     the timed calls, each with its check;
  metrics(records)          per-layer values of one pass.

`pkg` is a namespace of the package's modules. Ops call the package through
module attributes (`pkg.occurrence.count_word`) so the tracer's wrappers see
them. `tiny` shrinks every instance so the self-test runs in seconds.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    """One timed call. `check(out, expected)` returns one message per wrong
    result; `size` is the number of results the op produces."""

    name: str
    layer: str
    phase: int
    run: Callable[[], Any]
    check: Callable[[Any, Any], list[str]]
    size: int = 1
    facts: Callable[[Any], dict] = field(default=lambda out: {})


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _total(records: list[dict], prefix: str, key: str = "s") -> float:
    if key == "s":
        return sum(r["s"] for r in records if r["name"].startswith(prefix))
    return sum(r["facts"].get(key, 0) for r in records if r["name"].startswith(prefix))


def _symbols(word_text: str, alphabet) -> tuple[int, ...]:
    return tuple(alphabet.index(ch) for ch in word_text)


def _list_check(got: list, want: list, label: str) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} results, expected {len(want)}"] * len(want)
    return [f"{label}[{i}]: got {g}, expected {w}" for i, (g, w) in enumerate(zip(got, want))
            if g != w]


# ---------------------------------------------------------------- exact-search

# (key, words, n, d, enumerate witnesses, known optimum, known class count).
# AMAM is binary antisymmetric, so its optimum is the closed-form ceiling;
# AAAMM is two-block (optimum max(2(n-k)+1, 4k)); AMM 3^3 with its three
# classes is acceptance criterion 3; the others are the frozen optima the
# complete search has always returned.
PANEL = (
    ("abc33", ("ABC",), 3, 3, False, 25, None),
    ("amam43", ("AMAM",), 4, 3, False, 52, None),
    ("amma43", ("AMMA",), 4, 3, False, 52, None),
    ("amm33_enum", ("AMM",), 3, 3, True, 28, 3),
    ("aaamm52", ("AAAMM",), 5, 2, False, 8, None),
    ("set_abcd_abdc42", ("ABCD", "ABDC"), 4, 2, False, 6, None),
)
PANEL_TINY = (
    ("amm32", ("AMM",), 3, 2, False, 5, None),
    ("aaamm52", ("AAAMM",), 5, 2, False, 8, None),
    ("set_abcd_abdc42", ("ABCD", "ABDC"), 4, 2, False, 6, None),
)
W2_KEYS = ("abc33", "amam43")
W2_KEYS_TINY = ("amm32",)
BUDGET = ("abcd43", "ABCD", 4, 3, 300_000)
BUDGET_TINY = ("abcd43", "ABCD", 4, 3, 5_000)


def search_inputs(pkg, seed: int, tiny: bool) -> dict:
    W = pkg.core.Word.from_string
    panel = [(key, [W(t) for t in texts], n, d, enum, opt, classes)
             for key, texts, n, d, enum, opt, classes in (PANEL_TINY if tiny else PANEL)]
    key, text, n, d, budget = BUDGET_TINY if tiny else BUDGET
    return {"panel": panel, "w2": W2_KEYS_TINY if tiny else W2_KEYS,
            "budget": (key, W(text), n, d, budget)}


def search_expected(pkg, inp: dict) -> tuple[dict, int, list[str]]:
    exp = {}
    for key, _, _, _, _, opt, classes in inp["panel"]:
        exp[f"solve.{key}"] = {"optimum": opt, "classes": classes}
        if key in inp["w2"]:
            exp[f"solve_w2.{key}"] = exp[f"solve.{key}"]
    key, w, _, d, _ = inp["budget"]
    exp[f"budget.{key}"] = {"ceiling": ref.ceiling_d(w.text, d)}
    return exp, 0, []


def _recount(grid, words) -> int:
    probes = [_symbols(w.text, grid.alphabet) for w in words]
    return ref.count_lines_reading(grid.cells, grid.n, grid.d, probes)


def _check_solve(words):
    def check(res, exp) -> list[str]:
        opt = exp["optimum"]
        bad = []
        if not (res.complete and res.lower == opt == res.upper):
            bad.append(f"complete={res.complete} interval [{res.lower}, {res.upper}], "
                       f"expected optimum {opt}")
        if exp["classes"] is not None and res.classes != exp["classes"]:
            bad.append(f"{res.classes} classes, expected {exp['classes']}")
        if not res.witnesses:
            bad.append("no witness")
        bad += [f"witness recounts {c}" for c in (_recount(g, words) for g in res.witnesses)
                if c != opt]
        return ["; ".join(bad)] if bad else []
    return check


def _check_budget(w):
    def check(res, exp) -> list[str]:
        bad = []
        if not res.lower <= res.upper or res.lower > exp["ceiling"]:
            bad.append(f"interval [{res.lower}, {res.upper}] against ceiling {exp['ceiling']}")
        if res.complete and res.lower != res.upper:
            bad.append("complete result with an open interval")
        bad += [f"witness recounts {c}, lower {res.lower}"
                for c in (_recount(g, [w]) for g in res.witnesses) if c != res.lower]
        return ["; ".join(bad)] if bad else []
    return check


def _solve_facts(res) -> dict:
    s = res.stats
    return {"nodes": s.nodes, "bound_prunes": s.bound_prunes,
            "symmetry_prunes": s.symmetry_prunes, "elapsed": s.elapsed,
            "lower": res.lower, "upper": res.upper}


def search_ops(pkg, inp: dict, tracer) -> list[Op]:
    solver = pkg.solver
    Config = solver.SolveConfig

    def call(words, n, d, cfg):
        if len(words) == 1:
            return lambda: solver.solve(words[0], n, d, cfg)
        return lambda: solver.solve_set(words, n, d, cfg)

    ops = []
    for key, words, n, d, enum, _, _ in inp["panel"]:
        ops.append(Op(f"solve.{key}", "solver", 0,
                      call(words, n, d, Config(enumerate_witnesses=enum)),
                      _check_solve(words), facts=_solve_facts))
        if key in inp["w2"]:
            ops.append(Op(f"solve_w2.{key}", "solver", 1,
                          call(words, n, d, Config(enumerate_witnesses=enum, workers=2)),
                          _check_solve(words), facts=_solve_facts))
    key, w, n, d, budget = inp["budget"]
    ops.append(Op(f"budget.{key}", "solver", 2,
                  call([w], n, d, Config(node_budget=budget)),
                  _check_budget(w), facts=_solve_facts))
    return ops


def search_metrics(records: list[dict]) -> dict:
    w1 = [r for r in records if r["name"].startswith("solve.")]
    solve_s = sum(r["s"] for r in w1)
    w2_s = _total(records, "solve_w2.")
    nodes = sum(r["facts"].get("nodes", 0) for r in w1)
    bprunes = sum(r["facts"].get("bound_prunes", 0) for r in w1)
    sprunes = sum(r["facts"].get("symmetry_prunes", 0) for r in w1)
    search_s = sum(r["facts"].get("elapsed", 0.0) * r["factor"] for r in w1)
    w2_keys = {r["name"].split(".", 1)[1] for r in records if r["name"].startswith("solve_w2.")}
    w1_same = sum(r["s"] for r in w1 if r["name"].split(".", 1)[1] in w2_keys)
    budget = next((r["facts"] for r in records if r["name"].startswith("budget.")), {})
    out = {
        "solve_s": solve_s,
        "solve_w2_s": w2_s,
        "open_gap": budget.get("upper", 0) - budget.get("lower", 0),
        "solver.nodes": nodes,
        "solver.bound_prunes": bprunes,
        "solver.symmetry_prunes": sprunes,
        "solver.prunes_per_node": _ratio(bprunes + sprunes, nodes),
        "solver.search_s": search_s,
        "solver.outside_search_s": solve_s - search_s,
        "solver.nodes_per_s": _ratio(nodes, search_s),
        "solver.w2_speedup": _ratio(w1_same, w2_s),
        "solver.budget_nodes": budget.get("nodes", 0),
        "solver.open_lower": budget.get("lower", 0),
        "solver.open_upper": budget.get("upper", 0),
    }
    for r in w1:
        key = r["name"].split(".", 1)[1]
        out[f"solver.{key}.s"] = r["s"]
        out[f"solver.{key}.nodes"] = r["facts"].get("nodes", 0)
    return out


# ---------------------------------------------------------------------- census

# (n, d, grid kind). Parity grids have a closed-form count; random grids are
# checked against the stream path. (3,9) is left out: it alone takes 15 s.
TABLES = ((3, 8, "random"), (4, 6, "parity"), (5, 6, "random"), (6, 5, "parity"))
TABLES_TINY = ((3, 4, "random"), (4, 3, "parity"), (5, 3, "random"), (6, 2, "parity"))
SEGMENTS = ((5, 5, 3), (8, 4, 4))
SEGMENTS_TINY = ((5, 3, 3), (8, 2, 4))
ENUMERATED = ((4, 6), (5, 6), (6, 5))
ENUMERATED_TINY = ((4, 3), (5, 3))
SYMMETRY = (4, 4)
SYMMETRY_TINY = (4, 3)
WARM_GRIDS = 100
SEGMENT_GRIDS = 20


def census_inputs(pkg, seed: int, tiny: bool) -> dict:
    core = pkg.core
    rng = np.random.default_rng(seed)
    ab = core.Alphabet(("A", "B"))
    warm_count = 5 if tiny else WARM_GRIDS
    seg_count = 2 if tiny else SEGMENT_GRIDS

    # The seed changes the letters, never the work: counting tries each
    # distinct reading of the word, so every word here reads differently
    # backward, and the second word of a set is neither way the first.
    def text(n: int, avoid: tuple[str, ...] = ()) -> str:
        while True:
            t = "".join("AB"[b] for b in rng.integers(0, 2, n))
            if t != t[::-1] and t not in avoid and t[::-1] not in avoid:
                return t

    def antisymmetric(n: int) -> str:
        half = "".join("AB"[b] for b in rng.integers(0, 2, n // 2))
        return half + "".join("B" if c == "A" else "A" for c in reversed(half))

    def grid(n: int, d: int):
        cells = rng.integers(0, 2, n**d, dtype=np.uint8).tobytes()
        return core.Grid(n=n, d=d, alphabet=ab, cells=cells)

    tables = []
    for n, d, kind in TABLES_TINY if tiny else TABLES:
        w = core.Word.from_string(antisymmetric(n) if kind == "parity" else text(n), ab)
        cold = pkg.constructions.parity_grid(w, d).grid if kind == "parity" else grid(n, d)
        tables.append({"n": n, "d": d, "kind": kind, "word": w, "cold": cold,
                       "other": core.Word.from_string(text(n, (w.text,)), ab),
                       "warm": [grid(n, d) for _ in range(warm_count)]})
    segments = []
    for n, d, k in SEGMENTS_TINY if tiny else SEGMENTS:
        segments.append({"n": n, "d": d, "k": k, "word": core.Word.from_string(text(k), ab),
                         "cold": grid(n, d), "warm": [grid(n, d) for _ in range(seg_count)]})
    n, d = SYMMETRY_TINY if tiny else SYMMETRY
    return {"tables": tables, "segments": segments,
            "enumerated": ENUMERATED_TINY if tiny else ENUMERATED,
            "symmetry": {"grid": grid(n, d), "word": core.Word.from_string(text(n), ab)}}


def _tag(n: int, d: int, k: int | None = None) -> str:
    return f"{n}x{d}" + (f"k{k}" if k else "")


def census_expected(pkg, inp: dict) -> tuple[dict, int, list[str]]:
    """Stream counts for the cold grids, numpy-table counts for the rest.

    The stream path and the numpy tables are compared on each cold grid,
    and the parity grids against their closed form: each comparison is a
    reference check, and each disagreement a failure."""
    exp: dict[str, Any] = {}
    checked, disagree = 0, []
    for t in inp["tables"]:
        n, d, w = t["n"], t["d"], t["word"]
        tag = _tag(n, d)
        probe = [w.symbols]
        stream = pkg.occurrence.count_word(w, t["cold"], lines=pkg.lines.enumerate_lines(n, d)).total
        others = [("numpy table", ref.count_lines_reading(t["cold"].cells, n, d, probe))]
        if t["kind"] == "parity":
            others.append(("closed form", ref.parity_count(n, d)))
        for label, value in others:
            checked += 1
            if value != stream:
                disagree.append(f"cold.{tag}: stream {stream}, {label} {value}")
        checked += 1
        if len(ref.line_table(n, d)) != ref.line_total(n, d):
            disagree.append(f"line table {tag} has the wrong size")
        exp[f"cold.{tag}"] = stream
        keys = [ref.line_keys(g.cells, n, d) for g in t["warm"]]
        both = [w.symbols, t["other"].symbols]
        exp[f"warm.{tag}"] = [ref.count_matching(k, probe) for k in keys]
        exp[f"set.{tag}"] = [ref.count_matching(k, both) for k in keys]
    for s in inp["segments"]:
        n, d, k, w = s["n"], s["d"], s["k"], s["word"]
        tag = _tag(n, d, k)
        checked += 1
        if len(ref.segment_table(n, d, k)) != ref.segment_total(n, d, k):
            disagree.append(f"segment table {tag} has the wrong size")
        exp[f"segcold.{tag}"] = ref.count_segments_reading(s["cold"].cells, n, d, w.symbols)
        exp[f"segwarm.{tag}"] = [ref.count_segments_reading(g.cells, n, d, w.symbols)
                                 for g in s["warm"]]
    for n, d in inp["enumerated"]:
        exp[f"enum.{_tag(n, d)}"] = ref.line_tally(n, d)
    sym = inp["symmetry"]
    g = sym["grid"]
    exp["symmetry"] = ref.count_lines_reading(g.cells, g.n, g.d, [sym["word"].symbols])
    return exp, checked, disagree


def _wg1_text(g) -> str:
    letters = "".join(g.alphabet.letters)
    body = "".join(letters[c] for c in g.cells)
    rows = [body[i:i + g.n] for i in range(0, len(body), g.n)]
    return "\n".join([f"WG1 d={g.d} n={g.n} sigma={letters}"] + rows) + "\n"


def census_ops(pkg, inp: dict, tracer) -> list[Op]:
    occ, lines, core = pkg.occurrence, pkg.lines, pkg.core
    ops = []

    def single(label):
        return lambda got, want: [] if got == want else [f"{label}: got {got}, expected {want}"]

    def listed(label):
        return lambda got, want: _list_check(got, want, label)

    for t in inp["tables"]:
        n, d, w, cold, warm = t["n"], t["d"], t["word"], t["cold"], t["warm"]
        tag, total = _tag(n, d), ref.line_total(n, d)
        both = [w, t["other"]]
        ops.append(Op(f"cold.{tag}", "occurrence", 0,
                      lambda w=w, g=cold: occ.count_word(w, g).total,
                      single(f"cold.{tag}"), facts=lambda out, total=total: {"lines": total}))
        ops.append(Op(f"warm.{tag}", "occurrence", 1,
                      lambda w=w, gs=warm: [occ.count_word(w, g).total for g in gs],
                      listed(f"warm.{tag}"), size=len(warm),
                      facts=lambda out, x=total * len(warm): {"lines": x}))
        ops.append(Op(f"set.{tag}", "occurrence", 1,
                      lambda ws=both, gs=warm: [occ.count_word_set(ws, g).total for g in gs],
                      listed(f"set.{tag}"), size=len(warm),
                      facts=lambda out, x=total * len(warm): {"lines": x}))
    for s in inp["segments"]:
        n, d, k, w = s["n"], s["d"], s["k"], s["word"]
        tag, total = _tag(n, d, k), ref.segment_total(n, d, k)
        ops.append(Op(f"segcold.{tag}", "occurrence", 0,
                      lambda w=w, g=s["cold"]: occ.count_segments_word(w, g),
                      single(f"segcold.{tag}"), facts=lambda out, x=total: {"segments": x}))
        ops.append(Op(f"segwarm.{tag}", "occurrence", 1,
                      lambda w=w, gs=s["warm"]: [occ.count_segments_word(w, g) for g in gs],
                      listed(f"segwarm.{tag}"), size=len(s["warm"]),
                      facts=lambda out, x=total * len(s["warm"]): {"segments": x}))

    def enumerate_tally(n, d):
        tally: dict[int, int] = {}
        with tracer.span("lines", "enumerate_lines"):
            for line in lines.enumerate_lines(n, d):
                tally[line.weight] = tally.get(line.weight, 0) + 1
        return tally

    def check_tally(n, d):
        def check(got, want):
            closed = {int(r): c for r, c in want.items()}
            package = lines.count_lines(n, d)
            if got == closed == package[0] and sum(got.values()) == package[1]:
                return []
            return [f"enum.{_tag(n, d)}: stream {got}, closed form {closed}, "
                    f"count_lines {package}"]
        return check

    for n, d in inp["enumerated"]:
        ops.append(Op(f"enum.{_tag(n, d)}", "lines", 1, lambda n=n, d=d: enumerate_tally(n, d),
                      check_tally(n, d),
                      facts=lambda out: {"enumerated": sum(out.values())}))

    codec_grids = [g for t in inp["tables"] for g in t["warm"]]

    def round_trip():
        texts = [core.serialize_grid(g) for g in codec_grids]
        return [(text, core.parse_grid(text)) for text in texts]

    def check_codec(got, _):
        return [f"codec[{i}] differs" for i, ((text, back), g) in enumerate(zip(got, codec_grids))
                if text != _wg1_text(g) or (back.n, back.d, back.cells, back.alphabet)
                != (g.n, g.d, g.cells, g.alphabet)]

    ops.append(Op("codec", "core", 1, round_trip, check_codec, size=len(codec_grids)))

    sym = inp["symmetry"]
    sg, sw = sym["grid"], sym["word"]
    group_order = 2**sg.d * math.factorial(sg.d)

    def check_symmetry(got, want):
        if len(got) != group_order:
            return [f"symmetry: {len(got)} images, group order {group_order}"] * group_order
        return [f"symmetry[{i}]: count {c}, expected {want}" for i, c in
                enumerate(ref.count_lines_reading(h.cells, h.n, h.d, [sw.symbols]) for h in got)
                if c != want]

    ops.append(Op("symmetry", "core", 1,
                  lambda: [core.apply_symmetry(sg, g) for g in core.all_symmetries(sg.d)],
                  check_symmetry, size=group_order))
    return ops


def census_metrics(records: list[dict]) -> dict:
    cold_s, seg_cold_s = _total(records, "cold."), _total(records, "segcold.")
    warm_s, set_s = _total(records, "warm."), _total(records, "set.")
    seg_warm_s = _total(records, "segwarm.")
    built = _total(records, "cold.", "lines")
    seg_built = _total(records, "segcold.", "segments")
    scanned = (_total(records, "warm.", "lines") + _total(records, "set.", "lines")
               + _total(records, "segwarm.", "segments"))
    return {
        "cold_lines_per_s": _ratio(built + seg_built, cold_s + seg_cold_s),
        "warm_lines_per_s": _ratio(scanned, warm_s + set_s + seg_warm_s),
        "occurrence.cold_s": cold_s,
        "occurrence.lines_built": built,
        "occurrence.segments_cold_s": seg_cold_s,
        "occurrence.segments_built": seg_built,
        "occurrence.warm_s": warm_s,
        "occurrence.set_warm_s": set_s,
        "occurrence.segments_warm_s": seg_warm_s,
        "occurrence.lines_scanned": scanned,
        "lines.enumerate_s": _total(records, "enum."),
        "lines.enumerated": _total(records, "enum.", "enumerated"),
        "core.codec_s": _total(records, "codec"),
        "core.symmetry_s": _total(records, "symmetry"),
    }


# --------------------------------------------------------------------- certify

# The README's CLI examples and the output it prints for them.
README = (
    ("lines", ["lines", "-n", "3", "-d", "2"], "weight 1: 6\nweight 2: 2\ntotal 8\n"),
    ("construct", ["construct", "--word", "AMM", "--method", "best"],
     "provenance cross(M)\nguaranteed 5\nachieved 5\nWG1 d=2 n=3 sigma=AM\nAAA\nAMM\nAMM\n"),
    ("solve", ["solve", "--word", "AMM"],
     "optimum 5\nclasses unknown\nwitnesses 1\nWG1 d=2 n=3 sigma=AM\nAAA\nAMM\nAMM\n"),
    ("f1", ["f1", "--word", "ABCD", "-n", "10", "--witness"], "value 3\nwitness ABCDCBABCD\n"),
    ("estimate", ["estimate", "--word", "AMM", "-d", "12", "--samples", "20000", "--seed", "7"],
     "fraction 0.278450\nradius 0.011509\nsamples 20000\n"),
)
CATALOG = 40
CATALOG_TINY = 5
DIMS = (2, 3, 4, 5)
DIMS_TINY = (2, 3)
ROW_DP = (("ABCDEF", 40), ("ABCDE", 20))
ROW_DP_TINY = (("ABCD", 10), ("ABC", 8))
ESTIMATES = (("amm40", "AMM", 40, 10_000), ("ammam12", "AMMAM", 12, 5_000))
ESTIMATES_TINY = (("amm8", "AMM", 8, 300),)


def certify_inputs(pkg, seed: int, tiny: bool) -> dict:
    W = pkg.core.Word.from_string
    rng = random.Random(seed)
    # Word lengths cycle through 3, 4, 5 and every word uses all three
    # letters, so the seed changes the words but not which constructions
    # apply or how large their grids are.
    catalog = []
    for i in range(CATALOG_TINY if tiny else CATALOG):
        letters = list("AMB") + [rng.choice("AMB") for _ in range(i % 3)]
        rng.shuffle(letters)
        catalog.append(W("".join(letters)))
    estimates = [(key, W(text), pkg.constructions.counterpoint_grid(W(text), d), samples,
                  rng.randrange(2**31))
                 for key, text, d, samples in (ESTIMATES_TINY if tiny else ESTIMATES)]
    (f1_text, f1_n), (sw_text, sw_n) = ROW_DP_TINY if tiny else ROW_DP
    return {"readme": README[:4] if tiny else README, "catalog": catalog,
            "dims": DIMS_TINY if tiny else DIMS, "estimates": estimates,
            "f1": (W(f1_text), f1_n), "sandwich": (W(sw_text), sw_n)}


def certify_expected(pkg, inp: dict) -> tuple[dict, int, list[str]]:
    """Bracket lower bounds are the stream recount of the best construction's
    grid; uppers are the closed-form ceilings at d >= 3 and must contain the
    solver's optimum at d = 2. Estimates are replayed draw by draw."""
    exp: dict[str, Any] = {}
    for d in inp["dims"]:
        rows = []
        for w in inp["catalog"]:
            grid = pkg.constructions.best_construction(w, d).grid.to_dense()
            lower = pkg.occurrence.count_word(
                w, grid, lines=pkg.lines.enumerate_lines(grid.n, d)).total
            if d == 2:
                rows.append({"lower": lower, "optimum": pkg.solver.solve(w, w.n, 2).optimum})
            else:
                rows.append({"lower": lower, "upper": ref.ceiling_d(w.text, d)})
        exp[f"bracket.d{d}"] = rows
    w, n = inp["f1"]
    exp["rowdp.f1"] = {"value": ref.row_optimum_distinct(w.n, n)}
    w, n = inp["sandwich"]
    k = w.n
    f1 = ref.row_optimum_distinct(k, n)
    rows_upper = sum(ref.row_optimum_distinct(k, i) for i in range(k, n + 1))
    exp["rowdp.sandwich"] = [max(0, f1 * (3 * n - 4 * k)), f1 * 2 * n + 4 * rows_upper]
    for key, w, grid, samples, seed in inp["estimates"]:
        exp[f"estimate.{key}"] = {
            "fraction": ref.replay_fraction(grid.rule, w.symbols, grid.d, samples,
                                            random.Random(seed)),
            "radius": ref.hoeffding_radius(samples)}
    return exp, 0, []


def _check_brackets(d: int):
    def check(got, want) -> list[str]:
        if len(got) != len(want):
            return [f"bracket.d{d}: {len(got)} results"] * len(want)
        bad = []
        for i, ((lower, upper, exact), row) in enumerate(zip(got, want)):
            ok = lower == row["lower"] and lower <= upper
            if "upper" in row:
                ok = ok and upper == row["upper"]
            if "optimum" in row:
                ok = ok and lower <= row["optimum"] <= upper
                ok = ok and (exact is None or exact[0] == row["optimum"])
            if not ok:
                bad.append(f"bracket.d{d}[{i}]: got {lower} {upper} {exact}, expected {row}")
        return bad
    return check


def certify_ops(pkg, inp: dict, tracer) -> list[Op]:
    cli, bounds, occ = pkg.cli, pkg.bounds, pkg.occurrence

    def run_cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    ops = []
    for key, argv, text in inp["readme"]:
        ops.append(Op(f"readme.{key}", "cli", 0, lambda argv=argv: run_cli(argv),
                      lambda got, _, key=key, text=text:
                      [] if got == (0, text) else [f"readme.{key}: got {got!r}"]))

    def check_verify(got, _):
        code, text = got
        out = text.splitlines()
        checks = [line for line in out if line.startswith("check=")]
        summary = f"suite=fast checks={len(checks)} failed=0"
        ok = (code == 0 and checks and out[-1] == summary
              and all(" status=PASS" in line for line in checks))
        return [] if ok else [f"verify: exit {code}, last line {out[-1:]}"]

    ops.append(Op("verify_fast", "verify", 0, lambda: run_cli(["verify", "--suite", "fast"]),
                  check_verify))

    catalog = inp["catalog"]
    for d in inp["dims"]:
        def run(d=d):
            return [(r.lower, r.upper, r.exact) for r in (bounds.bracket(w, d) for w in catalog)]
        ops.append(Op(f"bracket.d{d}", "bounds", 0, run, _check_brackets(d), size=len(catalog),
                      facts=lambda out: {"brackets": len(out)}))

    w, n = inp["f1"]

    def check_f1(got, want):
        ok = (got.value == want["value"] and len(got.witness) == n
              and ref.row_windows(got.witness, w.text) == got.value)
        return [] if ok else [f"f1: got {got}, expected value {want['value']}"]

    ops.append(Op("rowdp.f1", "bounds", 0, lambda: bounds.f1_exact(w, n), check_f1))
    sw, sn = inp["sandwich"]
    ops.append(Op("rowdp.sandwich", "bounds", 0, lambda: list(bounds.sandwich_2d(sw, sn)),
                  lambda got, want: [] if got == want else [f"sandwich: got {got}, "
                                                            f"expected {want}"]))

    for key, ew, grid, samples, seed in inp["estimates"]:
        def check_estimate(got, want, key=key):
            fraction, radius = got
            ok = fraction == want["fraction"] and abs(radius - want["radius"]) < 1e-12
            return [] if ok else [f"estimate.{key}: got {got}, expected {want}"]
        ops.append(Op(f"estimate.{key}", "occurrence", 0,
                      lambda ew=ew, grid=grid, samples=samples, seed=seed:
                      occ.estimate_fraction(ew, grid, samples, random.Random(seed)),
                      check_estimate, facts=lambda out, samples=samples: {"samples": samples}))
    return ops


def certify_metrics(records: list[dict]) -> dict:
    estimate_s = _total(records, "estimate.")
    samples = _total(records, "estimate.", "samples")
    return {
        "samples_per_s": _ratio(samples, estimate_s),
        "occurrence.estimate_s": estimate_s,
        "occurrence.samples": samples,
        "occurrence.us_per_sample": _ratio(estimate_s * 1e6, samples),
        "bounds.row_dp_s": _total(records, "rowdp."),
        "bounds.bracket_s": _total(records, "bracket."),
        "bounds.brackets": _total(records, "bracket.", "brackets"),
        "cli.readme_s": _total(records, "readme."),
        "verify.fast_s": _total(records, "verify_fast"),
    }


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    expected: Callable
    ops: Callable
    metrics: Callable


WORKLOADS = {
    "exact-search": Workload(search_inputs, search_expected, search_ops, search_metrics),
    "census": Workload(census_inputs, census_expected, census_ops, census_metrics),
    "certify": Workload(certify_inputs, certify_expected, certify_ops, certify_metrics),
}
