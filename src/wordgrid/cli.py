"""Command-line surface.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 budget-limited (incomplete) solver result.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .bounds import bracket, f1_exact
from .constructions import (
    best_construction,
    counterpoint_grid,
    cross_grid,
    parity_grid,
    quad_grid,
    rows_grid,
    stripe_grid,
)
from .core import Grid, GridFormatError, Word, parse_grid, serialize_grid
from .lines import count_lines, count_segments, enumerate_lines, enumerate_segments, format_line
from .occurrence import count_word, estimate_fraction
from .solver import SolveConfig, solve, solve_set
from .verify import run_suite

SERIALIZE_CAP = 65536


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_grid(path: str) -> Grid:
    return parse_grid(Path(path).read_text())


def _emit(header: list[str], grid: Grid, out: str | None) -> None:
    """Print the header lines, then the grid as WG1 to stdout or to `out`.

    The grid is materialized first, so a grid over SERIALIZE_CAP is refused
    before anything is written.
    """
    text = serialize_grid(grid.to_dense(SERIALIZE_CAP))
    for line in header:
        print(line)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_count(args: argparse.Namespace) -> int:
    w = Word.from_string(args.word)
    grid = _load_grid(args.grid)
    report = count_word(w, grid, collect_matches=args.matches)
    print(f"total {report.total}")
    for weight in sorted(report.per_weight):
        print(f"weight {weight}: {report.per_weight[weight]}")
    if args.matches:
        for line in report.matches:
            print(format_line(line))
    return 0


def cmd_lines(args: argparse.Namespace) -> int:
    per_weight, total = count_lines(args.n, args.d)
    if args.weight is not None and args.weight not in per_weight:
        raise ValueError(f"weight {args.weight} out of [1, d={args.d}]")
    if args.list:
        for line in enumerate_lines(args.n, args.d, weight=args.weight):
            print(format_line(line))
        return 0
    for weight in sorted(per_weight):
        if args.weight is None or weight == args.weight:
            print(f"weight {weight}: {per_weight[weight]}")
    if args.weight is None:
        print(f"total {total}")
    return 0


def cmd_segments(args: argparse.Namespace) -> int:
    total = count_segments(args.n, args.d, args.k)
    if args.list:
        for seg in enumerate_segments(args.n, args.d, args.k):
            pts = ",".join(str(x) for x in seg.p)
            vec = ",".join(str(x) for x in seg.v)
            print(f"{pts} ; {vec} ; k={seg.k}")
        return 0
    print(f"total {total}")
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    w = Word.from_string(args.word)
    method = args.method
    if method == "best":
        result = best_construction(w, args.d)
    elif method == "rows":
        result = rows_grid(w)
    elif method == "cross":
        if not args.letter:
            raise ValueError("cross needs --letter")
        result = cross_grid(w, args.letter)
    elif method == "quad":
        if not args.letters or "," not in args.letters:
            raise ValueError("quad needs --letters A,M")
        a, m = args.letters.split(",", 1)
        result = quad_grid(w, a, m)
    elif method == "stripe":
        result = stripe_grid(w)
    elif method == "parity":
        result = parity_grid(w, args.d)
    else:  # counterpoint: a bare grid, no certificate attached
        _emit(["provenance counterpoint (non-certified)"], counterpoint_grid(w, args.d), args.out)
        return 0
    _emit([f"provenance {result.provenance}", f"guaranteed {result.guaranteed}",
           f"achieved {result.achieved}"], result.grid, args.out)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    w = Word.from_string(args.word)
    report = bracket(w, args.d)
    for rule, value in report.applied:
        print(f"rule {rule}: {value}")
    print(f"lower {report.lower}")
    print(f"upper {report.upper}")
    if report.exact is not None:
        print(f"exact {report.exact[0]} ({report.exact[1]})")
    else:
        print("exact unknown")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = SolveConfig(
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        symmetry=not args.no_symmetry,
        enumerate_witnesses=args.enumerate,
        workers=args.workers,
    )
    if args.words:
        words = [Word.from_string(t) for t in args.words.split(",")]
        n = words[0].n
        result = solve_set(words, n, args.d, cfg)
    else:
        w = Word.from_string(args.word)
        result = solve(w, w.n, args.d, cfg)
    sys.stdout.write(result.canonical_text())
    if args.stats:
        s = result.stats
        print(f"nodes {s.nodes}")
        print(f"bound_prunes {s.bound_prunes}")
        print(f"symmetry_prunes {s.symmetry_prunes}")
        print(f"elapsed {s.elapsed:.3f}s")
    return 0 if result.complete else 3


def cmd_f1(args: argparse.Namespace) -> int:
    w = Word.from_string(args.word)
    result = f1_exact(w, args.n)
    print(f"value {result.value}")
    if args.witness:
        print(f"witness {result.witness}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    w = Word.from_string(args.word)
    grid = _load_grid(args.grid) if args.grid else counterpoint_grid(w, args.d)
    rng = random.Random(args.seed)
    fraction, radius = estimate_fraction(w, grid, samples=args.samples, rng=rng)
    print(f"fraction {fraction:.6f}")
    print(f"radius {radius:.6f}")
    print(f"samples {args.samples}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"check={r.check_id} expected=[{r.expected}] got=[{r.got}] status={status}"
        if r.detail:
            line += f" detail=[{r.detail}]"
        print(line)
        failed += 0 if r.passed else 1
    print(f"suite={args.suite} checks={len(results)} failed={failed}")
    return 2 if failed else 0


# Unfolding uses x1 as depth (1 = front), x2 as row (1 = top), x3 as column
# (1 = left). The net places U above the F face and L F R B in a strip, each
# face drawn as seen from outside the cube.
_FACES = {
    "U": lambda a, b: (4 - a, 1, b),
    "L": lambda a, b: (4 - b, a, 1),
    "F": lambda a, b: (1, a, b),
    "R": lambda a, b: (b, a, 3),
    "B": lambda a, b: (3, a, 4 - b),
    "D": lambda a, b: (a, 3, b),
}


def _face_rows(grid: Grid, face: str) -> list[str]:
    cell = _FACES[face]
    return ["".join(grid.letter_at(cell(a, b)) for b in (1, 2, 3)) for a in (1, 2, 3)]


def cmd_unfold(args: argparse.Namespace) -> int:
    grid = _load_grid(args.grid)
    if (grid.n, grid.d) != (3, 3):
        raise ValueError("unfold requires d=3 n=3")
    up, down = _face_rows(grid, "U"), _face_rows(grid, "D")
    strip = [_face_rows(grid, f) for f in ("L", "F", "R", "B")]
    for row in up:
        print(f"    {row}")
    for a in range(3):
        print(" ".join(face[a] for face in strip))
    for row in down:
        print(f"    {row}")
    print(f"center {grid.letter_at((2, 2, 2))}")
    if args.word:
        w = Word.from_string(args.word)
        print(f"f = {count_word(w, grid).total}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wordgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count lines reading a word in a grid file")
    p.add_argument("--word", required=True)
    p.add_argument("--grid", required=True, help="WG1 grid file")
    p.add_argument("--matches", action="store_true", help="list matched lines")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("lines", help="line tallies per weight")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--weight", type=int)
    p.add_argument("--list", action="store_true", help="print each canonical line")
    p.set_defaults(fn=cmd_lines)

    p = sub.add_parser("segments", help="segment counts for shorter words")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=cmd_segments)

    p = sub.add_parser("construct", help="build a certified grid for a word")
    p.add_argument("--word", required=True)
    p.add_argument("--method", default="best",
                   choices=["best", "rows", "cross", "quad", "stripe", "parity",
                            "counterpoint"])
    p.add_argument("-d", type=int, default=2)
    p.add_argument("--letter", help="selector letter for cross")
    p.add_argument("--letters", help="letter pair a,m for quad")
    p.add_argument("--out", help="write the WG1 grid here instead of stdout")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("bounds", help="lower/upper/exact bounds with rule table")
    p.add_argument("--word", required=True)
    p.add_argument("-d", type=int, default=2)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("solve", help="exact optimum by branch and bound")
    p.add_argument("--word")
    p.add_argument("--words", help="comma-separated word set")
    p.add_argument("-d", type=int, default=2)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted but has no effect: the search is sequential")
    p.add_argument("--enumerate", action="store_true",
                   help="enumerate optimal grids up to symmetry")
    p.add_argument("--node-budget", type=int)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("f1", help="single-row optimum for a short word")
    p.add_argument("--word", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=cmd_f1)

    p = sub.add_parser("estimate", help="sampled fraction of lines reading a word")
    p.add_argument("--word", required=True)
    p.add_argument("-d", type=int, help="dimension of the layered grid (needed without --grid)")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", help="WG1 grid file (default: layered grid for the word)")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("verify", help="run the named checks")
    p.add_argument("--suite", default="fast", choices=["fast", "full"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("unfold", help="cross-shaped net of a 3x3x3 grid")
    p.add_argument("grid", help="WG1 grid file")
    p.add_argument("--word", help="annotate with the word's line count")
    p.set_defaults(fn=cmd_unfold)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve" and bool(args.word) == bool(args.words):
            parser.error("solve needs exactly one of --word or --words")
        if args.command == "estimate" and args.grid is None and args.d is None:
            parser.error("estimate needs -d unless --grid is given")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (GridFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
