"""Benchmark of the wordgrid package: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src`. The run computes the expected outputs once, from paths the
benchmark does not time, then runs passes of the workload, each in a fresh
interpreter (perfbench/passrun.py), until --seconds are used. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, each the
median over passes; with --trace 1 it runs half its time untraced and half
with spans around every layer call, and reports the per-layer metrics. The
last stdout line is the JSON result; the full run record, with raw and
calibration seconds per op, goes to perfbench/runs/.

--tiny shrinks every instance, and --inject-failure alters one expected
value; perfbench/selftest.py uses both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
PASS_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    src = ROOT / "src" / "wordgrid"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def perturb(expected: dict) -> str:
    """Make the first integer of the expected values, in key order, wrong.

    It is lowered far enough to break the inequality checks too (a lower
    bound above a ceiling); returns the name of the op it belongs to."""
    def lower(node):
        if isinstance(node, int) and not isinstance(node, bool):
            return node - 1000
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            new = lower(value)
            if new is not None:
                node[key] = new
                return node
        return None

    for name in sorted(expected):
        new = lower(expected[name])
        if new is not None:
            expected[name] = new
            return name
    raise ValueError("no integer expected value to alter")


def run_pass(args, trace: bool, expected_json: str, index: int) -> dict:
    spans = RUNS / f"{args.workload}-seed{args.seed}-pass{index}-spans.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace))]
    if args.tiny:
        cmd.append("--tiny")
    if trace:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("WORDGRID_THREADS", None)
    try:
        proc = subprocess.run(cmd, input=expected_json, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} timed out after {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass {index} exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    result["traced"] = trace
    return result


def run_passes(args, expected_json: str) -> list[dict]:
    """Untraced passes, then traced ones under --trace 1, at least one each;
    a pass starts only if the longest pass so far still fits the budget."""
    passes: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    plan = [(False, args.seconds / 2 if args.trace else args.seconds)]
    if args.trace:
        plan.append((True, args.seconds))
    for trace, budget in plan:
        first = True
        while first or time.perf_counter() - start + longest <= budget:
            first = False
            t0 = time.perf_counter()
            passes.append(run_pass(args, trace, expected_json, len(passes)))
            longest = max(longest, time.perf_counter() - t0)
            if "error" in passes[-1]:
                return passes
    return passes


def aggregate(spec: dict, passes: list[dict], trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        names = spec["end_to_end"]
    else:
        traced = [p for p in passes if p["traced"]]
        values = {key: statistics.median(p["layers"][key] for p in plain)
                  for key in plain[0]["layers"]}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = statistics.median(p["self_s"][layer] for p in traced)
        values["constructions.best_s"] = statistics.median(
            p["best_construction_s"] for p in traced)
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        names = spec["per_layer"]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every instance")
    parser.add_argument("--inject-failure", action="store_true",
                        help="alter one expected value, to show the checks count it")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wordgrid" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'wordgrid'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    from passrun import load_package
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        pkg = load_package()
    except ImportError as exc:
        return fail(f"cannot import the package: {exc}")
    RUNS.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload]
    try:
        expected, ref_checked, ref_failures = wl.expected(
            pkg, wl.inputs(pkg, args.seed, args.tiny))
    except Exception as exc:  # the package failed on a reference path
        return fail(f"expected values could not be computed: {exc!r}")
    reference_s = time.perf_counter() - t0
    altered = perturb(expected) if args.inject_failure else None

    passes = run_passes(args, json.dumps(expected))
    errors = [p["error"] for p in passes if "error" in p]
    passes = [p for p in passes if "error" not in p]
    attempted = ref_checked + len(errors) + sum(p["attempted"] for p in passes)
    failed = len(ref_failures) + len(errors) + sum(p["failed"] for p in passes)
    if not passes or (args.trace and not any(p["traced"] for p in passes)):
        return fail("no pass completed: " + "; ".join(errors))

    metrics = aggregate(spec, passes, bool(args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "altered_expected_value": altered,
        "machine": machine_facts(), "reference_s": reference_s,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": ref_failures + errors + [f for p in passes for f in p["failures"]],
        "metrics": metrics, "passes": passes,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1))
    for message in record["failures"][:10]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
