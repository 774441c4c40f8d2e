"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload on tiny instances, untraced and traced, and checks that
every run is correct and reports every metric BENCHMARK.json names. Then it
runs once with one expected value made wrong and checks that the failure is
counted, and once in a directory holding only BENCHMARK.json and perfbench/,
where the benchmark must refuse to run. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-search", "census", "certify")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names"
    problems = []
    produced: dict[str, set] = {"0": set(), "1": set()}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result, err = bench("--workload", workload, "--seed", "3", "--trace", trace,
                                      "--tiny")
            label = f"{workload} trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}: {err[-500:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            names = spec["end_to_end"] if trace == "0" else spec["per_layer"]
            if set(result["metrics"]) != {m["name"] for m in names}:
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            produced[trace] |= {k for k, v in result["metrics"].items() if v["value"] != 0}
            print(f"ok {label}: {result['attempted']} results checked")
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        idle = {m["name"] for m in spec[key]} - produced[trace]
        # per-op solver timings name full-size instances that tiny runs skip
        idle = {name for name in idle if not (name.startswith("solver.")
                                               and name.endswith((".s", ".nodes")))}
        if idle:
            problems.append(f"{key} metrics no tiny run measured: {sorted(idle)}")

    for workload in WORKLOADS:
        code, result, err = bench("--workload", workload, "--seed", "3", "--trace", "0",
                                  "--tiny", "--inject-failure")
        if code != 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: the altered expected value was not counted as failed")
        else:
            print(f"ok {workload}: altered expected value counted, {result['failed']} failed")

    bare = HERE / "runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
        code, result, _ = bench("--workload", "census", "--seed", "1", "--trace", "0", cwd=bare)
        if code == 0 or result is not None:
            problems.append("without the package source the benchmark still reported a result")
        else:
            print(f"ok bare directory: exit {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
