"""One pass of one workload in a fresh interpreter.

Reads the expected values as JSON on stdin, imports the package from the
checkout's `src`, builds the inputs (that is set-up), then runs every op in
seeded order. Each op is timed alone and its output is checked after the
timer stops. The last line of stdout is a JSON record of the pass.

Every time is normalized by the speed the interpreter had while it ran.
A timer signal interrupts the pass every PROBE_INTERVAL_S and runs a fixed
pure-Python loop in the same thread. An op's calibration is the median time
of the loops that ran during it; the median, because now and then one loop
stalls for many times its length. Its normalized time is its own time, less
those loops, times REF_CALIBRATION_S / calibration. On a shared VM, host
contention changes the speed of one vCPU by up to half within seconds:
loops run between ops miss most of that, loops run inside the op follow it.

    python3 perfbench/passrun.py --workload census --seed 1 --trace 0 < expected.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent

# Median time of one probe loop on a 2-vCPU Intel Xeon VM (CPython 3.11.7),
# so a normalized second is about one second there.
REF_CALIBRATION_S = 0.0005
PROBE_INTERVAL_S = 0.01
PROBE_STEPS = 3_000


class SpeedProbe:
    """Runs the calibration loop on a timer signal and keeps its times."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_STEPS):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def measure(self, fn):
        """(result or exception, seconds less the probe's, calibration seconds,
        share of the elapsed time that was the op's own)."""
        first = len(self.samples)
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = exc
        elapsed = time.perf_counter() - start
        loops = self.samples[first:] or self.samples[-50:] or [REF_CALIBRATION_S]
        spent = sum(self.samples[first:])
        own = 1 - spent / elapsed if elapsed > 0 else 1.0
        return out, elapsed - spent, statistics.median(loops), own


def load_package() -> types.SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    modules = {name: importlib.import_module(f"wordgrid.{name}") for name in LAYERS}
    origin = Path(modules["core"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"wordgrid was imported from {origin}, not from {ROOT / 'src'}")
    return types.SimpleNamespace(**modules)


def run_pass(workload: str, seed: int, tiny: bool, trace: bool, expected: dict,
             spans_path: Path | None) -> dict:
    probe = SpeedProbe()
    probe.start()
    try:
        return _run_pass(probe, workload, seed, tiny, trace, expected, spans_path)
    finally:
        probe.stop()


def _run_pass(probe: SpeedProbe, workload: str, seed: int, tiny: bool, trace: bool,
              expected: dict, spans_path: Path | None) -> dict:
    def set_up():
        pkg = load_package()
        from workloads import WORKLOADS  # imports numpy, which belongs to set-up

        wl = WORKLOADS[workload]
        return pkg, wl, wl.inputs(pkg, seed, tiny)

    setup, setup_raw, setup_cal, _ = probe.measure(set_up)
    if isinstance(setup, Exception):
        raise setup
    pkg, wl, inp = setup

    tracer = Tracer()
    if trace:
        tracer.install()
    ops = wl.ops(pkg, inp, tracer)
    order = random.Random(seed)
    ops.sort(key=lambda op: (op.phase, order.random()))

    records, failures, span_scales = [], [], []
    attempted = failed = 0
    for i, op in enumerate(ops):
        tracer.op, tracer.active = i, trace
        out, raw, cal, own = probe.measure(op.run)
        tracer.active = False
        factor = REF_CALIBRATION_S / cal
        span_scales.append(factor * own)
        error = f"{op.name}: {out!r}" if isinstance(out, Exception) else None
        facts: dict = {}
        bad = []
        if error is None:
            try:
                bad = op.check(out, expected.get(op.name))
                facts = op.facts(out)
            except Exception as exc:  # a malformed output fails its check
                error = f"{op.name}: check raised {exc!r}"
        attempted += op.size
        failed += op.size if error else min(len(bad), op.size)
        failures += [error] if error else bad[:3]
        records.append({"name": op.name, "layer": op.layer, "raw_s": raw,
                        "calibration_s": cal, "factor": factor, "s": raw * factor,
                        "peak_rss_mb": peak_rss_mb(), "facts": facts})

    result = {
        "setup_raw_s": setup_raw,
        "setup_calibration_s": setup_cal,
        "setup_s": setup_raw * REF_CALIBRATION_S / setup_cal,
        "wall_raw_s": sum(r["raw_s"] for r in records),
        "wall_s": sum(r["s"] for r in records),
        "peak_rss_mb": peak_rss_mb(),
        "probe_samples": len(probe.samples),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "ops": records,
        "layers": wl.metrics(records),
    }
    if trace:
        result["self_s"] = tracer.self_seconds(span_scales)
        result["best_construction_s"] = tracer.inclusive_seconds(
            "constructions", "best_construction", span_scales)
        result["spans"] = len(tracer.spans)
        if spans_path is not None:
            spans_path.write_text(json.dumps(
                {"fields": ["id", "parent", "layer", "name", "op", "start", "end"],
                 "ops": [op.name for op in ops], "spans": tracer.spans}))
    return result


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ru_maxrss would also count the parent's memory, which the kernel
    carries over through fork and exec; VmHWM starts afresh at exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this file")
    args = parser.parse_args()
    expected = json.loads(sys.stdin.read())
    result = run_pass(args.workload, args.seed, args.tiny, bool(args.trace), expected,
                      Path(args.spans) if args.spans else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
