"""Benchmark of maskquorum at the paper's scale (n = 1024, p = 1/8).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample_n1024 --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py): sample_n1024, oracle_exact.
All load comes from this one process, through the public API and the
in-process CLI (``maskquorum.cli.main(argv)``); every op's result is checked
against an independent reference (reference.py), and every later pass must
repeat the first pass's results.

A run repeats one fixed block of short ops, pass after pass, for
``--seconds``, and its throughputs divide the work done by the time the ops
took.  The speed of a shared host drifts in phases of seconds to minutes:
a slow phase can slow it by half for 15 s or more, and the mean speed of
one minute can differ from the next by 30%.  Longer runs (hence two
workloads) only average the phases within a run.  So the gated timings,
ops_per_s and setup_s, are scaled to a reference host speed
(``Calibration``): a fixed loop of pure-Python and numpy work runs between
the ops four times a second, and each timing is multiplied by the loop's
speed over the same run relative to REF_LOOPS_PER_S.  On a 2-core Xeon
this cut the run-to-run spread (interquartile range over median) of
ops_per_s from 0.08-0.30 to 0.03-0.09 and of setup_s from 0.11-0.32 to
0.06-0.12.  The measured, unscaled values and the host speed are printed
beside them.

With ``--trace 0`` the run measures with tracing off and prints the
end-to-end metrics.  With ``--trace 1`` it measures for half the time
untraced and for half with spans around every layer (tracer.py), and prints
the per-layer metrics and the tracing overhead.  Every measured call is
single-threaded, so child spans nest in their callers.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A report
(and, when tracing, the spans) is written under .perfbench_out/.
"""

import os

# Numerical libraries stay single-threaded, like every measured call.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sample_n1024", "oracle_exact")
DECLARED = ROOT / "BENCHMARK.json"
# Set-up is timed once before the measured passes and once after each of
# SEGMENTS stretches of them, so that its median spans the whole run.
SEGMENTS = 5
# The reference host speed, in calibration loops per second: close to the
# loop's speed on a 2-core Xeon, so that scaled figures read near measured
# ones there.  The loop runs every CAL_EVERY_S seconds of measuring.
REF_LOOPS_PER_S = 250.0
CAL_EVERY_S = 0.25
# Candidate tail percentiles, highest first; the tail is the highest one with
# at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
THROUGHPUT_NAMES = {
    "mc": "mc_trials_per_s", "flow": "flow_trials_per_s", "exact": "enum_subsets_per_s",
    "oracle": "oracle_specs_per_s", "draw": "sample_draws_per_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Calibration:
    """The host's speed, from a fixed loop timed between the ops.

    The loop does pure-Python arithmetic and a numpy sort, the two kinds of
    work the program does; a shared host slows both when it slows the
    program.  ``speed`` is the loop's rate over REF_LOOPS_PER_S.
    """

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(200_000)
        self.loops, self.seconds = 0, 0.0
        self._last = perf_counter()

    def loop(self) -> None:
        start = perf_counter()
        s = 0
        for k in range(20_000):
            s += k * k % 7
        np.sort(self._array)
        self.loops += 1
        self.seconds += perf_counter() - start
        self._last = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self._last >= CAL_EVERY_S:
            self.loop()

    @property
    def speed(self) -> float:
        return self.loops / self.seconds / REF_LOOPS_PER_S


def setup_time(workload: str) -> float:
    """Program set-up, timed in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


@dataclass
class Timed:
    """One op of the block: its time in every pass and its first result."""
    op: Any
    times: list[float] = field(default_factory=list)
    result: Any = None
    error: str | None = None


def measure(workload, seconds: float, cal: Calibration, tracer=None, segments: int = 1,
            pause=lambda: None) -> list[Timed]:
    """Run passes over the workload's block, closed-loop, for ``seconds`` in
    ``segments`` equal stretches, calling ``pause()`` after each; the first
    pass is always whole.  ``cal`` runs its loop between the ops."""
    timed = [Timed(op) for op in workload.block()]
    i = 0
    for _ in range(segments):
        deadline = perf_counter() + seconds / segments
        while perf_counter() < deadline or not timed[-1].times:
            if i == 0:
                workload.start_pass()
            t = timed[i]
            if tracer is not None:
                tracer.op = i
            start = perf_counter()
            try:
                result, error = t.op.run(), None
            except Exception as exc:  # a raising op is a failed op; keep measuring
                result, error = None, f"{type(exc).__name__}: {exc}"
            t.times.append(perf_counter() - start)
            if len(t.times) == 1:
                t.result, t.error = result, error
            elif t.error is None and error is not None:
                t.error = error
            elif t.error is None and result != t.result:
                t.error = "result differs from the first pass's"
            i = (i + 1) % len(timed)
            cal.tick()
        pause()
    return timed


def verify(timed: list[Timed]) -> list[tuple[Timed, str]]:
    """The failed ops of the block, each with what went wrong."""
    failures = []
    for t in timed:
        error = t.error
        if error is None:
            try:
                if not t.op.check(t.result):
                    error = "wrong result"
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable result: {exc!r}"
        if error is not None:
            failures.append((t, f"{t.op.kind} {t.op.label}: {error}"))
    return failures


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_LADDER:
        index = max(math.ceil(q / 100 * n) - 1, 0)
        if n - 1 - index >= TAIL_BEYOND:
            return ordered[index], q
    return ordered[-1], 100.0


def ops_per_s(timed: list[Timed]) -> float:
    """Ops run per second of the time they took."""
    return sum(len(t.times) for t in timed) / sum(sum(t.times) for t in timed)


def throughputs(timed: list[Timed]) -> dict[str, float]:
    """Work per second of each op kind."""
    work: dict[str, float] = {}
    spent: dict[str, float] = {}
    for t in timed:
        work[t.op.kind] = work.get(t.op.kind, 0) + t.op.work * len(t.times)
        spent[t.op.kind] = spent.get(t.op.kind, 0.0) + sum(t.times)
    return {kind: work[kind] / spent[kind] for kind in work}


def describe(timed: list[Timed], out) -> None:
    """Runs and median times of the ops of each input, for the report."""
    by_label: dict[tuple, list[float]] = {}
    for t in timed:
        by_label.setdefault((t.op.kind, t.op.label), []).extend(t.times)
    for (kind, label), times in by_label.items():
        out(f"#   {kind:<8} {label:<40} runs={len(times):<5} "
            f"median={statistics.median(times):.6g} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maskquorum" / "__init__.py").is_file():
        print(f"error: the maskquorum sources are missing under {SRC}", file=sys.stderr)
        return 2
    # BENCHMARK.json is the one declaration of the metrics a run prints.
    declared = json.loads(DECLARED.read_text())["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    from workloads import WORKLOADS

    def out(line: str) -> None:
        print(line, flush=True)

    env = environment()
    out(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    out("# env " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup_samples = [setup_time(args.workload)]
    import maskquorum as mq
    import maskquorum.cli as cli

    workload = WORKLOADS[args.workload]()
    workload.setup(mq)
    check_failures = workload.prepare(mq, cli, args.seed)
    probe = workload.probe

    # A traced run gives half its time to each of its two measurements.
    seconds = args.seconds / 2 if args.trace else args.seconds
    cal = Calibration()
    timed = measure(workload, seconds, cal, segments=SEGMENTS,
                    pause=lambda: setup_samples.append(setup_time(args.workload)))
    # Read before any check runs, so the references' own work stays out.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out(f"# setup_s samples (fresh interpreters): {[round(t, 4) for t in setup_samples]}")
    check_failures += workload.late_checks()
    traced, tracer, traced_cal = [], None, Calibration()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced = measure(workload, seconds, traced_cal, tracer)
    op_failures = verify(timed) + verify(traced)
    failures = check_failures + [msg for _, msg in op_failures]
    # An op that fails in one pass counts as failed in all of them.
    attempted = sum(len(t.times) for t in timed + traced)
    failed = sum(len(t.times) for t, _ in op_failures)
    correct = not failures

    times = [x for t in timed for x in t.times]
    rates = throughputs(timed)
    tail_value, tail_q = tail(times)
    probe_attempted = 1 if probe else 0
    probe_failed = 1 if probe and probe["failed"] else 0
    out(f"# ops={len(times)} in {len(timed[0].times)} passes of {len(timed)}, by input:")
    describe(timed, out)
    out(f"# measured, not scaled to the reference speed; host speed {cal.speed:.4g} "
        f"({cal.loops} calibration loops)")
    out(f"{'ops_per_s (measured)':<28} {ops_per_s(timed):.6g} 1/s")
    out(f"{'setup_s (measured)':<28} {statistics.median(setup_samples):.6g} s")
    for kind, rate in rates.items():
        out(f"{THROUGHPUT_NAMES.get(kind, kind + '_calls_per_s'):<28} {rate:.6g} 1/s")
    # Op latencies are printed but not gated: a workload's ops differ in
    # size by up to 10^4 times, so its percentiles jump with the mix.
    out(f"{'op_p50_s':<28} {statistics.median(times):.6g} s  (n={len(times)})")
    out(f"{'op_tail_s':<28} {tail_value:.6g} s  (p{tail_q:g}, n={len(times)})")
    out(f"{'fail_ratio':<28} {(failed + probe_failed) / (attempted + probe_attempted):.6g}  "
        f"({failed + probe_failed} of {attempted + probe_attempted}, "
        f"known-failure probe {probe_failed} of {probe_attempted})")
    if probe:
        out(f"# probe {json.dumps(probe)}")
    for line in failures[:20]:
        out(f"# FAILED {line}")

    if args.trace:
        traced_times = [x for t in traced for x in t.times]
        untraced_rate = ops_per_s(timed) / cal.speed
        traced_rate = ops_per_s(traced) / traced_cal.speed
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracing.summarize(tracer.spans, traced_times).items()}
        metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {
            "value": (untraced_rate - traced_rate) / untraced_rate * 100, "unit": "%"}
        metrics["probe.mpath_mc.failed"] = {"value": probe_failed, "unit": "count"}
        metrics["host.speed"] = {"value": cal.speed, "unit": "ratio"}
    else:
        # Both timings are scaled to the reference host speed by the speed
        # over the run (see Calibration); the set-ups are spread over it.
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples) * cal.speed, "unit": "s"},
            "ops_per_s": {"value": ops_per_s(timed) / cal.speed, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    emitted = {name: m["unit"] for name, m in metrics.items()}
    expected = {m["name"]: m["unit"] for m in declared}
    if emitted != expected:
        raise RuntimeError(f"metrics {emitted} differ from the declared {expected}")
    for name, m in metrics.items():
        out(f"{name:<56} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"args": vars(args), "env": env, "setup_samples_s": setup_samples,
              "throughputs_per_s": {THROUGHPUT_NAMES.get(k, k): v for k, v in rates.items()},
              "op_p50_s": statistics.median(times), "op_tail_s": tail_value,
              "tail_percentile": tail_q, "ops": len(times), "failures": failures,
              "probe": probe, "metrics": metrics, "host_speed": cal.speed,
              "op_times_s": {f"{i} {t.op.kind} {t.op.label}": t.times
                             for i, t in enumerate(timed)}}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl"))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
