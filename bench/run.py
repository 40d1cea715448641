"""Seeded benchmark for mfkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports mfkit from the checkout's
``src`` and builds the workload's op list from the seed (see workloads.py),
then runs the list in a closed loop -- one client, one op at a time -- in
whole passes until about ``--seconds`` have gone.  Every op's canonical
output is hashed; on the default seed the hashes must match
bench/references.json, on any seed they must agree across passes, and each
op's own check must hold.  A failed check or an unexpected exception counts
as a failed op.

Times are calibrated.  On small shared hosts the speed of the same
interpreter work swings by up to 2x, in spells from milliseconds to
minutes, as neighbours come and go; a raw median then says more about when
a run happened than about the code.  So a fixed calibration task that runs
no mfkit code runs at short intervals, and each time is multiplied by the
task's mean speed -- reference time over measured time -- within
CALIBRATION_WINDOW_S of the call.  In process the task is a piece of
Fraction and dict work, the kind of work mfkit does, run every 50 ms from
an interval timer, during the timed calls as well (IN_PROCESS); for the CLI
workload, whose time is mostly child processes, it is starting ``python -c
pass`` between calls (SUBPROCESS).  A time is thus reported as it would read
on a machine where the task takes its reference time.  The run record keeps the uncalibrated metrics too.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate and the last line
holds the per-layer metrics of the traced passes (see tracer.py); their
counts must repeat exactly from pass to pass.  ``--seconds`` defaults to
``run_seconds`` of BENCHMARK.json.  A full record of the run goes to
``.bench_out/runs/`` and the spans of the first traced pass to
``.bench_out/spans/``.  The exit code is 0 when a result was printed,
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
STARTUP_PAIRS = 15
CALIBRATION_WINDOW_S = 0.25

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("poly", "matrices", "matfac", "tensor", "exterior", "unit", "homotopy", "cli")


class Modules:
    """The freshly imported mfkit modules, by layer name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"mfkit.{name}"))

    def by_layer(self) -> dict:
        return {name: getattr(self, name) for name in MODULES} | {
            "mfkit": sys.modules["mfkit"]}


def fresh_import() -> Modules:
    for name in [n for n in sys.modules if n == "mfkit" or n.startswith("mfkit.")]:
        del sys.modules[name]
    importlib.import_module("mfkit")
    return Modules()


def _calibration_work() -> dict:
    acc = {}
    third = Fraction(1, 3)
    for i in range(100):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + third * (i % 11)
    return acc


def _interpreter_start() -> None:
    _python("pass")


def _python(code: str) -> None:
    # With a timeout, subprocess polls for the child's exit at intervals
    # that grow to 50 ms; reading its output to the end sees the exit at
    # once, as for the CLI ops.
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   capture_output=True)


# (task, reference seconds, seconds between runs, whether it interrupts the
# timed calls).  The references are about the tasks' times on an unloaded
# 2-core x86-64 Linux VM with CPython 3.11.
IN_PROCESS = (_calibration_work, 0.0004, 0.05, True)
SUBPROCESS = (_interpreter_start, 0.04, 0.3, False)


class Clock:
    """Times calls and calibrates the times against the machine's speed.

    The calibration task runs every ``period`` seconds.  An interrupting
    task runs from a SIGALRM interval timer, inside the timed calls too, so
    a long call is calibrated by the machine's speed while it ran; its own
    time is taken out of the call's.  The other task runs between calls.
    """

    def __init__(self, task, reference, period, interrupts):
        self.task, self.reference, self.period = task, reference, period
        self.interrupts = interrupts
        self.stamps = []   # when each calibration ran
        self.samples = []  # its seconds
        self.paused = 0.0  # seconds spent in the task
        self.recalibrate()

    def __enter__(self):
        if self.interrupts:
            signal.signal(signal.SIGALRM, lambda *_: self.recalibrate())
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.interrupts:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def recalibrate(self) -> None:
        start = perf_counter()
        self.task()
        end = perf_counter()
        self.stamps.append(end)
        self.samples.append(end - start)
        self.paused += perf_counter() - start

    def time(self, fn):
        """Run ``fn``; returns (result, error, start, seconds)."""
        paused = self.paused
        start = perf_counter()
        try:
            result, error = fn(), None
        except Exception as e:  # an unexpected error is a failed op
            result, error = None, f"{type(e).__name__}: {e}"
        elapsed = perf_counter() - start - (self.paused - paused)
        if not self.interrupts and perf_counter() - self.stamps[-1] >= self.period:
            self.recalibrate()
        return result, error, start, elapsed

    def calibrated(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed: times
        the mean speed, reference over sample, in the window around it."""
        end = start + seconds
        # The window, widened to the last calibration before the call and
        # the first one after it.
        lo = min(bisect.bisect_left(self.stamps, start - CALIBRATION_WINDOW_S),
                 max(bisect.bisect_left(self.stamps, start) - 1, 0))
        hi = max(bisect.bisect_right(self.stamps, end + CALIBRATION_WINDOW_S),
                 bisect.bisect_left(self.stamps, end) + 1)
        return seconds * statistics.fmean(self.reference / t for t in self.samples[lo:hi])


def setup(workload: str, seed: int, workdir: Path, clock: Clock):
    """Import plus input generation, repeated; returns (ops, modules,
    [(start, seconds)])."""
    times = []
    for _ in range(SETUP_REPEATS):
        paused = clock.paused
        start = perf_counter()
        mods = fresh_import()
        ops = workloads.WORKLOADS[workload](mods, random.Random(seed), str(workdir))
        times.append((start, perf_counter() - start - (clock.paused - paused)))
    return ops, mods, times


def digest(canon) -> str:
    data = canon if isinstance(canon, bytes) else canon.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs ops, times them and checks their outputs."""

    def __init__(self, ops, references):
        self.ops = ops
        self.references = references
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def run_pass(self, clock, inproc=False, tracer=None) -> list:
        """One pass over the op list; returns (op, start, seconds) per op."""
        timings = []
        for index, op in enumerate(self.ops):
            fn = (op.inproc or op.run) if inproc else op.run
            if tracer is not None:
                fn = (lambda fn=fn, index=index, op=op:
                      tracer.run_op(index, op.id, fn))
            result, error, start, elapsed = clock.time(fn)
            if tracer is not None:
                tracer.on = False
            if error is None:
                error = self.verify(op, result)
            if tracer is not None:
                tracer.on = True
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{op.id}: {error}")
            timings.append((op, start, elapsed))
        return timings

    def verify(self, op, result):
        try:
            problem = op.check(result)
            got = digest(op.canon(result))
        except Exception as e:
            return f"output check raised {type(e).__name__}: {e}"
        if problem is not None:
            return problem
        first = self.digests.setdefault(op.id, got)
        if got != first:
            return "output differs from the previous pass"
        if self.references is not None and self.references.get(op.id) != got:
            return "output hash differs from bench/references.json"
        return None


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload, timings, setup_times, seconds_of, setup_seconds_of) -> dict:
    """The end-to-end metrics; ``seconds_of(start, seconds)`` calibrates
    op times, ``setup_seconds_of`` set-up times."""
    small = [seconds_of(s, t) for op, s, t in timings if op.cls == workloads.SMALL]
    large = [seconds_of(s, t) for op, s, t in timings if op.cls == workloads.LARGE]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "ops_per_s": (len(timings) / (sum(small) + sum(large)), "1/s"),
        "small_p50_ms": (1000 * statistics.median(small), "ms"),
        "small_p90_ms": (1000 * percentile(small, 90), "ms"),
        "large_p50_ms": (1000 * statistics.median(large), "ms"),
        "setup_s": (statistics.median(setup_seconds_of(s, t) for s, t in setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }


def measure(runner, clock, seconds) -> list:
    """Whole passes until the next one would end further past ``seconds``
    than stopping now falls short of it."""
    timings = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        timings.extend(runner.run_pass(clock))
        done = perf_counter()
        if done - start >= seconds - (done - t0) / 2:
            return timings


def startup_times() -> tuple:
    """Seconds of ``python -c pass`` and of importing mfkit.cli on top of
    it, each in a fresh interpreter (uncalibrated).  The two runs of a
    pair follow each other, so the import time is the median of the
    pairs' differences."""
    def run(code):
        start = perf_counter()
        _python(code)
        return perf_counter() - start
    pairs = [(run("pass"), run("import mfkit.cli")) for _ in range(STARTUP_PAIRS)]
    return (statistics.median(bare for bare, _ in pairs),
            statistics.median(full - bare for bare, full in pairs))


def measure_traced(runner, clock, mods, seconds):
    """Alternate untraced and traced passes (in process, also for the CLI
    workload), in pairs, as ``measure`` runs passes; returns the per-layer
    metrics, the spans of the first traced pass, the idle metrics and
    whether the counts repeated."""
    tracer = tracing.Tracer(mods.by_layer())
    untraced, traced, counts, spans, idle = [], [], [], None, None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        untraced.append(runner.run_pass(clock, inproc=True))
        tracer.reset()
        tracer.install()
        try:
            traced.append((runner.run_pass(clock, inproc=True, tracer=tracer),
                           tracer.layer_times()))
        finally:
            tracer.uninstall()
        counts.append(tracer.layer_counts())
        if spans is None:
            spans, idle = tracer.spans, tracer.idle_metrics()
        done = perf_counter()
        if done - start >= seconds - (done - t0) / 2:
            break

    def pass_seconds(timings):
        return (sum(clock.calibrated(s, t) for _, s, t in timings),
                sum(t for _, _, t in timings))

    # A pass's layer times are calibrated by the pass's own factor.
    layer_times = []
    for timings, times in traced:
        calibrated, raw = pass_seconds(timings)
        layer_times.append({name: t * calibrated / raw for name, t in times.items()})
    metrics = {name: (statistics.median(t[name] for t in layer_times), "s")
               for name in layer_times[0]}
    for name, value in counts[0].items():
        metrics[name] = (value, "frac" if name.endswith("_frac") else "count")
    # A property of the checkout rather than of the op list: every
    # workload measures it.
    interpreter, import_s = startup_times()
    metrics["cli.interpreter_s"] = (interpreter, "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(pass_seconds(t)[0] for t, _ in traced)
        / statistics.median(pass_seconds(t)[0] for t in untraced) - 1, "frac")
    return metrics, spans, idle, all(c == counts[0] for c in counts)


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    tmp.replace(path)


def use_checkout_sources() -> bool:
    """Import mfkit from the checkout's src, here and in child interpreters."""
    if not (SRC / "mfkit" / "__init__.py").is_file():
        print(f"bench: no mfkit package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        return 2
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    # Set-up runs in process whatever the workload, and the traced run
    # keeps the CLI workload in process too.
    in_process = Clock(*IN_PROCESS)
    clock = Clock(*SUBPROCESS) if args.workload == "cli" and not args.trace else in_process
    uncalibrated, op_seconds, idle = None, {}, None
    try:
        with in_process:
            ops, mods, setup_times = setup(args.workload, args.seed, workdir, in_process)
        refs = None
        if args.seed == DEFAULT_SEED:
            refs = json.loads(REFERENCES.read_text())["workloads"].get(args.workload, {})
        runner = Runner(ops, refs)
        repeated = True
        if args.trace:
            with clock:
                metrics, spans, idle, repeated = measure_traced(
                    runner, clock, mods, args.seconds)
            write_json(OUT / "spans" / f"{args.workload}-seed{args.seed}.json", {
                "fields": ["id", "parent", "name", "start", "end", "op"],
                "ops": [op.id for op in ops],
                "spans": spans,
            })
        else:
            with clock:
                timings = measure(runner, clock, args.seconds)
            metrics = end_to_end(args.workload, timings, setup_times, clock.calibrated,
                                 in_process.calibrated)
            uncalibrated = end_to_end(args.workload, timings, setup_times,
                                      lambda s, t: t, lambda s, t: t)
            for op, s, t in timings:
                op_seconds.setdefault(op.id, []).append(clock.calibrated(s, t))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    if not repeated:
        runner.failures.append("per-layer counts differ between traced passes")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    write_json(OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failures": runner.failures[:50],
        "digests": runner.digests,
        "ops": [[op.id, op.cls] for op in ops],
        "idle_metrics": idle,
        "op_median_s": {k: statistics.median(v) for k, v in op_seconds.items()},
        "uncalibrated_metrics": uncalibrated and {k: v for k, (v, _) in uncalibrated.items()},
        "setup_s": [t for _, t in setup_times],
        "calibration_s": {"median": statistics.median(clock.samples),
                          "samples": len(clock.samples)},
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
