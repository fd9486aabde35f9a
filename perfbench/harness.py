"""Shared machinery of the benchmark: speed adjustment, rounds, spans.

Nothing here imports ``repro``; the workload modules do.  Times are
``time.perf_counter`` seconds throughout and become milliseconds only
when a metric is reported.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Every run keeps going, in whole rounds, until it has this many timed
#: operations, so each latency p90 rests on at least ten samples past it.
MIN_SAMPLES = 100

# -- the reference loop -----------------------------------------------------

#: Records and passes of one reference-loop sample.
REFERENCE_RECORDS = 600
REFERENCE_PASSES = 4

#: Operations on either side whose reference samples give an
#: operation's local speed factor.
SPEED_WINDOW = 25

#: Median seconds of one reference-loop sample taken between operations
#: on the reference host (2 vCPU, CPython 3.11); a speed factor is a
#: median of samples over this.  See README.md for how it was measured.
REFERENCE_NOMINAL_S = 0.00085


def reference_loop(records: int = REFERENCE_RECORDS,
                   passes: int = REFERENCE_PASSES) -> int:
    """Fixed pure-Python work shaped like the allocator's inner loops.

    Builds small records, then repeatedly files them in a dict under
    string keys, reads them back, and hashes a strided third of them:
    allocation, hashing and dict traffic, which is what the allocator's
    time is made of.  It touches nothing of the program under test, so
    its time tracks only the host's speed.
    """
    items = [(i, str(i), [i]) for i in range(records)]
    table: dict[str, tuple] = {}
    acc = 0
    for _ in range(passes):
        for item in items:
            table[item[1]] = item
            acc += len(item[2]) + (item[0] & 7)
        for key in list(table)[::3]:
            acc ^= hash(table[key][1]) & 0xFF
    return acc


class SpeedMeter:
    """Samples the reference loop between operations.

    ``factor`` is the run's median sample over the nominal time: above 1
    the host ran slower than the reference host, so every measured time
    is divided by it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        if not self.samples:
            raise RuntimeError("no reference-loop samples taken")
        return statistics.median(self.samples) / REFERENCE_NOMINAL_S


def pin_threads_to_one_cpu() -> None:
    """Keep this process's threads (client, server loop, scheduler) on
    one CPU, the one whose speed the client's reference samples follow.

    The client thread takes the reference samples that adjust for the
    host's speed; when the server's threads ran on the other CPU, a slow
    spell on that CPU alone slowed the server's work by 30% while the
    samples moved 5%.  Worker processes started earlier keep every CPU.
    Where affinity cannot be set, threads stay where they are.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        for thread in threading.enumerate():
            os.sched_setaffinity(thread.native_id, {cpu})
    except (AttributeError, OSError):
        pass


# -- statistics ---------------------------------------------------------------


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """High-water resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- operations and rounds ----------------------------------------------------


@dataclass
class Op:
    """One timed operation: its wall seconds and its class.

    ``fast`` splits the operations of a workload in two (cache hit /
    miss, value / structural edit, one-round / spill-round method); the
    split feeds ``hit_p50_ms`` and ``miss_p50_ms``.
    """

    seconds: float
    fast: bool


@dataclass
class Phase:
    """The operations of one timed phase and the speed it ran at."""

    ops: list[Op] = field(default_factory=list)
    rounds: int = 0
    speed: SpeedMeter = field(default_factory=SpeedMeter)

    def op_seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    def adjusted_seconds(self) -> list[float]:
        """Each operation's seconds over the local speed factor.

        The factor of operation ``i`` is the median of the reference
        samples taken after operations ``i - w .. i + w`` (one sample
        follows each operation), so a speed change in the middle of a
        run is followed rather than averaged over.
        """
        samples = self.speed.samples
        out = []
        for i, op in enumerate(self.ops):
            near = samples[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
            out.append(op.seconds * REFERENCE_NOMINAL_S
                       / statistics.median(near))
        return out


def run_rounds(run_round, seconds: float, min_ops: int = 0) -> Phase:
    """Run whole rounds, from round 0, until ``seconds`` have passed and
    ``min_ops`` operations are done.

    The seconds are speed-adjusted wall time, so a slow spell of the
    host stretches the run instead of cutting a round from it, and runs
    of one workload do the same rounds.  ``run_round(index, phase)``
    appends its operations to ``phase.ops`` and samples ``phase.speed``
    after each one.
    """
    phase = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        run_round(index, phase)
        index += 1
        phase.rounds += 1
        if ((time.perf_counter() - start) / phase.speed.factor()
                >= seconds and len(phase.ops) >= min_ops):
            break
    return phase


#: Untraced (False) and traced (True) rounds of a traced run, repeated
#: in this order: both sets see the same host conditions and the same
#: growth of cache and session state, and a steady drift cancels.
TRACE_CYCLE = (False, True, True, False)

#: Cycles a traced run completes at least, however short ``--seconds``:
#: the mean round of either set varies by several percent from round to
#: round, more than tracing costs.
TRACE_MIN_CYCLES = 2


def run_traced(workload, tracer, seconds: float) -> tuple[Phase, Phase]:
    """Whole cycles of :data:`TRACE_CYCLE`, at least
    :data:`TRACE_MIN_CYCLES`, until ``seconds`` of speed-adjusted time
    have passed; returns the untraced and the traced phase.  Round
    indices run on across both, as in an untraced run."""
    phases = {False: Phase(), True: Phase()}
    start = time.perf_counter()
    index = 0
    cycles = 0
    while True:
        for traced in TRACE_CYCLE:
            phase = phases[traced]
            if traced:
                tracer.active = True
                workload.begin_trace()
            workload.run_round(index, phase)
            if traced:
                workload.end_trace()
                tracer.active = False
            index += 1
            phase.rounds += 1
        cycles += 1
        samples = phases[False].speed.samples + phases[True].speed.samples
        factor = statistics.median(samples) / REFERENCE_NOMINAL_S
        if (cycles >= TRACE_MIN_CYCLES
                and (time.perf_counter() - start) / factor >= seconds):
            break
    return phases[False], phases[True]


def timing_metrics(seconds: list[float], fast: list[bool]) -> dict:
    all_ms = [s * 1000.0 for s in seconds]
    fast_ms = [ms for ms, f in zip(all_ms, fast) if f]
    slow_ms = [ms for ms, f in zip(all_ms, fast) if not f]
    return {
        "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "latency_p50_ms": (p50(all_ms), "ms"),
        "latency_p90_ms": (p90(all_ms), "ms"),
        "hit_p50_ms": (p50(fast_ms), "ms"),
        "miss_p50_ms": (p50(slow_ms), "ms"),
    }


def end_to_end(phase: Phase, setups: list[tuple[float, float]],
               rss_mb: float, quality: dict) -> tuple[dict, dict]:
    """The ``end_to_end`` metrics (speed-adjusted) and their raw twins.

    ``setups`` holds each set-up's seconds and the speed factor its own
    process measured (see :func:`measure_setup`).
    """
    fast = [op.fast for op in phase.ops]
    raw = timing_metrics([op.seconds for op in phase.ops], fast)
    adjusted = timing_metrics(phase.adjusted_seconds(), fast)
    raw["setup_s"] = (p50([s for s, _f in setups]), "s")
    adjusted["setup_s"] = (p50([s / f for s, f in setups]), "s")
    adjusted["peak_rss_mb"] = raw["peak_rss_mb"] = (rss_mb, "MB")
    for name in ("cycles_total", "spill_insts", "moves_remaining"):
        adjusted[name] = raw[name] = (quality[name], _QUALITY_UNITS[name])
    return adjusted, raw


_QUALITY_UNITS = {"cycles_total": "cycles", "spill_insts": "count",
                  "moves_remaining": "count"}


# -- set-up time, measured in fresh processes ---------------------------------

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Reference-loop samples each set-up process takes once it is ready.
SETUP_SPEED_SAMPLES = 21


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """Seconds from import to ready, and the speed factor, once per
    fresh child process.

    Each child imports the program and sets the workload up exactly as
    the measuring process does (server, pool, warm-up, sessions), then
    reports the elapsed time and the speed factor of
    :data:`SETUP_SPEED_SAMPLES` reference samples of its own, and tears
    everything down.  The factor is the child's own, taken where and
    when its set-up ran: the timed phase's factor follows the state of
    the measuring process as well as the host's speed (over ten
    ``jit_compile`` runs it moved from 0.55 to 0.96 while the raw set-up
    times did not follow it).
    """
    samples = []
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    for _ in range(SETUP_REPEATS):
        # Its own session, so that on a timeout the probe's pool workers
        # and resource tracker are killed with it.
        proc = subprocess.Popen(
            [sys.executable, str(probe), workload],
            cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"set-up probe for {workload} timed out")
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed:\n{stderr[-2000:]}")
        seconds, factor = stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(factor)))
    return samples


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop multiprocessing's resource-tracker process, if this process
    started one, and wait for it to end.

    The worker pool's dispatch puts jobs in shared memory, which starts
    the tracker; left alone it outlives this process.  Call this after
    the workload is closed: a pool worker still alive would hold the
    tracker's pipe open.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)  # end of its input: the tracker exits
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass  # already waited for


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded from the benchmark's own files.

    A span has a name, start, end, the id of the span that caused it and
    the id of the operation (request) it belongs to.  Spans opened on
    another thread (the in-process server) carry the operation id set by
    the client before it sent the request; with one connection at a time
    that attribution is exact.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = False
        self.op_id: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {"name": name, "op": self.op_id,
                  "parent": stack[-1]["id"] if stack else None,
                  "thread": threading.current_thread().name, **attrs}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def total(self, name: str) -> float:
        """Seconds summed over the closed spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and "end" in s)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=None))


def wrap_in_span(tracer: Tracer, name: str, func):
    """``func`` with each call recorded as a span called ``name``."""

    def traced(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)

    traced.__wrapped__ = func
    return traced


class Patches:
    """Attributes replaced by span-recording wrappers for the traced
    rounds, and the originals :meth:`restore` puts back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap_in_span(self.tracer, span, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StatsTotals:
    """What the server's ``stats`` reply gained over the traced rounds.

    :meth:`start` and :meth:`stop` take the reply's ``metrics`` before
    and after each block of traced rounds; the gains are summed, so the
    untraced rounds in between count for nothing.  ``phases`` holds
    seconds per ``alloc_phases`` path, ``counters`` the service counters
    and, prefixed ``pool.``, the worker pool's.
    """

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._before: dict | None = None

    def start(self, metrics: dict) -> None:
        self._before = metrics

    def stop(self, metrics: dict) -> None:
        before, self._before = self._before, None
        for path, entry in metrics["alloc_phases"].items():
            was = before["alloc_phases"].get(path, {"s": 0.0})["s"]
            self.phases[path] = self.phases.get(path, 0.0) + entry["s"] - was
        for prefix, snapshot in (("", _counters), ("pool.", _pool_counters)):
            was = snapshot(before)
            for name, value in snapshot(metrics).items():
                key = prefix + name
                self.counters[key] = (self.counters.get(key, 0)
                                      + value - was.get(name, 0))


def _counters(metrics: dict) -> dict:
    return metrics["counters"]


def _pool_counters(metrics: dict) -> dict:
    return metrics.get("worker_pool", {}).get("counters", {})


def phase_sum(table: dict[str, float], *paths: str) -> float:
    return sum(table.get(path, 0.0) for path in paths)


# -- output -------------------------------------------------------------------


def print_table(title: str, rows: list[tuple[str, str]]) -> None:
    print(f"== {title}")
    width = max((len(name) for name, _ in rows), default=0)
    for name, text in rows:
        print(f"  {name:<{width}}  {text}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
