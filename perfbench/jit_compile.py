"""``jit_compile``: serial, in-process compiles of one method at a time.

The input set is every method of the seven SPECjvm98-like profiles at
generator seeds 0, 1 and 2 (264 methods), each paired with one of the
paper's three pressure models (16, 24 or 32 registers) by a fixed
rotation.  One round compiles every method once, in an order drawn from
the workload seed and the round number; every round compiles the same
methods.  The set is fixed, not drawn from the seed: with seed-drawn
sets, five seeds put the interquartile spread of ``cycles_total`` at
39% of its median, more than any bound can hold (see README.md).

An operation is ``prepare_function`` on a fresh copy of the raw method,
then ``allocate_function`` with the ``full`` allocator,
``verify_allocation`` and ``estimate_cycles``.  ``hit``/``miss`` split
the methods colored in one round from those that needed spill rounds.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from repro.core import PreferenceDirectedAllocator
from repro.ir.clone import clone_function
from repro.ir.printer import print_function
from repro.pipeline import prepare_function
from repro.profiling import profiled
from repro.regalloc import allocate_function, verify_allocation
from repro.sim import estimate_cycles
from repro.target import make_machine
from repro.workloads import BENCHMARK_NAMES, SPEC_PROFILES, generate_module

from checks import interpreter_check
from harness import Op, Tracer

MODELS = (16, 24, 32)
#: generator seeds of the method set; method j of the module generated
#: at seed g gets pressure model (j + g) mod 3, so across the three
#: seeds every method position meets every model
GENERATOR_SEEDS = (0, 1, 2)

#: the warm-up method compiled during set-up (not part of any round)
WARMUP = ("jess", 1 << 24)

#: in-program phase paths per per-layer metric (profiled() table)
PHASE_METRICS = {
    "analysis.renumber_ms": ("renumber",),
    "analysis.analyze_ms": ("analyze",),
    "analysis.reanalyze_ms": ("reanalyze",),
    "core.rpg_ms": ("color/build-RPG",),
    "core.cpg_ms": ("color/CPG",),
    "core.select_ms": ("color/select",),
    "regalloc.simplify_ms": ("color/simplify",),
    "regalloc.spill_insert_ms": ("spill-insert",),
    "regalloc.rewrite_ms": ("rewrite",),
}


def allocate_full(func, machine):
    """The timed allocation: the paper's allocator, every preference."""
    return allocate_function(func, machine, PreferenceDirectedAllocator())


class Workload:
    name = "jit_compile"

    def __init__(self, seed: int, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer or Tracer()
        self.machines = {}
        self.inputs: list = []
        #: input index -> (allocated function, stats, cycles, printed code)
        self.first: dict[int, tuple] = {}
        self.problems: list[str] = []
        self.failed_ops = 0
        self.phases: dict[str, float] = {}
        self.rounds_total = 0
        #: the allocation step of an operation (the self-test swaps it)
        self.allocate = allocate_full

    # -- inputs and set-up -------------------------------------------------

    def make_inputs(self) -> None:
        """The fixed method set; the seed draws each round's order."""
        self.inputs = []
        for gseed in GENERATOR_SEEDS:
            for name in BENCHMARK_NAMES:
                module = generate_module(SPEC_PROFILES[name], gseed)
                for j, func in enumerate(module.functions):
                    self.inputs.append(
                        (func, MODELS[(j + gseed) % len(MODELS)]))

    def setup(self) -> None:
        self.machines = {regs: make_machine(regs) for regs in MODELS}
        name, gseed = WARMUP
        warm = generate_module(SPEC_PROFILES[name], gseed).functions[0]
        self._compile(clone_function(warm), self.machines[16])

    def close(self) -> None:
        pass

    # -- the timed operation -----------------------------------------------

    def _compile(self, func, machine):
        span = self.tracer.span
        with span("pipeline.prepare"):
            prepare_function(func, machine)
        with span("regalloc.allocate"):
            result = self.allocate(func, machine)
        with span("regalloc.verify"):
            verify_allocation(func, machine)
        with span("sim.cycles"):
            cycles = estimate_cycles(func, machine)
        return result, cycles

    def run_round(self, index: int, phase) -> None:
        tracing = self.tracer.active
        order = list(range(len(self.inputs)))
        random.Random(f"jit_compile:{self.seed}:{index}").shuffle(order)
        for i in order:
            raw, regs = self.inputs[i]
            func = clone_function(raw)
            machine = self.machines[regs]
            self.tracer.op_id = len(phase.ops)
            prof_cm = profiled() if tracing else nullcontext()
            t0 = time.perf_counter()
            with self.tracer.span("op"), prof_cm as prof:
                result, cycles = self._compile(func, machine)
            elapsed = time.perf_counter() - t0
            phase.ops.append(Op(elapsed, result.stats.rounds == 1))
            if tracing:
                for path, entry in prof.snapshot().items():
                    self.phases[path] = self.phases.get(path, 0.0) \
                        + entry["s"]
                self.rounds_total += result.stats.rounds
            self._record(i, func, result, cycles)
            phase.speed.sample()

    def _record(self, i, func, result, cycles) -> None:
        text = print_function(func)
        seen = self.first.get(i)
        if seen is None:
            self.first[i] = (func, result.stats, cycles, text)
        elif seen[3] != text:
            self.problems.append(
                f"{func.name}: allocation differs between rounds")

    # -- after the timed phase ---------------------------------------------

    def round_length(self) -> int:
        return len(self.inputs)

    def tail(self, rounds: int) -> tuple[int, int]:
        return 0, 0

    def notes(self) -> list[tuple[str, str]]:
        return [("methods per round", str(len(self.inputs)))]

    def check(self) -> list[str]:
        problems = list(self.problems)
        for i, (func, _stats, _cycles, _text) in sorted(self.first.items()):
            raw, regs = self.inputs[i]
            problems.extend(interpreter_check(raw, func, self.machines[regs],
                                              self.seed))
        if len(self.first) != len(self.inputs):
            problems.append("not every method was compiled")
        return problems

    def quality(self, rounds: int) -> dict:
        # Later rounds repeat the first one's methods (checked equal).
        entries = [self.first[i] for i in sorted(self.first)]
        return {
            "cycles_total": sum(c.total for _, _, c, _ in entries),
            "spill_insts": sum(s.spill_instructions for _, s, _, _ in entries),
            "moves_remaining": sum(s.moves_remaining
                                   for _, s, _, _ in entries),
        }

    # -- tracing -------------------------------------------------------------

    # The phase tables and round counts of traced rounds add up in
    # ``run_round``; a block of traced rounds needs nothing more.

    def begin_trace(self) -> None:
        pass

    def end_trace(self) -> None:
        pass

    def layers(self, phase) -> tuple[dict, float]:
        """Per-operation layer times (ms) and counts over the traced phase,
        plus the attributed share of the mean operation (ms)."""
        n = len(phase.ops)
        t = self.tracer
        ms = {name: 1000.0 * sum(self.phases.get(p, 0.0) for p in paths) / n
              for name, paths in PHASE_METRICS.items()}
        color_children = ("color/build-RPG", "color/CPG", "color/select",
                          "color/simplify")
        ms["regalloc.color_self_ms"] = 1000.0 * (
            self.phases.get("color", 0.0)
            - sum(self.phases.get(p, 0.0) for p in color_children)) / n
        ms["pipeline.prepare_ms"] = 1000.0 * t.total("pipeline.prepare") / n
        ms["regalloc.verify_ms"] = 1000.0 * t.total("regalloc.verify") / n
        ms["sim.cycles_ms"] = 1000.0 * t.total("sim.cycles") / n
        attributed = sum(ms.values())
        counts = {"regalloc.rounds": self.rounds_total}
        return {**ms, **counts}, attributed
