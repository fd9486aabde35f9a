"""``serve_mix``: a closed-loop client against the in-process server.

One client thread sends one request at a time over loopback TCP to a
``ServerThread`` with an in-memory ``ResultCache`` and a 2-worker pool,
and waits for each reply before sending the next.

A round is 42 whole-module requests over seven modules new to the
server: the suite module of each SPECjvm98-like profile with its
functions renamed for the round, so every round costs the same; the
workload seed draws the order of the requests.  Fourteen are misses: each
module under two (allocator x registers) pairs of
``full``/``chaitin``/``briggs``/``only-coalescing`` x 12/16/24, the same
two for a profile in every round, together covering every pair.
Twenty-eight are hits: each miss repeated twice, later in the same
round.  Rounds never share modules, so every round has the same mix.

After the timed phase, and after ``peak_rss_mb`` is read, an untimed
tail sends per round two spill-stress modules larger than 64 KiB and a
fixed anchor request, then parses the anchor's served allocation back.
The oversize requests and the re-parse fail on two known faults and are
counted in ``failed``; see README.md.
"""

from __future__ import annotations

import json
import logging
import random
import time

from repro.errors import ReproError
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import AllocationOptions
from repro.service import (
    AllocationRequest,
    MachineSpec,
    ResultCache,
    Scheduler,
    ServerThread,
    ServiceClient,
)
from repro.service import scheduler as scheduler_module
from repro.service.protocol import cycles_to_dict, stats_to_dict
from repro.service.scheduler import ALLOCATOR_FACTORIES
from repro.target import make_machine
from repro.workloads import (
    BENCHMARK_NAMES,
    SPEC_PROFILES,
    generate_module,
    make_benchmark,
    spill_stress_module,
)

from checks import interpreter_check, payload_digest, reply_digest_problem
from harness import Op, Patches, StatsTotals, Tracer, pin_threads_to_one_cpu

ALLOCATORS = ("full", "chaitin", "briggs", "only-coalescing")
REGS = (12, 16, 24)
MISSES_PER_MODULE = 2
REPEATS = 2
JOBS = 2

#: fixed (profile, generator seed) of the warm-up and anchor modules
WARMUP = ("jess", 1 << 24)
ANCHOR = ("javac", 1 << 25)
#: the oversize tail: spill-stress modules of over 120 KB of IR each
OVERSIZE = ({"hot_pressure": 20}, {"hot_pressure": 22})

PAYLOAD_KEYS = ("effective_allocator", "code", "stats", "cycles",
                "result_digest")


def _request(rid: str, ir: str, allocator: str, regs: int) -> dict:
    return AllocationRequest(
        id=rid, ir=ir, allocator=allocator, machine=MachineSpec(regs=regs),
        options=AllocationOptions(),
    ).to_wire()


def interleave(chains: list[list], rng: random.Random) -> list:
    """A random merge of ``chains`` that keeps each chain's order."""
    pending = [list(chain) for chain in chains if chain]
    merged = []
    while pending:
        chain = pending[rng.randrange(len(pending))]
        merged.append(chain.pop(0))
        if not chain:
            pending.remove(chain)
    return merged


def build_module(module_id: tuple):
    """The module a request key names.

    ``("round", profile, r)`` is the suite module of ``profile`` with
    every function renamed for round ``r``: new to the cache and the
    prepare memo, yet the same allocation work in every round.
    """
    kind, *args = module_id
    if kind == "round":
        profile, index = args
        module = make_benchmark(profile)
        for func in module.functions:
            func.name = f"{func.name}_r{index}"
        return module
    if kind == "anchor":
        return generate_module(SPEC_PROFILES[ANCHOR[0]], ANCHOR[1])
    return spill_stress_module(**OVERSIZE[args[0]])


class Workload:
    name = "serve_mix"

    def __init__(self, seed: int, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer or Tracer()
        self.server: ServerThread | None = None
        self.client: ServiceClient | None = None
        #: (module id, allocator, regs) -> (digest, quality, round)
        self.served: dict[tuple, tuple] = {}
        self.problems: list[str] = []
        self.failed_ops = 0
        self.timings: dict[str, float] = {}
        self.stats = StatsTotals()
        self._patches = Patches(self.tracer)
        self.unparsed = (0, 0)

    # -- inputs and set-up -------------------------------------------------

    def make_inputs(self) -> None:
        """Inputs are drawn per round (see :meth:`round_plan`)."""

    def round_plan(self, index: int):
        """The round's modules and its ``[(key, hit), ...]`` sequence.

        Every round has the same make-up, whatever the seed and the
        round: one module per profile, new to the server (see
        :func:`build_module`), each requested under the same two
        (allocator, registers) pairs, which share the register count,
        the first pair always first (so the second finds the module
        prepared); and every miss repeated twice.  The workload seed
        draws the interleaving.
        """
        rng = random.Random(f"serve_mix:{self.seed}:{index}")
        combos = [(a, r) for r in REGS for a in ALLOCATORS]
        modules = [("round", profile, index) for profile in BENCHMARK_NAMES]
        chains = []
        for i, module in enumerate(modules):
            keys = [(module,) + combos[(MISSES_PER_MODULE * i + k)
                                       % len(combos)]
                    for k in range(MISSES_PER_MODULE)]
            # The first pair always prepares the module; the rest
            # interleave freely behind it.
            tails = [[(key, True)] * REPEATS for key in keys[:1]] + [
                [(key, False)] + [(key, True)] * REPEATS for key in keys[1:]]
            chains.append([(keys[0], False)] + interleave(tails, rng))
        return modules, interleave(chains, rng)

    def setup(self) -> None:
        cache = ResultCache(max_entries=4096)
        scheduler = Scheduler(cache=cache,
                              options=AllocationOptions(jobs=JOBS))
        self.server = ServerThread(scheduler)
        host, port = self.server.start()
        self.client = ServiceClient(host, port, timeout=120.0)
        profile, gseed = WARMUP
        ir = print_module(generate_module(SPEC_PROFILES[profile], gseed))
        reply = self.client.request(_request("warmup", ir, "full", 16))
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up request failed: {reply.get('error')}")
        pin_threads_to_one_cpu()

    def close(self) -> None:
        self._patches.restore()
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- the timed operations ----------------------------------------------

    def run_round(self, index: int, phase) -> None:
        modules, plan = self.round_plan(index)
        texts = {m: print_module(build_module(m)) for m in modules}
        wires = {key: _request(f"r{index}-{n}", texts[key[0]], key[1],
                               key[2])
                 for n, (key, hit) in enumerate(plan) if not hit}
        payloads: dict[tuple, str] = {}
        for key, hit in plan:
            self.tracer.op_id = len(phase.ops)
            t0 = time.perf_counter()
            try:
                reply = self.client.request(wires[key])
            except ReproError as err:
                elapsed = time.perf_counter() - t0
                reply = {"ok": False, "error": str(err)}
            else:
                elapsed = time.perf_counter() - t0
            phase.ops.append(Op(elapsed, hit))
            self._observe(key, hit, reply, elapsed, payloads, index)
            phase.speed.sample()

    def _observe(self, key, hit, reply, elapsed, payloads, index) -> None:
        if not reply.get("ok"):
            self.failed_ops += 1
            self.problems.append(f"{key}: request failed: "
                                 f"{reply.get('error')}")
            return
        problem = reply_digest_problem(reply)
        if problem:
            self.problems.append(problem)
        if bool(reply.get("cached")) != hit:
            kind = "a repeat" if hit else "new"
            self.problems.append(f"{key}: cached={reply.get('cached')} but "
                                 f"the request was {kind}")
        payload = json.dumps([reply.get(k) for k in PAYLOAD_KEYS],
                             sort_keys=True)
        if hit:
            if payloads.get(key) != payload:
                self.problems.append(f"{key}: hit differs from its miss")
        else:
            payloads[key] = payload
            self.served[key] = (reply["result_digest"], (
                reply["cycles"]["total"], reply["stats"]["spill_instructions"],
                reply["stats"]["moves_remaining"]), index)
        if self.tracer.active:
            timings = reply.get("timings", {})
            for name in ("wait_s", "parse_s", "prepare_s", "allocate_s",
                         "total_s"):
                self.timings[name] = self.timings.get(name, 0.0) \
                    + timings.get(name, 0.0)
            self.timings["transport_s"] = self.timings.get(
                "transport_s", 0.0) + elapsed - timings.get("total_s", 0.0)

    # -- after the timed phase ---------------------------------------------

    def round_length(self) -> int:
        return len(BENCHMARK_NAMES) * MISSES_PER_MODULE * (1 + REPEATS)

    def tail(self, rounds: int) -> tuple[int, int]:
        """Per round: the oversize requests, the anchor, its re-parse."""
        oversize = [print_module(build_module(("oversize", n)))
                    for n in range(len(OVERSIZE))]
        anchor_ir = print_module(build_module(("anchor",)))
        attempted = failed = 0
        asyncio_log = logging.getLogger("asyncio")
        level = asyncio_log.level
        # The oversize fault logs a traceback per request on the server.
        asyncio_log.setLevel(logging.CRITICAL)
        try:
            for r in range(rounds):
                for n, ir in enumerate(oversize):
                    key = (("oversize", n), "full", 16)
                    attempted += 1
                    if not self._tail_request(key, _request(
                            f"tail{r}-{n}", ir, "full", 16), r):
                        failed += 1
                attempted += 1
                reply = self._tail_request(
                    (("anchor",), "full", 16),
                    _request(f"anchor{r}", anchor_ir, "full", 16), r)
                if not reply:
                    failed += 1
                    self.problems.append("the anchor request failed")
                attempted += 1
                if not reply or not self._reparses(reply["code"]):
                    failed += 1
        finally:
            asyncio_log.setLevel(level)
        return attempted, failed

    def _tail_request(self, key, wire, index) -> dict | None:
        try:
            reply = self.client.request(wire)
        except ReproError:
            return None  # the oversize fault: the server drops the line
        if not reply.get("ok"):
            return None
        problem = reply_digest_problem(reply)
        if problem:
            self.problems.append(problem)
        seen = self.served.get(key)
        if seen is None:
            self.served[key] = (reply["result_digest"], None, index)
        elif seen[0] != reply["result_digest"]:
            self.problems.append(f"{key}: repeat differs from first reply")
        return reply

    @staticmethod
    def _reparses(code: str) -> bool:
        try:
            return print_module(parse_module(code)) == code
        except ReproError:
            return False

    def check(self) -> list[str]:
        """Every served allocation equals a direct serial allocation of
        the same request, whose functions pass the interpreter check."""
        problems = list(self.problems)
        machines = {}
        unparsed = 0
        for key, (digest, _quality, _round) in sorted(self.served.items(),
                                                      key=str):
            module_id, allocator, regs = key
            module = build_module(module_id)
            machine = machines.setdefault(regs, make_machine(regs))
            prepared = prepare_module(module, machine)
            run = allocate_module(prepared, machine,
                                  ALLOCATOR_FACTORIES[allocator](),
                                  AllocationOptions(jobs=1))
            code = "\n\n".join(print_function(r.func) for r in run.results)
            want = payload_digest(allocator, code, stats_to_dict(run.stats),
                                  cycles_to_dict(run.cycles))
            if want != digest:
                problems.append(f"{key}: served allocation differs from a "
                                f"direct allocate_module")
            for raw, result in zip(module.functions, run.results):
                problems.extend(interpreter_check(raw, result.func, machine,
                                                  self.seed))
            if not self._reparses(code):
                unparsed += 1
        self.unparsed = (unparsed, len(self.served))
        return problems

    def quality(self, rounds: int) -> dict:
        entries = [q for _d, q, r in self.served.values()
                   if q is not None and r < rounds]
        return {"cycles_total": sum(e[0] for e in entries),
                "spill_insts": sum(e[1] for e in entries),
                "moves_remaining": sum(e[2] for e in entries)}

    def notes(self) -> list[tuple[str, str]]:
        return [
            ("requests per round", f"{self.round_length()} "
             f"(two repeats per miss) + 4 in the tail"),
            ("distinct served allocations that do not parse back "
             "(diagnostic, not counted)", f"{self.unparsed[0]} of "
             f"{self.unparsed[1]}"),
        ]

    # -- tracing -------------------------------------------------------------

    def begin_trace(self) -> None:
        """Wrap the calls the server makes into the scheduler module and
        the cache in spans for a block of traced rounds."""
        self._patches.wrap(scheduler_module, "request_fingerprint",
                           "service.fingerprint")
        self._patches.wrap(scheduler_module, "prepare_module",
                           "pipeline.prepare")
        self._patches.wrap(self.server.scheduler.cache, "get",
                           "service.cache_get")
        self.stats.start(self.client.stats()["metrics"])

    def end_trace(self) -> None:
        self.stats.stop(self.client.stats()["metrics"])
        self._patches.restore()

    def layers(self, phase) -> tuple[dict, float]:
        n = len(phase.ops)
        per_op = {name: 1000.0 * total / n
                  for name, total in self.timings.items()}
        dispatch_ms = 1000.0 * self.stats.phases.get("dispatch", 0.0) / n
        ms = {
            "service.transport_ms": per_op.get("transport_s", 0.0),
            "service.wait_ms": per_op.get("wait_s", 0.0),
            "service.parse_ms": per_op.get("parse_s", 0.0),
            "service.fingerprint_ms":
                1000.0 * self.tracer.total("service.fingerprint") / n,
            "service.cache_get_ms":
                1000.0 * self.tracer.total("service.cache_get") / n,
            "service.prepare_ms": per_op.get("prepare_s", 0.0),
            "service.allocate_ms": per_op.get("allocate_s", 0.0),
        }
        attributed = sum(ms.values())
        ms["pipeline.prepare_ms"] = \
            1000.0 * self.tracer.total("pipeline.prepare") / n
        ms["exec.dispatch_ms"] = dispatch_ms
        ms["exec.worker_wait_ms"] = ms["service.allocate_ms"] - dispatch_ms
        counters = self.stats.counters
        ms["service.cache_hits"] = counters.get("cache_hits", 0)
        ms["service.cache_misses"] = counters.get("cache_misses", 0)
        ms["exec.jobs"] = counters.get("pool.jobs_submitted", 0)
        ms["exec.respawns"] = counters.get("pool.respawns", 0)
        return ms, attributed
