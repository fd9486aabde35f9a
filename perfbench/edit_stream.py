"""``edit_stream``: a chain of single-instruction edits over sessions.

One client opens an ``allocate_delta`` session on each of three fixed
SPEC-like modules (jess, db and javac at generator seed 0; ``full``, 16
registers; server ``jobs=1`` since the delta path never uses the pool),
then streams edits and waits for each reply.  A round is, per module,
three value edits (one integer constant set to a new value) and one
structural edit (a dead constant inserted), in an order drawn from the
workload seed and the round number; a module's four edits of a round
land in one function, its functions taken in turn from a seeded start,
and the seed draws where in the function each edit lands.
``hit``/``miss`` split value edits from structural ones.

Every reply is checked against a from-scratch allocation of that
version.  Functions are allocated independently, so the scratch
allocation of a version is assembled from per-function scratch results
keyed by the function's raw text: one edit costs one function.
"""

from __future__ import annotations

import random
import time

from repro.errors import ReproError
from repro.ir.instructions import ConstInst
from repro.ir.printer import print_function, print_module
from repro.regalloc import AllocationOptions
from repro.service import (
    AllocationRequest,
    MachineSpec,
    Scheduler,
    ServerThread,
    ServiceClient,
)
from repro.service import session as session_module
from repro.target import make_machine
from repro.workloads import make_benchmark

from checks import (
    interpreter_check,
    merged_digest,
    reply_digest_problem,
    scratch_allocation,
)
from harness import (
    Op,
    Patches,
    StatsTotals,
    Tracer,
    phase_sum,
    pin_threads_to_one_cpu,
)

MODULES = ("jess", "db", "javac")
REGS = 16
ALLOCATOR = "full"
VALUE_EDITS = 3
STRUCT_EDITS = 1

#: session sub-phases that re-derive analyses for a structural edit
REANALYSIS_PHASES = ("session/patch", "session/cfg", "session/liveness",
                     "session/interference", "session/spill-costs",
                     "reanalyze")
SESSION_PHASES = ("session/diff", "session/prepare") + REANALYSIS_PHASES[:5]


def _request(rid: str, ir: str, base: str) -> dict:
    return AllocationRequest(
        id=rid, ir=ir, allocator=ALLOCATOR, machine=MachineSpec(regs=REGS),
        options=AllocationOptions(), base_digest=base,
    ).to_wire()


def apply_edit(module, kind: str, rng: random.Random, serial: int) -> None:
    """Edit one instruction of function ``serial`` (mod the count) of
    ``module`` in place."""
    func = module.functions[serial % len(module.functions)]
    if kind == "value":
        sites = [instr for blk in func.blocks for instr in blk.instrs
                 if isinstance(instr, ConstInst)
                 and isinstance(instr.value, int)]
        site = rng.choice(sites)
        value = rng.randrange(1, 64)
        site.value = value if value != site.value else value + 64
    else:
        blk = rng.choice(func.blocks)
        blk.instrs.insert(rng.randrange(len(blk.instrs)),
                          ConstInst(func.new_vreg(), rng.randrange(64)))


def round_edits(seed: int, index: int):
    """The round's ``(module name, kind, function serial)`` list and the
    rng for the edits.

    In round ``r`` all four edits of a module land in its function
    ``start + r``, ``start`` drawn from the seed, so over a run the
    modules' functions are walked in turn and each gets the same mix of
    edits whatever the seed; the seed draws the start, the interleaving
    of the modules' edits and where in the function each edit lands.
    """
    rng = random.Random(f"edit_stream:{seed}:{index}")
    edits = []
    for name in MODULES:
        start = random.Random(f"edit_stream:{seed}:{name}").randrange(1 << 16)
        edits.extend((name, kind, start + index) for kind in
                     ["value"] * VALUE_EDITS + ["struct"] * STRUCT_EDITS)
    rng.shuffle(edits)
    return edits, rng


class Workload:
    name = "edit_stream"

    def __init__(self, seed: int, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer or Tracer()
        self.server: ServerThread | None = None
        self.client: ServiceClient | None = None
        self.modules: dict = {}
        self.tokens: dict[str, str] = {}
        #: per reply: (module, digest, (cycles, spills, moves), round)
        self.replies: list[tuple] = []
        self.rounds_done = 0
        self.problems: list[str] = []
        self.failed_ops = 0
        self.timings: dict[str, float] = {}
        self.stats = StatsTotals()
        self._patches = Patches(self.tracer)
        self.scratch_functions = 0

    # -- set-up: server and sessions -----------------------------------------

    def make_inputs(self) -> None:
        """The modules are fixed; edits are drawn per round."""

    def setup(self) -> None:
        scheduler = Scheduler(options=AllocationOptions(jobs=1))
        self.server = ServerThread(scheduler)
        host, port = self.server.start()
        self.client = ServiceClient(host, port, timeout=120.0)
        for name in MODULES:
            module = make_benchmark(name)
            reply = self.client.request(
                _request(f"open-{name}", print_module(module), ""))
            if not reply.get("ok"):
                raise RuntimeError(f"opening {name}: {reply.get('error')}")
            self.modules[name] = module
            self.tokens[name] = reply["session_digest"]
            self._keep(name, reply, -1)
        pin_threads_to_one_cpu()

    def close(self) -> None:
        self._patches.restore()
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- the timed operations ----------------------------------------------

    def run_round(self, index: int, phase) -> None:
        edits, rng = round_edits(self.seed, index)
        for n, (name, kind, serial) in enumerate(edits):
            module = self.modules[name]
            apply_edit(module, kind, rng, serial)
            wire = _request(f"e{index}-{n}", print_module(module),
                            self.tokens[name])
            self.tracer.op_id = len(phase.ops)
            t0 = time.perf_counter()
            try:
                reply = self.client.request(wire)
            except ReproError as err:
                reply = {"ok": False, "error": str(err)}
            elapsed = time.perf_counter() - t0
            phase.ops.append(Op(elapsed, kind == "value"))
            self._keep(name, reply, index)
            if self.tracer.active:
                timings = reply.get("timings", {})
                for key in ("wait_s", "allocate_s"):
                    self.timings[key] = self.timings.get(key, 0.0) \
                        + timings.get(key, 0.0)
                self.timings["transport_s"] = self.timings.get(
                    "transport_s", 0.0) + elapsed - timings.get("total_s", 0.0)
            phase.speed.sample()
        self.rounds_done = index + 1

    def _keep(self, name: str, reply: dict, index: int) -> None:
        if not reply.get("ok"):
            self.failed_ops += 1
            self.problems.append(f"{name}: edit failed: {reply.get('error')}")
            self.replies.append((name, None, None, index))
            return
        problem = reply_digest_problem(reply)
        if problem:
            self.problems.append(problem)
        self.replies.append((name, reply["result_digest"], (
            reply["cycles"]["total"], reply["stats"]["spill_instructions"],
            reply["stats"]["moves_remaining"]), index))

    # -- after the timed phase ---------------------------------------------

    def round_length(self) -> int:
        return len(MODULES) * (VALUE_EDITS + STRUCT_EDITS)

    def tail(self, rounds: int) -> tuple[int, int]:
        return 0, 0

    def check(self) -> list[str]:
        """Replay the edit chain; compare each reply with scratch."""
        problems = list(self.problems)
        machine = make_machine(REGS)
        memo: dict[str, tuple] = {}
        modules = {name: make_benchmark(name) for name in MODULES}

        def expected(name):
            parts = []
            for func in modules[name].functions:
                text = print_function(func)
                part = memo.get(text)
                if part is None:
                    part = scratch_allocation(func, machine, ALLOCATOR)
                    problems.extend(interpreter_check(func, part[0], machine,
                                                      self.seed))
                    memo[text] = part
                parts.append(part)
            return merged_digest(ALLOCATOR, parts)[0]

        replies = iter(self.replies)
        for name in MODULES:
            self._compare(next(replies), expected(name), problems)
        for index in range(self.rounds_done):
            edits, rng = round_edits(self.seed, index)
            for name, kind, serial in edits:
                apply_edit(modules[name], kind, rng, serial)
                self._compare(next(replies), expected(name), problems)
        self.scratch_functions = len(memo)
        return problems

    @staticmethod
    def _compare(reply, want: str, problems: list[str]) -> None:
        name, digest, _quality, index = reply
        if digest is not None and digest != want:
            problems.append(f"{name} round {index}: served allocation "
                            f"differs from a from-scratch allocation")

    def quality(self, rounds: int) -> dict:
        entries = [q for _n, _d, q, r in self.replies
                   if q is not None and 0 <= r < rounds]
        return {"cycles_total": sum(e[0] for e in entries),
                "spill_insts": sum(e[1] for e in entries),
                "moves_remaining": sum(e[2] for e in entries)}

    def notes(self) -> list[tuple[str, str]]:
        return [("edits per round", f"{self.round_length()} "
                 f"({VALUE_EDITS} value + {STRUCT_EDITS} structural per "
                 f"module)"),
                ("functions allocated from scratch by the check",
                 str(self.scratch_functions))]

    # -- tracing -------------------------------------------------------------

    def begin_trace(self) -> None:
        """Wrap the calls the session layer makes in spans for a block
        of traced rounds."""
        self._patches.wrap(session_module, "parse_module", "service.parse")
        self._patches.wrap(session_module, "verify_allocation",
                           "regalloc.verify")
        self.stats.start(self.client.stats()["metrics"])

    def end_trace(self) -> None:
        self.stats.stop(self.client.stats()["metrics"])
        self._patches.restore()

    def layers(self, phase) -> tuple[dict, float]:
        n = len(phase.ops)
        phases = self.stats.phases

        def ms(*paths):
            return 1000.0 * phase_sum(phases, *paths) / n

        out = {
            "service.transport_ms": 1000.0 * self.timings.get(
                "transport_s", 0.0) / n,
            "service.wait_ms": 1000.0 * self.timings.get("wait_s", 0.0) / n,
            "service.parse_ms":
                1000.0 * self.tracer.total("service.parse") / n,
            "session.diff_ms": ms("session/diff"),
            "session.prepare_ms": ms("session/prepare"),
            "analysis.reanalyze_ms": ms(*REANALYSIS_PHASES),
            "session.self_ms": ms("session") - ms(*SESSION_PHASES),
            "analysis.renumber_ms": ms("renumber"),
            "core.rpg_ms": ms("color/build-RPG"),
            "core.cpg_ms": ms("color/CPG"),
            "core.select_ms": ms("color/select"),
            "regalloc.simplify_ms": ms("color/simplify"),
            "regalloc.color_self_ms": ms("color") - ms(
                "color/build-RPG", "color/CPG", "color/select",
                "color/simplify"),
            "regalloc.spill_insert_ms": ms("spill-insert"),
            "regalloc.rewrite_ms": ms("rewrite"),
            "regalloc.verify_ms":
                1000.0 * self.tracer.total("regalloc.verify") / n,
            "sim.cycles_ms": ms("cycles"),
        }
        attributed = sum(out.values())
        # Views into the attributed figures above, not additions to them.
        out["session.patch_ms"] = ms("session/patch")
        out["service.allocate_ms"] = 1000.0 * self.timings.get(
            "allocate_s", 0.0) / n

        counters = self.stats.counters
        out["session.value_rungs"] = counters["session_patches_value"]
        out["session.struct_rungs"] = counters["session_patches_struct"]
        out["session.rebuilds"] = counters["session_rebuilds"]
        return out, attributed
