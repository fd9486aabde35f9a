"""Self-test of the benchmark's output checks.

Each case injects one known fault into a run of a workload's own
operation and check code, and requires that the run reports a failed
check, while the same run without the fault reports none:

* ``shared-register``: an allocation that gives two interfering (so
  simultaneously live) values one register, in a ``jit_compile`` round;
  ``verify_allocation`` runs inside the operation and does not catch it,
  the interpreter check does;
* ``dropped-reload``: a spill reload deleted from the allocated code of
  a ``jit_compile`` operation;
* ``flipped-digest``: one hex digit of a served ``result_digest``
  changed before ``serve_mix`` observes the reply.

Inputs are fixed, not drawn from a seed.  Exits 0 only when every case
behaves.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core import PreferenceDirectedAllocator  # noqa: E402
from repro.ir.instructions import SpillLoad  # noqa: E402
from repro.ir.printer import print_module  # noqa: E402
from repro.regalloc import (  # noqa: E402
    AllocationOptions,
    Allocator,
    allocate_function,
)
from repro.service import (  # noqa: E402
    AllocationRequest,
    MachineSpec,
    Scheduler,
    ServerThread,
    ServiceClient,
)
from repro.workloads import SPEC_PROFILES, generate_module  # noqa: E402

import jit_compile  # noqa: E402
import serve_mix  # noqa: E402
from harness import Phase  # noqa: E402

#: the fixed inputs: (profile, generator seed, function index, registers)
SHARED_REGISTER_INPUT = ("jess", 0, 0, 24)
DROPPED_RELOAD_INPUT = ("javac", 0, 0, 16)


class SharedRegister(Allocator):
    """The ``full`` allocator, then one interfering pair merged onto one
    register in its final round."""

    def __init__(self) -> None:
        self.inner = PreferenceDirectedAllocator()
        self.name = self.inner.name
        self.merged = None

    def allocate_round(self, ctx):
        outcome = self.inner.allocate_round(ctx)
        if outcome.spilled:
            return outcome
        colored = outcome.assignment
        for a in sorted(colored, key=str):
            for b in sorted(ctx.ig.neighbors(a), key=str):
                if (b in colored and b != a and b.rclass == a.rclass
                        and colored[b] != colored[a]):
                    colored[b] = colored[a]
                    self.merged = (a, b, colored[a])
                    return outcome
        return outcome


def jit_run(spec, allocate=None) -> list[str]:
    """One ``jit_compile`` round over one fixed method; its problems."""
    profile, gseed, index, regs = spec
    raw = generate_module(SPEC_PROFILES[profile], gseed).functions[index]
    wl = jit_compile.Workload(seed=0)
    wl.setup()
    wl.inputs = [(raw, regs)]
    if allocate is not None:
        wl.allocate = allocate
    wl.run_round(0, Phase())
    return wl.check()


def case_shared_register() -> list[str]:
    out = []
    if jit_run(SHARED_REGISTER_INPUT):
        out.append("the clean run reports a problem")
    faulty = SharedRegister()
    problems = jit_run(SHARED_REGISTER_INPUT,
                       lambda func, machine: allocate_function(
                           func, machine, faulty))
    if faulty.merged is None:
        return out + ["no interfering pair to merge"]
    a, b, reg = faulty.merged
    print(f"  {a} and {b} both given {reg}")
    if not problems:
        out.append("the shared register was not caught")
    else:
        print(f"  caught: {problems[0]}")
    return out


def case_dropped_reload() -> list[str]:
    dropped = []

    def allocate_then_drop(func, machine):
        result = jit_compile.allocate_full(func, machine)
        for blk in func.blocks:
            for i, instr in enumerate(blk.instrs):
                if isinstance(instr, SpillLoad):
                    dropped.append(f"{instr} in {blk.label}")
                    del blk.instrs[i]
                    return result
        return result

    out = []
    if jit_run(DROPPED_RELOAD_INPUT):
        out.append("the clean run reports a problem")
    problems = jit_run(DROPPED_RELOAD_INPUT, allocate_then_drop)
    if not dropped:
        return out + ["the method has no spill reload"]
    print(f"  dropped '{dropped[0]}'")
    if not problems:
        out.append("the dropped reload was not caught")
    else:
        print(f"  caught: {problems[0]}")
    return out


def case_flipped_digest() -> list[str]:
    server = ServerThread(Scheduler(options=AllocationOptions(jobs=1)))
    host, port = server.start()
    try:
        module = generate_module(SPEC_PROFILES["db"], 0)
        reply = ServiceClient(host, port).request(AllocationRequest(
            id="selftest", ir=print_module(module), allocator="full",
            machine=MachineSpec(regs=16), options=AllocationOptions(),
        ).to_wire())
    finally:
        server.stop()
    if not reply.get("ok"):
        return [f"request failed: {reply.get('error')}"]
    digest = reply["result_digest"]
    flipped = ("1" if digest[0] != "1" else "2") + digest[1:]
    out = []
    for served, expect_problem in ((reply, False),
                                   ({**reply, "result_digest": flipped},
                                    True)):
        wl = serve_mix.Workload(seed=0)
        wl._observe(("db", 0, "full", 16), False, served, 0.0, {}, 0)
        if bool(wl.problems) != expect_problem:
            out.append("the clean reply was flagged" if not expect_problem
                       else "the flipped digest was not caught")
        elif expect_problem:
            print(f"  caught: {wl.problems[0]}")
    return out


CASES = (("shared-register", case_shared_register),
         ("dropped-reload", case_dropped_reload),
         ("flipped-digest", case_flipped_digest))


def main() -> int:
    failures = 0
    for name, case in CASES:
        print(f"{name}:")
        problems = case()
        for problem in problems:
            print(f"  FAIL: {problem}")
        print(f"  {'ok' if not problems else 'FAILED'}")
        failures += bool(problems)
    print(f"{len(CASES) - failures} of {len(CASES)} faults caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
