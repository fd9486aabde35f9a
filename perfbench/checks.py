"""Output checks, computed independently of the path under test.

* :func:`payload_digest` recomputes a response's ``result_digest`` from
  its payload with the benchmark's own canonical JSON and sha256.
* :func:`interpreter_check` runs the raw generator output and the
  allocated code in ``repro.sim`` on seeded arguments and fresh memory
  and compares return values and the sequence of memory writes.
* :func:`scratch_allocation` allocates one function from its raw body on
  a fresh prepare, serially, with no memo, session or pool involved.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.ir.clone import clone_function
from repro.ir.function import Module
from repro.ir.printer import print_function
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import AllocationOptions, AllocationStats
from repro.service.protocol import cycles_to_dict, stats_to_dict
from repro.service.scheduler import ALLOCATOR_FACTORIES
from repro.sim import CycleReport, Memory, run_function

#: argument vectors each function is run on
ARG_VECTORS = 2


def payload_digest(effective_allocator: str, code: str, stats: dict,
                   cycles: dict) -> str:
    """sha256 of the canonical result payload (sorted keys, no spaces)."""
    text = json.dumps(
        {"effective_allocator": effective_allocator, "code": code,
         "stats": stats, "cycles": cycles},
        sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reply_digest_problem(reply: dict) -> str | None:
    """A served reply whose ``result_digest`` does not match its payload."""
    want = payload_digest(reply.get("effective_allocator", ""),
                          reply.get("code", ""), reply.get("stats", {}),
                          reply.get("cycles", {}))
    if reply.get("result_digest") != want:
        return (f"reply {reply.get('id')!r}: result_digest "
                f"{reply.get('result_digest', '')[:12]} != payload "
                f"{want[:12]}")
    return None


class RecordingMemory(Memory):
    """A fresh memory that also logs every write in order."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[tuple[int, int]] = []

    def write(self, addr: int, value: int) -> None:
        self.writes.append((int(addr), value))
        super().write(addr, value)


def seeded_args(func, seed: int, vector: int) -> list[int]:
    rng = random.Random(f"{func.name}:{seed}:{vector}")
    return [rng.randrange(0, 1 << 12) * 8 for _ in func.params]


def interpreter_check(raw, allocated, machine, seed: int) -> list[str]:
    """Raw and allocated code agree on results and memory writes."""
    problems = []
    for vector in range(ARG_VECTORS):
        args = seeded_args(raw, seed, vector)
        want_mem, got_mem = RecordingMemory(), RecordingMemory()
        try:
            want = run_function(raw, args, memory=want_mem)
            got = run_function(allocated, args, machine=machine,
                               memory=got_mem)
        except Exception as err:  # any crash of the allocated code counts
            problems.append(f"{raw.name}: interpreter raised "
                            f"{type(err).__name__}: {err}")
            continue
        if want.value != got.value:
            problems.append(f"{raw.name} args {args}: returned {got.value!r}"
                            f", raw code returns {want.value!r}")
        elif want_mem.writes != got_mem.writes:
            problems.append(f"{raw.name} args {args}: memory writes differ "
                            f"({len(got_mem.writes)} vs "
                            f"{len(want_mem.writes)})")
    return problems


def scratch_allocation(raw, machine, allocator: str):
    """A from-scratch serial allocation of one raw function.

    Returns ``(allocated function, AllocationStats, CycleReport)``.
    """
    module = Module("scratch")
    module.add(clone_function(raw))
    prepared = prepare_module(module, machine)
    run = allocate_module(prepared, machine, ALLOCATOR_FACTORIES[allocator](),
                          AllocationOptions(jobs=1, reuse_analyses=False))
    result = run.results[0]
    return result.func, result.stats, run.cycles


def merged_digest(allocator: str, parts) -> tuple[str, dict, dict]:
    """Digest of a module allocation assembled from per-function parts.

    ``parts`` is ``[(allocated function, stats, cycles), ...]`` in module
    order; functions are allocated independently, so this equals the
    whole-module allocation.  Returns (digest, stats dict, cycles dict).
    """
    stats = AllocationStats(allocator=ALLOCATOR_FACTORIES[allocator]().name)
    cycles = CycleReport()
    for _func, fstats, fcycles in parts:
        stats.merge(fstats)
        cycles.add(fcycles)
    code = "\n\n".join(print_function(func) for func, _, _ in parts)
    stats_d, cycles_d = stats_to_dict(stats), cycles_to_dict(cycles)
    return payload_digest(allocator, code, stats_d, cycles_d), stats_d, \
        cycles_d
