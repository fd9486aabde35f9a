"""One benchmark command for the allocator, the server and the edit path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload jit_compile --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the
traced ones, the time no layer accounts for (``unattributed_ms``) and
the tracing overhead (traced against untraced rounds); its spans are
written to ``.bench_out/``.  The last line of standard output is the
JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402  (needs HERE on the path)
    MIN_SAMPLES,
    OUT_DIR,
    ROOT,
    SRC,
    Tracer,
    end_to_end,
    measure_setup,
    peak_rss_mb,
    print_table,
    result_line,
    run_rounds,
    run_traced,
    stop_resource_tracker,
)

WORKLOADS = ("jit_compile", "serve_mix", "edit_stream")

#: the metrics BENCHMARK.json declares; every run prints each of its
#: kind (a per-layer metric reads 0 where a workload does not reach the
#: layer, or the layer runs out of sight)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quality_rounds(workload) -> int:
    """Rounds every measuring run completes: the exact counts sum the
    distinct results of these, so they do not depend on run length."""
    return math.ceil(MIN_SAMPLES / workload.round_length())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(args.workload)
    tracer = Tracer()
    wl = module.Workload(args.seed, tracer)
    setup_samples = measure_setup(args.workload)
    wl.make_inputs()
    try:
        wl.setup()
        if args.trace:
            phases = run_traced(wl, tracer, args.seconds)
        else:
            measured = run_rounds(wl.run_round, args.seconds,
                                  min_ops=MIN_SAMPLES)
            phases = (measured,)
        rss_mb = peak_rss_mb()
        rounds = sum(p.rounds for p in phases)
        tail_attempted, tail_failed = wl.tail(rounds)
        problems = wl.check()
    finally:
        wl.close()
        stop_resource_tracker()

    attempted = sum(len(p.ops) for p in phases) + tail_attempted
    failed = tail_failed + wl.failed_ops
    factor = phases[0].speed.factor()
    reference_ms = 1000 * statistics.median(phases[0].speed.samples)
    rows = [
        ("rounds", str(rounds)),
        ("timed operations", str(sum(len(p.ops) for p in phases))),
        ("attempted / failed", f"{attempted} / {failed}"),
        ("speed factor",
         f"{factor:.4f} (reference loop {reference_ms:.4f} ms)"),
        ("set-up samples (raw s / speed factor)",
         ", ".join(f"{s:.3f}/{f:.3f}" for s, f in setup_samples)),
        ("check problems", str(len(problems))),
    ]
    for line in wl.notes():
        rows.append(line)
    print_table(f"{args.workload} seed {args.seed}", rows)
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    if args.trace:
        metrics = traced_metrics(wl, phases[0], phases[1])
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        quality = wl.quality(quality_rounds(wl))
        measured, raw = end_to_end(phases[0], setup_samples, rss_mb,
                                   quality)
        metrics = {m["name"]: measured[m["name"]]
                   for m in DECLARED["end_to_end"]}
        fast = sum(1 for op in phases[0].ops if op.fast)
        print_table("end to end (speed-adjusted | raw)", [
            (name, f"{value:.4f} {unit} | {raw[name][0]:.4f}")
            for name, (value, unit) in metrics.items()
        ] + [("samples (hit / miss)",
              f"{len(phases[0].ops)} ({fast} / {len(phases[0].ops) - fast})")])
    print(result_line(not problems, attempted, failed, metrics))
    return 0


def traced_metrics(wl, untraced, traced) -> dict:
    """Per-layer metrics of the traced phase, speed-adjusted.

    The overhead compares the mean operation of the traced and the
    untraced rounds, each operation adjusted by its local speed factor
    as for the end-to-end metrics.
    """
    factor = traced.speed.factor()
    n = len(traced.ops)
    values, attributed_ms = wl.layers(traced)
    mean_ms = 1000.0 * traced.op_seconds() / n
    values["unattributed_ms"] = mean_ms - attributed_ms
    values["trace.overhead_pct"] = 100.0 * (
        statistics.mean(traced.adjusted_seconds())
        / statistics.mean(untraced.adjusted_seconds()) - 1)
    raw_pct = 100.0 * (traced.op_seconds() / n * len(untraced.ops)
                       / untraced.op_seconds() - 1)
    unknown = set(values) - {m["name"] for m in DECLARED["per_layer"]}
    if unknown:
        raise KeyError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in DECLARED["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        value = float(values.get(name, 0.0))
        metrics[name] = (value / factor if unit == "ms" else value, unit)
    print_table("per layer (traced phase, speed-adjusted, per operation)", [
        (name, f"{value:.4f} {unit}") for name, (value, unit) in
        metrics.items()
    ] + [("operations traced / untraced",
          f"{n} / {len(untraced.ops)}"),
         ("mean operation (ms)", f"{mean_ms / factor:.4f}"),
         ("speed factor untraced / traced rounds",
          f"{untraced.speed.factor():.4f} / {factor:.4f}"),
         ("tracing overhead, raw (%)", f"{raw_pct:.4f}")])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
