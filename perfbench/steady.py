"""Steadiness check: run a workload repeatedly and summarise each metric.

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for every end-to-end metric its median, first and third quartiles, and
the spread: the interquartile distance as a share of the median (the
figure each ``bound`` in BENCHMARK.json is compared with).  Also prints
each run's failed share of attempted operations, which must be equal
across runs.

    python3 perfbench/steady.py --workload serve_mix --seeds 1-10 \
        --seconds 12 [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    results, shares, outputs = [], [], []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        result, output = run_once(args.workload, seed, args.seconds)
        results.append(result)
        outputs.append(output)
        shares.append((result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed/attempted={result['failed']}/{result['attempted']} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    if len(results) < 2:
        raise SystemExit("need at least two runs for quartiles")
    summary = summarise(results)
    print(f"== {args.workload}: {len(results)} runs of {args.seconds:g} s")
    print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}")
    for name, s in summary.items():
        print(f"  {name:<26}{s['median']:>14.4f}{s['q1']:>14.4f}"
              f"{s['q3']:>14.4f}{s['spread']:>9.4f}  {s['unit']}")
    ratios = {f / a for f, a in shares}
    print(f"  failed share of attempted: "
          f"{'equal in every run' if len(ratios) == 1 else 'UNEQUAL'} "
          f"({sorted(ratios)})")
    print(f"  every run correct: {all(r['correct'] for r in results)}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds,
            "seeds": parse_seeds(args.seeds), "metrics": summary,
            "failed_attempted": shares, "outputs": outputs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
