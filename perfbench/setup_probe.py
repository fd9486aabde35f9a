"""Times one workload's set-up in a fresh process.

Prints the seconds from the first import of the program to the moment
the workload is ready for its first timed operation, and the speed
factor of reference-loop samples taken then, and tears the set-up down.
``run.py`` starts this several times per run and reports the median of
the seconds over the factor as ``setup_s``.

    PYTHONPATH=src python3 perfbench/setup_probe.py serve_mix
"""

import importlib
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> None:
    workload = importlib.import_module(sys.argv[1]).Workload(seed=0)
    try:
        workload.setup()
        elapsed = time.perf_counter() - START
        from harness import SETUP_SPEED_SAMPLES, SpeedMeter
        speed = SpeedMeter()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
    finally:
        workload.close()
        from harness import stop_resource_tracker
        stop_resource_tracker()
    print(f"{elapsed:.6f} {speed.factor():.6f}")


if __name__ == "__main__":
    main()
