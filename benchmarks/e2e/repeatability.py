"""Check that the benchmark repeats itself, the way the driver does.

    python3 benchmarks/e2e/repeatability.py [--workload NAME ...]

For every workload: ``RUNS`` invocations of ``run.py``, each with
another seed, give one *set*; ``SETS`` sets run back to back.  Per
end-to-end metric a set has a median and a spread (distance between
first and third quartile as a share of the median).  The check passes
when every spread is within the metric's bound from ``BENCHMARK.json``
and the second set's median is not worse than the first set's by more
than the bound.  Exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

RUNS = 10
SETS = 2
FIRST_SEED = 101


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed "
                         f"operations: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    medians: dict = {}
    bad = 0
    print(f"{'workload':20s} {'metric':18s} set {'median':>14s} "
          f"{'spread':>8s} {'drift':>8s} {'bound':>6s}")
    for set_index in range(SETS):
        for workload in workloads:
            # another seed for every run, the same seeds in every set
            runs = [run_once(spec, workload, FIRST_SEED + i)
                    for i in range(RUNS)]
            for name, metric in metrics.items():
                values = [r[name] for r in runs]
                median = statistics.median(values)
                first = medians.setdefault((workload, name), median)
                worse = (median - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                wide = spread(values)
                flag = ""
                if wide > metric["bound"]:
                    flag = "  SPREAD > BOUND"
                elif wide > metric["bound"] / 3:
                    flag = "  (spread > bound/3)"
                if worse > metric["bound"]:
                    flag += "  DRIFT > BOUND"
                bad += "BOUND" in flag
                print(f"{workload:20s} {name:18s} {set_index + 1:3d} "
                      f"{median:14.4f} {wide:8.4f} {worse:+8.4f} "
                      f"{metric['bound']:6.2f}{flag}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
