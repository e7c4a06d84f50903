"""The repo's benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--out PATH]

``--trace 0`` measures the end-to-end metrics with nothing but the
calibration observer attached; ``--trace 1`` measures the per-layer
metrics (counters, boundary spans, the program's own phase tracer,
kernel probes).  Every metric is printed by name with its unit, the
run's outputs are checked, and the last line of standard output is one
JSON object.  ``--out`` also writes the full
document (per-repeat values, quartiles, environment).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _import_program():
    """Make ``repro`` importable from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"benchmark needs the program at {src}/repro; "
                         f"run it from a full checkout")
    sys.path.insert(0, str(src))
    import adapter
    return adapter


def environment() -> dict:
    """What a reader needs to compare numbers across containers."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu_model, "load_1min": os.getloadavg()[0]}


def _without_series(obs: dict) -> dict:
    """An observation without its per-commit lists."""
    return {k: v for k, v in obs.items()
            if not isinstance(v, list) or k == "check"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full JSON document")
    args = parser.parse_args(argv)

    adapter = _import_program()
    import measure
    import summary
    if args.workload not in adapter.CELLS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one "
                         f"of {sorted(adapter.CELLS)}")
    cell = adapter.CELLS[args.workload]
    env = environment()
    if env["load_1min"] > 0.5:
        print(f"warning: 1-min load average {env['load_1min']:.2f} before "
              f"the run; timings will be disturbed", file=sys.stderr)

    # a terminated run unwinds like an interrupted one, so the program's
    # own worker teardown and the ``finally`` below still happen
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            import layers
            metrics, repeats = layers.per_layer(adapter, cell, args.seed,
                                                args.seconds, args.out)
            units = layers.units()
        else:
            timed = (measure.measure_sim if cell.backend == "sim"
                     else measure.measure_mp)
            repeats = timed(adapter, cell, args.seed, args.seconds)
            metrics = measure.end_to_end(cell, repeats)
            units = {name: unit for name, (unit, _) in
                     summary.END_TO_END.items()}
    finally:
        # on every way out: no process of this run outlives it
        measure.stop_child_processes()

    problems = [p for r in repeats for p in r["check"]]
    if cell.backend == "sim" and not args.trace:
        problems.extend(summary.exactness_problems(repeats))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env["load_1min_after"] = os.getloadavg()[0]

    last = repeats[-1]
    result = {
        "correct": not problems,
        "attempted": last["requests"],
        "failed": last["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    if args.out:
        document = dict(result, workload=cell.name, why=cell.why,
                        seed=args.seed, seconds=args.seconds,
                        trace=args.trace, environment=env,
                        repeats=[_without_series(r) for r in repeats])
        if not args.trace:
            document["timings"] = {
                name: {"per_repeat": values,
                       "quartiles": summary.quartiles(values)}
                for name, values in measure.timings(cell, repeats).items()}
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
