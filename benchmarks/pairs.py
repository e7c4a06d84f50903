"""Run the repo's benchmark on a parent checkout and on this one, in pairs.

    python3 benchmarks/pairs.py --parent DIR --out FILE \\
        [--pairs 10] [--seconds S] [--workload W ...] \\
        [--claim WORKLOAD:METRIC]

For seed 1..N and every workload, ``BENCHMARK.json``'s command runs once
in DIR and once here, alternating which side goes first.  FILE gets
every run's result line and, per end-to-end metric and workload, both
medians, the parent's inter-quartile spread, the pairs the change won
and a verdict read from the benchmark's own ``better`` / ``bound``.
With ``--claim`` it also judges one metric's gain by the claim rule
(:func:`claim_verdict`), prints that and records it as ``claim``.
Exits 1 iff a run is incorrect or has failed operations, or a metric is
worse than the parent beyond its bound in *every* pair; a claim that is
not met does not change the exit code.
"""

import argparse
import itertools
import json
import math
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(command: list[str], checkout: Path, seconds: float) -> dict:
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=120 + 6 * seconds)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{' '.join(command)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = -1.0 if metric["better"] == "higher" else 1.0

    def worse(p: float, c: float) -> float:
        """How much worse (+) the change reads, as a share of the parent."""
        return sign * (c - p) / (abs(p) or 1.0)

    by_pair = [worse(p, c) for p, c in zip(parent, change)]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread, bound = (q3 - q1) / (abs(p_med) or 1.0), metric["bound"]
    verdict = ("regressed" if min(by_pair) > bound else
               "unresolved" if spread > bound else
               "worse" if worse(p_med, c_med) > bound else "ok")
    return {"parent_median": p_med, "change_median": c_med,
            "median_worse": worse(p_med, c_med), "parent_iqr": spread,
            "pairs_won": sum(w < 0 for w in by_pair), "bound": bound,
            "verdict": verdict}


def claim_verdict(compared: dict, pairs: int) -> dict:
    """The gain rule on one :func:`compare` row: the change wins at least
    nine tenths of the ``pairs`` (a tie counts for neither side) and its
    median is better than the parent's by more than the parent's
    inter-quartile spread (both as shares of the parent's median)."""
    gain = -compared["median_worse"]
    wins_needed = math.ceil(9 * pairs / 10)
    return {"median_gain": gain, "parent_iqr": compared["parent_iqr"],
            "pairs_won": compared["pairs_won"], "pairs": pairs,
            "wins_needed": wins_needed,
            "met": (compared["pairs_won"] >= wins_needed
                    and gain > compared["parent_iqr"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs: a spread needs at least two runs a side")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.claim is not None:
        claimed = tuple(args.claim.split(":"))
        if len(claimed) != 2 or claimed[0] not in workloads or claimed[1] \
                not in [m["name"] for m in spec["end_to_end"]]:
            parser.error(f"--claim: {args.claim!r} is not a run workload "
                         f"and an end-to-end metric as WORKLOAD:METRIC")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = []
    for seed in range(1, args.pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for workload in workloads:
            command = list(spec["command"]) + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
            for position, side in enumerate(order):
                result = run_once(command, sides[side], seconds)
                runs.append(dict(workload=workload, seed=seed, side=side,
                                 order=position, **result))
                print(json.dumps(runs[-1]), flush=True)
    summary = []
    for workload, metric in itertools.product(workloads, spec["end_to_end"]):
        parent, change = ([r["metrics"][metric["name"]]["value"] for r in runs
                           if (r["workload"], r["side"]) == (workload, side)]
                          for side in sides)
        summary.append(dict(workload=workload, metric=metric["name"],
                            **compare(metric, parent, change)))
        print(json.dumps(summary[-1]), flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=sides["parent"],
                            capture_output=True, text=True).stdout.strip()
    record = {"parent_commit": commit, "pairs": args.pairs,
              "seconds": seconds, "summary": summary, "runs": runs}
    if args.claim is not None:
        row = next(s for s in summary
                   if (s["workload"], s["metric"]) == claimed)
        record["claim"] = dict(workload=claimed[0], metric=claimed[1],
                               **claim_verdict(row, args.pairs))
        print(json.dumps({"claim": record["claim"]}), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    return 1 if bad or any(s["verdict"] == "regressed" for s in summary) else 0


if __name__ == "__main__":
    raise SystemExit(main())
