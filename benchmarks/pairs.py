"""Run the repo's benchmark on a parent checkout and on this one, in pairs.

    python3 benchmarks/pairs.py --parent DIR --out FILE \\
        [--pairs 10] [--seconds S] [--workload W ...] \\
        [--claim WORKLOAD:METRIC] [--anchor DIR]
    python3 benchmarks/pairs.py --trajectory

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

``--anchor DIR`` adds a third arm: a frozen older checkout that runs in
every pair too, the three taking turns to go first.  Each summary row
then also records the anchor's median and the ratios change ÷ anchor and
parent ÷ anchor, which chain across ledger files made in different
sessions where raw medians do not (the machine drifts between them).
``--trajectory`` runs nothing: it prints one table of the committed
``BENCH_PR*.json`` files (verdicts, claim, anchor ratios) and exits 0.
"""

import argparse
import itertools
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRAJECTORY_METRICS = ("cpu_us_per_commit", "txn_per_s")
"""The metrics whose anchor ratios ``--trajectory`` prints."""


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


def arm_order(seed: int, anchored: bool) -> list[str]:
    """Which side runs first for ``seed``.  Two arms alternate; with an
    anchor the three rotate, and every third seed parent and change
    swap, so over six seeds each arm leads twice and parent precedes
    change in half of them."""
    if not anchored:
        return ["parent", "change"] if seed % 2 else ["change", "parent"]
    base = (["parent", "change", "anchor"] if (seed - 1) // 3 % 2 == 0
            else ["change", "parent", "anchor"])
    turn = (seed - 1) % 3
    return base[turn:] + base[:turn]


def anchor_ratios(parent: list[float], change: list[float],
                  anchor: list[float]) -> dict:
    a_med = statistics.median(anchor)
    return {"anchor_median": a_med,
            "change_over_anchor": statistics.median(change) / (a_med or 1.0),
            "parent_over_anchor": statistics.median(parent) / (a_med or 1.0)}


def trajectory(ledgers: list[Path]) -> list[str]:
    """One line per ledger file and workload: the verdicts, the claim
    and, where the file has them, the anchor ratios."""
    def number(path: Path) -> int:
        return int(re.search(r"(\d+)", path.stem).group(1))

    lines = ["ledger\tworkload\tverdicts\tclaim\t" + "\t".join(
        f"{m} c/a\t{m} p/a" for m in TRAJECTORY_METRICS)]
    for path in sorted(ledgers, key=number):
        record = json.loads(path.read_text())
        claim = record.get("claim")
        rows: dict[str, dict] = {}
        for row in record["summary"]:
            rows.setdefault(row["workload"], {})[row["metric"]] = row
        for workload, by_metric in rows.items():
            verdicts = [f"{name} {row['verdict']}" for name, row
                        in by_metric.items() if row["verdict"] != "ok"]
            claim_text = "-"
            if claim and claim["workload"] == workload:
                claim_text = " ".join([
                    claim["metric"], f"{-claim['median_gain']:+.1%}",
                    f"{claim['pairs_won']}/{claim['pairs']}",
                    "met" if claim["met"] else "not met"])
            ratios = []
            for name in TRAJECTORY_METRICS:
                row = by_metric.get(name, {})
                ratios += [f"{row[key]:.3f}" if key in row else "-"
                           for key in ("change_over_anchor",
                                       "parent_over_anchor")]
            lines.append("\t".join(
                [path.stem, workload, ", ".join(verdicts)
                 or f"{len(by_metric)} ok", claim_text] + ratios))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    # a trajectory reads committed ledgers: it needs no checkout or file
    paired = "--trajectory" not in (sys.argv[1:] if argv is None else argv)
    parser.add_argument("--parent", required=paired, type=Path)
    parser.add_argument("--out", required=paired)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--anchor", type=Path)
    parser.add_argument("--trajectory", action="store_true")
    args = parser.parse_args(argv)
    if args.trajectory:
        print("\n".join(trajectory(list(ROOT.glob("BENCH_PR*.json")))))
        return 0
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
    if args.anchor is not None:
        sides["anchor"] = args.anchor.resolve()
    runs = []
    for seed in range(1, args.pairs + 1):
        order = arm_order(seed, args.anchor is not None)
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
        values = {side: [r["metrics"][metric["name"]]["value"] for r in runs
                         if (r["workload"], r["side"]) == (workload, side)]
                  for side in sides}
        summary.append(dict(workload=workload, metric=metric["name"],
                            **compare(metric, values["parent"],
                                      values["change"])))
        if "anchor" in values:
            summary[-1].update(anchor_ratios(**values))
        print(json.dumps(summary[-1]), flush=True)

    def commit(side: str) -> str:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=sides[side],
                              capture_output=True, text=True).stdout.strip()
    record = {"parent_commit": commit("parent"), "pairs": args.pairs,
              "seconds": seconds, "summary": summary, "runs": runs}
    if "anchor" in sides:
        record["anchor_commit"] = commit("anchor")
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
