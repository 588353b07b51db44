"""Steadiness check: sets of runs per workload, each metric against its bound.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads csv-1e6

Run from the root of a source checkout.  Reads BENCHMARK.json, then runs
`run.py --trace 0` for every workload, each run with its own seed; runs of
one seed go to every workload in turn, so slow spells on the machine are
shared out.  For each end-to-end metric it prints every set's median and
spread (interquartile distance from statistics.quantiles(n=4), as a share of
the median), and how far the last set's median lies from the first's (signed:
positive is worse), after each workload's failed_ratio over all its runs.
Exits 1 when a run fails, a spread exceeds its bound, or the last set's
median differs from the first's by more than its bound, either way.  Seeds
start at FIRST_SEED; every run's result is appended to perfbench/_out/.
--baseline FILE also writes the environment and every set's medians and
quartiles to FILE.
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
FIRST_SEED = 1000
LOG = HERE / "_out" / "steady-runs.jsonl"


def one_run(spec: dict, workload: str, seed: int) -> tuple[dict, dict, float]:
    """(result, env, wall seconds) of one end-to-end run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next((json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")), {})
    return json.loads(lines[-1]), env, wall


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--baseline", type=Path, help="write medians and env here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    # values[workload][set][metric] -> list of run values
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)] for w in workloads}
    ops = {w: [0, 0] for w in workloads}  # attempted, failed
    ok = True
    env = {}
    LOG.parent.mkdir(parents=True, exist_ok=True)
    for s in range(args.sets):
        for i in range(args.runs):
            seed = FIRST_SEED + s * args.runs + i
            for w in workloads:
                result, env, wall = one_run(spec, w, seed)
                with open(LOG, "a") as log:
                    log.write(json.dumps({"workload": w, "seed": seed, "wall": wall,
                                          "env": env, "result": result}) + "\n")
                ops[w][0] += result["attempted"]
                ops[w][1] += result["failed"]
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"FAILED ops: {w} seed {seed}: {result['failed']} of {result['attempted']}")
                for m in metrics:
                    values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s} seed {seed} {w}: {wall:.1f} s, {result['attempted']} ops",
                      file=sys.stderr, flush=True)
    summary = {}
    for w in workloads:
        attempted, failed = ops[w]
        print(f"\n{w}\n  failed_ratio    [ratio]: {failed / attempted:.6f} ({failed} of {attempted} ops)")
        summary[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [per_set[name] for per_set in values[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets] if args.runs >= 2 else [0.0] * args.sets
            worse = (medians[-1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            within = max(spreads) <= bound and abs(worse) <= bound
            ok = ok and within
            flag = "" if within else "  <-- exceeds bound"
            print(f"  {name:15s} [{m['unit']}] bound {bound:.2f}: medians "
                  + ", ".join(f"{x:.6g}" for x in medians)
                  + "; spreads " + ", ".join(f"{x:.3f}" for x in spreads)
                  + f"; last vs first {worse:+.3f}{flag}")
            summary[w][name] = [{"median": statistics.median(v),
                                 "quartiles": statistics.quantiles(v, n=4) if len(v) >= 2 else v,
                                 "runs": len(v)} for v in sets]
    if args.baseline:
        args.baseline.write_text(json.dumps({"env": env, "run_seconds": spec["run_seconds"],
                                             "workloads": summary}, indent=2) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
