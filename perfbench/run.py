"""powertriad benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload csv-1e6 --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; the program is taken from src/
next to this directory, with nothing installed.  The last line of standard
output is a JSON object {correct, attempted, failed, metrics}; the lines
before it give the environment, input digests, one line per op and every
metric with its unit.

--trace 0 is the end-to-end run.  A single closed-loop client runs the
workload's op list, one op at a time, in whole cycles, until the op time is
closest to --seconds.  CLI ops are fresh `python -m powertriad` processes;
API ops are calls in this process, after one untimed import.  Every output
is checked against the oracle.  Metrics:

  setup_s        median `import powertriad` time (from -X importtime) over
                 STARTUPS fresh `powertriad zoo list` processes
  cold_start_s   median wall time of those same processes
  ops_per_s      ops completed per second of op time
  samples_per_s  (x, v) samples the ops consumed per second of op time
  latency_p50_s  median op wall time (the op count is printed)
  peak_rss_mb    highest peak RSS of one op: the child's own for CLI ops,
                 this process's high-water mark for API ops

--trace 1 replays the same ops in this process with spans around the
program's public functions (tracing.py): one first pass, which gives the
rises of the memory high-water mark, then each op untraced, traced, traced
and untraced, back to back.  The first traced run gives self times and
counts.  Per replay (half of the two runs' sum): the tracing overhead is
traced minus untraced op time, the accounted time is that of the wrapped
layers' spans directly under each op, and the rest of the op spans is
unattributed.  It also reports the import breakdown.  Spans are written to
perfbench/_out/ at the end.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
from oracle import KNOWN_DEFECT_MAX_REL, ZOO_LISTING, Check
from workloads import WORKLOADS, Op, Outcome, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STARTUPS = 5


@dataclass
class Record:
    op: Op
    wall: float
    rss_mb: float
    outcome: Outcome
    status: str = "unchecked"
    misses: list = field(default_factory=list)
    rel_errors: dict = field(default_factory=dict)


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": version("scipy"), "blas": blas_name}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_up(env: dict, work: Path) -> tuple[float, float]:
    """(import seconds, wall seconds) of one fresh `powertriad zoo list` process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "powertriad", "zoo", "list"],
                          env=env, cwd=work, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.splitlines() != ZOO_LISTING:
        raise RuntimeError(f"`powertriad zoo list` failed: {proc.stderr[-2000:]}")
    return tracing.parse_importtime(proc.stderr)["import.powertriad_s"], wall


def run_cli(op: Op, env: dict, work: Path) -> Record:
    """One fresh `python -m powertriad` process, with its own peak RSS."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "powertriad", *op.args],
                                stdout=out, stderr=err, env=env, cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(proc.returncode, out_path.read_text())
    return Record(op, wall, usage.ru_maxrss / 1024.0, outcome)


def run_api(op: Op, pt) -> Record:
    t0 = time.perf_counter()
    value = op.call(pt)
    wall = time.perf_counter() - t0
    return Record(op, wall, 0.0, Outcome(0, "", value))


def run_inprocess(op: Op, pt) -> Record:
    """An op in this process: API ops directly, CLI ops through cli.main."""
    if op.call is not None:
        return run_api(op, pt)
    stdout = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = pt.cli.main(list(op.args))
    wall = time.perf_counter() - t0
    return Record(op, wall, 0.0, Outcome(code, stdout.getvalue()))


def check(record: Record, refs: dict) -> None:
    chk = Check(refs[record.op.ref])
    try:
        record.op.check(chk, record.outcome)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        chk.fail("output", f"{type(exc).__name__}: {exc}")
    record.status, record.misses, record.rel_errors = chk.verdict(), chk.misses, chk.rel_errors


def output_bytes(record: Record) -> int:
    return len(record.outcome.stdout.encode()) + sum(
        p.stat().st_size for p in record.op.outputs if p.exists())


def closed_loop(ops: list[Op], seconds: float, execute, after, probe) -> tuple[list[Record], list]:
    """Whole cycles of ops, one client, next op when the last returns.

    Stops at the cycle boundary closest to `seconds` of op time.  The
    STARTUPS start-up probes are spread evenly over that op time, outside it,
    so that they sample the same spells of machine speed as the ops.
    """
    records: list[Record] = []
    probes: list = []
    busy = 0.0
    while True:
        cycle = 0.0
        for op in ops:
            while len(probes) < STARTUPS and busy + cycle >= len(probes) * seconds / STARTUPS:
                probes.append(probe())
            record = execute(op)
            after(record)
            records.append(record)
            cycle += record.wall
        busy += cycle
        if busy + cycle / 2 >= seconds:
            break
    while len(probes) < STARTUPS:
        probes.append(probe())
    return records, probes


def import_program():
    sys.path.insert(0, str(SRC))
    pt = importlib.import_module("powertriad")
    importlib.import_module("powertriad.cli")
    return pt


def timed_run(plan: Plan, seconds: float, work: Path) -> tuple[list[Record], dict]:
    env = child_env()
    probe = partial(start_up, env, work)
    if plan.cli:
        refs = plan.references()
        records, probes = closed_loop(plan.ops, seconds, lambda op: run_cli(op, env, work),
                                      lambda r: check(r, refs), probe)
        peak = max(r.rss_mb for r in records)
    else:
        pt = import_program()
        records, probes = closed_loop(plan.ops, seconds, lambda op: run_api(op, pt),
                                      lambda r: None, probe)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs = plan.references()  # after the loop, so it cannot raise the high-water mark
        for record in records:
            check(record, refs)
    setup_s = statistics.median(p[0] for p in probes)
    cold_start_s = statistics.median(p[1] for p in probes)
    busy = sum(r.wall for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cold_start_s": (cold_start_s, "s"),
        "ops_per_s": (len(records) / busy, "1/s"),
        "samples_per_s": (sum(r.op.samples for r in records) / busy, "1/s"),
        "latency_p50_s": (statistics.median(r.wall for r in records), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return records, metrics


def traced_op(op: Op, pt, tracer, index: int) -> Record:
    tracer.op = index
    span = tracer.open("replay.op")
    try:
        return run_inprocess(op, pt)
    finally:
        tracer.close(span)


def paired_replay(plan: Plan, pt, refs: dict, tracers) -> tuple[list[Record], list[Record]]:
    """Each op untraced, traced, traced, untraced, back to back.

    The symmetric order cancels what a run pays for its place in the
    sequence; an untimed run of the op comes first, so that no timed run
    pays for following a different op (heap and cache state).  The two
    traced runs record into tracers[0] and tracers[1].
    """
    plain, traced = [], []
    for i, op in enumerate(plan.ops):
        run_inprocess(op, pt)
        for into in (None, *tracers, None):
            if into is None:
                record = run_inprocess(op, pt)
                plain.append(record)
            else:
                undo = tracing.install(into)
                try:
                    record = traced_op(op, pt, into, i)
                finally:
                    undo()
                traced.append(record)
            check(record, refs)
    return plain, traced


def op_accounting(tracer) -> tuple[float, float]:
    """(time in replay.op spans, time in the wrapped spans directly under them)."""
    ops = {i for i, span in enumerate(tracer.spans) if span[0] == "replay.op"}
    op_time = sum(end - start for i, (_, start, end, *_) in enumerate(tracer.spans) if i in ops)
    accounted = sum(end - start for _, start, end, parent, *_ in tracer.spans if parent in ops)
    return op_time, accounted


def traced_run(plan: Plan, work: Path, spans_path: Path) -> tuple[list[Record], dict]:
    env = child_env()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import powertriad"],
                          env=env, cwd=work, capture_output=True, text=True, check=True)
    metrics = tracing.parse_importtime(proc.stderr)
    pt = import_program()
    # The first pass pays first calls and page faults; its spans give the
    # high-water-mark rises, which only a process's first touch can show.
    first = tracing.Tracer()
    undo = tracing.install(first)
    try:
        for i, op in enumerate(plan.ops):
            traced_op(op, pt, first, i)
    finally:
        undo()
    refs = plan.references()
    tracers = (tracing.Tracer(), tracing.Tracer())
    plain, traced = paired_replay(plan, pt, refs, tracers)
    tracer = tracers[0]  # per-layer figures are those of one replay
    # the timings cover two replays; report one replay's worth
    untraced_wall = sum(r.wall for r in plain) / 2
    overhead = sum(r.wall for r in traced) / 2 - untraced_wall
    op_time, accounted = (sum(pair) / 2 for pair in zip(*map(op_accounting, tracers)))
    records = plain + traced
    samples = sum(op.samples for op in plan.ops)
    metrics.update(tracing.layer_metrics(tracer, samples))
    metrics.update({k: v for k, v in tracing.layer_metrics(first, samples).items()
                    if k.endswith(".maxrss_rise_mb")})
    metrics.update(oracle_metrics(records))
    metrics.update({
        "cli.output.bytes": sum(output_bytes(r) for r in traced[::2] if r.op.call is None),
        "trace.overhead_s": overhead,
        "trace.untraced_wall_s": untraced_wall,
        "trace.accounted_s": accounted,
        "trace.unattributed_s": op_time - accounted,
    })
    gap = abs(accounted - untraced_wall)
    print(f"trace: untraced {untraced_wall:.6f} s, overhead {overhead:.6f} s, wrapped layers "
          f"directly under each op {accounted:.6f} s, unattributed {op_time - accounted:.6f} s; "
          f"|accounted - untraced| = {gap:.6f} s "
          + ("<=" if gap <= abs(overhead) else "> (FAILS)") + f" |overhead| {abs(overhead):.6f} s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.as_records()))
    units = dict(tracing.PER_LAYER)
    return records, {name: (metrics.get(name, 0.0), unit) for name, unit in units.items()}


def oracle_metrics(records: list[Record]) -> dict:
    mse_errors = [err for r in records for f, err in r.rel_errors.items()
                  if f in ("mse", "mse_at_star", "final_mse")]
    return {
        "oracle.known_defect_ops": sum(r.status == "known_defect" for r in records),
        "oracle.mse_rel_error_max": max(mse_errors, default=0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "powertriad" / "__init__.py").is_file():
        print(f"error: no powertriad sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 63:
        print("error: --seed must lie in [0, 2**63)", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "powertriad"), quiet=1)  # as an installed package would be
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = WORKLOADS[args.workload](work, args.seed)
        print("env:", json.dumps(environment()))
        for name, digest in plan.inputs.items():
            print(f"input: {name} sha256 {digest}")
        if args.trace:
            spans = HERE / "_out" / f"spans-{args.workload}-{args.seed}.json"
            records, metrics = traced_run(plan, work, spans)
        else:
            records, metrics = timed_run(plan, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in records:
        print(f"op {r.op.name}: {r.wall:.6f} s, {r.rss_mb:.1f} MB, exit {r.outcome.exit_code}, "
              f"{r.status}" + "".join(f"; {f}: {d}" for f, d, _ in r.misses))
    failed = sum(r.status == "failed" for r in records)
    known = oracle_metrics(records)
    print(f"ops: {len(records)} attempted, {failed} failed (failed_ratio "
          f"{failed / len(records):.6f}), {known['oracle.known_defect_ops']} known defect "
          f"(ROADMAP item 1 cancellation); oracle.mse_rel_error_max "
          f"{known['oracle.mse_rel_error_max']!r}, known-defect ceiling {KNOWN_DEFECT_MAX_REL:g}")
    if not args.trace:
        print(f"latency_p50_s is the median of {len(records)} op times")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
