"""Spans around the program's public functions, installed from outside.

install() replaces each target function, in every powertriad module that
binds it, with a wrapper that records a span (name, start, end, parent span,
op id) and the rise of the ru_maxrss high-water mark during the call, plus
work counts computed from arguments and results.  Spans stay in memory;
layer_metrics() turns them into per-layer figures after the replay.

Self time is a span's duration minus its child spans' durations.  Byte counts
are computed from array and text sizes: they are counts, not bandwidths.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import Counter, defaultdict

PILOT = "zoo.verify_amplifier"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id, maxrss rise MB, raised]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int = -1
        self.counts: Counter = Counter()
        self.pilot_depth = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rss = _maxrss_mb()
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, rss, False])
        self.stack.append(index)
        return index

    def close(self, index: int, raised: bool = False) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        span[5] = _maxrss_mb() - span[5]
        span[6] = raised
        self.stack.pop()

    def as_records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "maxrss_rise_mb", "raised")
        return [dict(zip(keys, span)) for span in self.spans]


# counters: after(tracer, args, kwargs, result)
def _count_generate(t, args, kwargs, result):
    t.counts["zoo.generate.samples"] += len(result)
    if t.pilot_depth == 0:
        t.counts["used_samples"] += len(result)


def _count_chunk(t, args, kwargs, result):
    if t.pilot_depth:
        t.counts["pilot_samples"] += len(result)


def _count_batch(t, args, kwargs, result):
    batch = args[0]
    t.counts["moments.SampleBatch.bytes_copied"] += batch.x.nbytes + batch.v.nbytes


def _count_accumulate(t, args, kwargs, result):
    t.counts["moments.accumulate.samples"] += result.n - args[0].n


def _count_read(t, args, kwargs, result):
    t.counts["moments.read_csv.bytes"] += os.path.getsize(args[0])
    t.counts["moments.read_csv.rows"] += len(result)
    t.counts["used_samples"] += len(result)


def _count_text(key):
    def count(t, args, kwargs, result):
        t.counts[key] += len(result.encode())
    return count


def _count_len(key, of=len):
    def count(t, args, kwargs, result):
        t.counts[key] += of(result)
    return count


# (module, function, counter); every one is traced under "<module>.<function>"
TARGETS = [
    ("cli", "main", None),
    ("zoo", "generate", _count_generate),
    ("zoo", "generate_chunk", _count_chunk),
    ("zoo", "apply_estimator", None),
    ("zoo", "verify_amplifier", None),
    ("zoo", "population_moments", None),
    ("moments", "accumulate", _count_accumulate),
    ("moments", "merge", None),
    ("moments", "read_csv", _count_read),
    ("moments", "to_csv_text", _count_text("moments.to_csv_text.bytes")),
    ("scaling", "track_moving_optimum", _count_len("scaling.track_moving_optimum.steps")),
    ("scaling", "track_to_csv", _count_text("scaling.track_to_csv.bytes")),
    ("scaling", "run_path", _count_len("scaling.run_path.iterates", lambda r: len(r.iterates))),
    ("scaling", "certify_optimum", None),
    ("diagnostics", "triad_report", None),
    ("diagnostics", "report_to_json", None),
    ("textio", "dumps_stable", None),
    ("safezone_map", "map_point", None),
    ("safezone_map", "build_left_map", None),
    ("safezone_map", "build_right_map", None),
    ("safezone_map", "emit_dataset", None),
    ("safezone_map", "render_svg", _count_text("safezone_map.render_svg.bytes")),
]
SPAN_NAMES = ([f"{m}.{f}" for m, f, _ in TARGETS]
              + ["moments.accumulate_compensated", "moments.SampleBatch"])

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    [("import.powertriad_s", "s"), ("import.scipy_s", "s"), ("import.numpy_s", "s"),
     ("cli.main.self_s", "s"), ("cli.main.calls", "count"), ("cli.output.bytes", "bytes"),
     ("zoo.generate.self_s", "s"), ("zoo.generate.samples", "count"),
     ("zoo.generate_chunk.calls", "count"), ("zoo.apply_estimator.self_s", "s"),
     ("zoo.verify_amplifier.self_s", "s"), ("zoo.pilot_waste_ratio", "ratio"),
     ("zoo.population_moments.self_s", "s"),
     ("moments.SampleBatch.calls", "count"), ("moments.SampleBatch.bytes_copied", "bytes"),
     ("moments.copy_ratio", "ratio"),
     ("moments.accumulate.self_s", "s"), ("moments.accumulate.samples", "count"),
     ("moments.accumulate_compensated.self_s", "s"), ("moments.merge.calls", "count"),
     ("moments.read_csv.self_s", "s"), ("moments.read_csv.bytes", "bytes"),
     ("moments.read_csv.rows", "count"),
     ("moments.to_csv_text.self_s", "s"), ("moments.to_csv_text.bytes", "bytes"),
     ("scaling.track_moving_optimum.self_s", "s"), ("scaling.track_moving_optimum.steps", "count"),
     ("scaling.track_to_csv.self_s", "s"), ("scaling.track_to_csv.bytes", "bytes"),
     ("scaling.run_path.self_s", "s"), ("scaling.run_path.iterates", "count"),
     ("scaling.certify_optimum.self_s", "s"),
     ("diagnostics.triad_report.self_s", "s"), ("diagnostics.report_to_json.self_s", "s"),
     ("textio.dumps_stable.self_s", "s")]
    + [(f"safezone_map.{f}.self_s", "s") for f in
       ("map_point", "build_left_map", "build_right_map", "emit_dataset", "render_svg")]
    + [("safezone_map.render_svg.bytes", "bytes")]
    + [(f"{name}.{stat}", unit) for name in SPAN_NAMES
       for stat, unit in (("errors", "count"), ("maxrss_rise_mb", "MB"))]
    + [("trace.overhead_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.accounted_s", "s"),
       ("trace.unattributed_s", "s"),
       ("oracle.known_defect_ops", "count"), ("oracle.mse_rel_error_max", "ratio")]
)


def _span_name(base: str, kwargs: dict) -> str:
    if base == "moments.accumulate" and kwargs.get("compensated"):
        return "moments.accumulate_compensated"
    return base


def _wrap(tracer: Tracer, fn, base: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = _span_name(base, kwargs)
        pilot = name == PILOT
        tracer.pilot_depth += pilot
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, raised=True)
            raise
        finally:
            tracer.pilot_depth -= pilot
        tracer.close(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result
    return traced


def install(tracer: Tracer):
    """Wrap every target wherever a powertriad module binds it; returns an undo."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "powertriad" or name.startswith("powertriad.")]
    saved = []
    for module, function, counter in TARGETS:
        original = getattr(sys.modules[f"powertriad.{module}"], function)
        wrapped = _wrap(tracer, original, f"{module}.{function}", counter)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                saved.append((m, key, original))
                setattr(m, key, wrapped)
    batch = sys.modules["powertriad.moments"].SampleBatch
    saved.append((batch, "__init__", batch.__init__))
    batch.__init__ = _wrap(tracer, batch.__init__, "moments.SampleBatch", _count_batch)

    def undo() -> None:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)
    return undo


def layer_metrics(tracer: Tracer, samples_consumed: int) -> dict[str, float]:
    """Self time, calls, errors and maxrss rise per span name, plus the counters."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, *_ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    errors: Counter = Counter()
    rise: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, op, rss_rise, raised) in enumerate(tracer.spans):
        self_s[name] += end - start - child_time[i]
        calls[name] += 1
        errors[name] += raised
        rise[name] += rss_rise
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.errors"] = errors[name]
        metrics[f"{name}.maxrss_rise_mb"] = rise[name]
    metrics.update({k: v for k, v in tracer.counts.items() if "." in k})
    used = tracer.counts["used_samples"]
    metrics["zoo.pilot_waste_ratio"] = tracer.counts["pilot_samples"] / used if used else 0.0
    input_bytes = 16 * samples_consumed
    metrics["moments.copy_ratio"] = (
        tracer.counts["moments.SampleBatch.bytes_copied"] / input_bytes if input_bytes else 0.0)
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.* seconds from `python -X importtime` output.

    powertriad is the package's cumulative import time; numpy and scipy are
    the summed self times of every module in their namespaces, wherever in
    the import tree they load.
    """
    self_us: Counter = Counter()
    cumulative_us: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        self_us[name.split(".")[0]] += int(fields[0])
        cumulative_us.setdefault(name, int(fields[1]))
    return {
        "import.powertriad_s": cumulative_us.get("powertriad", 0) / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
    }
