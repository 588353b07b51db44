"""The benchmark's workloads: fixed op lists, their inputs and oracle checks.

Every input is made from the --seed argument.  The program sees only the
generated CLI arguments and CSV files; the oracle builds its references from
the same arrays (see oracle.py).

csv-1e6    CLI ops that parse and emit 1e6-row CSV text, side by side.
gen-1e7    CLI ops on generated problems at n=1e7; generation, batch copies
           and accumulation dominate, and they set the peak RSS.
api-1e6    in-process library calls at n=1e6; only the compute layers work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from oracle import (CHUNK, Check, Reference, check_diagnose, check_map, check_path,
                    check_scale, check_track, check_zoo_run, draw)

PROBLEM = "gaussian_shrinkage(noise_power=0.5)"
PROBLEM_PARAMS = {"noise_power": 0.5}
MAP_ESTIMATORS = [("zero", 0.0), ("identity", 1.0), ("scale(c=0.5)", 0.5), ("amplifier(c=2)", 2.0)]
KINDS = ("gaussian_shrinkage", "deterministic_parameter", "heavy_tail", "step_change",
         "drifting_power")
CONTROLLERS = ("gradient", "momentum", "projected")


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    value: Optional[dict] = None  # what an API op returns


@dataclass(frozen=True)
class Op:
    name: str
    samples: int  # (x, v) pairs the op consumes
    ref: str  # key of its reference in Plan.references()
    check: Callable[[Check, Outcome], None]
    args: tuple[str, ...] = ()  # CLI ops: arguments after `powertriad`
    call: Optional[Callable] = None  # API ops: call(powertriad) -> summary dict
    outputs: tuple[Path, ...] = ()  # files a CLI op writes


@dataclass
class Plan:
    ops: list[Op]
    references: Callable[[], dict[str, Reference]]
    cli: bool
    inputs: dict[str, str] = field(default_factory=dict)  # input file -> sha256


def write_csv(path: Path, x: np.ndarray, v: np.ndarray) -> str:
    """Write an x,v CSV with shortest round-trip decimals; returns its sha256."""
    rows = map(",".join, zip(map(repr, x.tolist()), map(repr, v.tolist())))
    data = ("x,v\n" + "\n".join(rows) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _map_outputs(prefix: Path) -> tuple[Path, ...]:
    return tuple(prefix.with_name(f"{prefix.name}_{side}.{fmt}")
                 for side in ("left", "right") for fmt in ("csv", "json", "svg"))


def _generated_ops(work: Path, seed: int, n: int) -> list[Op]:
    """diagnose (two estimators), scale, path and map on PROBLEM at n samples."""
    gen = ("--problem", PROBLEM, "--seed", str(seed), "--samples", str(n))
    prefix = work / "map"
    return [
        Op("diagnose-scale", n, "p", partial(check_diagnose, 0.7),
           args=("diagnose", *gen, "--estimator", "scale(c=0.7)")),
        Op("diagnose-amplifier", n, "p", partial(check_diagnose, 2.0),
           args=("diagnose", *gen, "--estimator", "amplifier(c=2)")),
        Op("scale", n, "p", check_scale, args=("scale", *gen)),
        Op("path", n, "p", check_path, args=("path", *gen)),
        Op("map", n, "p", partial(check_map, prefix, MAP_ESTIMATORS),
           args=("map", *gen, "--out", str(prefix)), outputs=_map_outputs(prefix)),
    ]


def gen_1e7(work: Path, seed: int) -> Plan:
    n = 10_000_000

    def references() -> dict[str, Reference]:
        return {"p": Reference(*draw("gaussian_shrinkage", seed, n, **PROBLEM_PARAMS))}

    return Plan(_generated_ops(work, seed, n), references, cli=True)


def csv_1e6(work: Path, seed: int) -> Plan:
    n = 1_000_000
    heavy = draw("heavy_tail", seed, n)
    # ROADMAP item 1's cancellation case: high power, accurate estimate
    rng = np.random.default_rng(seed)
    x_off = 1e3 + rng.standard_normal(n)
    offset = (x_off, x_off + 1e-6 * rng.standard_normal(n))
    heavy_csv, offset_csv = work / "heavy.csv", work / "offset.csv"
    inputs = {heavy_csv.name: write_csv(heavy_csv, *heavy),
              offset_csv.name: write_csv(offset_csv, *offset)}
    refs = {"heavy": Reference(*heavy), "offset": Reference(*offset, cancellation=True)}
    zoo_out, track_out = work / "zoo.csv", work / "track.csv"
    ops = [
        Op("zoo-run-write", n, "heavy", partial(check_zoo_run, zoo_out, n),
           args=("zoo", "run", "--problem", "heavy_tail", "--seed", str(seed), "--samples", str(n),
                 "--out", str(zoo_out)), outputs=(zoo_out,)),
        Op("diagnose-offset", n, "offset", partial(check_diagnose, 1.0),
           args=("diagnose", "--input", str(offset_csv))),
        Op("scale-offset", n, "offset", check_scale, args=("scale", "--input", str(offset_csv))),
        Op("path-heavy", n, "heavy", check_path, args=("path", "--input", str(heavy_csv))),
        Op("track-heavy", n, "heavy", partial(check_track, track_out, n),
           args=("track", "--input", str(heavy_csv), "--out", str(track_out)),
           outputs=(track_out,)),
    ]
    return Plan(ops, lambda: refs, cli=True, inputs=inputs)


API_N = 1_000_000


def api_op(pt, kind: str, seed: int) -> dict:
    """generate, chunked reduce (plain and compensated), report, certify,
    three controller paths and two tracking runs for one problem kind."""
    spec = pt.ProblemSpec(kind=kind, seed=seed)
    batch = pt.generate(spec, API_N)
    stats = {}
    for compensated in (False, True):
        total = pt.MomentSummary()
        for lo in range(0, API_N, CHUNK):
            chunk = pt.SampleBatch(batch.x[lo:lo + CHUNK], batch.v[lo:lo + CHUNK])
            part = pt.accumulate(pt.MomentSummary(), chunk, compensated=compensated)
            total = pt.merge(total, part)
        stats[compensated] = pt.finalize(total)
    report = pt.triad_report(stats[False])
    problem = pt.ScalingProblem.from_stats(stats[False])
    certificate = pt.certify_optimum(problem)
    paths = [pt.run_path(problem, pt.ControllerConfig(kind=k)) for k in CONTROLLERS]
    reference = pt.population_moments(spec, np.arange(API_N))
    tracks = [pt.track_moving_optimum(batch, lam, reference=reference) for lam in (0.99, 1.0)]
    return {
        "stats": [(s.mse, s.coupling, s.mean_e) for s in stats.values()],
        "regime": report.regime.value,
        "t_star": certificate.t_star,
        "mse_at_star": certificate.mse_at_star,
        "path_t_star": [p.t_star for p in paths],
        "track_steps": [len(t) for t in tracks],
        "t_tracked_0": float(tracks[0].t_tracked[0]),
        "t_true_0": float(tracks[0].t_true[0]),
        "t_tracked_last_cumulative": float(tracks[1].t_tracked[-1]),
    }


def _api_check(chk: Check, out: Outcome) -> None:
    ref, value = chk.ref, out.value
    for mse, coupling, mean_e in value["stats"]:
        chk.close("mse", mse, ref.mse())
        chk.close("coupling", coupling, ref.coupling())
        chk.close("bias", mean_e, ref.mean_e())
    chk.equal("regime", value["regime"], ref.regime())
    chk.close("t_star", value["t_star"], ref.t_star())
    chk.close("mse_at_star", value["mse_at_star"], ref.mse(ref.t_star()))
    for t in value["path_t_star"]:
        chk.close("path_t_star", t, ref.t_star())
    chk.equal("track_steps", value["track_steps"], [API_N, API_N])
    x0, z0 = ref.rows[0]
    chk.close("t_tracked_0", value["t_tracked_0"], x0 / z0, rel=1e-12)
    chk.close("t_true_0", value["t_true_0"], 0.5, rel=1e-12)  # s/(s+σ²) at k=0, defaults
    chk.close("t_tracked_last_cumulative", value["t_tracked_last_cumulative"], ref.t_star())


def api_1e6(work: Path, seed: int) -> Plan:
    seeds = {kind: seed + i for i, kind in enumerate(KINDS)}
    ops = [Op(f"api-{kind}", API_N, kind, _api_check, call=partial(api_op, kind=kind, seed=s))
           for kind, s in seeds.items()]

    def references() -> dict[str, Reference]:
        return {kind: Reference(*draw(kind, s, API_N)) for kind, s in seeds.items()}

    return Plan(ops, references, cli=False)


WORKLOADS: dict[str, Callable[[Path, int], Plan]] = {
    "csv-1e6": csv_1e6,
    "gen-1e7": gen_1e7,
    "api-1e6": api_1e6,
}
