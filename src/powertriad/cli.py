"""Command-line front end.

Exit status encodes the diagnosed regime so shell pipelines can gate on it:
0 for safe/balance, 3 when the estimate is power dominant, 1 for runtime
errors, 2 for usage errors.  Settings resolve lowest to highest as
defaults, then flags, then the --config file: a key present in the config
file wins over the matching flag.  All file output is written atomically
(temp file in the target directory, then rename) and all numeric text uses
17 significant digits, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Callable, Optional

import numpy as np

from . import diagnostics, moments, safezone_map, scaling, zoo
from .errors import PowerTriadError
from .textio import dumps_stable, parse_kv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_POWER_DOMINANT = 3

DEFAULT_SAMPLES = 10000
DEFAULT_FORGETTING = 0.99
DEFAULT_MAP_ESTIMATORS = ("zero", "identity", "scale(c=0.5)", "amplifier(c=2)")

_EPILOG = (
    "exit status: 0 safe/balance, 3 power-dominant (diagnose), "
    "1 runtime error, 2 usage error. "
    "Precedence: defaults < flags < --config file."
)

# config keys accepted per --config; estimator values may be ';'-separated
_CONFIG_COERCERS: dict[str, Callable[[str], object]] = {
    "input": str,
    "problem": str,
    "estimator": lambda v: [part.strip() for part in v.split(";") if part.strip()],
    "controller": str,
    "samples": int,
    "seed": int,
    "balance_tol": float,
    "degeneracy_tol": float,
    "format": str,
    "out": str,
    "forgetting": float,
}


def _add_common(parser: argparse.ArgumentParser, *, estimators: str = "single") -> None:
    parser.add_argument("--input", help="CSV file of x,v pairs")
    parser.add_argument("--problem", help="problem spec, e.g. gaussian_shrinkage(noise_power=0.5)")
    if estimators == "single":
        parser.add_argument("--estimator", action="append",
                            help="estimator spec applied to the candidate column")
    elif estimators == "many":
        parser.add_argument("--estimator", action="append",
                            help="estimator spec; repeat for several")
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, metavar="N",
                        help=f"sample count for generated problems (default {DEFAULT_SAMPLES})")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="override the problem spec's seed")
    parser.add_argument("--balance-tol", type=float, default=diagnostics.BALANCE_TOL,
                        dest="balance_tol", help="relative width of the balance band")
    parser.add_argument("--degeneracy-tol", type=float, default=diagnostics.DEGENERACY_TOL,
                        dest="degeneracy_tol", help="threshold for a negligible coupling")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value file; overrides flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertriad",
        description="Power-regime diagnostics and safe scaling for estimators.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="triad report and regime-coded exit status",
                       epilog=_EPILOG)
    _add_common(p)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("scale", help="fit the optimal scale and certify it", epilog=_EPILOG)
    _add_common(p)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("path", help="run a scaling controller and trace it", epilog=_EPILOG)
    _add_common(p)
    p.add_argument("--controller", metavar="FILE",
                   help="flat key=value controller config (kind, eta, beta, t0, conv_tol, max_steps)")
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("track", help="track a drifting optimum", epilog=_EPILOG)
    _add_common(p, estimators="none")
    p.add_argument("--forgetting", type=float, default=DEFAULT_FORGETTING, metavar="L",
                   help=f"forgetting factor in (0, 1] (default {DEFAULT_FORGETTING})")
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("map", help="emit safe-zone maps (CSV, JSON sidecar, SVG)",
                       epilog=_EPILOG)
    _add_common(p, estimators="many")
    p.add_argument("--format", choices=("csv", "json", "svg", "all"), default="all")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("zoo", help="list problem/estimator kinds or export a run",
                       epilog=_EPILOG)
    p.add_argument("action", choices=("list", "run"))
    _add_common(p)
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_zoo)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        pairs = parse_kv(fh.read())
    estimators: list[str] = []
    for key, value in pairs:
        key = key.replace("-", "_")
        coerce = _CONFIG_COERCERS.get(key)
        if coerce is None or not hasattr(args, key):
            raise ValueError(f"{args.config}: unknown config key {key!r}")
        try:
            coerced = coerce(value)
        except ValueError:
            raise ValueError(f"{args.config}: bad value for {key!r}: {value!r}") from None
        if key == "estimator":
            estimators.extend(coerced)
        else:
            setattr(args, key, coerced)
    if estimators:
        args.estimator = estimators


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".powertriad-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.umask(umask := os.umask(0))
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes 0600; give open()'s mode
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _problem_of(args: argparse.Namespace) -> zoo.ProblemSpec:
    problem = zoo.parse_problem_spec(args.problem)
    if args.seed is not None:
        problem = zoo.with_seed(problem, args.seed)
    return problem


def _estimators(args: argparse.Namespace) -> list[zoo.EstimatorSpec]:
    """The command's --estimator, if any, after the --input/--problem conflict check."""
    if args.input and args.problem:
        raise ValueError("give either --input or --problem, not both")
    specs = getattr(args, "estimator", None) or []
    if len(specs) > 1:
        raise ValueError("this command takes a single --estimator")
    return [zoo.parse_estimator_spec(text) for text in specs]


def _read(
    args: argparse.Namespace,
) -> tuple[Optional[moments.SampleBatch], Optional[zoo.ProblemSpec]]:
    """The parsed --input batch, or else the --problem spec."""
    if args.input:
        return moments.read_csv(args.input), None
    if args.problem:
        return None, _problem_of(args)
    raise ValueError("need --input or --problem")


def _summaries(
    args: argparse.Namespace, estimators: list[zoo.EstimatorSpec]
) -> tuple[moments.MomentSummary, list[moments.MomentSummary]]:
    """Reduce the input chunk by chunk: its raw summary and one summary per estimator."""
    batch, problem = _read(args)
    source = (zoo.batch_source(batch) if problem is None
              else zoo.problem_source(problem, args.samples))
    return zoo.summarize(source, estimators)


def _finalize(est: zoo.EstimatorSpec, raw: moments.MomentSummary,
              summary: moments.MomentSummary) -> moments.MomentStats:
    """An estimator's statistics, refusing an amplifier that is not dominant on the raw data."""
    if est.kind == "amplifier":
        zoo.verify_amplifier(est, raw)
    return moments.finalize(summary)


def _stats(args: argparse.Namespace) -> moments.MomentStats:
    """Statistics of the command's single estimator on its input, or of the raw input.

    Errors keep one order: the --input/--problem conflict, then the
    estimator spec, then the input.
    """
    estimators = _estimators(args)
    raw, summaries = _summaries(args, estimators)
    if not estimators:
        return moments.finalize(raw)
    return _finalize(estimators[0], raw, summaries[0])


def _rows(args: argparse.Namespace) -> tuple[moments.SampleBatch, Optional[zoo.ProblemSpec]]:
    """The full (x, v) rows that track and zoo run emit, the single --estimator applied."""
    estimators = _estimators(args)
    batch, problem = _read(args)
    if batch is None:
        batch = zoo.generate(problem, args.samples)
    for est in estimators:
        if est.kind == "amplifier":
            zoo.verify_amplifier(est, zoo.summarize(zoo.batch_source(batch), [])[0])
        batch = zoo.apply_estimator(est, batch)
    return batch, problem


def cmd_diagnose(args: argparse.Namespace) -> int:
    stats = _stats(args)
    report = diagnostics.triad_report(stats, balance_tol=args.balance_tol,
                                      tol=args.degeneracy_tol)
    _emit(diagnostics.report_to_json(report) + "\n", args.out)
    if report.regime is diagnostics.RegimeLabel.POWER_DOMINANT:
        return EXIT_POWER_DOMINANT
    return EXIT_OK


def cmd_scale(args: argparse.Namespace) -> int:
    certificate = scaling.certify_optimum(scaling.ScalingProblem.from_stats(_stats(args)))
    doc = {
        "t_star": certificate.t_star,
        "mse_at_star": certificate.mse_at_star,
        "orthogonality_residual": certificate.orthogonality_residual,
        "power_at_star": certificate.power_at_star,
        "conservation_margin": certificate.conservation_margin,
        "collinear": certificate.collinear,
    }
    _emit(dumps_stable(doc) + "\n", args.out)
    return EXIT_OK


def _trace_summary(trace: scaling.ScalingTrace) -> dict:
    return {
        "t_star": trace.t_star,
        "t_balance": trace.t_balance,
        "converged": trace.converged,
        "steps_to_converge": trace.steps_to_converge,
        "max_overshoot": trace.max_overshoot,
        "forbidden_steps": trace.forbidden_steps,
        "iterates": len(trace.iterates),
    }


def cmd_path(args: argparse.Namespace) -> int:
    problem = scaling.ScalingProblem.from_stats(_stats(args))
    controller = (scaling.load_controller_config(args.controller)
                  if args.controller else scaling.ControllerConfig())
    trace = scaling.run_path(problem, controller, balance_tol=args.balance_tol)
    csv_text = scaling.trace_to_csv(trace)
    json_text = dumps_stable(_trace_summary(trace)) + "\n"
    if args.out:
        _write_atomic(args.out + ".csv", csv_text)
        _write_atomic(args.out + ".json", json_text)
    else:
        sys.stdout.write(csv_text)
        sys.stdout.write(json_text)
    return EXIT_OK


def cmd_track(args: argparse.Namespace) -> int:
    batch, problem = _rows(args)
    reference = None
    if problem is not None:
        reference = zoo.population_moments(problem, np.arange(args.samples))
    trace = scaling.track_moving_optimum(batch, args.forgetting, reference=reference,
                                         balance_tol=args.balance_tol)
    _emit(scaling.track_to_csv(trace), args.out)
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    if args.input:
        raise ValueError("map works on generated problems; give --problem")
    if not args.problem:
        raise ValueError("need --problem")
    # every spec is parsed before the draw: the one pass reduces them all
    estimators = [zoo.parse_estimator_spec(text)
                  for text in args.estimator or DEFAULT_MAP_ESTIMATORS]
    raw, summaries = _summaries(args, estimators)
    points = [safezone_map.map_point(est.label, _finalize(est, raw, summary),
                                     balance_tol=args.balance_tol)
              for est, summary in zip(estimators, summaries)]
    scaling_problem = scaling.ScalingProblem.from_stats(moments.finalize(raw))
    certificate = scaling.certify_optimum(scaling_problem)
    points.append(safezone_map.map_point_from_certificate(
        "optimum", scaling_problem, certificate, balance_tol=args.balance_tol))

    formats = ("csv", "json", "svg") if args.format == "all" else (args.format,)
    datasets = (
        ("left", safezone_map.build_left_map(points, problem=scaling_problem)),
        ("right", safezone_map.build_right_map(points, problem=scaling_problem)),
    )
    for name, dataset in datasets:
        files = safezone_map.emit_dataset(dataset)
        rendered = {"csv": files.csv, "json": files.geometry,
                    "svg": safezone_map.render_svg(dataset)}
        for fmt in formats:
            if args.out:
                _write_atomic(f"{args.out}_{name}.{fmt}", rendered[fmt])
            else:
                sys.stdout.write(rendered[fmt])
    return EXIT_OK


def cmd_zoo(args: argparse.Namespace) -> int:
    if args.action == "list":
        lines = ["problem kinds:"]
        lines.extend(f"  {kind}" for kind in zoo.PROBLEM_KINDS)
        lines.append("estimator kinds:")
        lines.extend(f"  {kind}" for kind in zoo.ESTIMATOR_KINDS)
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    if not args.problem:
        raise ValueError("zoo run needs --problem")
    _emit(moments.to_csv_text(_rows(args)[0]), args.out)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (PowerTriadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console() -> None:
    sys.exit(main())
