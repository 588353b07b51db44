"""Command-line front end.

Exit status encodes the diagnosed regime so shell pipelines can gate on it:
0 for safe/balance, 3 when the estimate is power dominant, 1 for runtime
errors, 2 for usage errors.  Settings resolve lowest to highest as
defaults, then flags, then the --config file: a key present in the config
file wins over the matching flag.  All output goes through textio.write_text,
which replaces a file atomically (temp file beside it, then rename), and all
numeric text uses 17 significant digits, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from typing import Iterable, Optional

import numpy as np

from . import diagnostics, moments, safezone_map, scaling, zoo
from .errors import PowerTriadError
from .textio import dumps_stable, parse_kv, write_text

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

def _add_common(parser: argparse.ArgumentParser, *, estimators: str = "single",
                tols: tuple[str, ...] = ()) -> None:
    """Input, estimator and output options, and the tolerances the command reads, in ``tols``."""
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
    if "balance_tol" in tols:
        parser.add_argument("--balance-tol", type=float, default=diagnostics.BALANCE_TOL,
                            dest="balance_tol", help="relative width of the balance band")
    if "degeneracy_tol" in tols:
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
    _add_common(p, tols=("balance_tol", "degeneracy_tol"))
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("scale", help="fit the optimal scale and certify it", epilog=_EPILOG)
    _add_common(p)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("path", help="run a scaling controller and trace it", epilog=_EPILOG)
    _add_common(p, tols=("balance_tol",))
    p.add_argument("--controller", metavar="FILE",
                   help="flat key=value controller config (kind, eta, beta, t0, conv_tol, max_steps)")
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("track", help="track a drifting optimum", epilog=_EPILOG)
    _add_common(p, estimators="none", tols=("balance_tol",))
    p.add_argument("--forgetting", type=float, default=DEFAULT_FORGETTING, metavar="L",
                   help=f"forgetting factor in (0, 1] (default {DEFAULT_FORGETTING})")
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("map", help="emit safe-zone maps (CSV, JSON sidecar, SVG)",
                       epilog=_EPILOG)
    _add_common(p, estimators="many", tols=("balance_tol",))
    p.add_argument("--format", choices=("csv", "json", "svg", "all"), default="all")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("zoo", help="list problem/estimator kinds or export a run",
                       epilog=_EPILOG)
    p.add_argument("action", choices=("list", "run"))
    _add_common(p)
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_zoo)

    for p in sub.choices.values():
        # the keys a --config file may set: the command's own options, checked as its flags are
        p.set_defaults(options={a.dest: a for a in p._actions
                                if a.option_strings and a.dest not in ("help", "config")})
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        pairs = parse_kv(fh.read(), "config key", lambda key: key.replace("-", "_"))
    for key, value in pairs.items():
        option = args.options.get(key)
        if option is None:
            raise ValueError(f"{args.config}: unknown config key {key!r}")
        if key == "estimator":  # a ';'-separated list
            listed = [part.strip() for part in value.split(";") if part.strip()]
            args.estimator = listed or args.estimator
            continue
        try:
            coerced = (option.type or str)(value)
            if option.choices is not None and coerced not in option.choices:
                raise ValueError
        except ValueError:
            raise ValueError(f"{args.config}: bad value for {key!r}: {value!r}") from None
        setattr(args, key, coerced)


def _emit(out: Optional[str], *files: tuple[str, Iterable[str]]) -> None:
    """Write each (suffix, blocks) to out + suffix, or to stdout if out is empty (write_text)."""
    for suffix, blocks in files:
        write_text(out + suffix if out else None, blocks)


def _input(
    args: argparse.Namespace, many: bool = False, generated_only: tuple[str, ...] = ()
) -> tuple[list[zoo.EstimatorSpec], tuple[int, moments.Rows], Optional[zoo.ProblemSpec]]:
    """The --estimator specs, the --input or --problem source, and the --problem or None.

    Errors keep one order: the --input/--problem conflict, the estimator specs
    (more than one only if ``many``), then the input; ``generated_only`` holds
    the texts that refuse an --input and no input, for generated-only commands.
    """
    if args.input and args.problem:
        raise ValueError("give either --input or --problem, not both")
    specs = getattr(args, "estimator", None) or []
    if len(specs) > 1 and not many:
        raise ValueError("this command takes a single --estimator")
    estimators = [zoo.parse_estimator_spec(text) for text in specs]
    if generated_only and not args.problem:
        raise ValueError(generated_only[not args.input])
    if args.input:
        return estimators, zoo.batch_source(moments.read_csv(args.input)), None
    if not args.problem:
        raise ValueError("need --input or --problem")
    problem = zoo.parse_problem_spec(args.problem)
    if args.seed is not None:
        problem = zoo.with_seed(problem, args.seed)
    return estimators, zoo.problem_source(problem, args.samples), problem


def _stats(args: argparse.Namespace) -> moments.MomentStats:
    """Statistics of the command's single estimator on its input, or of the raw input.

    The input is reduced chunk by chunk to its raw summary and the estimator's.
    """
    estimators, source, _ = _input(args)
    raw, summaries = zoo.summarize(source, estimators)
    return moments.finalize((summaries or [raw])[0])


def cmd_diagnose(args: argparse.Namespace) -> int:
    stats = _stats(args)
    report = diagnostics.triad_report(stats, balance_tol=args.balance_tol,
                                      tol=args.degeneracy_tol)
    _emit(args.out, ("", (diagnostics.report_to_json(report) + "\n",)))
    if report.regime is diagnostics.RegimeLabel.POWER_DOMINANT:
        return EXIT_POWER_DOMINANT
    return EXIT_OK


def cmd_scale(args: argparse.Namespace) -> int:
    certificate = scaling.certify_optimum(scaling.ScalingProblem.from_stats(_stats(args)))
    _emit(args.out, ("", (dumps_stable(asdict(certificate)) + "\n",)))
    return EXIT_OK


def cmd_path(args: argparse.Namespace) -> int:
    problem = scaling.ScalingProblem.from_stats(_stats(args))
    controller = (scaling.load_controller_config(args.controller)
                  if args.controller else scaling.ControllerConfig())
    trace = scaling.run_path(problem, controller, balance_tol=args.balance_tol)
    summary = {f.name: getattr(trace, f.name) for f in fields(trace)}
    summary["iterates"] = len(trace.iterates)
    _emit(args.out, (".csv", (scaling.trace_to_csv(trace),)),
          (".json", (dumps_stable(summary) + "\n",)))
    return EXIT_OK


def cmd_track(args: argparse.Namespace) -> int:
    _, source, problem = _input(args)
    # every error comes before the first byte; the forked writers then re-read the source (an
    # --input batch is kept, as a second parse would cost more) and the reference
    _emit(args.out, ("", scaling.track_csv_blocks(
        source, args.forgetting, None if problem is None else
        lambda lo, hi: zoo._population_moments(problem, np.arange(lo, hi)), args.balance_tol)))
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    # every spec is parsed before the draw: the one pass reduces them all
    estimators, source, _ = _input(args, many=True, generated_only=(
        "map works on generated problems; give --problem", "need --problem"))
    estimators = estimators or [zoo.parse_estimator_spec(t) for t in DEFAULT_MAP_ESTIMATORS]
    raw, summaries = zoo.summarize(source, estimators)
    points = [safezone_map.map_point(est.label, moments.finalize(summary),
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
        _emit(args.out, *((f"_{name}.{fmt}", (rendered[fmt],)) for fmt in formats))
    return EXIT_OK


def cmd_zoo(args: argparse.Namespace) -> int:
    if args.action == "list":
        lines = ["problem kinds:"]
        lines.extend(f"  {kind}" for kind in zoo.PROBLEM_KINDS)
        lines.append("estimator kinds:")
        lines.extend(f"  {kind}" for kind in zoo.ESTIMATOR_KINDS)
        _emit(args.out, ("", ("\n".join(lines) + "\n",)))
        return EXIT_OK
    estimators, source, _ = _input(args, generated_only=("zoo run needs --problem",) * 2)
    for est in estimators:  # every check and fit runs before the first row is written
        if est.kind == "amplifier":  # on the raw sums alone: c·z may overflow where z does not
            zoo.verify_amplifier(est, zoo.summarize(source, [])[0])
        source = zoo.estimator_source(est, source)
    _emit(args.out, ("", moments.csv_blocks(source)))
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except BrokenPipeError:  # a closed stdout (`| head`) ends quietly, its buffer to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (PowerTriadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console() -> None:
    sys.exit(main())
