"""Command line interface.

Subcommands: example, analyze, simulate, counterexample, suite. Exit codes:
0 on success, 2 on validation or precondition failures, 3 when an
enumeration or step budget runs out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import BudgetExceededError, RankgamesError, ValidationError
from .model import _SCORE_KINDS, ScoreFunction, game_from_dict
from .dynamics import (
    BEST,
    BETTER,
    BudgetExhausted,
    ConvergedPNE,
    FirstDeviator,
    RandomOrder,
    RepeatDetected,
    RoundRobin,
    trajectory_to_jsonl,
)
from .analysis import analysis_report
from .dynamics import run_dynamics
from .counterexamples import (
    build_action_cycle_game,
    build_band_cycle_game,
    build_exposure_cycle_game,
    bundle_to_dict,
)
from .harness import config_from_dict, format_example_tables, run_experiment_suite


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer beyond the int conversion digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_profile(text: str, n: int):
    parts = text.split(",")
    if len(parts) != n:
        raise ValidationError(f"initial profile needs {n} comma-separated topics")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad initial profile {text!r}") from exc


def _make_scheduler(args):
    if args.scheduler == "round-robin":
        if args.order is None:
            return RoundRobin()
        try:
            order = tuple(int(p) for p in args.order.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad --order {args.order!r}") from exc
        return RoundRobin(order)
    if args.scheduler == "first-deviator":
        return FirstDeviator()
    return RandomOrder(args.seed)


def _make_score(args) -> ScoreFunction:
    kind = args.f.replace("-", "_")
    if kind == "exponential" and args.param is None:
        return ScoreFunction.exponential(1.0)
    return ScoreFunction(kind, args.param)


def _cmd_example(args) -> int:
    _write_output(format_example_tables(), args.output)
    return 0


def _cmd_analyze(args) -> int:
    game = game_from_dict(_read_json(args.game))
    report = analysis_report(game, margin=args.margin)
    _write_output(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def _cmd_simulate(args) -> int:
    game = game_from_dict(_read_json(args.game))
    init = _parse_profile(args.init, game.n)
    sched = _make_scheduler(args)
    outcome = run_dynamics(
        game, init, sched,
        max_steps=args.max_steps, response=args.response, margin=args.margin,
    )
    lines = trajectory_to_jsonl(outcome.trajectory)
    if isinstance(outcome, ConvergedPNE):
        tail = {
            "outcome": "converged",
            "profile": list(outcome.profile),
            "steps": outcome.steps_taken,
        }
        if outcome.repeat_seen:
            tail["repeat_seen"] = True
    elif isinstance(outcome, RepeatDetected):
        tail = {
            "outcome": "cycle",
            "repeated_profile_index": outcome.repeated_profile_index,
        }
    else:
        tail = {"outcome": "budget_exhausted"}
        if outcome.repeat_seen:
            tail["repeat_seen"] = True
    _write_output(lines + json.dumps(tail) + "\n", args.output)
    return 3 if isinstance(outcome, BudgetExhausted) else 0


def _cmd_counterexample(args) -> int:
    f = _make_score(args)
    if args.construction == "thm3":
        bundle = build_exposure_cycle_game(f)
    elif args.construction == "thm4":
        if args.alpha is None:
            raise ValidationError("thm4 requires --alpha")
        bundle = build_action_cycle_game(f, args.alpha)
    else:
        if args.alpha is None or args.beta is None:
            raise ValidationError("thm5 requires --alpha and --beta")
        bundle = build_band_cycle_game(f, args.alpha, args.beta)
    _write_output(json.dumps(bundle_to_dict(bundle), indent=2) + "\n", args.output)
    return 0


def _cmd_suite(args) -> int:
    config = config_from_dict(_read_json(args.config))
    report = run_experiment_suite(config, out_dir=args.output)
    if args.output is None:
        sys.stdout.write(report.to_csv())
    else:
        summary = {k: v for k, v in report.aggregate.items() if k != "cycle_witnesses"}
        sys.stdout.write(json.dumps(summary) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser, and its subcommands' parsers, that report a
    rejected argument in one line, as main reports every other error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankgames",
        description="Strategic content games: analysis, dynamics, counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="print the worked example's payoff tables")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("analyze", help="improvement graph, equilibria, potential")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run better or best response dynamics")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--init", required=True, help="starting profile, e.g. 2,2")
    p.add_argument(
        "--scheduler",
        choices=("round-robin", "first-deviator", "random"),
        default="round-robin",
    )
    p.add_argument("--order", help="round-robin order, e.g. 2,1,3")
    p.add_argument("--seed", type=int, default=0, help="random scheduler seed")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--response", choices=(BETTER, BEST), default=BETTER)
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("counterexample", help="build a cycling game for a score scheme")
    p.add_argument("construction", choices=("thm3", "thm4", "thm5"))
    p.add_argument(
        "--f", choices=[k.replace("_", "-") for k in _SCORE_KINDS], default="identity"
    )
    p.add_argument("--param", type=float, help="exponent or scale for --f")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("suite", help="run a batch of seeded random games")
    p.add_argument("config", help="path to an experiment config JSON file")
    p.add_argument("-o", "--output", help="directory for report.csv and report.json")
    p.set_defaults(func=_cmd_suite)

    return parser


# built on the first main() call, not at import, and reused by later calls
# in the same process; parse_args leaves the parser unchanged
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # a rejected argument (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RankgamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
