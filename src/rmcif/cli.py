"""Command-line front end: generate, solve, export-lp, bench."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import run_bench, solve_one, summary_table
from .core import (
    ABSOLUTE,
    ALL_SOLVERS,
    DEVIATION,
    HEURISTIC_SOLVERS,
    InvalidParameter,
    RmcifError,
    format_solution,
    parse_instance,
    write_instance,
)
from .exact import check_budget, export_lp
from .generator import GeneratorSpec, generate
from .heuristics import SearchParams, check_seed

_VARIANT_ALIASES = {
    "abs": ABSOLUTE,
    "absolute": ABSOLUTE,
    "dev": DEVIATION,
    "deviation": DEVIATION,
}

_UNBOUNDED_PARAMS = ("iteration_limit", "generation_limit")


def _variant(text: str) -> str:
    try:
        return _VARIANT_ALIASES[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown variant {text!r} (expected abs or dev)"
        ) from None


def _variants(text: str) -> tuple[str, ...]:
    """Variants from a comma-separated list; an unknown tag raises `InvalidParameter`."""
    try:
        return tuple(_variant(v) for v in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise InvalidParameter(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose syntax errors raise `RmcifError` instead of exiting 2."""

    def error(self, message: str):
        raise RmcifError(message)


def _int_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers lo:hi, got {text!r}") from None
    return lo, hi


def _widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _seeds(text: str) -> tuple[int, ...]:
    """Seeds from 'lo:hi' or a comma-separated list; bad input raises `InvalidParameter`."""
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            seeds = tuple(range(int(lo), int(hi) + 1))
        else:
            seeds = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise InvalidParameter(f"expected 'lo:hi' or comma-separated seeds, got {text!r}") from None
    if not seeds:
        raise InvalidParameter(f"seed range {text!r} is empty")
    for seed in seeds:
        check_seed(seed)
    return seeds


def _solver_list(text: str) -> tuple[str, ...]:
    if text == "all":
        return HEURISTIC_SOLVERS
    solvers = tuple(s.strip() for s in text.split(","))
    for s in solvers:
        if s not in ALL_SOLVERS:
            raise argparse.ArgumentTypeError(f"unknown solver tag {s!r}")
    return solvers


def _coerce_param(name: str, value) -> object:
    """An integer from a ``--param`` string or a JSON integer (or integral float)."""
    if name in _UNBOUNDED_PARAMS and str(value).lower() in ("none", "inf", "unbounded"):
        return None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise RmcifError(f"parameter {name}: expected an integer, got {value!r}")


def _build_params(config_path: str | None, overrides: list[str]) -> SearchParams:
    known = {f.name for f in dataclasses.fields(SearchParams)}
    settings: dict[str, object] = {}
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except UnicodeDecodeError:
            raise RmcifError(f"config file {config_path} is not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise RmcifError(f"config file {config_path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise RmcifError("config file must hold a JSON object")
        settings.update(loaded)
    for item in overrides:
        name, sep, value = item.partition("=")
        if not sep:
            raise RmcifError(f"expected name=value, got {item!r}")
        settings[name] = value
    unknown = set(settings) - known
    if unknown:
        raise RmcifError(f"unknown parameter names: {', '.join(sorted(unknown))}")
    coerced = {name: _coerce_param(name, value) for name, value in settings.items()}
    return SearchParams(**coerced)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one search parameter (repeatable); limits accept 'none'",
    )
    sub.add_argument("--config", help="JSON file of search parameter overrides")


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rmcif",
        description="Heuristic and exact solvers for robust minimum-cost integer flows",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a seeded layered instance")
    gen.add_argument("--layers", type=int, help="layer count (with a single --width)")
    gen.add_argument(
        "--width",
        type=_widths,
        required=True,
        help="layer width, or comma-separated per-layer widths",
    )
    gen.add_argument("--scenarios", type=int, required=True, help="scenario count")
    gen.add_argument("--density", type=float, default=1.0)
    gen.add_argument("--cap", type=_int_range, default=(0, 99), metavar="LO:HI")
    gen.add_argument("--cost", type=_int_range, default=(0, 99), metavar="LO:HI")
    gen.add_argument("--flow", type=int, help="required flow value (retries the draw)")
    gen.add_argument(
        "--flow-frac",
        type=float,
        default=0.5,
        help="required value as a fraction of max-flow (ignored with --flow)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--retries", type=int, default=20)
    gen.add_argument("-o", "--output", help="output path (default: stdout)")

    solve = commands.add_parser("solve", help="run one solver on one instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--variant", type=_variant, required=True)
    solve.add_argument("--solver", required=True, choices=ALL_SOLVERS)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--budget", type=int, default=100_000_000,
                       help="node budget for the exact solver")
    _add_param_flags(solve)
    solve.add_argument("-o", "--output", help="solution path (default: stdout)")

    lp = commands.add_parser("export-lp", help="write the linearized model")
    lp.add_argument("--instance", required=True)
    lp.add_argument("--variant", type=_variant, required=True)
    lp.add_argument("-o", "--output", help="model path (default: stdout)")

    bench = commands.add_parser("bench", help="run a solver battery over a directory")
    bench.add_argument("--dir", required=True, help="directory of .rmcif instances")
    bench.add_argument("--variants", default="abs,dev",
                       help="comma-separated variant tags")
    bench.add_argument("--solvers", type=_solver_list, default=HEURISTIC_SOLVERS,
                       help="'all' or a comma-separated list")
    bench.add_argument("--seeds", default="0",
                       help="'lo:hi' or comma-separated seeds")
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.add_argument("--sol-dir", help="directory for per-run .sol files")
    bench.add_argument("--no-exact", action="store_true",
                       help="skip exact scoring (no error/speedup columns)")
    bench.add_argument("--budget", type=int, default=100_000_000)
    _add_param_flags(bench)
    return parser


def _cmd_generate(args) -> int:
    widths = args.width
    if len(widths) == 1:
        if args.layers is None:
            raise RmcifError("a single --width needs --layers")
        widths = widths * args.layers
    elif args.layers is not None and args.layers != len(widths):
        raise RmcifError("--layers disagrees with the number of --width entries")
    spec = GeneratorSpec(
        layer_widths=widths,
        scenario_count=args.scenarios,
        capacity_range=args.cap,
        cost_range=args.cost,
        density=args.density,
        flow_value=args.flow,
        flow_fraction=args.flow_frac,
        seed=args.seed,
        max_retries=args.retries,
    )
    _emit(write_instance(generate(spec)), args.output)
    return 0


def _cmd_solve(args) -> int:
    instance = parse_instance(Path(args.instance).read_bytes())
    params = _build_params(args.config, args.param)
    record = solve_one(
        instance, args.variant, args.solver, args.seed, params,
        exact_budget=check_budget(args.budget),
    )
    _emit(format_solution(record, instance), args.output)
    if args.output is not None:
        print(
            f"{args.solver} {args.variant}: robust cost {record.robust_cost}"
            f" in {record.elapsed_seconds:.3f} s"
        )
    return 0


def _cmd_export_lp(args) -> int:
    instance = parse_instance(Path(args.instance).read_bytes())
    _emit(export_lp(instance, args.variant), args.output)
    return 0


def _cmd_bench(args) -> int:
    params = _build_params(args.config, args.param)
    report = run_bench(
        args.dir,
        _variants(args.variants),
        args.solvers,
        _seeds(args.seeds),
        params,
        out_csv=args.out,
        sol_dir=args.sol_dir,
        compute_exact=not args.no_exact,
        exact_budget=check_budget(args.budget),
    )
    print(summary_table(report))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    """Run one command; every user error, argument syntax included, is one
    ``error:`` line on stderr and exit code 1."""
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "export-lp": _cmd_export_lp,
        "bench": _cmd_bench,
    }
    try:
        args = _make_parser().parse_args(argv)
        return handlers[args.command](args)
    except RmcifError as exc:
        message = str(exc)
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
