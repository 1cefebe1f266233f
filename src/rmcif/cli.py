"""Command-line front end: generate, solve, export-lp, bench, corpus, sweep.

`corpus` writes a seeded family of instances from `generate`'s flags, and
`sweep` writes one such family per layer shape and benches each with
`bench`'s flags.  The argument types only parse; variants, solver tags,
seeds, budgets and counts are judged by the library (`bench.check_grid`,
`core.check_integer`).  Every input is checked before the first file is
written.  Each instance is written as it is drawn; with `--flow`, the one
case where a draw can fail, all are drawn once before the first write too.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import BenchReport, _check_distinct, check_grid, run_bench, solve_one, summary_table
from .core import (
    ABSOLUTE,
    DEVIATION,
    HEURISTIC_SOLVERS,
    RmcifError,
    check_integer,
    format_solution,
    parse_instance,
    write_instance,
)
from .exact import DEFAULT_NODE_BUDGET, export_lp
from .generator import GeneratorSpec, generate
from .heuristics import SearchParams

_VARIANT_ALIASES = {
    "abs": ABSOLUTE,
    "absolute": ABSOLUTE,
    "dev": DEVIATION,
    "deviation": DEVIATION,
}

def _variant(text: str) -> str:
    """The variant an alias names; any other text passes through to the library's judge."""
    return _VARIANT_ALIASES.get(text.lower(), text)


def _variants(text: str) -> tuple[str, ...]:
    return tuple(_variant(v) for v in text.split(","))


class _Parser(argparse.ArgumentParser):
    """Argument parser whose syntax errors raise `RmcifError` instead of exiting 2."""

    def error(self, message: str):
        raise RmcifError(message)


def _integers(tokens, text: str, expected: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None


def _int_range(text: str) -> tuple[int, int]:
    return _integers(text.partition(":")[::2], text, "integers lo:hi")


def _widths(text: str) -> tuple[int, ...]:
    return _integers(text.split(","), text, "comma-separated integers")


def _shapes(text: str) -> tuple[tuple[int, ...], ...]:
    expected = "comma-separated shapes such as 2x2,4x4x2"
    return tuple(_integers(shape.split("x"), text, expected) for shape in text.split(","))


def _seeds(text: str) -> tuple[int, ...]:
    """Seeds from 'lo:hi' or a comma-separated list."""
    lo, sep, hi = text.partition(":")
    ints = _integers((lo, hi) if sep else text.split(","), text, "'lo:hi' or comma-separated seeds")
    return tuple(range(ints[0], ints[1] + 1)) if sep else ints


def _solver_list(text: str) -> tuple[str, ...]:
    if text == "all":
        return HEURISTIC_SOLVERS
    return tuple(s.strip() for s in text.split(","))


def _coerce_param(name: str, value, default) -> object:
    """A ``--param`` string or JSON value parsed for `SearchParams`, which judges it;
    'none' gives None for a limit whose `default` is None, which may be unbounded."""
    if default is None and str(value).lower() in ("none", "inf", "unbounded"):
        return None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return int(value) if isinstance(value, str) else value
    except ValueError:
        raise RmcifError(f"parameter {name}: expected an integer, got {value!r}") from None


def _build_params(config_path: str | None, overrides: list[str]) -> SearchParams:
    default = SearchParams()
    defaults = {name: getattr(default, name) for name in SearchParams._fields}
    settings: dict[str, object] = {}
    if config_path:
        import json  # only --config reads JSON

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
    unknown = set(settings) - defaults.keys()
    if unknown:
        raise RmcifError(f"unknown parameter names: {', '.join(sorted(unknown))}")
    coerced = {name: _coerce_param(name, value, defaults[name]) for name, value in settings.items()}
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


def _add_generator_flags(sub: argparse.ArgumentParser, shapes: bool = False) -> None:
    """`generate`'s instance flags; with `shapes`, --shapes replaces --width and --layers."""
    if shapes:
        sub.add_argument("--shapes", type=_shapes, default="2x2,3x3",
                         help="comma-separated layer shapes, e.g. 2x2,4x4x2")
    else:
        sub.add_argument("--layers", type=int, help="layer count (with a single --width)")
        sub.add_argument("--width", type=_widths, required=True,
                         help="layer width, or comma-separated per-layer widths")
    sub.add_argument("--scenarios", type=int, required=True, help="scenario count")
    sub.add_argument("--density", type=float, default=1.0)
    sub.add_argument("--cap", type=_int_range, default=(0, 99), metavar="LO:HI")
    sub.add_argument("--cost", type=_int_range, default=(0, 99), metavar="LO:HI")
    sub.add_argument("--flow", type=int, help="required flow value (retries the draw)")
    sub.add_argument("--flow-frac", type=float, default=0.5,
                     help="required value as a fraction of max-flow (ignored with --flow)")
    sub.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    sub.add_argument("--retries", type=int, default=20)


def _add_bench_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--solvers", type=_solver_list, default=HEURISTIC_SOLVERS,
                     help="'all' or a comma-separated list")
    sub.add_argument("--seeds", type=_seeds, default="0",
                     help="'lo:hi' or comma-separated seeds")
    sub.add_argument("--no-exact", action="store_true",
                     help="skip exact scoring (no error/speedup columns)")
    sub.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                     help="node budget for the exact solver")


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rmcif",
        description="Heuristic and exact solvers for robust minimum-cost integer flows",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a seeded layered instance")
    _add_generator_flags(gen)
    gen.add_argument("-o", "--output", help="output path (default: stdout)")

    solve = commands.add_parser("solve", help="run one solver on one instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--variant", type=_variant, required=True)
    solve.add_argument("--solver", required=True, help="ls1..ls4, ec1..ec9 or exact")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                       help="node budget for the exact solver")
    _add_param_flags(solve)
    solve.add_argument("-o", "--output", help="solution path (default: stdout)")

    lp = commands.add_parser("export-lp", help="write the linearized model")
    lp.add_argument("--instance", required=True)
    lp.add_argument("--variant", type=_variant, required=True)
    lp.add_argument("-o", "--output", help="model path (default: stdout)")

    bench = commands.add_parser("bench", help="run a solver battery over a directory")
    bench.add_argument("--dir", required=True, help="directory of .rmcif instances")
    bench.add_argument("--variants", type=_variants, default="abs,dev",
                       help="comma-separated variant tags")
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.add_argument("--sol-dir", help="directory for per-run .sol files")
    _add_bench_flags(bench)
    _add_param_flags(bench)

    corpus = commands.add_parser("corpus", help="write a seeded family of instances")
    corpus.add_argument("dir", help="directory for <shape>_s<seed>.rmcif files")
    corpus.add_argument("--count", type=int, default=20, help="instance count")
    _add_generator_flags(corpus)

    sweep = commands.add_parser("sweep", help="write and bench one family per shape")
    sweep.add_argument("dir", help="directory for the families, CSVs and solutions")
    sweep.add_argument("--count", type=int, default=10, help="instances per shape")
    _add_generator_flags(sweep, shapes=True)
    _add_bench_flags(sweep)
    return parser


def _specs(args, count: int, widths: tuple[int, ...] | None = None) -> list[GeneratorSpec]:
    """Checked specs for seeds --seed .. --seed + count - 1; `widths`
    defaults to --width, repeated --layers times when it is one number."""
    if widths is None:
        widths = args.width
        if len(widths) == 1:
            if args.layers is None:
                raise RmcifError("a single --width needs --layers")
            widths = widths * args.layers
        elif args.layers is not None and args.layers != len(widths):
            raise RmcifError("--layers disagrees with the number of --width entries")
    count = check_integer(count, "instance count", 1)
    return [
        GeneratorSpec(
            layer_widths=widths,
            scenario_count=args.scenarios,
            capacity_range=args.cap,
            cost_range=args.cost,
            density=args.density,
            flow_value=args.flow,
            flow_fraction=args.flow_frac,
            seed=args.seed + k,
            max_retries=args.retries,
        )
        for k in range(count)
    ]


def _shape_name(widths: tuple[int, ...]) -> str:
    return "x".join(map(str, widths))


def _check_draws(specs: list[GeneratorSpec]) -> None:
    """Draw and drop each instance that asks for a flow value: `generate`
    fails only when no draw reaches it, so a failure ends the command
    before any file is written."""
    for spec in specs:
        if spec.flow_value is not None:
            generate(spec)


def _write_family(directory: Path, specs: list[GeneratorSpec], prefix: str = "") -> list[Path]:
    """Each spec's instance, written as it is drawn, so one text is held at a time."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{prefix}s{spec.seed:04d}.rmcif" for spec in specs]
    for path, spec in zip(paths, specs):
        path.write_text(write_instance(generate(spec)))
    return paths


def _print_report(report: BenchReport) -> None:
    print(summary_table(report))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_generate(args) -> int:
    (spec,) = _specs(args, 1)
    _emit(write_instance(generate(spec)), args.output)
    return 0


def _cmd_solve(args) -> int:
    instance = parse_instance(Path(args.instance).read_bytes())
    params = _build_params(args.config, args.param)
    record = solve_one(
        instance, args.variant, args.solver, args.seed, params, exact_budget=args.budget
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
        args.dir, args.variants, args.solvers, args.seeds, params,
        out_csv=args.out, sol_dir=args.sol_dir,
        compute_exact=not args.no_exact, exact_budget=args.budget,
    )
    _print_report(report)
    return 0


def _cmd_corpus(args) -> int:
    specs = _specs(args, args.count)
    _check_draws(specs)
    _write_family(Path(args.dir), specs, f"{_shape_name(specs[0].layer_widths)}_")
    print(f"wrote {args.count} instances to {args.dir}")
    return 0


def _cmd_sweep(args) -> int:
    shapes = [_shape_name(widths) for widths in args.shapes]
    _check_distinct("shape", shapes)
    specs = [_specs(args, args.count, widths) for widths in args.shapes]
    grid = check_grid((ABSOLUTE, DEVIATION), args.solvers, args.seeds)
    budget = check_integer(args.budget, "node budget")
    _check_draws([spec for family in specs for spec in family])
    for shape, family in zip(shapes, specs):
        directory = Path(args.dir) / shape
        report = run_bench(
            _write_family(directory, family),
            *grid,
            out_csv=Path(args.dir) / f"{shape}.csv",
            sol_dir=directory / "solutions",
            compute_exact=not args.no_exact,
            exact_budget=budget,
        )
        print(f"\n== shape {shape} ({args.count} instances) ==")
        _print_report(report)
    return 0


def main(argv=None) -> int:
    """Run one command; every user error, argument syntax included, is one
    ``error:`` line on stderr and exit code 1."""
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "export-lp": _cmd_export_lp,
        "bench": _cmd_bench,
        "corpus": _cmd_corpus,
        "sweep": _cmd_sweep,
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
