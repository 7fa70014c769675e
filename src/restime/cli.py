"""Command-line front end.

Subcommands: extract, estimate, gen-expr, exact, mc, autocorr.  Each cmd_*
returns its data; main writes it to stdout (or --out), each UserWarning as a
`note:` line and an error as one `error:` line to stderr.  Exit codes: 2 for
usage errors (unknown flags, out-of-range flag values, unreadable or malformed
inputs), 1 for domain errors (e.g. empty sample, a step beyond float range).
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
import warnings

from . import estimators, mc, moments, taylor, trace
from .core import (
    DistributionSpec,
    DomainError,
    ParseError,
    ResidenceSample,
    format_rational,
    np,
)


# an output-size bound on exact --digits, kept for compatibility: format_rational
# itself prints any count, and 4300 was CPython's int-to-string limit
_MAX_DIGITS = 4300
# the commands that work on arrays; numpy finishes loading before they read
# their input, since a load after estimate's 1.2 MB read raised its peak RSS
_ARRAY_COMMANDS = frozenset({"extract", "estimate", "mc", "autocorr"})


def _write_output(args: argparse.Namespace, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(show, message, category, *rest) -> None:
    """Print a UserWarning as one `note:` line; hand any other warning to show."""
    if issubclass(category, UserWarning):
        print(f"note: {message}", file=sys.stderr)
    else:
        show(message, category, *rest)


def _add_filter_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=None, help="absence tolerance in steps")
    sub.add_argument("--tstar", type=float, default=None, help="absence tolerance in time units")
    sub.add_argument("--dt", type=float, default=None, help="time step")
    sub.add_argument(
        "--boundary",
        choices=("drop", "include"),
        default="drop",
        help="treatment of residences touching the trace ends",
    )


def _filter_config(args: argparse.Namespace) -> trace.FilterConfig:
    if args.k is not None and args.tstar is not None:
        raise ParseError("--k and --tstar both set the absence tolerance; give one of them")
    _check_positive("--tstar", args.tstar)
    _check_positive("--dt", args.dt)
    if args.k is not None:
        _check_range("--k", args.k, 1)
        return trace.FilterConfig(k=args.k)
    if args.tstar is not None:
        if args.dt is None:
            raise ParseError("--tstar needs --dt to derive the step tolerance")
        try:
            return trace.FilterConfig.from_times(args.tstar, args.dt)
        except DomainError as exc:
            raise ParseError(f"--tstar and --dt: {exc}") from exc
    return trace.FilterConfig(k=1)


def _parse_orders(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
            orders = list(range(lo, hi + 1))
        else:
            orders = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad orders {text!r}: use forms like 1..8 or 1,3,8") from exc
    if not orders:
        raise ParseError(f"orders range {text!r} is empty")
    if any(m < 1 or m > taylor.MAX_ORDER for m in orders):
        raise ParseError(f"orders must lie within 1..{taylor.MAX_ORDER}")
    return orders


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad size list {text!r}") from exc
    for n in sizes:
        _check_range("--n", n, 1)
    return sizes


def _check_range(flag: str, value: int, lo: int, hi: int | None = None) -> None:
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"within {lo}..{hi}"
        raise ParseError(f"{flag} must be {bound}, got {value}")


def _check_positive(flag: str, value: float | None) -> None:
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ParseError(f"{flag} must be finite and > 0, got {value}")


def _read_traces(args: argparse.Namespace) -> tuple:
    """The --input traces, with the FilterConfig and ExtractionPolicy of the filter flags."""
    cfg = _filter_config(args)
    with open(args.input, "r", encoding="utf-8") as fh:
        traces = trace.parse_traces(fh)
    return traces, cfg, trace.ExtractionPolicy(boundary=args.boundary)


def cmd_extract(args: argparse.Namespace) -> str:
    buf = io.StringIO()
    trace.write_steps_csv(trace.collect_sample(*_read_traces(args)).array, buf)
    return buf.getvalue()


def cmd_estimate(args: argparse.Namespace) -> str:
    _check_positive("--dt", args.dt)
    if args.method != "ratio":
        _check_range("--order", args.order, 1, taylor.MAX_ORDER)
    with open(args.rts, "r", encoding="utf-8") as fh:
        sample = ResidenceSample(steps=trace.read_steps_csv(fh))
    series = f"taylor{args.order}"
    methods = {"ratio": ("ratio",), "taylor": (series,), "both": ("ratio", series)}[args.method]
    return estimators.build_report(sample, dt=args.dt, methods=methods).to_json()


def cmd_gen_expr(args: argparse.Namespace) -> str:
    _check_range("--order", args.order, 1, taylor.MAX_ORDER)
    expr = taylor.generate_expression(args.order)
    return expr.to_json() if args.format == "json" else expr.text()


def cmd_exact(args: argparse.Namespace) -> str:
    dist = DistributionSpec.parse(args.dist)
    orders = _parse_orders(args.orders)
    _check_range("--n", args.n, 1)
    _check_range("--digits", args.digits, 1)
    if args.digits > _MAX_DIGITS:
        raise ParseError(f"--digits must be <= {_MAX_DIGITS}, got {args.digits}")
    rows, omitted = _exact_column(dist, args.n, orders)
    if omitted:
        warnings.warn(f"exact row omitted: {omitted}")
    lines = ["estimator,value"] + [f"{lbl},{format_rational(v, args.digits)}" for lbl, v in rows]
    return "\n".join(lines)


def _exact_column(dist: DistributionSpec, n: int, orders) -> tuple[list, str | None]:
    """(label, Fraction) rows ratio, taylorM per order and, when enumerable, exact;
    and None, or why exact is missing (infinite support or a tractability guard)."""
    labels = ["ratio", *(f"taylor{m}" for m in orders)]
    mom = moments.exact_moments(dist, max_central_order=estimators._central_order(labels))
    rows = [("ratio", estimators.ratio_variance_from_moments(mom, n))] + [
        (f"taylor{m}", taylor.evaluate_expression(taylor.generate_expression(m), mom, n))
        for m in orders
    ]
    try:
        rows.append(("exact", mc.exact_variance_small(dist, n)))
    except DomainError as exc:
        return rows, str(exc)
    return rows, None


def cmd_mc(args: argparse.Namespace) -> str:
    _check_range("--threads", args.threads, 1)
    dist = DistributionSpec.parse(args.dist)
    sizes = _parse_sizes(args.n)
    _check_range("--reps", args.reps, 2)
    _check_range("--order", args.order, 1, taylor.MAX_ORDER)
    _check_range("--seed", args.seed, 0, 2**128 - 1)
    labels = ("ratio", f"taylor{args.order}")
    cfg = mc.ExperimentConfig(dist=dist, sizes=sizes, replicates=args.reps, seed=args.seed,
                              estimators=labels)
    rows = mc.run_experiment(cfg)
    header = ["N", "reference_var", "reference_var_se"]
    for lbl in labels:
        header += [f"est_{lbl}_mean", f"est_{lbl}_se"]
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row.n), repr(row.reference_var), repr(row.reference_var_se)]
        for lbl in labels:
            cells += [repr(row.means[lbl]), repr(row.ses[lbl])]
        lines.append(",".join(cells))
    return "\n".join(lines)


def cmd_autocorr(args: argparse.Namespace) -> str:
    traces, cfg, policy = _read_traces(args)
    _check_range("--max-lag", args.max_lag, 0)
    per_trace = trace.per_trace_residences(traces, cfg, policy)
    rows = estimators.rt_autocorrelation(per_trace, args.max_lag)
    return "\n".join(["lag,mean_r,sd_r"] + [f"{lag},{m!r},{sd!r}" for lag, m, sd in rows])


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as one `error:` line, exit 2.

    A flag's value may start with '-' (`--orders -2..1`, `--seed -x`): argparse
    would read it as an unknown option, so it is joined to its flag first, as
    `--orders=-2..1`.
    """

    def __init__(self, *args, **kwargs):
        self.value_flags: set[str] = set()  # before argparse adds -h through add_argument
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:  # one value
            self.value_flags.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            # a '--' token is always a flag, so `--rts --dt 0.1` still lacks a value
            if joined and joined[-1] in self.value_flags and arg[:1] == "-" and arg[:2] != "--":
                joined[-1] += f"={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The restime parser, built once per process and shared by every main() call.

    Parsing leaves it unchanged, and usage and error text are formatted when
    printed, so a shared parser prints what a new one would.
    """
    parser = _Parser(
        prog="restime",
        description="Residence and residual time estimation from 0/1 traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="turn 0/1 traces into a residence-step CSV")
    p.add_argument("--input", required=True, help="trace file, one 0/1 trace per line")
    _add_filter_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("estimate", help="estimate mrT/mRT and uncertainties")
    p.add_argument("--rts", required=True, help="CSV of residence steps")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--method", choices=("ratio", "taylor", "both"), default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("gen-expr", help="emit the truncated variance expression")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_expr)

    p = sub.add_parser("exact", help="evaluate estimators on exact moments")
    p.add_argument("--dist", required=True, help="geom:p=... or uniform:a=...,b=...")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orders", default="1..8")
    p.add_argument("--digits", type=int, default=16, help=f"significant digits, 1..{_MAX_DIGITS}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("mc", help="replicate experiment comparing estimators")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--threads", type=int, default=1,
                   help="no effect (must be >= 1); kept because perfbench passes 1 and 2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("autocorr", help="per-trace residence-time autocorrelation")
    p.add_argument("--input", required=True)
    _add_filter_flags(p)
    p.add_argument("--max-lag", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_autocorr)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command in _ARRAY_COMMANDS:
        np.ndarray  # the first attribute read loads the lazy numpy
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = functools.partial(_note, warnings.showwarning)
            text = args.func(args)
        _write_output(args, text)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
