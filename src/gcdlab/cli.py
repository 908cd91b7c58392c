"""Command-line front end: runs, tables, scans, predictions, statistics.

Each command, and each stats kind, accepts only the flags it honours, spelt
in full; any other flag is an argument error, and so is a table or predict
parameter that the chosen family does not read.

Each command states its JSON rows and its CSV lines once and hands both to
_write, the one place that reads --format and --out.

The Beatty digit is exact for indices |n| < 10^25, far beyond any budget.

Exit codes: 0 success, 2 argument error, 3 budget exhausted (partial output
is still emitted, flagged in the metadata).  A reader that closes stdout
early ends the output quietly, with exit 0.

A command loads only the layers it runs (`run` and `zeros` load neither
experiments nor records), and only the command that runs gets its
arguments, whose choices are read from those layers.  Each command is a
fresh process, so all it imports is start-up time, and where
PYTHONDONTWRITEBYTECODE is set each module is compiled from source at every
launch.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from . import engine, generators, primality
from .engine import RunConfig
from .generators import SpecParseError, parse_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

# CSV lines per write: with an unbuffered stdout (PYTHONUNBUFFERED=1) each
# write is a syscall; into a pipe on a 2-core host, 20,000 one-line writes
# took 20-35 ms, and the same lines in blocks of 1024 under 2.5 ms
_BLOCK = 1024


class _Parser(argparse.ArgumentParser):
    """Matches option names only in full, so that a flag a command does not
    declare cannot parse as an abbreviation of one it does (upsilon-v's
    --count would take --c), and reports a usage error in one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:  # argparse names the flag for a ValueError only
        raise ValueError(text) from None


def int_list(text: str) -> list:
    return [int(t) for t in text.split(",") if t.strip()]


# add_argument keywords of the flags that commands name in _add_flags: the
# four shared ones, then the stats kinds' own flags
_FLAGS = {
    "budget": dict(type=int, default=engine.DEFAULT_BUDGET),
    "workers": dict(type=positive_int, default=1),
    "seed": dict(type=int, default=0),
    "mr-rounds": dict(type=int, default=primality.DEFAULT_POLICY.rounds),
    "alpha": dict(type=fraction, default="1/2"),
    "samples": dict(type=int, default=1000),
    "lo": dict(type=int, default=10**6),
    "hi": dict(type=int, default=10**7),
    "b": dict(type=int, default=2),
    "c": dict(type=int, default=2),
    "n-hi": dict(type=int, default=5000),
    "count": dict(type=int, default=140),
}


def _add_flags(p: argparse.ArgumentParser, command, *names: str) -> None:
    """Make p run `command`, and give it --format, --out and the _FLAGS
    `names`: the flags it honours."""
    p.set_defaults(command=command)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, which gives arguments only to `command`,
    or to every command where it is None.  The others are named with their
    help alone, so --help and a misspelt command read the same either way."""
    # the docstring's last paragraph is for readers of the code (and under
    # python -OO there is no docstring)
    ap = _Parser(prog="gcdlab", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    given = {}
    for name, text in (
        ("run", "run a recursion and print its event trace"),
        ("zeros", "first zero indices of a recursion"),
        ("table", "reproduce a reference table"),
        ("scan", "threshold scan over starting values"),
        ("predict", "record-jump prediction"),
        ("stats", "statistical series and estimators"),
        ("goldbach", "Goldbach decomposition for one N"),
    ):
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            given[name] = p

    if p := given.get("run"):
        p.add_argument("--spec", required=True)
        p.add_argument("--initial", type=int, required=True)
        p.add_argument("--mode", choices=("abs", "signed", "forward"), default="abs")
        p.add_argument("--start-index", type=int, default=1)
        p.add_argument("--zeros", type=int, default=None, help="stop after this many zeros")
        _add_flags(p, _cmd_run, "budget")

    if p := given.get("zeros"):
        p.add_argument("--spec", required=True)
        p.add_argument("--initial", type=int, default=1)
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--mode", choices=("abs", "signed"), default="abs")
        p.add_argument("--start-index", type=int, default=1)
        _add_flags(p, _cmd_zeros, "budget")

    if p := given.get("table"):
        from . import experiments

        p.add_argument("family", choices=sorted(experiments.TABLE_PARAMS))
        p.add_argument("--rows", type=positive_int, default=None)
        p.add_argument("--m", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--b", type=int)
        p.add_argument("--c", type=int)
        p.add_argument("--start", type=int)
        p.add_argument("--key", help="appendix6 table key, e.g. beta2-1")
        p.add_argument("--spec")
        p.add_argument("--initial", type=int)
        p.add_argument("--n-hi", type=int)
        p.add_argument("--variant", choices=tuple(experiments._C8_SPECS))
        _add_flags(p, _cmd_table, "seed", "mr-rounds")

    if p := given.get("scan"):
        from . import experiments

        p.add_argument("family", choices=sorted(experiments._SCAN_FAMILIES))
        p.add_argument("--n-hi", type=int, required=True)
        _add_flags(p, _cmd_scan, "workers", "seed", "mr-rounds")

    if p := given.get("predict"):
        from . import records

        p.add_argument("family", choices=[family.tag for family in records.PREDICTED])
        p.add_argument("--m", type=int)
        p.add_argument("--b", type=int)
        p.add_argument("--c", type=int)
        p.add_argument("--record", type=int, required=True)
        p.add_argument("--tail", type=int_list, default="", help="comma-separated large negative steps")
        _add_flags(p, _cmd_predict)

    if p := given.get("stats"):
        kinds = p.add_subparsers(dest="kind", required=True)
        for kind, (names, command) in _STATS.items():
            _add_flags(kinds.add_parser(kind), command, *names)

    if p := given.get("goldbach"):
        from . import experiments

        p.add_argument("N", type=int)
        p.add_argument("--variant", choices=tuple(experiments._GOLDBACH), default="alternating")
        _add_flags(p, _cmd_goldbach, "seed", "mr-rounds")

    return ap


def _policy(args) -> primality.PrimalityPolicy:
    return primality.PrimalityPolicy(rounds=args.mr_rounds, rng_seed=args.seed or primality.DEFAULT_POLICY.rng_seed)


def _write(args, rows, lines, exhausted: bool = False, **meta) -> int:
    """Write a command's output in the --format asked for, to --out or else
    stdout, and return its exit code: EXIT_BUDGET when `exhausted`.

    rows() gives the JSON rows and lines() the CSV lines; only the form that
    is written is built.  JSON wraps the rows with a metadata object: the
    argv, the --budget and --seed of a command that has them, then `meta`;
    the document is built whole.  CSV is written as lines() yields it,
    _BLOCK lines to a write.
    """
    if args.format == "json":
        import json

        flags = {key: getattr(args, key) for key in ("budget", "seed") if hasattr(args, key)}
        blocks = [json.dumps({"metadata": {"argv": args.argv, **flags, **meta}, "rows": rows()}, default=str) + "\n"]
    else:
        blocks = _blocks(lines())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.writelines(blocks)
    return EXIT_BUDGET if exhausted else EXIT_OK


def _blocks(lines):
    """The text of lines, each ended by a newline, _BLOCK lines to a string."""
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK)):
        block.append("")  # so that the join ends the last line too
        yield "\n".join(block)


def _run_config(args, **extra) -> RunConfig:
    """The RunConfig of the flags that run and zeros share."""
    return RunConfig(args.initial, parse_spec(args.spec), args.mode, args.start_index, budget=args.budget, **extra)


def _cmd_run(args) -> int:
    trace = engine.run(_run_config(args, stop_after_zeros=args.zeros))
    rows = lambda: {
        "zero_indices": trace.zero_indices,
        "large_steps": [[n, str(d)] for n, d in trace.large_steps],
        "forward_diffs": [str(d) for d in trace.forward_diffs[:10000]],
        "final_index": trace.final_index,
        "final_value": str(trace.final_value),
        "iterations_used": trace.iterations_used,
        "budget_exhausted": trace.budget_exhausted,
    }
    lines = lambda: chain(
        ["event,index,value"],
        (f"zero,{n},0" for n in trace.zero_indices),
        (f"step,{n},{d}" for n, d in trace.large_steps),
        [f"final,{trace.final_index},{trace.final_value}"],
    )
    return _write(args, rows, lines, exhausted=trace.budget_exhausted, spec=args.spec)


def _cmd_zeros(args) -> int:
    zs = engine.zeros(_run_config(args), args.count)
    return _write(args, lambda: zs, lambda: [",".join(map(str, zs))], exhausted=len(zs) < args.count, spec=args.spec)


def _cmd_table(args) -> int:
    from . import experiments

    names = set().union(*experiments.TABLE_PARAMS.values())
    params = {key: value for key, value in vars(args).items() if key in names and value is not None}
    if args.family == "appendix1":
        experiments.check_table_params(args.family, params)  # table() checks the others
        table = experiments.appendix1(args.rows or 20, policy=_policy(args))
        rows = lambda: [[k, str(b), d, r] for k, b, d, r in table]
        return _write(args, rows, lambda: ["k,b1,delta,ratio", *(f"{k},{b},{d},{r:.9f}" for k, b, d, r in table)])
    report = experiments.table(args.family, rows=args.rows, policy=_policy(args), **params)

    def lines():  # the claims and deltas padded to the widest row
        width = max((len(claims) for _, claims, _, _ in report.rows), default=1)
        yield ",".join(["index", *(f"{c}_{j}" for c in ("claim", "delta") for j in range(1, width + 1)), "all_prime"])
        for index, claims, deltas, ap in report.rows:
            pad = [""] * (width - len(claims))
            yield ",".join(map(str, [index, *claims, *pad, *deltas, *pad, ap]))

    rows = lambda: [
        {"index": i, "claims": [str(c) for c in cl], "deltas": d, "all_prime": ap} for i, cl, d, ap in report.rows
    ]
    exhausted = report.budget_exhausted
    return _write(args, rows, lines, exhausted=exhausted, spec=report.spec, budget_exhausted=exhausted)


def _cmd_scan(args) -> int:
    from . import experiments

    report = experiments.scan_threshold(
        args.family, args.n_hi, workers=args.workers, policy=_policy(args)
    )
    failing = set(report.failing_N)
    ns = range(report.n_lo, report.n_hi + 1)
    lines = lambda: chain(["N,failed"], (f"{n},{1 if n in failing else 0}" for n in ns))
    return _write(args, lambda: report.failing_N, lines, family=report.family, largest_failure=report.largest_failure)


def _cmd_predict(args) -> int:
    from . import records

    family = generators._FAMILIES[args.family]
    reads = generators._keys(family)  # affine: m; power: b, c
    for key in ("m", "b", "c"):
        given = getattr(args, key) is not None
        if given != (key in reads):
            raise SpecParseError(f"predict {args.family} {'does not read' if given else 'requires'} --{key}")
    jump = records.RecordJump(args.record, args.tail, family(*(getattr(args, key) for key in reads)))
    value = records.predict_next(jump)
    return _write(args, lambda: [str(value)], lambda: [str(value)])


def _cmd_lalpha(args) -> int:
    from . import records

    ms = records.sample_ms(args.samples, args.lo, args.hi, seed=args.seed)
    est = float(records.estimate_L_alpha(args.alpha, ms, policy=_policy(args)))
    return _write(args, lambda: [est], lambda: [f"{est}"], alpha=str(args.alpha))


def _series(series_of):
    """The stats command that writes the (x, y) pairs series_of(ex, args),
    where ex is the experiments module, loaded when the command runs."""

    def command(args) -> int:
        from . import experiments

        series = series_of(experiments, args)  # an iterator, read once by the form written
        lines = lambda: chain(["x,y"], (f"{x},{y}" for x, y in series))
        return _write(args, lambda: [[x, y] for x, y in series], lines, kind=args.kind)

    return command


# stats kind -> (the _FLAGS it honours, its command)
_STATS = {
    "lalpha": (("alpha", "samples", "lo", "hi", "seed", "mr-rounds"), _cmd_lalpha),
    "upsilon": (
        ("b", "c", "n-hi", "workers", "seed", "mr-rounds"),
        _series(lambda ex, a: ex.upsilon(a.n_hi, a.b, a.c, workers=a.workers, policy=_policy(a))),
    ),
    "upsilon-twin": (
        ("n-hi", "workers", "seed", "mr-rounds"),
        _series(lambda ex, a: ex.upsilon_twin(a.n_hi, workers=a.workers, policy=_policy(a))),
    ),
    "upsilon-v": (("count", "seed", "mr-rounds"), _series(lambda ex, a: ex.upsilon_v(a.count, policy=_policy(a)))),
    "goldbach-constant": (("n-hi",), _series(lambda ex, a: ex.goldbach_constant_series(a.n_hi))),
    "gaps": (
        ("n-hi", "seed", "mr-rounds"),
        _series(lambda ex, a: ((n, x) for n, x, _ in ex.gap_diagnostics(a.n_hi, policy=_policy(a)))),
    ),
    "legendre": (("n-hi", "workers"), _series(lambda ex, a: ex.legendre_series(a.n_hi, workers=a.workers))),
}


def _cmd_goldbach(args) -> int:
    from . import experiments

    g, claims, ap = experiments.goldbach_g(args.N, args.variant, policy=_policy(args))
    lines = lambda: ["g,claim_1,claim_2,all_prime", f"{g},{claims[0]},{claims[1]},{ap}"]
    return _write(args, lambda: [{"g": g, "claims": claims, "all_prime": ap}], lines)


def dispatch(argv=None) -> int:
    received = list(sys.argv[1:] if argv is None else argv)
    # join "--tail -3,-13" into "--tail=-3,-13" so argparse does not read the
    # leading minus of the value as an option
    argv = list(received)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--tail":
            argv[i : i + 2] = [f"--tail={argv[i + 1]}"]
            break
    # argparse runs the command named by the first argument that is not an
    # option; where that is none, or no command, it stops before any
    # command's arguments are read
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    args.argv = received  # the metadata records the command line as given
    try:
        return args.command(args)
    except (SpecParseError, ValueError, KeyError) as exc:
        print(f"gcdlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no BLAS call, but numpy's import starts its threads
    try:
        code = dispatch()
    except BrokenPipeError:
        # the reader of the CSV stream left early, as `| head` does: stop
        # without a traceback, here or when stdout is flushed at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
