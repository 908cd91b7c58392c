"""Command-line front end: runs, tables, scans, predictions, statistics.

Each command, and each stats kind, accepts only the flags it honours, spelt
in full; any other flag is an argument error, and so is a table or predict
parameter that the chosen family does not read.

The Beatty digit is exact for indices |n| < 10^25, far beyond any budget.

Exit codes: 0 success, 2 argument error, 3 budget exhausted (partial output
is still emitted, flagged in the metadata).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import engine, experiments, generators, primality, records
from .engine import RunConfig
from .generators import SpecParseError, parse_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


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


# add_argument keywords of the flags that commands name in _add_flags: the
# four shared ones, then the stats kinds' own flags
_FLAGS = {
    "budget": dict(type=int, default=engine.DEFAULT_BUDGET),
    "workers": dict(type=positive_int, default=1),
    "seed": dict(type=int, default=0),
    "mr-rounds": dict(type=int, default=40),
    "alpha": dict(default="1/2"),
    "samples": dict(type=int, default=1000),
    "lo": dict(type=int, default=10**6),
    "hi": dict(type=int, default=10**7),
    "b": dict(type=int, default=2),
    "c": dict(type=int, default=2),
    "n-hi": dict(type=int, default=5000),
    "count": dict(type=int, default=140),
}

# the flags each stats kind honours
_STATS_KINDS = {
    "lalpha": ("alpha", "samples", "lo", "hi", "seed", "mr-rounds"),
    "upsilon": ("b", "c", "n-hi", "workers", "seed", "mr-rounds"),
    "upsilon-twin": ("n-hi", "workers", "seed", "mr-rounds"),
    "upsilon-v": ("count", "seed", "mr-rounds"),
    "goldbach-constant": ("n-hi",),
    "gaps": ("n-hi", "seed", "mr-rounds"),
    "legendre": ("n-hi", "workers"),
}

# predict's families: the predictor takes the family's spec keys, then the jump
_PREDICTORS = {"affine": records.predict_next_affine, "power": records.predict_next_power}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Give p --format, --out and the _FLAGS `names`: the flags it honours."""
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="gcdlab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run a recursion and print its event trace")
    p.add_argument("--spec", required=True)
    p.add_argument("--initial", type=int, required=True)
    p.add_argument("--mode", choices=("abs", "signed", "forward"), default="abs")
    p.add_argument("--start-index", type=int, default=1)
    p.add_argument("--zeros", type=int, default=None, help="stop after this many zeros")
    _add_flags(p, "budget")

    p = sub.add_parser("zeros", help="first zero indices of a recursion")
    p.add_argument("--spec", required=True)
    p.add_argument("--initial", type=int, default=1)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--mode", choices=("abs", "signed"), default="abs")
    p.add_argument("--start-index", type=int, default=1)
    _add_flags(p, "budget")

    p = sub.add_parser("table", help="reproduce a reference table")
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
    p.add_argument("--variant", choices=("prime", "twin"))
    _add_flags(p, "seed", "mr-rounds")

    p = sub.add_parser("scan", help="threshold scan over starting values")
    p.add_argument("family", choices=sorted(experiments._SCAN_FAMILIES))
    p.add_argument("--n-hi", type=int, required=True)
    _add_flags(p, "workers", "seed", "mr-rounds")

    p = sub.add_parser("predict", help="record-jump prediction")
    p.add_argument("family", choices=sorted(_PREDICTORS))
    p.add_argument("--m", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--record", type=int, required=True)
    p.add_argument("--tail", default="", help="comma-separated large negative steps")
    _add_flags(p)

    p = sub.add_parser("stats", help="statistical series and estimators")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, names in _STATS_KINDS.items():
        _add_flags(kinds.add_parser(kind), *names)

    p = sub.add_parser("goldbach", help="Goldbach decomposition for one N")
    p.add_argument("N", type=int)
    p.add_argument("--variant", choices=("product", "alternating"), default="alternating")
    _add_flags(p, "seed", "mr-rounds")

    return ap


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _policy(args) -> primality.PrimalityPolicy:
    return primality.PrimalityPolicy(rounds=args.mr_rounds, rng_seed=args.seed or 0x5EED_CAFE)


def _meta(args, **extra) -> dict:
    meta = {"argv": args.argv}
    meta.update((key, getattr(args, key)) for key in ("budget", "seed") if hasattr(args, key))
    meta.update(extra)
    return meta


def _json_report(args, rows, **extra) -> str:
    return json.dumps({"metadata": _meta(args, **extra), "rows": rows}, default=str) + "\n"


def _report_out(args, report) -> int:
    if args.format == "json":
        rows = [
            {"index": i, "claims": [str(c) for c in cl], "deltas": d, "all_prime": ap}
            for i, cl, d, ap in report.rows
        ]
        _emit(args, _json_report(args, rows, spec=report.spec, budget_exhausted=report.budget_exhausted))
    else:
        _emit(args, report.to_csv())
    return EXIT_BUDGET if report.budget_exhausted else EXIT_OK


def _cmd_run(args) -> int:
    cfg = RunConfig(
        initial=args.initial,
        arg=parse_spec(args.spec),
        mode=args.mode,
        start_index=args.start_index,
        stop_after_zeros=args.zeros,
        budget=args.budget,
    )
    trace = engine.run(cfg)
    if args.format == "json":
        _emit(
            args,
            _json_report(
                args,
                {
                    "zero_indices": trace.zero_indices,
                    "large_steps": [[n, str(d)] for n, d in trace.large_steps],
                    "forward_diffs": [str(d) for d in trace.forward_diffs[:10000]],
                    "final_index": trace.final_index,
                    "final_value": str(trace.final_value),
                    "iterations_used": trace.iterations_used,
                    "budget_exhausted": trace.budget_exhausted,
                },
                spec=args.spec,
            ),
        )
    else:
        lines = ["event,index,value"]
        for n in trace.zero_indices:
            lines.append(f"zero,{n},0")
        for n, d in trace.large_steps:
            lines.append(f"step,{n},{d}")
        lines.append(f"final,{trace.final_index},{trace.final_value}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_BUDGET if trace.budget_exhausted else EXIT_OK


def _cmd_zeros(args) -> int:
    cfg = RunConfig(
        initial=args.initial,
        arg=parse_spec(args.spec),
        mode=args.mode,
        start_index=args.start_index,
        budget=args.budget,
    )
    zs = engine.zeros(cfg, args.count)
    if args.format == "json":
        _emit(args, _json_report(args, zs, spec=args.spec))
    else:
        _emit(args, ",".join(str(z) for z in zs) + "\n")
    return EXIT_OK if len(zs) >= args.count else EXIT_BUDGET


def _cmd_table(args) -> int:
    names = set().union(*experiments.TABLE_PARAMS.values())
    params = {key: value for key, value in vars(args).items() if key in names and value is not None}
    if args.family == "appendix1":
        experiments.check_table_params(args.family, params)  # table() checks the others
        rows = experiments.appendix1(args.rows or 20, policy=_policy(args))
        if args.format == "json":
            _emit(args, _json_report(args, [[k, str(b), d, r] for k, b, d, r in rows]))
        else:
            lines = ["k,b1,delta,ratio"] + [f"{k},{b},{d},{r:.9f}" for k, b, d, r in rows]
            _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    report = experiments.table(args.family, rows=args.rows, policy=_policy(args), **params)
    return _report_out(args, report)


def _cmd_scan(args) -> int:
    report = experiments.scan_threshold(
        args.family, args.n_hi, workers=args.workers, policy=_policy(args)
    )
    if args.format == "json":
        _emit(
            args,
            _json_report(
                args,
                report.failing_N,
                family=report.family,
                largest_failure=report.largest_failure,
            ),
        )
    else:
        _emit(args, report.to_csv())
    return EXIT_OK


def _cmd_predict(args) -> int:
    tail = [int(t) for t in args.tail.split(",") if t.strip()]
    family = generators._FAMILIES[args.family]
    reads = generators._keys(family)  # affine: m; power: b, c
    for key in ("m", "b", "c"):
        given = getattr(args, key) is not None
        if given != (key in reads):
            raise SpecParseError(f"predict {args.family} {'does not read' if given else 'requires'} --{key}")
    values = [getattr(args, key) for key in reads]
    jump = records.RecordJump(args.record, tail, family(*values))
    value = _PREDICTORS[args.family](*values, jump)
    if args.format == "json":
        _emit(args, _json_report(args, [str(value)]))
    else:
        _emit(args, f"{value}\n")
    return EXIT_OK


def _cmd_stats(args) -> int:
    if args.kind == "lalpha":
        from fractions import Fraction

        alpha = Fraction(args.alpha)
        ms = records.sample_ms(args.samples, args.lo, args.hi, seed=args.seed)
        est = records.estimate_L_alpha(alpha, ms, policy=_policy(args))
        if args.format == "json":
            _emit(args, _json_report(args, [float(est)], alpha=str(alpha)))
        else:
            _emit(args, f"{float(est)}\n")
        return EXIT_OK
    if args.kind == "upsilon":
        series = experiments.upsilon(args.n_hi, args.b, args.c, workers=args.workers, policy=_policy(args))
    elif args.kind == "upsilon-twin":
        series = experiments.upsilon_twin(args.n_hi, workers=args.workers, policy=_policy(args))
    elif args.kind == "upsilon-v":
        series = experiments.upsilon_v(args.count, policy=_policy(args))
    elif args.kind == "goldbach-constant":
        series = experiments.goldbach_constant_series(args.n_hi)
    elif args.kind == "gaps":
        series = [(n, a) for n, a, _ in experiments.gap_diagnostics(args.n_hi, policy=_policy(args))]
    else:  # legendre
        series = experiments.legendre_series(args.n_hi, workers=args.workers)
    if args.format == "json":
        _emit(args, _json_report(args, [[x, y] for x, y in series], kind=args.kind))
    else:
        _emit(args, experiments.series_to_csv(series))
    return EXIT_OK


def _cmd_goldbach(args) -> int:
    g, claims, ap = experiments.goldbach_g(args.N, args.variant, policy=_policy(args))
    if args.format == "json":
        _emit(args, _json_report(args, [{"g": g, "claims": claims, "all_prime": ap}]))
    else:
        _emit(args, "g,claim_1,claim_2,all_prime\n" + f"{g},{claims[0]},{claims[1]},{ap}\n")
    return EXIT_OK


_DISPATCH = {
    "run": _cmd_run,
    "zeros": _cmd_zeros,
    "table": _cmd_table,
    "scan": _cmd_scan,
    "predict": _cmd_predict,
    "stats": _cmd_stats,
    "goldbach": _cmd_goldbach,
}


def dispatch(argv=None) -> int:
    ap = build_parser()
    received = list(sys.argv[1:] if argv is None else argv)
    # join "--tail -3,-13" into "--tail=-3,-13" so argparse does not read the
    # leading minus of the value as an option
    argv = list(received)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--tail":
            argv[i : i + 2] = [f"--tail={argv[i + 1]}"]
            break
    args = ap.parse_args(argv)
    args.argv = received  # the metadata records the command line as given
    try:
        return _DISPATCH[args.cmd](args)
    except (SpecParseError, ValueError, KeyError) as exc:
        print(f"gcdlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
