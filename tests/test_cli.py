"""CLI: subcommands, formats, determinism, exit codes, the flag contract."""
import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlab import cli, experiments


def run_cli(capsys, *argv):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_zeros_csv(capsys):
    code, out = run_cli(capsys, "zeros", "--spec", "affine:m=1", "--count", "5")
    assert code == 0
    assert out == "2,5,11,23,47\n"


def test_zeros_json(capsys):
    code, out = run_cli(
        capsys, "zeros", "--spec", "affine:m=3", "--count", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [2, 5, 23, 89]
    assert doc["metadata"]["spec"] == "affine:m=3"


def test_run_trace(capsys):
    code, out = run_cli(
        capsys, "run", "--spec", "affine:m=1", "--initial", "1", "--zeros", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "event,index,value"
    assert "zero,11,0" in lines


def test_goldbach_subcommand(capsys):
    code, out = run_cli(capsys, "goldbach", "2209", "--variant", "alternating")
    assert code == 0
    header, row = out.splitlines()
    assert header == "g,claim_1,claim_2,all_prime"
    g, c1, c2, ap = (int(x) for x in row.split(","))
    assert c1 + c2 == 2 * 2209 and ap == 1


def test_predict_affine(capsys):
    code, out = run_cli(
        capsys,
        "predict",
        "affine",
        "--m",
        "10",
        "--record",
        "43213789",
        "--tail",
        "-3,-13,-15241,-43,-1889,-3,-433,-113,-3,-5827,-247",
    )
    assert code == 0
    assert out.strip() == "475113649"


def test_predict_power(capsys):
    code, out = run_cli(
        capsys,
        "predict",
        "power",
        "--b",
        "2",
        "--c",
        "3",
        "--record",
        "265301",
        "--tail",
        "-109,-31,-17,-3,-5,-3",
    )
    assert code == 0
    assert out.strip() == "37299785868725741"


def test_table_subcommand(capsys):
    code, out = run_cli(capsys, "table", "appendix2", "--m", "5")
    assert code == 0
    assert out.splitlines()[0] == "index,claim_1,delta_1,all_prime"
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
        "2",
        "17",
        "95",
        "575",
        "3419",
        "19967",
    ]


def test_scan_subcommand(capsys):
    code, out = run_cli(capsys, "scan", "twin", "--n-hi", "150", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["largest_failure"] == 97


def test_stats_legendre(capsys):
    code, out = run_cli(capsys, "stats", "legendre", "--n-hi", "20")
    assert code == 0
    assert out.splitlines()[0] == "x,y"


def test_stats_lalpha_seeded(capsys):
    code, a = run_cli(capsys, "stats", "lalpha", "--samples", "30", "--seed", "5")
    assert code == 0
    _, b = run_cli(capsys, "stats", "lalpha", "--samples", "30", "--seed", "5")
    assert a == b  # identical argv + seed -> byte-identical output


def test_out_file(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    code, out = run_cli(
        capsys, "zeros", "--spec", "affine:m=1", "--count", "3", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text() == "2,5,11\n"


@pytest.mark.parametrize(
    "argv",
    [
        "run --spec affine:m=9 --initial 1 --zeros 9 --budget 100",
        "scan twin --n-hi 120",
        "stats gaps --n-hi 50",
        "table c3ter",
        "goldbach 100",
        # CSV of more than one block of cli._BLOCK lines
        "stats goldbach-constant --n-hi 3000",
        "stats gaps --n-hi 1500",
        "stats upsilon-twin --n-hi 300",
        "scan goldbach --n-hi 2500",
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    argv = [*argv.split(), "--format", fmt]
    code, out = run_cli(capsys, *argv)
    path = tmp_path / "out"
    # the metadata records the argv, so --out goes on the end of both runs
    assert run_cli(capsys, *argv, "--out", str(path)) == (code, "")
    assert path.read_bytes().replace(f', "--out", "{path}"'.encode(), b"") == out.encode()


def test_csv_is_written_in_blocks(monkeypatch):
    # each write of an unbuffered stdout is a syscall: the rows go out
    # cli._BLOCK lines at a time, as the series yields them
    writes = []

    class Spy(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Spy())
    assert cli.dispatch(["stats", "goldbach-constant", "--n-hi", "5000"]) == 0
    text = "".join(writes)
    lines = text.splitlines()
    assert lines[0] == "x,y" and lines[-1].startswith("5000,") and len(lines) == 4999
    blocks = -(-len(lines) // 1024)
    assert blocks <= len(writes) <= blocks + 1


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_series_argument_error_writes_nothing(tmp_path, capsys, out):
    # the series checks its arguments before its first row is written
    path = tmp_path / "upsilon.csv"
    argv = ["stats", "upsilon", "--b", "0", "--n-hi", "3", *(["--out", str(path)] if out else [])]
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2 and "power needs b >= 1 and c >= 1" in captured.err
    assert captured.out == "" and not path.exists()


def test_unopenable_out_exits_2_naming_the_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, err = dispatch_exit(capsys, ["zeros", "--spec", "affine:m=1", "--count", "2", "--out", str(path)])
    assert code == 2
    assert err == f"gcdlab: cannot write --out {path}: No such file or directory\n"
    assert not path.parent.exists()


def test_claims_table_csv(capsys):
    # ported from the report's own CSV writer: the rows of claims_report(AffineMinus(m=1), 1, 4)
    code, out = run_cli(capsys, "table", "c1", "--rows", "4")
    assert code == 0
    assert out.splitlines()[:2] == ["index,claim_1,delta_1,all_prime", "2,2,1,1"]
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["2", "5", "11", "23"]


def test_scan_csv_lists_every_n(capsys):
    # the JSON rows are the failing N only; the CSV flags every N = 2..n_hi
    code, out = run_cli(capsys, "scan", "twin", "--n-hi", "300")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,failed"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(2, 301))
    assert [line for line in lines[1:] if line.endswith(",1")][-1] == "97,1"


def test_bad_spec_exit_2(capsys):
    code, _ = run_cli(capsys, "zeros", "--spec", "bogus:z=1", "--count", "2")
    assert code == 2


def test_budget_exhaustion_exit_3(capsys):
    code, out = run_cli(
        capsys, "zeros", "--spec", "affine:m=9", "--count", "9", "--budget", "100"
    )
    assert code == 3
    assert out.strip()  # partial output still emitted


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_json_metadata_records_dispatch_argv(capsys):
    argv = ["zeros", "--spec", "affine:m=1", "--count", "3", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["metadata"]["argv"] == argv


def _fresh_python(script):
    """The finished process of `python -c script`, with gcdlab importable."""
    paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


def test_a_reader_that_leaves_early_ends_the_csv_quietly():
    # `gcdlab stats goldbach-constant --n-hi 20000 | head -n 1`: the writes
    # after the reader has gone fail with EPIPE
    argv = ["stats", "goldbach-constant", "--n-hi", "20000"]
    script = f"import sys; from gcdlab import cli; sys.argv[1:] = {argv!r}; cli.main()"
    paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"x,y\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _cli_without(module, argv):
    """The finished process of `gcdlab argv` in an interpreter where module
    cannot be imported."""
    return _fresh_python(
        f"import runpy, sys; sys.modules[{module!r}] = None; "
        f"sys.argv = ['gcdlab', *{argv!r}]; "
        "runpy.run_module('gcdlab.cli', run_name='__main__')"
    )


def test_cli_runs_without_sympy(capsys):
    argv = ["stats", "upsilon-v", "--count", "5"]
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    proc = _cli_without("sympy", argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "argv",
    [
        "table appendix5 --p 2",
        "run --spec rowland --initial 7 --mode forward --budget 30000",
        "stats upsilon-v --count 5",
        "stats lalpha --samples 20",
        "scan beatty --n-hi 300",
        "scan triplet --n-hi 300",
        "goldbach 1000",
        "goldbach 1000 --variant product",
        "table c8 --variant twin",
        "stats gaps --n-hi 300",
        "stats upsilon-twin --n-hi 300",
    ],
)
def test_scalar_commands_run_without_numpy(capsys, argv):
    # numpy is for array work only: the lane path, prime_flags and Legendre;
    # goldbach's one lane run takes the scalar path, and a stretch of equal
    # specs the memo path
    code, expected = run_cli(capsys, *argv.split())
    assert code == 0
    proc = _cli_without("numpy", argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


# (argv, the modules it loads, the modules it does not)
LAYERS = [
    ("run --spec rowland --initial 7 --mode forward --budget 3000", "", "experiments records numpy"),
    ("zeros --spec affine:m=1 --count 5", "", "experiments records numpy"),
    ("scan beatty --n-hi 20", "experiments", "records"),
    ("table appendix5 --p 2", "experiments", "records"),
    ("stats lalpha --samples 5", "records", "experiments"),
    ("predict affine --m 1 --record 2", "records", "experiments"),
    ("stats goldbach-constant --n-hi 300", "experiments numpy", "records"),
]


@pytest.mark.parametrize("argv, loads, skips", LAYERS, ids=[argv.split(" --")[0] for argv, _, _ in LAYERS])
def test_each_command_loads_only_the_layers_it_runs(argv, loads, skips):
    # every command is a fresh process, so each module it imports is start-up
    # time; importing the CLI loads none of these, and the lane path of
    # goldbach-constant loads numpy
    names = [m if m == "numpy" else f"gcdlab.{m}" for m in (loads + " " + skips).split()]
    proc = _fresh_python(
        f"import sys; from gcdlab import cli; names = {names!r}; "
        "before = [m for m in names if m in sys.modules]; "
        f"code = cli.dispatch({argv.split()!r}); "
        "print(code, before, [m for m in names if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 [] {names[: len(loads.split())]}"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_keeps_openblas_to_one_thread_unless_set(monkeypatch, preset, expected):
    # gcdlab makes no BLAS call, but importing numpy starts OpenBLAS's threads
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    proc = _fresh_python(
        "import os, sys; from gcdlab import cli; sys.argv = ['gcdlab', 'scan', 'twin', '--n-hi', '10']\n"
        "try: cli.main()\nexcept SystemExit as exit: print(exit.code, os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {expected}"


def test_beatty_descent_past_364913_exit_0(capsys):
    # pi*364913 is within 6e-7 of an integer; the stored pi is exact there
    argv = ["run", "--spec", "beatty", "--initial", "400000", "--mode", "signed"]
    code = cli.dispatch(argv + ["--budget", "1000000"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert rows[:2] == ["event,index,value", "zero,399490,0"]
    assert rows[-1] == "final,399490,0"


@pytest.mark.parametrize(
    "argv, header",
    [
        ("stats upsilon --n-hi -5", "x,y"),
        ("stats gaps --n-hi 0", "x,y"),
        ("scan twin --n-hi -3", "N,failed"),
    ],
)
def test_empty_n_hi_range_prints_the_header(capsys, argv, header):
    # the golden fixture pins stats upsilon --n-hi 0 and scan triplet --n-hi 1
    assert run_cli(capsys, *argv.split()) == (0, header + "\n")


@pytest.mark.parametrize("lo, hi", [(5, 3), (-5, 3), (4, 5)])
def test_lalpha_range_names_lo_and_hi(capsys, lo, hi):
    code, err = dispatch_exit(capsys, ["stats", "lalpha", "--samples", "3", "--lo", str(lo), "--hi", str(hi)])
    assert code == 2
    assert err == f"gcdlab: --lo and --hi need 0 <= lo and lo + 1 < hi, got lo={lo}, hi={hi}\n"


def test_table_missing_parameter_named(capsys):
    for argv, missing in [
        ("table c6 --initial 3", "c6 requires --spec"),
        ("table c7 --initial 3", "c7 requires --spec"),
        ("table c9 --initial 3", "c9 requires --spec"),
        ("table c9 --spec alt-quad", "c9 requires --initial"),
        ("table c7", "c7 requires --spec, --initial"),
    ]:
        code = cli.dispatch(argv.split())
        assert code == 2
        assert capsys.readouterr().err == f"gcdlab: table {missing}\n"


@pytest.mark.parametrize(
    "argv, rows",
    [
        ("table c8 --rows 1 --n-hi 8", 1),
        ("table c5 --rows 1 --n-hi 5", 1),
        ("table c10 --rows 100 --n-hi 4", 3),
    ],
)
def test_table_rows_caps_n_hi(capsys, argv, rows):
    # N runs up to --n-hi, and --rows caps the row count
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert len(out.splitlines()) == 1 + rows


def test_table_unknown_key_lists_known_keys(capsys):
    code = cli.dispatch(["table", "appendix6", "--key", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'nope'" in err and "beta2-1" in err and "beta6-1" in err


def test_scan_rejects_zero_mr_rounds(capsys):
    code = cli.dispatch(["scan", "triplet", "--n-hi", "10", "--mr-rounds", "0", "--format", "json"])
    assert code == 2
    assert capsys.readouterr().err == "gcdlab: rounds must be >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "triplet", "--n-hi", "40"],
        ["stats", "upsilon", "--n-hi", "40"],
        ["stats", "upsilon-twin", "--n-hi", "40"],
    ],
    ids=" ".join,
)
def test_series_use_the_cli_policy(monkeypatch, capsys, argv):
    # every claim check of the scan and the upsilon series sees --mr-rounds and --seed
    seen = set()
    all_prime = cli.primality.all_prime

    def spy(values, policy=cli.primality.DEFAULT_POLICY):
        seen.add(policy)
        return all_prime(values, policy)

    monkeypatch.setattr(cli.primality, "all_prime", spy)
    assert cli.dispatch(argv + ["--mr-rounds", "7", "--seed", "3", "--workers", "1"]) == 0
    assert seen == {cli.primality.PrimalityPolicy(rounds=7, rng_seed=3)}


def dispatch_exit(capsys, argv):
    """dispatch's exit code, argparse's SystemExit included, and its stderr."""
    try:
        code = cli.dispatch(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


# ---------------------------------------------------------------------------
# the flag contract: each command, and each stats kind, accepts only the
# flags it honours

# every command and stats kind also takes --format and --out
HONOURED = {
    "run": ("spec", "initial", "mode", "start-index", "zeros", "budget"),
    "zeros": ("spec", "initial", "count", "mode", "start-index", "budget"),
    "table": (
        "rows", "m", "p", "b", "c", "start", "key", "spec", "initial", "n-hi", "variant",
        "seed", "mr-rounds",
    ),
    "scan": ("n-hi", "workers", "seed", "mr-rounds"),
    "predict": ("m", "b", "c", "record", "tail"),
    "goldbach": ("variant", "seed", "mr-rounds"),
    "stats lalpha": ("alpha", "samples", "lo", "hi", "seed", "mr-rounds"),
    "stats upsilon": ("b", "c", "n-hi", "workers", "seed", "mr-rounds"),
    "stats upsilon-twin": ("n-hi", "workers", "seed", "mr-rounds"),
    "stats upsilon-v": ("count", "seed", "mr-rounds"),
    "stats goldbach-constant": ("n-hi",),
    "stats gaps": ("n-hi", "seed", "mr-rounds"),
    "stats legendre": ("n-hi", "workers"),
}

# every command used to take the four shared flags, and every stats kind all
# eight stats flags as well
SHARED = ("budget", "workers", "seed", "mr-rounds")
STATS_FLAGS = ("alpha", "samples", "lo", "hi", "b", "c", "n-hi", "count")


def removed(command):
    once = SHARED + (STATS_FLAGS if command.startswith("stats") else ())
    return [flag for flag in once if flag not in HONOURED[command]]


# a cheap valid argv for each command, to which one flag is added
BASE = {
    "run": "run --spec affine:m=1 --initial 1 --zeros 1",
    "zeros": "zeros --spec affine:m=1 --count 1",
    "table": "table appendix5",
    "scan": "scan twin --n-hi 10",
    "predict": "predict affine --m 1 --record 2",
    "goldbach": "goldbach 10",
    "stats lalpha": "stats lalpha --samples 3",
    "stats upsilon": "stats upsilon --n-hi 10",
    "stats upsilon-twin": "stats upsilon-twin --n-hi 10",
    "stats upsilon-v": "stats upsilon-v --count 2",
    "stats goldbach-constant": "stats goldbach-constant --n-hi 10",
    "stats gaps": "stats gaps --n-hi 10",
    "stats legendre": "stats legendre --n-hi 10",
}


def declared_flags(parser, command=""):
    """{command: flag names} as build_parser declares them, stats kinds apart."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out = {}
            for name, sub in action.choices.items():
                out.update(declared_flags(sub, f"{command} {name}".strip()))
            return out
    flags = {opt[2:] for action in parser._actions for opt in action.option_strings if opt[1] == "-"}
    return {command: flags - {"help"}}


def test_each_command_declares_the_flags_it_honours():
    declared = declared_flags(cli.build_parser())
    assert declared == {c: {"format", "out", *flags} for c, flags in HONOURED.items()}
    # (command, flag) pairs: 162 when every command took the shared flags
    assert sum(map(len, declared.values())) == 88
    assert sum(len(removed(c)) for c in HONOURED) == 162 - 88
    # the parser of one command gives the others their names alone
    for command in {c.split()[0] for c in HONOURED}:
        others = {c.split()[0]: set() for c in HONOURED if c.split()[0] != command}
        own = {c: flags for c, flags in declared.items() if c.split()[0] == command}
        assert declared_flags(cli.build_parser(command)) == {**others, **own}


# (exit code, sha256 of stdout, stderr) of `gcdlab argv` at 80 columns,
# recorded when every run built every command's arguments
PARSER_OUTPUT = {
    "--help": (0, "a3290bb585d6aa0cab47619be27e2ad4b92371aae637c2abb53a52b0142debca", ""),
    "run --help": (0, "7f36c62f6530d7d9d3eb2e187ad357c58719077206bd956acfc342246baf2803", ""),
    "stats lalpha --help": (0, "f547c354b6631a179a5bb1688c21a661087fb370ac26899c8dc03cedd91870c2", ""),
    "nope": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "gcdlab: error: argument cmd: invalid choice: 'nope' (choose from 'run', 'zeros', 'table', 'scan', "
        "'predict', 'stats', 'goldbach')\n",
    ),
    "scan nope --n-hi 3": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "gcdlab scan: error: argument family: invalid choice: 'nope' (choose from 'beatty', 'goldbach', 'triplet', "
        "'twin')\n",
    ),
}


@pytest.mark.parametrize("argv", PARSER_OUTPUT)
def test_help_and_choice_errors_read_as_before(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.dispatch(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == PARSER_OUTPUT[argv]


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in HONOURED for f in removed(c)],
    ids=[f"{c} --{f}" for c in HONOURED for f in removed(c)],
)
def test_removed_flag_exits_2(capsys, command, flag):
    code, err = dispatch_exit(capsys, BASE[command].split() + [f"--{flag}", "1"])
    assert code == 2
    assert err == f"gcdlab: error: unrecognized arguments: --{flag} 1\n"


def test_flags_match_only_in_full(capsys):
    # upsilon-v declares --count, and no longer --c; --c must not abbreviate it
    code, err = dispatch_exit(capsys, ["stats", "upsilon-v", "--c", "3"])
    assert code == 2
    assert err == "gcdlab: error: unrecognized arguments: --c 3\n"


@pytest.mark.parametrize(
    "argv",
    [
        "table appendix2 --rows 0",
        "table appendix1 --rows 0",
        "scan twin --n-hi 10 --workers 0",
        "scan twin --n-hi 10 --workers -3",
        "stats legendre --n-hi 10 --workers 0",
    ],
)
def test_counts_below_one_exit_2(capsys, argv):
    *_, flag, value = argv.split()
    code, err = dispatch_exit(capsys, argv.split())
    assert code == 2
    assert err.endswith(f": error: argument {flag}: must be >= 1, got {value}\n")
    assert err.count("\n") == 1


def test_workers_default_to_one(monkeypatch, capsys):
    monkeypatch.setenv("GCDLAB_WORKERS", "2")  # no longer read
    seen = []
    scan = experiments.scan_threshold

    def spy(*args, **kwargs):
        seen.append(kwargs["workers"])
        return scan(*args, **kwargs)

    monkeypatch.setattr(experiments, "scan_threshold", spy)
    assert cli.dispatch(["scan", "twin", "--n-hi", "5"]) == 0
    assert seen == [1]


@pytest.mark.parametrize(
    "argv, keys",
    [
        ("run --spec affine:m=1 --initial 1 --zeros 1", {"budget", "spec"}),
        ("scan twin --n-hi 5", {"seed", "family", "largest_failure"}),
        ("predict affine --m 1 --record 2", set()),
        ("stats upsilon-v --count 2", {"seed", "kind"}),
        ("stats legendre --n-hi 5", {"kind"}),
    ],
)
def test_metadata_records_only_flags_the_command_has(capsys, argv, keys):
    code, out = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert set(json.loads(out)["metadata"]) == {"argv"} | keys


@pytest.mark.parametrize(
    "argv, message",
    [
        ("stats lalpha --alpha=-1/2 --samples 3", "alpha must be in (0, 1], got -1/2"),
        ("stats lalpha --alpha 0 --samples 3", "alpha must be in (0, 1], got 0"),
        ("stats lalpha --alpha 3/2 --samples 3", "alpha must be in (0, 1], got 3/2"),
        ("stats lalpha --alpha 0.49 --samples 3", "alpha needs a denominator of at most 64, got 49/100"),
        ("run --spec power:b=2,c=0 --initial 5 --zeros 2", "power needs b >= 1 and c >= 1"),
        ("run --spec primepower:p=0 --initial 5 --zeros 2", "primepower needs p >= 1"),
        ("table c4 --c 0", "power needs b >= 1 and c >= 1"),
        ("stats upsilon --c 0 --n-hi 10", "power needs b >= 1 and c >= 1"),
        ("stats upsilon --n-hi=0 --b=-1", "power needs b >= 1 and c >= 1"),
        ("stats upsilon --n-hi=0 --c=0", "power needs b >= 1 and c >= 1"),
        ("predict power --b 0 --c 2 --record 5", "power needs b >= 1 and c >= 1"),
        ("predict affine --m 2 --b 3 --record 7", "predict affine does not read --b"),
        ("predict power --b 2 --c 2 --m 1 --record 7", "predict power does not read --m"),
        ("table appendix2 --p 3", "table appendix2 does not read --p"),
        ("table appendix1 --m 2 --p 3", "table appendix1 does not read --m, --p"),
        ("table c6 --spec rowland --initial 7", "rowland claims live on forward records"),
        ("table c6 --spec shevelev --initial 7", "shevelev claims live on forward records"),
        ("zeros --spec affine:m=5,z=1 --count 1", "affine reads m, not 'z'"),
        ("zeros --spec poly:p=x^2+1,q=3 --count 1", "poly reads p, not 'q'"),
        ("zeros --spec affine:m=5,m=6 --count 1", "key 'm' is given twice"),
        ("zeros --spec goldbach-alt:N=10,flip=2 --count 1", "flip must be 0 or 1, got '2'"),
        ("zeros --spec power:b=2 --count 1", "power needs key c"),
    ],
)
def test_argument_errors_exit_2_in_one_line(capsys, argv, message):
    code, err = dispatch_exit(capsys, argv.split())
    assert code == 2
    assert err.startswith("gcdlab: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, prog, error",
    [
        ("stats lalpha --samples 3 --alpha 1/0", "stats lalpha", "--alpha: invalid fraction value: '1/0'"),
        ("stats lalpha --samples 3 --alpha half", "stats lalpha", "--alpha: invalid fraction value: 'half'"),
        ("predict affine --m 1 --record 2 --tail abc", "predict", "--tail: invalid int_list value: 'abc'"),
        ("predict affine --m 1 --record 2 --tail -3,x", "predict", "--tail: invalid int_list value: '-3,x'"),
    ],
)
def test_unparsable_flag_values_name_the_flag(capsys, argv, prog, error):
    # 1/0 once ended in a ZeroDivisionError traceback, and abc in an error that did not name --tail
    assert dispatch_exit(capsys, argv.split()) == (2, f"gcdlab {prog}: error: argument {error}\n")


def test_lalpha_metadata_keeps_alpha_as_a_fraction_string(capsys):
    code, out = run_cli(capsys, "stats", "lalpha", "--samples", "3", "--alpha", "0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["alpha"] == "1/2"


# ---------------------------------------------------------------------------
# argv fuzz: argv drawn from each command's flag grammar and run in-process.
# An example is clean, or holds one argument error: a flag its command does
# not read, or one value that no command reading the flag accepts.

SPECS = ("affine:m=1", "affine:m=3", "primepower:p=2", "beatty")
BAD_SPECS = ("bogus:z=1", "power:b=2,c=0", "power:b=0,c=2", "power:b=2,c=-1", "primepower:p=0", "primepower:p=-1")

# flag -> (strategy of values, values that are argument errors wherever read)
VALUES = {
    "spec": (st.sampled_from(SPECS + ("power:b=2,c=3", "rowland")), BAD_SPECS),
    "initial": (st.integers(0, 60), (-1,)),
    "mode": (st.sampled_from(("abs", "signed", "forward")), ("up",)),
    "start-index": (st.integers(-1, 5), ()),
    "zeros": (st.integers(1, 3), (-1, 0)),
    "count": (st.integers(-1, 5), ()),
    "budget": (st.integers(1, 10**4), (-1, 0)),
    "workers": (st.integers(1, 2), (-3, 0)),
    "seed": (st.integers(0, 9), ()),
    "mr-rounds": (st.integers(1, 5), (0,)),
    "rows": (st.integers(1, 2), (0,)),
    "m": (st.integers(-2, 6), ()),
    "p": (st.integers(1, 4), (-1, 0)),
    "b": (st.integers(1, 3), (-1, 0)),
    "c": (st.integers(1, 2), (-1, 0)),
    "start": (st.integers(-1, 20), ()),
    "key": (st.sampled_from(("beta2-1", "beta3-2")), ("nope",)),
    "n-hi": (st.integers(-2, 300), ()),
    "variant": (st.sampled_from(("prime", "twin")), ("x",)),
    "alpha": (st.sampled_from(("1/2", "1", "1/3")), ("0", "-1/2", "3/2", "1/0")),
    "samples": (st.integers(1, 5), (-1, 0)),
    "lo": (st.sampled_from((-5, 0, 10**3, 10**6)), ()),
    "hi": (st.sampled_from((3, 10**4, 10**7)), ()),
    "record": (st.integers(1, 10**6), (-1, 0)),
    "tail": (st.sampled_from(("", "-3,-13", "-200")), ("3", "-1", "abc")),
    "format": (st.sampled_from(("csv", "json")), ("xml",)),
}
OVERRIDES = {
    ("zeros", "mode"): (st.sampled_from(("abs", "signed")), ("forward",)),
    ("goldbach", "variant"): (st.sampled_from(("product", "alternating")), ("x",)),
    # a table of a cubic family runs to a 2*10^9 budget: minutes; rowland
    # has no claims at zeros
    ("table", "spec"): (st.sampled_from(SPECS), BAD_SPECS + ("rowland",)),
}

# table c3 takes minutes at p = 5 (3 rows); every other family stays fast
POSITIONAL = {
    "table": st.sampled_from([f for f in experiments.TABLE_PARAMS if f != "c3"]),
    "scan": st.sampled_from(sorted(experiments._SCAN_FAMILIES)),
    "predict": st.sampled_from(("affine", "power")),
    "goldbach": st.integers(2, 300).map(str),
}
# flags drawn in every example where the command reads them (n-hi where not
# listed), so that no default starts a long run and no required flag is missing
ALWAYS = {
    "run": ("spec", "initial", "budget"),
    "zeros": ("spec", "count", "budget"),
    "predict": ("record", "m", "b", "c"),
    "table": ("rows", "n-hi"),
    "stats lalpha": ("samples", "alpha"),
    "stats upsilon-v": ("count",),
}


def grammar(command, family):
    """(flags read, flags not read) by a command given its family argument:
    a table or a prediction reads only its family's parameters."""
    reads, unread = set(HONOURED[command]) | {"format"}, set(removed(command))
    if command == "table":
        params = {"m", "p", "b", "c", "start", "key", "spec", "initial", "n-hi", "variant"}
        own = {k.replace("_", "-") for k in experiments.TABLE_PARAMS[family]}
    elif command == "predict":
        params, own = {"m", "b", "c"}, {"m"} if family == "affine" else {"b", "c"}
    else:
        return reads, unread
    return reads - (params - own), unread | (params - own)


@st.composite
def argvs(draw):
    """(argv, whether it holds an argument error)."""
    command = draw(st.sampled_from(sorted(HONOURED)))
    argv = command.split()
    family = draw(POSITIONAL[command]) if command in POSITIONAL else None
    argv += [family] if family else []
    reads, unread = grammar(command, family)
    strategies = {f: OVERRIDES.get((command, f), VALUES[f]) for f in reads | unread}
    flags = [f for f in ALWAYS.get(command, ("n-hi",)) if f in reads]
    flags += draw(st.lists(st.sampled_from(sorted(reads - set(flags))), unique=True, max_size=3))
    # a clean example, a flag the command does not read, or one wrong value;
    # the parametrised test above already tries every unread flag
    kind = draw(st.sampled_from(("clean", "unread", "value", "value")))
    errors = sorted(unread) if kind == "unread" else [f for f in flags if strategies[f][1]]
    wrong = draw(st.sampled_from(errors)) if kind != "clean" and errors else None
    if wrong in unread:
        flags.append(wrong)
    for flag in flags:
        valid, invalid = strategies[flag]
        value = draw(st.sampled_from(invalid) if flag == wrong and flag in reads else valid)
        argv.append(f"--{flag}={value}")
    return argv, wrong is not None


@given(argvs())
# an empty --n-hi range once skipped the check of --b and --c
@example((["stats", "upsilon", "--n-hi=0", "--b=-1"], True))
@example((["stats", "upsilon", "--n-hi=0", "--c=0"], True))
@settings(max_examples=600, deadline=None)
def test_fuzzed_argv_exits_0_2_or_3(example):
    argv, wrong = example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 2 or not wrong, argv
    if code == 2:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
