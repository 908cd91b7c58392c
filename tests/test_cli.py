"""CLI: subcommands, formats, determinism, exit codes."""
import json
import os
import subprocess
import sys

import pytest

from gcdlab import cli


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


def test_cli_runs_without_sympy(capsys):
    argv = ["stats", "upsilon-v", "--count", "5"]
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    script = (
        "import runpy, sys; sys.modules['sympy'] = None; "
        f"sys.argv = ['gcdlab', *{argv!r}]; "
        "runpy.run_module('gcdlab.cli', run_name='__main__')"
    )
    paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_beatty_precision_error_exit_2(capsys):
    argv = ["run", "--spec", "beatty", "--initial", "400000", "--mode", "signed"]
    code = cli.dispatch(argv + ["--budget", "1000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gcdlab: pi*364913 is within 1e-6")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_table_missing_parameter_named(capsys):
    code = cli.dispatch(["table", "c6", "--initial", "3"])
    assert code == 2
    assert capsys.readouterr().err == "gcdlab: table c6 requires --spec\n"


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
