"""CLI surface: commands, JSON output, exit codes."""

import contextlib
import io
import json

import pytest

import gdeen.hecke as hecke_mod
from gdeen import cli, een
from gdeen.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EX34_JSON = '{"d":3,"e":3,"n":4,"rows":[[1,1],[3,0],[4,1],[2,1]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normal_form_matrix_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(EX34_JSON)
    code, out, _ = run(
        capsys, "normal-form", "--d", "3", "--e", "3", "--n", "4", "--matrix", str(path)
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == "z s3 t1 t0 s3 s4 s3 t1 t0"
    assert obj["length"] == 9
    assert obj["parts"]["RE1"] == "z"
    assert obj["parts"]["RE2"] == ""


def test_normal_form_word_trivial(capsys):
    code, out, _ = run(
        capsys, "normal-form", "--d", "1", "--e", "3", "--n", "2", "--word", "t0 t0"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == "" and obj["length"] == 0


def test_normal_form_word_geodesic(capsys):
    code, out, _ = run(
        capsys, "normal-form", "--d", "1", "--e", "3", "--n", "4", "--word", "s3 s4"
    )
    assert code == 0
    assert json.loads(out)["length"] == 2


def test_eval_word_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "eval-word",
        "--d", "3", "--e", "3", "--n", "4",
        "--word", "z s3 t1 t0 s3 s4 s3 t1 t0",
    )
    assert code == 0
    assert json.loads(out) == json.loads(EX34_JSON)


def test_length_command(capsys):
    code, out, _ = run(
        capsys, "length", "--d", "3", "--e", "1", "--n", "3", "--word", "z s2 z z s2 s3 s2 z z"
    )
    assert code == 0
    assert json.loads(out)["length"] == 9


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "1", "--e", "3", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 54
    assert obj["length_histogram"]["0"] == 1


def test_census_g622(capsys):
    code, out, _ = run(capsys, "census", "--d", "3", "--e", "2", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_length"] == 4 and obj["count"] == 5
    assert len(obj["witnesses"]) == 5


def test_verify_geodesic(capsys):
    code, out, _ = run(capsys, "verify-geodesic", "--d", "1", "--e", "3", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["order"] == 54


def test_hecke_reduce_een(capsys):
    code, out, _ = run(
        capsys,
        "hecke-reduce", "--family", "een", "--e", "3", "--n", "3", "--word", "t1 t0 t0",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [
        {"basis": "t1", "coeff": "1"},
        {"basis": "t1 t0", "coeff": "a"},
    ]


def test_hecke_reduce_d1n(capsys):
    code, out, _ = run(
        capsys,
        "hecke-reduce", "--family", "d1n", "--d", "2", "--n", "2", "--word", "s2 z s2 s2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [
        {"basis": "s2 z", "coeff": "1"},
        {"basis": "s2 z s2", "coeff": "a"},
    ]


def test_hecke_reduce_at_rank_21(capsys):
    # |Lambda| = 2^20 * 21!, so a column table holds only the lists of the
    # columns that the call reads, not one slot per basis position
    code, out, _ = run(
        capsys, "hecke-reduce", "--family", "een", "--e", "2", "--n", "21", "--word", "s21 t1 s3"
    )
    assert code == 0
    assert json.loads(out)["terms"] == [{"basis": "t1 s3 s21", "coeff": "1"}]
    tables = hecke_mod._engine(een(2, 21))._packed
    assert tables and all(len(table) == 1 for _, table in tables.values())
    hecke_mod._engine.cache_clear()


def test_hecke_reduce_empty(capsys):
    code, out, _ = run(
        capsys, "hecke-reduce", "--family", "een", "--e", "2", "--n", "3", "--word", ""
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"basis": "", "coeff": "1"}]


def test_hecke_verify(capsys):
    code, out, _ = run(
        capsys, "hecke-verify", "--family", "d1n", "--d", "3", "--n", "2", "--samples", "10"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["basis_size"] == 18


def test_exit_2_on_negative_samples(capsys):
    code, out, err = run(
        capsys, "hecke-verify", "--family", "een", "--e", "3", "--n", "3", "--samples", "-1"
    )
    assert code == 2 and out == ""
    assert "ParamsMismatch" in err


def test_exit_2_on_bad_word(capsys):
    code, _, err = run(
        capsys, "normal-form", "--d", "1", "--e", "3", "--n", "3", "--word", "z t0"
    )
    assert code == 2
    assert "UnknownSymbol" in err


def test_exit_2_on_unicode_digit(capsys):
    code, _, err = run(
        capsys, "length", "--d", "1", "--e", "3", "--n", "3", "--word", "t\u00b2"
    )
    assert code == 2
    assert "BadFormat" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("hecke-reduce --family een --d 3 --n 3 --word s3", "--family een needs --e"),
        ("hecke-reduce --family d1n --e 3 --n 3 --word s3", "--family d1n needs --d"),
        ("hecke-verify --family d1n --n 2", "--family d1n needs --d"),
    ],
    ids=["een", "d1n", "verify-d1n"],
)
def test_exit_2_on_missing_family_parameter(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("command", ["normal-form", "length"])
def test_exit_2_on_matrix_of_another_group(tmp_path, capsys, command):
    path = tmp_path / "g334.json"
    path.write_text(EX34_JSON)
    code, out, err = run(
        capsys, command, "--d", "1", "--e", "3", "--n", "4", "--matrix", str(path)
    )
    assert code == 2 and out == ""
    assert "matrix file is for" in err


def test_exit_2_on_matrix_directory(tmp_path, capsys):
    code, _, err = run(
        capsys, "normal-form", "--d", "3", "--e", "3", "--n", "4", "--matrix", str(tmp_path)
    )
    assert code == 2
    assert err.startswith("error:")


def test_exit_2_on_invariant_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"d":3,"e":3,"n":4,"rows":[[1,1],[3,0],[4,1],[2,2]]}')
    code, _, err = run(
        capsys, "normal-form", "--d", "3", "--e", "3", "--n", "4", "--matrix", str(path)
    )
    assert code == 2
    assert "InvariantViolation" in err and "sum" in err


# stderr as argparse writes it at 80 columns
USAGE_REDUCE = (
    "usage: gdeen hecke-reduce [-h] --family {een,d1n} [--d D] [--e E] --n N --word\n"
    "                          WORD\n"
)
USAGE_VERIFY = (
    "usage: gdeen hecke-verify [-h] --family {een,d1n} [--d D] [--e E] --n N\n"
    "                          [--cap CAP] [--samples SAMPLES]\n"
)
USAGE_TOP = (
    "usage: gdeen [-h] [--pretty]\n"
    "             {normal-form,eval-word,length,enumerate,census,verify-geodesic,"
    "hecke-reduce,hecke-verify}\n"
    "             ...\n"
)
COMMANDS = (
    "'normal-form', 'eval-word', 'length', 'enumerate', 'census', 'verify-geodesic', "
    "'hecke-reduce', 'hecke-verify'"
)


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            "hecke-reduce --family xyz --e 3 --n 3 --word t1",
            USAGE_REDUCE + "gdeen hecke-reduce: error: argument --family: invalid choice: "
            "'xyz' (choose from 'een', 'd1n')\n",
        ),
        (
            "hecke-reduce --e x",
            USAGE_REDUCE + "gdeen hecke-reduce: error: argument --e: invalid int value: 'x'\n",
        ),
        (
            "--pretty hecke-verify --family een --n 3 --samples q",
            USAGE_VERIFY
            + "gdeen hecke-verify: error: argument --samples: invalid int value: 'q'\n",
        ),
        (
            "nope",
            USAGE_TOP
            + f"gdeen: error: argument command: invalid choice: 'nope' (choose from {COMMANDS})\n",
        ),
        ("", USAGE_TOP + "gdeen: error: the following arguments are required: command\n"),
    ],
    ids=["choice", "int", "verify-int", "command", "none"],
)
def test_bad_flags_exit_2_with_the_usage(capsys, monkeypatch, argv, err):
    # the parser is built once per process: the second call reuses it
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == err
    assert cli._parser() is cli._parser()


def test_pretty_output(capsys):
    code, out, _ = run(
        capsys, "--pretty", "length", "--d", "1", "--e", "2", "--n", "2", "--word", "t0"
    )
    assert code == 0
    assert out.startswith("{\n")


def test_exit_1_on_verification_counterexample(monkeypatch, capsys):
    import gdeen.cli as cli

    monkeypatch.setattr(
        cli, "verify_geodesic", lambda params, cap: {"ok": False, "counterexample": {}}
    )
    code, out, _ = run(capsys, "verify-geodesic", "--d", "1", "--e", "2", "--n", "2")
    assert code == 1


def test_exit_2_on_cap_refusal(capsys):
    code, _, err = run(
        capsys, "enumerate", "--d", "3", "--e", "3", "--n", "4", "--cap", "100"
    )
    assert code == 2
    assert "EnumerationTooLarge" in err


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", EX34_JSON.encode("utf-16"), b"[" * 100_000, b'{"d": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "utf16", "too-deep", "int-too-long"],
)
@pytest.mark.parametrize("command", ["normal-form", "length"])
def test_exit_2_on_unreadable_matrix_file(tmp_path, capsys, command, data):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    code, out, err = run(
        capsys, command, "--d", "3", "--e", "3", "--n", "4", "--matrix", str(path)
    )
    assert code == 2 and out == ""
    assert "BadFormat" in err


@pytest.mark.parametrize(
    "text",
    ['["s3", "s4"', '["s3"] x', "[" * 100_000, "[" + "1" * 5000 + "]", '{"s3": 1}', '["s3", 3]'],
    ids=["unclosed", "trailing", "too-deep", "int-too-long", "object", "not-a-token"],
)
@pytest.mark.parametrize(
    "command",
    [
        ("normal-form", "--d", "3", "--e", "3", "--n", "4"),
        ("length", "--d", "3", "--e", "3", "--n", "4"),
        ("eval-word", "--d", "3", "--e", "3", "--n", "4"),
        ("hecke-reduce", "--family", "een", "--e", "3", "--n", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_exit_2_on_unreadable_word_json(capsys, command, text):
    code, out, err = run(capsys, *command, "--word", text)
    assert code == 2 and out == ""
    assert "BadFormat" in err


# Property runs: every outcome is exit 0 or 2, never 1 (no input here is a
# counterexample) and never an uncaught exception.  The parameters stay small
# and every command that enumerates gets a --cap of at most 60, so each run
# is cheap.  Valid parameters are drawn often enough to reach the work.
_small = st.integers(1, 3) | st.integers(-2, 4)
_dims = st.just((3, 3, 4)) | st.tuples(_small, _small, _small)
_valid = st.sampled_from([EX34_JSON, '{"d":1,"e":3,"n":2,"rows":[[2,1],[1,2]]}'])
_matrix_bytes = (
    st.binary(max_size=64)
    | st.builds(str.encode, _valid, st.sampled_from(["utf-8", "utf-16", "utf-32"]))
    | st.builds(bytes.__add__, _valid.map(str.encode), st.binary(min_size=1, max_size=8))
)


def _exit_code(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("matrix") / "m.json"


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(["normal-form", "length"]), _dims, _matrix_bytes)
def test_cli_exits_0_or_2_on_any_matrix_file(matrix_path, command, dims, data):
    matrix_path.write_bytes(data)
    flags = [f"--{k}={v}" for k, v in zip("den", dims)]
    assert _exit_code([command, *flags, "--matrix", str(matrix_path)]) in (0, 2)


@st.composite
def numeric_argv(draw):
    """A command with small, possibly negative, numeric flags."""
    command = draw(
        st.sampled_from(
            ["normal-form", "length", "eval-word", "enumerate", "census", "verify-geodesic",
             "hecke-reduce", "hecke-verify"]
        )
    )
    if command.startswith("hecke"):
        family = draw(st.sampled_from(["een", "d1n"]))
        flag = "e" if family == "een" else "d"
        argv = [command, "--family", family, f"--{flag}={draw(_small)}", f"--n={draw(_small)}"]
    else:
        argv = [command] + [f"--{k}={draw(_small)}" for k in "den"]
    if command in ("enumerate", "census", "verify-geodesic", "hecke-verify"):
        argv.append(f"--cap={draw(st.integers(-2, 60))}")
    if command == "hecke-verify":
        argv.append(f"--samples={draw(st.integers(-2, 2))}")
    if command in ("normal-form", "length", "eval-word", "hecke-reduce"):
        argv.append("--word=")
    return argv


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(numeric_argv())
def test_cli_exits_0_or_2_on_small_numeric_flags(argv):
    assert _exit_code(argv) in (0, 2)
