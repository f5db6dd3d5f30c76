"""CLI behaviour: outputs, schemas, exit codes, determinism."""

import ast
import io
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
GOLDEN = os.path.join(ROOT, "tests", "golden")

ROTATION_DATUM = {
    "schema": 1,
    "datum": {
        "n": 1,
        "even": {"free_rank": 1, "relations": []},
        "odd": {"free_rank": 1, "relations": []},
        "endos": [{"even": [[1]], "odd": [[1]]}],
    },
}

TORSION_DATUM = {
    "schema": 1,
    "datum": {
        "n": 1,
        "even": {"free_rank": 1, "relations": [[2]]},
        "odd": {"free_rank": 0, "relations": []},
        "endos": [{"even": [[1]], "odd": []}],
    },
}

TORUS2_DATUM = {
    "schema": 1,
    "datum": {
        "n": 2,
        "even": {"free_rank": 1, "relations": []},
        "odd": {"free_rank": 0, "relations": []},
        "endos": [
            {"even": [[1]], "odd": []},
            {"even": [[1]], "odd": []},
        ],
    },
}


NON_AUTOMORPHISM_DATUM = {
    "schema": 1,
    "datum": {**ROTATION_DATUM["datum"], "endos": [{"even": [[2]], "odd": [[1]]}]},
}


def run_cli(args, stdin_obj=None, timeout=None):
    payload = json.dumps(stdin_obj).encode() if stdin_obj is not None else b""
    proc = subprocess.run(
        [sys.executable, "-m", "pvtower.cli", *args],
        input=payload,
        capture_output=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class TestRank1:
    def test_rotation_json(self):
        code, out, _ = run_cli(["rank1", "--format", "json"], ROTATION_DATUM)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["K0"] == "Z^2"
        assert parsed["K1"] == "Z^2"
        assert parsed["ambiguous"] is False
        assert parsed["schema"] == 1

    def test_text_mode(self):
        code, out, _ = run_cli(["rank1"], ROTATION_DATUM)
        assert code == 0
        assert "K0 = Z^2" in out

    def test_strict_ambiguous_exit_code(self):
        code, out, _ = run_cli(["rank1", "--format", "json", "--strict"], TORSION_DATUM)
        assert code == 3
        assert json.loads(out)["ambiguous"] is True

    def test_ambiguous_without_strict_exits_zero(self):
        code, out, _ = run_cli(["rank1", "--format", "json"], TORSION_DATUM)
        assert code == 0
        assert json.loads(out)["ambiguous"] is True


class TestValidation:
    def test_malformed_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pvtower.cli", "rank1"],
            input=b"not json",
            capture_output=True,
        )
        assert proc.returncode == 2
        assert "malformed JSON" in proc.stderr.decode()

    def test_unknown_field_named(self):
        bad = json.loads(json.dumps(ROTATION_DATUM))
        bad["datum"]["even"]["bogus"] = 1
        code, _, err = run_cli(["rank1"], bad)
        assert code == 2
        assert "bogus" in err

    def test_wrong_schema_version(self):
        bad = json.loads(json.dumps(ROTATION_DATUM))
        bad["schema"] = 2
        code, _, err = run_cli(["rank1"], bad)
        assert code == 2
        assert "schema" in err

    def test_non_commuting_datum_rejected(self):
        bad = {
            "schema": 1,
            "datum": {
                "n": 2,
                "even": {"free_rank": 2, "relations": []},
                "odd": {"free_rank": 0, "relations": []},
                "endos": [
                    {"even": [[1, 1], [0, 1]], "odd": []},
                    {"even": [[1, 0], [1, 1]], "odd": []},
                ],
            },
        }
        code, _, err = run_cli(["tower"], bad)
        assert code == 2
        assert "commute" in err

    def test_missing_field_named(self):
        bad = {"schema": 1, "datum": {"n": 1, "even": {"free_rank": 1, "relations": []}}}
        code, _, err = run_cli(["rank1"], bad)
        assert code == 2
        assert "odd" in err

    def test_boolean_free_rank_rejected(self):
        bad = {
            "schema": 1,
            "datum": {
                "n": 1,
                "even": {"free_rank": True, "relations": []},
                "odd": {"free_rank": 0, "relations": []},
                "endos": [{"even": [[True]], "odd": []}],
            },
        }
        code, out, err = run_cli(["rank1", "--format", "json"], bad)
        assert code == 2
        assert out == ""
        assert "datum.even.free_rank" in err

    def test_boolean_matrix_entry_rejected(self):
        bad = json.loads(json.dumps(ROTATION_DATUM))
        bad["datum"]["endos"][0]["even"] = [[True]]
        code, _, err = run_cli(["rank1"], bad)
        assert code == 2
        assert "datum.endos[0].even" in err

    def test_parity_not_an_object(self):
        bad = json.loads(json.dumps(ROTATION_DATUM))
        bad["datum"]["odd"] = 5
        code, _, err = run_cli(["rank1"], bad)
        assert code == 2
        assert "datum.odd" in err

    def test_flag_of_another_subcommand_rejected(self):
        code, out, err = run_cli(["rank1", "--w", "5", "--dual"], ROTATION_DATUM)
        assert code == 2
        assert out == ""
        assert "--w" in err

    def test_trials_out_of_range_rejected(self):
        # An unbounded --trials runs for hours; the timeout turns that into a failure.
        for command in (["koszul", "--n", "2"], ["homog", "--series", "A", "--n", "2", "--k", "1"]):
            for trials in ("0", "1000000000"):
                code, out, err = run_cli([*command, "--trials", trials], timeout=30)
                assert code == 2
                assert out == ""
                assert "--trials" in err

    def test_size_flags_out_of_range_rejected(self):
        # Past these caps homog overflowed a binomial count and koszul/oracle
        # ran for tens of seconds; the timeout turns a started run into a failure.
        for command, flag in (
            (["homog", "--series", "A", "--n", "68", "--k", "1"], "--n"),
            (["homog", "--series", "A", "--n", "12", "--k", "9"], "--k"),
            (["koszul", "--n", "9"], "--n"),
            (["oracle", "--n", "13"], "--n"),
            (["oracle", "--n", "0"], "--n"),
        ):
            code, out, err = run_cli(command, timeout=10)
            assert code == 2, command
            assert out == ""
            assert f"argument {flag}: expected an integer in" in err
            assert "Traceback" not in err

    def test_shape_size_flags_out_of_range_rejected(self):
        # `shape --n 100000` used to fail on a 4300-digit label naming no flag.
        for command, flag in (
            (["shape", "--n", "100000", "--w", "1"], "--n"),
            (["shape", "--n", "0"], "--n"),
            (["shape", "--n", "2", "--w", "0"], "--w"),
        ):
            code, out, err = run_cli(command, timeout=10)
            assert code == 2, command
            assert out == ""
            assert f"argument {flag}: expected an integer in" in err
            assert "Traceback" not in err

    def test_koszul_input_with_n_rejected(self, tmp_path):
        code, out, err = run_cli(["koszul", str(tmp_path / "missing.json"), "--n", "2"])
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_shape_series_with_w_rejected(self):
        code, out, err = run_cli(["shape", "--series", "B", "--n", "1", "--w", "3"])
        assert code == 2
        assert out == ""
        assert "--series" in err

    def test_over_long_integer_exits_2(self):
        # json.loads raises a plain ValueError past Python's 4300-digit limit.
        payload = json.dumps(TORSION_DATUM).replace("[[2]]", f"[[{'7' * 4301}]]", 1).encode()
        for command in ("rank1", "tower", "koszul"):
            proc = subprocess.run(
                [sys.executable, "-m", "pvtower.cli", command], input=payload, capture_output=True
            )
            assert proc.returncode == 2, command
            assert proc.stdout == b""
            assert proc.stderr.startswith(b"error: malformed JSON: Exceeds the limit")

    def test_duplicate_field_rejected(self):
        rotation = json.dumps(ROTATION_DATUM, separators=(",", ":"))
        even = '"even":{"free_rank":1,"relations":[]},'
        for text, key in (
            (rotation[:-1] + ',"schema":1}', "schema"),
            (rotation.replace(even, even * 2, 1), "even"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "pvtower.cli", "tower"],
                input=text.encode(),
                capture_output=True,
            )
            assert proc.returncode == 2, text
            assert proc.stdout == b""
            assert proc.stderr.decode() == f"error: input: duplicate field '{key}'\n"

    def test_koszul_datum_rejects_witness_flags(self):
        for flags, named in ((["--seed", "3"], "--seed"), (["--trials", "4"], "--trials")):
            code, out, err = run_cli(["koszul", *flags], TORUS2_DATUM)
            assert code == 2
            assert out == ""
            assert err == f"error: {named} applies only with --n\n"

    def test_deeply_nested_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pvtower.cli", "tower"],
            input=b"[" * 200_000,
            capture_output=True,
        )
        assert proc.returncode == 2
        assert b"nested too deeply" in proc.stderr
        assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, stdin_obj, message",
    [
        (["rank1"], NON_AUTOMORPHISM_DATUM, "endomorphism 1 (even part) is not an automorphism"),
        (["tower"], NON_AUTOMORPHISM_DATUM, "endomorphism 1 (even part) is not an automorphism"),
        (["homog", "--series", "A", "--n", "3", "--k", "3"], None, "need k < n, got k=3, n=3"),
        (["shape", "--series", "B", "--n", "1"], None, "B-series rank must be at least 2, got 1"),
    ],
)
def test_handler_value_error_exits_2(argv, stdin_obj, message):
    # cli.main is the one place a ValueError from any layer becomes exit 2.
    code, out, err = run_cli(argv, stdin_obj)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tower", "missing.json"], "[Errno 2] No such file or directory: {path!r}"),
        (["rank1", ""], "[Errno 21] Is a directory: {path!r}"),
        (["koszul", "missing.json", "--seed", "3"], "--seed applies only with --n"),
    ],
    ids=["missing-file", "directory", "koszul-flag-before-file"],
)
def test_datum_input_error_exits_2(tmp_path, argv, message):
    # A datum command reads its input in its handler, after its flags are checked.
    command, name, *flags = argv
    path = str(tmp_path / name)
    code, out, err = run_cli([command, path, *flags])
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(path=path)}\n"


CHOICES = "(choose from 'rank1', 'tower', 'koszul', 'homog', 'oracle', 'shape')"


@pytest.mark.parametrize(
    "argv, last",
    [
        (
            ["homog", "--series", "E"],
            "pv homog: error: argument --series: invalid choice: 'E' "
            "(choose from 'A', 'B', 'C', 'D')",
        ),
        (
            ["homog", "--n", "3"],
            "pv homog: error: the following arguments are required: --series, --k",
        ),
        (
            ["shape", "--n", "3", "--series", "B", "--w", "2"],
            "pv shape: error: argument --w: not allowed with argument --series",
        ),
        (
            ["koszul", os.path.join(GOLDEN, "koszul_shift_n6_g2.in.json"), "--n", "3"],
            "pv koszul: error: argument --n: not allowed with argument input",
        ),
        (["oracle", "--n", "3", "--bogus"], "pv: error: unrecognized arguments: --bogus"),
        (["oracle", "--n"], "pv oracle: error: argument --n: expected one argument"),
        ([], "pv: error: the following arguments are required: command"),
        (["bogus"], f"pv: error: argument command: invalid choice: 'bogus' {CHOICES}"),
        (
            ["oracle", "--n", "13"],
            "pv oracle: error: argument --n: expected an integer in 1..12, got '13'",
        ),
        (
            ["koszul", "--n", "3", "--seed", "x"],
            "pv koszul: error: argument --seed: invalid int value: 'x'",
        ),
    ],
    ids=[
        "invalid-choice", "missing-required", "shape-exclusive", "koszul-exclusive",
        "unrecognized", "expected-one-argument", "no-subcommand", "unknown-subcommand",
        "out-of-range", "seed-not-int",
    ],
)
def test_usage_error_exits_2(argv, last):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: pv")
    assert err.splitlines()[-1] == last


ORACLE_N = "pv oracle: error: argument --n: expected an integer in 1..12, got"
SEED = "pv koszul: error: argument --seed: invalid int value:"


@pytest.mark.parametrize(
    "argv, last",
    [
        # Integers are ASCII decimal; int() would also take these.
        (["oracle", "--n", "1_0"], f"{ORACLE_N} '1_0'"),
        (["oracle", "--n", " 3"], f"{ORACLE_N} ' 3'"),
        (["oracle", "--n", "3\n"], f"{ORACLE_N} '3\\n'"),
        (["oracle", "--n", "+3"], f"{ORACLE_N} '+3'"),
        (["oracle", "--n", "٣"], f"{ORACLE_N} '٣'"),
        (["oracle", "--n", "３"], f"{ORACLE_N} '３'"),
        (["koszul", "--n", "3", "--seed", "1_000"], f"{SEED} '1_000'"),
        (["koszul", "--n", "3", "--seed", "-٣"], f"{SEED} '-٣'"),
        (["koszul", "--n", "3", "--seed", "--5"],
         "pv koszul: error: argument --seed: expected one argument"),
        # A flag is named exactly, once.
        (["oracle", "--n", "3", "--n", "4"], "pv oracle: error: argument --n: may be given only once"),
        (["oracle", "--n=3", "--n=3"], "pv oracle: error: argument --n: may be given only once"),
        (["shape", "--n", "1", "--dual", "--dual"],
         "pv shape: error: argument --dual: may be given only once"),
        (["tower", "--form", "json"], "pv: error: unrecognized arguments: --form"),
        (["oracle", "--n", "3", "--for", "json"], "pv: error: unrecognized arguments: --for json"),
    ],
)
def test_command_line_forms_rejected(argv, last, capsys):
    from pvtower import cli

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: pv {argv[0]} ")
    assert captured.err.splitlines()[-1] == last


def test_flag_forms_accepted(capsys):
    from pvtower import cli

    outputs = []
    for argv in (
        ["koszul", "--n", "3", "--seed", "-5", "--format", "json"],
        ["koszul", "--seed=-5", "--format=json", "--n=03"],
    ):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["seed"] == -5


def test_help_returns_0_and_names_every_flag(capsys):
    from pvtower import cli

    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in cli._COMMAND_LINE)
    for name, command in cli._COMMAND_LINE.items():
        assert cli.main([name, "-h"]) == cli.main([name, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"usage: pv {name} ")
        assert all(flag.name in captured.out for flag in command.flags)


def test_rank1_rule_stated_once():
    # pv rank1 and pv_rank1 reject a datum with two endomorphisms in the same words.
    from pvtower.koszul import ModuleDatum
    from pvtower.tower import pv_rank1

    message = "datum.n: rank1 needs exactly one endomorphism, got 2"
    assert run_cli(["rank1"], TORUS2_DATUM) == (2, "", f"error: {message}\n")
    with pytest.raises(ValueError) as exc:
        pv_rank1(ModuleDatum.from_json_dict(TORUS2_DATUM["datum"]))
    assert str(exc.value) == message


def test_readme_flag_table_matches_parser():
    from pvtower.cli import _COMMAND_LINE

    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = re.search(r"\| subcommand \| flags \|\n\| --- \| --- \|\n((?:\|.*\n)+)", text).group(1)
    documented = {}
    for row in table.splitlines():
        names, flags = row.strip().strip("|").split("|")
        for name in re.findall(r"`(\w+)`", names):
            documented[name] = set(re.findall(r"`\[?([\w-]+)\]?`", flags))
    assert set(documented) == set(_COMMAND_LINE)
    for name, command in _COMMAND_LINE.items():
        options = {flag.name for flag in command.flags}
        assert documented[name] == options - {"--format"}, name


class TestStartup:
    """What one command loads: the start-up cost every `pv` process pays."""

    def _loaded(self, *args):
        # -X importtime writes one stderr line per module imported, "... | name".
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, check=True, text=True
        )
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank1", os.path.join(GOLDEN, "rank1_rotation.in.json")],
            ["tower", os.path.join(GOLDEN, "tower_torus_n4.in.json")],
            ["koszul", os.path.join(GOLDEN, "koszul_shift_n6_g2.in.json")],
            ["koszul", "--n", "3"],
            ["homog", "--series", "A", "--n", "5", "--k", "3"],
            ["oracle", "--n", "2"],
            ["shape", "--series", "B", "--n", "3"],
        ],
        ids=["rank1", "tower", "koszul-datum", "koszul-n", "homog", "oracle", "shape"],
    )
    def test_no_code_generating_imports(self, argv):
        # The value types are built without dataclasses, which loads inspect,
        # ast and dis: about 10 ms of every pv process.
        loaded = self._loaded("-m", "pvtower.cli", *argv, "--format", "json")
        assert any(name.startswith("pvtower.") for name in loaded)
        assert not {"dataclasses", "inspect"} & loaded
        # The command line is read from cli's own table: argparse, with the
        # gettext it loads, cost about 5 ms of every process.
        assert not {"argparse", "gettext"} & loaded

    def test_oracle_loads_no_snf_layer(self):
        # The cubical oracle reads exterior.contraction_terms only: neither the
        # Smith-normal-form layer nor the Laurent ring.
        loaded = self._loaded("-m", "pvtower.cli", "oracle", "--n", "1", "--format", "json")
        assert {"pvtower.cubical", "pvtower.exterior"} <= loaded
        assert not {"pvtower.abgroup", "pvtower.koszul", "pvtower.ring", "fractions"} & loaded

    def test_homog_loads_no_tower(self):
        # homog writes its spot groups in closed form and sums them with
        # abgroup.split_sum: no Koszul layer, no Laurent ring, no exterior
        # algebra.  Only shape, which lists tower objects, loads tower beside
        # liegroups.
        loaded = self._loaded(
            "-m", "pvtower.cli", "homog", "--series", "A", "--n", "5", "--k", "3"
        )
        assert {"pvtower.liegroups", "pvtower.abgroup"} <= loaded
        assert not {"pvtower.koszul", "pvtower.ring", "pvtower.exterior", "pvtower.tower"} & loaded

    def test_package_import_loads_no_submodule(self):
        loaded = self._loaded("-c", "import pvtower")
        assert "pvtower" in loaded
        assert [m for m in loaded if m.startswith("pvtower.")] == []


SHAPE_JSON = ["shape", "--n", "3", "--w", "2", "--format", "json"]
NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
NO_SPACE = "OSError: [Errno 28] No space left on device"
NOT_AUTOMORPHISM = "endomorphism 1 (even part) is not an automorphism of the quotient group"


class TestProcessExit:
    """How a `pv` process ends: `cli.entry` flushes stdout, then calls os._exit."""

    @pytest.mark.parametrize(
        "redirect, unbuffered, argv, stdin_obj, code, last",
        [
            # A failed flush goes back to sys.exit, whose shutdown flushes
            # again and exits 120 after "Exception ignored in: <stdout>".
            pytest.param(
                "> /dev/full", False, SHAPE_JSON, None, 120, NO_SPACE,
                marks=NEEDS_DEV_FULL, id="full-device-buffered",
            ),
            pytest.param(
                "> /dev/full", True, SHAPE_JSON, None, 1, NO_SPACE,
                marks=NEEDS_DEV_FULL, id="full-device-unbuffered",
            ),
            pytest.param(
                ">&-", False, SHAPE_JSON, None, 1,
                "AttributeError: 'NoneType' object has no attribute 'write'",
                id="closed-stdout",
            ),
            pytest.param(
                "", False, ["rank1", "--strict", os.path.join(GOLDEN, "rank1_torsion.in.json")],
                None, 3, None, id="strict-ambiguous",
            ),
            pytest.param(
                "", False, ["tower"], NON_AUTOMORPHISM_DATUM, 2, f"error: {NOT_AUTOMORPHISM}",
                id="invalid-datum",
            ),
            pytest.param(
                "", False, ["shape", "--n", "0"], None, 2,
                "pv shape: error: argument --n: expected an integer in 1..64, got '0'",
                id="usage-error",
            ),
        ],
    )
    def test_exit_code_and_last_stderr_line(
        self, redirect, unbuffered, argv, stdin_obj, code, last
    ):
        env = dict(os.environ, PYTHONUNBUFFERED="1") if unbuffered else None
        proc = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "pvtower.cli", *argv],
            input=json.dumps(stdin_obj).encode() if stdin_obj else b"",
            capture_output=True,
            env=env,
        )
        assert proc.returncode == code
        assert (proc.stderr.decode().splitlines() or [None])[-1] == last

    def test_large_output_is_written_whole(self, tmp_path):
        # shape at its caps writes more than one 8 kB buffer before os._exit.
        argv = [sys.executable, "-m", "pvtower.cli", "shape", "--n", "64", "--w", "1000000",
                "--format", "json"]
        piped = subprocess.run(argv, capture_output=True, check=True).stdout
        assert len(piped) == 12_815
        assert piped.endswith(b"}\n")
        path = tmp_path / "shape.json"
        with open(path, "wb") as fh:
            subprocess.run(argv, stdout=fh, check=True)
        assert path.read_bytes() == piped
        pv = subprocess.Popen(argv, stdout=subprocess.PIPE)
        head = subprocess.Popen(["head", "-c", "1"], stdin=pv.stdout, stdout=subprocess.PIPE)
        pv.stdout.close()
        assert head.communicate(timeout=60)[0] == b"{"
        assert pv.wait(timeout=60) == 0

    def test_successful_process_runs_no_atexit_handler(self):
        script = (
            "import atexit, os, runpy, sys\n"
            "atexit.register(os.write, 2, b'atexit handler ran\\n')\n"
            f"sys.argv = ['pv', *{SHAPE_JSON!r}]\n"
            "runpy.run_module('pvtower.cli', run_name='__main__')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        with open(os.path.join(GOLDEN, "shape_n3_w2.out.json"), "rb") as fh:
            assert proc.stdout == fh.read()

    def test_installed_script_runs_the_main_block_entry(self):
        # The installed `pv` and `python -m pvtower.cli` must end the same way.
        tomllib = pytest.importorskip("tomllib")
        from pvtower import cli

        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["pv"]
        module, _, func = target.partition(":")
        assert module == cli.__name__
        with open(cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        (block,) = [
            node
            for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        called = {
            node.func.id
            for node in ast.walk(block)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert called == {func}
        assert callable(getattr(cli, func))


class TestTowerCommand:
    def test_round_trip_schema(self):
        code, out, _ = run_cli(["tower", "--format", "json"], TORUS2_DATUM)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["schema"] == 1
        assert parsed["final"] == {"even": "Z^2", "odd": "Z^2"}
        assert parsed["euler"] == 0
        assert parsed["reasons"] == []
        assert parsed["levels"][0]["level"] == 1
        assert set(parsed["levels"][0]) == {
            "level",
            "group",
            "ambiguous",
            "reasons",
            "kernel_module_rank",
            "kernel_suspension",
        }
        for entry in parsed["cohomology"]:
            assert set(entry) == {"spot", "even", "odd"}

    def test_readme_input_schema_example_runs(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        block = re.search(r"### Input schema.*?```json\n(.*?)```", text, re.S).group(1)
        code, out, err = run_cli(["tower", "--format", "json"], json.loads(block))
        assert code == 0, err
        assert json.loads(out)["n"] == 2

    def test_determinism(self):
        runs = [run_cli(["tower", "--format", "json"], TORUS2_DATUM) for _ in range(2)]
        assert runs[0] == runs[1]


class TestOtherCommands:
    def test_homog_closed_form(self):
        code, out, _ = run_cli(
            ["homog", "--series", "A", "--n", "2", "--k", "1", "--format", "json"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["even"] == "Z"
        assert parsed["odd"] == "Z"
        assert parsed["witnessed"] is True

    def test_homog_requires_flags(self):
        code, _, err = run_cli(["homog", "--series", "A", "--n", "2"])
        assert code == 2
        assert "--k" in err

    def test_homog_invalid_pair(self):
        code, _, err = run_cli(
            ["homog", "--series", "B", "--n", "3", "--k", "1"]
        )
        assert code == 2

    def test_oracle(self):
        code, out, _ = run_cli(["oracle", "--n", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_koszul_symbolic_report(self):
        code, out, _ = run_cli(
            ["koszul", "--n", "3", "--format", "json", "--trials", "4", "--seed", "7"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["augmentation_onto_Z"] is True
        assert all(s["consistent"] for s in parsed["spots"])

    def test_koszul_datum_cohomology(self):
        code, out, _ = run_cli(["koszul", "--format", "json"], TORUS2_DATUM)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["cohomology"][0] == {"spot": 0, "even": "Z", "odd": "0"}
        assert parsed["cohomology"][1]["even"] == "Z^2"

    def test_shape_series_weyl(self):
        code, out, _ = run_cli(
            ["shape", "--series", "A", "--n", "2", "--format", "json"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["w"] == 6
        mults = [
            o["multiplicity"]
            for o in parsed["objects"]
            if o["kind"] == "trivial-coefficient"
        ]
        assert mults == [6, 12, 6]

    def test_shape_dual_triangle(self):
        code, out, _ = run_cli(
            ["shape", "--n", "1", "--w", "2", "--dual", "--format", "json"]
        )
        assert code == 0
        parsed = json.loads(out)
        labels = [o["label"] for o in parsed["objects"]]
        assert labels == ["C^2 (x) t(A)", "S^1 C^2 (x) t(A)", "A >< Ghat"]


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_color_env_never_is_plain(monkeypatch):
    # On a terminal `auto` colours, so only PV_COLOR=never can make this plain.
    from pvtower import cli

    monkeypatch.setattr(sys, "stdout", _Terminal())
    monkeypatch.setenv("PV_COLOR", "never")
    assert (cli._mark(True), cli._mark(False)) == ("ok", "AMBIGUOUS")


def test_color_auto_on_a_terminal(monkeypatch):
    from pvtower import cli

    monkeypatch.setattr(sys, "stdout", _Terminal())
    monkeypatch.delenv("PV_COLOR", raising=False)
    assert (cli._mark(True), cli._mark(False)) == (
        "\x1b[32mok\x1b[0m",
        "\x1b[33mAMBIGUOUS\x1b[0m",
    )


def test_out_of_memory_exits_2(monkeypatch, capsys):
    from pvtower import cli, cubical

    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(cubical, "oracle_compare", exhausted)
    assert cli.main(["oracle", "--n", "3", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: out of memory" in captured.err
