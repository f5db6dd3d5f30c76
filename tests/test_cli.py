"""CLI behaviour: outputs, schemas, exit codes, determinism."""

import argparse
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
    from pvtower.cli import build_parser

    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = re.search(r"\| subcommand \| flags \|\n\| --- \| --- \|\n((?:\|.*\n)+)", text).group(1)
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    documented = {}
    for row in table.splitlines():
        names, flags = row.strip().strip("|").split("|")
        for name in re.findall(r"`(\w+)`", names):
            documented[name] = set(re.findall(r"`\[?([\w-]+)\]?`", flags))
    assert set(documented) == set(subparsers)
    for name, sub in subparsers.items():
        options = {
            option
            for action in sub._actions
            for option in action.option_strings or [action.metavar or action.dest]
        }
        assert documented[name] == options - {"-h", "--help", "--format"}, name


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

    def test_oracle_loads_no_snf_layer(self):
        loaded = self._loaded("-m", "pvtower.cli", "oracle", "--n", "1", "--format", "json")
        assert {"pvtower.cubical", "pvtower.ring"} <= loaded
        assert not {"pvtower.abgroup", "pvtower.koszul", "fractions"} & loaded

    def test_package_import_loads_no_submodule(self):
        loaded = self._loaded("-c", "import pvtower")
        assert "pvtower" in loaded
        assert [m for m in loaded if m.startswith("pvtower.")] == []


class TestTowerCommand:
    def test_round_trip_schema(self):
        code, out, _ = run_cli(["tower", "--format", "json"], TORUS2_DATUM)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["schema"] == 1
        assert parsed["final"] == {"even": "Z^2", "odd": "Z^2"}
        assert parsed["euler"] == 0
        assert parsed["levels"][0]["level"] == 1
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
