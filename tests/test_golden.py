"""Golden corpus: fixed CLI invocations whose output must stay byte-identical.

Each case runs in both formats, and each of those twice: through
``cli.main`` in-process, and as a ``python -m pvtower.cli`` process, the
path the benchmark times.  A case named NAME reads stdin from
``golden/NAME.in.json`` when that file exists and compares stdout with
``golden/NAME.out.json`` (``--format json``) and ``golden/NAME.out.txt``
(text, the default).  After a change that is meant to alter outputs,
rewrite the expected files with
``PYTHONPATH=src python tests/test_golden.py --write`` and explain the
difference in CHANGES.md.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from pvtower import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# Output file suffix -> the flags that select that format.
FORMATS = {"json": ("--format", "json"), "txt": ()}

CASES = {
    # README examples.
    "rank1_rotation": ("rank1",),
    "koszul_regular_n3": ("koszul", "--n", "3", "--trials", "8", "--seed", "0"),
    "homog_A_2_1": ("homog", "--series", "A", "--n", "2", "--k", "1"),
    "oracle_n4": ("oracle", "--n", "4"),
    "shape_B_3": ("shape", "--series", "B", "--n", "3"),
    "shape_n2_w2_dual": ("shape", "--n", "2", "--w", "2", "--dual"),
    # Datum commands: torsion, signed shifts with a Z/2 or Z/3 parity, the
    # trivial torus action, and powers of a dense unimodular matrix.
    "rank1_torsion": ("rank1",),
    "rank1_dense_g16": ("rank1",),
    "tower_shift_n6_g3": ("tower",),
    "tower_torus_n4": ("tower",),
    "tower_dense_n2_g14": ("tower",),
    "koszul_shift_n6_g2": ("koszul",),
    # (Z/2)^2 with lifts that commute only modulo the relations, flagged at
    # spots 1 and 2; and the cat map alternating with its inverse, where
    # every group vanishes.
    "tower_noncommuting_mod2": ("tower",),
    "tower_acyclic_n8": ("tower",),
    # Symbolic commands.
    "homog_A_5_3": ("homog", "--series", "A", "--n", "5", "--k", "3", "--seed", "4"),
    "homog_C_4_3": ("homog", "--series", "C", "--n", "4", "--k", "3", "--seed", "2"),
    "koszul_regular_n4": ("koszul", "--n", "4", "--seed", "3"),
    "oracle_n5": ("oracle", "--n", "5"),
    "shape_n3_w2": ("shape", "--n", "3", "--w", "2"),
    # The largest rank-witness runs: koszul at its --n cap, homog C at k = 6.
    "koszul_regular_n8": ("koszul", "--n", "8", "--seed", "5"),
    "homog_C_8_6": ("homog", "--series", "C", "--n", "8", "--k", "6", "--seed", "4387"),
}


def read_input(name: str) -> bytes:
    path = os.path.join(GOLDEN, f"{name}.in.json")
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def run_case(name: str, fmt: str = "json") -> tuple[int, str]:
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(read_input(name)))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([*CASES[name], *FORMATS[fmt]])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def run_process(name: str, fmt: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pvtower.cli", *CASES[name], *FORMATS[fmt], *extra],
        input=read_input(name),
        capture_output=True,
    )


def expected_path(name: str, fmt: str = "json") -> str:
    return os.path.join(GOLDEN, f"{name}.out.{fmt}")


def expected(name: str, fmt: str) -> bytes:
    with open(expected_path(name, fmt), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run_case(name)
    assert code == 0
    assert out.encode() == expected(name, "json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_as_process(name):
    proc = run_process(name, "json")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == expected(name, "json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_text(name):
    code, out = run_case(name, "txt")
    assert code == 0
    assert out.encode() == expected(name, "txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_text_as_process(name):
    proc = run_process(name, "txt")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == expected(name, "txt")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_strict_tower_flagged_exits_3(fmt):
    # tower_noncommuting_mod2 is flagged at spots 1 and 2: --strict changes
    # the exit code and nothing else.
    proc = run_process("tower_noncommuting_mod2", fmt, "--strict")
    assert (proc.returncode, proc.stderr) == (3, b"")
    assert proc.stdout == expected("tower_noncommuting_mod2", fmt)


def test_strict_tower_unflagged_exits_0():
    proc = run_process("tower_torus_n4", "json", "--strict")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected("tower_torus_n4", "json")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for name in sorted(CASES):
        for fmt in FORMATS:
            code, out = run_case(name, fmt)
            if code != 0:
                sys.exit(f"{name}: exit {code}")
            with open(expected_path(name, fmt), "w", encoding="utf-8") as fh:
                fh.write(out)
            print(f"wrote {expected_path(name, fmt)}")
