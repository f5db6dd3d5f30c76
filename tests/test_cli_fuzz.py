"""Fuzzing ``cli.main``: every small command line exits 0, 2 or 3, never with a traceback.

Arguments are drawn per subcommand from its own flags, the flags of the
others and out-of-range values; datum payloads (n <= 3, group ranks
<= 3) are mostly well formed, with single fields replaced by junk.
"""

import contextlib
import io
import json
import sys

import hypothesis.strategies as st
from hypothesis import given, settings

from pvtower import cli

COMMANDS = ("rank1", "tower", "koszul", "homog", "oracle", "shape")

SMALL = st.integers(-1, 3).map(str) | st.sampled_from(["x", "", "1.5", "99"])
FLAGS = st.one_of(
    st.tuples(st.sampled_from(["--n", "--k", "--w", "--trials", "--seed"]), SMALL),
    st.tuples(st.just("--series"), st.sampled_from(["A", "B", "C", "D", "E"])),
    st.tuples(st.just("--format"), st.sampled_from(["json", "text", "yaml"])),
    st.sampled_from(["--strict", "--dual", "--help"]).map(lambda flag: (flag,)),
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _square(size):
    row = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    return st.just(identity) | st.lists(row, min_size=size, max_size=size)


@st.composite
def datum_payloads(draw):
    n = draw(st.integers(0, 3))
    ranks = {p: draw(st.integers(0, 3)) for p in ("even", "odd")}
    datum = {
        "n": n,
        **{
            p: {
                "free_rank": g,
                "relations": draw(
                    st.lists(st.lists(st.integers(-4, 4), min_size=g, max_size=g), max_size=2)
                ),
            }
            for p, g in ranks.items()
        },
        "endos": [{p: draw(_square(g)) for p, g in ranks.items()} for _ in range(n)],
    }
    doc = {"schema": 1, "datum": datum}
    # Replace one field, at any depth, by junk.
    if draw(st.booleans()):
        target = draw(st.sampled_from([doc, datum, datum["even"], datum["odd"]]))
        key = draw(st.sampled_from(sorted(target) + ["bogus"]))
        target[key] = draw(JUNK)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]  # truncated JSON
    return text.encode()


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    for flag in draw(st.lists(FLAGS, max_size=4)):
        argv.extend(flag)
    return argv, draw(datum_payloads())


def _main(argv, payload):
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(payload))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejecting the command line, or --help
                return exc.code
    finally:
        sys.stdin = saved


@settings(max_examples=150)
@given(invocations())
def test_main_exits_with_a_documented_code(invocation):
    argv, payload = invocation
    assert _main(argv, payload) in (0, 2, 3)


@settings(max_examples=100)
@given(datum_payloads(), st.sampled_from(["rank1", "tower", "koszul"]), st.booleans())
def test_datum_commands_exit_with_a_documented_code(payload, command, strict):
    argv = [command, "--format", "json"] + (["--strict"] if strict and command != "koszul" else [])
    assert _main(argv, payload) in (0, 2, 3)
