"""Command-line front end.

Subcommands: rank1, tower, koszul (datum or symbolic), homog, oracle,
shape.  Datum-consuming commands read JSON shaped as
``{"schema": 1, "datum": {...}}`` from a file or stdin.  Each reads its
input in its handler, after checking its flags, so ``koszul --n`` and a
rejected command line read nothing.  Output is text or JSON
(``--format``); JSON outputs carry a top-level ``"schema": 1`` and are
byte-identical across runs for fixed inputs.  Unknown input fields are
rejected, never ignored.

The command line is read against one table, ``_COMMAND_LINE``, with a row
per subcommand; ``--help`` is printed from it.  A flag is matched by its
exact name, as ``--flag value`` or ``--flag=value``, and may be given once;
an integer is ASCII decimal, with a leading ``-`` only for ``--seed``.
Parsing imports nothing; importing ``argparse`` (with ``gettext``) and
building its parsers cost about 5 ms of every process.

Exit codes: 0 success (``--help`` included), 2 a bad command line or an
input validation failure (running out of memory included), 3 ambiguity
flag raised under ``--strict``.

A ``pv`` process, installed or run as ``python -m pvtower.cli``, goes
through :func:`entry`: it flushes stdout and stderr and ends with
``os._exit``.  Past that point CPython's shutdown would only tear down
modules and run garbage-collector passes over objects the operating system
frees anyway.  Skipping it saved 6-13 ms of every 45-126 ms process
(2-CPU x86-64 Linux, bytecode cached).  In-process callers use
:func:`main`, which returns the code.
"""

import json
import os
import sys
from types import SimpleNamespace

# Each handler imports its own solver when it runs, so a command loads only
# the layers it uses: `oracle` and `shape` never import the Smith-normal-form
# layer.

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_AMBIGUOUS = 3

_SERIES = ("A", "B", "C", "D")

# Ranges of the size flags.  As `pv` processes on a 2-CPU machine
# `koszul --n 8 --trials 64` took 0.2 s and `oracle --n 12` 0.15 s (about
# 2x more per rank); `homog --n 64` keeps every binomial count below 2^63;
# `homog --k` keeps the 1..8 range of `koszul --n` until homog has a measured
# cost of its own; at its caps `shape` writes under 30 kB of JSON.
_TRIALS = range(1, 65)
_WITNESS_RANK = range(1, 9)
_HOMOG_N = range(1, 65)
_ORACLE_N = range(1, 13)
_SHAPE_N = range(1, 65)
_SHAPE_W = range(1, 10**6 + 1)


class InputError(ValueError):
    """Invalid command-line input; like every ValueError, maps to exit code 2."""


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"input: duplicate field {key!r}")
        obj[key] = value
    return obj


def _load_datum(args: SimpleNamespace):
    """The datum in the file ``args.input``, or on stdin when no path is given."""
    from .koszul import ModuleDatum

    try:
        if args.input:
            with open(args.input, "rb") as fh:
                payload = fh.read()
        else:
            payload = sys.stdin.buffer.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    try:
        obj = json.loads(payload.decode("utf-8"), object_pairs_hook=_unique_fields)
    except InputError:
        raise
    except ValueError as exc:  # undecodable bytes, bad syntax, over-long integers
        raise InputError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise InputError("input: JSON nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise InputError("input: expected a JSON object")
    unknown = set(obj) - {"schema", "datum"}
    if unknown:
        raise InputError(f"input: unknown field {sorted(unknown)[0]!r}")
    if obj.get("schema") != SCHEMA_VERSION:
        raise InputError(f"input.schema: expected {SCHEMA_VERSION}")
    if "datum" not in obj or not isinstance(obj["datum"], dict):
        raise InputError("input.datum: missing or not an object")
    return ModuleDatum.from_json_dict(obj["datum"])


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _use_color() -> bool:
    mode = os.environ.get("PV_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _mark(ok: bool) -> str:
    text = "ok" if ok else "AMBIGUOUS"
    if _use_color():
        code = "32" if ok else "33"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


# ---------------------------------------------------------------------------
# Command implementations: each returns (exit_code, output_text)
# ---------------------------------------------------------------------------


def _cmd_rank1(args: SimpleNamespace) -> tuple[int, str]:
    from .tower import pv_rank1

    result = pv_rank1(_load_datum(args))
    if args.format == "json":
        out = _dump(
            {
                "schema": SCHEMA_VERSION,
                "K0": str(result.group.even),
                "K1": str(result.group.odd),
                "ambiguous": result.ambiguous,
                "reasons": list(result.reasons),
            }
        )
    else:
        lines = [
            f"K0 = {result.group.even}",
            f"K1 = {result.group.odd}",
            f"extensions: {_mark(not result.ambiguous)}",
        ]
        lines += [f"  {r}" for r in result.reasons]
        out = "\n".join(lines) + "\n"
    code = EXIT_AMBIGUOUS if (args.strict and result.ambiguous) else EXIT_OK
    return code, out


def _cmd_tower(args: SimpleNamespace) -> tuple[int, str]:
    from .tower import euler_characteristic, pv_tower

    datum = _load_datum(args)
    report = pv_tower(datum)
    euler = euler_characteristic(list(report.cohomology))
    if args.format == "json":
        body = report.to_json_dict()
        body["schema"] = SCHEMA_VERSION
        body["euler"] = euler
        out = _dump(body)
    else:
        lines = [f"rank n = {report.n}", f"final = {report.final}"]
        for lvl in report.levels:
            lines.append(
                f"level {lvl.level}: {lvl.group}  [{_mark(not lvl.ambiguous)}]"
            )
        lines.append(f"euler characteristic = {euler}")
        lines.append(f"extensions: {_mark(not report.ambiguous)}")
        lines += [f"  {r}" for r in report.reasons]
        out = "\n".join(lines) + "\n"
    code = EXIT_AMBIGUOUS if (args.strict and report.ambiguous) else EXIT_OK
    return code, out


def _cmd_koszul(args: SimpleNamespace) -> tuple[int, str]:
    from .exterior import Covector
    from .koszul import (
        build_symbolic,
        datum_cohomology,
        endpoint_augmentation_surjective,
        generic_rank_exactness,
    )

    if args.n is not None:
        # Symbolic regularity report for the covector (1 - t_1, ..., 1 - t_n).
        trials = 8 if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        cx = build_symbolic(Covector.standard(args.n))
        report = generic_rank_exactness(cx, trials=trials, seed=seed)
        aug = endpoint_augmentation_surjective(cx)
        if args.format == "json":
            out = _dump(
                {
                    "schema": SCHEMA_VERSION,
                    "n": args.n,
                    "trials": trials,
                    "seed": seed,
                    "spots": [
                        {
                            "spot": s.spot,
                            "module_rank": s.module_rank,
                            "observed_rank": s.observed_rank,
                            "consistent": s.consistent,
                        }
                        for s in report.spots
                    ],
                    "augmentation_onto_Z": aug,
                }
            )
        else:
            lines = [f"regular covector, rank {args.n}"]
            for s in report.spots:
                lines.append(
                    f"spot {s.spot}: module rank {s.module_rank}, observed rank "
                    f"{s.observed_rank}, consistent={s.consistent}"
                )
            lines.append(f"endpoint augmentation onto Z: {aug}")
            out = "\n".join(lines) + "\n"
        return EXIT_OK, out

    from .tower import euler_characteristic

    for flag in ("seed", "trials"):
        if getattr(args, flag) is not None:
            raise InputError(f"--{flag} applies only with --n")
    datum = _load_datum(args)
    groups = datum_cohomology(datum)
    euler = euler_characteristic(groups)
    if args.format == "json":
        out = _dump(
            {
                "schema": SCHEMA_VERSION,
                "n": datum.n,
                "cohomology": [
                    {"spot": d, **g.to_dict()} for d, g in enumerate(groups)
                ],
                "euler": euler,
            }
        )
    else:
        lines = [f"rank n = {datum.n}"]
        for d, g in enumerate(groups):
            lines.append(f"H at spot {d}: {g}")
        lines.append(f"euler characteristic = {euler}")
        out = "\n".join(lines) + "\n"
    return EXIT_OK, out


def _cmd_homog(args: SimpleNamespace) -> tuple[int, str]:
    from .liegroups import SeriesSpec, homogeneous_ktheory

    big = SeriesSpec(args.series, args.n)
    small = SeriesSpec(args.series, args.k)
    result = homogeneous_ktheory(big, small)
    if args.format == "json":
        out = _dump(
            {
                "schema": SCHEMA_VERSION,
                "series": args.series,
                "n": args.n,
                "k": args.k,
                "even": str(result.group.even),
                "odd": str(result.group.odd),
                "spot_ranks": list(result.spot_ranks),
                # Schema-1 key: the regular part is exact by theorem.
                "witnessed": True,
            }
        )
    else:
        lines = [
            f"K-theory of {big}/{small}:",
            f"  even = {result.group.even}",
            f"  odd  = {result.group.odd}",
            f"  nonzero spot ranks: {list(result.nonzero_ranks)}",
        ]
        out = "\n".join(lines) + "\n"
    return EXIT_OK, out


def _cmd_oracle(args: SimpleNamespace) -> tuple[int, str]:
    from .cubical import oracle_compare

    match = oracle_compare(args.n)
    if args.format == "json":
        out = _dump({"schema": SCHEMA_VERSION, "n": args.n, "match": match})
    else:
        out = f"cubical cochain matrices match contraction for n={args.n}: {match}\n"
    return EXIT_OK, out


def _cmd_shape(args: SimpleNamespace) -> tuple[int, str]:
    from .liegroups import SeriesSpec, weyl_order
    from .tower import tower_shape

    if args.w is not None:
        w = args.w
    elif args.series is not None:
        w = weyl_order(SeriesSpec(args.series, args.n))
    else:
        w = 1
    shape = tower_shape(args.n, w, dual=args.dual)
    if args.format == "json":
        body = shape.to_json_dict()
        body["schema"] = SCHEMA_VERSION
        out = _dump(body)
    else:
        lines = [f"tower shape: n={shape.n}, w={shape.w}, dual={shape.dual}"]
        for obj in shape.objects:
            lines.append(
                f"  [{obj.kind}] suspension {obj.suspension}, multiplicity "
                f"{obj.multiplicity}: {obj.label}"
            )
        out = "\n".join(lines) + "\n"
    return EXIT_OK, out


# ---------------------------------------------------------------------------
# The command line: one row per subcommand
# ---------------------------------------------------------------------------


class _Flag:
    """One argument of a subcommand: ``input`` (the optional datum path) or a flag.

    ``kind`` is a ``range`` of integers, a tuple of choices, ``int`` for any
    integer, ``bool`` for a switch or ``str`` for the path.  ``excludes`` names
    the argument that may not be given together with this one; each of the
    two names the other.
    """

    __slots__ = ("name", "kind", "help", "required", "excludes")

    def __init__(self, name: str, kind, help: str = "", required: bool = False,
                 excludes: str | None = None):
        self.name, self.kind, self.help = name, kind, help
        self.required, self.excludes = required, excludes


class _Command:
    """One subcommand: the handler that runs it, its help line and its arguments."""

    __slots__ = ("handler", "help", "flags")

    def __init__(self, handler, help: str, flags: tuple[_Flag, ...]):
        self.handler, self.help, self.flags = handler, help, flags


_INPUT = _Flag("input", str, "input JSON path (default: stdin)")
_STRICT = _Flag("--strict", bool, "exit 3 on ambiguity flags")
_FORMAT = _Flag("--format", ("text", "json"), "output format (default text)")

_COMMAND_LINE = {
    "rank1": _Command(
        _cmd_rank1, "crossed-product K-theory for a single automorphism", (_INPUT, _STRICT, _FORMAT)
    ),
    "tower": _Command(
        _cmd_tower, "full tower: level groups and final K-theory", (_INPUT, _STRICT, _FORMAT)
    ),
    "koszul": _Command(
        _cmd_koszul,
        "Koszul cohomology of a datum, or regularity report via --n",
        (
            _Flag("input", str, "input JSON path (default: stdin)", excludes="--n"),
            _Flag("--n", _WITNESS_RANK, "rank of the covector (1 - t_1, ..., 1 - t_n)",
                  excludes="input"),
            # Defaults 8 and 0 are filled in with --n; a datum rejects both flags.
            _Flag("--seed", int, "witness seed (default 0; only with --n)"),
            _Flag("--trials", _TRIALS, "witness trials (default 8; only with --n)"),
            _FORMAT,
        ),
    ),
    "homog": _Command(
        _cmd_homog,
        "K-theory of a classical homogeneous space",
        (
            _Flag("--series", _SERIES, required=True),
            _Flag("--n", _HOMOG_N, required=True),
            _Flag("--k", _WITNESS_RANK, required=True),
            _Flag("--seed", int, "has no effect; still accepted"),
            _FORMAT,
        ),
    ),
    "oracle": _Command(
        _cmd_oracle,
        "compare cubical cochain matrices with contraction",
        (_Flag("--n", _ORACLE_N, required=True), _FORMAT),
    ),
    "shape": _Command(
        _cmd_shape,
        "structural tower diagram data",
        (
            _Flag("--n", _SHAPE_N, required=True),
            _Flag("--series", _SERIES, excludes="--w"),
            _Flag("--w", _SHAPE_W, "Weyl multiplicity", excludes="--series"),
            _Flag("--dual", bool, "dual tower labels"),
            _FORMAT,
        ),
    ),
}


def run(args: SimpleNamespace) -> tuple[int, str]:
    """Execute one parsed command; returns (exit code, output text)."""
    return _COMMAND_LINE[args.command].handler(args)


class _UsageError(Exception):
    """A bad command line: exit 2 below the usage of ``command`` (None: of pv)."""

    def __init__(self, command: str | None, message: str, prog: str | None = None):
        super().__init__(message)
        self.command = command
        self.prog = prog or ("pv" if command is None else f"pv {command}")


def _synopsis(flag: _Flag) -> str:
    kind = flag.kind
    if kind is str or kind is bool:
        return flag.name
    if kind is int:
        return f"{flag.name} INT"
    if isinstance(kind, range):
        return f"{flag.name} {kind.start}..{kind[-1]}"
    return f"{flag.name} {{{','.join(kind)}}}"


def _usage(name: str | None) -> str:
    if name is None:
        return f"usage: pv {{{','.join(_COMMAND_LINE)}}} ..."
    parts = [
        _synopsis(f) if f.required else f"[{_synopsis(f)}]" for f in _COMMAND_LINE[name].flags
    ]
    return " ".join([f"usage: pv {name}", *parts])


def _help(name: str | None) -> str:
    if name is None:
        text = "Exact K-theory of crossed products via Koszul complexes and Pimsner-Voiculescu towers."
        rows = [(cmd, c.help) for cmd, c in _COMMAND_LINE.items()]
    else:
        command = _COMMAND_LINE[name]
        text = command.help
        rows = []
        for f in command.flags:
            notes = [f.help] if f.help else []
            if f.required:
                notes.append("required")
            if f.excludes:
                notes.append(f"not with {f.excludes}")
            rows.append((_synopsis(f), "; ".join(notes)))
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    lines = [_usage(name), "", text, ""] + [f"  {left:<{width}}{right}" for left, right in rows]
    return "\n".join(lines) + "\n"


def _is_flag(token: str) -> bool:
    """Whether ``token`` names a flag; as in argparse, "-" and negative numbers do not."""
    if token[:1] != "-" or token == "-":
        return False
    whole, dot, fraction = token[1:].partition(".")
    if dot:  # -.5 and -1.5 are numbers, -1. is not
        return not ((whole == "" or whole.isdecimal()) and fraction.isdecimal())
    return not whole.isdecimal()


def _value(flag: _Flag, text: str):
    """The value of one argument; integers are ASCII decimal, signed only for ``int``."""
    kind = flag.kind
    if kind is str:
        return text
    if kind is bool:
        return True
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
        return text
    digits = text[1:] if kind is int and text[:1] == "-" else text
    value = None
    if digits.isascii() and digits.isdigit():
        try:
            value = int(text)
        except ValueError:  # past Python's 4300-digit conversion limit
            pass
    if kind is int:
        if value is None:
            raise ValueError(f"invalid int value: {text!r}")
    elif value is None or value not in kind:
        raise ValueError(f"expected an integer in {kind.start}..{kind[-1]}, got {text!r}")
    return value


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Read ``argv`` against :data:`_COMMAND_LINE`; None once ``--help`` is printed.

    Flags are matched by their exact names, as ``--flag value`` or
    ``--flag=value``, and each may be given once.  After ``--`` every token
    is the input path.
    """
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    name, *tokens = argv
    if name in ("-h", "--help"):
        sys.stdout.write(_help(None))
        return None
    if name not in _COMMAND_LINE:
        choices = ", ".join(map(repr, _COMMAND_LINE))
        raise _UsageError(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    flags = {f.name: f for f in _COMMAND_LINE[name].flags}
    given: dict[str, object] = {}
    unknown: list[str] = []
    tokens = iter(tokens)
    positional_only = False
    for token in tokens:
        if token == "--" and not positional_only:
            positional_only = True
            continue
        if positional_only or not _is_flag(token):
            flag, text = flags.get("input"), token
            if flag is None or "input" in given:
                unknown.append(token)
                continue
        else:
            option, eq, text = token.partition("=")
            if option in ("-h", "--help") and not eq:
                sys.stdout.write(_help(name))
                return None
            flag = flags.get(option)
            if flag is None:
                unknown.append(token)
                continue
            if flag.kind is bool and eq:
                raise _UsageError(name, f"argument {option}: ignored explicit argument {text!r}")
            if flag.kind is not bool and not eq:
                text = next(tokens, None)
                if text is None or _is_flag(text):
                    raise _UsageError(name, f"argument {option}: expected one argument")
        try:
            value = _value(flag, text)
        except ValueError as exc:
            raise _UsageError(name, f"argument {flag.name}: {exc}") from None
        if flag.name in given:
            raise _UsageError(name, f"argument {flag.name}: may be given only once")
        if flag.excludes in given:
            raise _UsageError(
                name, f"argument {flag.name}: not allowed with argument {flag.excludes}"
            )
        given[flag.name] = value
    missing = [f.name for f in flags.values() if f.required and f.name not in given]
    if missing:
        raise _UsageError(name, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(name, f"unrecognized arguments: {' '.join(unknown)}", prog="pv")
    return SimpleNamespace(
        command=name,
        **{
            f.name.lstrip("-"): given.get(f.name, False if f.kind is bool else None)
            for f in flags.values()
        },
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(_usage(exc.command), f"{exc.prog}: error: {exc}", sep="\n", file=sys.stderr)
        return EXIT_INVALID
    if args is None:  # --help was printed
        return EXIT_OK
    try:
        code, output = run(args)
    except ValueError as exc:  # InputError, DatumError and every solver's input check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(output)
    return code


def entry() -> int:
    """Run :func:`main` as a process and end it with ``os._exit``.

    ``os._exit`` also skips ``atexit`` handlers.  If a flush fails, the code
    is returned for ``sys.exit``, whose shutdown flushes again and reports
    the error as Python always does.  Usage errors and ``--help`` return
    their codes from :func:`main` like any other outcome; only a traceback
    ends the process through Python's own exit.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
