"""Command-line front end.

Subcommands: rank1, tower, koszul (datum or symbolic), homog, oracle,
shape.  Datum-consuming commands read JSON shaped as
``{"schema": 1, "datum": {...}}`` from stdin or a file.  Output is text
or JSON (``--format``); JSON outputs carry a top-level ``"schema": 1``
and are byte-identical across runs for fixed inputs.  Unknown input
fields are rejected, never ignored.

Exit codes: 0 success, 2 input validation failure (running out of
memory included), 3 ambiguity flag raised under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Each handler imports its own solver when it runs, so a command loads only
# the layers it uses: `oracle` and `shape` never import the Smith-normal-form
# layer.

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_AMBIGUOUS = 3

_SERIES = ("A", "B", "C", "D")

# Inclusive ranges of the size flags.  As `pv` processes on a 2-CPU machine
# `koszul --n 8 --trials 64` took 0.2 s and `oracle --n 12` 0.5 s (about 2x
# more per rank); `homog --n 64` keeps every binomial count below 2^63;
# `homog --k` keeps the 1..8 range of `koszul --n` until homog has a measured
# cost of its own; at its caps `shape` writes under 30 kB of JSON.
_TRIALS = (1, 64)
_WITNESS_RANK = (1, 8)
_HOMOG_N = (1, 64)
_ORACLE_N = (1, 12)
_SHAPE_N = (1, 64)
_SHAPE_W = (1, 10**6)


class InputError(ValueError):
    """Invalid command-line input; like every ValueError, maps to exit code 2."""


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"input: duplicate field {key!r}")
        obj[key] = value
    return obj


def _load_datum(payload: bytes):
    from .koszul import ModuleDatum

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


def _cmd_rank1(args: argparse.Namespace, payload: bytes) -> tuple[int, str]:
    from .tower import pv_rank1

    result = pv_rank1(_load_datum(payload))
    if args.output_format == "json":
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


def _cmd_tower(args: argparse.Namespace, payload: bytes) -> tuple[int, str]:
    from .tower import euler_characteristic, pv_tower

    datum = _load_datum(payload)
    report = pv_tower(datum)
    euler = euler_characteristic(list(report.cohomology))
    if args.output_format == "json":
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


def _cmd_koszul(args: argparse.Namespace, payload: bytes) -> tuple[int, str]:
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
        if args.output_format == "json":
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
    datum = _load_datum(payload)
    groups = datum_cohomology(datum)
    euler = euler_characteristic(groups)
    if args.output_format == "json":
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


def _cmd_homog(args: argparse.Namespace, payload: bytes) -> tuple[int, str]:
    from .liegroups import SeriesSpec, homogeneous_ktheory

    big = SeriesSpec(args.series, args.n)
    small = SeriesSpec(args.series, args.k)
    result = homogeneous_ktheory(big, small)
    if args.output_format == "json":
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


def _cmd_oracle(args: argparse.Namespace, payload: bytes) -> tuple[int, str]:
    from .cubical import oracle_compare

    match = oracle_compare(args.n)
    if args.output_format == "json":
        out = _dump({"schema": SCHEMA_VERSION, "n": args.n, "match": match})
    else:
        out = f"cubical cochain matrices match contraction for n={args.n}: {match}\n"
    return EXIT_OK, out


def _cmd_shape(args: argparse.Namespace, payload: bytes) -> tuple[int, str]:
    from .liegroups import SeriesSpec, weyl_order
    from .tower import tower_shape

    if args.w is not None:
        w = args.w
    elif args.series is not None:
        w = weyl_order(SeriesSpec(args.series, args.n))
    else:
        w = 1
    shape = tower_shape(args.n, w, dual=args.dual)
    if args.output_format == "json":
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


_COMMANDS = {
    "rank1": _cmd_rank1,
    "tower": _cmd_tower,
    "koszul": _cmd_koszul,
    "homog": _cmd_homog,
    "oracle": _cmd_oracle,
    "shape": _cmd_shape,
}


def run(args: argparse.Namespace, payload: bytes) -> tuple[int, str]:
    """Execute one parsed command; returns (exit code, output text)."""
    return _COMMANDS[args.command](args, payload)


def _int_in(bounds: tuple[int, int]):
    """An argparse type accepting the integers lo..hi; anything else exits 2."""
    lo, hi = bounds

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"expected an integer in {lo}..{hi}, got {text!r}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pv",
        description="Exact K-theory of crossed products via Koszul complexes "
        "and Pimsner-Voiculescu towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {
        name: sub.add_parser(name, help=help_text)
        for name, help_text in (
            ("rank1", "crossed-product K-theory for a single automorphism"),
            ("tower", "full tower: level groups and final K-theory"),
            ("koszul", "Koszul cohomology of a datum, or regularity report via --n"),
            ("homog", "K-theory of a classical homogeneous space"),
            ("oracle", "compare cubical cochain matrices with contraction"),
            ("shape", "structural tower diagram data"),
        )
    }
    # koszul reads a datum unless --n asks for the symbolic report instead.
    koszul_source = cmd["koszul"].add_mutually_exclusive_group()
    for target in (cmd["rank1"], cmd["tower"], koszul_source):
        target.add_argument(
            "input_path", metavar="input", nargs="?", help="input JSON path (default: stdin)"
        )
    for name in ("rank1", "tower"):
        cmd[name].add_argument("--strict", action="store_true", help="exit 3 on ambiguity flags")
    koszul_source.add_argument("--n", type=_int_in(_WITNESS_RANK))
    cmd["homog"].add_argument("--series", choices=_SERIES, required=True)
    cmd["homog"].add_argument("--n", type=_int_in(_HOMOG_N), required=True)
    cmd["homog"].add_argument("--k", type=_int_in(_WITNESS_RANK), required=True)
    # Defaults 8 and 0 are filled in with --n; a datum rejects both flags.
    cmd["koszul"].add_argument("--seed", type=int)
    cmd["koszul"].add_argument("--trials", type=_int_in(_TRIALS))
    cmd["homog"].add_argument("--seed", type=int, default=0, help="has no effect; still accepted")
    cmd["oracle"].add_argument("--n", type=_int_in(_ORACLE_N), required=True)
    cmd["shape"].add_argument("--n", type=_int_in(_SHAPE_N), required=True)
    shape_weyl = cmd["shape"].add_mutually_exclusive_group()
    shape_weyl.add_argument("--series", choices=_SERIES)
    shape_weyl.add_argument("--w", type=_int_in(_SHAPE_W), help="Weyl multiplicity")
    cmd["shape"].add_argument("--dual", action="store_true", help="dual tower labels")
    for p in cmd.values():
        p.add_argument("--format", dest="output_format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    payload = b""
    # rank1, tower and koszul read a datum, except for `koszul --n`.
    if hasattr(args, "input_path") and getattr(args, "n", None) is None:
        if args.input_path:
            try:
                with open(args.input_path, "rb") as fh:
                    payload = fh.read()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INVALID
        else:
            payload = sys.stdin.buffer.read()

    try:
        code, output = run(args, payload)
    except ValueError as exc:  # InputError, DatumError and every solver's input check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
