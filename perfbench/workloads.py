"""Seeded job lists for the benchmark workloads.

A job is one ``pv`` invocation: its arguments, its stdin bytes and the
spec the reference checker needs.  The shape of every list (which
subcommands, ranks and group sizes) is fixed per workload; the seed and
the list index pick the matrices, signs, moduli and pv's own ``--seed``,
so the same seed always gives byte-identical jobs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("wide", "dense", "symbolic")

# wide: (subcommand, n, free rank g, torsion rank h, modulus m, torus action).
# Spot dimension C(n, d) * g reaches 105 at n=7, g=3; entries stay in {-1, 0, 1, 2}.
# Each parity's shifts come from a fixed multiset that the seed permutes, so the
# complexes of every seed are isomorphic and cost the same; a free choice of
# shifts and signs made job times swing by 2x between seeds.
WIDE = (
    ("tower", 6, 1, 1, 3, False),
    ("tower", 6, 3, 1, 2, False),
    ("tower", 6, 1, 2, 2, False),
    ("tower", 7, 2, 1, 3, True),
    ("tower", 7, 1, 1, 2, False),
    ("tower", 8, 1, 1, 3, False),
    ("koszul", 6, 2, 2, 3, False),
    ("koszul", 7, 3, 1, 2, False),
)

# dense: (subcommand, n, g, entry bound c of the triangular factors of A).
# g=16 at n=3 already runs for tens of seconds, so n=3 stays at g <= 12.
DENSE = (
    ("rank1", 1, 16, 4),
    ("rank1", 1, 18, 4),
    ("rank1", 1, 20, 4),
    ("tower", 2, 14, 2),
    ("tower", 2, 16, 2),
    ("tower", 2, 18, 2),
    ("tower", 2, 18, 2),
    ("tower", 3, 10, 2),
    ("tower", 3, 12, 1),
    ("koszul", 2, 20, 2),
    ("koszul", 3, 11, 2),
)

# symbolic: homogeneous-space slots by small rank k (the cost driver),
# regularity reports, cubical oracles and tower shapes.
HOMOG_K = (1, 2, 3, 4, 5, 6)
REGULARITY_N = (4, 5, 6, 7)
ORACLE_N = (6, 7, 8, 9, 10)
SHAPES = 4
MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 3}

# One tiny job per layer a workload does not otherwise reach, so every
# per-layer metric is measured on every workload.  Each runs for a few
# milliseconds in-process; in a `pv` process nearly all of it is start-up.
PROBES = {
    "wide": ("rank1", "homog", "oracle"),
    "dense": ("homog", "oracle"),
    "symbolic": ("tower", "rank1"),
}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]  # pv arguments, without the program name
    payload: bytes  # stdin
    spec: dict  # what the reference needs: kind and parameters

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a not in ("--format", "json"))


def signed_shift(size: int, r: int, sign: int) -> list[list[int]]:
    """sign * P^r, P the cyclic shift; columns are images of generators."""
    m = [[0] * size for _ in range(size)]
    for j in range(size):
        m[(j + r) % size][j] = sign
    return m


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def dense_unimodular(g: int, c: int, rng: random.Random) -> list[list[int]]:
    """L @ U with unit-diagonal triangular factors whose entries lie in [-c, c]."""
    low = [[1 if i == j else rng.randint(-c, c) if i > j else 0 for j in range(g)] for i in range(g)]
    up = [[1 if i == j else rng.randint(-c, c) if i < j else 0 for j in range(g)] for i in range(g)]
    return matmul(low, up)


def datum_job(cmd: str, datum: dict) -> Job:
    payload = json.dumps({"schema": 1, "datum": datum}, separators=(",", ":")).encode()
    return Job((cmd, "--format", "json"), payload, {"kind": cmd, "datum": datum})


def _wide(rng: random.Random) -> list[Job]:
    jobs = []
    for cmd, n, g, h, m, torus in WIDE:
        torsion_parity = rng.choice(("even", "odd"))
        sizes = {"even": g, "odd": h} if torsion_parity == "odd" else {"even": h, "odd": g}
        endos = [{} for _ in range(n)]
        for parity, size in sizes.items():
            shifts = [(0, 1) if torus else (i % size, -1 if i % 3 == 2 else 1) for i in range(n)]
            rng.shuffle(shifts)
            for endo, (r, sign) in zip(endos, shifts):
                endo[parity] = signed_shift(size, r, sign)
        datum = {"n": n, "endos": endos}
        for parity, size in sizes.items():
            rel = [[m if i == j else 0 for j in range(size)] for i in range(size)]
            datum[parity] = {
                "free_rank": size,
                "relations": rel if parity == torsion_parity else [],
            }
        jobs.append(datum_job(cmd, datum))
    return jobs


def _dense(rng: random.Random) -> list[Job]:
    jobs = []
    for cmd, n, g, c in DENSE:
        a = dense_unimodular(g, c, rng)
        powers, p = [], a
        for _ in range(n):
            powers.append(p)
            p = matmul(p, a)
        datum = {
            "n": n,
            "even": {"free_rank": g, "relations": []},
            "odd": {"free_rank": 0, "relations": []},
            "endos": [{"even": q, "odd": []} for q in powers],
        }
        jobs.append(datum_job(cmd, datum))
    return jobs


def _symbolic(rng: random.Random) -> list[Job]:
    jobs = []
    fmt = ("--format", "json")
    for k in HOMOG_K:
        series = rng.choice(("A", "C")) if k >= MIN_RANK["C"] else "A"
        n = rng.randint(k + 1, 8)
        seed = rng.randrange(10_000)
        argv = ("homog", "--series", series, "--n", str(n), "--k", str(k), "--seed", str(seed))
        jobs.append(Job(argv + fmt, b"", {"kind": "homog", "series": series, "n": n, "k": k}))
    for n in REGULARITY_N:
        seed = rng.randrange(10_000)
        argv = ("koszul", "--n", str(n), "--seed", str(seed))
        spec = {"kind": "regularity", "n": n, "seed": seed, "trials": 8}
        jobs.append(Job(argv + fmt, b"", spec))
    for n in ORACLE_N:
        jobs.append(Job(("oracle", "--n", str(n)) + fmt, b"", {"kind": "oracle", "n": n}))
    for i in range(SHAPES):
        dual = rng.random() < 0.5
        if i % 2 == 0:
            series = rng.choice("ABCD")
            n = rng.randint(MIN_RANK[series], 7)
            argv = ("shape", "--series", series, "--n", str(n))
            spec = {"kind": "shape", "series": series, "n": n, "w": None, "dual": dual}
        else:
            n, w = rng.randint(1, 8), rng.randint(1, 6)
            argv = ("shape", "--n", str(n), "--w", str(w))
            spec = {"kind": "shape", "series": None, "n": n, "w": w, "dual": dual}
        jobs.append(Job(argv + (("--dual",) if dual else ()) + fmt, b"", spec))
    return jobs


def _probe(kind: str, rng: random.Random) -> Job:
    fmt = ("--format", "json")
    if kind == "homog":
        n = rng.randint(3, 4)
        return Job(("homog", "--series", "A", "--n", str(n), "--k", "2") + fmt, b"",
                   {"kind": "homog", "series": "A", "n": n, "k": 2})
    if kind == "oracle":
        return Job(("oracle", "--n", "3") + fmt, b"", {"kind": "oracle", "n": 3})
    n, g = (1, 2) if kind == "rank1" else (2, 1)
    endos = [
        {"even": signed_shift(g, rng.randrange(g), rng.choice((1, -1))),
         "odd": [[rng.choice((1, -1))]]}
        for _ in range(n)
    ]
    datum = {
        "n": n,
        "even": {"free_rank": g, "relations": []},
        "odd": {"free_rank": 1, "relations": [[rng.choice((2, 3))]]},
        "endos": endos,
    }
    return datum_job(kind, datum)


def generate(workload: str, seed: int, index: int = 0) -> list[Job]:
    """Job list number `index` of a workload for `seed`, probes last."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    build = {"wide": _wide, "dense": _dense, "symbolic": _symbolic}[workload]
    return build(rng) + [_probe(kind, rng) for kind in PROBES[workload]]


def digest(jobs: list[Job]) -> str:
    """Hash of every job's arguments and stdin, to show the list is reproducible."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps(job.argv).encode())
        h.update(job.payload)
    return h.hexdigest()[:16]
