"""Reference answers for every benchmark job, sharing no code with pvtower.

Datum jobs (``tower``, ``koszul`` on a datum, ``rank1``): the Koszul
differentials are rebuilt here from the contraction formula, and their
integer invariant factors come from sympy.  For a free parity the
homology at spot j has rank dim_j - rank d_j - rank d_(j+1) and torsion
equal to the torsion of coker d_(j+1).  For a parity (Z/m)^h the complex
is the free complex tensored with Z/m, so the universal coefficient
theorem gives H_j(C (x) Z/m) = H_j(C) (x) Z/m  (+)  Tor(H_(j-1)(C), Z/m).

Symbolic jobs use closed forms: A/C homogeneous spaces G_n/G_k have
K = Z^(2^(n-k-1)) in each parity with spot ranks C(n-k, d); the
regularity report of (1 - t_1, ..., 1 - t_n) has observed rank
C(n-1, j-1) and is consistent at every spot; the cubical oracle matches;
tower shapes carry multiplicities w * C(n, t) with w the Weyl order.
B/D homogeneous spaces are not covered: their known answers differ from
what pvtower models today.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb, factorial, gcd

from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

PARITIES = ("even", "odd")


# ---------------------------------------------------------------------------
# Groups: (free rank, divisor chain of torsion orders)
# ---------------------------------------------------------------------------


def divisor_chain(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of the cyclic groups Z/t, t in orders."""
    work = [t for t in orders if t > 1]
    for i in range(len(work)):
        for j in range(i + 1, len(work)):
            a, b = work[i], work[j]
            g = gcd(a, b)
            work[i], work[j] = g, a // g * b
    return tuple(t for t in work if t > 1)


def group(rank: int, orders: list[int]) -> tuple[int, tuple[int, ...]]:
    return rank, divisor_chain(orders)


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    """Read pvtower's ``"Z^r + Z/d1 + ..."`` form; raises ValueError if malformed."""
    if text == "0":
        return 0, ()
    rank, orders = 0, []
    for part in text.split(" + "):
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            orders.append(int(part[2:]))
        else:
            raise ValueError(f"unreadable group term {part!r}")
    return group(rank, orders)


def direct_sum(*groups):
    rank = sum(g[0] for g in groups)
    return group(rank, [t for g in groups for t in g[1]])


def graded_sum(pairs):
    """Sum of (even, odd) pairs, each already suspended as needed."""
    pairs = list(pairs)
    return direct_sum(*(p[0] for p in pairs)), direct_sum(*(p[1] for p in pairs))


def suspend(pair, shift: int):
    return (pair[1], pair[0]) if shift % 2 else pair


# ---------------------------------------------------------------------------
# Koszul differentials from the contraction formula
# ---------------------------------------------------------------------------


def contraction(n: int, j: int, blocks: list[list[list[int]]], g: int) -> list[list[int]]:
    """Contraction wedge^j -> wedge^(j-1) against (blocks[0], ..., blocks[n-1]).

    Basis subsets in lexicographic order; removing the p-th element of a
    subset (p counted from 1) carries the sign (-1)^(p-1).
    """
    rows = list(combinations(range(n), j - 1))
    cols = list(combinations(range(n), j))
    row_of = {s: r for r, s in enumerate(rows)}
    out = [[0] * (len(cols) * g) for _ in range(len(rows) * g)]
    for c, subset in enumerate(cols):
        for p, s in enumerate(subset):
            r = row_of[subset[:p] + subset[p + 1:]]
            sign = -1 if p % 2 else 1
            blk = blocks[s]
            for a in range(g):
                row = out[r * g + a]
                for b in range(g):
                    row[c * g + b] += sign * blk[a][b]
    return out


def parity_blocks(datum: dict, parity: str) -> tuple[int, list[list[list[int]]]]:
    g = datum[parity]["free_rank"]
    blocks = []
    for e in datum["endos"]:
        m = e[parity]
        blocks.append([[int(a == b) - m[a][b] for b in range(g)] for a in range(g)])
    return g, blocks


def torsion_modulus(datum: dict, parity: str) -> int:
    """0 for a free parity, m for relations m * identity; other shapes are not generated."""
    pres = datum[parity]
    rel, g = pres["relations"], pres["free_rank"]
    if not rel:
        return 0
    m = rel[0][0]
    if m < 2 or rel != [[m if a == b else 0 for b in range(g)] for a in range(g)]:
        raise ValueError("reference handles only free parities and (Z/m)^h")
    return m


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _diagonalize_mod(a: list[list[int]], modulus: int) -> list[int]:
    """Diagonal of a matrix over Z/modulus reduced by unimodular 2x2 row/column steps."""
    rows, cols = len(a), len(a[0])
    a = [[x % modulus for x in row] for row in a]
    diag = []
    for k in range(min(rows, cols)):
        best = None  # (gcd with the modulus, row, column); a unit ends the search
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] and (best is None or gcd(a[i][j], modulus) < best[0]):
                    best = (gcd(a[i][j], modulus), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        a[k], a[pi] = a[pi], a[k]
        for row in a:
            row[k], row[pj] = row[pj], row[k]
        # A step either clears an entry with a multiple of the pivot or
        # replaces the pivot by a proper divisor, so the loop ends.
        while True:
            for i in range(k + 1, rows):
                if a[i][k]:
                    rk, ri = a[k], a[i]
                    if ri[k] % rk[k] == 0:
                        q = ri[k] // rk[k]
                        a[i] = [(y - q * x) % modulus for x, y in zip(rk, ri)]
                        continue
                    g, s, t = _xgcd(rk[k], ri[k])
                    u, v = rk[k] // g, ri[k] // g
                    a[k] = [(s * x + t * y) % modulus for x, y in zip(rk, ri)]
                    a[i] = [(u * y - v * x) % modulus for x, y in zip(rk, ri)]
            refilled = False
            for j in range(k + 1, cols):
                if a[k][j]:
                    p, e = a[k][k], a[k][j]
                    if e % p == 0:
                        q = e // p
                        for row in a:
                            row[j] = (row[j] - q * row[k]) % modulus
                        continue
                    g, s, t = _xgcd(p, e)
                    u, v = p // g, e // g
                    for row in a:
                        x, y = row[k], row[j]
                        row[k], row[j] = (s * x + t * y) % modulus, (u * y - v * x) % modulus
                    refilled = True
            if not refilled:
                break
        diag.append(gcd(a[k][k], modulus))
    return diag


def invariant_torsion(mat: list[list[int]], rows: int, cols: int) -> tuple[list[int], int]:
    """Invariant factors > 1 and the rank of an integer matrix.

    Every nonzero invariant factor divides any nonzero r x r minor D
    (r the rank), so elimination modulo D finds them exactly: coker
    modulo D is (Z/D)^(rows - r) plus the torsion of coker.  sympy
    supplies the rank, a nonsingular minor and its determinant; its own
    ``invariant_factors`` is the cross-check in the self-tests, not the
    path here, because on rank-deficient 30x30 inputs it ran anywhere
    from 0.01 s to 250 s.
    """
    if rows == 0 or cols == 0:
        return [], 0
    sparse = {i: {j: QQ(x) for j, x in enumerate(row) if x} for i, row in enumerate(mat)}
    dm = DomainMatrix({i: r for i, r in sparse.items() if r}, (rows, cols), QQ)
    _, col_pivots = dm.rref()
    _, row_pivots = dm.transpose().rref()
    rank = len(col_pivots)
    if rank == 0:
        return [], 0
    minor = DomainMatrix(
        [[ZZ(mat[i][j]) for j in col_pivots] for i in row_pivots], (rank, rank), ZZ
    )
    modulus = abs(int(minor.det()))
    if modulus == 1:
        return [], rank
    diag = _diagonalize_mod(mat, modulus)
    chain = list(divisor_chain(diag + [modulus] * (rows - len(diag))))
    # Drop the (Z/D)^(rows - r) that stands for the free part of coker.
    for _ in range(rows - rank):
        if not chain or chain[-1] != modulus:
            raise ArithmeticError("elimination modulo the minor lost the free part")
        chain.pop()
    return chain, rank


def sympy_factors(mat: list[list[int]], rows: int, cols: int) -> tuple[list[int], int]:
    """The same answer straight from sympy's invariant_factors, for cross-checks."""
    dm = DomainMatrix([[ZZ(x) for x in row] for row in mat], (rows, cols), ZZ)
    factors = [int(f) for f in invariant_factors(dm)]
    return [f for f in factors if f > 1], sum(1 for f in factors if f)


def parity_homology(datum: dict, parity: str):
    """Homology and kernel groups at every spot for one parity, plus matrix statistics."""
    n = datum["n"]
    g, blocks = parity_blocks(datum, parity)
    dims = [comb(n, d) * g for d in range(n + 1)]
    tors = [[] for _ in range(n + 2)]  # tors[j]: invariant factors > 1 of d_j
    rank = [0] * (n + 2)  # rank[j]: rank of d_j; d_0 = d_(n+1) = 0
    nnz = 0
    for j in range(1, n + 1):
        mat = contraction(n, j, blocks, g)
        nnz += sum(1 for row in mat for x in row if x)
        tors[j], rank[j] = invariant_torsion(mat, dims[j - 1], dims[j])
    m = torsion_modulus(datum, parity)
    free_h = [(dims[j] - rank[j] - rank[j + 1], tors[j + 1]) for j in range(n + 1)]
    if m == 0:
        homology = [group(r, t) for r, t in free_h]
        kernels = [group(dims[j] - rank[j], []) for j in range(n + 1)]
    else:
        homology = []
        for j in range(n + 1):
            free, torsion = free_h[j]
            tensor = [m] * free + [gcd(t, m) for t in torsion]
            tor = [gcd(t, m) for t in free_h[j - 1][1]] if j else []
            homology.append(group(0, tensor + tor))
        # ker(d_j (x) Z/m): Z/gcd(f, m) per invariant factor f, Z/m per zero one.
        kernels = [
            group(0, [m] * (dims[j] - rank[j]) + [gcd(f, m) for f in tors[j]])
            for j in range(n + 1)
        ]
    return homology, kernels, dims, nnz


def has_torsion(pair) -> bool:
    return bool(pair[0][1] or pair[1][1])


def datum_expectation(datum: dict) -> dict:
    n = datum["n"]
    per = {p: parity_homology(datum, p) for p in PARITIES}
    h = [(per["even"][0][d], per["odd"][0][d]) for d in range(n + 1)]
    k = [(per["even"][1][d], per["odd"][1][d]) for d in range(n + 1)]
    final = graded_sum(suspend(h[d], d) for d in range(n + 1))
    levels = []
    for lvl in range(n - 1, 0, -1):
        top = n - lvl
        grp = graded_sum([suspend(h[d], d) for d in range(top)] + [suspend(k[top], top)])
        ambiguous = any(has_torsion(h[d]) for d in range(1, top)) or has_torsion(k[top])
        levels.append((lvl, grp, ambiguous))
    return {
        "n": n,
        "cohomology": h,
        "final": final,
        "final_ambiguous": any(has_torsion(h[d]) for d in range(1, n + 1)),
        "levels": levels,
        "euler": sum((-1) ** d * (h[d][0][0] - h[d][1][0]) for d in range(n + 1)),
        "stats": {
            "dims": {p: per[p][2] for p in PARITIES},
            "nnz": per["even"][3] + per["odd"][3],
        },
    }


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def weyl_order(series: str, rank: int) -> int:
    if series == "A":
        return factorial(rank + 1)
    if series in ("B", "C"):
        return 2 ** rank * factorial(rank)
    return 2 ** (rank - 1) * factorial(rank)


def shape_objects(n: int, w: int) -> list[tuple[str, int, int]]:
    """(kind, suspension, multiplicity) in diagram order."""
    objs = [("trivial-coefficient", 0, w)]
    for t in range(1, n + 1):
        objs.append(("trivial-coefficient", t % 2, w * comb(n, t)))
        objs.append(("D-term", n % 2, 1) if t < n else ("crossed-product", 0, 1))
    return objs


def expectation(job) -> dict:
    """Everything the checker needs for one job, computed from its spec only."""
    spec = job.spec
    if spec["kind"] in ("tower", "koszul", "rank1"):
        return datum_expectation(spec["datum"])
    return {}


# ---------------------------------------------------------------------------
# Checking one pv output
# ---------------------------------------------------------------------------


def _same(out: dict, key: str, want, problems: list[str]) -> None:
    if out.get(key) != want:
        problems.append(f"{key}: got {out.get(key)!r}, expected {want!r}")


def _same_group(text, want, where: str, problems: list[str]) -> None:
    try:
        got = parse_group(text)
    except (ValueError, AttributeError, TypeError):
        problems.append(f"{where}: unreadable group {text!r}")
        return
    if got != want:
        problems.append(f"{where}: got {text!r}, expected rank {want[0]} torsion {list(want[1])}")


def _same_pair(obj, want, where: str, problems: list[str]) -> None:
    if not isinstance(obj, dict):
        problems.append(f"{where}: not an object")
        return
    _same_group(obj.get("even"), want[0], f"{where}.even", problems)
    _same_group(obj.get("odd"), want[1], f"{where}.odd", problems)


def _check_cohomology(out: dict, exp: dict, problems: list[str]) -> None:
    coh = out.get("cohomology")
    if not isinstance(coh, list) or len(coh) != exp["n"] + 1:
        problems.append("cohomology: wrong length")
        return
    for d, (entry, want) in enumerate(zip(coh, exp["cohomology"])):
        _same_pair(entry, want, f"cohomology[{d}]", problems)
        if isinstance(entry, dict):
            _same(entry, "spot", d, problems)


def check(job, exp: dict, code: int, stdout: bytes) -> list[str]:
    """Problems with one job's result; empty when it matches the reference."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return ["stdout is not JSON"]
    if not isinstance(out, dict) or out.get("schema") != 1:
        return ["missing schema 1"]
    spec, problems = job.spec, []
    kind = spec["kind"]
    if kind == "tower":
        _same(out, "n", exp["n"], problems)
        _same_pair(out.get("final"), exp["final"], "final", problems)
        _same(out, "ambiguous", exp["final_ambiguous"], problems)
        _check_cohomology(out, exp, problems)
        _same(out, "euler", exp["euler"], problems)
        levels = out.get("levels")
        if not isinstance(levels, list) or len(levels) != len(exp["levels"]):
            problems.append("levels: wrong length")
        else:
            for got, (lvl, grp, amb) in zip(levels, exp["levels"]):
                if not isinstance(got, dict):
                    problems.append("levels: entry not an object")
                    continue
                _same(got, "level", lvl, problems)
                _same_pair(got.get("group"), grp, f"level {lvl}", problems)
                _same(got, "ambiguous", amb, problems)
    elif kind == "koszul":
        _same(out, "n", exp["n"], problems)
        _check_cohomology(out, exp, problems)
        _same(out, "euler", exp["euler"], problems)
    elif kind == "rank1":
        _same_group(out.get("K0"), exp["final"][0], "K0", problems)
        _same_group(out.get("K1"), exp["final"][1], "K1", problems)
        _same(out, "ambiguous", exp["final_ambiguous"], problems)
    elif kind == "homog":
        n, k = spec["n"], spec["k"]
        free = 2 ** (n - k - 1)
        for key in ("even", "odd"):
            _same_group(out.get(key), (free, ()), key, problems)
        _same(out, "spot_ranks", [comb(n - k, d) for d in range(n + 1)], problems)
        _same(out, "witnessed", True, problems)
        for key in ("series", "n", "k"):
            _same(out, key, spec[key], problems)
    elif kind == "regularity":
        n = spec["n"]
        want = [
            {"spot": j, "module_rank": comb(n, j), "observed_rank": comb(n - 1, j - 1),
             "consistent": True}
            for j in range(1, n + 1)
        ]
        _same(out, "spots", want, problems)
        _same(out, "augmentation_onto_Z", True, problems)
        for key in ("n", "seed", "trials"):
            _same(out, key, spec[key], problems)
    elif kind == "oracle":
        _same(out, "n", spec["n"], problems)
        _same(out, "match", True, problems)
    elif kind == "shape":
        n = spec["n"]
        w = spec["w"] if spec.get("series") is None else weyl_order(spec["series"], n)
        _same(out, "n", n, problems)
        _same(out, "w", w, problems)
        _same(out, "dual", spec["dual"], problems)
        objs = out.get("objects")
        got = (
            [(o.get("kind"), o.get("suspension"), o.get("multiplicity")) for o in objs]
            if isinstance(objs, list) and all(isinstance(o, dict) for o in objs)
            else None
        )
        if got != shape_objects(n, w):
            problems.append("objects: kinds, suspensions or multiplicities differ")
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return problems
