"""Acceptance suite: every exit criterion, exact equality, stated budgets.

Each test prints one PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from math import comb

from pvtower.abgroup import FGAbelianGroup, GradedGroup, IntMatrix, snf
from pvtower.cubical import oracle_compare
from pvtower.exterior import Covector, contraction_terms
from pvtower.koszul import (
    GradedEndo,
    ModuleDatum,
    Presentation,
    build_symbolic,
    endpoint_augmentation_surjective,
    generic_rank_exactness,
)
from pvtower.liegroups import SeriesSpec, homogeneous_ktheory, weyl_order
from pvtower.ring import one_minus_var
from pvtower.tower import euler_characteristic, pv_rank1, pv_tower, tower_shape

from conftest import composed_contraction_terms
from rank1_oracle import iterate_rank1
from weyl_oracle import weyl_enumerate

Z = FGAbelianGroup.free


def report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def torus_datum(n: int) -> ModuleDatum:
    endos = tuple(
        GradedEndo(IntMatrix.identity(1), IntMatrix.identity(0)) for _ in range(n)
    )
    return ModuleDatum(Presentation.free(1), Presentation.free(0), endos)


def test_criterion_1_rank1_pv():
    start = time.monotonic()
    datum = ModuleDatum(
        Presentation.free(1),
        Presentation.free(1),
        (GradedEndo(IntMatrix.identity(1), IntMatrix.identity(1)),),
    )
    result = pv_rank1(datum)
    elapsed = time.monotonic() - start
    ok = (
        result.group == GradedGroup(Z(2), Z(2))
        and not result.ambiguous
        and elapsed < 1.0
    )
    report(1, f"rank-1 PV gives K0 = K1 = Z^2 unflagged in {elapsed:.3f}s", ok)


def test_criterion_2_cubical_oracle():
    start = time.monotonic()
    matches = [oracle_compare(n) for n in range(1, 6)]
    elapsed = time.monotonic() - start
    ok = all(matches) and elapsed < 10.0
    report(2, f"cochain matrices match contraction for n=1..5 in {elapsed:.2f}s", ok)


def test_criterion_3_koszul_regularity():
    ok = True
    for n in range(1, 5):
        cx = build_symbolic(Covector.standard(n))
        rep = generic_rank_exactness(cx, trials=8, seed=0)
        ok = ok and rep.all_consistent and endpoint_augmentation_surjective(cx)
    report(3, "regular covectors: rank witnesses consistent, endpoint onto Z", ok)


def _series_pairs(max_rank: int):
    minima = {"A": 1, "B": 2, "C": 3, "D": 3}
    for series, lo in minima.items():
        for n in range(lo + 1, max_rank + 1):
            for k in range(lo, n):
                yield series, n, k


def test_criterion_4_homogeneous_sweep():
    start = time.monotonic()
    ok = True
    count = 0
    for series, n, k in _series_pairs(6):
        result = homogeneous_ktheory(SeriesSpec(series, n), SeriesSpec(series, k))
        expected = GradedGroup(Z(2 ** (n - k - 1)), Z(2 ** (n - k - 1)))
        ok = ok and result.group == expected
        count += 1
    s5 = homogeneous_ktheory(SeriesSpec("A", 2), SeriesSpec("A", 1))
    ok = ok and s5.group == GradedGroup(Z(1), Z(1))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(4, f"{count} classical pairs give Z^(2^(n-k-1)) per parity in {elapsed:.2f}s", ok)


def test_criterion_5_multiplicities():
    ok = True
    for n in range(1, 9):
        w = weyl_order(SeriesSpec("A", n))
        mults = tower_shape(n, w).coefficient_multiplicities()
        ok = ok and mults == [w * comb(n, i - 1) for i in range(1, n + 2)]
    for series in "ABCD":
        for rank in range(1, 7):
            try:
                spec = SeriesSpec(series, rank)
            except ValueError:
                continue
            ok = ok and weyl_order(spec) == weyl_enumerate(spec)
    report(5, "tower multiplicities w*C(n,i-1) and Weyl orders match enumeration", ok)


def test_criterion_6_property_suites():
    ok = True

    # Smith normal form on 1000 randomized matrices up to 12x12 in [-50, 50].
    rng = random.Random(20240815)
    for _ in range(1000):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)], cols
        )
        s = snf(m)
        ok = ok and (s.U @ s.D @ s.V).entries == m.entries
        ok = ok and (s.U @ s.Uinv).entries == IntMatrix.identity(rows).entries
        ok = ok and (s.V @ s.Vinv).entries == IntMatrix.identity(cols).entries
        diag = s.diag
        ok = ok and all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            ok = ok and (b == 0 if a == 0 else b % a == 0)

    # d^2 = 0 on freshly constructed symbolic complexes: each d_j holds
    # +-(1 - t_s) exactly where its contraction term puts x_s, and the terms
    # compose to zero over commuting indeterminates x_1..x_n, so every
    # specialization x_s = 1 - t_s closes too.
    for n in (2, 3, 4):
        cx = build_symbolic(Covector.standard(n))
        for j in range(1, n + 1):
            ok = ok and cx.differential(j).entries == {
                (r, c): one_minus_var(s, n) if sign == 1 else -one_minus_var(s, n)
                for r, c, s, sign in contraction_terms(n, j)
            }
        for j in range(1, n):
            coeffs = composed_contraction_terms(n, j)
            ok = ok and bool(coeffs) and not any(coeffs.values())

    # Order invariance of the iterated assembly for n <= 3, plus the Euler
    # identity on every unflagged tower run.
    rng = random.Random(99)
    for n in (2, 3):
        for _ in range(6):
            datum = _commuting_datum(rng, n)
            tower = pv_tower(datum)
            if not tower.ambiguous:
                chi = euler_characteristic(list(tower.cohomology))
                ok = ok and (
                    tower.final.even.free_rank - tower.final.odd.free_rank == chi
                )
            groups = []
            flagged = tower.ambiguous
            for order in itertools.permutations(range(n)):
                res = iterate_rank1(datum, list(order))
                flagged = flagged or res.ambiguous
                groups.append(res.group)
            if not flagged:
                ok = ok and all(g == tower.final for g in groups)
    report(6, "SNF x1000, d^2 = 0, order invariance, Euler identity", ok)


def _commuting_datum(rng, n):
    g = rng.randint(1, 2)
    base = IntMatrix.identity(g)
    for _ in range(2):
        i, j = rng.randrange(g), rng.randrange(g)
        if i != j:
            e = [[1 if a == b else 0 for b in range(g)] for a in range(g)]
            e[i][j] = rng.randint(-1, 1)
            base = base @ IntMatrix.from_rows(e, g)
    powers = [base, base @ base]
    endos = []
    for _ in range(n):
        mat = rng.choice(powers)
        if rng.random() < 0.5:
            mat = mat.scale(-1)
        endos.append(GradedEndo(mat, IntMatrix.identity(0)))
    return ModuleDatum(Presentation.free(g), Presentation.free(0), tuple(endos))


def test_criterion_7_torus_shadow():
    ok = True
    for n in range(1, 6):
        datum = torus_datum(n)
        tower = pv_tower(datum)
        oracle = iterate_rank1(datum)
        expected = GradedGroup(Z(2 ** (n - 1)), Z(2 ** (n - 1)))
        ok = ok and tower.final == expected == oracle.group
        ok = ok and not tower.ambiguous and not oracle.ambiguous
    report(7, "torus datum: final group free of rank 2^(n-1) per parity, n <= 5", ok)
