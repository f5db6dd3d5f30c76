"""Rank-one PV, full tower assembly, iterated oracle, structural shapes."""

import itertools
import json
import random
from collections import Counter
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from sympy import Matrix

from pvtower import koszul
from pvtower.abgroup import FGAbelianGroup, GradedGroup, IntMatrix, split_sum
from pvtower.koszul import (
    GradedEndo,
    ModuleDatum,
    Presentation,
    build_datum,
    datum_cohomology,
    datum_spot_cohomology,
    datum_spot_kernel,
)
from pvtower.tower import (
    euler_characteristic,
    pv_rank1,
    pv_tower,
    tower_shape,
)

import cycle_lattice_oracle as oracle
from rank1_oracle import iterate_rank1
from test_golden import read_input
from test_koszul import built_deltas, noncommuting_datum

Z = FGAbelianGroup.free
T = FGAbelianGroup.trivial


def free_datum(even_rank, odd_rank, endo_pairs):
    endos = tuple(
        GradedEndo(IntMatrix.from_rows(e, even_rank), IntMatrix.from_rows(o, odd_rank))
        for e, o in endo_pairs
    )
    return ModuleDatum(Presentation.free(even_rank), Presentation.free(odd_rank), endos)


def torus_datum(n):
    """K = Z in even degree, every automorphism the identity."""
    endos = tuple(
        GradedEndo(IntMatrix.identity(1), IntMatrix.identity(0)) for _ in range(n)
    )
    return ModuleDatum(Presentation.free(1), Presentation.free(0), endos)


class TestRankOne:
    def test_rotation_datum(self):
        # Coker and kernel of the zero map are both Z per parity; the free
        # kernel forces the split, so K_0 = K_1 = Z^2 with no flag.
        datum = free_datum(1, 1, [([[1]], [[1]])])
        res = pv_rank1(datum)
        assert res.group == GradedGroup(Z(2), Z(2))
        assert not res.ambiguous

    def test_trivial_action_on_point(self):
        datum = free_datum(1, 0, [([[1]], [])])
        res = pv_rank1(datum)
        assert res.group == GradedGroup(Z(1), Z(1))

    def test_swap_automorphism(self):
        # 1 - swap on Z^2 has SNF diag(1, 0): coker = Z, kernel = Z.
        datum = free_datum(2, 0, [([[0, 1], [1, 0]], [])])
        res = pv_rank1(datum)
        assert res.group == GradedGroup(Z(1), Z(1))
        assert not res.ambiguous

    def test_non_automorphism_rejected(self):
        datum = free_datum(1, 0, [([[2]], [])])
        with pytest.raises(ValueError):
            pv_rank1(datum)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            pv_rank1(torus_datum(2))

    def test_torsion_kernel_flags(self):
        # K_even = Z/2 with the identity action: the odd-degree answer is the
        # torsion kernel of the zero map, so the extension is unresolved.
        pres = Presentation.of(1, [[2]])
        datum = ModuleDatum(
            pres,
            Presentation.free(0),
            (GradedEndo(IntMatrix.identity(1), IntMatrix.identity(0)),),
        )
        res = pv_rank1(datum)
        assert res.ambiguous
        assert res.group == GradedGroup(FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (2,)))
        assert any("torsion" in r for r in res.reasons)


def _shear(g, a, b, c):
    rows = [[int(i == j) for j in range(g)] for i in range(g)]
    rows[a][b] = c
    return IntMatrix.from_rows(rows, g)


@st.composite
def _cyclic_parity(draw):
    """Z^f + sum Z/m_i in a sheared basis, with an automorphism preserving it.

    In the diagonal basis (free generators first, m_i = 0 marking a free
    one) the automorphism is block lower triangular with triangular
    blocks: diagonal entries are units modulo m_i, torsion-to-free entries
    are zero, and torsion-to-torsion entries are scaled so that m_i
    divides m_j * E[i][j].
    """
    g = draw(st.integers(0, 3))
    moduli = sorted(
        draw(st.lists(st.sampled_from((0, 0, 0, 2, 3, 4, 5, 6)), min_size=g, max_size=g))
    )
    small = st.integers(-2, 2)
    endo = [[0] * g for _ in range(g)]
    for i, mi in enumerate(moduli):
        for j, mj in enumerate(moduli):
            if i == j:
                units = (1, -1) if mi == 0 else (1, -1, 2, -2, 3, 5, 7)
                endo[i][j] = draw(st.sampled_from([u for u in units if gcd(u, mi) == 1]))
            elif i < j and (mi == 0) == (mj == 0):
                endo[i][j] = draw(small) * (mi // gcd(mi, mj) if mi else 1)
            elif i > j and mi and not mj:
                endo[i][j] = draw(small)
    endo = IntMatrix.from_rows(endo, g)
    lattice = IntMatrix.from_rows(
        [[m if r == c else 0 for r in range(g)] for c, m in enumerate(moduli) if m], g
    ).transpose()
    for _ in range(draw(st.integers(0, 2)) if g > 1 else 0):
        a, b = draw(st.sampled_from([(a, b) for a in range(g) for b in range(g) if a != b]))
        c = draw(small)
        endo = _shear(g, a, b, c) @ endo @ _shear(g, a, b, -c)
        lattice = _shear(g, a, b, c) @ lattice
    return Presentation(g, lattice), endo


@st.composite
def _cyclic_rank1_datum(draw):
    even, even_endo = draw(_cyclic_parity())
    odd, odd_endo = draw(_cyclic_parity())
    return ModuleDatum(even, odd, (GradedEndo(even_endo, odd_endo),))


@given(_cyclic_rank1_datum())
@settings(max_examples=100)
def test_rank1_matches_iterated_oracle(datum):
    # pv_rank1 reads the tower at n = 1; iterate_rank1 runs its own
    # cokernel/kernel computation, so this compares two independent paths.
    res = pv_rank1(datum)
    oracle = iterate_rank1(datum)
    assert res.group == oracle.group
    assert res.ambiguous == oracle.ambiguous
    assert [f"step 1: {r}" for r in res.reasons] == list(oracle.reasons)


@st.composite
def _cyclic_power_datum(draw):
    """n = 1..3 commuting automorphisms: powers of one automorphism per parity."""
    (even, even_endo), (odd, odd_endo) = draw(_cyclic_parity()), draw(_cyclic_parity())
    endos = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 2))
        endos.append(
            GradedEndo(
                even_endo if k == 1 else even_endo @ even_endo,
                odd_endo if k == 1 else odd_endo @ odd_endo,
            )
        )
    return ModuleDatum(even, odd, tuple(endos))


def _with_redundant_relations(pres, data):
    """The same group: relation rows grown by duplicates, zeros and combinations, reordered."""
    rows = [list(col) for col in pres.relations.transpose().entries]
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(("duplicate", "zero", "combination")))
        if kind == "zero" or not rows:
            extra = [0] * pres.free_rank
        elif kind == "duplicate":
            extra = data.draw(st.sampled_from(rows))
        else:
            coeffs = [data.draw(st.integers(-3, 3)) for _ in rows]
            extra = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(pres.free_rank)]
        rows.append(list(extra))
    return Presentation.of(pres.free_rank, data.draw(st.permutations(rows)))


@given(_cyclic_power_datum(), st.data())
def test_redundant_relations_change_no_report(datum, data):
    again = ModuleDatum(
        _with_redundant_relations(datum.even, data),
        _with_redundant_relations(datum.odd, data),
        datum.endos,
    )
    assert datum_cohomology(again) == datum_cohomology(datum)
    assert pv_tower(again) == pv_tower(datum)


@st.composite
def _lifted_datum(draw):
    """A power datum whose lifts are moved by matrices with columns in the relation lattice.

    The maps induced on the quotient groups do not change, so the datum
    stays valid, but its lifts in general commute only modulo the relations.
    """
    datum = draw(_cyclic_power_datum())

    def moved(parity, lift):
        rel = datum.presentation(parity).relations
        if not rel.cols:
            return lift
        shift = [[draw(st.integers(-2, 2)) for _ in range(lift.cols)] for _ in range(rel.cols)]
        return lift + rel @ IntMatrix.from_rows(shift, lift.cols)

    endos = tuple(GradedEndo(moved("even", e.even), moved("odd", e.odd)) for e in datum.endos)
    return ModuleDatum(datum.even, datum.odd, endos)


def _hidden_zero_datum():
    """(Z/4)^2 beside a free Z; two even lifts differ from I but are I modulo 4.

    Only the even part has a direction that acts as 0; every odd beta_i is -1.
    """
    minus = IntMatrix.from_rows([[-1]])
    even = ([[1, 4], [0, 1]], [[0, 1], [1, 0]], [[5, 0], [0, 1]])
    endos = tuple(GradedEndo(IntMatrix.from_rows(e), minus) for e in even)
    return ModuleDatum(Presentation.of(2, [[4, 0], [0, 4]]), Presentation.free(1), endos)


def test_zero_directions_are_found_per_parity():
    assert build_datum(_hidden_zero_datum()).zeros == {"even": 2, "odd": 0}
    assert build_datum(noncommuting_datum(4)).zeros == {"even": 0, "odd": 0}


def _raise_on_call(*args):
    raise AssertionError("cokernel called after build_datum")


@pytest.mark.parametrize("datum", [
    _hidden_zero_datum(),
    noncommuting_datum(4),
    ModuleDatum(Presentation.free(1), Presentation.free(1),
                (GradedEndo(IntMatrix.identity(1), IntMatrix.identity(1)),) * 10),
], ids=["hidden-zero", "noncommuting-mod4", "trivial-n10"])
def test_spot_groups_make_no_elimination(datum, monkeypatch):
    # build_datum eliminates each built spot once; every spot of the full
    # complex, cohomology or level kernel, is then a sum of those groups.
    cx = build_datum(datum)
    monkeypatch.setattr(koszul, "cokernel", _raise_on_call)
    for d in range(cx.n + 1):
        datum_spot_cohomology(cx, d)
        datum_spot_kernel(cx, d)


class _Announced(tuple):
    """The parities, holding in ``current`` the one a loop over them has reached."""

    current = None

    def __iter__(self):
        for parity in super().__iter__():
            self.current = parity
            yield parity


@pytest.mark.parametrize("datum", [
    noncommuting_datum(4),
    _hidden_zero_datum(),
    ModuleDatum.from_json_dict(json.loads(read_input("tower_acyclic_n8"))["datum"]),
], ids=["noncommuting-mod4", "hidden-zero", "acyclic-n8"])
def test_build_datum_eliminates_no_rows_twice(datum, monkeypatch):
    # Within one parity's pass no cokernel call receives the rows of an earlier
    # call, and each delta_j is eliminated once: iota_(n') is all of
    # delta_(n'+1), so it is read off the homology's elimination.  Calls are
    # keyed by parity, because a datum may repeat one parity in the other (the
    # acyclic one does).  Rows without entries eliminate nothing, and a free
    # parity's iota_i are such rows, alike for i and n' - i; they are counted
    # only as the rows of a delta_j built before the call.
    parities, seen = _Announced(koszul.PARITIES), set()
    built, eliminated = Counter(), Counter()
    real_cokernel, real_delta = koszul.cokernel, koszul._total_differential

    def key(rows):
        return parities.current, tuple(tuple(sorted((c, x) for c, x in row.items() if x))
                                       for row in rows)

    def building(*args):
        rows = real_delta(*args)
        built[key(rows)] += 1
        return rows

    def eliminating(m):
        k = key([dict(enumerate(row)) for row in m.entries] if isinstance(m, IntMatrix) else m)
        if any(k[1]):
            assert k not in seen, f"{k[0]} rows eliminated twice"
            seen.add(k)
        if k in built:
            eliminated[k] += 1
        return real_cokernel(m)

    monkeypatch.setattr(koszul, "PARITIES", parities)
    monkeypatch.setattr(koszul, "_total_differential", building)
    monkeypatch.setattr(koszul, "cokernel", eliminating)
    build_datum(datum)
    assert eliminated == built


@given(st.one_of(_cyclic_power_datum(), _lifted_datum()))
@example(noncommuting_datum())
@example(noncommuting_datum(4))
def test_total_complex_closes_and_ends_injective(datum):
    # d_(j-1) d_j vanishes only modulo the relations; the total differentials
    # of the complex build_datum eliminates, over the n' directions that act,
    # compose to zero exactly, and the last one, [B; -d'_n'], has full column
    # rank, so that complex has no homology above spot n'.
    cx, deltas = built_deltas(datum)
    for parity in ("even", "odd"):
        kept = len(deltas[parity]) - 1
        assert kept + cx.zeros[parity] == cx.n
        for j in range(2, kept + 2):
            prod = deltas[parity][j - 2] @ deltas[parity][j - 1]
            assert prod == IntMatrix.zeros(prod.rows, prod.cols)
        last = deltas[parity][kept]
        flat = [x for row in last.entries for x in row]
        assert Matrix(last.rows, last.cols, flat).rank() == last.cols


@given(st.one_of(_cyclic_power_datum(), _lifted_datum()), st.data())
@example(noncommuting_datum(), None)
@example(_hidden_zero_datum(), None)
def test_datum_path_matches_cycle_lattice_oracle(datum, data):
    if data is not None and data.draw(st.booleans()):
        datum = ModuleDatum(
            _with_redundant_relations(datum.even, data),
            _with_redundant_relations(datum.odd, data),
            datum.endos,
        )
    expected = oracle.cohomology(datum)
    kernels = {d: oracle.level_kernel(datum, d) for d in range(1, datum.n + 1)}
    assert datum_cohomology(datum) == expected
    cx = build_datum(datum)
    assert {d: datum_spot_kernel(cx, d) for d in kernels} == kernels
    report = pv_tower(datum)
    assert list(report.cohomology) == expected
    for level in report.levels:
        top = datum.n - level.level
        terms = [(h, d, 1) for d, h in enumerate(expected[:top])] + [(kernels[top], top, 1)]
        assert level.group == split_sum(terms)


class TestTower:
    def test_rank_one_tower_degenerates_to_rank1(self):
        rng = random.Random(3)
        for _ in range(10):
            even = rng.choice([[[1]], [[-1]]])
            datum = free_datum(1, 1, [(even, [[1]])])
            assert pv_tower(datum).final == pv_rank1(datum).group

    def test_two_torus(self):
        report = pv_tower(torus_datum(2))
        assert report.final == GradedGroup(Z(2), Z(2))
        assert not report.ambiguous

    def test_torus_shadow_matches_iterated_oracle(self):
        for n in range(1, 5):
            datum = torus_datum(n)
            report = pv_tower(datum)
            oracle = iterate_rank1(datum)
            assert report.final == oracle.group
            assert report.final == GradedGroup(Z(2 ** (n - 1)), Z(2 ** (n - 1)))

    def test_trivial_action_kunneth_rank(self):
        # Identity actions on K of total rank r: final rank 2^n * r, split
        # evenly between parities.
        for n in (1, 2, 3):
            for even_rank, odd_rank in ((2, 0), (1, 1), (2, 1)):
                ident = [[1 if a == b else 0 for b in range(even_rank)] for a in range(even_rank)]
                ident_o = [[1 if a == b else 0 for b in range(odd_rank)] for a in range(odd_rank)]
                datum = free_datum(even_rank, odd_rank, [(ident, ident_o)] * n)
                final = pv_tower(datum).final
                r = even_rank + odd_rank
                assert final.even.free_rank + final.odd.free_rank == 2 ** n * r
                assert final.even.free_rank == final.odd.free_rank == 2 ** (n - 1) * r

    def test_levels_count_and_flags(self):
        report = pv_tower(torus_datum(3))
        assert [lvl.level for lvl in report.levels] == [2, 1]
        assert all(not lvl.ambiguous for lvl in report.levels)

    def test_euler_identity_on_unflagged_runs(self):
        rng = random.Random(11)
        for _ in range(20):
            datum = _random_commuting_datum(rng, n=2)
            report = pv_tower(datum)
            if report.ambiguous:
                continue
            chi = euler_characteristic(list(report.cohomology))
            assert report.final.even.free_rank - report.final.odd.free_rank == chi

    def test_order_invariance_small_ranks(self):
        rng = random.Random(23)
        for n in (2, 3):
            for _ in range(12):
                datum = _random_commuting_datum(rng, n=n)
                report = pv_tower(datum)
                results = []
                flagged = report.ambiguous
                for order in itertools.permutations(range(n)):
                    res = iterate_rank1(datum, list(order))
                    flagged = flagged or res.ambiguous
                    results.append(res.group)
                if flagged:
                    continue
                assert all(g == report.final for g in results)

    def test_permuting_endomorphisms_permutes_nothing(self):
        rng = random.Random(5)
        for _ in range(8):
            datum = _random_commuting_datum(rng, n=3)
            base = pv_tower(datum)
            for order in itertools.permutations(range(3)):
                permuted = ModuleDatum(
                    datum.even, datum.odd, tuple(datum.endos[i] for i in order)
                )
                report = pv_tower(permuted)
                assert report.final == base.final
                assert [l.group for l in report.levels] == [l.group for l in base.levels]

    def test_flagged_tower_reports_obstruction(self):
        pres = Presentation.of(1, [[2]])
        datum = ModuleDatum(
            pres,
            Presentation.free(0),
            tuple(
                GradedEndo(IntMatrix.identity(1), IntMatrix.identity(0))
                for _ in range(2)
            ),
        )
        report = pv_tower(datum)
        assert report.ambiguous
        assert any("torsion" in r for r in report.reasons)


def _random_commuting_datum(rng, n):
    """Commuting automorphisms as signed powers of one unimodular matrix."""
    g = rng.randint(1, 2)
    base = IntMatrix.identity(g)
    for _ in range(2):
        i, j = rng.randrange(g), rng.randrange(g)
        if i == j:
            continue
        e = [[1 if a == b else 0 for b in range(g)] for a in range(g)]
        e[i][j] = rng.randint(-2, 2)
        base = base @ IntMatrix.from_rows(e, g)
    powers = [base]
    for _ in range(3):
        powers.append(powers[-1] @ base)
    endos = []
    for _ in range(n):
        mat = rng.choice(powers)
        if rng.random() < 0.4:
            mat = mat.scale(-1)
        endos.append(GradedEndo(mat, IntMatrix.identity(0)))
    return ModuleDatum(Presentation.free(g), Presentation.free(0), tuple(endos))


class TestShape:
    def test_rank_one_triangle(self):
        shape = tower_shape(1, 1)
        kinds = [o.kind for o in shape.objects]
        assert kinds == ["trivial-coefficient", "trivial-coefficient", "crossed-product"]
        assert shape.coefficient_multiplicities() == [1, 1]

    def test_rank_two_multiplicities(self):
        shape = tower_shape(2, 2)
        assert shape.coefficient_multiplicities() == [2, 4, 2]

    def test_multiplicity_row_binomial(self):
        for n in range(1, 9):
            for w in (1, 3):
                shape = tower_shape(n, w)
                mults = shape.coefficient_multiplicities()
                assert mults == [
                    w * len(list(itertools.combinations(range(n), i - 1)))
                    for i in range(1, n + 2)
                ]

    def test_dual_labels(self):
        shape = tower_shape(1, 2, dual=True)
        assert shape.coefficient_multiplicities() == [2, 2]
        labels = [o.label for o in shape.objects]
        assert labels[0] == "C^2 (x) t(A)"
        assert labels[-1] == "A >< Ghat"

    def test_d_terms_between_triangles(self):
        shape = tower_shape(3, 1)
        d_levels = [o.label for o in shape.objects if o.kind == "D-term"]
        assert d_levels == ["S^3 D_2(A)", "S^3 D_1(A)"]

    def test_validation(self):
        with pytest.raises(ValueError):
            tower_shape(0, 1)
        with pytest.raises(ValueError):
            tower_shape(1, 0)
