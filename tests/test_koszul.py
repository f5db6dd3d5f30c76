"""Koszul complexes: symbolic builder, datum cohomology, zero directions, rank witnesses."""

import random
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from sympy import Matrix

from pvtower.abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    cokernel,
    rational_rank,
    solve_exact,
    split_sum,
)
from pvtower.exterior import Covector
from pvtower.koszul import (
    DatumError,
    GradedEndo,
    ModuleDatum,
    Presentation,
    build_datum,
    build_symbolic,
    datum_cohomology,
    endpoint_augmentation_surjective,
    generic_rank_exactness,
    _rank_mod_p,
    _sample_point,
)
from pvtower.ring import P, LaurentPoly, one_minus_var

from conftest import covector_strategy, int_matrix_strategy, product_vanishes_at
from cycle_lattice_oracle import koszul_differential, spot_relations

Z = FGAbelianGroup.free


def free_datum(even_rank, odd_rank, endo_pairs):
    endos = tuple(
        GradedEndo(IntMatrix.from_rows(e, even_rank), IntMatrix.from_rows(o, odd_rank))
        for e, o in endo_pairs
    )
    return ModuleDatum(Presentation.free(even_rank), Presentation.free(odd_rank), endos)


def noncommuting_datum(m=2):
    """(Z/m)^2, m = 2 or 4, with lifts whose commutator [[4, 0], [0, -4]] lies in the relations.

    Both lifts are I modulo 2, so on (Z/2)^2 they act as 0; on (Z/4)^2 neither does.
    """
    pres = Presentation.of(2, [[m, 0], [0, m]])
    b1 = IntMatrix.from_rows([[1, 2], [0, 1]])
    b2 = IntMatrix.from_rows([[1, 0], [2, 1]])
    empty = IntMatrix.identity(0)
    return ModuleDatum(pres, Presentation.free(0), (GradedEndo(b1, empty), GradedEndo(b2, empty)))


def total_matrix(cx, parity, j):
    """delta_j of the complex ``build_datum`` built for one parity, as an IntMatrix."""
    kept, basis = len(cx.deltas[parity]) - 1, cx.datum.lattice_action[parity][0]
    cols = comb(kept, j) * basis.rows + comb(kept, j - 1) * basis.cols
    return IntMatrix.from_rows([[row.get(c, 0) for c in range(cols)]
                                for row in cx.deltas[parity][j - 1]], cols)


class TestSymbolic:
    def test_rank_one_complex(self):
        cx = build_symbolic(Covector.standard(1))
        m = cx.differential(1)
        assert m.entries[0, 0] == one_minus_var(1, 1)

    @given(covector_strategy(3))
    @settings(max_examples=20)
    def test_random_covector_complex_closes(self, v):
        cx = build_symbolic(v)
        rng = random.Random(3)
        point = [rng.randrange(1, P) for _ in range(3)]
        for j in range(1, 3):
            assert product_vanishes_at(cx.differential(j), cx.differential(j + 1), point)

    def test_contraction_sign_rule_closes_through_rank_8(self):
        # Neither builder checks d_j d_{j+1} = 0; both take their signs from
        # contraction_terms.  The nonzero commuting scalars 1 - beta_i = -i make
        # every entry of d_j d_{j+1} a sum of two equal products, which cancel
        # only when the signs are right.  No direction acts as 0 and the even
        # part is free, so its built delta_j is the whole d_j.
        for n in range(1, 9):
            cx = build_datum(free_datum(1, 0, [([[i + 1]], []) for i in range(1, n + 1)]))
            assert cx.zeros == {"even": 0, "odd": 0}
            for j in range(1, n):
                d_j, d_next = total_matrix(cx, "even", j), total_matrix(cx, "even", j + 1)
                assert (d_j.rows, d_j.cols) == (comb(n, j - 1), comb(n, j))
                prod = d_j @ d_next
                assert prod == IntMatrix.zeros(prod.rows, prod.cols), (n, j)


class TestDatum:
    def test_identity_action_rank_one(self):
        # d_1 = 0: the direction is split off and the even complex is Z alone.
        datum = free_datum(1, 0, [([[1]], [])])
        cx = build_datum(datum)
        assert cx.zeros == {"even": 1, "odd": 0}
        assert cx.deltas["even"] == ([{}],)
        assert [g.even for g in datum_cohomology(datum)] == [Z(1), Z(1)]

    def test_negation_action_gives_two(self):
        datum = free_datum(1, 0, [([[-1]], [])])
        cx = build_datum(datum)
        assert cx.zeros == {"even": 0, "odd": 0}
        assert total_matrix(cx, "even", 1).entries == ((2,),)

    def test_rank_two_identity_cohomology_is_exterior_algebra(self):
        datum = free_datum(1, 0, [([[1]], []), ([[1]], [])])
        cx = build_datum(datum)
        assert cx.zeros == {"even": 2, "odd": 0}
        assert cx.deltas["even"] == ([{}],)
        groups = datum_cohomology(datum)
        assert [g.even for g in groups] == [Z(1), Z(2), Z(1)]
        assert all(g.odd.is_trivial for g in groups)

    def test_trivial_rank_16_builds_no_direction(self):
        # Every beta_i = 1 on (Z, Z): both parities split all 16 directions off,
        # build one delta each, and spot d carries C(16, d) copies of Z.
        datum = free_datum(1, 1, [([[1]], [[1]])] * 16)
        cx = build_datum(datum)
        assert cx.zeros == {"even": 16, "odd": 16}
        assert [len(cx.deltas[p]) for p in ("even", "odd")] == [1, 1]
        groups = datum_cohomology(datum)
        assert groups == [GradedGroup(Z(comb(16, d)), Z(comb(16, d))) for d in range(17)]

    def test_graded_identity_rank_one(self):
        datum = free_datum(1, 1, [([[1]], [[1]])])
        groups = datum_cohomology(datum)
        expected = GradedGroup(Z(1), Z(1))
        assert groups == [expected, expected]

    def test_doubling_and_identity_pair(self):
        # (1 - beta_1, 1 - beta_2) = (-1, 0) on Z: the unit entry makes the
        # whole complex contractible; the SNF oracle on the explicit 2x1 and
        # 1x2 matrices confirms every spot vanishes.
        datum = free_datum(1, 0, [([[2]], []), ([[1]], [])])
        groups = datum_cohomology(datum)
        assert all(g.even.is_trivial and g.odd.is_trivial for g in groups)

    def test_unit_one_minus_beta_kills_everything(self):
        datum = free_datum(1, 0, [([[2]], [])])
        groups = datum_cohomology(datum)
        assert all(g.even.is_trivial for g in groups)

    def test_torsion_coefficients(self):
        # K_even = Z/4, beta = id: differentials vanish, cohomology = Z/4 twice.
        pres = Presentation.of(1, [[4]])
        datum = ModuleDatum(
            pres, Presentation.free(0), (GradedEndo(IntMatrix.identity(1), IntMatrix.identity(0)),)
        )
        groups = datum_cohomology(datum)
        assert [g.even for g in groups] == [FGAbelianGroup(0, (4,))] * 2

    def test_identity_actions_give_exterior_tensor_coefficients(self):
        # All beta = id on K = Z (+) Z/4: spot j carries C(n, j) copies of K.
        pres = Presentation.of(2, [[0, 4]])
        k_group = cokernel(pres.relations)
        ident = GradedEndo(IntMatrix.identity(2), IntMatrix.identity(0))
        datum = ModuleDatum(pres, Presentation.free(0), (ident, ident))
        groups = datum_cohomology(datum)
        for j, g in enumerate(groups):
            copies = comb(2, j)
            assert g.even == FGAbelianGroup.from_invariants(
                k_group.free_rank * copies, k_group.torsion * copies
            )
            assert g.odd.is_trivial

    def test_relations_acted_on(self):
        # K_even = Z/5, beta = multiplication by 2 (an automorphism of Z/5);
        # 1 - beta = -1 is invertible mod 5, so cohomology vanishes.
        pres = Presentation.of(1, [[5]])
        datum = ModuleDatum(
            pres,
            Presentation.free(0),
            (GradedEndo(IntMatrix.from_rows([[2]]), IntMatrix.identity(0)),),
        )
        groups = datum_cohomology(datum)
        assert all(g.even.is_trivial for g in groups)

    def test_non_commuting_rejected(self):
        with pytest.raises(DatumError):
            free_datum(2, 0, [([[1, 1], [0, 1]], []), ([[1, 0], [1, 1]], [])])

    def test_commuting_modulo_relations(self):
        # On (Z/2)^2 the commutator [[4, 0], [0, -4]] of these lifts lies in
        # the relation lattice, so the datum is accepted and d_1 d_2, which
        # is made of that commutator, vanishes only modulo the relations.
        # Both lifts are I modulo 2, so build_datum splits both directions off.
        datum = noncommuting_datum()
        pres = datum.even
        assert build_datum(datum).zeros == {"even": 2, "odd": 0}
        prod = koszul_differential(datum, 1, "even") @ koszul_differential(datum, 2, "even")
        assert prod != IntMatrix.zeros(prod.rows, prod.cols)
        rel = spot_relations(datum, 0, "even")  # d_1 d_2 lands in spot 0
        assert rel @ solve_exact(rel, prod) == prod
        # beta = id mod 2, so spot j carries C(2, j) copies of (Z/2)^2.
        groups = datum_cohomology(datum)
        assert [g.even for g in groups] == [
            FGAbelianGroup.from_invariants(0, cokernel(pres.relations).torsion * comb(2, j)) for j in range(3)
        ]
        assert all(g.odd.is_trivial for g in groups)

    def test_commutator_outside_relations_rejected(self):
        # Here the commutator is [[1, 0], [0, -1]], which is not in 2Z^2.
        pres = Presentation.of(2, [[2, 0], [0, 2]])
        empty = IntMatrix.identity(0)
        endos = (
            GradedEndo(IntMatrix.from_rows([[1, 1], [0, 1]]), empty),
            GradedEndo(IntMatrix.from_rows([[1, 0], [1, 1]]), empty),
        )
        with pytest.raises(DatumError, match=r"do not commute \(even part\)"):
            ModuleDatum(pres, Presentation.free(0), endos)

    def test_ill_defined_on_quotient_rejected(self):
        # Z/2 with beta sending the generator to half of it cannot happen;
        # use relations [[2]] and a matrix that does not preserve 2Z.
        pres = Presentation.of(2, [[2, 0]])
        bad = IntMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(DatumError):
            ModuleDatum(
                pres,
                Presentation.free(0),
                (GradedEndo(bad, IntMatrix.identity(0)),),
            )

    def test_ill_defined_reported_before_non_commuting(self):
        # The even parts do not commute modulo 2Z^2, and the odd swap does not
        # preserve the odd relation lattice Z(2, 0).  Every well-definedness
        # check runs before any commutator check.
        even = Presentation.of(2, [[2, 0], [0, 2]])
        odd = Presentation.of(2, [[2, 0]])
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        endos = (
            GradedEndo(IntMatrix.from_rows([[1, 1], [0, 1]]), swap),
            GradedEndo(IntMatrix.from_rows([[1, 0], [1, 1]]), IntMatrix.identity(2)),
        )
        with pytest.raises(
            DatumError, match=r"^endos\[0\]\.odd does not preserve the relation lattice$"
        ):
            ModuleDatum(even, odd, endos)


class TestJSONSchema:
    def test_relation_rows_read_as_columns(self):
        # Each relation row is one column of Presentation.relations; endomorphism
        # rows are matrix rows.  Read the other way round, the relations would
        # be [[2, 1], [0, 3]] and the endomorphism would not preserve them.
        obj = {
            "n": 1,
            "even": {"free_rank": 2, "relations": [[2, 1], [0, 3]]},
            "odd": {"free_rank": 1, "relations": []},
            "endos": [{"even": [[1, 0], [3, 1]], "odd": [[-1]]}],
        }
        expected = ModuleDatum(
            Presentation(2, IntMatrix.from_rows([[2, 0], [1, 3]])),
            Presentation.free(1),
            (GradedEndo(IntMatrix.from_rows([[1, 0], [3, 1]]), IntMatrix.from_rows([[-1]])),),
        )
        assert ModuleDatum.from_json_dict(obj) == expected

    def test_unknown_field_rejected(self):
        obj = {
            "n": 1,
            "even": {"free_rank": 1, "relations": []},
            "odd": {"free_rank": 0, "relations": []},
            "endos": [{"even": [[1]], "odd": []}],
            "extra": 1,
        }
        with pytest.raises(DatumError, match="^datum: unknown field 'extra'$"):
            ModuleDatum.from_json_dict(obj)

    def test_wrong_row_length_rejected(self):
        obj = {
            "n": 1,
            "even": {"free_rank": 2, "relations": [[1]]},
            "odd": {"free_rank": 0, "relations": []},
            "endos": [{"even": [[1, 0], [0, 1]], "odd": []}],
        }
        with pytest.raises(DatumError):
            ModuleDatum.from_json_dict(obj)


class TestSplitReduction:
    """Zero covector directions, split off by build_datum and added back as binomial copies."""

    def test_all_zero(self):
        # Both beta_i = I on Z: both directions act as 0, the built complex is
        # Z alone, and the cohomology is the exterior algebra wedge* Z^2.
        datum = free_datum(1, 0, [([[1]], []), ([[1]], [])])
        assert datum_cohomology(datum) == [GradedGroup(Z(1)), GradedGroup(Z(2)), GradedGroup(Z(1))]

    def test_convolution_matches_direct_datum_computation(self):
        # One honest direction and one zero direction on K = Z^2: dropping the
        # zero direction and tensoring with wedge* Z^1 must reproduce the direct
        # two-variable cohomology exactly.
        swap = [[0, 1], [1, 0]]
        ident = [[1, 0], [0, 1]]
        full = free_datum(2, 0, [(swap, []), (ident, [])])
        reduced = free_datum(2, 0, [(swap, [])])
        direct = datum_cohomology(full)
        assert direct == _tensor_with_exterior(datum_cohomology(reduced), 1)


def _tensor_with_exterior(spot_groups, z):
    """Spot d collects C(z, d - i) unshifted copies of spot i: tensoring with wedge* Z^z."""
    return [split_sum((g, 0, comb(z, d - i)) for i, g in enumerate(spot_groups) if 0 <= d - i <= z)
            for d in range(len(spot_groups) + z)]


class TestGenericRank:
    def test_regular_covector_consistent(self):
        cx = build_symbolic(Covector.standard(3))
        report = generic_rank_exactness(cx, trials=8, seed=0)
        assert report.all_consistent
        assert endpoint_augmentation_surjective(cx)

    def test_rank_one_observed_rank(self):
        cx = build_symbolic(Covector.standard(1))
        report = generic_rank_exactness(cx, trials=4, seed=1)
        assert report.spots[0].observed_rank == 1

    def test_unit_entry_contracts_under_substitution(self):
        # (0, 1 - t2) evaluates to a covector with an invertible entry, so the
        # sampled complexes are exact everywhere and the rank bookkeeping is
        # consistent; the surviving torsion cohomology is invisible over Q and
        # is covered by the exact datum-mode route instead.
        v = Covector((LaurentPoly(2), one_minus_var(2, 2)), 2)
        report = generic_rank_exactness(build_symbolic(v), trials=6, seed=0)
        assert report.all_consistent

    def test_trials_validated(self):
        cx = build_symbolic(Covector.standard(2))
        with pytest.raises(ValueError):
            generic_rank_exactness(cx, trials=0)

    def test_seeded_determinism(self):
        cx = build_symbolic(Covector.standard(3))
        a = generic_rank_exactness(cx, trials=5, seed=42)
        b = generic_rank_exactness(cx, trials=5, seed=42)
        assert a == b

    def test_datum_mode_rejected(self):
        datum = free_datum(1, 0, [([[1]], [])])
        with pytest.raises(ValueError):
            generic_rank_exactness(build_datum(datum))

    def test_standard_covector_closed_form(self):
        # (1 - t_1, ..., 1 - t_n) is regular, so d_j has rank C(n-1, j-1).
        for n in range(1, 9):
            report = generic_rank_exactness(build_symbolic(Covector.standard(n)), trials=8, seed=0)
            for s in report.spots:
                assert s.observed_rank == comb(n - 1, s.spot - 1)
                assert s.consistent

    def test_evaluates_each_entry_once_per_trial(self, monkeypatch):
        # Each d_j holds the entries v_i and their negations; a negation's
        # value is read off its entry's, so a trial evaluates n polynomials.
        calls = []
        value = LaurentPoly._value
        monkeypatch.setattr(LaurentPoly, "_value", lambda p, coords: calls.append(p) or value(p, coords))
        generic_rank_exactness(build_symbolic(Covector.standard(8)), trials=64, seed=0)
        assert len(calls) == 8 * 64

    def test_zero_covector_never_passes(self):
        for n in range(1, 5):
            v = Covector(tuple(LaurentPoly(n) for _ in range(n)), n)
            report = generic_rank_exactness(build_symbolic(v), trials=8, seed=0)
            assert [(s.observed_rank, s.consistent) for s in report.spots] == [(0, False)] * n

    def test_sample_point_avoids_zero_and_one(self):
        for seed in range(200):
            point = _sample_point(random.Random(seed), 8)
            assert len(point) == 8
            assert all(x % P not in (0, 1) for x in point)


@st.composite
def deficient_int_rows(draw):
    """Integer matrices up to 8x8, entries in -9..9, some with a repeated or zero row."""
    grid = [list(row) for row in draw(int_matrix_strategy(max_dim=8)).entries]
    deficiency = draw(st.sampled_from((None, "repeat", "zero")))
    target = draw(st.integers(0, len(grid) - 1))
    if deficiency == "repeat" and len(grid) > 1:
        source = draw(st.integers(0, len(grid) - 1).filter(lambda i: i != target))
        grid[target] = list(grid[source])
    elif deficiency == "zero":
        grid[target] = [0] * len(grid[0])
    return grid


@given(deficient_int_rows())
@settings(max_examples=200)
def test_rank_mod_p_matches_rational_rank(grid):
    # Hadamard: every minor is at most 9^8 * 8^4 < 1.8e11 < P in absolute
    # value, so no nonzero minor vanishes mod P and the ranks agree exactly.
    rows = [{c: x % P for c, x in enumerate(row) if x % P} for row in grid]
    assert _rank_mod_p(rows) == Matrix(grid).rank() == rational_rank(grid)
