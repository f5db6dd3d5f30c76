"""Cubical face combinatorics and the cochain-vs-contraction comparison."""

from math import comb

import pytest

from pvtower import cubical, exterior
from pvtower.abgroup import FGAbelianGroup, IntMatrix, homology
from pvtower.cubical import (
    cellular_differential,
    enumerate_faces,
    face_boundary,
    oracle_compare,
)
from pvtower.ring import PolyMatrix, one_minus_var


class TestFaces:
    def test_edges_through_origin(self):
        assert enumerate_faces(3, 1) == [(1,), (2,), (3,)]

    def test_squares_in_lexicographic_order(self):
        assert enumerate_faces(3, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_origin_vertex(self):
        for n in (2, 5):
            assert enumerate_faces(n, 0) == [()]

    def test_binomial_count(self):
        assert len(enumerate_faces(5, 2)) == 10

    def test_counts_match_binomial_row(self):
        for n in range(1, 9):
            assert [len(enumerate_faces(n, d)) for d in range(n + 1)] == [
                comb(n, d) for d in range(n + 1)
            ]

    def test_dimension_out_of_range(self):
        for d in (4, -1):
            with pytest.raises(ValueError):
                enumerate_faces(3, d)


class TestFaceBoundary:
    def test_orientation_rule(self):
        # Dropping the p-th free coordinate carries the sign (-1)^(p-1); each
        # dropped coordinate gives the face at 0 and its translate at 1.
        assert face_boundary((1, 3)) == [
            ((3,), 1, 1, False),
            ((3,), 1, 1, True),
            ((1,), 3, -1, False),
            ((1,), 3, -1, True),
        ]
        assert [(part.face, part.sign) for part in face_boundary((1, 2, 4))][::2] == [
            ((2, 4), 1),
            ((1, 4), -1),
            ((1, 2), 1),
        ]
        assert face_boundary(()) == []


class TestCellularDifferential:
    def test_rank_one(self):
        m = cellular_differential(1, 1)
        assert (m.rows, m.cols) == (1, 1)
        assert m.entry(0, 0) == one_minus_var(1, 1)

    def test_square_boundary_column(self):
        # Enumerating the four boundary edges of the square and their deck
        # translations gives ((1 - t1), -(1 - t2)) up to diagonal signs.
        m = cellular_differential(2, 2)
        assert (m.rows, m.cols) == (2, 1)
        a = m.entry(0, 0)
        b = m.entry(1, 0)
        assert a in (-one_minus_var(2, 2), one_minus_var(2, 2))
        assert b in (one_minus_var(1, 2), -one_minus_var(1, 2))

    def test_complex_closes(self):
        for n in range(1, 5):
            for d in range(2, n + 1):
                prod = cellular_differential(n, d - 1) @ cellular_differential(n, d)
                assert prod.is_zero


def _tampered(change):
    """koszul_matrix with ``change`` applied to the entries of d_2."""

    def build(v, j):
        m = exterior.koszul_matrix(v, j)
        if j != 2:
            return m
        entries = dict(m.entries)
        change(entries)
        return PolyMatrix(m.rows, m.cols, m.nvars, entries)

    return build


def _drop_first(entries):
    del entries[next(iter(entries))]


def _double_first(entries):
    key = next(iter(entries))
    entries[key] = 2 * entries[key]


class TestOracle:
    def test_matches_contraction_small_ranks(self):
        for n in range(1, 5):
            assert oracle_compare(n)

    def test_matches_contraction_up_to_rank_ten(self):
        for n in range(5, 11):
            assert oracle_compare(n)

    @pytest.mark.parametrize("change", [_drop_first, _double_first], ids=["missing", "doubled"])
    def test_tampered_contraction_rejected(self, monkeypatch, change):
        # A missing entry is nonzero only in the cellular matrix; a doubled one
        # differs from its cellular entry by more than a sign.
        monkeypatch.setattr(cubical, "koszul_matrix", _tampered(change))
        assert not oracle_compare(3)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            oracle_compare(0)


def test_all_ones_specialization_gives_torus_homology():
    # Sending every deck variable to 1 leaves the reduced differentials of the
    # quotient torus, which vanish; homology ranks are the binomial row.
    for n in range(1, 5):
        mats = []
        for d in range(1, n + 1):
            evaluated = cellular_differential(n, d).evaluate([1] * n)
            mats.append(
                IntMatrix.from_rows([[int(x) for x in row] for row in evaluated], comb(n, d))
            )
        for d in range(n + 1):
            d_out = mats[d - 1] if d >= 1 else IntMatrix.zeros(0, 1)
            d_in = mats[d] if d < n else IntMatrix.zeros(comb(n, n), 0)
            assert homology(d_in, d_out) == FGAbelianGroup.free(comb(n, d))
