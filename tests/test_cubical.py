"""Cubical face combinatorics and the cochain-vs-contraction comparison."""

from math import comb
from operator import add

import pytest

from pvtower import cli, cubical, exterior
from pvtower.abgroup import FGAbelianGroup, IntMatrix
from pvtower.cubical import (
    cellular_differential,
    enumerate_faces,
    face_boundary,
    oracle_compare,
)

from conftest import homology


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
        # triple stands for the face at 0 and its translate at 1.
        assert face_boundary((1, 3)) == [((3,), 1, 1), ((1,), 3, -1)]
        assert face_boundary((1, 2, 4)) == [((2, 4), 1, 1), ((1, 4), 2, -1), ((1, 2), 4, 1)]
        assert face_boundary(()) == []


def _compose(a, b):
    """Product of two matrices of term maps {(row, col): {exponents: coefficient}}."""
    out = {}
    for (r, k), p in a.items():
        for (k2, c), q in b.items():
            if k != k2:
                continue
            terms = out.setdefault((r, c), {})
            for e, x in p.items():
                for f, y in q.items():
                    g = tuple(map(add, e, f))
                    terms[g] = terms.get(g, 0) + x * y
    return out


class TestCellularDifferential:
    def test_rank_one(self):
        # 1 - t1
        assert cellular_differential(1, 1) == {(0, 0): {(0,): 1, (1,): -1}}

    def test_square_boundary_column(self):
        # Enumerating the four boundary edges of the square and their deck
        # translations gives -(1 - t2) on the edge (1,) and 1 - t1 on (2,).
        assert cellular_differential(2, 2) == {
            (0, 0): {(0, 0): -1, (0, 1): 1},
            (1, 0): {(0, 0): 1, (1, 0): -1},
        }

    def test_complex_closes(self):
        for n in range(1, 5):
            for d in range(2, n + 1):
                prod = _compose(cellular_differential(n, d - 1), cellular_differential(n, d))
                assert all(x == 0 for terms in prod.values() for x in terms.values())


def _tampered(change):
    """contraction_terms with ``change(j, terms)`` applied to each degree's term list."""

    def terms(n, j):
        return change(j, list(exterior.contraction_terms(n, j)))

    return terms


def _scale_first(factor):
    def change(j, terms):
        if j == 2:
            r, c, s, sign = terms[0]
            terms[0] = (r, c, s, factor * sign)
        return terms

    return change


def _drop_first(j, terms):
    return terms[1:] if j == 2 else terms


def _flip_basis_element(j, terms):
    # Negating the first spot-2 basis element negates column 0 of d_2 and
    # row 0 of d_3.
    return [
        (r, c, s, -sign if (j, c) == (2, 0) or (j, r) == (3, 0) else sign)
        for r, c, s, sign in terms
    ]


class TestOracle:
    def test_matches_contraction_small_ranks(self):
        for n in range(1, 5):
            assert oracle_compare(n)

    def test_matches_contraction_up_to_cli_cap(self):
        for n in range(5, cli._ORACLE_N.stop):
            assert oracle_compare(n)

    @pytest.mark.parametrize(
        "change",
        [_drop_first, _scale_first(2), _scale_first(-1)],
        ids=["missing", "doubled", "lone_flip"],
    )
    def test_tampered_contraction_rejected(self, monkeypatch, change):
        # A missing entry is nonzero only in the cellular matrix; a doubled one
        # differs from its cellular entry by more than a sign; one flipped
        # entry of d_2 disagrees with the other entry of its column.
        monkeypatch.setattr(cubical, "contraction_terms", _tampered(change))
        assert not oracle_compare(3)

    def test_diagonal_sign_change_accepted(self, monkeypatch):
        monkeypatch.setattr(cubical, "contraction_terms", _tampered(_flip_basis_element))
        assert oracle_compare(3)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            oracle_compare(0)


def test_all_ones_specialization_gives_torus_homology():
    # Sending every deck variable to 1 leaves the reduced differentials of the
    # quotient torus, which vanish; homology ranks are the binomial row.
    for n in range(1, 5):
        mats = []
        for d in range(1, n + 1):
            m = cellular_differential(n, d)
            rows, cols = comb(n, d - 1), comb(n, d)
            mats.append(
                IntMatrix.from_rows(
                    [[sum(m.get((r, c), {}).values()) for c in range(cols)] for r in range(rows)],
                    cols,
                )
            )
        for d in range(n + 1):
            d_out = mats[d - 1] if d >= 1 else IntMatrix.zeros(0, 1)
            d_in = mats[d] if d < n else IntMatrix.zeros(comb(n, n), 0)
            assert homology(d_in, d_out) == FGAbelianGroup.free(comb(n, d))
