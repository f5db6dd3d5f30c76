"""Exterior basis order, contraction terms, contraction matrices."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from pvtower.exterior import Covector, contraction_terms, koszul_matrix
from pvtower.ring import P, one_minus_var

from conftest import covector_strategy


class TestBasis:
    def test_degree_zero(self):
        # wedge^0 has the single basis element (), so every term lands in row 0.
        assert {r for r, _, _, _ in contraction_terms(5, 1)} == {0}
        assert koszul_matrix(Covector.standard(5), 1).rows == 1

    def test_counts(self):
        assert len({c for _, c, _, _ in contraction_terms(4, 2)}) == 6
        for n in range(1, 7):
            for j in range(1, n + 1):
                terms = list(contraction_terms(n, j))
                assert {c for _, c, _, _ in terms} == set(range(comb(n, j)))
                assert {r for r, _, _, _ in terms} == set(range(comb(n, j - 1)))
                assert len(terms) == j * comb(n, j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            contraction_terms(3, 4)
        with pytest.raises(ValueError):
            contraction_terms(3, -1)


class TestKoszulMatrix:
    def test_rank_one(self):
        m = koszul_matrix(Covector.standard(1), 1)
        assert (m.rows, m.cols) == (1, 1)
        assert m.entry(0, 0) == one_minus_var(1, 1)

    def test_rank_two_top_column(self):
        m = koszul_matrix(Covector.standard(2), 2)
        assert (m.rows, m.cols) == (2, 1)
        assert m.entry(0, 0) == -one_minus_var(2, 2)
        assert m.entry(1, 0) == one_minus_var(1, 2)

    @given(covector_strategy(4))
    @settings(max_examples=25)
    def test_consecutive_product_vanishes(self, v):
        for j in range(2, 5):
            assert (koszul_matrix(v, j - 1) @ koszul_matrix(v, j)).is_zero

    def test_consecutive_product_vanishes_up_to_rank_six(self):
        import random

        from pvtower.ring import LaurentPoly

        rng = random.Random(64)
        for n in (5, 6):
            entries = tuple(
                LaurentPoly(
                    n,
                    {
                        tuple(rng.randint(-1, 1) for _ in range(n)): rng.randint(-3, 3)
                        for _ in range(2)
                    },
                )
                for _ in range(n)
            )
            v = Covector(entries, n)
            for j in range(2, n + 1):
                assert (koszul_matrix(v, j - 1) @ koszul_matrix(v, j)).is_zero

    def test_shapes(self):
        for n in range(1, 7):
            v = Covector.standard(n)
            for j in range(1, n + 1):
                m = koszul_matrix(v, j)
                assert (m.rows, m.cols) == (comb(n, j - 1), comb(n, j))

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            koszul_matrix(Covector.standard(2), 3)

    @given(covector_strategy(3))
    @settings(max_examples=25)
    def test_specialization_commutes(self, v):
        # The residues mod P of 2, 3/2 and -5/3.
        point = [2, 3 * pow(2, -1, P) % P, -5 * pow(3, -1, P) % P]
        evaluated_entries = [p.evaluate(point) for p in v.entries]
        for j in range(1, 4):
            symbolic = koszul_matrix(v, j).evaluate(point)
            direct = _koszul_mod_p(evaluated_entries, 3, j)
            assert symbolic == direct


def _koszul_mod_p(values, n, j):
    """Contraction matrix over F_P built directly from the sign rule."""
    rows = list(combinations(range(1, n + 1), j - 1))
    cols = list(combinations(range(1, n + 1), j))
    pos = {S: r for r, S in enumerate(rows)}
    grid = [[0] * len(cols) for _ in rows]
    for c, S in enumerate(cols):
        for p, s in enumerate(S, start=1):
            sign = -1 if p % 2 == 0 else 1
            r = pos[tuple(x for x in S if x != s)]
            grid[r][c] = (grid[r][c] + sign * values[s - 1]) % P
    return grid
