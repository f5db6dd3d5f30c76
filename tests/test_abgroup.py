"""Smith normal form, group canonical forms, homology of integer complexes."""

import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from sympy import Matrix

from pvtower.abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    cokernel,
    kernel_basis,
    normalize_invariant_factors,
    rational_rank,
    snf,
    split_sum,
    subquotient,
)

from conftest import homology, int_matrix_strategy


def assert_snf_contract(m: IntMatrix) -> None:
    s = snf(m)
    assert (s.U @ s.D @ s.V).entries == m.entries
    assert (s.U @ s.Uinv).entries == IntMatrix.identity(m.rows).entries
    assert (s.V @ s.Vinv).entries == IntMatrix.identity(m.cols).entries
    diag = s.diag
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i in range(s.D.rows):
        for j in range(s.D.cols):
            if i != j:
                assert s.D.entries[i][j] == 0


class TestSNF:
    def test_identity(self):
        s = snf(IntMatrix.identity(3))
        assert s.diag == (1, 1, 1)

    def test_worked_two_by_two(self):
        # By hand: gcd of entries 2, |det| = 8, so the chain is (2, 4).
        s = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert s.diag == (2, 4)
        assert_snf_contract(IntMatrix.from_rows([[2, 4], [6, 8]]))

    def test_zero_matrix(self):
        s = snf(IntMatrix.zeros(2, 3))
        assert s.diag == (0, 0)

    def test_empty_shapes(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            assert_snf_contract(IntMatrix.zeros(*shape))

    @given(int_matrix_strategy(max_dim=5, max_entry=9))
    def test_postconditions_random(self, m):
        assert_snf_contract(m)

    @given(int_matrix_strategy(max_dim=4, max_entry=6))
    def test_deterministic(self, m):
        assert snf(m).D.entries == snf(m).D.entries

    @given(int_matrix_strategy(max_dim=4, max_entry=5))
    @settings(max_examples=40)
    def test_minors_gcd_oracle(self, m):
        # d_i = (gcd of i x i minors) / (gcd of (i-1) x (i-1) minors).
        diag = snf(m).diag
        prev = 1
        for i in range(1, min(m.rows, m.cols) + 1):
            g = 0
            for rows in combinations(range(m.rows), i):
                for cols in combinations(range(m.cols), i):
                    g = gcd(g, int(Matrix([[m.entries[r][c] for c in cols] for r in rows]).det()))
            if g == 0:
                assert all(d == 0 for d in diag[i - 1:])
                break
            assert diag[i - 1] == g // prev
            prev = g


class TestGroups:
    def test_canonical_chain_enforced(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(1, (4, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))

    def test_from_invariants_normalizes(self):
        assert FGAbelianGroup.from_invariants(0, [2, 3]) == FGAbelianGroup(0, (6,))
        assert FGAbelianGroup.from_invariants(0, [4, 6]) == FGAbelianGroup(0, (2, 12))
        assert FGAbelianGroup.from_invariants(2, [1, 1]) == FGAbelianGroup.free(2)

    def test_normalize_idempotent_and_invariant(self):
        assert normalize_invariant_factors([6, 4, 10]) == (2, 2, 60)
        assert normalize_invariant_factors([2, 2, 60]) == (2, 2, 60)

    def test_text_forms(self):
        assert str(FGAbelianGroup.trivial()) == "0"
        assert str(FGAbelianGroup.free(1)) == "Z"
        assert str(FGAbelianGroup.free(2)) == "Z^2"
        assert str(FGAbelianGroup(1, (2, 4))) == "Z + Z/2 + Z/4"

    # Suspension is a split_sum shift: an odd shift swaps the parts.
    def test_suspend_swaps(self):
        g = GradedGroup(FGAbelianGroup.free(1), FGAbelianGroup.trivial())
        assert split_sum([(g, 1, 1)]) == GradedGroup(FGAbelianGroup.trivial(), FGAbelianGroup.free(1))

    def test_suspend_involution(self):
        g = GradedGroup(FGAbelianGroup.free(2), FGAbelianGroup(0, (3,)))
        assert split_sum([(split_sum([(g, 1, 1)]), 1, 1)]) == g
        assert split_sum([(g, 2, 1)]) == g

    def test_suspend_mixed(self):
        g = GradedGroup(FGAbelianGroup.free(2), FGAbelianGroup(0, (3,)))
        assert split_sum([(g, 1, 1)]) == GradedGroup(FGAbelianGroup(0, (3,)), FGAbelianGroup.free(2))


class TestHomology:
    def test_times_two_cokernel(self):
        h = homology(IntMatrix.from_rows([[2]]), IntMatrix.zeros(0, 1))
        assert h == FGAbelianGroup(0, (2,))

    def test_zero_complex(self):
        h = homology(IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 2))
        assert h == FGAbelianGroup.free(2)

    def test_rank_two_contraction_middle(self):
        # Contraction against (1-2, 0) on Z: middle homology of the 2x1 and
        # 1x2 matrices is trivial (kernel and image both span e_2).
        d_in = IntMatrix.from_rows([[0], [-1]])
        d_out = IntMatrix.from_rows([[-1, 0]])
        assert homology(d_in, d_out) == FGAbelianGroup.trivial()

    @given(int_matrix_strategy(max_dim=4, max_entry=4))
    @settings(max_examples=40)
    def test_unimodular_invariance(self, d_out):
        # Change basis of the middle term by a unimodular W; homology of
        # (ker feeding, d_out) is unchanged.
        rng = random.Random(7)
        m = d_out.cols
        ker = kernel_basis(d_out)
        mix = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(ker.cols)] for _ in range(ker.cols)],
            ker.cols,
        )
        d_in = ker @ mix
        w, winv = _random_unimodular(m, rng)
        before = homology(d_in, d_out)
        after = homology(w @ d_in, d_out @ winv)
        assert before == after


def _random_unimodular(n, rng):
    w = IntMatrix.identity(n)
    winv = IntMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = q
        einv = [row[:] for row in e]
        einv[i][j] = -q
        w = IntMatrix.from_rows(e, n) @ w
        winv = winv @ IntMatrix.from_rows(einv, n)
    return w, winv


class TestLatticeToolkit:
    def test_cokernel(self):
        assert cokernel(IntMatrix.from_rows([[2, 0], [0, 3]])) == FGAbelianGroup(0, (6,))

    def test_kernel_basis_matches_rank(self):
        m = IntMatrix.from_rows([[1, 2, 3]])
        k = kernel_basis(m)
        assert k.cols == 2
        assert m @ k == IntMatrix.zeros(1, 2)

    def test_subquotient_index_two(self):
        num = IntMatrix.identity(2)
        den = IntMatrix.from_rows([[2, 0], [0, 1]])
        assert subquotient(num, den) == FGAbelianGroup(0, (2,))

    def test_rational_rank(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0], [0, 1]]) == 2
        assert rational_rank([]) == 0
