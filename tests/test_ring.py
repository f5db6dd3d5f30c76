"""Laurent ring arithmetic, evaluation, augmentation, text form."""

import pytest
from hypothesis import given

from pvtower.ring import (
    P,
    LaurentPoly,
    PolyMatrix,
    VariableCountMismatch,
    one_minus_var,
)

from conftest import poly_strategy

t = LaurentPoly.variable


class TestExamples:
    def test_cancellation(self):
        assert one_minus_var(1, 1) + (1 + t(1, 1)) == LaurentPoly.constant(2, 1)

    def test_additive_identity(self):
        p = 3 * t(1, 2, 2) * t(2, 2, -1) - 5
        assert p + LaurentPoly.zero(2) == p

    def test_cross_variable_cancellation(self):
        assert one_minus_var(1, 2) + (t(1, 2) - t(2, 2)) == one_minus_var(2, 2)

    def test_product_difference_of_squares(self):
        assert one_minus_var(1, 1) * (1 + t(1, 1)) == 1 - t(1, 1, 2)

    def test_product_with_inverse_monomial(self):
        assert one_minus_var(1, 1) * t(1, 1, -1) == t(1, 1, -1) - 1

    def test_two_variable_product(self):
        assert one_minus_var(1, 2) * one_minus_var(2, 2) == 1 - t(1, 2) - t(2, 2) + t(1, 2) * t(2, 2)

    def test_eval_rank_one(self):
        assert one_minus_var(1, 1).evaluate([2]) == P - 1

    def test_eval_mixed_exponents(self):
        # 3/2 mod P: twice the value is 3.
        assert (t(1, 2) * t(2, 2, -1)).evaluate([3, 2]) == (P + 3) // 2

    def test_aug_of_one_minus_t_vanishes(self):
        assert one_minus_var(1, 1).augmentation() == 0

    def test_aug_single_monomial(self):
        assert (3 * t(1, 2, 2) * t(2, 2, -1)).augmentation() == 3

    def test_aug_zero(self):
        assert LaurentPoly.zero(3).augmentation() == 0


class TestErrors:
    def test_nvars_mismatch_add(self):
        with pytest.raises(VariableCountMismatch):
            LaurentPoly.one(1) + LaurentPoly.one(2)

    def test_nvars_mismatch_mul(self):
        with pytest.raises(VariableCountMismatch):
            LaurentPoly.one(1) * LaurentPoly.one(2)

    def test_eval_zero_coordinate(self):
        with pytest.raises(ValueError):
            t(1, 1, -1).evaluate([0])
        with pytest.raises(ValueError):
            t(1, 1, -1).evaluate([P])

    def test_eval_wrong_arity(self):
        with pytest.raises(ValueError):
            t(1, 1).evaluate([1, 2])


class TestRingAxioms:
    @given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy(3))
    def test_no_zero_coefficients_stored(self, p):
        q = p - p
        assert q.is_zero and not q.terms
        assert all(c != 0 for c in (p * p + p).terms.values())

    @given(poly_strategy(2), poly_strategy(2))
    def test_augmentation_is_ring_hom(self, a, b):
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()
        assert (a + b).augmentation() == a.augmentation() + b.augmentation()

    @given(poly_strategy(3))
    def test_eval_at_ones_equals_augmentation(self, p):
        assert p.evaluate([1, 1, 1]) == p.augmentation() % P


def test_text_form():
    # Terms in exponent order, zero exponents omitted, unit coefficients implicit.
    assert str(LaurentPoly.zero(2)) == "0"
    assert str(-one_minus_var(2, 2)) == "-1 + t2"
    assert str(2 * t(1, 2, -2) * t(2, 2) - t(2, 2) + 4) == "2*t1^-2*t2 + 4 - t2"


def test_poly_matrix_shape_and_product():
    a = PolyMatrix(1, 1, 1, {(0, 0): one_minus_var(1, 1)})
    b = PolyMatrix(1, 1, 1, {(0, 0): 1 + t(1, 1)})
    prod = a @ b
    assert prod.entry(0, 0) == 1 - t(1, 1, 2)
    assert not prod.is_zero
    assert PolyMatrix(2, 3, 1, {}).is_zero
    assert PolyMatrix(2, 3, 1, {}).entry(1, 2) == LaurentPoly.zero(1)


def test_poly_matrix_product_cancels_to_no_entries():
    # (1 t) @ (t; -1) = 0: the cancelled entry is dropped, not stored as zero.
    row = PolyMatrix(1, 2, 1, {(0, 0): LaurentPoly.one(1), (0, 1): t(1, 1)})
    col = PolyMatrix(2, 1, 1, {(0, 0): t(1, 1), (1, 0): -LaurentPoly.one(1)})
    assert (row @ col).entries == {}


def test_poly_matrix_evaluate_is_sparse():
    m = PolyMatrix(2, 2, 1, {(1, 0): one_minus_var(1, 1)})
    assert m.evaluate([3]) == [{}, {0: P - 2}]
    # A zero value stores nothing.
    assert m.evaluate([1]) == [{}, {}]
    # Each distinct entry is evaluated once, and never when ``values`` has it.
    twice = PolyMatrix(1, 2, 1, {(0, 0): one_minus_var(1, 1), (0, 1): one_minus_var(1, 1)})
    values = {}
    assert twice.evaluate([3], values) == [{0: P - 2, 1: P - 2}]
    assert values == {one_minus_var(1, 1): P - 2}
    assert twice.evaluate([3], {one_minus_var(1, 1): 5}) == [{0: 5, 1: 5}]


def test_poly_matrix_rejects_mixed_rings():
    with pytest.raises(VariableCountMismatch):
        PolyMatrix(1, 2, 1, {(0, 0): LaurentPoly.one(1), (0, 1): LaurentPoly.one(2)})


def test_poly_matrix_rejects_stored_zero():
    with pytest.raises(ValueError, match="zero entry"):
        PolyMatrix(1, 1, 1, {(0, 0): LaurentPoly.zero(1)})


@pytest.mark.parametrize("key", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_poly_matrix_rejects_key_outside_shape(key):
    with pytest.raises(ValueError, match="outside"):
        PolyMatrix(2, 3, 1, {key: LaurentPoly.one(1)})


def test_poly_matrix_entry_outside_shape():
    with pytest.raises(IndexError):
        PolyMatrix(2, 3, 1, {}).entry(2, 0)
