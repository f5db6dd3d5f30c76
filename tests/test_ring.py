"""Laurent polynomials and matrices: canonical storage, evaluation mod P, augmentation."""

import pytest
from hypothesis import given

from pvtower.ring import P, LaurentPoly, PolyMatrix, one_minus_var

from conftest import poly_strategy


def mono(nvars: int, exps: tuple[int, ...], coeff: int = 1) -> LaurentPoly:
    return LaurentPoly(nvars, {exps: coeff})


class TestExamples:
    def test_eval_rank_one(self):
        assert one_minus_var(1, 1).evaluate([2]) == P - 1

    def test_eval_mixed_exponents(self):
        # t1 t2^-1 at (3, 2) is 3/2 mod P: twice the value is 3.
        assert mono(2, (1, -1)).evaluate([3, 2]) == (P + 3) // 2
        # 2 t1^-2 t2 - t2 + 4 at (2, 3): 3/2 - 3 + 4 = 5/2.
        p = LaurentPoly(2, {(-2, 1): 2, (0, 1): -1, (0, 0): 4})
        assert p.evaluate([2, 3]) == (P + 5) // 2

    def test_aug_of_one_minus_t_vanishes(self):
        assert one_minus_var(1, 1).augmentation() == 0

    def test_aug_single_monomial(self):
        assert mono(2, (2, -1), 3).augmentation() == 3

    def test_aug_zero(self):
        assert LaurentPoly(3).augmentation() == 0


class TestErrors:
    def test_eval_zero_coordinate(self):
        with pytest.raises(ValueError, match="zero mod P"):
            mono(1, (-1,)).evaluate([0])
        with pytest.raises(ValueError, match="zero mod P"):
            mono(1, (-1,)).evaluate([P])

    def test_eval_wrong_arity(self):
        with pytest.raises(ValueError, match="2 coordinates, expected 1"):
            mono(1, (1,)).evaluate([1, 2])

    def test_exponent_vector_of_wrong_length(self):
        with pytest.raises(ValueError, match="expected 2"):
            LaurentPoly(2, {(1,): 1})

    def test_non_integer_exponent_or_coefficient_rejected(self):
        # int() would truncate these and merge (1.5,) into (1,) or 2.7 into 2.
        with pytest.raises(TypeError):
            LaurentPoly(1, {(1.5,): 1})
        with pytest.raises(TypeError):
            LaurentPoly(1, {(0,): 2.7})

    def test_one_minus_var_index_out_of_range(self):
        for i in (0, 3):
            with pytest.raises(ValueError, match="out of range 1..2"):
                one_minus_var(i, 2)


class TestRingAxioms:
    @given(poly_strategy(3))
    def test_no_zero_coefficients_stored(self, p):
        # Canonical storage: zero coefficients are dropped, so a polynomial
        # is falsy exactly when it has no terms, and its negation cancels it
        # term by term.
        assert all(p._terms.values()) and all((-p)._terms.values())
        assert LaurentPoly(3, {(0, 1, 2): 0}) == LaurentPoly(3)
        assert not LaurentPoly(3) and bool(p) == (p != LaurentPoly(3))
        assert -(-p) == p
        assert bool(-p) == bool(p)
        assert (-p).augmentation() == -p.augmentation()

    @given(poly_strategy(3))
    def test_eval_at_ones_equals_augmentation(self, p):
        assert p.evaluate([1, 1, 1]) == p.augmentation() % P


def test_equality_and_hash_follow_the_term_map():
    a = LaurentPoly(2, {(0, 0): 1, (1, 0): -1})
    b = LaurentPoly(2, {(1, 0): -1, (0, 0): 1, (0, 1): 0})
    assert a == b == one_minus_var(1, 2) and hash(a) == hash(b)
    assert len({a, b, one_minus_var(1, 2)}) == 1
    # Same terms in another ring, another term map, and a plain int all differ.
    assert a != LaurentPoly(3, {(0, 0, 0): 1, (1, 0, 0): -1})
    assert a != one_minus_var(2, 2)
    assert LaurentPoly(1, {(0,): 1}) != 1
    assert -a == LaurentPoly(2, {(0, 0): -1, (1, 0): 1})


def test_repr_shows_nvars_and_terms():
    assert repr(one_minus_var(2, 2)) == "LaurentPoly(2, {(0, 0): 1, (0, 1): -1})"
    assert repr(LaurentPoly(1)) == "LaurentPoly(1, {})"


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
    one = mono(1, (0,))
    with pytest.raises(ValueError, match="entry has 2 variables, matrix has 1"):
        PolyMatrix(1, 2, 1, {(0, 0): one, (0, 1): mono(2, (0, 0))})


def test_poly_matrix_rejects_stored_zero():
    with pytest.raises(ValueError, match="zero entry"):
        PolyMatrix(1, 1, 1, {(0, 0): LaurentPoly(1)})


@pytest.mark.parametrize("key", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_poly_matrix_rejects_key_outside_shape(key):
    with pytest.raises(ValueError, match="outside"):
        PolyMatrix(2, 3, 1, {key: mono(1, (0,))})
