"""Differential tests of snf, cokernel and subquotient against sympy.

sympy's normal forms share no code with pvtower.  Most inputs stay at 6x6
with entries up to 9: on larger matrices sympy's invariant factors can
take minutes.  The cokernel is also checked on sparse matrices of the
sizes the datum complexes reach, through sympy's modular Hermite form, both
as an ``IntMatrix`` and as the sparse rows the datum complexes pass it.
``split_sum`` is checked against the invariant factors of a block-diagonal
relation matrix.
"""

import random

import hypothesis.strategies as st
from hypothesis import example, given, settings
from sympy import QQ, ZZ, Matrix, diag
from sympy.matrices.normalforms import (
    hermite_normal_form,
    invariant_factors,
    smith_normal_form,
)
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form as domain_hermite_form
from sympy.polys.matrices.normalforms import invariant_factors as domain_invariant_factors

from pvtower.abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    LatticeSolveError,
    cokernel,
    column_span_basis,
    kernel_rank,
    snf,
    split_sum,
    subquotient,
)

from conftest import int_matrix_strategy
from test_abgroup import assert_snf_contract


def chain(factors) -> tuple[int, ...]:
    """Absolute values as a divisor chain, zeros last."""
    return tuple(sorted((abs(int(x)) for x in factors), key=lambda x: (x == 0, x)))


def sympy_group(m: Matrix) -> FGAbelianGroup:
    """Z^rows modulo the column span of m, from sympy's invariant factors."""
    factors = chain(invariant_factors(m, domain=ZZ)) if m.cols else ()
    rank = sum(1 for x in factors if x)
    return FGAbelianGroup(m.rows - rank, tuple(x for x in factors if x > 1))


def sympy_hermite(m: Matrix) -> Matrix:
    """The Hermite normal form of m, a basis of its column span."""
    return hermite_normal_form(m) if m.cols else Matrix.zeros(m.rows, 0)


def sympy_subquotient(num: Matrix, den: Matrix) -> FGAbelianGroup | None:
    """span(num) / span(den), or None when den leaves span(num).

    The Hermite normal form gives a basis of span(num); the denominator's
    coordinates in it come from the normal equations over Q.
    """
    basis = sympy_hermite(num)
    if basis.cols == 0:
        return FGAbelianGroup.trivial() if den.is_zero_matrix else None
    coords = (basis.T * basis).inv() * basis.T * den
    if basis * coords != den or any(not x.is_integer for x in coords):
        return None
    return sympy_group(coords)


def to_sympy(m: IntMatrix) -> Matrix:
    return Matrix(m.rows, m.cols, [x for row in m.entries for x in row])


@given(int_matrix_strategy(max_dim=6, max_entry=9))
def test_snf_diagonal_matches_sympy(m):
    diag = snf(m).diag
    sm = to_sympy(m)
    assert diag == chain(invariant_factors(sm, domain=ZZ))
    snf_matrix = smith_normal_form(sm, domain=ZZ)
    assert diag == chain(snf_matrix[i, i] for i in range(min(m.rows, m.cols)))
    assert_snf_contract(m)
    basis = to_sympy(column_span_basis(m))
    assert basis.rank() == basis.cols
    assert sympy_hermite(basis) == sympy_hermite(sm)


@given(int_matrix_strategy(max_dim=6, max_entry=9))
def test_cokernel_matches_sympy(m):
    assert cokernel(m) == sympy_group(to_sympy(m))
    assert kernel_rank(m) == m.cols - to_sympy(m).rank()


def sympy_orders(m: IntMatrix) -> list[int]:
    """Nonzero invariant factors of m, from sympy, fast at a few dozen rows.

    Zero rows and columns are dropped and m is transposed if that gives
    full row rank.  A full-row-rank lattice L contains D Z^n for D the
    determinant of any nonsingular maximal minor, so sympy's Hermite form
    modulo D is a basis of L; alternating it with the Hermite form of its
    transpose reaches a diagonal matrix with the same invariant factors.
    A matrix that is rank-deficient both ways goes to invariant_factors.
    """
    rows = [r for r in m.entries if any(r)]
    keep = [j for j in range(m.cols) if any(r[j] for r in rows)]
    if not rows:
        return []
    dm = DomainMatrix([[ZZ(r[j]) for j in keep] for r in rows], (len(rows), len(keep)), ZZ)
    rank = dm.convert_to(QQ).rank()
    if rank == len(keep) < len(rows):
        dm = dm.transpose()
    n = dm.shape[0]
    if rank < n:
        return [int(x) for x in domain_invariant_factors(dm) if x]
    _, pivots = dm.convert_to(QQ).rref()
    det = abs(dm.extract(list(range(n)), list(pivots)).det())
    w = domain_hermite_form(dm, D=det)
    while not w.is_diagonal:
        w = domain_hermite_form(w.transpose(), D=det)
    return [abs(int(w[i, i].element)) for i in range(n)]


@st.composite
def sparse_matrices(draw):
    """Up to 40 x 60, entries in -3..3 at density 0.05-0.5, some rows and columns zeroed.

    Shapes come from a generator seeded by the draw, so that they spread
    evenly over the range instead of clustering at the small end.
    """
    rng = random.Random(draw(st.integers(0, 2**64)))
    rows, cols, density = rng.randint(0, 40), rng.randint(0, 60), rng.uniform(0.05, 0.5)
    grid = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]
    for i in rng.sample(range(rows), min(rows, rng.randint(0, 3))):
        grid[i] = [0] * cols
    for j in rng.sample(range(cols), min(cols, rng.randint(0, 3))):
        for row in grid:
            row[j] = 0
    return IntMatrix(rows, cols, tuple(map(tuple, grid)))


@given(sparse_matrices())
@settings(max_examples=40)
@example(IntMatrix.zeros(0, 7))
@example(IntMatrix.zeros(7, 0))
@example(IntMatrix.zeros(0, 0))
@example(IntMatrix.zeros(5, 9))
def test_cokernel_matches_sympy_at_datum_sizes(m):
    orders = sympy_orders(m)
    assert cokernel(m) == FGAbelianGroup.from_invariants(m.rows - len(orders), orders)
    # The same matrix as sparse rows, the form the datum complexes take: a zero
    # row is {}, a zeroed column has no entry, and neither the column labels
    # nor the order of a row's entries is that of the dense matrix.
    rows = [{3 * j + 1: x for j, x in reversed(list(enumerate(row))) if x} for row in m.entries]
    assert cokernel(rows) == FGAbelianGroup.from_invariants(m.rows - len(orders), orders)


@st.composite
def lattice_pairs(draw):
    """A numerator N and a denominator N @ X, sometimes pushed off span(N).

    Scaling N gives it invariant factors above 1, so that a pushed
    denominator can stay in the rational span but leave the lattice.
    """
    num = draw(int_matrix_strategy(max_dim=6, max_entry=9)).scale(draw(st.integers(1, 4)))
    k = draw(st.integers(1, 6))
    x = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=k, max_size=k),
            min_size=num.cols,
            max_size=num.cols,
        )
    )
    den = num @ IntMatrix.from_rows(x, k)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, num.rows - 1)), draw(st.integers(0, k - 1))
        rows = [list(r) for r in den.entries]
        rows[i][j] += draw(st.integers(1, 3))
        den = IntMatrix.from_rows(rows, k)
    return num, den


@given(lattice_pairs())
@example((IntMatrix.zeros(2, 2), IntMatrix.zeros(2, 1)))
@example((IntMatrix.zeros(2, 2), IntMatrix.column([1, 0])))
def test_subquotient_matches_sympy(pair):
    num, den = pair
    expected = sympy_subquotient(to_sympy(num), to_sympy(den))
    try:
        got = subquotient(num, den)
    except LatticeSolveError:
        got = None
    assert got == expected


def presentation(part) -> Matrix:
    """Z^free + the sum of Z/o over the orders: one relation column per order."""
    free, orders = part
    return Matrix.vstack(Matrix.zeros(free, len(orders)), Matrix.diag(*orders))


# A term is (even part, odd part, shift, copies); a part is (free rank, orders).
_part = st.tuples(st.integers(0, 3), st.lists(st.integers(2, 12), max_size=3))
_term = st.tuples(_part, _part, st.integers(0, 3), st.integers(0, 3))


@given(st.lists(_term, max_size=6))
@example([((1, [2]), (2, [3, 4]), 0, 0)])
@example([((2, []), (0, [4, 6]), 1, 2), ((0, [3]), (1, [5]), 3, 1), ((1, [2]), (0, []), 0, 1)])
def test_split_sum_matches_sympy(terms):
    # Each part enters as sympy's group of its orders, and each parity of the
    # sum as the block-diagonal matrix of the copies of the parts that a
    # shift sends there: an odd shift takes a term's parts to the other parity.
    groups = [GradedGroup(sympy_group(presentation(even)), sympy_group(presentation(odd)))
              for even, odd, _, _ in terms]
    got = split_sum((g, shift, copies) for g, (_, _, shift, copies) in zip(groups, terms))
    for k, part in enumerate((got.even, got.odd)):
        blocks = []
        for even, odd, shift, copies in terms:
            blocks += [presentation((even, odd)[(k + shift) % 2])] * copies
        assert part == sympy_group(diag(*blocks))
