"""Test oracle: datum cohomology and level kernels through the cycle lattice.

At spot d the cycle lattice Z_d = {x : d_d x in R_(d-1)} is the projection
to spot d of an integer kernel basis of [d_d | R_(d-1)], R_d being the spot's
relation lattice.  Cohomology is Z_d modulo R_d and the image of d_(d+1);
the kernel term of a tower level is Z_d modulo R_d.

It shares ``snf`` and the lattice helpers built on it with pvtower, but not
the free total complex nor the elimination behind ``cokernel``: the
differentials are rebuilt here from ``contraction_terms`` and every group is
read off an SNF diagonal.
"""

from math import comb

from pvtower.abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    hstack,
    kernel_basis,
    snf,
)
from pvtower.exterior import contraction_terms

from rank1_oracle import block_diag

PARITIES = ("even", "odd")


def spot_relations(datum, d, parity):
    """Relation lattice of spot d (columns), one block per basis subset."""
    return block_diag([datum.presentation(parity).relations] * comb(datum.n, d))


def koszul_differential(datum, j, parity):
    """d_j: spot j -> spot j-1, contraction against the 1 - beta_i."""
    n, g = datum.n, datum.presentation(parity).free_rank
    grid = [[0] * (comb(n, j) * g) for _ in range(comb(n, j - 1) * g)]
    for row, col, s, sign in contraction_terms(n, j):
        beta = datum.endos[s - 1].part(parity).entries
        for a in range(g):
            for b in range(g):
                grid[row * g + a][col * g + b] = sign * ((a == b) - beta[a][b])
    return IntMatrix.from_rows(grid, comb(n, j) * g)


def _diagonal_group(m):
    """Z^rows modulo the column span of m, from its SNF diagonal."""
    diag = [x for x in snf(m).diag if x]
    return FGAbelianGroup.from_invariants(m.rows - len(diag), diag)


def _cycle_lattice(datum, d, parity):
    rows = comb(datum.n, d) * datum.presentation(parity).free_rank
    if d == 0:
        return snf(IntMatrix.identity(rows))
    stacked = hstack(koszul_differential(datum, d, parity), spot_relations(datum, d - 1, parity))
    return snf(kernel_basis(stacked).take_rows(0, rows))


def _quotient(datum, d, incoming):
    parts = {}
    for parity in PARITIES:
        denominator = spot_relations(datum, d, parity)
        if incoming and d < datum.n:
            denominator = hstack(koszul_differential(datum, d + 1, parity), denominator)
        cycles = _cycle_lattice(datum, d, parity)
        parts[parity] = _diagonal_group(cycles.span_coordinates(denominator))
    return GradedGroup(parts["even"], parts["odd"])


def cohomology(datum):
    """Cohomology at every spot d = 0..n."""
    return [_quotient(datum, d, incoming=True) for d in range(datum.n + 1)]


def level_kernel(datum, d):
    """The kernel of d_d on the quotient spot-d group."""
    return _quotient(datum, d, incoming=False)
