"""Exterior powers of Z^n and contraction against a covector.

Basis elements of wedge^j Z^n are indexed by strictly increasing subsets
of {1, ..., n} in lexicographic order, as ``itertools.combinations``
yields them; that order is the fixed basis convention for every matrix
produced here.  The sign convention for contraction is (-1)^(p-1) where
p is the 1-based position of the removed index in the sorted subset;
:func:`contraction_terms` is the one place that applies it.
"""

from collections.abc import Iterator
from functools import cached_property
from itertools import combinations
from math import comb

from ._record import record

# Ring types are imported where they are built: `pv oracle` never loads the ring.


@record
class Covector:
    """An element of Hom(Z^n (x) R, R): entries[i] is the coefficient of e_{i+1}*."""

    entries: "tuple[LaurentPoly, ...]"
    nvars: int

    def __post_init__(self) -> None:
        for p in self.entries:
            if p.nvars != self.nvars:
                raise ValueError(
                    f"covector entry has {p.nvars} variables, expected {self.nvars}"
                )

    @classmethod
    def standard(cls, n: int) -> "Covector":
        """(1 - t_1, ..., 1 - t_n) over the rank-n Laurent ring."""
        from .ring import one_minus_var

        return cls(tuple(one_minus_var(i, n) for i in range(1, n + 1)), n)

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def negated(self) -> "tuple[LaurentPoly, ...]":
        """The entries negated, built once for the matrices of every degree."""
        return tuple(-p for p in self.entries)


def contraction_terms(n: int, j: int) -> Iterator[tuple[int, int, int, int]]:
    """Nonzero terms of contraction wedge^j Z^n -> wedge^(j-1) Z^n.

    Yields (row, col, direction, sign): dropping ``direction``, the p-th
    index of the col-th basis subset of degree j, leaves the row-th basis
    subset of degree j-1, with sign (-1)^(p-1).  Each (row, col) pair
    occurs at most once.
    """
    if not 1 <= j <= n:
        raise ValueError(f"degree {j} out of range 1..{n}")
    row_pos = {S: r for r, S in enumerate(combinations(range(1, n + 1), j - 1))}
    return (
        (row_pos[S[:p] + S[p + 1:]], col, s, -1 if p % 2 else 1)
        for col, S in enumerate(combinations(range(1, n + 1), j))
        for p, s in enumerate(S)
    )


def koszul_matrix(v: Covector, j: int) -> "PolyMatrix":
    """Matrix of contraction wedge^j -> wedge^(j-1) in the fixed basis order.

    Shape is C(n, j-1) x C(n, j); a zero covector entry stores nothing.
    """
    from .ring import PolyMatrix

    signed = {1: v.entries, -1: v.negated}
    entries = {
        (r, c): signed[sign][s - 1]
        for r, c, s, sign in contraction_terms(v.n, j)
        if v.entries[s - 1]
    }
    return PolyMatrix(comb(v.n, j - 1), comb(v.n, j), v.nvars, entries)
