"""Exterior powers of Z^n and contraction against a covector.

Basis elements of wedge^j Z^n are indexed by strictly increasing subsets
of {1, ..., n} in lexicographic order; that order is the fixed basis
convention for every matrix produced here.  The sign convention for
contraction is (-1)^(p-1) where p is the 1-based position of the removed
index in the sorted subset; :func:`contraction_terms` is the one place
that applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

from .ring import LaurentPoly, PolyMatrix, one_minus_var


@dataclass(frozen=True, order=True)
class ExteriorIndex:
    """A basis element e_S of wedge^|S| Z^n, S a sorted subset of {1..n}."""

    subset: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        prev = 0
        for s in self.subset:
            if s <= prev:
                raise ValueError(f"subset {self.subset} is not strictly increasing")
            prev = s
        if self.subset and not (1 <= self.subset[0] and self.subset[-1] <= self.n):
            raise ValueError(f"subset {self.subset} not contained in 1..{self.n}")

    @property
    def degree(self) -> int:
        return len(self.subset)

    def remove(self, s: int) -> "ExteriorIndex":
        if s not in self.subset:
            raise ValueError(f"{s} not in {self.subset}")
        return ExteriorIndex(tuple(x for x in self.subset if x != s), self.n)


def exterior_basis(n: int, j: int) -> list[ExteriorIndex]:
    """All C(n, j) basis indices of wedge^j Z^n in lexicographic order."""
    if not 0 <= j <= n:
        raise ValueError(f"degree {j} out of range 0..{n}")
    return [ExteriorIndex(S, n) for S in combinations(range(1, n + 1), j)]


@dataclass(frozen=True)
class Covector:
    """An element of Hom(Z^n (x) R, R): entries[i] is the coefficient of e_{i+1}*."""

    entries: tuple[LaurentPoly, ...]
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
        return cls(tuple(one_minus_var(i, n) for i in range(1, n + 1)), n)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int) -> LaurentPoly:
        """Coefficient of e_i*, i in 1..n."""
        return self.entries[i - 1]


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


def koszul_matrix(v: Covector, j: int) -> PolyMatrix:
    """Matrix of contraction wedge^j -> wedge^(j-1) in the fixed basis order.

    Shape is C(n, j-1) x C(n, j); a zero covector entry stores nothing.
    """
    signed = {1: v.entries, -1: tuple(-p for p in v.entries)}
    entries = {
        (r, c): signed[sign][s - 1]
        for r, c, s, sign in contraction_terms(v.n, j)
        if v.entries[s - 1]
    }
    return PolyMatrix(comb(v.n, j - 1), comb(v.n, j), v.nvars, entries)
