"""Finitely generated abelian groups and exact integer linear algebra.

:func:`cokernel` reads every group and rank: it runs a sparse elimination
that records nothing, on sparse {column: value} rows or an ``IntMatrix``,
and ``kernel_rank``, ``rational_rank`` and ``subquotient`` read their
answers off it.  Its pivot is the first unit in row order, else the
first entry of least |value|, found by a search that visits only live
rows, each keeping its least entry until the row changes.  ``snf`` is
used only where a transform is read: lattice membership
(``span_coordinates``), lattice bases, kernels and solves.  It computes
Smith normal form and records its elementary row and column operations;
U, V and their inverses are built from that record only when read.
Groups are always in invariant-factor canonical form, so
``FGAbelianGroup`` equality is isomorphism.
"""
from collections.abc import Iterable, Sequence
from functools import cached_property
from math import gcd

from ._record import record, set_field


@record
class IntMatrix:
    """Immutable rectangular matrix with arbitrary-precision integer entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        # Skips the generic record __init__, which made an in-process `wide` pass
        # (about 190 matrices a job) 5-9% slower on a 2-CPU x86-64 Linux box.
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [tuple(map(int, r)) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        zero = (0,) * n
        return cls(n, n, tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # Sparse: only nonzero pairs are multiplied.
        nonzeros = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for srow in self.entries:
            acc = [0] * other.cols
            for a, brow in zip(srow, nonzeros):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(
            self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries)
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def take_rows(self, start: int, stop: int) -> "IntMatrix":
        return IntMatrix(stop - start, self.cols, self.entries[start:stop])

    def take_cols(self, start: int, stop: int) -> "IntMatrix":
        return IntMatrix(
            self.rows, stop - start, tuple(row[start:stop] for row in self.entries)
        )


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    return IntMatrix(
        a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.entries, b.entries))
    )


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class LatticeSolveError(ValueError):
    """A vector lies outside the lattice it was solved against."""


def _replay(ops: Sequence[tuple[int, int, int]], m: IntMatrix, inverse: bool = False) -> IntMatrix:
    """m left-multiplied by the product of recorded row operations, or by its inverse.

    ``(i, k, q)`` is row i += q * row k; with q == 0 it swaps rows i and k,
    and with i == k it negates row i.
    """
    a = [list(row) for row in m.entries]
    for i, k, q in reversed(ops) if inverse else ops:
        if i == k:
            a[i] = [-x for x in a[i]]
        elif q == 0:
            a[i], a[k] = a[k], a[i]
        elif any(a[k]):
            q = -q if inverse else q
            a[i] = [x + q * y for x, y in zip(a[i], a[k])]
    return IntMatrix(m.rows, m.cols, tuple(map(tuple, a)))


@record
class SmithNormalForm:
    """M = U @ D @ V with U, V unimodular and D a nonnegative divisor chain.

    Holds the diagonal of D and the elementary operations that produced it:
    ``row_ops`` act on the rows of M, ``col_ops`` on its columns in the same
    ``(i, k, q)`` encoding as :func:`_replay` (column i += q * column k).
    D, U, V, Uinv and Vinv are built from this record when first read.
    """

    rows: int
    cols: int
    diag: tuple[int, ...]
    row_ops: tuple[tuple[int, int, int], ...]
    col_ops: tuple[tuple[int, int, int], ...]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diag if x)

    @cached_property
    def D(self) -> IntMatrix:
        rows, cols = self.rows, self.cols
        return IntMatrix.from_rows(
            [[self.diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)], cols
        )

    @cached_property
    def Uinv(self) -> IntMatrix:
        return _replay(self.row_ops, IntMatrix.identity(self.rows))

    @cached_property
    def U(self) -> IntMatrix:
        return _replay(self.row_ops, IntMatrix.identity(self.rows), inverse=True)

    @cached_property
    def Vinv(self) -> IntMatrix:
        return _replay(self.col_ops, IntMatrix.identity(self.cols)).transpose()

    @cached_property
    def V(self) -> IntMatrix:
        return _replay(self.col_ops, IntMatrix.identity(self.cols), inverse=True).transpose()

    @cached_property
    def basis(self) -> IntMatrix:
        """The columns d_i * U[:, i] (d_i != 0), a basis of M's column span."""
        scale = self.diag[: self.rank]
        rows = (tuple(d * x for d, x in zip(scale, row)) for row in self.U.entries)
        return IntMatrix(self.rows, len(scale), tuple(rows))

    def span_coordinates(self, y: IntMatrix) -> IntMatrix:
        """X with B @ X = y, for B the column-span :attr:`basis`.

        Reads Uinv @ y off the row operations, without forming Uinv;
        raises LatticeSolveError when a column of y lies outside the span.
        """
        if y.rows != self.rows:
            raise ValueError("shape mismatch in span_coordinates")
        c = _replay(self.row_ops, y).entries
        scale = self.diag[: self.rank]
        if any(map(any, c[len(scale):])) or any(
            x % d for d, row in zip(scale, c) if d != 1 for x in row
        ):
            raise LatticeSolveError("target outside the column span")
        coords = (row if d == 1 else tuple(x // d for x in row) for d, row in zip(scale, c))
        return IntMatrix(len(scale), y.cols, tuple(coords))


def snf(m: IntMatrix) -> SmithNormalForm:
    """Smith normal form, recording the elementary operations instead of the transforms.

    Pivot policy: the nonzero entry of minimal absolute value in the
    working submatrix, ties broken by row-major position.  This bounds
    intermediate entry growth and makes the output deterministic.  Rows
    and columns before the pivot are already cleared, so every update
    touches only the nonzero entries of the pivot row or column.
    """
    rows, cols = m.rows, m.cols
    d = [list(row) for row in m.entries]
    row_ops: list[tuple[int, int, int]] = []
    col_ops: list[tuple[int, int, int]] = []

    def find_pivot(k: int) -> tuple[int, int] | None:
        best = None
        best_abs = 0
        for i in range(k, rows):
            tail = d[i][k:]
            low = min(map(abs, filter(None, tail)), default=0)
            if low and (best is None or low < best_abs):
                j = next(j for j, x in enumerate(tail) if abs(x) == low)
                best, best_abs = (i, k + j), low
                if low == 1:
                    break
        return best

    k = 0
    limit = min(rows, cols)
    while k < limit:
        piv = find_pivot(k)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != k:
                d[k], d[pi] = d[pi], d[k]
                row_ops.append((k, pi, 0))
            if pj != k:
                for r in range(k, rows):
                    row = d[r]
                    row[k], row[pj] = row[pj], row[k]
                col_ops.append((k, pj, 0))
            if d[k][k] < 0:
                d[k] = [-x for x in d[k]]
                row_ops.append((k, k, -1))
            # Clear row/column k modulo the pivot; leftovers shrink it.
            dk = d[k]
            p = dk[k]
            dirty = False
            prow = [(j, x) for j, x in enumerate(dk) if x]
            for i in range(k + 1, rows):
                di = d[i]
                if di[k]:
                    q = di[k] // p
                    if q:
                        for j, x in prow:
                            di[j] -= q * x
                        row_ops.append((i, k, -q))
                    if di[k]:
                        dirty = True
            pcol = [(r, d[r][k]) for r in range(k, rows) if d[r][k]]
            for j in range(k + 1, cols):
                if dk[j]:
                    q = dk[j] // p
                    if q:
                        for r, x in pcol:
                            d[r][j] -= q * x
                        col_ops.append((j, k, -q))
                    if dk[j]:
                        dirty = True
            if dirty:  # the smallest leftover in row or column k, rows first
                leftovers = [(i, k) for i in range(k, rows) if d[i][k]]
                leftovers += [(k, j) for j in range(k, cols) if dk[j]]
                piv = min(leftovers, key=lambda ij: abs(d[ij[0]][ij[1]]))
                continue
            # Divisor-chain enforcement: fold in any entry the pivot misses.
            offender = None
            if p != 1:
                offender = next(
                    (i for i in range(k + 1, rows) if any(map(p.__rmod__, d[i][k + 1:]))), None
                )
            if offender is None:
                break
            d[k] = [x + y for x, y in zip(dk, d[offender])]
            row_ops.append((k, offender, 1))
            piv = (k, k)
        k += 1

    diag = tuple(d[i][i] for i in range(limit))
    return SmithNormalForm(rows, cols, diag, tuple(row_ops), tuple(col_ops))


# ---------------------------------------------------------------------------
# Lattice toolkit
# ---------------------------------------------------------------------------


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel of m."""
    s = snf(m)
    return s.Vinv.take_cols(s.rank, m.cols)


def column_span_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the lattice spanned by the columns of m."""
    return snf(m).basis


def solve_exact(a: IntMatrix, y: IntMatrix) -> IntMatrix:
    """An integer solution X of a @ X = y; raises LatticeSolveError if none."""
    if a.rows != y.rows:
        raise ValueError("shape mismatch in solve_exact")
    s = snf(a)
    w = s.span_coordinates(y)
    return s.Vinv.take_cols(0, w.rows) @ w


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


def normalize_invariant_factors(factors: Iterable[int]) -> tuple[int, ...]:
    """Reduce a multiset of cyclic orders to a divisor chain d1 | d2 | ..."""
    work = sorted(filter((1).__lt__, map(abs, map(int, factors))))
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            a, b = work[i], work[i + 1]
            if b % a:
                g = gcd(a, b)
                work[i], work[i + 1] = g, a * b // g
                changed = True
        if changed:
            work = sorted(x for x in work if x > 1)
    return tuple(work)


@record
class FGAbelianGroup:
    """Isomorphism class of a finitely generated abelian group.

    Stored in invariant-factor canonical form: free rank plus a divisor
    chain of torsion orders, each at least 2.  Structural equality is
    isomorphism.
    """

    free_rank: int
    torsion: tuple[int, ...]

    # Both skip the generic record methods, which made an in-process `wide` pass
    # (about 60 groups a job) 5-9% slower on a 2-CPU x86-64 Linux box.
    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()) -> None:
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = 1
        for t in torsion:
            if t < 2:
                raise ValueError(f"torsion order {t} < 2")
            if t % prev:
                raise ValueError(f"torsion {torsion} is not a divisor chain")
            prev = t
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion", torsion)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.free_rank == other.free_rank and self.torsion == other.torsion
        return NotImplemented

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def from_invariants(cls, free_rank: int, factors: Iterable[int]) -> "FGAbelianGroup":
        return cls(free_rank, normalize_invariant_factors(factors))

    @property
    def has_torsion(self) -> bool:
        return bool(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(m: IntMatrix | Sequence[dict[int, int]]) -> FGAbelianGroup:
    """Z^rows modulo the column span of m, by a sparse elimination that records nothing.

    m is an IntMatrix or a list of {column: value} rows, which is copied, not
    changed; the rows are indexed from each column to its rows.  The pivot
    is the first unit in row order, else the first entry of least |value|
    (rows in order, entries in their map's order).  The search visits only
    live rows, each keeping its least entry until an elimination step
    touches it.  Row operations clear the pivot's column; once the column
    holds only the pivot, column operations just reduce the pivot's row
    modulo the pivot.  A remainder becomes the next pivot; a pivot alone in
    its row and column is the cyclic order |pivot|, and both are dropped.
    """
    rows = ([{j: x for j, x in enumerate(row) if x} for row in m.entries]
            if isinstance(m, IntMatrix) else [{j: x for j, x in row.items() if x} for row in m])
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    least: dict[int, tuple[int, int, int]] = {}  # live row -> (|value|, row, column)
    stale = {i for i, row in enumerate(rows) if row}  # live rows not in ``least``
    orders = []
    while True:
        best = min(least.values(), default=None)
        for r in sorted(stale):
            if best and best[0] == 1 and best[1] < r:
                break  # no later row beats an earlier unit
            stale.discard(r)
            if row := rows[r]:
                sizes = list(map(abs, row.values()))
                low = min(sizes)
                least[r] = entry = (low, r, list(row)[sizes.index(low)])
                if best is None or entry < best:
                    best = entry
        if best is None:
            return FGAbelianGroup.from_invariants(len(rows) - len(orders), orders)
        _, i, j = best
        while True:
            prow = rows[i]
            p = prow[j]
            for k in holders[j] - {i}:
                row, q = rows[k], rows[k][j] // p
                if q:
                    least.pop(k, None)
                    stale.add(k)
                for c, v in prow.items() if q else ():
                    x = row.get(c)
                    if x is None:  # fill-in
                        row[c] = -q * v
                        holders[c].add(k)
                    elif x := x - q * v:
                        row[c] = x
                    else:
                        del row[c]
                        holders[c].discard(k)
            rest = holders[j] - {i}
            if rest:
                i = min(rest, key=lambda k: abs(rows[k][j]))
                continue
            least.pop(i, None)
            stale.add(i)
            for c in [c for c in prow if c != j]:
                prow[c] %= p
                if not prow[c]:
                    del prow[c]
                    holders[c].discard(i)
            if len(prow) == 1:
                break
            j = min((c for c in prow if c != j), key=lambda c: abs(prow[c]))
        holders[j].discard(i)
        rows[i] = {}
        stale.discard(i)
        orders.append(abs(p))


def kernel_rank(m: IntMatrix) -> int:
    return m.cols - m.rows + cokernel(m).free_rank


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of the integer matrix with these rows."""
    return len(rows) - cokernel([dict(enumerate(row)) for row in rows]).free_rank


def subquotient(numerator: IntMatrix, denominator: IntMatrix) -> FGAbelianGroup:
    """The group (column span of numerator) / (column span of denominator).

    The denominator lattice must be contained in the numerator lattice;
    LatticeSolveError otherwise.  The numerator is factored once, and the
    denominator's coordinates in its column-span basis present the group.
    """
    if numerator.rows != denominator.rows:
        raise ValueError("ambient rank mismatch")
    return cokernel(snf(numerator).span_coordinates(denominator))


@record
class GradedGroup:
    """Z/2-graded finitely generated abelian group."""

    even: FGAbelianGroup = FGAbelianGroup()
    odd: FGAbelianGroup = FGAbelianGroup()

    @property
    def has_torsion(self) -> bool:
        return self.even.has_torsion or self.odd.has_torsion

    @property
    def is_trivial(self) -> bool:
        return self.even.is_trivial and self.odd.is_trivial

    def __str__(self) -> str:
        return f"(even: {self.even}, odd: {self.odd})"


def split_sum(terms: Iterable[tuple[GradedGroup, int, int]]) -> GradedGroup:
    """The sum of ``copies`` copies of Sigma^shift group over the (group, shift, copies) terms.

    An odd shift swaps the even and odd parts; each parity is normalized once.
    """
    free, torsion = [0, 0], [[], []]
    for group, shift, copies in terms:
        if copies < 0:
            raise ValueError("negative multiplicity")
        for parity, part in enumerate((group.even, group.odd)):
            k = (parity + shift) % 2
            free[k] += part.free_rank * copies
            torsion[k] += part.torsion * copies
    return GradedGroup(*map(FGAbelianGroup.from_invariants, free, torsion))
