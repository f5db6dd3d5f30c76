"""Koszul complexes in the two regimes the solvers need.

Symbolic (:class:`SymbolicComplex`): wedge powers of Z^n tensored with a
Laurent ring, with differentials given by contraction against a
covector.  Cohomology over the ring is not computed in general; regular
covectors of the shape (1 - t_i) are resolved by the structure theorem,
witnessed by seeded generic-rank checks in F_P (P = 2^61 - 1), and
directions whose entry vanishes are added back by
:func:`convolve_with_exterior`.

Datum (:class:`DatumComplex`): a finitely generated Z/2-graded group
carrying n pairwise commuting graded endomorphisms beta_i; the
differential is contraction against (1 - beta_1, ..., 1 - beta_n)
realized as block integer matrices, and cohomology is exact via Smith
normal form.

Neither builder multiplies differentials: symbolic d d = 0 is the sign
rule of ``contraction_terms``, which the tests check, and the blocks of
datum d d are the commutators that ``ModuleDatum`` validation already
places in the relation lattice.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from ._record import record
from .abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    LatticeSolveError,
    SmithNormalForm,
    block_diag,
    cokernel,
    hstack,
    kernel_basis,
    snf,
)
from .exterior import Covector, contraction_terms, koszul_matrix
from .ring import P, PolyMatrix

PARITIES = ("even", "odd")


class DatumError(ValueError):
    """The module datum violates one of its structural invariants."""


@record
class Presentation:
    """One parity of the input group: Z^free_rank modulo the column span of relations.

    Each column of ``relations`` is one relation, the form every lattice
    routine reads.  The JSON wire format lists relations as rows; only
    :meth:`of` and the ``ModuleDatum`` JSON methods convert between the two.
    """

    free_rank: int
    relations: IntMatrix  # shape (free_rank, num_relations)

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise DatumError("negative free rank")
        if self.relations.rows != self.free_rank:
            raise DatumError(
                f"relations have {self.relations.rows} rows, expected {self.free_rank}"
            )

    @classmethod
    def free(cls, rank: int) -> "Presentation":
        return cls(rank, IntMatrix.zeros(rank, 0))

    @classmethod
    def of(cls, free_rank: int, relation_rows: list[list[int]]) -> "Presentation":
        return cls(free_rank, IntMatrix.from_rows(relation_rows, free_rank).transpose())

    def group(self) -> FGAbelianGroup:
        return cokernel(self.relations)


@record
class GradedEndo:
    """A degree-zero endomorphism: one square matrix per parity, columns are images."""

    even: IntMatrix
    odd: IntMatrix

    def part(self, parity: str) -> IntMatrix:
        return self.even if parity == "even" else self.odd


@record
class ModuleDatum:
    """Graded group presentation with n commuting graded endomorphisms."""

    even: Presentation
    odd: Presentation
    endos: tuple[GradedEndo, ...]

    def __post_init__(self) -> None:
        for i, e in enumerate(self.endos):
            for parity in PARITIES:
                g = self.presentation(parity).free_rank
                mat = e.part(parity)
                if (mat.rows, mat.cols) != (g, g):
                    raise DatumError(
                        f"endos[{i}].{parity} has shape {mat.rows}x{mat.cols}, expected {g}x{g}"
                    )
        # Each relation lattice is factored once and serves every membership
        # test: first every endomorphism preserves it, then every commutator
        # lies in it, parity by parity.
        lattices = {}
        for parity in PARITIES:
            rel = self.presentation(parity).relations
            lattices[parity] = snf(rel) if rel.cols else None
            for i, e in enumerate(self.endos):
                if not _in_lattice(lattices[parity], e.part(parity) @ rel):
                    raise DatumError(
                        f"endos[{i}].{parity} does not preserve the relation lattice"
                    )
        for parity in PARITIES:
            for (i, a), (j, b) in combinations(enumerate(self.endos), 2):
                a, b = a.part(parity), b.part(parity)
                if not _in_lattice(lattices[parity], a @ b - b @ a):
                    raise DatumError(
                        f"endos[{i}] and endos[{j}] do not commute ({parity} part)"
                    )

    @property
    def n(self) -> int:
        return len(self.endos)

    def presentation(self, parity: str) -> Presentation:
        return self.even if parity == "even" else self.odd

    def group(self) -> GradedGroup:
        return GradedGroup(self.even.group(), self.odd.group())

    # -- JSON wire format ----------------------------------------------

    def to_json_dict(self) -> dict:
        def pres(p: Presentation) -> dict:
            return {
                "free_rank": p.free_rank,
                "relations": [list(row) for row in p.relations.transpose().entries],
            }

        return {
            "n": self.n,
            "even": pres(self.even),
            "odd": pres(self.odd),
            "endos": [
                {
                    "even": [list(r) for r in e.even.entries],
                    "odd": [list(r) for r in e.odd.entries],
                }
                for e in self.endos
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModuleDatum":
        def int_rows(rows: list, width: int, where: str) -> IntMatrix:
            for r, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != width or not all(
                    type(x) is int for x in row
                ):
                    raise DatumError(f"{where}[{r}]: expected a row of {width} integers")
            return IntMatrix.from_rows(rows, width)

        def pres(d: object, where: str) -> Presentation:
            if not isinstance(d, dict):
                raise DatumError(f"{where}: expected an object")
            unknown = set(d) - {"free_rank", "relations"}
            if unknown:
                raise DatumError(f"{where}: unknown field {sorted(unknown)[0]!r}")
            if "free_rank" not in d:
                raise DatumError(f"{where}.free_rank: missing")
            g = d["free_rank"]
            if type(g) is not int or g < 0:
                raise DatumError(f"{where}.free_rank: expected a nonnegative integer")
            rel = d.get("relations", [])
            if not isinstance(rel, list):
                raise DatumError(f"{where}.relations: expected a list of rows")
            return Presentation(g, int_rows(rel, g, f"{where}.relations").transpose())

        def square(mat: object, size: int, where: str) -> IntMatrix:
            if not isinstance(mat, list) or len(mat) != size:
                raise DatumError(f"{where}: expected {size} rows")
            return int_rows(mat, size, where)

        unknown = set(obj) - {"n", "even", "odd", "endos"}
        if unknown:
            raise DatumError(f"datum: unknown field {sorted(unknown)[0]!r}")
        for key in ("n", "even", "odd", "endos"):
            if key not in obj:
                raise DatumError(f"datum.{key}: missing")
        even = pres(obj["even"], "datum.even")
        odd = pres(obj["odd"], "datum.odd")
        if not isinstance(obj["endos"], list):
            raise DatumError("datum.endos: expected a list")
        if type(obj["n"]) is not int or obj["n"] != len(obj["endos"]):
            raise DatumError("datum.n: must equal the number of endomorphisms")

        endos = []
        for i, e in enumerate(obj["endos"]):
            if not isinstance(e, dict):
                raise DatumError(f"datum.endos[{i}]: expected an object")
            unknown = set(e) - {"even", "odd"}
            if unknown:
                raise DatumError(f"datum.endos[{i}]: unknown field {sorted(unknown)[0]!r}")
            if "even" not in e or "odd" not in e:
                raise DatumError(f"datum.endos[{i}]: needs 'even' and 'odd' matrices")
            endos.append(
                GradedEndo(
                    square(e["even"], even.free_rank, f"datum.endos[{i}].even"),
                    square(e["odd"], odd.free_rank, f"datum.endos[{i}].odd"),
                )
            )
        return cls(even, odd, tuple(endos))


def _in_lattice(lattice: SmithNormalForm | None, m: IntMatrix) -> bool:
    """Whether every column of m lies in the factored relation lattice (or m is zero).

    ``lattice`` is None for a parity without relations, whose lattice is 0.
    """
    if m.is_zero:
        return True
    if lattice is None:
        return False
    try:
        lattice.span_coordinates(m)
    except LatticeSolveError:
        return False
    return True


# ---------------------------------------------------------------------------
# Complex construction
# ---------------------------------------------------------------------------


@record
class SymbolicComplex:
    """Contraction against a covector over the Laurent ring.

    Spots wedge^d (d = n..0) have rank C(n, d); ``diffs[j-1]`` holds
    d_j: spot j -> spot j-1.
    """

    covector: Covector
    diffs: tuple[PolyMatrix, ...]

    @property
    def n(self) -> int:
        return self.covector.n

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(comb(self.n, d) for d in range(self.n + 1))

    def differential(self, j: int) -> PolyMatrix:
        """d_j: spot j -> spot j-1, j in 1..n."""
        if not 1 <= j <= self.n:
            raise ValueError(f"differential index {j} out of range 1..{self.n}")
        return self.diffs[j - 1]


@record
class DatumComplex:
    """Contraction against (1 - beta_1, ..., 1 - beta_n) on a module datum, per parity.

    ``diffs[parity][j-1]`` holds d_j as a block integer matrix; consecutive
    differentials compose to zero modulo the spot relation lattice (exactly
    zero when the input group is free).  ``cycle_lattices[parity][d]`` is the
    factored cycle lattice at spot d, which both its cohomology and its
    kernel group are read from.
    """

    datum: ModuleDatum
    diffs: dict[str, tuple[IntMatrix, ...]]
    cycle_lattices: dict[str, tuple[SmithNormalForm, ...]]

    @property
    def n(self) -> int:
        return self.datum.n

    def differential(self, j: int, parity: str) -> IntMatrix:
        """d_j: spot j -> spot j-1 on one parity, j in 1..n."""
        if not 1 <= j <= self.n:
            raise ValueError(f"differential index {j} out of range 1..{self.n}")
        return self.diffs[parity][j - 1]

    def cycles(self, d: int, parity: str) -> SmithNormalForm:
        """The factored cycle lattice at spot d."""
        return self.cycle_lattices[parity][d]


def build_symbolic(v: Covector) -> SymbolicComplex:
    """Koszul complex of contraction against v over the Laurent ring."""
    return SymbolicComplex(v, tuple(koszul_matrix(v, j) for j in range(1, v.n + 1)))


def _block_contraction(n: int, j: int, blocks: list[IntMatrix], g: int) -> IntMatrix:
    """Matrix of contraction against (blocks[0], ..., blocks[n-1]) from spot j to j-1."""
    terms = contraction_terms(n, j)
    cols = comb(n, j) * g
    grid = [[0] * cols for _ in range(comb(n, j - 1) * g)]
    for r, c, s, sign in terms:
        for a, blk_row in enumerate(blocks[s - 1].entries):
            grid[r * g + a][c * g:(c + 1) * g] = [sign * x for x in blk_row]
    return IntMatrix.from_rows(grid, cols)


def spot_relations(datum: ModuleDatum, d: int, parity: str) -> IntMatrix:
    """Relation lattice of spot d (columns), one block per basis subset."""
    return block_diag([datum.presentation(parity).relations] * comb(datum.n, d))


def _cycle_lattice(
    datum: ModuleDatum, diffs: tuple[IntMatrix, ...], d: int, parity: str
) -> SmithNormalForm:
    """Factored lattice {x in spot d : d_d(x) in the relations R_(d-1) of spot d - 1}.

    It is the projection to spot d of the kernel of [d_d | R_(d-1)]; at
    spot 0 it is the identity lattice.  The spot's own relations R_d lie
    inside without being added: validation makes every beta_i preserve the
    relation lattice, so each block +-(1 - beta_i) of d_d maps relations to
    relations and d_d maps R_d into R_(d-1).
    """
    rows = comb(datum.n, d) * datum.presentation(parity).free_rank
    if d == 0:
        return snf(IntMatrix.identity(rows))
    target_rel = spot_relations(datum, d - 1, parity)
    return snf(kernel_basis(hstack(diffs[d - 1], target_rel)).take_rows(0, rows))


def build_datum(datum: ModuleDatum) -> DatumComplex:
    """Koszul complex of contraction against (1 - beta_1, ..., 1 - beta_n)."""
    n = datum.n
    per_parity: dict[str, tuple[IntMatrix, ...]] = {}
    cycles: dict[str, tuple[SmithNormalForm, ...]] = {}
    for parity in PARITIES:
        g = datum.presentation(parity).free_rank
        blocks = [
            IntMatrix.identity(g) - e.part(parity) for e in datum.endos
        ]
        diffs = tuple(_block_contraction(n, j, blocks, g) for j in range(1, n + 1))
        per_parity[parity] = diffs
        cycles[parity] = tuple(_cycle_lattice(datum, diffs, d, parity) for d in range(n + 1))
    return DatumComplex(datum, per_parity, cycles)


# ---------------------------------------------------------------------------
# Datum cohomology
# ---------------------------------------------------------------------------


def _spot_quotient(cx: DatumComplex, d: int, incoming: bool) -> GradedGroup:
    """The cycle lattice at spot d modulo the spot relations, per parity.

    With ``incoming`` the image of d_(d+1) is divided out as well.
    """
    parts = {}
    for parity in PARITIES:
        denominator = spot_relations(cx.datum, d, parity)
        if incoming:
            denominator = hstack(cx.differential(d + 1, parity), denominator)
        parts[parity] = cokernel(cx.cycles(d, parity).span_coordinates(denominator))
    return GradedGroup(parts["even"], parts["odd"])


def datum_spot_cohomology(cx: DatumComplex, d: int) -> GradedGroup:
    """Homology at spot d of a datum complex, one group per parity."""
    return _spot_quotient(cx, d, incoming=d < cx.n)


def datum_cohomology(datum: ModuleDatum) -> list[GradedGroup]:
    """Cohomology of the datum Koszul complex at every spot d = 0..n."""
    cx = build_datum(datum)
    return [datum_spot_cohomology(cx, d) for d in range(cx.n + 1)]


def datum_spot_kernel(cx: DatumComplex, d: int) -> GradedGroup:
    """The kernel of d_d on the quotient spot-d group (d = 1..n)."""
    return _spot_quotient(cx, d, incoming=False)


# ---------------------------------------------------------------------------
# Zero directions
# ---------------------------------------------------------------------------


def convolve_with_exterior(spot_groups: list[GradedGroup], z: int) -> list[GradedGroup]:
    """Tensor spot-indexed cohomology with wedge* Z^z.

    Zero covector directions contribute pure degree shifts: the output at
    spot d collects C(z, a) copies of the input at spot d - a.  Suspension
    bookkeeping happens downstream, where spot d carries shift Sigma^d, so
    the convolution itself works with plain groups.
    """
    n_in = len(spot_groups) - 1
    out = []
    for d in range(n_in + z + 1):
        acc = GradedGroup()
        for a in range(z + 1):
            if 0 <= d - a <= n_in:
                acc = acc.direct_sum(spot_groups[d - a].repeated(comb(z, a)))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Generic-rank exactness witnesses
# ---------------------------------------------------------------------------


@record
class SpotRankReport:
    spot: int
    module_rank: int  # rank of the free middle module at this spot
    observed_rank: int  # max over trials of rank d_spot at the sample points
    consistent: bool  # rank d_j + rank d_{j+1} == C(n, j) in every trial


@record
class RankExactnessReport:
    n: int
    trials: int
    seed: int
    spots: tuple[SpotRankReport, ...]  # spots 1..n

    @property
    def all_consistent(self) -> bool:
        return all(s.consistent for s in self.spots)

    def observed_rank(self, j: int) -> int:
        return self.spots[j - 1].observed_rank


# Sample coordinates are num/den with |num| and den at most this bound.
_SAMPLE_BOUND = 9


def _sample_point(rng: random.Random, nvars: int) -> list[int]:
    """Residues mod P of random rationals num/den, none of them 0 or 1."""
    point = []
    for _ in range(nvars):
        while True:
            num = rng.randint(-_SAMPLE_BOUND, _SAMPLE_BOUND)
            den = rng.randint(1, _SAMPLE_BOUND)
            # Skip 0, and 1, the common zero locus of every 1 - t_i.
            if num == 0 or num == den:
                continue
            point.append(num * pow(den, -1, P) % P)
            break
    return point


def _rank_mod_p(rows: list[dict[int, int]]) -> int:
    """Rank over F_P of the sparse rows :meth:`PolyMatrix.evaluate` gives; consumes them.

    Each step takes a row as pivot, clears its first column from every other
    row, and drops it.
    """
    live = [row for row in rows if row]
    rank = 0
    while live:
        pivot = live.pop()
        col, val = next(iter(pivot.items()))
        inv = pow(val, -1, P)
        rest = []
        for row in live:
            f = row.get(col)
            if f:
                f = f * inv % P
                for c, y in pivot.items():
                    x = (row.get(c, 0) - f * y) % P
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
            if row:
                rest.append(row)
        live = rest
        rank += 1
    return rank


def generic_rank_exactness(
    cx: SymbolicComplex, trials: int = 8, seed: int = 0
) -> RankExactnessReport:
    """Monte Carlo exactness witnesses for a symbolic complex.

    Substitutes independent random nonzero rationals num/den (|num|, den
    <= 9), read as residues mod P = 2^61 - 1, for the variables, computes
    differential ranks over F_P, and checks the rank bookkeeping
    rank(d_j) + rank(d_{j+1}) = C(n, j) that exactness at spot j forces.

    The check is sound one way.  Evaluation at the sampled point is a ring
    map to Q and, since no denominator is divisible by P, to F_P; so
    d_j d_{j+1} = 0 holds over both fields, which gives rank(d_j) +
    rank(d_{j+1}) <= C(n, j) over each, and rank over F_P never exceeds
    rank over Q.
    So a trial that is consistent mod P has the same ranks over Q and is
    consistent there: a false pass is impossible.  A false fail needs P to
    divide a minor.  For ``Covector.standard`` every entry 1 - t_i is
    (den - num)/den with 0 < |den - num| <= 18 < P, a unit mod P, so both
    complexes are exact, both have rank C(n-1, j-1) at d_j, and the report
    is the one over Q with certainty.
    """
    if not isinstance(cx, SymbolicComplex):
        raise ValueError("symbolic complex required")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = cx.n
    nvars = cx.covector.nvars
    rng = random.Random(seed)
    observed = [0] * (n + 2)  # observed[j] = max rank of d_j; d_{n+1} = 0
    consistent = [True] * (n + 1)
    for _ in range(trials):
        point = _sample_point(rng, nvars)
        values: dict = {}  # every d_j has entries +-v_i: evaluate each once per trial
        ranks = [0] * (n + 2)
        for j in range(1, n + 1):
            ranks[j] = _rank_mod_p(cx.differential(j).evaluate(point, values))
            observed[j] = max(observed[j], ranks[j])
        for j in range(1, n + 1):
            if ranks[j] + ranks[j + 1] != comb(n, j):
                consistent[j] = False
    spots = tuple(
        SpotRankReport(
            spot=j,
            module_rank=comb(n, j),
            observed_rank=observed[j],
            consistent=consistent[j],
        )
        for j in range(1, n + 1)
    )
    return RankExactnessReport(n=n, trials=trials, seed=seed, spots=spots)


def endpoint_augmentation_surjective(cx: SymbolicComplex) -> bool:
    """Whether the endpoint cokernel surjects onto Z via augmentation.

    True exactly when every covector entry has augmentation zero, so the
    image of d_1 lies inside the augmentation ideal.
    """
    return all(p.augmentation() == 0 for p in cx.covector.entries)
