"""Koszul complexes in the two regimes the solvers need.

Symbolic (:class:`SymbolicComplex`): wedge powers of Z^n tensored with a
Laurent ring, with differentials given by contraction against a
covector.  Cohomology over the ring is not computed: the standard
covector (1 - t_1, ..., 1 - t_n), the only one the solvers build, is a
regular sequence, resolved by the structure theorem and witnessed by
seeded generic-rank checks in F_P (P = 2^61 - 1).

Datum (:class:`DatumComplex`): a finitely generated Z/2-graded group,
per parity Z^g modulo a relation lattice with basis B (g x r), carrying n
graded endomorphisms beta_i that commute modulo the relations.  Its
Koszul differential d, contraction against (1 - beta_1, ..., 1 - beta_n),
has d d = 0 only modulo B.  Each parity is instead read off one complex
of free groups, T_d = P_d + Q_(d-1) with P_d the spot and Q_d = Z^(C(n, d) r),

    delta_d = [[d_d, B], [-h_d, -d'_(d-1)]],

which maps onto the Koszul complex of the quotient groups with the cone
of the identity of Q as kernel; :class:`DatumComplex` gives d', h and
the formulas for cohomology and level kernels.  Each delta_d is written
as sparse {column: value} rows over the directions whose 1 - beta_i does
not act as 0 on the parity, eliminated for the homology and level kernel
at spot d - 1, its target, and dropped before delta_(d+1) is built; a
spot of the full complex is a binomial sum of those built spots.

Neither builder multiplies differentials: symbolic d d = 0 is the sign
rule of ``contraction_terms``, which the tests check, and datum d d = B h
is made of the commutators that ``ModuleDatum`` validation solves for.
"""

import random
from itertools import combinations
from math import comb

from ._record import record, set_field
from .abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    LatticeSolveError,
    SmithNormalForm,
    cokernel,
    hstack,
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
    :meth:`of` and :meth:`ModuleDatum.from_json_dict` convert between the two.
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
        # lies in it, parity by parity.  What the tests solve for is kept as
        # ``lattice_action[parity]``: the relation basis B, the rho_i with
        # beta_i B = B rho_i, and the c_ab with [beta_a, beta_b] = B c_ab.
        # A parity without relations keeps no rho_i or c_ab and only checks
        # beta_a beta_b = beta_b beta_a.
        lattices, actions = {}, {}
        for parity in PARITIES:
            rel = self.presentation(parity).relations
            lattices[parity] = lattice = snf(rel) if rel.cols else None
            rhos = [
                _coordinates(lattice, e.part(parity) @ lattice.basis,
                             f"endos[{i}].{parity} does not preserve the relation lattice")
                for i, e in enumerate(self.endos)
            ] if lattice else []
            actions[parity] = (lattice.basis if lattice else rel, rhos, {})
        for parity in PARITIES:
            lattice = lattices[parity]
            for (i, a), (j, b) in combinations(enumerate(self.endos), 2):
                a, b = a.part(parity), b.part(parity)
                ab, ba = a @ b, b @ a
                error = f"endos[{i}] and endos[{j}] do not commute ({parity} part)"
                if lattice is not None:
                    actions[parity][2][i + 1, j + 1] = _coordinates(lattice, ab - ba, error)
                elif ab != ba:
                    raise DatumError(error)
        set_field(self, "lattice_action", actions)

    @property
    def n(self) -> int:
        return len(self.endos)

    def presentation(self, parity: str) -> Presentation:
        return self.even if parity == "even" else self.odd

    # -- JSON wire format ----------------------------------------------

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


def _coordinates(lattice: SmithNormalForm, m: IntMatrix, error: str) -> IntMatrix:
    """X with B @ X = m for the lattice's basis B, or DatumError(error)."""
    try:
        return lattice.span_coordinates(m)
    except LatticeSolveError:
        raise DatumError(error) from None


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

    def differential(self, j: int) -> PolyMatrix:
        """d_j: spot j -> spot j-1, j in 1..n."""
        if not 1 <= j <= self.n:
            raise ValueError(f"differential index {j} out of range 1..{self.n}")
        return self.diffs[j - 1]


@record
class DatumComplex:
    """The free total complex of a module datum, one per parity.

    For a parity with generators Z^g and relation basis B (g x r),
    validation solves beta_i B = B rho_i and [beta_a, beta_b] = B c_ab.
    Spot d is P_d = Z^(C(n, d) g) with the contraction d_d against the
    1 - beta_i; Q_d = Z^(C(n, d) r) has the contraction d'_d against the
    1 - rho_i; and h_d: P_d -> Q_(d-2), the double contraction against the
    c_ab with sign (-1)^(p+q) for removed positions p < q, solves
    d_(d-1) d_d = B h_d.  Then T_d = P_d + Q_(d-1) (d = 0..n+1) with
    delta_d = [[d_d, B], [-h_d, -d'_(d-1)]] is a complex, and (p, q) -> [p]
    maps it onto the Koszul complex of the quotients P_d / B Q_d.  The
    kernel, B Q_d + Q_(d-1) at T_d, is the cone of the identity of Q,
    which is exact, so the map is a quasi-isomorphism, and the cohomology is

        H_d = Z^(dim T_d - rk delta_d - rk delta_(d+1)) + tors coker delta_(d+1).

    The kernel of d_d on the quotient spot d is the homology at d of T cut
    off above by the injective iota_d = [B; -d'_d], the Q_d columns of
    delta_(d+1):

        Z^(dim T_d - rk delta_d - dim Q_d) + tors coker iota_d.

    A free parity has r = 0, and these are the textbook formulas.  T is
    built over the n' directions that act on the parity's quotient group,
    which still commute modulo B; the ``zeros[parity]`` = n - n' others act
    as 0, tensoring the Koszul complex with wedge* Z^(n - n') under d = 0.
    ``homology[parity][d]`` and ``kernels[parity][d]`` hold H_d and the
    kernel of d_d of the built complex (d = 0..n'), read off delta_(d+1)
    and rk delta_d; no delta_j is kept.  ``n`` is the datum's.
    """

    n: int
    homology: dict[str, tuple[FGAbelianGroup, ...]]
    kernels: dict[str, tuple[FGAbelianGroup, ...]]
    zeros: dict[str, int]


def build_symbolic(v: Covector) -> SymbolicComplex:
    """Koszul complex of contraction against v over the Laurent ring."""
    return SymbolicComplex(v, tuple(koszul_matrix(v, j) for j in range(1, v.n + 1)))


def _double_contraction_terms(lower: list, upper: list):
    """Terms (row, col, (a, b), sign) of d_(j-1) d_j: wedge^j -> wedge^(j-2), a < b.

    ``lower`` and ``upper`` are the contraction terms of degrees j - 1 and j.
    Dropping b, then a, gives sign * (1 - beta_a)(1 - beta_b), and dropping
    a, then b, gives -sign * (1 - beta_b)(1 - beta_a): sign * [beta_a, beta_b].
    """
    second: dict[int, list[tuple[int, int, int]]] = {}
    for row, mid, a, sign in lower:
        second.setdefault(mid, []).append((row, a, sign))
    for mid, col, b, sign in upper:
        for row, a, sign2 in second[mid]:
            if a < b:
                yield row, col, (a, b), sign * sign2


def _nonzeros(m: IntMatrix) -> list[list[tuple[int, int]]]:
    """The (column, value) pairs of the nonzero entries of each row of m."""
    return [[(b, x) for b, x in enumerate(row) if x] for row in m.entries]


def _total_differential(n: int, j: int, g: int, r: int, terms: list, pairs: dict, basis: list,
                        one_minus: list, commutators: dict, one_minus_rho: list) -> list[dict]:
    """delta_j = [[d_j, B], [-h_j, -d'_(j-1)]]: P_j + Q_(j-1) -> P_(j-1) + Q_(j-2), as sparse rows.

    ``terms[k]`` and ``pairs[k]`` list the (double) contraction terms of
    degree k; blocks go in from the left, so each row's columns increase.
    """
    top, left = comb(n, j - 1) * g, comb(n, j) * g
    rows: list[dict[int, int]] = [{} for _ in range(top + (comb(n, j - 2) * r if j >= 2 else 0))]
    blocks = []
    if j <= n:
        blocks += [(row * g, col * g, one_minus[s - 1], sign) for row, col, s, sign in terms[j]]
    blocks += [(k * g, left + k * r, basis, 1) for k in range(comb(n, j - 1))]
    if r and j >= 2:
        if j <= n:
            blocks += [(top + row * r, col * g, commutators[ab], -sign)
                       for row, col, ab, sign in pairs[j]]
        blocks += [(top + row * r, left + col * r, one_minus_rho[s - 1], -sign)
                   for row, col, s, sign in terms[j - 1]]
    for row0, col0, block, sign in blocks:
        for a, entries in enumerate(block):
            target = rows[row0 + a]
            for b, x in entries:
                target[col0 + b] = sign * x
    return rows


def build_datum(datum: ModuleDatum) -> DatumComplex:
    """The free total complex of a module datum, with the homology and level kernel at each spot."""
    terms, pairs, homology, kernels, zeros = {}, {}, {}, {}, {}
    for parity in PARITIES:
        basis, rhos, commutators = datum.lattice_action[parity]
        g, r = basis.rows, basis.cols
        xs = [IntMatrix.identity(g) - e.part(parity) for e in datum.endos]
        # x_i acts as 0 on M = Z^g / B when im x_i lies in im B, that is, when
        # coker [B | x_i] = M / im x_i is isomorphic to coker B = M: a finitely
        # generated abelian group is Hopfian, never isomorphic to a proper
        # quotient.  A g = 0 parity keeps every direction; its blocks are empty.
        group = cokernel(basis) if r else None
        kept = [i for i, x in enumerate(xs) if not g or (
            cokernel(hstack(basis, x)) != group if r else any(map(any, x.entries)))]
        n, index = len(kept), {i + 1: k for k, i in enumerate(kept, 1)}  # renumbers c_ab
        zeros[parity] = datum.n - n
        if n not in terms:  # term lists serve both parities; double terms only with relations
            terms[n] = [None] + [list(contraction_terms(n, j)) for j in range(1, n + 1)]
        if r and n not in pairs:
            pairs[n] = {j: list(_double_contraction_terms(terms[n][j - 1], terms[n][j]))
                        for j in range(2, n + 1)}
        blocks = (_nonzeros(basis), [_nonzeros(xs[i]) for i in kept],
                  {(index[a], index[b]): _nonzeros(c) for (a, b), c in commutators.items()
                   if a in index and b in index},
                  [_nonzeros(IntMatrix.identity(r) - rhos[i]) for i in kept if rhos])
        # Spot i reads coker delta_(i+1) and coker iota_i, the Q_i columns of
        # delta_(i+1), each less rk delta_i (delta_0 = 0).  With no P columns
        # (always at i = n', and everywhere when g = 0), iota_i is delta_(i+1).
        read, rank_in = [], 0
        for i in range(n + 1):
            rows = _total_differential(n, i + 1, g, r, terms[n], pairs.get(n), *blocks)
            left = comb(n, i + 1) * g
            quotient = cokernel(rows)
            iota = cokernel([{c: x for c, x in row.items() if c >= left}
                             for row in rows]) if left else quotient
            read.append((FGAbelianGroup(quotient.free_rank - rank_in, quotient.torsion),
                         FGAbelianGroup(iota.free_rank - rank_in, iota.torsion)))
            rank_in = len(rows) - quotient.free_rank
            del rows  # before delta_(i+2) is built
        homology[parity], kernels[parity] = map(tuple, zip(*read))
    return DatumComplex(datum.n, homology, kernels, zeros)


# ---------------------------------------------------------------------------
# Datum cohomology
# ---------------------------------------------------------------------------


def _binomial_fold(cx: DatumComplex, spots: dict[str, tuple[FGAbelianGroup, ...]],
                   d: int) -> GradedGroup:
    """Spot d of the full complex: C(z, d - i) copies of built spot i, per parity.

    The z split-off directions tensor the built complex with wedge* Z^z
    under the zero differential, so cycles and homology split alike.
    """
    parts = []
    for parity in PARITIES:
        groups, z, free, torsion = spots[parity], cx.zeros[parity], 0, []
        for i in range(max(0, d - z), min(len(groups), d + 1)):
            free += comb(z, d - i) * groups[i].free_rank
            torsion += groups[i].torsion * comb(z, d - i)
        parts.append(FGAbelianGroup.from_invariants(free, torsion))
    return GradedGroup(*parts)


def datum_spot_cohomology(cx: DatumComplex, d: int) -> GradedGroup:
    """Homology at spot d of a datum complex, one group per parity."""
    return _binomial_fold(cx, cx.homology, d)


def datum_cohomology(datum: ModuleDatum) -> list[GradedGroup]:
    """Cohomology of the datum Koszul complex at every spot d = 0..n."""
    cx = build_datum(datum)
    return [datum_spot_cohomology(cx, d) for d in range(cx.n + 1)]


def datum_spot_kernel(cx: DatumComplex, d: int) -> GradedGroup:
    """The kernel of d_d on the quotient spot-d group (d = 1..n)."""
    return _binomial_fold(cx, cx.kernels, d)


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
    v = cx.covector
    for _ in range(trials):
        point = _sample_point(rng, nvars)
        # Every d_j has entries +-v_i: evaluate each v_i once, -v_i is P minus it.
        values: dict = {}
        for p, negated in zip(v.entries, v.negated):
            x = values[p] = p.evaluate(point)
            values[negated] = -x % P
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
