"""Pimsner-Voiculescu towers at the level of K-theory.

Input is a module datum: a finitely generated Z/2-graded group with n
pairwise commuting graded automorphisms.  The crossed-product K-theory
is assembled from the Koszul cohomology groups h_d (at the wedge^d
spot), each contributing with degree shift Sigma^d; intermediate tower
levels truncate the complex and pick up the kernel of the outgoing
differential at the top retained spot.

Extension policy: the triangles determine groups only up to extensions,
so the assembled answer is the split representative.  A level (or the
final group) is flagged ambiguous exactly when a kernel-side piece has
torsion -- a free kernel forces the extension to split, torsion does
not, and we never guess.
"""

from __future__ import annotations

from math import comb

from ._record import record
from .abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    block_diag,
    cokernel,
    column_span_basis,
    hstack,
    kernel_basis,
    solve_exact,
    subquotient,
)
from .koszul import (
    PARITIES,
    ModuleDatum,
    Presentation,
    build_datum,
    datum_spot_cohomology,
    datum_spot_kernel,
)


# ---------------------------------------------------------------------------
# Structural tower shapes
# ---------------------------------------------------------------------------


@record
class TowerObjectShape:
    kind: str  # "trivial-coefficient" | "D-term" | "crossed-product"
    suspension: int  # mod 2
    multiplicity: int
    label: str


@record
class TowerShape:
    n: int
    w: int
    dual: bool
    objects: tuple[TowerObjectShape, ...]

    def coefficient_multiplicities(self) -> list[int]:
        return [o.multiplicity for o in self.objects if o.kind == "trivial-coefficient"]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "w": self.w,
            "dual": self.dual,
            "objects": [
                {
                    "kind": o.kind,
                    "suspension": o.suspension,
                    "multiplicity": o.multiplicity,
                    "label": o.label,
                }
                for o in self.objects
            ],
        }


def tower_shape(n: int, w: int, dual: bool = False) -> TowerShape:
    """Objects of the rank-n tower with Weyl multiplicity w.

    Coefficient objects appear with multiplicities w * C(n, i-1) for
    i = 1..n+1 and suspensions i-1; D-terms sit between them with
    suspension n; the final vertex is the crossed product.  ``dual``
    switches to the trivial-action labelling.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if w < 1:
        raise ValueError("Weyl multiplicity must be at least 1")
    coeff = "t(A)" if dual else "A"
    dname = "D~" if dual else "D"

    def coefficient(t: int) -> TowerObjectShape:
        mult = w * comb(n, t)
        prefix = f"S^{t} " if t else ""
        return TowerObjectShape(
            kind="trivial-coefficient",
            suspension=t % 2,
            multiplicity=mult,
            label=f"{prefix}C^{mult} (x) {coeff}",
        )

    # Diagram order: start vertex, then each triangle's coefficient followed
    # by its cone vertex (a D-term, or the crossed product at the end).
    objects = [coefficient(0)]
    for t in range(1, n + 1):
        objects.append(coefficient(t))
        if t <= n - 1:
            objects.append(
                TowerObjectShape(
                    kind="D-term",
                    suspension=n % 2,
                    multiplicity=1,
                    label=f"S^{n} {dname}_{n - t}(A)",
                )
            )
        else:
            objects.append(
                TowerObjectShape(
                    kind="crossed-product",
                    suspension=0,
                    multiplicity=1,
                    label="A >< Ghat" if dual else "t(A >< Ghat)",
                )
            )
    return TowerShape(n=n, w=w, dual=dual, objects=tuple(objects))


# ---------------------------------------------------------------------------
# Rank-one Pimsner-Voiculescu
# ---------------------------------------------------------------------------


@record
class PVResult:
    group: GradedGroup
    ambiguous: bool
    reasons: tuple[str, ...] = ()


def _automorphism_check(datum: ModuleDatum) -> None:
    """Reject endomorphisms that are not automorphisms of the quotient.

    A surjective endomorphism of a finitely generated abelian group is
    automatically bijective, so surjectivity is the whole check.
    """
    for i, e in enumerate(datum.endos):
        for parity in PARITIES:
            rel = datum.presentation(parity).relations
            if not cokernel(hstack(e.part(parity), rel)).is_trivial:
                raise ValueError(
                    f"endomorphism {i + 1} ({parity} part) is not an automorphism "
                    "of the quotient group"
                )


def pv_rank1(datum: ModuleDatum) -> PVResult:
    """K-theory of the crossed product by a single automorphism.

    The rank-one tower is the Pimsner-Voiculescu sequence:
    K_0 sits in 0 -> coker(1-beta | even) -> K_0 -> ker(1-beta | odd) -> 0
    and symmetrically for K_1.  A free kernel term forces the split; a
    torsion kernel term leaves the extension unresolved and is flagged.
    """
    if datum.n != 1:
        raise ValueError(f"datum.n: rank1 needs exactly one endomorphism, got {datum.n}")
    report = pv_tower(datum)
    reasons = tuple(_torsion_reasons(report.cohomology[1], _RANK1_KERNEL))
    return PVResult(report.final, bool(reasons), reasons)


# ---------------------------------------------------------------------------
# Full tower
# ---------------------------------------------------------------------------


@record
class TowerLevel:
    level: int
    group: GradedGroup
    ambiguous: bool
    reasons: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "group": self.group.to_dict(),
            "ambiguous": self.ambiguous,
            "reasons": list(self.reasons),
            # Schema 1 pins these keys; no tower computed here fills them.
            "kernel_module_rank": None,
            "kernel_suspension": None,
        }


@record
class TowerReport:
    n: int
    levels: tuple[TowerLevel, ...]  # l = n-1 down to 1
    final: GradedGroup
    ambiguous: bool
    reasons: tuple[str, ...] = ()
    cohomology: tuple[GradedGroup, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "final": self.final.to_dict(),
            "ambiguous": self.ambiguous,
            "reasons": list(self.reasons),
            "levels": [lvl.to_json_dict() for lvl in self.levels],
            "cohomology": [
                {"spot": d, **g.to_dict()} for d, g in enumerate(self.cohomology)
            ],
        }


def suspend_by(g: GradedGroup, shift: int) -> GradedGroup:
    return g.suspend() if shift % 2 else g


def assemble_final(cohomology: list[GradedGroup]) -> GradedGroup:
    """Split representative of the final group: sum of Sigma^d h_d."""
    total = GradedGroup()
    for d, h in enumerate(cohomology):
        total = total.direct_sum(suspend_by(h, d))
    return total


# Wordings of the torsion reasons; {parity} and {spot} are filled in per part.
_COHOMOLOGY = "cohomology at spot {spot} ({parity} part)"
_LEVEL_KERNEL = "kernel term at spot {spot} ({parity} part)"
_RANK1_KERNEL = "kernel term on the {parity} part"


def _torsion_reasons(g: GradedGroup, term: str, spot: int = 0) -> list[str]:
    """One reason per parity part of g that has torsion, naming it by ``term``."""
    return [
        f"{term.format(parity=parity, spot=spot)} has torsion "
        f"{FGAbelianGroup(0, part.torsion)}"
        for parity, part in (("even", g.even), ("odd", g.odd))
        if part.has_torsion
    ]


def pv_tower(datum: ModuleDatum) -> TowerReport:
    """Level groups and crossed-product K-theory of the rank-n tower.

    Level l (l = n-1..1) truncates the complex to spots 0..n-l and is
    the split sum of Sigma^d h_d for d < n-l plus Sigma^(n-l) applied to
    the kernel of the differential at the top retained spot; the final
    vertex is the full sum over all spots.  Torsion in h_0 sits on the
    cokernel side of every triangle and is never a reason.
    """
    _automorphism_check(datum)
    cx = build_datum(datum)
    n = cx.n
    cohomology = [datum_spot_cohomology(cx, d) for d in range(n + 1)]
    spot_reasons = [[]] + [
        _torsion_reasons(cohomology[d], _COHOMOLOGY, d) for d in range(1, n + 1)
    ]

    levels = []
    for l in range(n - 1, 0, -1):
        top = n - l
        ker = datum_spot_kernel(cx, top)
        reasons = sum(spot_reasons[:top], []) + _torsion_reasons(ker, _LEVEL_KERNEL, top)
        levels.append(
            TowerLevel(
                level=l,
                group=assemble_final(cohomology[:top] + [ker]),
                ambiguous=bool(reasons),
                reasons=tuple(reasons),
            )
        )

    final_reasons = sum(spot_reasons, [])
    return TowerReport(
        n=n,
        levels=tuple(levels),
        final=assemble_final(cohomology),
        ambiguous=bool(final_reasons),
        reasons=tuple(final_reasons),
        cohomology=tuple(cohomology),
    )


def euler_characteristic(cohomology: list[GradedGroup] | tuple[GradedGroup, ...]) -> int:
    """Alternating sum over spots of (even rank - odd rank)."""
    return sum(
        (-1) ** d * (h.even.free_rank - h.odd.free_rank) for d, h in enumerate(cohomology)
    )


# ---------------------------------------------------------------------------
# Iterated rank-one assembly (independent oracle path)
# ---------------------------------------------------------------------------


def _solve_in_span(basis: IntMatrix, rel: IntMatrix, targets: IntMatrix) -> IntMatrix:
    """Coordinates Z with basis @ Z = targets modulo the relation lattice."""
    full = solve_exact(hstack(basis, rel), targets)
    return full.take_rows(0, basis.cols)


def _step_rank1(
    presentations: dict[str, Presentation],
    endos: list[dict[str, IntMatrix]],
    index: int,
) -> tuple[dict[str, Presentation], list[dict[str, IntMatrix]], list[str]]:
    """One Pimsner-Voiculescu step along endomorphism ``index``.

    Returns the presentations and induced endomorphisms of the split
    representative coker (+) Sigma ker, with the remaining endomorphisms
    acting blockwise (the cross extension data is what the split drops).
    """
    remaining = [e for i, e in enumerate(endos) if i != index]
    step = endos[index]

    parts: dict[str, dict] = {}
    for parity in PARITIES:
        pres = presentations[parity]
        g = pres.free_rank
        rel = pres.relations
        one_minus = IntMatrix.identity(g) - step[parity]

        # Cokernel block: same generators, relations grown by im(1 - beta).
        coker_pres = Presentation(g, hstack(rel, one_minus))
        coker_endos = [e[parity] for e in remaining]

        # Kernel block: generators a lattice basis of {x : (1-beta)x in L}.
        ker = kernel_basis(hstack(one_minus, rel))
        span = hstack(ker.take_rows(0, g), rel)
        basis = column_span_basis(span)
        r = basis.cols
        if r:
            ker_pres = Presentation(r, kernel_basis(hstack(basis, rel)).take_rows(0, r))
        else:
            ker_pres = Presentation.free(0)
        ker_endos = []
        for e in remaining:
            if r:
                coords = _solve_in_span(basis, rel, e[parity] @ basis)
            else:
                coords = IntMatrix.zeros(0, 0)
            ker_endos.append(coords)
        parts[parity] = {
            "ker_group": subquotient(span, rel) if g else FGAbelianGroup.trivial(),
            "coker_pres": coker_pres,
            "coker_endos": coker_endos,
            "ker_pres": ker_pres,
            "ker_endos": ker_endos,
        }

    def fuse(a: dict, b: dict) -> tuple[Presentation, list[IntMatrix]]:
        # Direct sum of the cokernel block of parity a and kernel block of b.
        pres = Presentation(
            a["coker_pres"].free_rank + b["ker_pres"].free_rank,
            block_diag([a["coker_pres"].relations, b["ker_pres"].relations]),
        )
        mats = [
            block_diag([ca, kb])
            for ca, kb in zip(a["coker_endos"], b["ker_endos"])
        ]
        return pres, mats

    even_pres, even_mats = fuse(parts["even"], parts["odd"])
    odd_pres, odd_mats = fuse(parts["odd"], parts["even"])
    new_pres = {"even": even_pres, "odd": odd_pres}
    new_endos = [
        {"even": em, "odd": om} for em, om in zip(even_mats, odd_mats)
    ]
    kernels = GradedGroup(parts["even"]["ker_group"], parts["odd"]["ker_group"])
    return new_pres, new_endos, _torsion_reasons(kernels, _RANK1_KERNEL)


def iterate_rank1(datum: ModuleDatum, order: list[int] | None = None) -> PVResult:
    """Apply the rank-one solver once per endomorphism, in the given order.

    This is the brute-force assembly path: each step replaces the group
    by the split representative coker (+) Sigma ker with blockwise
    induced actions.  Agrees with :func:`pv_tower` whenever no step is
    flagged.  Because it splits every extension and lets the next
    automorphism act diagonally, it shares the E2 model of
    :func:`pv_tower`: it checks the arithmetic, not the claim that the
    split answer is the crossed product's K-theory.
    """
    _automorphism_check(datum)
    n = datum.n
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    presentations = {"even": datum.even, "odd": datum.odd}
    endos = [{"even": e.even, "odd": e.odd} for e in datum.endos]
    all_reasons: list[str] = []
    for step_no, idx in enumerate(order):
        # Endomorphism positions shift as earlier ones are consumed.
        live = idx - sum(1 for j in order[:step_no] if j < idx)
        presentations, endos, reasons = _step_rank1(presentations, endos, live)
        all_reasons.extend(f"step {step_no + 1}: {r}" for r in reasons)
    group = GradedGroup(
        presentations["even"].group(), presentations["odd"].group()
    )
    return PVResult(group, bool(all_reasons), tuple(all_reasons))
