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

from math import comb

from ._record import record
from .abgroup import FGAbelianGroup, GradedGroup, cokernel, hstack
from .koszul import (
    PARITIES,
    ModuleDatum,
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
