"""Test oracle: crossed-product K-theory by one rank-1 step per automorphism.

Each step replaces the group by the split representative coker (+) Sigma ker
of 1 - beta with blockwise induced actions.  It shares the lattice helpers
(``snf`` and what is built on it) with pvtower, but not the free total
complex: no Koszul differential is formed.  Because it splits every
extension it shares the E2 model of ``pv_tower``, so it checks the
arithmetic, not the claim that the split answer is the crossed product's
K-theory.
"""

from __future__ import annotations

from typing import Sequence

from pvtower.abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    cokernel,
    column_span_basis,
    hstack,
    kernel_basis,
    solve_exact,
    subquotient,
)
from pvtower.koszul import PARITIES, ModuleDatum, Presentation
from pvtower.tower import PVResult, _RANK1_KERNEL, _automorphism_check, _torsion_reasons


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    cols = sum(b.cols for b in blocks)
    out, c0 = [], 0
    for b in blocks:
        out += [(0,) * c0 + row + (0,) * (cols - c0 - b.cols) for row in b.entries]
        c0 += b.cols
    return IntMatrix(len(out), cols, tuple(out))


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
        cokernel(presentations["even"].relations), cokernel(presentations["odd"].relations)
    )
    return PVResult(group, bool(all_reasons), tuple(all_reasons))
