"""Equivariant cellular cochain complex of R^n from the cubical face structure.

R^n carries the product CW structure with vertices on the integer
lattice; the faces of the semi-open unit cube [0,1[^n through the origin
are orbit representatives for the translation action.  Equivariant
cochains form free modules over Z[t1^{+-1}, ..., tn^{+-1}] with one
generator per face, and the cochain differential is assembled here by
enumerating actual face boundaries, independently of any contraction
formula.  Comparing the two is the job of :func:`oracle_compare`.

A ring element is written as a term map {exponent vector: coefficient}.
"""

from itertools import combinations

from .exterior import contraction_terms

# A face of [0,1[^n through the origin is the sorted tuple of its free
# coordinates, which range in ]0,1[; the others are pinned at 0.


def enumerate_faces(n: int, d: int) -> list[tuple[int, ...]]:
    """All C(n, d) d-dimensional faces, in lexicographic order of their free sets."""
    if not 0 <= d <= n:
        raise ValueError(f"dimension {d} out of range 0..{n}")
    return list(combinations(range(1, n + 1), d))


def face_boundary(face: tuple[int, ...]) -> list[tuple[tuple[int, ...], int, int]]:
    """One (sub_face, direction, sign) per free coordinate of ``face``.

    Dropping the p-th free coordinate ``direction`` leaves two boundary
    faces: ``sub_face`` pinned at 0, and its translate by the deck
    transformation in ``direction``, pinned at 1.  Both carry the
    orientation sign (-1)^(p-1).
    """
    parts = []
    for p, s in enumerate(face, start=1):
        sign = -1 if p % 2 == 0 else 1
        parts.append((face[: p - 1] + face[p:], s, sign))
    return parts


def cellular_differential(n: int, d: int) -> dict[tuple[int, int], dict[tuple[int, ...], int]]:
    """Equivariant cochain map from d-face cochains to (d-1)-face cochains.

    Returns {(row, col): term map} for the nonzero entries.  The face at
    coordinate 0 contributes sign * 1; the face at coordinate 1
    contributes sign * (-t_s), the deck translation showing up as the
    ring variable.
    """
    if not 1 <= d <= n:
        raise ValueError(f"dimension {d} out of range 1..{n}")
    row_pos = {f: r for r, f in enumerate(enumerate_faces(n, d - 1))}
    origin = (0,) * n
    entries: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
    for c, face in enumerate(enumerate_faces(n, d)):
        for sub, s, sign in face_boundary(face):
            terms = entries.setdefault((row_pos[sub], c), {})
            translate = origin[: s - 1] + (1,) + origin[s:]
            terms[origin] = terms.get(origin, 0) + sign
            terms[translate] = terms.get(translate, 0) - sign
    return entries


def oracle_compare(n: int) -> bool:
    """Match the cubical cochain matrices against contraction by (1 - t_i).

    Each contraction term (row, col, s, sign) stands for the entry
    sign * (1 - t_s).  The two complexes must agree up to one sign per
    basis element (a diagonal +-1 change of basis, shared across
    consecutive differentials).  Spot 0 is signed +1; each spot-d basis
    element takes its sign from its first entry, and every other entry
    must agree.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    origin = (0,) * n
    units = [origin[:i] + (1,) + origin[i + 1:] for i in range(n)]
    row_sign = {0: 1}
    for d in range(1, n + 1):
        cellular = cellular_differential(n, d)
        col_sign: dict[int, int] = {}
        for r, c, s, sign in contraction_terms(n, d):
            entry = cellular.pop((r, c), None)
            if entry == {origin: sign, units[s - 1]: -sign}:
                want = row_sign[r]
            elif entry == {origin: -sign, units[s - 1]: sign}:
                want = -row_sign[r]
            else:
                return False  # missing, or differs by more than a sign
            if col_sign.setdefault(c, want) != want:
                return False
        if cellular:
            return False  # nonzero only in the cellular matrix
        row_sign = col_sign
    return True
