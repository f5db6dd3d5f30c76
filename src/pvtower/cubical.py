"""Equivariant cellular cochain complex of R^n from the cubical face structure.

R^n carries the product CW structure with vertices on the integer
lattice; the faces of the semi-open unit cube [0,1[^n through the origin
are orbit representatives for the translation action.  Equivariant
cochains form free modules over Z[t1^{+-1}, ..., tn^{+-1}] with one
generator per face, and the cochain differential is assembled here by
enumerating actual face boundaries, independently of any contraction
formula.  Comparing the two is the job of :func:`oracle_compare`.
"""

from itertools import combinations
from typing import NamedTuple

from .exterior import Covector, koszul_matrix
from .ring import LaurentPoly, PolyMatrix

# A face of [0,1[^n through the origin is the sorted tuple of its free
# coordinates, which range in ]0,1[; the others are pinned at 0.


def enumerate_faces(n: int, d: int) -> list[tuple[int, ...]]:
    """All C(n, d) d-dimensional faces, in lexicographic order of their free sets."""
    if not 0 <= d <= n:
        raise ValueError(f"dimension {d} out of range 0..{n}")
    return list(combinations(range(1, n + 1), d))


class BoundaryPart(NamedTuple):
    """One boundary face of a cube face.

    ``translated`` is False for the face pinned at coordinate 0 (the
    orbit representative itself) and True for the face at coordinate 1,
    which is the representative moved by the deck translation in
    ``direction``.
    """

    face: tuple[int, ...]
    direction: int
    sign: int  # orientation sign (-1)^(p-1) from dropping the p-th free coordinate
    translated: bool


def face_boundary(face: tuple[int, ...]) -> list[BoundaryPart]:
    parts = []
    for p, s in enumerate(face, start=1):
        sub = face[: p - 1] + face[p:]
        sign = -1 if p % 2 == 0 else 1
        parts.append(BoundaryPart(sub, s, sign, translated=False))
        parts.append(BoundaryPart(sub, s, sign, translated=True))
    return parts


def cellular_differential(n: int, d: int) -> PolyMatrix:
    """Equivariant cochain map from d-face cochains to (d-1)-face cochains.

    The face at coordinate 0 contributes sign * 1; the face at
    coordinate 1 contributes sign * (-t_s), the deck translation showing
    up as the ring variable.
    """
    if not 1 <= d <= n:
        raise ValueError(f"dimension {d} out of range 1..{n}")
    rows = enumerate_faces(n, d - 1)
    cols = enumerate_faces(n, d)
    row_pos = {f: r for r, f in enumerate(rows)}
    origin = (0,) * n
    coeffs: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
    for c, face in enumerate(cols):
        for part in face_boundary(face):
            terms = coeffs.setdefault((row_pos[part.face], c), {})
            if part.translated:
                exps = origin[: part.direction - 1] + (1,) + origin[part.direction:]
                terms[exps] = terms.get(exps, 0) - part.sign
            else:
                terms[origin] = terms.get(origin, 0) + part.sign
    # Every entry is +-(1 - t_s), so build one polynomial per distinct term
    # map rather than one per entry (5,120 entries at n = 10).
    polys: dict[frozenset, LaurentPoly] = {}
    entries = {}
    for key, terms in coeffs.items():
        shape = frozenset(terms.items())
        p = polys.get(shape)
        if p is None:
            p = polys[shape] = LaurentPoly(n, terms)
        if p:
            entries[key] = p
    return PolyMatrix(len(rows), len(cols), n, entries)


def oracle_compare(n: int) -> bool:
    """Match the cubical cochain matrices against contraction by (1 - t_i).

    Searches for one sign vector per spot (diagonal +-1 change of basis,
    shared across consecutive differentials) under which every cellular
    matrix equals the corresponding contraction matrix.  Sign choices are
    propagated entry by entry, exactly.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    v = Covector.standard(n)
    cellular = {d: cellular_differential(n, d) for d in range(1, n + 1)}
    contraction = {d: koszul_matrix(v, d) for d in range(1, n + 1)}

    # One constraint per nonzero entry: sign(row node) * sign(col node) must
    # equal the +-1 ratio of the two entries.  An entry that is nonzero in
    # only one of the two matrices is a mismatch no sign change can mend.
    edges: list[tuple[tuple[int, int], tuple[int, int], int]] = []
    for d in range(1, n + 1):
        cell, kos = cellular[d].entries, contraction[d].entries
        if cell.keys() != kos.keys():
            return False
        for (r, c), a in cell.items():
            b = kos[r, c]
            if a == b:
                ratio = 1
            elif a == -b:
                ratio = -1
            else:
                return False  # entries differ by more than a sign
            edges.append(((d - 1, r), (d, c), ratio))

    # Propagate spot-basis signs over the constraint graph.
    sign: dict[tuple[int, int], int] = {}
    adj: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
    for a, b, ratio in edges:
        adj.setdefault(a, []).append((b, ratio))
        adj.setdefault(b, []).append((a, ratio))
    for node in adj:
        if node in sign:
            continue
        sign[node] = 1
        stack = [node]
        while stack:
            cur = stack.pop()
            for nxt, ratio in adj[cur]:
                want = sign[cur] * ratio
                if nxt not in sign:
                    sign[nxt] = want
                    stack.append(nxt)
                elif sign[nxt] != want:
                    return False
    return True
