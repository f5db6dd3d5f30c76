"""Test oracle: Weyl group orders by closing the simple reflections.

The Weyl group of each classical series acts on coordinates by signed
permutations; ``weyl_enumerate`` generates it from the simple reflections
and counts its elements, sharing nothing with the closed forms of
``pvtower.liegroups.weyl_order``.
"""

from __future__ import annotations

from pvtower.liegroups import SeriesSpec

_ENUM_RANK_CAP = 7


# Signed permutations are tuples t with t[i] = +-(j+1) meaning e_i -> sign * e_j.


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for bi in b:
        j = abs(bi) - 1
        out.append(a[j] if bi > 0 else -a[j])
    return tuple(out)


def _simple_reflections(spec: SeriesSpec) -> list[tuple[int, ...]]:
    n = spec.rank
    if spec.series == "A":
        m = n + 1
        ident = tuple(range(1, m + 1))
        gens = []
        for i in range(m - 1):
            g = list(ident)
            g[i], g[i + 1] = g[i + 1], g[i]
            gens.append(tuple(g))
        return gens
    m = n
    ident = tuple(range(1, m + 1))
    gens = []
    for i in range(m - 1):
        g = list(ident)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    if spec.series in ("B", "C"):
        g = list(ident)
        g[m - 1] = -g[m - 1]
        gens.append(tuple(g))
    else:  # D: flip-and-swap on the last two coordinates
        g = list(ident)
        g[m - 2], g[m - 1] = -ident[m - 1], -ident[m - 2]
        gens.append(tuple(g))
    return gens


def weyl_enumerate(spec: SeriesSpec) -> int:
    """Order of the group generated by the simple reflections, by explicit closure."""
    if spec.rank > _ENUM_RANK_CAP:
        raise ValueError(
            f"enumeration capped at rank {_ENUM_RANK_CAP} (combinatorial explosion)"
        )
    gens = _simple_reflections(spec)
    identity = tuple(range(1, len(gens[0]) + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = _compose(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return len(seen)
