"""Datum cohomology of tensor-product datums against the Künneth oracle, up to n = 12."""

from math import comb

import hypothesis.strategies as st
from hypothesis import example, given, settings

from pvtower.koszul import ModuleDatum, datum_cohomology

import kunneth_oracle as oracle

NAMES = sorted(oracle.FACTORS)
RANK_ONE = [name for name in NAMES if len(oracle.FACTORS[name][0]) == 1]
# The largest datums drawn have 2^n * g = 4096, g the larger free rank of the two parities.
SIZE = 4096

TRIVIAL_12 = [[("one", 0)] * 12, [("one", 0)] * 11 + [("one", 1)]]
# One unimodular direction and nine trivial ones, g = 2 in each parity: every spot is 0.
ACYCLIC_10 = [[("cat", 0)] + [("one", 0)] * 9, [("cat", 1)] + [("one", 0)] * 9]


def _size(summands):
    datum = oracle.datum_dict(summands)
    return 2 ** datum["n"] * max(datum["even"]["free_rank"], datum["odd"]["free_rank"])


@st.composite
def product_summands(draw):
    """One or two products of n factors, each a named automorphism in a drawn parity.

    A Z^2 factor is drawn only while the summand's rank may still double, so
    that 2^n * g stays within SIZE even when both summands share a parity.
    """
    n = draw(st.integers(1, 12))
    count = draw(st.integers(1, 2 if n < 12 else 1))
    summands = []
    for _ in range(count):
        room = 12 - n - (count - 1)  # log2 of the rank the summand may still reach
        factors = []
        for _ in range(n):
            name = draw(st.sampled_from(NAMES if room > 0 else RANK_ONE))
            room -= len(oracle.FACTORS[name][0]) - 1
            factors.append((name, draw(st.integers(0, 1))))
        summands.append(factors)
    return summands


def test_oracle_closed_forms():
    assert _size(TRIVIAL_12) == 2 * _size(ACYCLIC_10) == SIZE
    assert oracle.cohomology(TRIVIAL_12) == [([0] * comb(12, d),) * 2 for d in range(13)]
    assert oracle.cohomology(ACYCLIC_10) == [([], [])] * 11
    # Worked by hand: the Z/2 at spot 2, and one of the two at spot 1, are
    # Tor(Z/2, Z/2) of the two -1 factors.
    assert oracle.product_cohomology(["minus_one", "minus_one", "shear"]) == [[2], [2, 2], [2], []]


@given(product_summands())
@settings(max_examples=40)
@example(TRIVIAL_12)
@example(ACYCLIC_10)
@example([[("minus_one", 0), ("minus_one", 0), ("shear", 0)]])
@example([[("minus_one", 0), ("reflection", 1)], [("minus_identity", 1), ("shear", 0)]])
def test_datum_cohomology_matches_kunneth(summands):
    assert _size(summands) <= SIZE
    got = datum_cohomology(ModuleDatum.from_json_dict(oracle.datum_dict(summands)))
    expected = oracle.cohomology(summands)
    for d, (g, (even, odd)) in enumerate(zip(got, expected)):
        for part, orders in ((g.even, even), (g.odd, odd)):
            assert oracle.canonical([0] * part.free_rank + list(part.torsion)) == \
                oracle.canonical(orders), f"spot {d}"
