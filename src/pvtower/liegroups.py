"""Classical-series data and K-theory of homogeneous spaces G_n / G_k.

Only two facts about a compact group enter the computation: the rank of
its maximal torus and the order of its Weyl group, which comes from a
closed form.  For a nested same-series pair the representation-theoretic
input reduces to the Koszul complex of the rank-k standard covector
(1 - t_1, ..., 1 - t_k) over Z[t1^{+-1}, ..., tk^{+-1}].  That sequence
is regular, so the complex resolves to a single Z at the endpoint by
theorem and is not built here; the n - k remaining directions contribute
an exterior algebra by convolution.
"""

from math import factorial

from ._record import record
from .abgroup import FGAbelianGroup, GradedGroup
from .koszul import convolve_with_exterior
from .tower import assemble_final

_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 3}


@record
class SeriesSpec:
    """A classical simple series member: A_n, B_n, C_n or D_n."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        if self.series not in _MIN_RANK:
            raise ValueError(f"unknown series {self.series!r}; expected A, B, C or D")
        if self.rank < _MIN_RANK[self.series]:
            raise ValueError(
                f"{self.series}-series rank must be at least {_MIN_RANK[self.series]}, got {self.rank}"
            )

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def weyl_order(spec: SeriesSpec) -> int:
    """Order of the Weyl group: (n+1)! for A_n, 2^n n! for B_n/C_n, 2^(n-1) n! for D_n."""
    n = spec.rank
    if spec.series == "A":
        return factorial(n + 1)
    if spec.series in ("B", "C"):
        return 2 ** n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


# ---------------------------------------------------------------------------
# Homogeneous spaces
# ---------------------------------------------------------------------------


@record
class HomogeneousKTheory:
    group: GradedGroup
    spot_groups: tuple[GradedGroup, ...]  # cohomology at wedge^d spots, d = 0..n
    spot_ranks: tuple[int, ...]

    @property
    def nonzero_ranks(self) -> tuple[int, ...]:
        return tuple(r for r in self.spot_ranks if r)


def _check_pair(big: SeriesSpec, small: SeriesSpec) -> tuple[int, int]:
    if big.series != small.series:
        raise ValueError(
            f"series mismatch: {big} and {small} must lie in the same series"
        )
    if small.rank >= big.rank:
        raise ValueError(f"need k < n, got k={small.rank}, n={big.rank}")
    return big.rank, small.rank


def homogeneous_ktheory(big: SeriesSpec, small: SeriesSpec) -> HomogeneousKTheory:
    """K-theory of G_n / G_k for a nested same-series pair, k < n.

    The small group is assumed simply connected (Spin for the B/D
    series), which is what lets its representation ring slot in as the
    coefficient module.  The answer further assumes that restriction
    R(G_n) -> R(G_k) is onto.  That holds for A (SU) and C (Sp) and fails
    for Spin, so B and D answers are model answers: B3/B2 gives Z, Z where
    K^0 = Z + Z/2 and K^1 = Z, and D4/D3 gives Z, Z where K^0 = K^1 = Z^2.

    The regular part is exact by theorem: (1 - t_1, ..., 1 - t_k) is a
    regular sequence, so its Koszul complex has a single Z, the
    augmentation quotient, at the endpoint spot and nothing elsewhere.
    ``TestGenericRank::test_standard_covector_closed_form`` checks the
    ranks of that complex for k = 1..8, every k that ``pv homog`` allows.
    """
    n, k = _check_pair(big, small)
    regular_spots = [GradedGroup(FGAbelianGroup.free(1), FGAbelianGroup.trivial())]
    regular_spots += [GradedGroup() for _ in range(k)]
    spot_groups = convolve_with_exterior(regular_spots, n - k)
    group = assemble_final(spot_groups)
    return HomogeneousKTheory(
        group=group,
        spot_groups=tuple(spot_groups),
        spot_ranks=tuple(g.even.free_rank + g.odd.free_rank for g in spot_groups),
    )
