"""Series specs, Weyl orders, homogeneous-space K-theory."""

from math import comb

import pytest

from pvtower import koszul, liegroups
from pvtower.abgroup import FGAbelianGroup, GradedGroup
from pvtower.liegroups import SeriesSpec, homogeneous_ktheory, weyl_order

from weyl_oracle import weyl_enumerate

Z = FGAbelianGroup.free


class TestSeriesSpec:
    def test_minimum_ranks(self):
        SeriesSpec("A", 1)
        SeriesSpec("B", 2)
        SeriesSpec("C", 3)
        SeriesSpec("D", 3)
        for series, rank in (("A", 0), ("B", 1), ("C", 2), ("D", 2)):
            with pytest.raises(ValueError):
                SeriesSpec(series, rank)

    def test_unknown_series(self):
        with pytest.raises(ValueError):
            SeriesSpec("E", 6)


class TestWeylOrder:
    def test_closed_forms_small(self):
        # A_1 = S_2; B_2 = signed permutations of 2 letters; D_3 = even sign
        # changes on 3 letters -- each enumerated by hand.
        assert weyl_order(SeriesSpec("A", 1)) == 2
        assert weyl_order(SeriesSpec("B", 2)) == 8
        assert weyl_order(SeriesSpec("D", 3)) == 24

    def test_enumeration_examples(self):
        assert weyl_enumerate(SeriesSpec("A", 2)) == 6
        assert weyl_enumerate(SeriesSpec("C", 3)) == 48

    def test_closed_form_matches_enumeration(self):
        for series in "ABCD":
            for rank in range(1, 5):
                try:
                    spec = SeriesSpec(series, rank)
                except ValueError:
                    continue
                assert weyl_order(spec) == weyl_enumerate(spec)

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            weyl_enumerate(SeriesSpec("A", 8))


class TestHomogeneousKTheory:
    def test_five_sphere(self):
        result = homogeneous_ktheory(SeriesSpec("A", 2), SeriesSpec("A", 1))
        assert result.group == GradedGroup(Z(1), Z(1))

    def test_a_series_gap_three(self):
        result = homogeneous_ktheory(SeriesSpec("A", 4), SeriesSpec("A", 1))
        assert result.group == GradedGroup(Z(4), Z(4))

    def test_nonzero_ranks_binomial_profile(self):
        result = homogeneous_ktheory(SeriesSpec("A", 4), SeriesSpec("A", 2))
        assert result.nonzero_ranks == (1, 2, 1)
        assert sum(result.nonzero_ranks) == 4
        assert result.group.even.free_rank == result.group.odd.free_rank == 2

    def test_series_mismatch(self):
        with pytest.raises(ValueError):
            homogeneous_ktheory(SeriesSpec("A", 3), SeriesSpec("B", 2))

    def test_rank_order(self):
        with pytest.raises(ValueError):
            homogeneous_ktheory(SeriesSpec("A", 2), SeriesSpec("A", 2))

    def test_runs_no_witness(self, monkeypatch):
        # The regular part is exact by theorem, so homog must not build or
        # witness its Koszul complex; test_koszul's
        # TestGenericRank::test_standard_covector_closed_form checks k = 1..8.
        def refuse(*args, **kwargs):
            raise AssertionError("homogeneous_ktheory ran the rank witness")

        # A name imported into liegroups would bypass the patch on koszul.
        for name in ("build_symbolic", "generic_rank_exactness"):
            monkeypatch.setattr(koszul, name, refuse)
            monkeypatch.setattr(liegroups, name, refuse, raising=False)
        for series, lowest in (("A", 1), ("C", 3)):
            for k in range(lowest, 9):
                for n in range(k + 1, k + 4):
                    result = homogeneous_ktheory(SeriesSpec(series, n), SeriesSpec(series, k))
                    half = Z(2 ** (n - k - 1))
                    assert result.group == GradedGroup(half, half)
                    assert result.spot_ranks == tuple(comb(n - k, d) for d in range(n + 1))

    def test_spot_groups_free_even(self):
        result = homogeneous_ktheory(SeriesSpec("C", 5), SeriesSpec("C", 3))
        for d, g in enumerate(result.spot_groups):
            assert not g.has_torsion
            assert g.odd.is_trivial
            assert g.even.free_rank == (comb(2, d) if d <= 2 else 0)


class TestHomogeneousTower:
    """The final vertex of the tower for G_n/G_k, read from homogeneous_ktheory."""

    def test_adjacent_pair_total_rank_two(self):
        for series, n in (("A", 2), ("B", 3), ("C", 4), ("D", 4)):
            group = homogeneous_ktheory(SeriesSpec(series, n), SeriesSpec(series, n - 1)).group
            assert group.even.free_rank + group.odd.free_rank == 2
