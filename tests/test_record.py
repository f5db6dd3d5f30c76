"""Value-type behaviour of every record class: immutable, compared by value, built by keyword."""

import pytest

from pvtower.abgroup import FGAbelianGroup, GradedGroup, IntMatrix, SmithNormalForm, snf
from pvtower.exterior import Covector
from pvtower.koszul import (
    DatumError,
    GradedEndo,
    ModuleDatum,
    Presentation,
    RankExactnessReport,
    SpotRankReport,
    build_datum,
    build_symbolic,
)
from pvtower.liegroups import SeriesSpec, homogeneous_ktheory
from pvtower.ring import PolyMatrix, one_minus_var
from pvtower.tower import (
    PVResult,
    TowerLevel,
    TowerObjectShape,
    TowerReport,
    pv_tower,
    tower_shape,
)

Z = FGAbelianGroup(1)
ENDO = GradedEndo(IntMatrix(1, 1, ((1,),)), IntMatrix(0, 0, ()))
DATUM = ModuleDatum(Presentation(1, IntMatrix(1, 1, ((2,),))), Presentation.free(0), (ENDO,))
SPOT = SpotRankReport(1, 1, 1, True)


def _samples():
    """One instance of each of the 20 record classes."""
    return [
        IntMatrix(2, 2, ((1, 0), (0, 1))),
        snf(IntMatrix(2, 2, ((2, 0), (0, 3)))),
        FGAbelianGroup(1, (2,)),
        GradedGroup(Z, FGAbelianGroup(0, (3,))),
        DATUM.even,
        ENDO,
        DATUM,
        build_symbolic(Covector.standard(2)),
        build_datum(DATUM),
        SPOT,
        RankExactnessReport(1, 8, 0, (SPOT,)),
        Covector.standard(2),
        PolyMatrix(1, 1, 1, {(0, 0): one_minus_var(1, 1)}),
        TowerObjectShape("D-term", 1, 1, "S^1 D_1(A)"),
        tower_shape(2, 1),
        PVResult(GradedGroup(Z, Z), False),
        TowerLevel(1, GradedGroup(Z, Z), True, ("why",)),
        pv_tower(DATUM),
        SeriesSpec("A", 2),
        homogeneous_ktheory(SeriesSpec("A", 3), SeriesSpec("A", 2)),
    ]


SAMPLES = _samples()


def _fields(obj):
    return {name: getattr(obj, name) for name in type(obj).__annotations__}


def _hashable(values):
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def test_every_record_class_is_sampled():
    assert len({type(obj) for obj in SAMPLES}) == 20


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__name__)
class TestRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, obj):
        for name, value in _fields(obj).items():
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1

    def test_keyword_and_positional_construction_give_equal_values(self, obj):
        fields = _fields(obj)
        by_keyword = type(obj)(**fields)
        by_position = type(obj)(*fields.values())
        assert by_keyword == obj and by_position == obj and not by_keyword != obj
        if _hashable(fields.values()):
            assert hash(by_keyword) == hash(obj) == hash(by_position)
        else:  # a dict field makes the record unhashable, as a tuple holding it is
            with pytest.raises(TypeError):
                hash(obj)

    def test_another_class_with_the_same_fields_differs(self, obj):
        twin = type("Twin", (type(obj),), {})(**_fields(obj))
        assert twin != obj and obj != twin

    def test_repr_names_every_field(self, obj):
        text = repr(obj)
        assert text.startswith(type(obj).__name__ + "(")
        assert all(f"{name}=" in text for name in _fields(obj))


@pytest.mark.parametrize(
    "a, b",
    [
        (FGAbelianGroup(1, (2,)), FGAbelianGroup(1, (4,))),
        (FGAbelianGroup(1, (2,)), FGAbelianGroup(2, (2,))),
        (IntMatrix(1, 1, ((1,),)), IntMatrix(1, 1, ((2,),))),
        (GradedGroup(Z, FGAbelianGroup()), GradedGroup(FGAbelianGroup(), Z)),
        (SeriesSpec("A", 2), SeriesSpec("A", 3)),
    ],
)
def test_different_fields_differ(a, b):
    assert a != b and not a == b


def test_repr_format():
    assert repr(FGAbelianGroup(1, (2,))) == "FGAbelianGroup(free_rank=1, torsion=(2,))"
    assert repr(SeriesSpec("A", 2)) == "SeriesSpec(series='A', rank=2)"


def test_defaults():
    assert GradedGroup() == GradedGroup(FGAbelianGroup(), FGAbelianGroup())
    assert GradedGroup().is_trivial and GradedGroup(odd=Z).even.is_trivial
    assert FGAbelianGroup() == FGAbelianGroup(0, ()) == FGAbelianGroup(torsion=())
    assert PVResult(GradedGroup(), False).reasons == ()
    assert TowerLevel(1, GradedGroup(), False).reasons == ()
    report = TowerReport(1, (), GradedGroup(), False)
    assert report.reasons == () and report.cohomology == ()


def test_bad_calls_raise_type_error():
    with pytest.raises(TypeError):
        SeriesSpec("A")
    with pytest.raises(TypeError):
        SeriesSpec("A", 2, 3)
    with pytest.raises(TypeError):
        SeriesSpec("A", series="B")
    with pytest.raises(TypeError):
        SeriesSpec("A", 2, bogus=1)


def test_constructors_validate():
    for args in ((-1, 0, ()), (2, 1, ((1,),)), (1, 2, ((1,),))):
        with pytest.raises(ValueError):
            IntMatrix(*args)
    with pytest.raises(ValueError, match="column count"):
        IntMatrix(rows=1, cols=2, entries=((1,),))
    for args in ((-1,), (0, (1,)), (0, (2, 3))):
        with pytest.raises(ValueError):
            FGAbelianGroup(*args)
    with pytest.raises(DatumError, match="shape 1x1, expected 2x2"):
        ModuleDatum(Presentation.free(2), Presentation.free(0), (ENDO,))
    with pytest.raises(DatumError, match="do not commute"):
        shear = IntMatrix(2, 2, ((1, 1), (0, 1)))
        other = IntMatrix(2, 2, ((1, 0), (1, 1)))
        empty = IntMatrix(0, 0, ())
        ModuleDatum(
            even=Presentation.free(2),
            odd=Presentation.free(0),
            endos=(GradedEndo(shear, empty), GradedEndo(other, empty)),
        )
    with pytest.raises(ValueError, match="unknown series"):
        SeriesSpec(series="E", rank=6)


def test_smith_transforms_are_computed_once():
    s = snf(IntMatrix(2, 2, ((2, 4), (6, 8))))
    assert isinstance(s, SmithNormalForm)
    u = s.U
    assert s.U is u and s.V is s.V and s.D is s.D
    assert s == snf(IntMatrix(2, 2, ((2, 4), (6, 8))))  # cached transforms are not fields
