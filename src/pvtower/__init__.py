"""Exact K-theory of crossed products by Z^n-actions.

Koszul complexes over Laurent rings and over finitely generated graded
abelian groups, Smith-normal-form homology, Pimsner-Voiculescu towers,
and the K-theory of classical homogeneous spaces.
"""

from .abgroup import (
    FGAbelianGroup,
    GradedGroup,
    IntMatrix,
    SmithNormalForm,
    cokernel,
    homology,
    snf,
    subquotient,
)
from .cubical import CubeFace, cellular_differential, enumerate_faces, oracle_compare
from .exterior import Covector, ExteriorIndex, contraction_terms, exterior_basis, koszul_matrix
from .koszul import (
    DatumComplex,
    GradedEndo,
    ModuleDatum,
    Presentation,
    SymbolicComplex,
    build_datum,
    build_symbolic,
    convolve_with_exterior,
    datum_cohomology,
    generic_rank_exactness,
)
from .liegroups import (
    SeriesSpec,
    homogeneous_ktheory,
    weyl_enumerate,
    weyl_order,
)
from .ring import LaurentPoly, PolyMatrix
from .tower import (
    PVResult,
    TowerReport,
    TowerShape,
    euler_characteristic,
    iterate_rank1,
    pv_rank1,
    pv_tower,
    tower_shape,
)

__all__ = [
    "Covector",
    "CubeFace",
    "DatumComplex",
    "ExteriorIndex",
    "FGAbelianGroup",
    "GradedEndo",
    "GradedGroup",
    "IntMatrix",
    "LaurentPoly",
    "ModuleDatum",
    "PVResult",
    "PolyMatrix",
    "Presentation",
    "SeriesSpec",
    "SmithNormalForm",
    "SymbolicComplex",
    "TowerReport",
    "TowerShape",
    "build_datum",
    "build_symbolic",
    "cellular_differential",
    "cokernel",
    "contraction_terms",
    "convolve_with_exterior",
    "datum_cohomology",
    "enumerate_faces",
    "euler_characteristic",
    "exterior_basis",
    "generic_rank_exactness",
    "homogeneous_ktheory",
    "homology",
    "iterate_rank1",
    "koszul_matrix",
    "oracle_compare",
    "pv_rank1",
    "pv_tower",
    "snf",
    "subquotient",
    "tower_shape",
    "weyl_enumerate",
    "weyl_order",
]
