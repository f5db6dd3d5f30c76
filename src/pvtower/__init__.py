"""Exact K-theory of crossed products by Z^n-actions.

Koszul complexes over Laurent rings and over finitely generated graded
abelian groups, Smith normal form, Pimsner-Voiculescu towers, and the
K-theory of classical homogeneous spaces.

Importing the package loads no submodule: each public name is imported
from its module on first access (PEP 562), so ``pv oracle`` never pays
for the Smith-normal-form layer.
"""

from importlib import import_module

# Public name -> the submodule that defines it.
_EXPORTS = {
    "FGAbelianGroup": "abgroup", "GradedGroup": "abgroup", "IntMatrix": "abgroup",
    "SmithNormalForm": "abgroup", "cokernel": "abgroup", "snf": "abgroup",
    "cellular_differential": "cubical", "enumerate_faces": "cubical",
    "oracle_compare": "cubical",
    "Covector": "exterior", "contraction_terms": "exterior", "koszul_matrix": "exterior",
    "DatumComplex": "koszul", "GradedEndo": "koszul", "ModuleDatum": "koszul",
    "Presentation": "koszul", "SymbolicComplex": "koszul", "build_datum": "koszul",
    "build_symbolic": "koszul", "datum_cohomology": "koszul",
    "generic_rank_exactness": "koszul",
    "SeriesSpec": "liegroups", "homogeneous_ktheory": "liegroups", "weyl_order": "liegroups",
    "LaurentPoly": "ring", "PolyMatrix": "ring",
    "PVResult": "tower", "TowerReport": "tower", "TowerShape": "tower",
    "euler_characteristic": "tower", "pv_rank1": "tower", "pv_tower": "tower",
    "tower_shape": "tower",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
