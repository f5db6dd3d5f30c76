"""Shared hypothesis strategies and small helpers."""

import os
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

from pvtower.abgroup import IntMatrix, kernel_basis, subquotient
from pvtower.exterior import Covector
from pvtower.ring import LaurentPoly

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")

# pyproject's `pythonpath` puts src/ on this process's sys.path only; the CLI
# tests start `python -m pvtower.cli` in subprocesses, which need it too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)
# They also keep Python's default block-buffered stdout, as a user's shell
# gives them, so that they exercise the flush `cli.entry` makes before os._exit.
os.environ.pop("PYTHONUNBUFFERED", None)


def poly_strategy(nvars: int, max_terms: int = 4, max_exp: int = 3, max_coeff: int = 6):
    exponents = st.tuples(*[st.integers(-max_exp, max_exp) for _ in range(nvars)])
    term = st.tuples(exponents, st.integers(-max_coeff, max_coeff))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: LaurentPoly(nvars, _accumulate(terms))
    )


def _accumulate(terms):
    out = {}
    for exps, coeff in terms:
        out[exps] = out.get(exps, 0) + coeff
    return out


def covector_strategy(n: int, nvars: int | None = None):
    nv = n if nvars is None else nvars
    return st.tuples(*[poly_strategy(nv, max_terms=2, max_exp=2, max_coeff=3) for _ in range(n)]).map(
        lambda entries: Covector(entries, nv)
    )


def homology(d_in, d_out):
    """ker(d_out) / im(d_in) for maps A --d_in--> B --d_out--> C with d_out @ d_in = 0."""
    return subquotient(kernel_basis(d_out), d_in)


def int_matrix_strategy(max_dim: int = 5, max_entry: int = 9):
    def build(shape):
        rows, cols = shape
        return st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ).map(lambda e: IntMatrix.from_rows(e, cols))

    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(build)
