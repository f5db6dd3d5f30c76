"""Elements of the Laurent ring Z[t1^{+-1}, ..., tn^{+-1}], as the rank witness reads them.

Polynomials are finite maps from exponent vectors to nonzero integer
coefficients.  Values are immutable and canonical: no zero coefficient is
ever stored, and two polynomials are equal iff their variable counts and
term maps are equal.  The ring keeps no arithmetic beyond negation: the
witness builds the entries 1 - t_i, negates them and evaluates them.

Coefficients are arbitrary-precision ints.  Evaluation happens in the
prime field F_P with P = 2^61 - 1: a point is a vector of residues and
negative exponents are modular inverses.
"""

from collections.abc import Mapping, Sequence
from operator import index

from ._record import record

# The Mersenne prime 2^61 - 1: every evaluation is a residue modulo P.
P = (1 << 61) - 1


def _residues(point: Sequence[int], nvars: int) -> list[int]:
    """The point reduced mod P; every coordinate must be a unit."""
    if len(point) != nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {nvars}")
    coords = [index(p) % P for p in point]
    for i, p in enumerate(coords):
        if p == 0:
            raise ValueError(
                f"coordinate {i + 1} is zero mod P; negative exponents are undefined at 0"
            )
    return coords


class LaurentPoly:
    """An element of Z[t1^{+-1}, ..., tn^{+-1}], given by its {exponents: coefficient} map."""

    __slots__ = ("_nvars", "_terms", "_key", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            vec = tuple(map(index, exps))
            if len(vec) != nvars:
                raise ValueError(
                    f"exponent vector {vec} has length {len(vec)}, expected {nvars}"
                )
            c = index(coeff)
            if c:
                clean[vec] = clean.get(vec, 0) + c
                if clean[vec] == 0:
                    del clean[vec]
        self._nvars = nvars
        self._terms = clean
        self._key = tuple(sorted(clean.items()))
        # Entries key the per-trial value caches, so each is hashed many times.
        self._hash = hash((nvars, self._key))

    @property
    def nvars(self) -> int:
        return self._nvars

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._nvars == other._nvars and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self._nvars, {e: -c for e, c in self._terms.items()})

    def evaluate(self, point: Sequence[int]) -> int:
        """The value mod P at a point whose coordinates are units mod P."""
        return self._value(_residues(point, self._nvars))

    def _value(self, coords: list[int]) -> int:
        total = 0
        for exps, c in self._terms.items():
            for x, e in zip(coords, exps):
                if e:
                    c = c * pow(x, e, P) % P
            total += c
        return total % P

    def augmentation(self) -> int:
        """Sum of all coefficients (every t_i sent to 1)."""
        return sum(self._terms.values())

    def __repr__(self) -> str:
        return f"LaurentPoly({self._nvars}, {dict(self._key)!r})"


def one_minus_var(i: int, nvars: int) -> LaurentPoly:
    """The element 1 - t_i, with i in 1..nvars."""
    if not 1 <= i <= nvars:
        raise ValueError(f"variable index {i} out of range 1..{nvars}")
    t_i = tuple(int(k == i) for k in range(1, nvars + 1))
    return LaurentPoly(nvars, {(0,) * nvars: 1, t_i: -1})


@record
class PolyMatrix:
    """Rectangular matrix over a fixed Laurent ring, stored by its nonzero entries.

    ``entries`` maps (row, col) to a nonzero polynomial; every other entry
    is zero.  The map is not copied, so callers must not change it after
    construction.  Contraction matrices have at most n nonzeros per column,
    so nothing here walks the full rows x cols grid.
    """

    rows: int
    cols: int
    nvars: int
    entries: dict[tuple[int, int], LaurentPoly]

    def __post_init__(self) -> None:
        for (r, c), p in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) outside a {self.rows}x{self.cols} matrix")
            if p.nvars != self.nvars:
                raise ValueError(f"entry has {p.nvars} variables, matrix has {self.nvars}")
            if not p:
                raise ValueError(f"zero entry stored at ({r}, {c})")

    def evaluate(self, point: Sequence[int], values: dict | None = None) -> list[dict[int, int]]:
        """Nonzero values mod P, a {column: value} map per row; ``values`` caches each entry."""
        coords = _residues(point, self.nvars)
        values = {} if values is None else values
        rows: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for (r, c), p in self.entries.items():
            x = values.get(p)
            if x is None:
                x = values[p] = p._value(coords)
            if x:
                rows[r][c] = x
        return rows
