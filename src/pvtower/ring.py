"""Exact arithmetic in the Laurent ring Z[t1^{+-1}, ..., tn^{+-1}].

Polynomials are finite maps from exponent vectors to nonzero integer
coefficients.  Values are immutable and canonical: no zero coefficient is
ever stored, and two polynomials are equal iff their term maps are equal.
The variable count ``nvars`` is carried on every value and checked at
every operation boundary; silent broadcasts between rings of different
rank are the main failure mode this guards against.

Coefficients are arbitrary-precision ints.  Evaluation happens in the
prime field F_P with P = 2^61 - 1: a point is a vector of residues and
negative exponents are modular inverses.
"""

from collections.abc import Iterator, Mapping, Sequence
from operator import index

from ._record import record

# The Mersenne prime 2^61 - 1: every evaluation is a residue modulo P.
P = (1 << 61) - 1


class VariableCountMismatch(ValueError):
    """Operands live in Laurent rings with different variable counts."""


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


def _same_ring(a: "LaurentPoly", b: "LaurentPoly") -> None:
    if a.nvars != b.nvars:
        raise VariableCountMismatch(
            f"operands have {a.nvars} and {b.nvars} variables"
        )


class LaurentPoly:
    """An element of Z[t1^{+-1}, ..., tn^{+-1}]."""

    __slots__ = ("_nvars", "_terms", "_key", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            vec = tuple(map(int, exps))
            if len(vec) != nvars:
                raise ValueError(
                    f"exponent vector {vec} has length {len(vec)}, expected {nvars}"
                )
            c = int(coeff)
            if c:
                clean[vec] = clean.get(vec, 0) + c
                if clean[vec] == 0:
                    del clean[vec]
        self._nvars = nvars
        self._terms = clean
        self._key = tuple(sorted(clean.items()))
        # Entries key the per-trial value caches, so each is hashed many times.
        self._hash = hash((nvars, self._key))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, c: int, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(1, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int, power: int = 1) -> "LaurentPoly":
        """The monomial t_i^power, with i in 1..nvars."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = power
        return cls(nvars, {tuple(exps): 1})

    # -- basic queries ------------------------------------------------

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self._key)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self._nvars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._nvars == other._nvars and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly.constant(other, self._nvars)
        return other

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        _same_ring(self, other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, 0) + c
        return LaurentPoly(self._nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self._nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        _same_ring(self, other)
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return LaurentPoly(self._nvars, out)

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------

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

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self._key:
            mag = abs(coeff)
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                factors.append(f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign} {body}")
        head = parts[0]
        out = ("-" if head[0] == "-" else "") + head[2:]
        for part in parts[1:]:
            out += " " + part
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self._nvars}, {str(self)!r})"


def one_minus_var(i: int, nvars: int) -> LaurentPoly:
    """The element 1 - t_i."""
    return LaurentPoly.one(nvars) - LaurentPoly.variable(i, nvars)


@record
class PolyMatrix:
    """Rectangular matrix over a fixed Laurent ring, stored by its nonzero entries.

    ``entries`` maps (row, col) to a nonzero polynomial; every other entry
    is zero.  The map is not copied, so callers must not change it after
    construction.  Contraction and cochain matrices have at most n nonzeros per
    column, so nothing here walks the full rows x cols grid.
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
                raise VariableCountMismatch(
                    f"entry has {p.nvars} variables, matrix has {self.nvars}"
                )
            if not p._terms:
                raise ValueError(f"zero entry stored at ({r}, {c})")

    def entry(self, r: int, c: int) -> LaurentPoly:
        """The entry at (r, c), zero included."""
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r}, {c}) outside a {self.rows}x{self.cols} matrix")
        return self.entries.get((r, c)) or LaurentPoly.zero(self.nvars)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.nvars != other.nvars:
            raise VariableCountMismatch("matrices over different rings")
        by_row: dict[int, list[tuple[int, LaurentPoly]]] = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        zero = LaurentPoly.zero(self.nvars)
        out: dict[tuple[int, int], LaurentPoly] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                out[i, j] = out.get((i, j), zero) + a * b
        return PolyMatrix(
            self.rows, other.cols, self.nvars, {key: p for key, p in out.items() if p}
        )

    @property
    def is_zero(self) -> bool:
        return not self.entries

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
