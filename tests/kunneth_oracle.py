"""Test oracle: cohomology of tensor-product datums by the Künneth formula.

A factor is Z or Z^2 in one parity with one automorphism beta.  The tensor
product of n factors is a module datum with n directions: direction k acts
by beta_k on factor k and by the identity on the others, and the product
lies in the parity that is the sum of its factors' parities.  Its Koszul
complex is the tensor product of the factors' complexes
Z^g --(1 - beta)--> Z^g at spots 1 and 0, so over Z, one factor F at a time,

    H_d = sum_(a+b=d) H_a (x) F_b  +  sum_(a+b=d-1) Tor(H_a, F_b).

A datum here is a direct sum of such products.  Factor homology is a table
worked by hand, and a group is a list of cyclic orders (0 for Z), compared
through elementary divisors, so nothing is shared with ``pvtower.abgroup``
or ``pvtower.koszul``.
"""

from math import gcd

# name -> (beta with columns as images, H_1 = ker(1 - beta), H_0 = coker(1 - beta)).
FACTORS = {
    "one": ([[1]], [0], [0]),
    "minus_one": ([[-1]], [], [2]),
    "shear": ([[1, 1], [0, 1]], [0], [0]),
    "cat": ([[2, 1], [1, 1]], [], []),
    "minus_identity": ([[-1, 0], [0, -1]], [], [2, 2]),
    "reflection": ([[1, 0], [0, -1]], [0], [0, 2]),
}


def _tensor(a, b):
    """Z/x (x) Z/y = Z/gcd(x, y), with Z = Z/0."""
    return [g for x in a for y in b if (g := gcd(x, y)) != 1]


def _tor(a, b):
    """Tor(Z/x, Z/y) = Z/gcd(x, y) when x and y are both nonzero, else 0."""
    return [g for x in a for y in b if x and y and (g := gcd(x, y)) != 1]


def product_cohomology(names):
    """H_d, d = 0..n, of the tensor product of the named factors."""
    h = [[0]]  # no factor: Z at spot 0
    for name in names:
        _, kernel, cokernel = FACTORS[name]
        out = [[] for _ in range(len(h) + 1)]
        for a, ha in enumerate(h):
            for b, fb in enumerate((cokernel, kernel)):
                out[a + b] += _tensor(ha, fb)
                if a + b + 1 < len(out):
                    out[a + b + 1] += _tor(ha, fb)
        h = out
    return h


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _identity(g):
    return [[int(i == j) for j in range(g)] for i in range(g)]


def datum_dict(summands):
    """The datum JSON object of a direct sum of products of (name, parity) factors."""
    n = len(summands[0])
    blocks = {0: [], 1: []}  # parity -> one list of n matrices per summand
    for factors in summands:
        mats = [FACTORS[name][0] for name, _ in factors]
        endos = []
        for k in range(n):
            m = [[1]]
            for i, beta in enumerate(mats):
                m = _kron(m, beta if i == k else _identity(len(beta)))
            endos.append(m)
        blocks[sum(p for _, p in factors) % 2].append(endos)

    def block_diag(parity, k):
        mats = [endos[k] for endos in blocks[parity]]
        size = sum(map(len, mats))
        out, at = [[0] * size for _ in range(size)], 0
        for m in mats:
            for i, row in enumerate(m):
                out[at + i][at:at + len(m)] = row
            at += len(m)
        return out

    rank = {p: sum(len(endos[0]) for endos in blocks[p]) for p in (0, 1)}
    return {
        "n": n,
        "even": {"free_rank": rank[0], "relations": []},
        "odd": {"free_rank": rank[1], "relations": []},
        "endos": [{"even": block_diag(0, k), "odd": block_diag(1, k)} for k in range(n)],
    }


def cohomology(summands):
    """Per spot d = 0..n, the (even, odd) groups as lists of cyclic orders."""
    n = len(summands[0])
    spots = [([], []) for _ in range(n + 1)]
    for factors in summands:
        parity = sum(p for _, p in factors) % 2
        for d, h in enumerate(product_cohomology([name for name, _ in factors])):
            spots[d][parity].extend(h)
    return spots


def canonical(orders):
    """(free rank, sorted prime-power orders) of a sum of cyclic groups."""
    free, powers = 0, []
    for m in orders:
        if m == 0:
            free += 1
            continue
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                powers.append(q)
            p += 1
    return free, sorted(powers)
