"""Exact linear algebra over the rationals and over prime fields F_p.

A matrix is a tuple of row tuples.  Every helper takes the characteristic
`p` (`p == 0` means exact rationals via `Fraction`); they are the hot path of
the subspace enumerator and are deliberately allocation-light.

Subspaces are always handled as row spaces of reduced-row-echelon matrices
(tuples of row tuples), which doubles as their canonical form.
`rowspace_leq` is the one containment test between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from typing import Iterator

from .errors import InputError

Rows = tuple


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Rationals:
    """The field of exact rational numbers."""

    char = 0

    def coerce(self, x):
        return x if isinstance(x, Fraction) else Fraction(x)

    def __repr__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p, elements stored as least nonnegative residues."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**31) or not is_prime(self.p):
            raise InputError(f"PrimeField needs a prime < 2^31, got {self.p}")

    @property
    def char(self) -> int:
        return self.p

    def coerce(self, x):
        return int(x) % self.p

    def __repr__(self) -> str:
        return f"GF({self.p})"


FieldSpec = Rationals | PrimeField

QQ = Rationals()


def rref_rows(rows: Rows, p: int) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row echelon form over F_p (or QQ when p == 0).

    Returns (nonzero rows, pivot column indices).
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    rpos = 0
    for col in range(ncols):
        piv = None
        for r in range(rpos, len(work)):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        work[rpos], work[piv] = work[piv], work[rpos]
        if p:
            inv = pow(work[rpos][col], p - 2, p)
            work[rpos] = [(x * inv) % p for x in work[rpos]]
        else:
            inv = Fraction(1) / work[rpos][col]
            work[rpos] = [x * inv for x in work[rpos]]
        for r in range(len(work)):
            if r != rpos and work[r][col]:
                f = work[r][col]
                if p:
                    work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rpos])]
                else:
                    work[r] = [a - f * b for a, b in zip(work[r], work[rpos])]
        pivots.append(col)
        rpos += 1
        if rpos == len(work):
            break
    out = tuple(tuple(r) for r in work[:rpos])
    return out, tuple(pivots)


def rank_rows(rows: Rows, p: int) -> int:
    """Rank over F_p, or over QQ when p == 0.

    Over QQ the elimination is fraction-free: each row is scaled to integers,
    every pivot step cross-multiplies, and each new row is divided by the gcd
    of its entries, so no `Fraction` is made.
    """
    if p:
        return len(rref_rows(rows, p)[0])
    work = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(ints):
            work.append(ints)
    rank = 0
    while work:
        piv = work.pop()
        col = next(c for c, x in enumerate(piv) if x)
        a = piv[col]
        rest = []
        for row in work:
            b = row[col]
            if b:
                row = [a * x - b * y for x, y in zip(row, piv)]
                g = gcd(*row)
                if not g:
                    continue
                if g != 1:
                    row = [x // g for x in row]
            rest.append(row)
        work = rest
        rank += 1
    return rank


def null_space_rows(rows: Rows, ncols: int, p: int) -> Rows:
    """RREF row basis of {x : A x = 0} for the matrix A with the given rows.

    With A in RREF, the kernel is spanned by the rows of its quotient map: a
    unit at each free column, minus that column's entries at the pivots.
    """
    return rref_rows(quotient_map_rows(rref_rows(rows, p)[0], ncols, p)[0], p)[0]


def mat_mul_rows(a: Rows, b: Rows, p: int) -> Rows:
    """Product of row-tuple matrices (a is m x k, b is k x n)."""
    if not a:
        return ()
    if not b:
        return tuple(() for _ in a)
    n = len(b[0])
    out = []
    for arow in a:
        acc = [0] * n
        for x, brow in zip(arow, b):
            if x:
                for j in range(n):
                    acc[j] += x * brow[j]
        if p:
            out.append(tuple(v % p for v in acc))
        else:
            out.append(tuple(Fraction(v) for v in acc))
    return tuple(out)


# ---------------------------------------------------------------------------
# Row-space (subspace) toolkit.  A subspace of F^n is its RREF row basis.
# ---------------------------------------------------------------------------


def rowspace_leq(small: Rows, big: Rows, p: int) -> bool:
    """Whether span(small) lies in span(big), for an RREF basis `big`."""
    pivoted = [(next(i for i, x in enumerate(row) if x), row) for row in big]
    for vec in small:
        v = list(vec)
        for lead, row in pivoted:
            f = v[lead]
            if f:
                if p:
                    v = [(a - f * b) % p for a, b in zip(v, row)]
                else:
                    v = [a - f * b for a, b in zip(v, row)]
        if any(v):
            return False
    return True


def intersect_rowspaces(a: Rows, b: Rows, n: int, p: int) -> Rows:
    """Zassenhaus intersection of two row spaces inside F^n."""
    if len(a) == n:
        return b
    if len(b) == n:
        return a
    zero = tuple([0] * n) if p else tuple([Fraction(0)] * n)
    block = [row + row for row in a] + [row + zero for row in b]
    red, _ = rref_rows(tuple(block), p)
    out = [row[n:] for row in red if not any(row[:n])]
    return rref_rows(tuple(out), p)[0]


@lru_cache(maxsize=1 << 20)
def image_rowspace(m: Rows, basis: Rows, p: int) -> Rows:
    """Row basis of the image of a row space under a matrix (column action)."""
    return rref_rows(mat_mul_rows(basis, tuple(zip(*m)), p), p)[0]


@lru_cache(maxsize=1 << 20)
def quotient_map_rows(basis: Rows, n: int, p: int) -> tuple[Rows, tuple[int, ...]]:
    """The matrix of F^n -> F^n/span(basis) in complement coordinates.

    Returns (Q, nonpivot column indices); the section of Q sends the a-th
    quotient coordinate to the unit vector at the a-th nonpivot column.
    """
    pivots = tuple(next(i for i, x in enumerate(row) if x) for row in basis)
    nonpivots = tuple(c for c in range(n) if c not in pivots)
    zero = 0 if p else Fraction(0)
    one = 1 if p else Fraction(1)
    rows = []
    for a in nonpivots:
        row = [zero] * n
        row[a] = one
        for j, pc in enumerate(pivots):
            val = basis[j][a]
            row[pc] = (-val) % p if p else -val
        rows.append(tuple(row))
    return tuple(rows), nonpivots


@lru_cache(maxsize=1 << 20)
def preimage_rowspace(m: Rows, target_basis: Rows, ncols: int, p: int) -> Rows:
    """{x : M x in span(target_basis)} as an RREF row basis."""
    nrows = len(m)
    q, _ = quotient_map_rows(target_basis, nrows, p)
    comp = mat_mul_rows(q, m, p)
    return null_space_rows(comp, ncols, p)


@lru_cache(maxsize=1 << 12)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _rref_bases(n: int, k: int, p: int) -> Iterator[Rows]:
    """All RREF bases of k-dimensional subspaces of F_p^n, in a fixed order,
    made one at a time and kept nowhere."""
    for pivots in combinations(range(n), k):
        # a row is its pivot's unit vector plus any values at the later
        # non-pivot columns; rows vary on their own, the first row and its
        # first free column fastest
        rows = []
        for piv in pivots:
            free = [c for c in range(piv + 1, n) if c not in pivots]
            options = []
            for vals in product(range(p), repeat=len(free)):
                row = [0] * n
                row[piv] = 1
                for c, v in zip(free, reversed(vals)):
                    row[c] = v
                options.append(tuple(row))
            rows.append(options)
        for basis in product(*reversed(rows)):
            yield basis[::-1]


def subspaces_between(lower: Rows, upper: Rows, k: int, p: int) -> Iterator[Rows]:
    """Subspaces S with lower <= S <= upper and dim S = k, in ambient coordinates.

    `lower` must be contained in `upper`; both are RREF bases in a common
    ambient space.  Enumerated via the quotient upper/lower, so the cost only
    depends on the gap dimensions.  The one shortcut: an unbounded interval
    yields `_rref_bases` verbatim, sparing the lift's reduction per basis.
    """
    kl, ku = len(lower), len(upper)
    if k < kl or k > ku:
        return
    if k == kl:
        yield lower
        return
    if not lower and ku == len(upper[0]):
        yield from _rref_bases(ku, k, p)
        return
    upivots = tuple(next(i for i, x in enumerate(row) if x) for row in upper)
    # coordinates of lower inside upper (read off pivot columns of the RREF)
    lower_in_u = tuple(tuple(row[c] for c in upivots) for row in lower)
    _, lpivots = rref_rows(lower_in_u, p)
    nonpivots = tuple(c for c in range(ku) if c not in lpivots)
    for t in _rref_bases(ku - kl, k - kl, p):
        coords = []
        for row in t:
            lift = [0] * ku
            for a, val in enumerate(row):
                lift[nonpivots[a]] = val
            coords.append(tuple(lift))
        ambient = mat_mul_rows(tuple(coords), upper, p) + lower
        yield rref_rows(ambient, p)[0]


@lru_cache(maxsize=None)
def identity_rows(n: int, p: int) -> Rows:
    """The n x n identity as row tuples (`Fraction` entries when p == 0)."""
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
