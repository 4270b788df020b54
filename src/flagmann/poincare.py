"""Cell-count polynomials for flag varieties of subrepresentations.

The engine decomposes the ambient representation into indecomposable
summands, orders them so that extensions vanish in one direction, and peels
the leading summand off as a quotient.  Flags of the total then stratify by
the flag type of their intersection with the complementary subrepresentation;
each stratum is an affine bundle over the product of the two smaller flag
varieties, so point counts multiply and pick up a power of q equal to the
bundle rank.  Indecomposable base cases are settled by small finite-field
counts (types A and D) or by polynomial interpolation of counts (type E and
rigid representations in general).

The recursion runs on raw step tuples and coefficient tuples.  Its input is
validated once, as a `FlagType`; a `FlagType` is built again only for a base
case computed for the first time, and the answer is wrapped into one
`PoincarePolynomial`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import NamedTuple

from .counting import count_flags
from .errors import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    UnsupportedQuiverError,
    VerificationError,
)
from .linalg import QQ, PrimeField
from .quiver import DimVector, FlagType, Quiver, classify_dynkin, euler_form, flag_differences
from .reps import RootMultiset, build_rep, ext1_dim, indecomposable_for_root


@dataclass(frozen=True)
class PoincarePolynomial:
    """Integer polynomial in q; coefficient i counts i-dimensional cells.

    Canonical form has no trailing zeros; the zero polynomial (empty
    coefficient tuple) encodes the empty variety.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "PoincarePolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "PoincarePolynomial":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coefficients) - 1

    def evaluate(self, x: int) -> int:
        out = 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def factor_binomial(self) -> tuple[int, "PoincarePolynomial"]:
        """Largest m with (1+q)^m dividing self, plus the cofactor."""
        if self.is_zero:
            return 0, self
        m = 0
        cur = list(self.coefficients)
        while True:
            quot = []
            rem = 0
            for c in reversed(cur):
                # divide by (q + 1) from the top coefficient down
                quot.append(c - rem)
                rem = c - rem
            if rem != 0:
                return m, PoincarePolynomial(tuple(cur))
            quot = list(reversed(quot[:-1] if len(quot) > 1 else []))
            if not quot:
                return m, PoincarePolynomial(tuple(cur))
            cur = quot
            m += 1

    def format_coefficients(self) -> str:
        if self.is_zero:
            return "0"
        return " ".join(str(c) for c in self.coefficients)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}q" if i == 1 else f"{head}q^{i}")
        return " + ".join(parts)


class StratumSplit(NamedTuple):
    """A splitting of an ambient flag type across a sub/quotient pair: the
    sub-side and quotient-side steps and the stratum's bundle rank."""

    sub: tuple[DimVector, ...]
    quot: tuple[DimVector, ...]
    rank: int


def stratum_rank(quiver: Quiver, quot_flag: FlagType, sub_flag: FlagType) -> int:
    """Affine-bundle rank of the stratum: sum over r < t of <wbar_r, vbar_t>,
    with w the quotient-side flag type and v the sub-side one.

    The sum over r < t of wbar_r is the step w_{t-1}, so the rank telescopes
    to the sum over t >= 1 of <w_{t-1}, vbar_t>: d - 1 Euler-form values.
    """
    if quot_flag.d != sub_flag.d:
        raise InputError("flag types of different lengths")
    w = quot_flag.steps
    vbar = flag_differences(sub_flag)
    return sum(euler_form(quiver, w[t - 1], vbar[t]) for t in range(1, sub_flag.d))


def rigid_dimension(quiver: Quiver, flag_type: FlagType) -> int:
    """Expected dimension of a nonempty flag variety of a rigid representation."""
    return stratum_rank(quiver, flag_type, flag_type)


@lru_cache(maxsize=200_000)
def enumerate_splittings(
    quiver: Quiver, steps: tuple[DimVector, ...], sub_total: DimVector, quot_total: DimVector
) -> tuple[StratumSplit, ...]:
    """All step pairs (v, w) with v + w = steps, v ending at sub_total.

    `steps` are the steps of a `FlagType`, so they are not checked again; the
    totals are.  Both sides must be monotone; per step the admissible vectors
    form a box, walked lexicographically from the top step down for a
    deterministic order.  The rank is the telescoped sum of `stratum_rank`,
    one Euler-form term <w_{r-1}, v_r - v_{r-1}> added per chosen step v_{r-1}.
    """
    n = quiver.n
    if (
        len(sub_total) != n
        or len(quot_total) != n
        or min(sub_total + quot_total, default=0) < 0
        or tuple(map(operator.add, sub_total, quot_total)) != steps[-1]
    ):
        raise InputError(
            f"sub and quotient totals must be nonnegative vectors of length {n} "
            "adding up to the ambient weight"
        )
    arrows = quiver.arrow_indices
    out: list[StratumSplit] = []

    def descend(r: int, above: DimVector, rank: int, v_acc: list, w_acc: list):
        # v_acc and w_acc hold the sub and quotient steps r..d-1, top step first
        if r == 0:
            out.append(StratumSplit(tuple(reversed(v_acc)), tuple(reversed(w_acc)), rank))
            return
        below, top = steps[r - 1], steps[r]
        ranges = []
        for i in range(n):
            lo = max(0, above[i] - top[i] + below[i])
            hi = min(below[i], above[i])
            if lo > hi:
                return
            ranges.append(range(lo, hi + 1))
        for choice in product(*ranges):
            w_step = tuple(map(operator.sub, below, choice))
            v_bar = tuple(map(operator.sub, above, choice))
            term = sum(map(operator.mul, w_step, v_bar))
            for s, t in arrows:
                term -= w_step[s] * v_bar[t]
            v_acc.append(choice)
            w_acc.append(w_step)
            descend(r - 1, choice, rank + term, v_acc, w_acc)
            v_acc.pop()
            w_acc.pop()

    descend(len(steps) - 1, sub_total, 0, [sub_total], [quot_total])
    return tuple(out)


@lru_cache(maxsize=None)
def _ext1_roots(quiver: Quiver, a: DimVector, b: DimVector) -> int:
    ra = indecomposable_for_root(quiver, a, QQ)
    rb = indecomposable_for_root(quiver, b, QQ)
    return ext1_dim(ra, rb)


def directed_order(multiset: RootMultiset) -> tuple[DimVector, ...]:
    """Distinct roots ordered so Ext^1(earlier, later) = 0, stably.

    Topological sort on "A must follow B when Ext^1(A, B) > 0", ties broken
    by the input (canonical multiset) order.
    """
    quiver = multiset.quiver
    roots = [root for root, _ in multiset.items]
    k = len(roots)
    after = [[False] * k for _ in range(k)]
    indeg = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and _ext1_roots(quiver, roots[i], roots[j]) > 0:
                after[j][i] = True  # i must come after j
                indeg[i] += 1
    placed = []
    used = [False] * k
    for _ in range(k):
        pick = None
        for i in range(k):
            if not used[i] and indeg[i] == 0:
                pick = i
                break
        if pick is None:
            raise UnsupportedQuiverError("extension relation among summands has a cycle")
        used[pick] = True
        placed.append(roots[pick])
        for i in range(k):
            if not used[i] and after[pick][i]:
                indeg[i] -= 1
    return tuple(placed)


def _first_primes(k: int) -> list[int]:
    out = []
    cand = 2
    while len(out) < k:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Exact Lagrange interpolation through the given (x, y) points."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = [Fraction(0)] + num  # multiply by x
            for t in range(len(num) - 1):
                num[t] -= xj * num[t + 1]
            den *= xi - xj
        scale = Fraction(yi) / den
        for t, c in enumerate(num):
            coeffs[t] += scale * c
    return coeffs


class PoincareEngine:
    """Shared caches for one Dynkin quiver: polynomials, base cases, counts."""

    def __init__(self, quiver: Quiver, budget: int | None = None):
        self.quiver = quiver
        self.dynkin = classify_dynkin(quiver)
        if not self.dynkin.is_dynkin:
            raise UnsupportedQuiverError("the recursion needs a Dynkin quiver")
        self.budget = budget
        self._poly: dict = {}
        self._base: dict = {}
        self._orders: dict = {}

    # -- oracle hook -------------------------------------------------------

    def count(
        self, multiset: RootMultiset, u: FlagType, q: int, budget: int | None = None
    ) -> int:
        rep = build_rep(multiset, PrimeField(q))
        return count_flags(rep, u, budget if budget is not None else self.budget)

    # -- base cases ----------------------------------------------------------

    def _base_case_type_a(self, root: DimVector, u: FlagType) -> PoincarePolynomial:
        """Flag varieties of type-A indecomposables are empty or a point."""
        n2 = self._count_root(root, u, 2)
        if n2 not in (0, 1):
            raise InternalConsistencyError(
                f"type A count {n2} outside {{0,1}} for root {root}, flag {u.steps}"
            )
        return PoincarePolynomial((n2,))

    def _base_case_type_d(self, root: DimVector, u: FlagType) -> PoincarePolynomial:
        """Type-D indecomposables give empty, a point, or a product of lines.

        The number m of line factors is read off the count over F_2 (3^m) and
        cross-validated over F_3 (4^m).
        """
        n2 = self._count_root(root, u, 2)
        if n2 == 0:
            return PoincarePolynomial.zero()
        m = 0
        rest = n2
        while rest % 3 == 0:
            rest //= 3
            m += 1
        if rest != 1:
            raise InternalConsistencyError(
                f"type D count {n2} is not a power of 3 for root {root}, flag {u.steps}"
            )
        n3 = self._count_root(root, u, 3)
        if n3 != 4**m:
            raise InternalConsistencyError(
                f"type D counts disagree: {n2} over F2 but {n3} over F3 for root {root}"
            )
        return PoincarePolynomial(tuple(comb(m, k) for k in range(m + 1)))  # (1+q)^m

    def base_case_rigid_interpolation(
        self, multiset: RootMultiset, u: FlagType, budget: int | None = None
    ) -> PoincarePolynomial:
        """Interpolate the count polynomial of a rigid representation.

        Counts at the first D+2 primes, where D is the expected dimension; a
        degree-D polynomial is fitted through the first D+1 and the last prime
        plus integrality and nonnegativity act as consistency witnesses.
        """
        if not self.multiset_is_rigid(multiset):
            raise InputError("interpolation base case needs a rigid representation")
        dim = max(rigid_dimension(self.quiver, u), 0)
        primes = _first_primes(dim + 2)
        counts = []
        for p in primes:
            try:
                counts.append(self.count(multiset, u, p, budget))
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"base case out of desk range for summands {multiset.items}: {exc}"
                ) from exc
        coeffs = _interpolate(list(zip(primes[: dim + 1], counts[: dim + 1])))
        if any(c.denominator != 1 for c in coeffs):
            raise VerificationError(
                f"polynomial count violated: non-integer coefficients {coeffs} "
                f"for summands {multiset.items}, flag {u.steps}"
            )
        ints = [int(c) for c in coeffs]
        if any(c < 0 for c in ints):
            raise VerificationError(
                f"polynomial count violated: negative coefficients {ints} "
                f"for summands {multiset.items}, flag {u.steps}"
            )
        poly = PoincarePolynomial(tuple(ints))
        extra = primes[dim + 1]
        if poly.evaluate(extra) != counts[dim + 1]:
            raise VerificationError(
                f"polynomial count violated: witness prime {extra} expected "
                f"{poly.evaluate(extra)}, counted {counts[dim + 1]}"
            )
        return poly

    def multiset_is_rigid(self, multiset: RootMultiset) -> bool:
        roots = [root for root, _ in multiset.items]
        return all(
            _ext1_roots(self.quiver, a, b) == 0 for a in roots for b in roots
        )

    def _count_root(self, root: DimVector, u: FlagType, q: int) -> int:
        ms = RootMultiset(self.quiver, ((root, 1),))
        return self.count(ms, u, q)

    def base_case(self, root: DimVector, u: FlagType) -> PoincarePolynomial:
        key = (root, u.steps)
        hit = self._base.get(key)
        if hit is None:
            if self.dynkin.kind == "A":
                hit = self._base_case_type_a(root, u)
            elif self.dynkin.kind == "D":
                hit = self._base_case_type_d(root, u)
            else:
                hit = self.base_case_rigid_interpolation(
                    RootMultiset(self.quiver, ((root, 1),)), u
                )
            self._base[key] = hit
        return hit

    # -- the recursion -------------------------------------------------------

    def poincare(self, multiset: RootMultiset, u: FlagType) -> PoincarePolynomial:
        if multiset.quiver != self.quiver:
            raise InputError("multiset belongs to a different quiver")
        if u.weight != multiset.total:
            raise InputError(
                f"flag type weight {u.weight} differs from total dimension {multiset.total}"
            )
        roots = tuple(root for root, _ in multiset.items)
        order = self._orders.get(roots)
        if order is None:
            order = {root: pos for pos, root in enumerate(directed_order(multiset))}
            self._orders[roots] = order
        seq = tuple(sorted(multiset.expand(), key=order.__getitem__))
        return PoincarePolynomial(self._poincare_seq(seq, u.steps))

    def _base_coefficients(
        self, root: DimVector, steps: tuple[DimVector, ...]
    ) -> tuple[int, ...]:
        hit = self._base.get((root, steps))
        if hit is None:
            hit = self.base_case(root, FlagType(steps))
        return hit.coefficients

    def _poincare_seq(
        self, seq: tuple[DimVector, ...], steps: tuple[DimVector, ...]
    ) -> tuple[int, ...]:
        """Coefficients of the polynomial of the summands `seq`, in directed
        order, for the flag type with these steps."""
        if not seq:
            return (1,)  # weight 0 forces the empty flag
        if len(seq) == 1:
            return self._base_coefficients(seq[0], steps)
        key = (seq, steps)
        hit = self._poly.get(key)
        if hit is not None:
            return hit
        head, rest = seq[0], seq[1:]
        rest_total = tuple(sum(r[i] for r in rest) for i in range(self.quiver.n))
        total: list[int] = []
        for sub, quot, rank in enumerate_splittings(self.quiver, steps, rest_total, head):
            p_sub = self._poincare_seq(rest, sub)
            if not p_sub:
                continue
            p_quot = self._base_coefficients(head, quot)
            if not p_quot:
                continue
            if rank < 0:
                raise InternalConsistencyError(
                    f"nonempty stratum of negative rank {rank} for summands {seq}, flag {steps}"
                )
            # total += q^rank * p_sub * p_quot; base cases have nonnegative
            # coefficients, so the top entry of the sum is never zero
            top = rank + len(p_sub) + len(p_quot) - 1
            if len(total) < top:
                total += [0] * (top - len(total))
            for i, a in enumerate(p_sub, rank):
                if a:
                    for j, b in enumerate(p_quot, i):
                        total[j] += a * b
        hit = self._poly[key] = tuple(total)
        return hit


_engines: dict = {}


def engine_for(quiver: Quiver, budget: int | None = None) -> PoincareEngine:
    key = (quiver, budget)
    eng = _engines.get(key)
    if eng is None:
        eng = PoincareEngine(quiver, budget)
        _engines[key] = eng
    return eng


def poincare(
    multiset: RootMultiset, u: FlagType, budget: int | None = None
) -> PoincarePolynomial:
    """Cell-count polynomial of the flag variety of type `u` in the
    representation described by `multiset`."""
    return engine_for(multiset.quiver, budget).poincare(multiset, u)
