"""Cell-count polynomials for flag varieties of subrepresentations.

The engine decomposes the ambient representation into indecomposable
summands, orders them so that extensions vanish in one direction, and peels
the leading summand off as a quotient.  Flags of the total then stratify by
the flag type of their intersection with the complementary subrepresentation;
each stratum is an affine bundle over the product of the two smaller flag
varieties, so point counts multiply and pick up a power of q equal to the
bundle rank.  Indecomposable base cases are rigid, so a nonempty one is a
palindromic polynomial 1 + c_1 q + ... + c_1 q^(D-1) + q^D of the expected
dimension D; its middle coefficients are fitted to finite-field counts and
checked at one held-out prime.  An empty one, read off F_2, is checked at F_3.

The recursion runs on step tuples and coefficient tuples, and its memo keys
each flag variety once: a zero step, or a step equal to the one before, does
not change the variety, so `_poincare_seq` and `base_case` drop them before
the lookup.  A set of splittings is named by the ambient steps and the
quotient side's total, the peeled summand's root; each splitting is a
(sub steps, quotient steps, rank) triple.  The input is validated once, as a
`FlagType`; a `FlagType` is built again only for a base case computed for
the first time, and the answer is wrapped into one `PoincarePolynomial`.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice, product

from .counting import count_flags
from .errors import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    UnsupportedQuiverError,
    VerificationError,
)
from .linalg import QQ, PrimeField, is_prime, rref_rows
from .quiver import DimVector, FlagType, Quiver, _pairing, _peel, classify_dynkin
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
            cur = quot[-2::-1]
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


def _distinct_steps(steps: tuple[DimVector, ...]) -> tuple[DimVector, ...]:
    """The steps without the zero ones and without a repeat of the step
    before: the same flag variety, written one way."""
    out = []
    prev = None
    for step in steps:
        if step != prev and any(step):
            out.append(step)
        prev = step
    return tuple(out)


def _telescoped_rank(
    quiver: Quiver, w: tuple[DimVector, ...], v: tuple[DimVector, ...]
) -> int:
    """Sum over t >= 1 of <w_{t-1}, v_t - v_{t-1}> on raw step tuples."""
    n = quiver.n
    if len(w[0]) != n or len(v[0]) != n:
        raise InputError(f"flag type steps must have length {n}")
    arrows = quiver.arrow_indices
    total = 0
    for w_prev, v_prev, v_next in zip(w, v, v[1:]):
        total += _pairing(arrows, w_prev, tuple(map(operator.sub, v_next, v_prev)))
    return total


def stratum_rank(quiver: Quiver, quot_flag: FlagType, sub_flag: FlagType) -> int:
    """Affine-bundle rank of the stratum: sum over r < t of <wbar_r, vbar_t>,
    with w the quotient-side flag type and v the sub-side one.

    The sum over r < t of wbar_r is the step w_{t-1}, so the rank telescopes
    to the sum over t >= 1 of <w_{t-1}, vbar_t>: d - 1 Euler-form values.
    """
    if quot_flag.d != sub_flag.d:
        raise InputError("flag types of different lengths")
    return _telescoped_rank(quiver, quot_flag.steps, sub_flag.steps)


def rigid_dimension(quiver: Quiver, flag_type: FlagType) -> int:
    """Expected dimension of a nonempty flag variety of a rigid representation."""
    return _telescoped_rank(quiver, flag_type.steps, flag_type.steps)


@lru_cache(maxsize=200_000)
def enumerate_splittings(
    quiver: Quiver, steps: tuple[DimVector, ...], quot_total: DimVector
) -> tuple[tuple, ...]:
    """All splittings (v, w, rank) with v + w = steps and w ending at
    quot_total: the sub-side steps, the quotient-side steps and the stratum's
    bundle rank.  The sub side ends at steps[-1] - quot_total.

    `steps` are the steps of a `FlagType`, so they are not checked again; the
    quotient total is.  Both sides must be monotone; per step the admissible
    vectors form a box, walked lexicographically from the top step down for a
    deterministic order.  The rank is the telescoped sum of `stratum_rank`,
    one Euler-form term <w_{r-1}, v_r - v_{r-1}> added per chosen step v_{r-1}.
    """
    n = quiver.n
    sub_total = tuple(map(operator.sub, steps[-1], quot_total))
    if len(quot_total) != n or min(quot_total + sub_total, default=0) < 0:
        raise InputError(
            f"the quotient total must be a nonnegative vector of length {n} "
            "not above the ambient weight"
        )
    arrows = quiver.arrow_indices
    # partial splittings (v steps, w steps, rank), lowest chosen step first,
    # each extended one step down in box order; an empty box drops it
    partial = [((sub_total,), (quot_total,), 0)]
    for r in range(len(steps) - 1, 0, -1):
        below, top = steps[r - 1], steps[r]
        extended = []
        for v_acc, w_acc, rank in partial:
            above = v_acc[0]
            ranges = [range(max(0, a - t + b), min(b, a) + 1) for a, t, b in zip(above, top, below)]
            for choice in product(*ranges):
                w_step = tuple(map(operator.sub, below, choice))
                term = _pairing(arrows, w_step, tuple(map(operator.sub, above, choice)))
                extended.append(((choice,) + v_acc, (w_step,) + w_acc, rank + term))
        partial = extended
    return tuple(partial)


@lru_cache(maxsize=None)
def _ext1_roots(quiver: Quiver, a: DimVector, b: DimVector) -> int:
    ra = indecomposable_for_root(quiver, a, QQ)
    rb = indecomposable_for_root(quiver, b, QQ)
    return ext1_dim(ra, rb)


def directed_order(multiset: RootMultiset) -> tuple[DimVector, ...]:
    """Distinct roots ordered so Ext^1(earlier, later) = 0, stably.

    Places, again and again, the first remaining root in canonical multiset
    order that has no Ext^1 into another remaining root.
    """
    quiver = multiset.quiver
    return _peel(
        [root for root, _ in multiset.items],
        lambda a, b: _ext1_roots(quiver, a, b),
        "extension relation among summands has a cycle",
    )


class PoincareEngine:
    """The recursion for one Dynkin quiver and budget, with its memo.

    `_poly` maps (summands in directed order, distinct nonzero flag steps)
    to coefficient tuples; a single summand's entry is its base case.  Get
    an engine from `engine_for`, which keeps one per (quiver, budget).
    """

    def __init__(self, quiver: Quiver, budget: int | None = None):
        self.quiver = quiver
        if not classify_dynkin(quiver).is_dynkin:
            raise UnsupportedQuiverError("the recursion needs a Dynkin quiver")
        self.budget = budget
        self._poly: dict = {}
        self._orders: dict = {}
        self._singles: dict = {}

    def single(self, root: DimVector) -> RootMultiset:
        """The one-summand multiset of a root, made once per engine."""
        ms = self._singles.get(root)
        if ms is None:
            ms = self._singles[root] = RootMultiset(self.quiver, ((root, 1),))
        return ms

    # -- oracle hook -------------------------------------------------------

    def count(self, multiset: RootMultiset, u: FlagType, q: int) -> int:
        return count_flags(build_rep(multiset, PrimeField(q)), u, self.budget)

    # -- base cases ----------------------------------------------------------

    def base_case_rigid_interpolation(
        self, multiset: RootMultiset, u: FlagType
    ) -> PoincarePolynomial:
        """Fit the count polynomial of a rigid representation.

        A nonempty flag variety of a rigid representation is smooth of the
        expected dimension D and has a cell count with nonnegative
        coefficients, so by Poincare duality it is palindromic:
        1 + c_1 q + ... + c_1 q^(D-1) + q^D.  The count over F_2 decides
        emptiness, and a zero count over F_3 witnesses it; the floor(D/2)
        free coefficients are solved exactly from the counts at the first
        floor(D/2) primes, and the count at one more prime (at F_3 too when
        nothing is solved) is a held-out witness.
        """
        if not self.multiset_is_rigid(multiset):
            raise InputError("interpolation base case needs a rigid representation")

        def counted(p: int) -> int:
            try:
                return self.count(multiset, u, p)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"base case out of desk range for summands {multiset.items}: {exc}"
                ) from exc

        counts = [counted(2)]
        if not counts[0]:
            witness = counted(3)
            if witness:
                raise VerificationError(
                    f"counted 0 at q = 2 but {witness} at q = 3 for summands "
                    f"{multiset.items}, flag {u.steps}"
                )
            return PoincarePolynomial.zero()
        dim = max(rigid_dimension(self.quiver, u), 0)
        half = dim // 2
        primes = list(islice(filter(is_prime, count(2)), max(half, 1) + 1))
        counts += map(counted, primes[1:])

        def mirrored(k: int, p: int) -> int:  # q^k + q^(D-k), or q^k in the middle
            return p**k + p ** (dim - k) if 2 * k < dim else p**k

        rows = [
            [mirrored(k, p) for k in range(1, half + 1)] + [n - mirrored(0, p)]
            for p, n in zip(primes, counts[:half])
        ]
        solved, pivots = rref_rows(rows, 0)
        if pivots != tuple(range(half)):
            raise VerificationError(
                f"palindromic fit is singular for summands {multiset.items}, flag {u.steps}"
            )
        fit = [1] + [row[-1] for row in solved]
        if any(c.denominator != 1 or c < 0 for c in fit):
            raise VerificationError(
                f"palindromic fit {' '.join(map(str, fit))} is not a nonnegative "
                f"integer polynomial for summands {multiset.items}, flag {u.steps}"
            )
        coeffs = [0] * (dim + 1)
        for k, c in enumerate(fit):
            coeffs[k] = coeffs[dim - k] = int(c)
        poly = PoincarePolynomial(tuple(coeffs))
        for p, n in zip(primes, counts):
            if poly.evaluate(p) != n:
                raise VerificationError(
                    f"palindromic fit {coeffs} gives {poly.evaluate(p)} at q = {p}, "
                    f"counted {n} for summands {multiset.items}, flag {u.steps}"
                )
        return poly

    def multiset_is_rigid(self, multiset: RootMultiset) -> bool:
        roots = [root for root, _ in multiset.items]
        return all(
            _ext1_roots(self.quiver, a, b) == 0 for a in roots for b in roots
        )

    def base_case(self, root: DimVector, u: FlagType) -> PoincarePolynomial:
        key = ((root,), _distinct_steps(u.steps))
        hit = self._poly.get(key)
        if hit is None:
            poly = self.base_case_rigid_interpolation(self.single(root), u)
            hit = self._poly[key] = poly.coefficients
        return PoincarePolynomial(hit)

    # -- the recursion -------------------------------------------------------

    def poincare(self, multiset: RootMultiset, u: FlagType) -> PoincarePolynomial:
        if multiset.quiver != self.quiver:
            raise InputError("multiset belongs to a different quiver")
        if u.weight != multiset.total:
            raise InputError(
                f"flag type weight {u.weight} differs from total dimension {multiset.total}"
            )
        if sum(mult for _, mult in multiset.items) > sys.getrecursionlimit():
            # the recursion takes one frame per summand
            raise BudgetExceededError("recursion deeper than the interpreter allows")
        roots = tuple(root for root, _ in multiset.items)
        order = self._orders.get(roots)
        if order is None:
            order = {root: pos for pos, root in enumerate(directed_order(multiset))}
            self._orders[roots] = order
        seq = tuple(sorted(multiset.expand(), key=order.__getitem__))
        try:
            return PoincarePolynomial(self._poincare_seq(seq, u.steps))
        except RecursionError:
            # the frames above this call can tip a count under the limit over it
            raise BudgetExceededError("recursion deeper than the interpreter allows") from None

    def _poincare_seq(
        self, seq: tuple[DimVector, ...], steps: tuple[DimVector, ...]
    ) -> tuple[int, ...]:
        """Coefficients of the polynomial of the summands `seq`, in directed
        order, for the flag type with these steps."""
        if not seq:
            return (1,)  # weight 0 forces the empty flag
        # a nonempty seq has a nonzero weight, so the last step stays
        steps = _distinct_steps(steps)
        key = (seq, steps)
        hit = self._poly.get(key)
        if hit is not None:
            return hit
        if len(seq) == 1:
            return self.base_case(seq[0], FlagType(steps)).coefficients
        head, rest = seq[:1], seq[1:]
        total: list[int] = []
        for sub, quot, rank in enumerate_splittings(self.quiver, steps, head[0]):
            p_sub = self._poincare_seq(rest, sub)
            if not p_sub:
                continue
            p_quot = self._poincare_seq(head, quot)
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
    """The process's one engine for this quiver and budget, so a memo filled
    under one budget is never read under another."""
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
