"""Brute-force ground truth: enumerate and count flags of subrepresentations
over a prime field, straight from the definitions.

A flag of type (u_1, ..., u_d) in V is a chain of arrow-stable subspace
tuples of the prescribed dimensions.  Enumeration walks the chain bottom-up
and yields every point as a tuple of steps, each a tuple of one canonical
RREF basis per vertex.  The counting path additionally replaces "subspaces
containing the previous step" by subrepresentations of the quotient, which
keeps every search space as small as possible and makes memoization
effective.  Its last step is counted in closed form: once every vertex but
the last one of the walk is fixed, the completions are the subspaces
between two fixed ones at that vertex, a Gaussian binomial in number; every
earlier step still walks each of its points.  The steps before the last
two are tallied level by level: each distinct exact quotient a level reaches
is walked once, with the number of flag beginnings giving it.  The count
memo keys each flag variety once: `count_flags` drops the zero step
differences, which zero and repeated steps give and which do not change the
variety, while the enumeration keeps every step, since it hands out points.

One counter per quiver and prime owns the tables: the count memo, the
quotient table of each step walked, and the tuple of k-dimensional subspaces
between two bounds for each interval the walk meets, unbounded ones
included, which is listed once and then iterated.  It is the only place a
listed subspace is kept.  The tables share one bound, `_MEMO_BOUND` entries
(a tuple counts its length), checked wherever an entry is added, and are
cleared together with the vertex orders; an interval with more points than
the bound is streamed from `subspaces_between`, one point at a time, and
never stored.

Everything here works over PrimeField representations only.
"""

from __future__ import annotations

import random
from typing import Iterator

from .errors import BudgetExceededError, InputError, InternalConsistencyError
from .linalg import (
    PrimeField,
    gaussian_binomial,
    identity_rows,
    image_rowspace,
    intersect_rowspaces,
    preimage_rowspace,
    rowspace_leq,
    rref_rows,
    subspaces_between,
)
from .quiver import FlagType, Quiver, flag_differences
from .reps import Representation, quotient_maps, subrep_subspaces

DEFAULT_BUDGET = 10**8
# entries the count memo, the quotient tables and the interval tuples hold
# together before all of them are cleared
_MEMO_BOUND = 1_000_000


def candidate_estimate(rep: Representation, flag_type: FlagType) -> int:
    """Upper bound on the number of candidate subspace tuples the search visits."""
    q = rep.field.char
    est = 1
    prev = tuple(0 for _ in rep.dims)
    for step in flag_type.steps[:-1]:
        for n_i, p_i, k_i in zip(rep.dims, prev, step):
            est *= gaussian_binomial(n_i - p_i, k_i - p_i, q)
        prev = step
    return est


class _Counter:
    """Per-(quiver, prime) enumeration engine: a shared count memo, quotient
    tables and interval tuples under one bound, and the vertex orders."""

    def __init__(self, quiver: Quiver, p: int):
        self.p = p
        self.n = quiver.n
        self.arrows = quiver.arrow_indices
        self.in_arrows = [[] for _ in range(self.n)]
        self.out_arrows = [[] for _ in range(self.n)]
        for a, (s, t) in enumerate(self.arrows):
            self.out_arrows[s].append((a, t))
            self.in_arrows[t].append((a, s))
        self.neighbors = [set() for _ in range(self.n)]
        for s, t in self.arrows:
            self.neighbors[s].add(t)
            self.neighbors[t].add(s)
        self.memo: dict = {}
        self.tables: dict = {}
        self.spans: dict = {}
        self.span_entries = 0
        self.orders: dict = {}

    def _make_room(self, extra: int) -> None:
        """Clear all four tables (the memo, the quotient tables, the interval
        tuples and the vertex orders) when `extra` more entries would pass
        the bound."""
        if len(self.memo) + len(self.tables) + self.span_entries + extra > _MEMO_BOUND:
            self.memo.clear()
            self.tables.clear()
            self.spans.clear()
            self.span_entries = 0
            self.orders.clear()

    # -- vertex ordering -------------------------------------------------

    def _vertex_order(self, gap_counts: list[int]) -> list[int]:
        """Cheapest vertex first, then grow through the underlying graph."""
        key = tuple(gap_counts)
        order = self.orders.get(key)
        if order is not None:
            return order
        order = []
        chosen: set[int] = set()
        while len(order) < self.n:
            frontier = [
                i
                for i in range(self.n)
                if i not in chosen and (not order or self.neighbors[i] & chosen)
            ]
            if not frontier:
                frontier = [i for i in range(self.n) if i not in chosen]
            best = min(frontier, key=lambda i: (gap_counts[i], i))
            order.append(best)
            chosen.add(best)
        self.orders[key] = order
        return order

    # -- subrepresentation enumeration ------------------------------------

    def between(self, low: tuple, up: tuple, k: int):
        """The k-dimensional subspaces S with low <= S <= up, in the order of
        `subspaces_between`, as a tuple kept in `spans` under the bound,
        unbounded intervals included; the walk passes
        len(low) <= k <= len(up).  An interval with more points than the
        bound is streamed one point at a time and never stored."""
        if k == len(low):
            return (low,)
        key = (low, up, k)
        found = self.spans.get(key)
        if found is not None:
            return found
        size = gaussian_binomial(len(up) - len(low), k - len(low), self.p)
        if size > _MEMO_BOUND:
            return subspaces_between(low, up, k, self.p)
        self._make_room(size)
        found = tuple(subspaces_between(low, up, k, self.p))
        self.spans[key] = found
        self.span_entries += size
        return found

    def intervals(
        self,
        dims: tuple[int, ...],
        maps: tuple,
        target: tuple[int, ...],
        containing: tuple | None = None,
    ) -> Iterator[tuple]:
        """Fix every vertex but the last one of the walk order; yield
        `(chosen, i, low, up)` for that last vertex `i`.

        The arrow-stable completions of `chosen` are exactly the
        `target[i]`-dimensional S with low <= S <= up at vertex `i`.
        `containing` holds per-vertex RREF bases bounding the result from
        below; the bound from above starts at the whole space.  Constraints
        from arrows propagate as image lower bounds and preimage upper bounds
        while the search walks the vertices, so infeasible branches die early.
        `chosen` is the walk's own list, with `chosen[i]` None; it is only
        valid until the next yield.  The quiver needs at least one vertex.
        """
        p = self.p
        lowers = list(containing) if containing is not None else [()] * self.n
        gap = [
            gaussian_binomial(dims[i] - len(lowers[i]), target[i] - len(lowers[i]), p)
            for i in range(self.n)
        ]
        order = self._vertex_order(gap)
        last = self.n - 1
        chosen: list[tuple | None] = [None] * self.n
        # depth first: one iterator of candidate subspaces per fixed position
        pending: list[Iterator[tuple]] = []
        pos = 0
        while True:
            i = order[pos]
            low = lowers[i]
            for a, s in self.in_arrows[i]:
                if chosen[s] is not None:
                    img = image_rowspace(maps[a], chosen[s], p)
                    if img:
                        low = rref_rows(low + img, p)[0] if low else img
            if len(low) <= target[i]:
                up = identity_rows(dims[i], p)
                for a, t in self.out_arrows[i]:
                    if chosen[t] is not None:
                        pre = preimage_rowspace(maps[a], chosen[t], dims[i], p)
                        up = intersect_rowspaces(up, pre, dims[i], p)
                # low <= up is trivially true when low is 0 or up is everything
                if len(up) >= target[i] and (
                    not low or len(up) == dims[i] or rowspace_leq(low, up, p)
                ):
                    if pos == last:
                        yield chosen, i, low, up
                    else:
                        pending.append(iter(self.between(low, up, target[i])))
            # move on to the next candidate at the deepest open position
            while pending:
                j = order[len(pending) - 1]
                sub = next(pending[-1], None)
                if sub is not None:
                    chosen[j] = sub
                    break
                chosen[j] = None
                pending.pop()
            else:
                return
            pos = len(pending)

    def subreps(
        self,
        dims: tuple[int, ...],
        maps: tuple,
        target: tuple[int, ...],
        containing: tuple | None = None,
    ) -> Iterator[tuple]:
        """Arrow-stable subspace tuples of exact dimensions `target`, each
        interval of `intervals` expanded in turn."""
        if not self.n:
            yield ()
            return
        for chosen, i, low, up in self.intervals(dims, maps, target, containing):
            for sub in self.between(low, up, target[i]):
                chosen[i] = sub
                yield tuple(chosen)
            chosen[i] = None

    # -- counting ----------------------------------------------------------

    def count(self, dims: tuple[int, ...], maps: tuple, diffs: tuple) -> int:
        """Flags with step differences `diffs`.  The steps before the last two
        are tallied level by level, so this calls itself only for those two.
        The last step is a Gaussian binomial per interval, so no quotient is
        built for it.  With no vertices there is one flag and nothing to walk."""
        if len(diffs) <= 1 or not self.n:
            return 1
        key = (dims, maps, diffs)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self._make_room(0)
        total = 0
        if len(diffs) == 2:
            k = diffs[0]
            for _, i, low, up in self.intervals(dims, maps, k):
                total += gaussian_binomial(len(up) - len(low), k[i] - len(low), self.p)
        else:
            # each quotient a level reaches, with the flag beginnings giving it
            level = self.quotients(dims, maps, diffs[0])
            for k in diffs[1:-2]:
                nxt: dict = {}
                for (qdims, qmaps), mult in level.items():
                    for quot, m in self.quotients(qdims, qmaps, k).items():
                        nxt[quot] = nxt.get(quot, 0) + mult * m
                level = nxt
            for (qdims, qmaps), mult in level.items():
                total += mult * self.count(qdims, qmaps, diffs[-2:])
        self.memo[key] = total
        return total

    def quotients(self, dims: tuple[int, ...], maps: tuple, k: tuple[int, ...]) -> dict:
        """Each exact quotient `(qdims, qmaps)` by a `k`-dimensional
        subrepresentation, with the number of subrepresentations giving it.
        A table is stored only once its walk has finished."""
        key = (dims, maps, k)
        table = self.tables.get(key)
        if table is None:
            table = {}
            for sub in self.subreps(dims, maps, k):
                quot = quotient_maps(self.arrows, dims, maps, sub, self.p)
                table[quot] = table.get(quot, 0) + 1
            self._make_room(1)
            self.tables[key] = table
        return table


_counters: dict = {}


def _counter(rep: Representation) -> _Counter:
    if not isinstance(rep.field, PrimeField):
        raise InputError("the counting oracle needs a representation over a prime field")
    key = (rep.quiver, rep.field.p)
    ctr = _counters.get(key)
    if ctr is None:
        ctr = _Counter(rep.quiver, rep.field.p)
        _counters[key] = ctr
    return ctr


def _check_weight(rep: Representation, flag_type: FlagType) -> None:
    if flag_type.weight != rep.dims:
        raise InputError(
            f"flag type of weight {flag_type.weight} inside dimensions {rep.dims}"
        )


def _check_budget(rep: Representation, flag_type: FlagType, budget: int | None) -> None:
    """Reject a flag type of the wrong weight, then a search estimated over budget."""
    _check_weight(rep, flag_type)
    limit = DEFAULT_BUDGET if budget is None else budget
    est = candidate_estimate(rep, flag_type)
    if est > limit:
        raise BudgetExceededError(
            f"estimated {est} candidate tuples exceeds budget {limit}"
        )


def enumerate_flags(rep: Representation, flag_type: FlagType) -> Iterator[tuple]:
    """All flags of the given type in `rep`, as concrete subspace chains:
    one tuple per step, of one canonical RREF basis per vertex."""
    _check_weight(rep, flag_type)
    ctr = _counter(rep)
    steps = flag_type.steps
    # depth first: one subrepresentation iterator per step, each inside the last
    pending = [ctr.subreps(rep.dims, rep.maps, steps[0])]
    acc: list[tuple] = []
    while pending:
        sub = next(pending[-1], None)
        if sub is None:
            pending.pop()
            continue
        r = len(pending)
        del acc[r - 1 :]
        acc.append(sub)
        if r == len(steps):
            yield tuple(acc)
        else:
            pending.append(ctr.subreps(rep.dims, rep.maps, steps[r], sub))


def count_flags(rep: Representation, flag_type: FlagType, budget: int | None = None) -> int:
    """|F_u(V)(F_p)| by exhaustive chained enumeration (quotient form)."""
    _check_budget(rep, flag_type, budget)
    ctr = _counter(rep)
    # a zero difference is a zero or repeated step: the same flag variety
    return ctr.count(rep.dims, rep.maps, tuple(filter(any, flag_differences(flag_type))))


def intersection_dims(point: tuple, subspaces: tuple, p: int) -> tuple:
    """Per-step, per-vertex dimension of the intersection with fixed subspaces."""
    out = []
    for step in point:
        row = []
        for basis, fixed in zip(step, subspaces):
            if not basis or not fixed:
                row.append(0)
                continue
            stacked = rref_rows(basis + fixed, p)[0]
            row.append(len(basis) + len(fixed) - len(stacked))
        out.append(tuple(row))
    return tuple(out)


def stratum_counts(
    u_rep: Representation,
    sub_spaces: tuple,
    flag_type: FlagType,
    budget: int | None = None,
) -> dict:
    """Counts of flags of `flag_type` grouped by the flag type of their
    intersection with the embedded subrepresentation `sub_spaces`."""
    canon = subrep_subspaces(u_rep, sub_spaces)
    _check_budget(u_rep, flag_type, budget)
    p = u_rep.field.p
    out: dict = {}
    for point in enumerate_flags(u_rep, flag_type):
        key = intersection_dims(point, canon, p)
        out[key] = out.get(key, 0) + 1
    return out


def count_strata(
    u_rep: Representation,
    sub_spaces: tuple,
    u: FlagType,
    v: FlagType,
    w: FlagType | None = None,
    budget: int | None = None,
) -> int:
    """Number of flags of type `u` whose intersection flag with the embedded
    subrepresentation has type `v`.  Summing over all `v` recovers count_flags."""
    if v.d != u.d or (w is not None and w.d != u.d):
        raise InputError("flag types of different lengths")
    if w is not None:
        expect = tuple(
            tuple(a - b for a, b in zip(us, vs)) for us, vs in zip(u.steps, v.steps)
        )
        if tuple(w.steps) != expect:
            raise InputError("w does not complement v inside u")
    return stratum_counts(u_rep, sub_spaces, u, budget).get(tuple(v.steps), 0)


def sample_flags(
    rep: Representation,
    flag_type: FlagType,
    count: int,
    rng: random.Random,
    size: int,
) -> list[tuple]:
    """Uniform sample (with replacement) from the full flag enumeration.

    `size` is the pool's size as `count_flags` gave it, so the budget has
    already been applied.  `count` indices are drawn from the pool, and one
    pass of `enumerate_flags` picks the drawn points, stopping at the last one.
    """
    if count < 0:
        raise InputError(f"sample count must be >= 0, got {count}")
    draws = [rng.randrange(size) for _ in range(count)] if size else []
    picked = dict.fromkeys(draws)
    if picked:
        last = max(picked)
        for i, point in enumerate(enumerate_flags(rep, flag_type)):
            if i in picked:
                picked[i] = point
            if i == last:
                break
        else:
            raise InternalConsistencyError(
                f"counted {size} flags, but the enumeration ended before flag {last}"
            )
    return [picked[i] for i in draws]
