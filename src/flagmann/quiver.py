"""Quiver combinatorics: dimension vectors, flag types, the Euler form,
Dynkin classification and positive-root enumeration.

Dimension vectors are plain int tuples aligned with the quiver's declared
vertex order.  Zero entries are allowed everywhere: flag types need them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator

from .errors import InputError, UnsupportedQuiverError

DimVector = tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    """A finite directed graph; parallel arrows allowed, loops rejected."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        object.__setattr__(
            self, "arrows", tuple((str(s), str(t)) for s, t in self.arrows)
        )
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        declared = set(self.vertices)
        for s, t in self.arrows:
            if s not in declared or t not in declared:
                raise InputError(f"arrow {s} -> {t} uses an undeclared vertex")
            if s == t:
                raise InputError(f"loop at vertex {s} is not allowed")

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_indices(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.index[s], self.index[t]) for s, t in self.arrows)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def check_dim_vector(self, v: DimVector) -> DimVector:
        v = tuple(int(x) for x in v)
        if len(v) != self.n:
            raise InputError(f"dimension vector of length {len(v)}, expected {self.n}")
        if any(x < 0 for x in v):
            raise InputError(f"negative entry in dimension vector {v}")
        return v


def _pairing(arrows, w: DimVector, v: DimVector) -> int:
    """<w, v> over the arrows `(s, t)` on raw vectors of one length; no checks."""
    total = sum(map(operator.mul, w, v))
    for s, t in arrows:
        total -= w[s] * v[t]
    return total


def euler_form(quiver: Quiver, w: DimVector, v: DimVector) -> int:
    """<w, v> = sum_i w_i v_i - sum_{h: i->j} w_i v_j; bilinear, integer-exact."""
    return _pairing(quiver.arrow_indices, quiver.check_dim_vector(w), quiver.check_dim_vector(v))


def _peel(items, blocked, cycle_message: str) -> tuple:
    """Place, again and again, the first remaining item `a` that no other
    remaining item `b` blocks (`blocked(a, b)`); UnsupportedQuiverError with
    `cycle_message` once every remaining item is blocked."""
    left = list(items)
    placed = []
    while left:
        pick = next((a for a in left if not any(b != a and blocked(a, b) for b in left)), None)
        if pick is None:
            raise UnsupportedQuiverError(cycle_message)
        placed.append(pick)
        left.remove(pick)
    return tuple(placed)


@dataclass(frozen=True)
class FlagType:
    """A componentwise monotone tuple of dimension vectors."""

    steps: tuple[DimVector, ...]

    def __post_init__(self):
        steps = tuple([tuple(map(int, s)) for s in self.steps])
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise InputError("a flag type needs at least one step")
        if len(set(map(len, steps))) != 1:
            raise InputError("flag type steps have inconsistent lengths")
        if steps[0] and min(map(min, steps)) < 0:  # width 0 has no entries
            raise InputError("flag type entries must be nonnegative")
        for a, b in zip(steps, steps[1:]):
            if any(map(operator.gt, a, b)):
                raise InputError(f"flag type is not monotone: {a} > {b}")

    @property
    def d(self) -> int:
        return len(self.steps)

    @property
    def weight(self) -> DimVector:
        return self.steps[-1]


def flag_differences(flag_type: FlagType) -> tuple[DimVector, ...]:
    """Consecutive step differences; prefix sums reconstruct the flag type."""
    steps = flag_type.steps
    out = [steps[0]]
    for a, b in zip(steps, steps[1:]):
        out.append(tuple(y - x for x, y in zip(a, b)))
    return tuple(out)


def flag_types(weight: DimVector, d_max: int) -> Iterator[FlagType]:
    """Every flag type ending at `weight` with 1..d_max steps.

    Ordered by the number of steps d, then lexicographically in the steps.
    The chains below `weight` grow a step at a time, one level held at once.
    """
    weight = tuple(weight)
    zero, tops = (0,) * len(weight), [w + 1 for w in weight]
    chains: list[tuple[DimVector, ...]] = [()]
    for d in range(d_max):
        if d:  # each chain takes one more step, from its last up to `weight`
            chains = [
                c + (s,) for c in chains for s in product(*map(range, c[-1] if c else zero, tops))
            ]
        for lower in chains:
            yield FlagType(lower + (weight,))


# ---------------------------------------------------------------------------
# Dynkin classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynkinClass:
    """Underlying-graph type: A(n), D(n), E(6|7|8) or not Dynkin at all.

    `relabel` maps each vertex id to its standard 1-based label when Dynkin.
    """

    kind: str  # "A", "D", "E" or "none"
    rank: int
    relabel: tuple[tuple[str, int], ...] = ()

    @property
    def is_dynkin(self) -> bool:
        return self.kind in ("A", "D", "E")

    @property
    def relabeling(self) -> dict[str, int]:
        return dict(self.relabel)

    def label(self) -> str:
        return f"{self.kind}{self.rank}" if self.is_dynkin else "not Dynkin"


def _undirected_adjacency(quiver: Quiver) -> list[list[int]]:
    n = quiver.n
    adj = [[0] * n for _ in range(n)]
    for s, t in quiver.arrow_indices:
        adj[s][t] += 1
        adj[t][s] += 1
    return adj


def _arm_from(adj, start: int, first: int) -> list[int]:
    """Walk a degree-<=2 path away from `start` beginning with `first`."""
    arm = [first]
    prev, cur = start, first
    while True:
        nxt = [j for j in range(len(adj)) if adj[cur][j] and j != prev]
        if not nxt:
            return arm
        prev, cur = cur, nxt[0]
        arm.append(cur)


def classify_dynkin(quiver: Quiver) -> DynkinClass:
    """Classify the underlying undirected graph; orientation is irrelevant."""
    n = quiver.n
    not_dynkin = DynkinClass("none", 0)
    if n == 0:
        return not_dynkin
    adj = _undirected_adjacency(quiver)
    if any(adj[i][j] > 1 for i in range(n) for j in range(n)):
        return not_dynkin  # parallel edges
    if len(quiver.arrows) != n - 1:
        return not_dynkin  # a connected simple graph is a tree iff |E| = |V|-1
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if adj[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        return not_dynkin
    degrees = [sum(adj[i]) for i in range(n)]
    if max(degrees, default=0) > 3:
        return not_dynkin
    branches = [i for i in range(n) if degrees[i] == 3]
    if not branches:
        # a path; label from the endpoint that comes first in vertex order
        if n == 1:
            return DynkinClass("A", 1, ((quiver.vertices[0], 1),))
        ends = [i for i in range(n) if degrees[i] == 1]
        start = min(ends)
        path = [start] + _arm_from(adj, start, next(j for j in range(n) if adj[start][j]))
        relabel = tuple((quiver.vertices[i], pos + 1) for pos, i in enumerate(path))
        return DynkinClass("A", n, relabel)
    if len(branches) > 1:
        return not_dynkin
    b = branches[0]
    # a tree with one branch vertex: every arm is a path ending at a leaf
    arms = [_arm_from(adj, b, j) for j in range(n) if adj[b][j]]
    arms.sort(key=lambda arm: (len(arm), arm[0]))
    lens = [len(a) for a in arms]
    if lens[0] == 1 and lens[1] == 1:
        # D(n): long arm labelled 1..n-3 from its far end, branch n-2, forks n-1, n
        long_arm = arms[2]
        relabel = {quiver.vertices[v]: len(long_arm) - k for k, v in enumerate(long_arm)}
        relabel[quiver.vertices[b]] = n - 2
        fork = sorted((arms[0][0], arms[1][0]))
        relabel[quiver.vertices[fork[0]]] = n - 1
        relabel[quiver.vertices[fork[1]]] = n
        return DynkinClass("D", n, tuple(sorted(relabel.items(), key=lambda kv: kv[1])))
    if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        # E(n): branch is 4, short arm is 2, middle arm is 3,1, long arm 5,6,...
        relabel = {quiver.vertices[b]: 4, quiver.vertices[arms[0][0]]: 2}
        relabel[quiver.vertices[arms[1][0]]] = 3
        relabel[quiver.vertices[arms[1][1]]] = 1
        for k, v in enumerate(arms[2]):
            relabel[quiver.vertices[v]] = 5 + k
        return DynkinClass("E", n, tuple(sorted(relabel.items(), key=lambda kv: kv[1])))
    return not_dynkin


def _reflect(vec: tuple[int, ...], i: int, adj) -> tuple[int, ...]:
    new_i = -vec[i] + sum(adj[i][j] * vec[j] for j in range(len(vec)) if j != i)
    return vec[:i] + (new_i,) + vec[i + 1 :]


@lru_cache(maxsize=None)
def positive_roots(quiver: Quiver) -> tuple[DimVector, ...]:
    """All positive roots of the underlying Dynkin diagram, in a fixed order.

    Computed by closing the simple roots under simple reflections; sorted by
    total dimension, then lexicographically in standard-label order.
    """
    cls = classify_dynkin(quiver)
    if not cls.is_dynkin:
        raise UnsupportedQuiverError("positive roots need a Dynkin quiver")
    n = quiver.n
    adj = _undirected_adjacency(quiver)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = _reflect(v, i, adj)
                if all(x >= 0 for x in w) and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    std_pos = sorted(range(n), key=lambda i: cls.relabeling[quiver.vertices[i]])
    return tuple(sorted(seen, key=lambda r: (sum(r), tuple(r[i] for i in std_pos))))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def parse_quiver(text: str) -> Quiver:
    """Parse the line-oriented quiver format.

    ``vertices: a b c`` declares the vertex order; each ``arrow: a -> b``
    adds one arrow; ``#`` starts a comment.
    """
    vertices: tuple[str, ...] | None = None
    arrows: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise InputError(f"line {lineno}: duplicate vertices line")
            vertices = tuple(line[len("vertices:") :].split())
            if not vertices:
                raise InputError(f"line {lineno}: empty vertex list")
        elif line.startswith("arrow:"):
            body = line[len("arrow:") :]
            if "->" not in body:
                raise InputError(f"line {lineno}: arrow needs 'src -> dst'")
            src, dst = (part.strip() for part in body.split("->", 1))
            if not src or not dst:
                raise InputError(f"line {lineno}: arrow needs 'src -> dst'")
            arrows.append((src, dst))
        else:
            raise InputError(f"line {lineno}: unrecognized directive {line.split(':')[0]!r}")
    if vertices is None:
        raise InputError("missing 'vertices:' line")
    return Quiver(vertices, tuple(arrows))


def read_input(path, kind: str) -> str:
    """The text of a UTF-8 input file; unreadable or undecodable is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc


def load_quiver(path) -> Quiver:
    return parse_quiver(read_input(path, "quiver"))


def parse_dim_vector(text: str, quiver: Quiver) -> DimVector:
    """Comma-separated integers in the quiver's declared vertex order."""
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad dimension vector {text!r}") from exc
    return quiver.check_dim_vector(vec)


def parse_flag_type(text: str, quiver: Quiver) -> FlagType:
    """Semicolon-separated steps of comma-separated integers, e.g. ``0,1;1,1``."""
    steps = tuple(parse_dim_vector(part, quiver) for part in text.split(";"))
    return FlagType(steps)
