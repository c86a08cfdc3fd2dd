"""Exact extremal oracle: maximum pattern-avoiding families at toy scale.

Builds the graph whose vertices are all subsets of a universe and whose edges
are the pairs admitting a difference-pattern witness, then finds an exact
maximum independent set.  The solver takes isolated vertices outright and
runs branch and bound on each other connected component once per
order-preserving relabelling, from a greedy min-degree floor, with a
clique-cover bound.  These numbers are the ground truth the rest of the
package's tests calibrate against, so the solver re-verifies every record it
emits; the tests replay a regression table of solved instances,
``tests/data/extremal_regression.json``.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

from .errors import ContractViolationError, capped_count
from .patterns import (
    CliqueDifference,
    PatternSpec,
    find_pattern_pair,
    pattern_index,
    pattern_table,
)
from .universe import Family, Record, UniverseShape, _bit_indices

VERTEX_CAP = 1 << 16


def pattern_name(spec: PatternSpec) -> str:
    if isinstance(spec, CliqueDifference):
        return "clique-difference"
    return "power-difference" if len(spec.degrees) == 1 else "polynomial-difference"


class ForbiddenPairGraph(Record):
    """All subsets as vertices; edges are witness-admitting pairs.

    ``adj[v]`` is the bitmask of the neighbours of vertex v.
    """

    shape: UniverseShape
    spec: PatternSpec
    adj: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(bits.bit_count() for bits in self.adj) // 2

    def distance2_closure(self) -> "ForbiddenPairGraph":
        """Pairs sharing a common lower set they both extend by a pattern.

        This is the square of the oriented (upward) relation: A and B are
        joined when some U reaches both by a single oriented step or is one
        of them.  It reproduces the two-sided witness relation checked by
        ``distance2_witness``, which the tests confirm pair by pair.
        """
        up = _oriented_successors(self.shape, self.spec)
        adj = [0] * self.vertex_count
        for u, successors in enumerate(up):
            reach = successors | 1 << u
            for a in _bit_indices(reach):
                adj[a] |= reach
        return ForbiddenPairGraph(
            shape=self.shape, spec=self.spec,
            adj=tuple(bits & ~(1 << v) for v, bits in enumerate(adj)))


def _oriented_successors(shape: UniverseShape, spec: PatternSpec) -> list[int]:
    """For each vertex A of the 2^cells subsets, the bitmask of every B such
    that (A, B) admits a witness.

    The successors of A are key(A) | P | f for each pattern-table entry P
    disjoint from key(A) and each subset f of the free cells, so vertices
    with the same key share one successor set.
    """
    mask = pattern_index(shape, spec)[0]
    table = pattern_table(shape, mask)
    vertices = 1 << shape.cells
    # Bit f for each free subset f; shifted by key | P it holds key | P | f.
    # Distinct P give disjoint shifted copies, so summing them ORs them.
    free = sum(1 << f for f in range(vertices) if not f & mask)
    by_key: dict[int, int] = {}
    up = []
    for a in range(vertices):
        key = a & mask
        if key not in by_key:
            by_key[key] = sum(free << (key | P) for P in table if not P & key)
        up.append(by_key[key])
    return up


def build_forbidden_graph(shape: UniverseShape,
                          spec: PatternSpec) -> ForbiddenPairGraph:
    """Edges {A, B} for every pair where one extends the other by a pattern.

    Each vertex's successors come from the pattern table.  Refused first
    when the 2^cells vertices exceed VERTEX_CAP."""
    capped_count("the vertices of the forbidden-pair graph", VERTEX_CAP, 2, shape.cells)
    up = _oriented_successors(shape, spec)
    adj = list(up)
    for a, successors in enumerate(up):
        for b in _bit_indices(successors):
            adj[b] |= 1 << a
    return ForbiddenPairGraph(shape=shape, spec=spec, adj=tuple(adj))


# ---------------------------------------------------------------------------
# maximum independent set


def _greedy_clique_cover_bound(candidates: int, adj: Sequence[int]) -> int:
    bound = 0
    rest = candidates
    while rest:
        v = (rest & -rest).bit_length() - 1
        common = adj[v] & rest
        rest &= ~(1 << v)
        scan = common
        while scan:
            u = (scan & -scan).bit_length() - 1
            rest &= ~(1 << u)
            common &= adj[u]
            scan = common & ~((1 << (u + 1)) - 1)
        bound += 1
    return bound


def _greedy_independent_set(adj: Sequence[int]) -> int:
    """Min-degree greedy: take a candidate of least induced degree (lowest
    index on ties), drop it and its neighbours, repeat."""
    candidates = (1 << len(adj)) - 1
    chosen = 0
    while candidates:
        pick, pick_degree = -1, len(adj)
        for v in _bit_indices(candidates):
            deg = (adj[v] & candidates).bit_count()
            if deg < pick_degree:
                pick, pick_degree = v, deg
        chosen |= 1 << pick
        candidates &= ~(1 << pick | adj[pick])
    return chosen


def _solve_component(adj: Sequence[int],
                     deadline: Optional[float]) -> tuple[int, bool]:
    """Branch and bound on one connected graph; returns (member bits, proven).

    Branches on the max-degree candidate (lowest index on ties), include
    before exclude, and records only strict improvements, so the record is
    the first maximum leaf in DFS order: no valid bound prunes the subtree
    holding it.  The greedy set of size h seeds the floor best_size = h - 1,
    which that leaf still beats; the greedy set itself is returned only if
    the deadline trips before anything is recorded.
    """
    best_set = _greedy_independent_set(adj)
    best_size = best_set.bit_count() - 1
    stack = [((1 << len(adj)) - 1, 0, 0)]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return best_set, False
        candidates, chosen, size = stack.pop()
        if size + candidates.bit_count() <= best_size:
            continue
        if not candidates:
            best_size, best_set = size, chosen
            continue
        if size + _greedy_clique_cover_bound(candidates, adj) <= best_size:
            continue
        # branch on the max-degree candidate vertex
        branch, branch_degree = -1, -1
        for v in _bit_indices(candidates):
            deg = (adj[v] & candidates).bit_count()
            if deg > branch_degree:
                branch, branch_degree = v, deg
        if branch_degree == 0:
            # the candidates form an independent set: take them all
            best_size = size + candidates.bit_count()
            best_set = chosen | candidates
            continue
        v_bit = 1 << branch
        stack.append((candidates & ~v_bit, chosen, size))
        stack.append((candidates & ~v_bit & ~adj[branch],
                      chosen | v_bit, size + 1))
    return best_set, True


def _components(adj: Sequence[int]) -> Iterator[int]:
    """Vertex bitmask of each connected component, by lowest vertex."""
    rest = (1 << len(adj)) - 1
    while rest:
        component = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~component
            component |= new
            frontier |= new
        rest &= ~component
        yield component


def _solve_mis(adj: Sequence[int], deadline: Optional[float]) -> tuple[int, bool]:
    """Exact MIS one component at a time; returns (member bits, optimal).

    Isolated vertices are taken outright.  Every other component is solved
    in vertex-rank order and the answer mapped back by rank, so components
    equal up to an order-preserving relabelling are solved once; only proven
    answers are memoised.  A whole-graph search with the same branching
    rule decides each component's vertices in that component's own order,
    so the union is the record it would return.
    Past the deadline each unfinished component contributes its best set
    so far; a deadline already passed returns the empty set.
    """
    if deadline is not None and time.monotonic() > deadline:
        return 0, False
    chosen, optimal = 0, True
    memo: dict[tuple[int, ...], int] = {}
    for component in _components(adj):
        if not component & component - 1:
            chosen |= component
            continue
        vertices = list(_bit_indices(component))
        rank = {v: i for i, v in enumerate(vertices)}
        key = tuple(sum(1 << rank[u] for u in _bit_indices(adj[v]))
                    for v in vertices)
        bits = memo.get(key)
        if bits is None:
            bits, proven = _solve_component(key, deadline)
            if proven:
                memo[key] = bits
            else:
                optimal = False
        chosen |= sum(1 << vertices[i] for i in _bit_indices(bits))
    return chosen, optimal


class ExtremalRecord(Record):
    shape: UniverseShape
    spec: PatternSpec
    max_size: int
    witness_family: Family
    optimal: bool = True

    def to_json(self) -> dict:
        return {
            "degrees": list(self.shape.degrees),
            "n": self.shape.n,
            "pattern": pattern_name(self.spec),
            "max_size": self.max_size,
            "max_density": self.witness_family.density(),
            "witness_family": [m.to_hex() for m in self.witness_family.masks()],
            "optimal": self.optimal,
        }


def max_avoiding_family(shape: UniverseShape, spec: PatternSpec,
                        time_limit: Optional[float] = None) -> ExtremalRecord:
    """Exact largest family with no witnessed pair; re-verified before return.

    A time limit (seconds) turns the result into a best-known lower bound
    with ``optimal=False``; without one the search runs to completion.
    """
    adj = build_forbidden_graph(shape, spec).adj
    deadline = None if time_limit is None else time.monotonic() + time_limit
    chosen, optimal = _solve_mis(adj, deadline)
    family = Family(shape, frozenset(_bit_indices(chosen)))
    if find_pattern_pair(family, spec) is not None:
        raise ContractViolationError("solver produced an invalid record")
    return ExtremalRecord(shape=shape, spec=spec, max_size=len(family),
                          witness_family=family, optimal=optimal)
