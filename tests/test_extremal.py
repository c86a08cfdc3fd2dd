"""Forbidden-pair graphs and the exact avoiding-family oracle."""

import itertools
import json
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab import extremal
from setdifflab.errors import CapExceededError, ContractViolationError
from setdifflab.extremal import (
    _bit_indices,
    _greedy_clique_cover_bound,
    _greedy_independent_set,
    _oriented_successors,
    _solve_mis,
    build_forbidden_graph,
    max_avoiding_family,
    pattern_name,
)
from setdifflab.patterns import (
    CliqueDifference,
    PolynomialDifference,
    distance2_witness,
    find_pattern_pair,
)
from setdifflab.universe import SubsetMask, UniverseShape

from witness_oracles import find_witness

LINE = lambda n: UniverseShape(degrees=(1,), n=n)
SQUARE = lambda n: UniverseShape(degrees=(2,), n=n)
# every shape with at most 64 vertices, parts of degree <= 3, up to 3 parts
SMALL_SHAPES = [
    shape
    for degrees in [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1),
                    (2, 2), (1, 1, 1)]
    for shape in (UniverseShape(degrees=degrees, n=n) for n in range(1, 7))
    if shape.cells <= 6
]


def whole_graph_mis(adj: Sequence[int],
                    deadline: Optional[float]) -> tuple[int, int, bool]:
    """Reference: unseeded branch and bound over the whole graph at once,
    with the same branching rule as the component solver."""
    n = len(adj)
    best_size = 0
    best_set = 0
    optimal = True
    full = (1 << n) - 1

    def popcount(x: int) -> int:
        return x.bit_count()

    stack = [(full, 0, 0)]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            optimal = False
            break
        candidates, chosen, size = stack.pop()
        if size + popcount(candidates) <= best_size:
            continue
        if not candidates:
            if size > best_size:
                best_size, best_set = size, chosen
            continue
        if size + _greedy_clique_cover_bound(candidates, adj) <= best_size:
            continue
        # branch on the max-degree candidate vertex
        branch, branch_degree = -1, -1
        scan = candidates
        while scan:
            v = (scan & -scan).bit_length() - 1
            deg = popcount(adj[v] & candidates)
            if deg > branch_degree:
                branch, branch_degree = v, deg
            scan &= scan - 1
        if branch_degree == 0:
            # the candidates form an independent set: take them all
            total = size + popcount(candidates)
            if total > best_size:
                best_size, best_set = total, chosen | candidates
            continue
        v_bit = 1 << branch
        stack.append((candidates & ~v_bit, chosen, size))
        stack.append((candidates & ~v_bit & ~adj[branch],
                      chosen | v_bit, size + 1))
    return best_size, best_set, optimal


def graph_of(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


@st.composite
def random_graphs(draw):
    """Up to 24 vertices at edge density 0.05-0.4: often disconnected, with
    repeated components and degree ties."""
    n = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.floats(min_value=0.05, max_value=0.4))
    rng = draw(st.randoms(use_true_random=False))
    return graph_of(n, [pair for pair in itertools.combinations(range(n), 2)
                        if rng.random() < density])


def generic_adjacency(shape, spec):
    """Independent route: witness-check every ordered pair directly."""
    vertices = 1 << shape.cells
    adj = [0] * vertices
    for a in range(vertices):
        A = SubsetMask(shape, a)
        for b in range(a + 1, vertices):
            B = SubsetMask(shape, b)
            if find_witness(A, B, spec) or find_witness(B, A, spec):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return tuple(adj)


class TestForbiddenPairGraph:
    def test_containment_graph_on_two_elements(self):
        graph = build_forbidden_graph(LINE(2), PolynomialDifference((1,)))
        assert graph.vertex_count == 4
        # the edges {0,1}, {0,2}, {0,3}, {1,3} and {2,3}
        assert graph.adj == (0b1110, 0b1001, 0b1001, 0b0111)
        assert graph.edge_count == 5

    def test_one_cell_square(self):
        graph = build_forbidden_graph(SQUARE(1), PolynomialDifference((2,)))
        assert graph.vertex_count == 2
        assert graph.adj == (0b10, 0b01)

    @pytest.mark.parametrize("shape,spec", [
        (LINE(3), PolynomialDifference((1,))),
        (SQUARE(2), PolynomialDifference((2,))),
        (UniverseShape(degrees=(1, 1), n=2), PolynomialDifference((1, 1))),
    ])
    def test_fast_path_matches_witness_scan(self, shape, spec):
        graph = build_forbidden_graph(shape, spec)
        assert graph.adj == generic_adjacency(shape, spec)

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_successors_match_witness_relation(self, shape):
        vertices = 1 << shape.cells
        specs = [CliqueDifference(shape.degrees),
                 PolynomialDifference(shape.degrees)]
        for spec in specs:
            up = _oriented_successors(shape, spec)
            for a in range(vertices):
                A = SubsetMask(shape, a)
                assert {b for b in range(vertices) if up[a] >> b & 1} == {
                    b for b in range(vertices)
                    if a != b and find_witness(A, SubsetMask(shape, b), spec)}

    def test_no_clique_edges_without_increasing_cells(self):
        # no strictly increasing triple in [2]^3: every pair is clique-free
        shape = UniverseShape(degrees=(3,), n=2)
        graph = build_forbidden_graph(shape, CliqueDifference((3,)))
        assert graph.vertex_count == 256 and graph.edge_count == 0

    def test_vertex_cap_precedes_the_graph(self, monkeypatch):
        # 2^17 vertices exceed VERTEX_CAP = 2^16; no successor is generated
        def _oriented_successors(*args, **kwargs):
            raise AssertionError("graph built before the vertex cap")
        monkeypatch.setattr(extremal, "_oriented_successors", _oriented_successors)
        assert extremal.VERTEX_CAP == 1 << 16
        with pytest.raises(CapExceededError):
            build_forbidden_graph(LINE(17), PolynomialDifference((1,)))


class TestDistance2Closure:
    @pytest.mark.parametrize("shape,spec", [
        (LINE(2), PolynomialDifference((1,))),
        (LINE(3), PolynomialDifference((1,))),
        (SQUARE(2), PolynomialDifference((2,))),
    ])
    def test_matches_pairwise_witness(self, shape, spec):
        closure = build_forbidden_graph(shape, spec).distance2_closure()
        adj = closure.adj
        assert not any(bits >> v & 1 for v, bits in enumerate(adj))  # no self-loops
        for a in range(1 << shape.cells):
            for b in range(a + 1, 1 << shape.cells):
                w = distance2_witness(SubsetMask(shape, a), SubsetMask(shape, b))
                assert bool(adj[a] >> b & 1) == bool(adj[b] >> a & 1) == (w is not None)

    def test_contains_base_graph(self):
        base = build_forbidden_graph(LINE(3), PolynomialDifference((1,)))
        closed = base.distance2_closure().adj
        assert all(not bits & ~more for bits, more in zip(base.adj, closed))


def _exhaustive_mis(adj: Sequence[int]) -> tuple[int, int]:
    best_size, best_set = 0, 0
    for subset in range(1 << len(adj)):
        if subset.bit_count() <= best_size:
            continue
        scan = subset
        independent = True
        while scan:
            v = (scan & -scan).bit_length() - 1
            if adj[v] & subset:
                independent = False
                break
            scan &= scan - 1
        if independent:
            best_size, best_set = subset.bit_count(), subset
    return best_size, best_set


class TestMaxAvoidingFamily:
    def test_two_element_antichain(self):
        record = max_avoiding_family(LINE(2), PolynomialDifference((1,)))
        assert record.max_size == 2
        assert record.witness_family.members == frozenset({1, 2})
        assert record.optimal

    def test_three_element_middle_layer_size(self):
        record = max_avoiding_family(LINE(3), PolynomialDifference((1,)))
        assert record.max_size == 3
        assert all(bin(m).count("1") in (1, 2) for m in record.witness_family.members)

    def test_sperner_agreement(self):
        for n in range(1, 10):
            record = max_avoiding_family(LINE(n), PolynomialDifference((1,)))
            assert record.max_size == comb(n, n // 2)

    def test_methods_agree(self):
        # branch and bound against a walk over every vertex subset
        cases = [
            (LINE(n), PolynomialDifference((1,))) for n in range(1, 5)
        ] + [
            (SQUARE(n), PolynomialDifference((2,))) for n in (1, 2)
        ]
        for shape, spec in cases:
            bb = max_avoiding_family(shape, spec)
            size, _ = _exhaustive_mis(build_forbidden_graph(shape, spec).adj)
            assert bb.max_size == size
            assert bb.optimal

    def test_records_are_pattern_free(self):
        for shape, spec in [(LINE(4), PolynomialDifference((1,))),
                            (SQUARE(2), PolynomialDifference((2,)))]:
            record = max_avoiding_family(shape, spec)
            assert find_pattern_pair(record.witness_family, spec) is None
            assert len(record.witness_family) == record.max_size

    def test_invalid_solver_record_is_refused(self, monkeypatch):
        # two members claimed over [1], where the one pair {Ø, {1}} differs by 1^1
        monkeypatch.setattr(extremal, "_solve_mis", lambda adj, deadline: (0b11, True))
        with pytest.raises(ContractViolationError, match="solver produced an invalid record"):
            max_avoiding_family(LINE(1), PolynomialDifference((1,)))

    def test_expired_time_limit_flags_nonoptimal(self):
        record = max_avoiding_family(LINE(3), PolynomialDifference((1,)),
                                     time_limit=-1.0)
        assert not record.optimal
        assert record.max_size == 0

    def test_deadline_inside_one_component_returns_greedy_floor(
            self, monkeypatch):
        # the clock reads 0 for the deadline, 1 at the start check and 2 at
        # the root node: the search stops before recording anything
        ticks = itertools.count()
        monkeypatch.setattr(extremal.time, "monotonic", lambda: next(ticks))
        record = max_avoiding_family(LINE(4), PolynomialDifference((1,)),
                                     time_limit=1.5)
        adj = build_forbidden_graph(LINE(4), PolynomialDifference((1,))).adj
        floor = _greedy_independent_set(adj)
        assert not record.optimal
        assert record.witness_family.members == frozenset(_bit_indices(floor))
        assert record.max_size == floor.bit_count() > 0

    @pytest.mark.parametrize("ticks", range(1, 12))
    def test_deadline_mid_search_keeps_best_sets(self, monkeypatch, ticks):
        # 35 components; after the deadline is set the solve reads the
        # clock at ticks 1-12, so any limit below 12 trips inside some
        # component and every later one falls back to its greedy set
        shape = UniverseShape(degrees=(1, 2), n=2)
        spec = PolynomialDifference((1, 2))
        clock = itertools.count()
        monkeypatch.setattr(extremal.time, "monotonic", lambda: next(clock))
        record = max_avoiding_family(shape, spec, time_limit=ticks)
        monkeypatch.undo()
        assert not record.optimal
        assert 0 < record.max_size <= 40
        assert len(record.witness_family) == record.max_size
        assert find_pattern_pair(record.witness_family, spec) is None
        adj = build_forbidden_graph(shape, spec).adj
        isolated = {v for v, bits in enumerate(adj) if not bits}
        assert isolated <= record.witness_family.members

    def test_record_json(self):
        record = max_avoiding_family(LINE(2), PolynomialDifference((1,)))
        assert record.to_json() == {
            "degrees": [1],
            "n": 2,
            "pattern": "power-difference",
            "max_size": 2,
            "max_density": "1/2",
            "witness_family": ["1", "2"],
            "optimal": True,
        }


def test_line_thresholds_over_n():
    rows = [max_avoiding_family(LINE(n), PolynomialDifference((1,)))
            for n in range(1, 5)]
    assert [r.max_size for r in rows] == [1, 2, 3, 6]
    assert [r.witness_family.density() for r in rows] == [
        Fraction(1, 2), Fraction(1, 2), Fraction(3, 8), Fraction(3, 8)]


class TestComponentSolver:
    @pytest.fixture
    def solve_calls(self, monkeypatch):
        """The key of every component handed to the branch and bound."""
        calls = []
        solve = extremal._solve_component
        monkeypatch.setattr(extremal, "_solve_component",
                            lambda key, deadline: calls.append(key)
                            or solve(key, deadline))
        return calls

    @given(random_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_graph_search(self, adj):
        assert _solve_mis(adj, None) == whole_graph_mis(adj, None)[1:]

    def test_order_isomorphic_components_solved_once(self, solve_calls):
        # three edges share one key; the paths 6-7-8 and 9-11-10 differ in
        # which rank is the middle vertex, so each is solved
        adj = graph_of(12, [(0, 1), (2, 5), (3, 4), (6, 7), (7, 8),
                            (9, 11), (10, 11)])
        assert _solve_mis(adj, None) == whole_graph_mis(adj, None)[1:]
        assert solve_calls == [(2, 1), (2, 5, 2), (4, 4, 3)]

    def test_distinct_components_at_d13_n2(self, solve_calls):
        # 575 components: 256 isolated vertices, 256 edges, 62 of four
        # vertices and one of eight, which make three distinct keys
        graph = build_forbidden_graph(UniverseShape(degrees=(1, 3), n=2),
                                      PolynomialDifference((1, 3)))
        assert _solve_mis(graph.adj, None)[0].bit_count() == 640
        assert len(solve_calls) == len(set(solve_calls)) == 3

    def test_only_proven_components_are_memoised(self, monkeypatch,
                                                 solve_calls):
        # past the deadline every copy of the edge is searched again, and
        # each falls back to its greedy vertex
        adj = graph_of(6, [(0, 1), (2, 3), (4, 5)])
        clock = iter([0.0] + [2.0] * 10)
        monkeypatch.setattr(extremal.time, "monotonic", lambda: next(clock))
        assert _solve_mis(adj, 1.0) == (0b010101, False)
        assert len(solve_calls) == 3

    def test_expired_deadline_returns_nothing(self):
        adj = graph_of(4, [(0, 1)])
        assert _solve_mis(adj, time.monotonic() - 1.0) == (0, False)


def load_regression_table() -> list[dict]:
    """Solved instances (degrees, n, pattern, max_size) the tests replay."""
    path = Path(__file__).parent / "data" / "extremal_regression.json"
    return json.loads(path.read_text(encoding="utf-8"))


SPEC_OF_PATTERN = {
    "power-difference": PolynomialDifference,
    "polynomial-difference": PolynomialDifference,
    "clique-difference": CliqueDifference,
}
# rows checked against an independent upper bound instead of the
# whole-graph search, which takes seconds at (1,) n=9 and does not finish
# the n=3 rows within a minute
CERTIFIED_ROWS = [
    {"degrees": [1], "n": 9, "pattern": "power-difference", "max_size": 126},
    {"degrees": [2], "n": 3, "pattern": "power-difference", "max_size": 256},
    {"degrees": [1, 2], "n": 3, "pattern": "polynomial-difference",
     "max_size": 2304},
]


def instance(entry):
    degrees = tuple(entry["degrees"])
    shape = UniverseShape(degrees=degrees, n=entry["n"])
    return shape, SPEC_OF_PATTERN[entry["pattern"]](degrees)


class TestRegressionTable:
    def test_entries_reproduce(self):
        table = load_regression_table()
        assert len(table) == 17
        assert all(row in table for row in CERTIFIED_ROWS)
        for entry in table:
            shape, spec = instance(entry)
            assert pattern_name(spec) == entry["pattern"]
            record = max_avoiding_family(shape, spec)
            assert record.max_size == entry["max_size"]
            assert record.optimal

    @pytest.mark.parametrize(
        "entry", [e for e in load_regression_table() if e not in CERTIFIED_ROWS],
        ids=lambda e: f"{e['pattern']}-{e['degrees']}-n{e['n']}")
    def test_records_match_whole_graph_search(self, entry):
        shape, spec = instance(entry)
        adj = build_forbidden_graph(shape, spec).adj
        size, bits, optimal = whole_graph_mis(adj, None)
        record = max_avoiding_family(shape, spec)
        assert optimal and record.max_size == size
        assert record.witness_family.members == frozenset(_bit_indices(bits))

    @pytest.mark.parametrize(
        "entry", CERTIFIED_ROWS,
        ids=lambda e: f"{e['pattern']}-{e['degrees']}-n{e['n']}")
    def test_certified_rows(self, entry):
        # a clique cover of the whole graph bounds every independent set,
        # so a pattern-free family of that size is a maximum
        shape, spec = instance(entry)
        adj = build_forbidden_graph(shape, spec).adj
        assert _greedy_clique_cover_bound((1 << len(adj)) - 1, adj) == \
            entry["max_size"]
        record = max_avoiding_family(shape, spec)
        assert record.optimal and record.max_size == entry["max_size"]
        assert find_pattern_pair(record.witness_family, spec) is None

    def test_pattern_naming(self):
        assert pattern_name(PolynomialDifference((2,))) == "power-difference"
        assert pattern_name(PolynomialDifference((1, 2))) == "polynomial-difference"
