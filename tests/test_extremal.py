"""Forbidden-pair graphs and the exact avoiding-family oracle."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from setdifflab.errors import CapExceededError
from setdifflab.extremal import (
    ExtremalRecord,
    ThresholdTable,
    _oriented_successors,
    build_forbidden_graph,
    density_threshold_table,
    load_regression_table,
    max_avoiding_family,
    pattern_name,
)
from setdifflab.patterns import (
    CliqueDifference,
    IntervalModN,
    PolynomialDifference,
    PowerDifference,
    distance2_witness,
    find_pattern_pair,
    find_witness,
)
from setdifflab.universe import Family, SubsetMask, UniverseShape

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


def generic_edges(shape, spec):
    """Independent route: witness-check every ordered pair directly."""
    edges = set()
    vertices = 1 << shape.cells
    for a in range(vertices):
        A = SubsetMask(shape, a)
        for b in range(a + 1, vertices):
            B = SubsetMask(shape, b)
            if find_witness(A, B, spec) or find_witness(B, A, spec):
                edges.add((a, b))
    return edges


class TestForbiddenPairGraph:
    def test_containment_graph_on_two_elements(self):
        graph = build_forbidden_graph(LINE(2), PowerDifference(degree=1))
        assert graph.vertex_count == 4
        assert set(graph.edges()) == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
        assert graph.edge_count == 5

    def test_one_cell_square(self):
        graph = build_forbidden_graph(SQUARE(1), PowerDifference(degree=2))
        assert graph.vertex_count == 2
        assert set(graph.edges()) == {(0, 1)}

    @pytest.mark.parametrize("shape,spec", [
        (LINE(3), PowerDifference(degree=1)),
        (SQUARE(2), PowerDifference(degree=2)),
        (UniverseShape(degrees=(1, 1), n=2), PolynomialDifference((1, 1))),
    ])
    def test_fast_path_matches_witness_scan(self, shape, spec):
        graph = build_forbidden_graph(shape, spec)
        assert set(graph.edges()) == generic_edges(shape, spec)

    def test_pairwise_spec_graph(self):
        # interval specs have no pattern index: every ordered pair is checked
        graph = build_forbidden_graph(LINE(3), IntervalModN())
        assert set(graph.edges()) == generic_edges(LINE(3), IntervalModN())
        assert graph.edge_count == 28  # every pair of subsets of Z_3

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_successors_match_witness_relation(self, shape):
        vertices = 1 << shape.cells
        specs = [CliqueDifference(shape.degrees),
                 PolynomialDifference(shape.degrees)]
        for spec in specs:
            up = _oriented_successors(shape, spec, vertices)
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

    def test_vertex_cap(self):
        with pytest.raises(CapExceededError):
            build_forbidden_graph(LINE(5), PowerDifference(degree=1),
                                  vertex_cap=16)


class TestDistance2Closure:
    @pytest.mark.parametrize("shape,spec", [
        (LINE(2), PowerDifference(degree=1)),
        (LINE(3), PowerDifference(degree=1)),
        (SQUARE(2), PowerDifference(degree=2)),
    ])
    def test_matches_pairwise_witness(self, shape, spec):
        closure = build_forbidden_graph(shape, spec).distance2_closure()
        closed = set(closure.edges())
        assert closure.edge_count == len(closed)  # no self-loops
        for a in range(1 << shape.cells):
            for b in range(a + 1, 1 << shape.cells):
                w = distance2_witness(
                    SubsetMask(shape, a), SubsetMask(shape, b), spec)
                assert ((a, b) in closed) == (w is not None)

    def test_contains_base_graph(self):
        base = build_forbidden_graph(LINE(3), PowerDifference(degree=1))
        closed = set(base.distance2_closure().edges())
        assert set(base.edges()) <= closed


class TestMaxAvoidingFamily:
    def test_two_element_antichain(self):
        record = max_avoiding_family(LINE(2), PowerDifference(degree=1))
        assert record.max_size == 2
        assert record.witness_family.members == frozenset({1, 2})
        assert record.optimal and record.method == "branch-and-bound"

    def test_three_element_middle_layer_size(self):
        record = max_avoiding_family(LINE(3), PowerDifference(degree=1))
        assert record.max_size == 3
        assert all(bin(m).count("1") in (1, 2) for m in record.witness_family.members)

    def test_sperner_agreement(self):
        for n in range(1, 5):
            record = max_avoiding_family(LINE(n), PowerDifference(degree=1))
            assert record.max_size == comb(n, n // 2)

    def test_methods_agree(self):
        cases = [
            (LINE(n), PowerDifference(degree=1)) for n in range(1, 5)
        ] + [
            (SQUARE(n), PowerDifference(degree=2)) for n in (1, 2)
        ]
        for shape, spec in cases:
            bb = max_avoiding_family(shape, spec)
            ex = max_avoiding_family(shape, spec, method="exhaustive")
            assert bb.max_size == ex.max_size
            assert bb.optimal and ex.optimal

    def test_records_are_pattern_free(self):
        for shape, spec in [(LINE(4), PowerDifference(degree=1)),
                            (SQUARE(2), PowerDifference(degree=2))]:
            record = max_avoiding_family(shape, spec)
            assert find_pattern_pair(record.witness_family, spec) is None
            assert len(record.witness_family) == record.max_size

    def test_expired_time_limit_flags_nonoptimal(self):
        record = max_avoiding_family(LINE(3), PowerDifference(degree=1),
                                     time_limit=-1.0)
        assert not record.optimal
        assert record.max_size == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            max_avoiding_family(LINE(2), PowerDifference(degree=1),
                                method="guess")

    def test_record_json(self):
        record = max_avoiding_family(LINE(2), PowerDifference(degree=1))
        assert record.to_json() == {
            "degrees": [1],
            "n": 2,
            "pattern": "power-difference",
            "max_size": 2,
            "max_density": "1/2",
            "witness_family": ["1", "2"],
            "method": "branch-and-bound",
            "optimal": True,
        }


class TestThresholdTable:
    def test_line_table(self):
        table = density_threshold_table((1,), range(1, 5),
                                        PowerDifference(degree=1))
        assert [r.max_size for r in table.rows] == [1, 2, 3, 6]
        assert [r.max_density for r in table.rows] == [
            Fraction(1, 2), Fraction(1, 2), Fraction(3, 8), Fraction(3, 8)]
        assert table.monotone_nondecreasing

    def test_empty_range(self):
        table = density_threshold_table((1,), [], PowerDifference(degree=1))
        assert table.rows == ()
        assert table.monotone_nondecreasing
        assert table.to_json() == {"rows": [], "monotone_nondecreasing": True}

    def test_monotonicity_is_reported_not_assumed(self):
        # fabricated rows with a drop: the flag must just report it
        shape = LINE(1)
        fake = lambda size: ExtremalRecord(
            shape=shape, spec=PowerDifference(degree=1), max_size=size,
            witness_family=Family(shape, frozenset()), method="exhaustive")
        table = ThresholdTable(rows=(fake(3), fake(2)))
        assert not table.monotone_nondecreasing


SPEC_OF_PATTERN = {
    "power-difference": lambda degrees: PowerDifference(degree=degrees[0]),
    "polynomial-difference": PolynomialDifference,
    "clique-difference": CliqueDifference,
}


class TestRegressionTable:
    def test_entries_reproduce(self):
        table = load_regression_table()
        assert len(table) == 14
        for entry in table:
            degrees = tuple(entry["degrees"])
            shape = UniverseShape(degrees=degrees, n=entry["n"])
            spec = SPEC_OF_PATTERN[entry["pattern"]](degrees)
            assert pattern_name(spec) == entry["pattern"]
            record = max_avoiding_family(shape, spec)
            assert record.max_size == entry["max_size"]
            assert record.optimal

    def test_pattern_naming(self):
        assert pattern_name(PowerDifference(degree=2)) == "power-difference"
        assert pattern_name(PolynomialDifference((1, 2))) == "polynomial-difference"
