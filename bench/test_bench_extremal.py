"""Microbenchmarks of the extremal layer: forbidden-pair graph building and
the maximum-independent-set solve behind ``max_avoiding_family``.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_extremal.py \
        --benchmark-json BENCH.json
"""

import pytest

from setdifflab.extremal import build_forbidden_graph, max_avoiding_family
from setdifflab.patterns import PolynomialDifference
from setdifflab.universe import UniverseShape

CASES = {
    # one 256-vertex component; Sperner anchor C(8, 4) = 70
    "d1-n8": (UniverseShape(degrees=(1,), n=8), PolynomialDifference((1,)), 70),
    # 1024 vertices in 575 components
    "d13-n2": (UniverseShape(degrees=(1, 3), n=2),
               PolynomialDifference((1, 3)), 640),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_forbidden_graph(benchmark, case):
    shape, spec, _ = CASES[case]
    graph = benchmark(build_forbidden_graph, shape, spec)
    assert graph.vertex_count == 1 << shape.cells


@pytest.mark.parametrize("case", sorted(CASES))
def test_max_avoiding_family(benchmark, case):
    shape, spec, size = CASES[case]
    record = benchmark(max_avoiding_family, shape, spec)
    assert record.optimal and record.max_size == size
