"""Microbenchmarks of the patterns layer: the key index of a pattern spec
and the first-pair search that every extremal record and increment step
runs.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_patterns.py \
        --benchmark-json BENCH.json
"""

import itertools

import pytest

from setdifflab.patterns import (CliqueDifference, PolynomialDifference,
                                 find_pattern_pair, pattern_index)
from setdifflab.universe import Family, UniverseShape

SPECS = {
    "power-d2-n12": (UniverseShape(degrees=(2,), n=12), PolynomialDifference((2,))),
    "clique-d23-n8": (UniverseShape(degrees=(2, 3), n=8), CliqueDifference((2, 3))),
}


@pytest.mark.parametrize("case", sorted(SPECS))
def test_pattern_index(benchmark, case):
    shape, spec = SPECS[case]
    mask, touch, _ = benchmark.pedantic(pattern_index, (shape, spec), rounds=50)
    assert len(touch) == shape.n and mask


def middle_layer(n):
    """The C(n, n/2) subsets of [n] of size n/2: an antichain, so no member
    is another plus a nonempty set, and the search checks every pair."""
    return Family(UniverseShape(degrees=(1,), n=n), frozenset(
        sum(1 << x for x in chosen) for chosen in itertools.combinations(range(n), n // 2)))


# 924 members over [12]: fewer than 2^12, so the ordered pairs are checked
PATTERN_FREE = middle_layer(12)


def test_find_pattern_pair(benchmark):
    pair = benchmark.pedantic(find_pattern_pair, (PATTERN_FREE, PolynomialDifference((1,))),
                              rounds=5)
    assert pair is None
