"""Microbenchmarks of the increment layer: the distinguishing-form search and
one density-increment step.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_increment.py \
        --benchmark-json BENCH.json
"""

import itertools
from fractions import Fraction
from random import Random

import pytest

from setdifflab.increment import (
    default_m_schedule,
    find_distinguishing_form,
    increment_step,
)
from setdifflab.universe import Family, UniverseShape


def biased_family(d, n, size, seed):
    """Random subsets of [n]^d, about 30% of them holding every cell of
    {1, 2}^d, so that a weight-2 form tells them apart."""
    rng = Random(seed)
    corner = sum(1 << sum(c * n ** (d - 1 - k) for k, c in enumerate(t))
                 for t in itertools.product((0, 1), repeat=d))
    members = set()
    while len(members) < size:
        bits = rng.getrandbits(n ** d)
        if rng.random() < 0.3:
            bits |= corner
        members.add(bits)
    return Family(UniverseShape(degrees=(d,), n=n), frozenset(members))


P = 3
ETA = Fraction(1, 12)  # the quasirandomize threshold eta/p at eta = 1/4
CASES = {
    # the weight-<=2 pool: 1 + 14*2 + 91*4 = 393 forms over 2000 members
    "pool-d1-n14": (biased_family(1, 14, 2000, seed=1), 0),
    # all 3^7 = 2187 forms, each lifted to the 49 cells of [7]^2
    "exhaustive-d2-n7": (biased_family(2, 7, 150, seed=2), P ** 7),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_find_distinguishing_form(benchmark, case):
    fam, budget = CASES[case]
    report = benchmark(find_distinguishing_form, fam, P, ETA,
                       search_budget=budget)
    assert report is not None and report.gap >= ETA


def test_increment_step(benchmark):
    fam, budget = CASES["pool-d1-n14"]
    report = find_distinguishing_form(fam, P, ETA, search_budget=budget)
    step = benchmark(increment_step, fam, report,
                     default_m_schedule(fam.shape.n, P))
    assert step.density > step.previous_density
