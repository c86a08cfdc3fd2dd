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

from setdifflab.fpforms import LinearFormP
from setdifflab.increment import (
    DistinguishingReport,
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


CASES = {
    # the weight-<=2 pool at p=3: 1 + 14*2 + 91*4 = 393 forms in 197 classes
    # over 2000 members
    "pool-d1-n14": (biased_family(1, 14, 2000, seed=1), 3, 0),
    # the pool at p=5: 1 + 12*4 + 66*16 = 1105 forms in 277 classes
    "pool-d1-n12-p5": (biased_family(1, 12, 1000, seed=3), 5, 0),
    # all 3^7 = 2187 forms in 1094 classes, each lifted to the 49 cells of
    # [7]^2
    "exhaustive-d2-n7": (biased_family(2, 7, 150, seed=2), 3, 3 ** 7),
    # the pool at p=3 over the 100 cells of [10]^2: 1 + 10*2 + 45*4 = 201
    # forms in 101 classes over 2000 members
    "pool-d2-n10": (biased_family(2, 10, 2000, seed=4), 3, 0),
}


def threshold(p):
    """The quasirandomize threshold eta/p at eta = 1/4."""
    return Fraction(1, 4 * p)


@pytest.mark.parametrize("case", sorted(CASES))
def test_find_distinguishing_form(benchmark, case):
    fam, p, budget = CASES[case]
    report = benchmark(find_distinguishing_form, fam, p, threshold(p),
                       search_budget=budget)
    assert report is not None and report.gap >= threshold(p)


@pytest.mark.parametrize("case", ["pool-d1-n14", "pool-d2-n10"])
def test_increment_step(benchmark, case):
    fam, p, budget = CASES[case]
    report = find_distinguishing_form(fam, p, threshold(p), search_budget=budget)
    step = benchmark(increment_step, fam, report,
                     default_m_schedule(fam.shape.n, p))
    assert step.density > step.previous_density


# the all-ones form at p=3 over [14], stepped at m=1: three rows of one
# zero-sum 3-element block each, where the cases above and every workload
# job step on singleton blocks; every case reads the member bit-planes
BLOCKS = (biased_family(1, 14, 2000, seed=5),
          DistinguishingReport(form=LinearFormP(p=3, coeffs=(1,) * 14), y=0,
                               gap=threshold(3), scope="pool"))


def test_increment_step_blocks(benchmark):
    fam, report = BLOCKS
    step = benchmark(increment_step, fam, report, 1)
    assert step.partition.sigma == 3
    assert step.density > step.previous_density
