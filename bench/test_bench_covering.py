"""Microbenchmarks of the covering layer: the dense-cell scan and the
cyclic-interval demo's condition check and average density.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_covering.py \
        --benchmark-json BENCH.json
"""

from fractions import Fraction
from random import Random

from setdifflab.covering import (demo_average_density, scan_for_dense_cell,
                                 verify_framework_conditions)
from setdifflab.universe import Family, UniverseShape


def scan_input(n, size, m, pattern_size, seed):
    """A uniform sample of `size` subsets of (1,) [n] and a pattern family
    of `pattern_size` subsets of [m], drawn from one generator as the
    file-batch workload draws its scan files."""
    rng = Random(seed)
    fam = Family(UniverseShape(degrees=(1,), n=n), rng.sample(range(1 << n), size))
    pattern = Family(UniverseShape(degrees=(1,), n=m), rng.sample(range(1 << m), pattern_size))
    return fam, m, pattern


# the file-batch scan-d1-n16 size: 20000 members of (1,) n=16, four size-4
# windows, a 6-member pattern family
SCAN = scan_input(16, 20000, 4, 6, seed=1)


def test_scan_for_dense_cell(benchmark):
    fam, m, pattern = SCAN
    cell, best, average = benchmark(scan_for_dense_cell, fam, m, pattern)
    assert best >= average > 0



# the file-batch demo-interval-n12 size: 1000 members of 2^12
DEMO_FAMILY = Random(3).sample(range(1 << 12), 1000)


def test_verify_framework_conditions(benchmark):
    # the file-batch verify-framework-n9 size
    rep = benchmark.pedantic(verify_framework_conditions, args=(9,), rounds=30)
    assert (rep.K, rep.L) == (9, 81) and rep.pattern_ok and rep.accounting_ok


def test_demo_average_density(benchmark):
    average = benchmark.pedantic(demo_average_density, args=(12, DEMO_FAMILY), rounds=30)
    assert average == Fraction(1000, 1 << 12)
