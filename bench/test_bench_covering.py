"""Microbenchmark of the covering layer: the dense-cell scan.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_covering.py \
        --benchmark-json BENCH.json
"""

from random import Random

from setdifflab.covering import scan_for_dense_cell
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

