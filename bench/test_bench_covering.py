"""Microbenchmarks of the covering layer: the dense-cell scan and the
full-enumeration audit of the double-counting proof chain.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_covering.py \
        --benchmark-json BENCH.json
"""

from fractions import Fraction
from random import Random

from setdifflab.covering import proof_chain_report, scan_for_dense_cell
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
# every one of the 2^12 subsets of (1,) n=12 against four size-3 windows
CHAIN = scan_input(12, 1000, 3, 4, seed=3)


def test_scan_for_dense_cell(benchmark):
    fam, m, pattern = SCAN
    cell, best, average = benchmark(scan_for_dense_cell, fam, m, pattern)
    assert best >= average > 0


def test_proof_chain_report(benchmark):
    fam, m, pattern = CHAIN
    report = benchmark(proof_chain_report, fam, m, pattern, Fraction(1, 4))
    assert report.double_counting_all_ok and report.double_counting_fam_ok
    # summed over all subsets, N(A) totals 2^cells E[N]
    assert report.sum_N == report.expectation * (1 << fam.shape.cells)
