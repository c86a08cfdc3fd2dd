"""Microbenchmarks of the fpforms layer: the exact distribution table of an
induced form, and its JSON printing, at the three file-batch phidist sizes,
and the block partition of a large-support form.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_fpforms.py \
        --benchmark-json BENCH.json
"""

import sys
from random import Random

import pytest

from setdifflab.fpforms import LinearFormP, build_block_partition, distribution


def dense_form(p, n, seed):
    """A form over [n] with every coefficient drawn from 1..p-1, as the
    file-batch workload draws its phidist forms."""
    rng = Random(seed)
    return LinearFormP(p=p, coeffs=tuple(rng.randrange(1, p) for _ in range(n)))


# (base form, degree) of the file-batch phidist jobs: p=5 over [14]^3,
# p=7 over [40]^2 and p=7 over [14]^3, whose uniformity bound has a
# 4638-digit denominator
CASES = {
    "p5-n14-d3": (dense_form(5, 14, seed=1), 3),
    "p7-n40-d2": (dense_form(7, 40, seed=2), 2),
    "p7-n14-d3": (dense_form(7, 14, seed=3), 3),
}


@pytest.fixture
def unlimited_int_printing():
    # the CLI lifts the int-to-str digit limit the same way before printing
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("case", sorted(CASES))
def test_distribution(benchmark, case):
    form, degree = CASES[case]
    table = benchmark(lambda: distribution(form.induced(degree)))
    assert sum(table.masses) == 1 and table.support_size == form.n ** degree


@pytest.mark.parametrize("case", sorted(CASES))
def test_to_json(benchmark, case, unlimited_int_printing):
    form, degree = CASES[case]
    table = distribution(form.induced(degree))
    report = benchmark(table.to_json)
    assert report["within_bound"] and len(report["masses"]) == form.p


# every coefficient nonzero over [200] at p=5, m=2: the support prefix of 50
# gives equal-coefficient rows while it holds 35, the rest of the 18 rows are
# zero-sum blocks from everything left
PARTITION_FORM = dense_form(5, 200, seed=4)


def test_build_block_partition(benchmark):
    partition = benchmark(build_block_partition, PARTITION_FORM, 2)
    assert partition.sigma == 5 and partition.t == partition.required_rows == 18
