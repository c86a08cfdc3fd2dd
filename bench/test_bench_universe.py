"""Microbenchmarks of the universe layer: the raw-int window maps
``_restrict_bits`` and ``_plant_bits`` that the dense-cell scan and the
window checks run on every member, and ``embed_lower_degree``, which
``reduce --mode embed`` runs on every member.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_universe.py \
        --benchmark-json BENCH.json
"""

from random import Random

import pytest

from setdifflab.universe import (OrderedWindow, SubsetMask, UniverseShape, _plant_bits,
                                 _restrict_bits, _window_runs, embed_lower_degree)

# (shape, window) pairs: the file-batch scan-d1-n16 shape with its first
# size-4 interval window, and a two-part shape whose window relabels
# unordered elements, so its runs are single cells
CASES = {
    "d1-n16-m4": (UniverseShape(degrees=(1,), n=16), OrderedWindow.interval(5, 4)),
    "d12-n8-m3": (UniverseShape(degrees=(1, 2), n=8), OrderedWindow((7, 2, 5))),
}


def members(shape, size, seed):
    rng = Random(seed)
    return [rng.getrandbits(shape.cells) for _ in range(size)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_restrict_bits(benchmark, case):
    shape, window = CASES[case]
    runs = _window_runs(shape, window)
    family = members(shape, 20000, seed=1)
    small = benchmark(lambda: [_restrict_bits(bits, runs) for bits in family])
    assert all(0 <= s < 1 << UniverseShape(shape.degrees, window.m).cells for s in small)


@pytest.mark.parametrize("case", sorted(CASES))
def test_plant_bits(benchmark, case):
    shape, window = CASES[case]
    runs = _window_runs(shape, window)
    small = range(1 << UniverseShape(shape.degrees, window.m).cells)
    planted = benchmark(lambda: [_plant_bits(bits, runs) for bits in small])
    assert [_restrict_bits(bits, runs) for bits in planted] == list(small)


def test_embed_lower_degree(benchmark):
    # the file-batch reduce-embed job: 1500 members over (1,2), n=5, into (2,3)
    shape = UniverseShape(degrees=(1, 2), n=5)
    masks = [SubsetMask(shape, bits) for bits in members(shape, 1500, seed=1)]
    images = benchmark(lambda: [embed_lower_degree(mask, (2, 3)) for mask in masks])
    assert [image.bits.bit_count() for image in images] == [m.bits.bit_count() for m in masks]
