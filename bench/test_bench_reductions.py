"""Microbenchmarks of the reductions layer: the hypergraph bijection beta,
its inverse, and the clique-square correspondence, at the sizes of the
file-batch ``reduce-beta`` and ``reduce-clique`` jobs.

Kept out of the tier-1 ``testpaths``; run from the repository root with

    PYTHONPATH=src python -m pytest bench/test_bench_reductions.py \
        --benchmark-json BENCH.json
"""

import itertools
from random import Random

from setdifflab.reductions import (
    beta_bijection,
    beta_inverse,
    clique_square_correspondence,
    is_symmetric,
)
from setdifflab.universe import SubsetMask, UniverseShape


def symmetric_masks(d, n, size, seed):
    """`size` distinct random unions of coordinate-permutation orbits of
    [n]^d, as the file-batch workload draws its beta input."""
    rng = Random(seed)
    shape = UniverseShape(degrees=(d,), n=n)
    orbits = [sum(1 << shape.index_of(1, perm) for perm in set(itertools.permutations(rep)))
              for rep in itertools.combinations_with_replacement(range(1, n + 1), d)]
    members = set()
    while len(members) < size:
        members.add(sum(orbit for orbit in orbits if rng.random() < 0.5))
    return [SubsetMask(shape, bits) for bits in sorted(members)]


def random_graphs(n, count, seed):
    """`count` distinct random simple graphs on [n]."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = Random(seed).sample(range(1 << len(pairs)), count)
    return [[pairs[k] for k in range(len(pairs)) if g >> k & 1] for g in chosen]


# the file-batch reduce-beta size: 400 symmetric members of (3,) n=5, whose
# 35 orbits map to the four parts of the d=3 catalog
SYMMETRIC = symmetric_masks(3, 5, 400, seed=1)
BUNDLES = [beta_bijection(mask) for mask in SYMMETRIC]
# the file-batch reduce-clique size: 24 graphs on [4], 2^10 masks each
GRAPHS = random_graphs(4, 24, seed=2)


def test_beta_bijection(benchmark):
    bundles = benchmark(lambda: [beta_bijection(mask) for mask in SYMMETRIC])
    assert bundles == BUNDLES and len(set(bundles)) == len(SYMMETRIC)


def test_beta_inverse(benchmark):
    masks = benchmark(lambda: [beta_inverse(bundle) for bundle in BUNDLES])
    assert masks == SYMMETRIC and all(is_symmetric(mask) for mask in masks)


def test_clique_square_correspondence(benchmark):
    fam = benchmark(clique_square_correspondence, GRAPHS, 4)
    assert len(fam) == len(GRAPHS) << 10
