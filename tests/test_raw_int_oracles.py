"""Raw-int window maps, interval checks and transports against per-cell loops.

The references below are the per-cell and per-point loops these functions
ran before they moved onto run tables, interval tables, the orbit table and
carry-free products.  Results must be equal, bit for bit.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab.covering import (
    _cyclic_intervals,
    demo_average_density,
    interval_demo_cells,
)
from setdifflab.errors import ShapeMismatchError
from setdifflab.reductions import (
    HypergraphBundle,
    _compositions,
    _normalize_graph,
    _sorted_region,
    beta_bijection,
    beta_inverse,
    clique_square_correspondence,
    is_symmetric,
    multiplex,
)
from setdifflab.universe import (
    Family,
    OrderedWindow,
    SubsetMask,
    UniverseShape,
    _window_runs,
    cyclic_interval_bits,
    embed_lower_degree,
    plant_into_window,
    window_region,
)

from witness_oracles import from_points, interval_mod_n_witness, points_of, restrict_and_relabel


# ---------------------------------------------------------------------------
# references: the per-cell and per-point loops


def ref_index_table(shape, window):
    """Source cell index of each cell of the relabeled m-shape, in order."""
    small = UniverseShape(shape.degrees, window.m)
    return [
        shape.index_of(part, tuple(window.elements[c - 1] for c in coords))
        for part, coords in small.points()
    ]


def ref_restrict(bits, shape, window):
    out = 0
    for small_idx, src_idx in enumerate(ref_index_table(shape, window)):
        if bits >> src_idx & 1:
            out |= 1 << small_idx
    return out


def ref_plant(small_bits, shape, window):
    out = 0
    for small_idx, src_idx in enumerate(ref_index_table(shape, window)):
        if small_bits >> small_idx & 1:
            out |= 1 << src_idx
    return out


def ref_region(shape, window):
    return sum(1 << src_idx for src_idx in ref_index_table(shape, window))


def ref_interval_witness(a_bits, b_bits, n):
    """The run scan: find every run start, accept exactly one full run."""
    diff = a_bits ^ b_bits
    if diff == 0:
        return None
    if diff == (1 << n) - 1:
        return (1, n)
    k = diff.bit_count()
    starts = []
    for z in range(1, n + 1):
        pred = n if z == 1 else z - 1
        if diff >> (z - 1) & 1 and not diff >> (pred - 1) & 1:
            starts.append(z)
    if len(starts) != 1:
        return None
    y = starts[0]
    if cyclic_interval_bits(n, y, k) != diff:
        return None
    return (y, k)


def ref_is_symmetric(A):
    for part, coords in points_of(A):
        for perm in itertools.permutations(coords):
            if not A.bits >> A.shape.index_of(part, perm) & 1:
                return False
    return True


def ref_symmetric_region(d, n):
    pts = [(1, coords) for coords in
           itertools.combinations_with_replacement(range(1, n + 1), d)]
    return from_points(UniverseShape((d,), n), pts)


def ref_representative(combo, comp):
    coords = []
    for value, count in zip(combo, comp):
        coords.extend([value] * count)
    return tuple(coords)


def ref_beta_bijection(A_sym):
    d, n = A_sym.shape.degrees[0], A_sym.shape.n
    if not ref_is_symmetric(A_sym):
        raise ValueError("beta_bijection needs a symmetric input")
    parts = []
    for comp in _compositions(d):
        edges = set()
        for combo in itertools.combinations(range(1, n + 1), len(comp)):
            if A_sym.bits >> A_sym.shape.index_of(1, ref_representative(combo, comp)) & 1:
                edges.add(frozenset(combo))
        parts.append(frozenset(edges))
    return HypergraphBundle(n=n, degrees=tuple(map(len, _compositions(d))),
                            parts=tuple(parts))


def ref_beta_inverse(bundle):
    d = bundle.degrees[-1]
    shape = UniverseShape((d,), bundle.n)
    pts = []
    for comp, part in zip(_compositions(d), bundle.parts):
        for edge in part:
            base = ref_representative(sorted(edge), comp)
            pts.extend((1, perm) for perm in set(itertools.permutations(base)))
    return from_points(shape, pts)


def ref_multiplex(fam, s):
    big = UniverseShape((fam.shape.degrees[0],) * s, fam.shape.n)
    members = set()
    for mask in fam.masks():
        pts = [(part, coords) for _p, coords in points_of(mask)
               for part in range(1, s + 1)]
        members.add(from_points(big, pts).bits)
    return members


def ref_embed(mask, target_degrees):
    target = UniverseShape(tuple(target_degrees), mask.shape.n)
    bits = 0
    for part, coords in points_of(mask):
        reps = target_degrees[part - 1] - len(coords) + 1
        bits |= 1 << target.index_of(part, (coords[0],) * reps + coords[1:])
    return bits


def ref_clique_square(graphs, n, loopful):
    shape = UniverseShape((2,), n)
    fixed_cells = [(x, y) for x in range(1, n + 1) for y in range(x + 1, n + 1)]
    if loopful:
        fixed_cells += [(x, x) for x in range(1, n + 1)]
    free_cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)
                  if (x, y) not in fixed_cells]
    members = set()
    for graph in graphs:
        edge_set = _normalize_graph(graph, n, loopful)
        base = 0
        for x, y in fixed_cells:
            if (frozenset({x, y}) if x != y else frozenset({x})) in edge_set:
                base |= 1 << shape.index_of(1, (x, y))
        for choice in range(1 << len(free_cells)):
            bits = base
            for i, cell in enumerate(free_cells):
                if choice >> i & 1:
                    bits |= 1 << shape.index_of(1, cell)
            members.add(bits)
    return members


# ---------------------------------------------------------------------------
# window maps


@st.composite
def windowed_shapes(draw):
    """A shape of up to three parts of degree <= 3, one ordered window
    (elements in any order, so runs break), and a member of each side."""
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    window = OrderedWindow(tuple(draw(st.permutations(range(1, n + 1)))[:m]))
    shape = UniverseShape(degrees, n)
    small = UniverseShape(degrees, m)
    bits = draw(st.integers(0, shape.full_bits))
    small_bits = draw(st.integers(0, small.full_bits))
    return shape, window, bits, small_bits


@settings(max_examples=300, deadline=None)
@given(windowed_shapes())
def test_window_maps_match_per_cell_loops(case):
    shape, window, bits, small_bits = case
    small = UniverseShape(shape.degrees, window.m)
    got = restrict_and_relabel(SubsetMask(shape, bits), window)
    assert got.shape == small
    assert got.bits == ref_restrict(bits, shape, window)
    planted = plant_into_window(SubsetMask(small, small_bits), window, shape)
    assert planted.bits == ref_plant(small_bits, shape, window)
    assert window_region(shape, window).bits == ref_region(shape, window)


def test_interval_window_runs_are_rows_of_m_bits():
    # an interval strictly inside [n]: m^(d-1) runs of m bits per part
    for d in (1, 2, 3):
        shape = UniverseShape((d,), 6)
        runs = _window_runs(shape, OrderedWindow.interval(2, 3))
        assert len(runs) == 3 ** (d - 1)
        assert {run for _, _, run in runs} == {0b111}


def test_permuted_window_breaks_runs():
    shape = UniverseShape((1,), 3)
    runs = _window_runs(shape, OrderedWindow((3, 1, 2)))
    # label 1 reads cell 3, labels 2..3 read cells 1..2
    assert runs == ((2, 0, 0b1), (0, 1, 0b11))
    assert restrict_and_relabel(SubsetMask(shape, 0b100), OrderedWindow((3, 1, 2))).bits == 0b001


def test_window_runs_reject_bad_windows():
    shape = UniverseShape((1, 2), 4)
    with pytest.raises(ValueError):
        _window_runs(shape, OrderedWindow((5,)))
    with pytest.raises(ShapeMismatchError):
        plant_into_window(SubsetMask(UniverseShape((1, 2), 3), 0),
                          OrderedWindow((1, 2)), shape)


# ---------------------------------------------------------------------------
# cyclic intervals


def test_interval_witness_matches_run_scan_on_every_pair():
    for n in range(1, 8):
        for a in range(1 << n):
            for b in range(1 << n):
                got = interval_mod_n_witness(a, b, n)
                want = ref_interval_witness(a, b, n)
                assert (None if got is None else (got.start, got.length)) == want


def test_interval_witness_rejects_bits_at_or_above_n():
    # the run scan raised ValueError here when the difference had more than
    # n bits and one run start below n, e.g. 0b1101 at n = 2
    with pytest.raises(ValueError):
        ref_interval_witness(0, 0b1101, 2)
    for n in (1, 2, 3, 5):
        for a in range(1 << n + 2):
            for b in range(1 << n + 2):
                if (a ^ b) >> n:
                    assert interval_mod_n_witness(a, b, n) is None


def test_demo_interval_set_is_the_witness_predicate():
    for n in range(1, 9):
        intervals = _cyclic_intervals(n)
        for a in range(1 << n):
            for b in range(1 << n):
                assert (a ^ b in intervals) == (
                    interval_mod_n_witness(a, b, n) is not None)


def test_demo_cells_and_density_match_per_cell_loops():
    rng = random.Random(5)
    for n in range(1, 7):
        cells = interval_demo_cells(n)
        assert len(cells) == n << n
        for base in range(1 << n):
            for y in range(1, n + 1):
                assert cells[base * n + y - 1] == tuple(
                    base ^ cyclic_interval_bits(n, y, length) for length in range(n))
        fam = {rng.randrange(1 << n) for _ in range(rng.randrange(1, 1 << n))}
        hits = sum(mbr in fam for c in cells for mbr in c)
        assert demo_average_density(n, fam) == Fraction(hits, len(cells) * n)


# ---------------------------------------------------------------------------
# reductions


def ref_orbits(shape):
    """Each permutation orbit as a mask, built point by point."""
    return [
        sum(1 << shape.index_of(1, perm) for perm in set(itertools.permutations(rep)))
        for rep in itertools.combinations_with_replacement(range(1, shape.n + 1),
                                                           shape.degrees[0])]


def orbit_union(shape, rng):
    """A random symmetric set: each permutation orbit taken or left whole."""
    return sum(orbit for orbit in ref_orbits(shape) if rng.random() < 0.5)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 64), st.booleans())
def test_is_symmetric_matches_per_point_loop(d, n, seed, symmetric):
    shape = UniverseShape((d,), n)
    rng = random.Random(seed)
    bits = orbit_union(shape, rng) if symmetric else rng.getrandbits(shape.cells)
    if symmetric and bits and rng.random() < 0.5:
        bits ^= 1 << rng.randrange(shape.cells)  # knock one cell out of an orbit
    A = SubsetMask(shape, bits)
    assert is_symmetric(A) == ref_is_symmetric(A)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 64))
def test_multiplex_matches_per_point_loop(d, n, s, seed):
    shape = UniverseShape((d,), n)
    rng = random.Random(seed)
    fam = Family(shape, frozenset(rng.getrandbits(shape.cells) for _ in range(rng.randrange(8))))
    got = multiplex(fam, s)
    assert got.shape == UniverseShape((d,) * s, n)
    assert got.members == ref_multiplex(fam, s)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1)), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(0, 2 ** 64))
def test_embed_matches_per_point_loop(parts, n, seed):
    source = UniverseShape(tuple(d for d, _ in parts), n)
    target = tuple(d + extra for d, extra in parts)
    mask = SubsetMask(source, random.Random(seed).getrandbits(source.cells))
    got = embed_lower_degree(mask, target)
    assert got.shape == UniverseShape(target, n)
    assert got.bits == ref_embed(mask, target)


@pytest.mark.parametrize("loopful", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clique_square_matches_per_point_loop(n, loopful):
    rng = random.Random(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    loops = [(x,) for x in range(1, n + 1)] if loopful else []
    graphs = [rng.sample(pairs + loops, rng.randrange(len(pairs + loops) + 1))
              for _ in range(3)]
    fam = clique_square_correspondence(graphs, n, loopful=loopful)
    assert fam.members == ref_clique_square(graphs, n, loopful)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 2), (3, 3)])
def test_beta_matches_per_point_loops_on_every_symmetric_mask(d, n):
    shape = UniverseShape((d,), n)
    orbits = ref_orbits(shape)
    for pick in range(1 << len(orbits)):
        A = SubsetMask(shape, sum(o for i, o in enumerate(orbits) if pick >> i & 1))
        bundle = beta_bijection(A)
        assert bundle == ref_beta_bijection(A)
        assert beta_inverse(bundle) == ref_beta_inverse(bundle) == A


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 2), (3, 3)])
def test_beta_rejects_every_one_cell_break_of_symmetry(d, n):
    shape = UniverseShape((d,), n)
    rng = random.Random(d * 10 + n)
    for orbit in ref_orbits(shape):
        if orbit & (orbit - 1) == 0:
            continue  # a one-cell orbit cannot be broken
        A = SubsetMask(shape, orbit_union(shape, rng) ^ (orbit & -orbit))
        for beta in (beta_bijection, ref_beta_bijection):
            with pytest.raises(ValueError):
                beta(A)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 64))
def test_beta_matches_per_point_loops_on_random_bundles(d, n, seed):
    rng = random.Random(seed)
    degrees = tuple(map(len, _compositions(d)))
    parts = tuple(
        frozenset(frozenset(e) for e in itertools.combinations(range(1, n + 1), k)
                  if rng.random() < 0.5)
        for k in degrees)
    bundle = HypergraphBundle(n=n, degrees=degrees, parts=parts)
    A = beta_inverse(bundle)
    assert A == ref_beta_inverse(bundle)
    assert beta_bijection(A) == ref_beta_bijection(A) == bundle


def test_region_mask_matches_per_point_loop():
    for d in range(1, 5):
        for n in range(1, 6):
            shape = UniverseShape((d,), n)
            assert SubsetMask(shape, _sorted_region(shape)) == ref_symmetric_region(d, n)
