"""Reductions: symmetric restriction, multiplex, beta, clique-square, blocks."""

import itertools
import random
from fractions import Fraction

import pytest

from setdifflab import reductions
from setdifflab.errors import CapExceededError, FormatError, ShapeMismatchError
from setdifflab.patterns import CliqueDifference, PolynomialDifference
from setdifflab.reductions import (
    HypergraphBundle,
    _compositions,
    _orbits,
    beta_bijection,
    beta_inverse,
    bundles_from_text,
    bundles_to_text,
    clique_square_correspondence,
    multiplex,
)
from setdifflab.universe import CELL_CAP, Family, OrderedWindow, SubsetMask, UniverseShape

from witness_oracles import (bundle_mask, find_witness, from_points, hyperedges_of,
                             plant_into_window, points_of, ref_is_symmetric,
                             ref_symmetric_region, union_of_powers)

from math import comb

SQUARE2 = UniverseShape(degrees=(2,), n=2)
SQUARE3 = UniverseShape(degrees=(2,), n=3)


def mask_of(shape, pts):
    return from_points(shape, [(1, p) for p in pts])


def all_symmetric_masks(shape):
    return [
        SubsetMask(shape, b)
        for b in range(1 << shape.cells)
        if ref_is_symmetric(SubsetMask(shape, b))
    ]


def lifts(shape):
    """Each symmetric mask keyed by its lift, its cells in the sorted region:
    the mask is the lift's orbit closure."""
    region = ref_symmetric_region(shape.degrees[0], shape.n).bits
    return {A.bits & region: A for A in all_symmetric_masks(shape)}


class TestSortedRegion:
    """The sorted points x_1 <= ... <= x_d index the coordinate-permutation
    orbits that beta walks, one orbit each."""

    def test_two_by_two(self):
        assert ref_symmetric_region(2, 2) == mask_of(SQUARE2, [(1, 1), (1, 2), (2, 2)])
        assert dict(_orbits(SQUARE2)) == {
            (0, (1,)): mask_of(SQUARE2, [(1, 1)]).bits,
            (0, (2,)): mask_of(SQUARE2, [(2, 2)]).bits,
            (1, (1, 2)): mask_of(SQUARE2, [(1, 2), (2, 1)]).bits,
        }

    def test_size_matches_enumeration(self):
        for d in range(1, 5):
            for n in range(1, 6):
                shape = UniverseShape(degrees=(d,), n=n)
                count = sum(
                    1 for c in itertools.product(range(1, n + 1), repeat=d)
                    if all(c[i] <= c[i + 1] for i in range(d - 1)))
                assert count == comb(n + d - 1, d)
                assert ref_symmetric_region(d, n).bits.bit_count() == count
                orbits = list(_orbits(shape).values())
                assert len(orbits) == count
                # the orbits partition [n]^d
                assert sum(orbits) == shape.full_bits
                assert sum(map(int.bit_count, orbits)) == shape.cells


class TestSymmetricLiftExtend:
    def test_is_symmetric(self):
        assert ref_is_symmetric(mask_of(SQUARE2, [(1, 2), (2, 1)]))
        assert not ref_is_symmetric(mask_of(SQUARE2, [(1, 2)]))
        assert ref_is_symmetric(SubsetMask(SQUARE2, 0))

    def test_worked_example(self):
        A_sym = mask_of(SQUARE2, [(1, 2), (2, 1)])
        assert lifts(SQUARE2)[mask_of(SQUARE2, [(1, 2)]).bits] == A_sym

    def test_roundtrip_and_counting(self):
        # the symmetric sets biject with the subsets of the sorted region
        for d, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            region = ref_symmetric_region(d, n).bits
            assert region.bit_count() == comb(n + d - 1, d)
            shape = UniverseShape(degrees=(d,), n=n)
            assert len(lifts(shape)) == len(all_symmetric_masks(shape)) == 1 << region.bit_count()

    def test_power_pairs_transfer(self):
        # restricted-world power difference (S^2 cut down to sorted points)
        # if and only if the symmetric extensions form a power pair
        region = ref_symmetric_region(2, 2).bits
        extend = lifts(SQUARE2)
        restricted = {
            frozenset(S): union_of_powers(SQUARE2, S).bits & region
            for S in [{1}, {2}, {1, 2}]
        }
        checked = 0
        for a, b in itertools.product(extend, repeat=2):
            expected = None
            if a != b and not a & ~b:
                for S, diff_bits in restricted.items():
                    if b & ~a == diff_bits:
                        expected = S
            w = find_witness(extend[a], extend[b], PolynomialDifference((2,)))
            if expected is None:
                assert w is None
            else:
                assert w is not None and w.S == expected
                checked += 1
        # each singleton difference over 4 backgrounds, the full region once
        assert checked == 9


class TestMultiplex:
    def test_identity_at_one_copy(self):
        fam = Family(UniverseShape(degrees=(1,), n=2), range(4))
        assert multiplex(fam, 1) == fam

    def test_two_copies_of_a_point(self):
        shape = UniverseShape(degrees=(1,), n=1)
        fam = Family(shape, range(1 << shape.cells))
        doubled = multiplex(fam, 2)
        assert doubled.shape == UniverseShape(degrees=(1, 1), n=1)
        assert doubled.members == frozenset({0, 3})
        w = find_witness(
            SubsetMask(doubled.shape, 0), SubsetMask(doubled.shape, 3),
            PolynomialDifference((1, 1)))
        assert w is not None and w.S == frozenset({1})

    def test_size_preserved(self):
        rng = random.Random(7)
        shape = UniverseShape(degrees=(1,), n=2)
        for _ in range(20):
            members = frozenset(rng.sample(range(4), rng.randrange(1, 5)))
            fam = Family(shape, members)
            assert len(multiplex(fam, 3)) == len(fam)

    def test_witness_transfer_both_ways(self):
        shape = UniverseShape(degrees=(1,), n=2)
        spec = PolynomialDifference((1, 1))
        image = {
            bits: next(iter(multiplex(Family(shape, {bits}), 2).masks()))
            for bits in range(4)
        }
        for a, b in itertools.product(range(4), repeat=2):
            small = find_witness(
                SubsetMask(shape, a), SubsetMask(shape, b), PolynomialDifference((1,)))
            big = find_witness(image[a], image[b], spec)
            if small is None:
                assert big is None
            else:
                assert big is not None and big.S == small.S

    def test_bad_inputs(self):
        fam = Family(UniverseShape(degrees=(1,), n=1), range(2))
        with pytest.raises(ValueError):
            multiplex(fam, 0)
        with pytest.raises(ShapeMismatchError):
            multiplex(Family(UniverseShape(degrees=(1, 1), n=1), range(4)), 2)


class TestCompositions:
    def test_small_catalogs(self):
        assert _compositions(1) == ((1,),)
        assert _compositions(2) == ((2,), (1, 1))
        assert _compositions(3) == ((3,), (1, 2), (2, 1), (1, 1, 1))

    def test_counts(self):
        for d in range(1, 6):
            comps = _compositions(d)
            # k ascending, then lexicographic
            assert list(comps) == sorted(comps, key=lambda c: (len(c), c))
            for k in range(1, d + 1):
                assert sum(len(comp) == k for comp in comps) == comb(d - 1, k - 1)
            for comp in comps:
                assert sum(comp) == d and all(c >= 1 for c in comp)
            assert len(set(comps)) == len(comps) == 2 ** (d - 1)

    def test_part_cap(self):
        # 2^(d-1) parts: d = 19 reaches CELL_CAP, d = 20 is refused unlisted
        assert CELL_CAP == 1 << 18
        assert len(_compositions(19)) == CELL_CAP  # admitted
        _compositions.cache_clear()  # drop the 2^18 listed parts
        for d in (20, 40, 10 ** 9):
            with pytest.raises(CapExceededError):
                _compositions(d)


EXAMPLE_BUNDLE = HypergraphBundle(
    n=2, degrees=(1, 2),
    parts=(frozenset({frozenset({1})}), frozenset({frozenset({1, 2})})))


class TestHypergraphBundle:
    def test_validation(self):
        with pytest.raises(ValueError):
            HypergraphBundle(n=2, degrees=(1, 2), parts=(frozenset(),))
        with pytest.raises(ValueError):
            HypergraphBundle(n=2, degrees=(2,),
                             parts=(frozenset({frozenset({1})}),))
        with pytest.raises(ValueError):
            HypergraphBundle(n=2, degrees=(2,),
                             parts=(frozenset({frozenset({1, 3})}),))

    def test_mask_roundtrip(self):
        mask = bundle_mask(EXAMPLE_BUNDLE)
        assert mask.shape == UniverseShape(degrees=(1, 2), n=2)
        assert points_of(mask) == [(1, (1,)), (2, (1, 2))]
        assert hyperedges_of(mask) == EXAMPLE_BUNDLE.parts

    def test_text_roundtrip(self):
        text = bundles_to_text([EXAMPLE_BUNDLE])
        assert text == "n=2 degrees=1,2\n1\n1,2\n"
        assert bundles_from_text(text) == [EXAMPLE_BUNDLE]

    def test_empty_part_dash(self):
        bundle = HypergraphBundle(
            n=2, degrees=(1, 2),
            parts=(frozenset(), frozenset({frozenset({1, 2})})))
        text = bundles_to_text([bundle])
        assert text == "n=2 degrees=1,2\n-\n1,2\n"
        assert bundles_from_text(text) == [bundle]

    def test_multiple_bundles_per_file(self):
        other = HypergraphBundle(
            n=2, degrees=(1, 2),
            parts=(frozenset({frozenset({2})}), frozenset()))
        text = bundles_to_text([EXAMPLE_BUNDLE, other])
        assert text.splitlines() == [
            "n=2 degrees=1,2", "1", "1,2", "2", "-"]
        assert bundles_from_text(text) == [EXAMPLE_BUNDLE, other]

    def test_mixed_shapes_rejected(self):
        other = HypergraphBundle(n=3, degrees=(1, 2),
                                 parts=(frozenset(), frozenset()))
        with pytest.raises(ValueError):
            bundles_to_text([EXAMPLE_BUNDLE, other])

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            bundles_from_text("")
        with pytest.raises(FormatError):
            bundles_from_text("m=2 degrees=1,2\n1\n")
        with pytest.raises(FormatError):
            bundles_from_text("n=2 degrees=1,2\n1\n")  # one line short
        with pytest.raises(FormatError):
            bundles_from_text("n=2 degrees=1,2\n1,a\n1,2\n")
        with pytest.raises(FormatError):
            bundles_from_text("n=2 degrees=1,2\n1,2\n1,2\n")  # degree 1 part
        with pytest.raises(FormatError):
            bundles_from_text("n=0 degrees=2\n-\n")
        with pytest.raises(FormatError):
            bundles_from_text("n=3 degrees=0\n-\n")
        with pytest.raises(FormatError):
            bundles_from_text("n=3 degrees=1,0\n1\n-\n")
        with pytest.raises(FormatError, match="duplicate bundle '1 / -'"):
            bundles_from_text("n=2 degrees=1,2\n1\n-\n2\n-\n1\n-\n")
        with pytest.raises(FormatError, match="duplicate bundle '2,3 1,2'"):
            bundles_from_text("n=3 degrees=2\n1,2 2,3\n2,3 1,2\n")  # one graph


def all_bundles(d, n):
    degrees = tuple(map(len, _compositions(d)))
    pools = [list(itertools.combinations(range(1, n + 1), k)) for k in degrees]
    for picks in itertools.product(*(range(1 << len(p)) for p in pools)):
        parts = tuple(
            frozenset(frozenset(pool[i]) for i in range(len(pool))
                      if pick >> i & 1)
            for pool, pick in zip(pools, picks))
        yield HypergraphBundle(n=n, degrees=degrees, parts=parts)


class TestBetaBijection:
    def test_worked_example(self):
        A_sym = mask_of(SQUARE2, [(1, 1), (1, 2), (2, 1)])
        assert beta_bijection(A_sym) == EXAMPLE_BUNDLE

    def test_empty_and_full(self):
        assert beta_bijection(SubsetMask(SQUARE2, 0)) == HypergraphBundle(
            n=2, degrees=(1, 2), parts=(frozenset(), frozenset()))
        full = beta_bijection(SubsetMask(SQUARE2, SQUARE2.full_bits))
        assert full.parts == (
            frozenset({frozenset({1}), frozenset({2})}),
            frozenset({frozenset({1, 2})}))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            beta_bijection(mask_of(SQUARE2, [(1, 2)]))

    def test_inverse_validates_degrees(self):
        with pytest.raises(ValueError):
            beta_inverse(HypergraphBundle(n=2, degrees=(2,),
                                          parts=(frozenset(),)))

    @pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_roundtrip_both_ways(self, d, n):
        shape = UniverseShape(degrees=(d,), n=n)
        for A in all_symmetric_masks(shape):
            assert beta_inverse(beta_bijection(A)) == A
        for bundle in all_bundles(d, n):
            back = beta_inverse(bundle)
            assert ref_is_symmetric(back)
            assert beta_bijection(back) == bundle

    @pytest.mark.parametrize("n", [2, 3])
    def test_power_pairs_become_clique_bundles(self, n):
        shape = UniverseShape(degrees=(2,), n=n)
        symmetric = all_symmetric_masks(shape)
        bundle_masks = {A.bits: bundle_mask(beta_bijection(A)) for A in symmetric}
        for A, B in itertools.product(symmetric, repeat=2):
            power = find_witness(A, B, PolynomialDifference((2,)))
            clique = find_witness(
                bundle_masks[A.bits], bundle_masks[B.bits], CliqueDifference((1, 2)))
            if power is None:
                assert clique is None
            else:
                assert clique is not None and clique.S == power.S


def square_mask(n, edges, free_bits):
    """Mask over [n]^2 with fixed upper-triangle edges and chosen free cells."""
    shape = UniverseShape(degrees=(2,), n=n)
    free_cells = [
        (x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x >= y]
    bits = 0
    for x, y in edges:
        bits |= 1 << shape.index_of(1, (min(x, y), max(x, y)))
    for i, cell in enumerate(free_cells):
        if free_bits >> i & 1:
            bits |= 1 << shape.index_of(1, cell)
    return SubsetMask(shape, bits)


class TestCliqueSquareCorrespondence:
    def test_single_edge_fiber(self):
        fam = clique_square_correspondence([[(1, 2)]], 2)
        assert len(fam) == 8
        edge_bit = 1 << SQUARE2.index_of(1, (1, 2))
        assert all(bits & edge_bit for bits in fam.members)
        empty = clique_square_correspondence([[]], 2)
        assert len(empty) == 8
        assert all(not bits & edge_bit for bits in empty.members)
        assert fam.members | empty.members == frozenset(range(16))

    def test_density_preserved(self):
        rng = random.Random(11)
        all_graphs = []
        for pick in range(8):
            all_graphs.append(
                [e for i, e in enumerate([(1, 2), (1, 3), (2, 3)])
                 if pick >> i & 1])
        for _ in range(10):
            chosen = rng.sample(range(8), rng.randrange(1, 9))
            fam = clique_square_correspondence(
                [all_graphs[i] for i in chosen], 3)
            assert len(fam) == len(chosen) * 2 ** 6
            assert fam.density() == Fraction(len(chosen), 8)

    def test_nonpositive_n_is_refused(self):
        with pytest.raises(ValueError, match="n must be positive"):
            clique_square_correspondence([], 0)

    def test_fibre_cap(self, monkeypatch):
        # n = 3 has 2^6 free cells per graph
        monkeypatch.setattr(reductions, "CLIQUE_FIBRE_CAP", 128)
        assert len(clique_square_correspondence([[], [(1, 2)]], 3)) == 128
        with pytest.raises(CapExceededError):
            clique_square_correspondence([[], [(1, 2)], [(1, 3)]], 3)
        # two copies of one fibre: one fibre's masks, counted twice by the cap
        assert len(clique_square_correspondence([[]] * 2, 3)) == 64
        with pytest.raises(CapExceededError):
            clique_square_correspondence([[]] * 3, 3)

    def test_fibre_cap_refuses_n7(self):
        assert reductions.CLIQUE_FIBRE_CAP == 1 << 20
        with pytest.raises(CapExceededError):
            clique_square_correspondence([[(1, 2)]], 7)

    def test_loopless_rejects_loops(self):
        with pytest.raises(ValueError):
            clique_square_correspondence([[(1,)]], 2)
        with pytest.raises(ValueError):
            clique_square_correspondence([[(1, 4)]], 3)

    def test_graph_readback(self):
        member = next(iter(clique_square_correspondence([[(1, 2)]], 2).masks()))
        assert hyperedges_of(member)[0] == frozenset({frozenset({1, 2})})

    def test_transfer_on_random_families(self):
        # brute force both directions at n = 3: every square power pair in
        # the image with |S| >= 2 restricts to a clique pair, and every
        # clique pair in the graph family is realized by some square pair
        rng = random.Random(20260823)
        base_edges = [(1, 2), (1, 3), (2, 3)]
        all_graphs = [
            frozenset(frozenset(e) for i, e in enumerate(base_edges)
                      if pick >> i & 1)
            for pick in range(8)
        ]
        for _ in range(20):
            graphs = rng.sample(all_graphs, rng.randrange(1, 5))
            fam = clique_square_correspondence(
                [[tuple(sorted(e)) for e in g] for g in graphs], 3)
            masks = list(fam.masks())
            for A in masks:
                for B in masks:
                    if A.bits & ~B.bits or A.bits == B.bits:
                        continue
                    w = find_witness(A, B, PolynomialDifference((2,)))
                    if w is None:
                        continue
                    g, h = hyperedges_of(A)[0], hyperedges_of(B)[0]
                    if len(w.S) >= 2:
                        assert g <= h
                        assert h - g == {
                            frozenset(c)
                            for c in itertools.combinations(sorted(w.S), 2)}
                    else:
                        assert g == h
            for g, h in itertools.product(graphs, repeat=2):
                if not g < h:
                    continue
                vertices = frozenset().union(*(h - g))
                want = {
                    frozenset(c)
                    for c in itertools.combinations(sorted(vertices), 2)}
                if h - g != want or len(vertices) < 2:
                    continue
                # canonical realization: no free bits in A, the S-square's
                # diagonal and lower cells switched on in B
                A = square_mask(3, [tuple(sorted(e)) for e in g], 0)
                diff = union_of_powers(SQUARE3, vertices)
                B = SubsetMask(SQUARE3, A.bits | diff.bits)
                w = find_witness(A, B, PolynomialDifference((2,)))
                assert w is not None and w.S == vertices


def diagonal_block_family(F):
    """Plant the t-th member of F (ascending mask order) in the t-th size-m
    window of [m l], l = |F|: the members come out pairwise disjoint, which
    turns same-window conclusions into disjoint-window ones."""
    m = F.shape.n
    big = UniverseShape(F.shape.degrees, m * len(F))
    return Family(big, frozenset(
        plant_into_window(small, OrderedWindow.interval(t * m + 1, m), big).bits
        for t, small in enumerate(F.masks())))


class TestDiagonalBlockFamily:
    def test_single_member_identity(self):
        shape = UniverseShape(degrees=(1,), n=1)
        fam = Family(shape, {1})
        assert diagonal_block_family(fam) == fam

    def test_two_members_line(self):
        shape = UniverseShape(degrees=(1,), n=1)
        out = diagonal_block_family(Family(shape, range(1 << shape.cells)))
        assert out.shape == UniverseShape(degrees=(1,), n=2)
        assert out.members == frozenset({0, 2})

    def test_three_members_line(self):
        shape = UniverseShape(degrees=(1,), n=2)
        fam = Family(shape, {0, 1, 3})
        out = diagonal_block_family(fam)
        assert out.shape.n == 6
        assert out.members == frozenset({0, 4, 48})

    def test_power_family_blocks(self):
        shape = UniverseShape(degrees=(2,), n=2)
        fam = Family(shape, {
            mask_of(shape, [(1, 1)]).bits,
            mask_of(shape, [(2, 2)]).bits,
        })
        out = diagonal_block_family(fam)
        assert out.shape == UniverseShape(degrees=(2,), n=4)
        assert out.members == frozenset({1, 1 << 15})

    def test_pairwise_disjoint(self):
        rng = random.Random(3)
        shape = UniverseShape(degrees=(1,), n=2)
        for _ in range(10):
            members = frozenset(rng.sample(range(4), rng.randrange(1, 5)))
            out = diagonal_block_family(Family(shape, members))
            assert len(out) == len(members)
            assert out.shape.n == shape.n * len(members)
            for a, b in itertools.combinations(out.members, 2):
                assert a & b == 0
