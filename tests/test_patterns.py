"""Witness ops against literal brute-force oracles.

The oracles below re-state the pattern definitions as raw searches over the
whole certificate space; the library should agree with them on existence on
every pair, and every certificate the library emits must verify.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab import patterns
from setdifflab.errors import CapExceededError, ShapeMismatchError
from setdifflab.patterns import (
    DISTANCE2_CAP,
    CliqueDifference,
    CliqueWitness,
    Distance2Witness,
    PolynomialDifference,
    PowerWitness,
    distance2_witness,
    find_pattern_pair,
    pattern_table,
    set_from_bits,
)
from setdifflab.universe import (
    Family,
    OrderedWindow,
    SubsetMask,
    UniverseShape,
)

from witness_oracles import (
    DISJOINT_WINDOWS,
    NESTED,
    SAME_WINDOW,
    FamilyDifference,
    cyclic_interval_bits,
    family_difference_witness,
    find_witness,
    from_points,
    hyperedges_of,
    interval_mod_n_witness,
    plant_into_window,
    points_of,
    union_of_powers,
    verify_witness,
)


def subsets_ascending(n):
    """All subsets of [n] in ascending bit order (the canonical scan order)."""
    for b in range(1 << n):
        yield set_from_bits(b)


def masks(shape):
    return [SubsetMask(shape, b) for b in range(1 << shape.cells)]


def ordered_pairs(shape):
    ms = masks(shape)
    return [(a, b) for a in ms for b in ms if a.bits != b.bits]


def powers_table(shape):
    """bits of S^{d_1} u ... -> S, for every S including the empty set."""
    table = {}
    for S in subsets_ascending(shape.n):
        table[union_of_powers(shape, S).bits] = S
    return table


# ---------------------------------------------------------------------------
# oracles


def oracle_power(A, B):
    """All nonempty S with B = A u powers(S), powers(S) disjoint from A."""
    out = []
    for S in subsets_ascending(A.shape.n):
        if not S:
            continue
        P = union_of_powers(A.shape, S)
        if P.bits & A.bits == 0 and A.bits | P.bits == B.bits:
            out.append(S)
    return out


def diagonal_power_witness(A, B):
    """The S of B \\ A = powers(S), recovered from the part-1 diagonal and
    verified against every part (the original extractor)."""
    shape = A.shape
    if A.bits == B.bits or A.bits & ~B.bits:
        return None
    diff = B.bits & ~A.bits
    d1 = shape.degrees[0]
    S = frozenset(
        x for x in range(1, shape.n + 1) if diff >> shape.index_of(1, (x,) * d1) & 1)
    if not S or diff != union_of_powers(shape, S).bits:
        return None
    return PowerWitness(S)


def hyperedge_clique_witness(A, B):
    """The S whose d_j-subsets are exactly the new hyperedges, recovered as
    their vertex union (the original extractor)."""
    H, G = hyperedges_of(A), hyperedges_of(B)
    if any(h - g for h, g in zip(H, G)):
        return None
    diffs = [g - h for h, g in zip(H, G)]
    S = set().union(*(e for dset in diffs for e in dset))
    if not S:
        return None
    for d, dset in zip(A.shape.degrees, diffs):
        if dset != {frozenset(c) for c in itertools.combinations(sorted(S), d)}:
            return None
    return CliqueWitness(frozenset(S))


def double_loop_distance2(A, B):
    """(U, S1, S2) of the first (S1, S2) pair in ascending bit order whose
    powers leave the same U on both sides (the original double loop)."""
    shape = A.shape
    powers = [(S, union_of_powers(shape, S)) for S in subsets_ascending(shape.n)]
    for S1, P1 in powers:
        if P1.bits & ~A.bits:
            continue
        rest1 = A.bits & ~P1.bits
        for S2, P2 in powers:
            if not P2.bits & ~B.bits and rest1 == B.bits & ~P2.bits:
                return rest1, S1, S2
    return None


def oracle_distance2(A, B):
    """Literal search over U below A n B with power-form lookups per side."""
    table = powers_table(A.shape)
    common = A.bits & B.bits
    sub = common
    while True:
        U = common & ~sub  # enumerate all subsets of the common part
        s1 = table.get(A.bits & ~U)
        s2 = table.get(B.bits & ~U)
        if s1 is not None and s2 is not None:
            return U, s1, s2
        if sub == 0:
            return None
        sub = (sub - 1) & common


def oracle_family(A, B, template, mode):
    shape = A.shape
    m, n = template.shape.n, shape.n
    planted = {}
    for start in range(1, n - m + 2):
        I = OrderedWindow.interval(start, m)
        planted[start] = {
            plant_into_window(f, I, shape).bits for f in template.masks()
        }
    starts = list(planted)
    if mode == DISJOINT_WINDOWS:
        window_choices = [
            (s1, s2) for s1 in starts for s2 in starts if abs(s1 - s2) >= m
        ]
    else:
        window_choices = [(s, s) for s in starts]
    common = A.bits & B.bits
    for s1, s2 in window_choices:
        sub = common
        while True:
            U = common & ~sub
            f1 = A.bits & ~U
            f2 = B.bits & ~U
            ok = f1 in planted[s1] and f2 in planted[s2] and f1 != f2
            if ok and mode == NESTED:
                ok = f2 & ~f1 == 0
            if ok:
                return s1, s2, U, f1, f2
            if sub == 0:
                break
            sub = (sub - 1) & common
    return None


def oracle_interval(a_bits, b_bits, n):
    out = []
    for y in range(1, n + 1):
        for length in range(1, n + 1):
            if cyclic_interval_bits(n, y, length) == a_bits ^ b_bits:
                out.append((y, length))
    return out


# ---------------------------------------------------------------------------
# power / polynomial difference


def test_power_worked_examples():
    sh = UniverseShape((2,), 3)
    A = from_points(sh, [(1, (3, 3))])
    B = SubsetMask(sh, A.bits | union_of_powers(sh, {1, 2}).bits)
    w = find_witness(A, B, PolynomialDifference((2,)))
    assert w is not None and w.S == frozenset({1, 2})
    assert verify_witness(A, B, PolynomialDifference((2,)), w)

    sh2 = UniverseShape((2,), 2)
    A2 = SubsetMask(sh2, 0)
    B2 = from_points(sh2, [(1, (1, 2))])
    assert find_witness(A2, B2, PolynomialDifference((2,))) is None

    sh3 = UniverseShape((1, 2), 2)
    A3 = SubsetMask(sh3, 0)
    B3 = from_points(sh3, [(1, (1,)), (2, (1, 1))])
    w3 = find_witness(A3, B3, PolynomialDifference((1, 2)))
    assert w3 is not None and w3.S == frozenset({1})


def test_power_rejects_non_difference_pairs():
    sh = UniverseShape((2,), 2)
    full = SubsetMask(sh, sh.full_bits)
    assert find_witness(full, full, PolynomialDifference((2,))) is None  # not distinct
    A = from_points(sh, [(1, (1, 2))])
    assert find_witness(A, SubsetMask(sh, 0), PolynomialDifference((2,))) is None  # not nested


@pytest.mark.parametrize(
    "shape",
    [
        UniverseShape((1,), 3),
        UniverseShape((2,), 2),
        UniverseShape((1, 2), 2),
        UniverseShape((3,), 2),
    ],
)
def test_power_matches_oracle_exhaustively(shape):
    for A, B in ordered_pairs(shape):
        oracle = oracle_power(A, B)
        assert len(oracle) <= 1  # witness uniqueness
        w = find_witness(A, B, PolynomialDifference(shape.degrees))
        assert w == diagonal_power_witness(A, B)
        if oracle:
            assert w is not None and w.S == oracle[0]
            assert verify_witness(A, B, PolynomialDifference(shape.degrees), w)
        else:
            assert w is None


@pytest.mark.parametrize("degrees,n", [
    ((1,), 4), ((2,), 3), ((3,), 3), ((1, 2), 3), ((2, 1, 3), 2)])
def test_union_of_powers_is_the_product_of_s(degrees, n):
    sh = UniverseShape(degrees, n)
    for S in subsets_ascending(n):
        points = [(part, coords) for part, d in enumerate(degrees, start=1)
                  for coords in itertools.product(sorted(S), repeat=d)]
        assert union_of_powers(sh, S) == from_points(sh, points)


def test_intransitivity_exhibit():
    # two consecutive power steps whose composition is not a power step
    sh = UniverseShape((2,), 2)
    A = SubsetMask(sh, 0)
    B = union_of_powers(sh, {1})
    C = SubsetMask(sh, B.bits | union_of_powers(sh, {2}).bits)
    assert find_witness(A, B, PolynomialDifference((2,))) is not None
    assert find_witness(B, C, PolynomialDifference((2,))) is not None
    assert find_witness(A, C, PolynomialDifference((2,))) is None


def test_counterexample_family_has_no_power_pairs():
    # all pure powers {S^d : S nonempty} pairwise admit no witness for d >= 2
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        sh = UniverseShape((d,), n)
        fam = Family.from_masks(
            [union_of_powers(sh, S) for S in subsets_ascending(n) if S]
        )
        assert find_pattern_pair(fam, PolynomialDifference((d,))) is None


def test_find_pattern_pair_first_in_mask_order():
    sh = UniverseShape((2,), 2)
    hit = find_pattern_pair(Family(sh, range(1 << sh.cells)), PolynomialDifference((2,)))
    assert hit is not None
    A, B, w = hit
    assert A.bits == 0
    assert B.bits == union_of_powers(sh, {1}).bits
    assert w.S == frozenset({1})


# ---------------------------------------------------------------------------
# distance 2


def test_distance2_worked_examples():
    sh = UniverseShape((2,), 2)
    A = union_of_powers(sh, {1})
    B = union_of_powers(sh, {2})
    w = distance2_witness(A, B)
    assert w is not None
    assert (w.U.bits, w.S1, w.S2) == (0, frozenset({1}), frozenset({2}))
    assert verify_witness(A, B, PolynomialDifference((2,)), w)

    A2 = from_points(sh, [(1, (1, 2))])
    B2 = from_points(sh, [(1, (2, 1))])
    assert distance2_witness(A2, B2) is None

    with pytest.raises(ValueError):
        distance2_witness(A, A)
    with pytest.raises(ShapeMismatchError):
        distance2_witness(A, SubsetMask(UniverseShape((2,), 3), 0))


def test_distance2_takes_no_spec():
    # the certificate is always for PolynomialDifference(shape.degrees); a
    # clique spec used to be accepted and ignored
    sh = UniverseShape((2,), 2)
    with pytest.raises(TypeError):
        distance2_witness(SubsetMask(sh, 0), SubsetMask(sh, 1), CliqueDifference((2,)))


@pytest.mark.parametrize(
    "shape", [UniverseShape((1,), 3), UniverseShape((2,), 2), UniverseShape((1, 2), 2)]
)
def test_distance2_matches_oracle_exhaustively(shape):
    for A, B in ordered_pairs(shape):
        got = distance2_witness(A, B)
        want = oracle_distance2(A, B)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_witness(A, B, PolynomialDifference(shape.degrees), got)


@pytest.mark.parametrize(
    "shape", [UniverseShape((1,), 4), UniverseShape((2,), 2), UniverseShape((1, 2), 2)],
    ids=str)
def test_distance2_matches_double_loop(shape):
    for A, B in ordered_pairs(shape):
        got = distance2_witness(A, B)
        want = double_loop_distance2(A, B)
        assert (None if got is None else (got.U.bits, got.S1, got.S2)) == want


def test_distance2_cap_refuses_before_walking():
    # the cap admits n = 16 (2^16 sets S_1) and refuses n = 17 up front
    assert DISTANCE2_CAP == 1 << 16
    for n, refused in ((16, False), (17, True), (40, True)):
        sh = UniverseShape((1,), n)
        A, B = SubsetMask(sh, 0), SubsetMask(sh, 1)
        if refused:
            with pytest.raises(CapExceededError):
                distance2_witness(A, B)
        else:
            w = distance2_witness(A, B)
            assert (w.U.bits, w.S1, w.S2) == (0, frozenset(), frozenset({1}))


# ---------------------------------------------------------------------------
# template-family differences


def test_family_worked_example_same_window():
    sh = UniverseShape((1,), 3)
    template = Family(UniverseShape((1,), 1), frozenset([0, 1]))  # {0, {1}}
    A = SubsetMask(sh, 0)
    B = from_points(sh, [(1, (3,))])
    w = family_difference_witness(A, B, template)
    assert w is not None
    assert w.windows[0].elements == (3,)
    assert w.U.bits == 0
    assert w.F1.bits == 0
    assert points_of(w.F2) == [(1, (3,))]
    assert w.F2_member.bits == 1  # relabel 3 -> 1
    assert verify_witness(A, B, FamilyDifference(template), w)


def test_family_worked_example_nested_chain():
    m = 2
    small = UniverseShape((1,), m)
    chain = Family(small, frozenset([0b00, 0b01, 0b11]))
    sh = UniverseShape((1,), 4)
    I = OrderedWindow.interval(2, m)
    A = plant_into_window(SubsetMask(small, 0b11), I, sh)
    B = plant_into_window(SubsetMask(small, 0b01), I, sh)
    w = family_difference_witness(A, B, chain, NESTED)
    assert w is not None
    assert not w.F2.bits & ~w.F1.bits and w.F1.bits != w.F2.bits
    assert A.bits ^ B.bits == w.F1.bits & ~w.F2.bits
    assert verify_witness(A, B, FamilyDifference(chain, NESTED), w)


def test_family_disjoint_windows_union():
    small = UniverseShape((1,), 1)
    template = Family(small, frozenset([0, 1]))
    sh = UniverseShape((1,), 4)
    A = from_points(sh, [(1, (1,))])
    B = from_points(sh, [(1, (4,))])
    w = family_difference_witness(A, B, template, DISJOINT_WINDOWS)
    assert w is not None
    assert w.mode == DISJOINT_WINDOWS
    I1, I2 = w.windows
    assert not set(I1.elements) & set(I2.elements)
    assert A.bits ^ B.bits == w.F1.bits | w.F2.bits
    assert verify_witness(A, B, FamilyDifference(template, DISJOINT_WINDOWS), w)


@pytest.mark.parametrize("mode", [SAME_WINDOW, DISJOINT_WINDOWS, NESTED])
@pytest.mark.parametrize("m", [1, 2])
def test_family_matches_oracle_exhaustively(mode, m):
    sh = UniverseShape((1,), 4)
    small = UniverseShape((1,), m)
    templates = [
        Family(small, range(1 << small.cells)),
        Family(small, frozenset([0, (1 << small.cells) - 1])),
    ]
    for template in templates:
        spec = FamilyDifference(template, mode)
        for A, B in ordered_pairs(sh):
            got = family_difference_witness(A, B, template, mode)
            want = oracle_family(A, B, template, mode)
            assert (got is None) == (want is None), (mode, m, A.bits, B.bits)
            if got is not None:
                assert verify_witness(A, B, spec, got)


def test_family_requires_matching_degrees():
    sh = UniverseShape((2,), 3)
    template = Family(UniverseShape((1,), 2), frozenset([0]))
    A, B = SubsetMask(sh, 0), SubsetMask(sh, 1)
    with pytest.raises(Exception):
        family_difference_witness(A, B, template)


# ---------------------------------------------------------------------------
# cyclic intervals


def test_interval_worked_examples():
    w = interval_mod_n_witness(0b000, 0b011, 3)
    assert (w.start, w.length) == (1, 2)
    w2 = interval_mod_n_witness(0b000, 0b111, 3)
    assert (w2.start, w2.length) == (1, 3)  # full set ties break to start 1
    # wrap-around: {3, 1} is the interval starting at 3 of length 2
    w3 = interval_mod_n_witness(0b000, 0b101, 3)
    assert (w3.start, w3.length) == (3, 2)
    assert interval_mod_n_witness(0b0101, 0b0000, 4) is None  # two runs
    assert interval_mod_n_witness(0b11, 0b11, 2) is None  # equal pair


def test_interval_matches_oracle_exhaustively():
    for n in (2, 3, 4, 5):
        for a in range(1 << n):
            for b in range(1 << n):
                if a == b:
                    continue
                got = interval_mod_n_witness(a, b, n)
                want = oracle_interval(a, b, n)
                assert (got is None) == (not want)
                if got is not None:
                    assert (got.start, got.length) in want
                    if len(want) > 1:  # only the full set is ambiguous
                        assert a ^ b == (1 << n) - 1
                        assert got.start == 1


# ---------------------------------------------------------------------------
# clique difference


def graph_mask(shape, edges, extra_bits=0):
    pts = [(1, tuple(sorted(e))) for e in edges]
    return SubsetMask(shape, from_points(shape, pts).bits | extra_bits)


def test_clique_worked_example():
    sh = UniverseShape((2,), 3)
    H = graph_mask(sh, [])
    G = graph_mask(sh, [(1, 2), (1, 3), (2, 3)])
    w = find_witness(H, G, CliqueDifference((2,)))
    assert w is not None and w.S == frozenset({1, 2, 3})
    assert verify_witness(H, G, CliqueDifference((2,)), w)
    # an edge already present in H breaks the complete-difference requirement
    H2 = graph_mask(sh, [(1, 2)])
    assert find_witness(H2, G, CliqueDifference((2,))) is None


def test_clique_ignores_free_bits():
    sh = UniverseShape((2,), 3)
    diag = from_points(sh, [(1, (1, 1)), (1, (3, 1))]).bits
    H = graph_mask(sh, [], extra_bits=diag)
    G = graph_mask(sh, [(1, 2)])
    w = find_witness(H, G, CliqueDifference((2,)))
    assert w is not None and w.S == frozenset({1, 2})


def test_clique_multi_part_bundle():
    sh = UniverseShape((1, 2), 3)
    S = {1, 3}
    bits = 0
    for x in S:
        bits |= 1 << sh.index_of(1, (x,))
    bits |= 1 << sh.index_of(2, (1, 3))
    H = SubsetMask(sh, 0)
    G = SubsetMask(sh, bits)
    w = find_witness(H, G, CliqueDifference((1, 2)))
    assert w is not None and w.S == frozenset(S)
    # singleton S: degree-2 part must stay empty
    H1 = SubsetMask(sh, 0)
    G1 = SubsetMask(sh, 1 << sh.index_of(1, (2,)))
    w1 = find_witness(H1, G1, CliqueDifference((1, 2)))
    assert w1 is not None and w1.S == frozenset({2})
    bad = SubsetMask(sh, G1.bits | 1 << sh.index_of(2, (1, 2)))
    assert find_witness(H1, bad, CliqueDifference((1, 2))) is None


@pytest.mark.parametrize("shape", [
    UniverseShape((2,), 2), UniverseShape((2,), 3), UniverseShape((1, 2), 2),
    UniverseShape((3,), 2), UniverseShape((1, 1), 2), UniverseShape((1, 2), 3)],
    ids=str)
def test_clique_matches_hyperedge_extractor(shape):
    """Every ordered pair up to 64 subsets; above that, random pairs and
    random members extended by a clique bundle plus free-cell noise."""
    spec = CliqueDifference(shape.degrees)
    if shape.cells <= 6:
        pairs = ordered_pairs(shape)
    else:
        rng = random.Random(shape.cells)
        full, free = (1 << shape.cells) - 1, free_bits(shape)
        pairs = []
        for _ in range(1000):
            a, noise = rng.getrandbits(shape.cells), rng.getrandbits(shape.cells)
            S = set_from_bits(rng.randrange(1, 1 << shape.n))
            for b in (rng.getrandbits(shape.cells),
                      a | pattern_bits(shape, spec, S) | noise & free,
                      a & ~pattern_bits(shape, spec, S) & full):
                pairs += [(SubsetMask(shape, a), SubsetMask(shape, b)),
                          (SubsetMask(shape, b), SubsetMask(shape, a))]
    for A, B in pairs:
        assert find_witness(A, B, spec) == hyperedge_clique_witness(A, B)


def test_hyperedges_reading():
    sh = UniverseShape((2,), 3)
    m = from_points(sh, [(1, (1, 2)), (1, (2, 1)), (1, (2, 2))])
    (edges,) = hyperedges_of(m)
    assert edges == frozenset({frozenset({1, 2})})


# ---------------------------------------------------------------------------
# indexed find_pattern_pair against the pairwise scan


def pairwise_pattern_pair(fam, spec):
    """Reference: the original extractors on every ordered pair, ascending
    (a, b)."""
    extract = (hyperedge_clique_witness if isinstance(spec, CliqueDifference)
               else diagonal_power_witness)
    members = sorted(fam.members)
    for a in members:
        A = SubsetMask(fam.shape, a)
        for b in members:
            if a == b:
                continue
            B = SubsetMask(fam.shape, b)
            w = extract(A, B)
            if w is not None:
                return A, B, w
    return None


def pattern_bits(shape, spec, S):
    """Cells B \\ A must be for witness S: powers, or all d_j-subsets of S."""
    if not isinstance(spec, CliqueDifference):
        return union_of_powers(shape, S).bits
    bits = 0
    for part, d in enumerate(shape.degrees, start=1):
        for c in itertools.combinations(sorted(S), d):
            bits |= 1 << shape.index_of(part, c)
    return bits


def free_bits(shape):
    """Cells whose coordinates are not strictly increasing."""
    bits = 0
    for i, (_, coords) in enumerate(shape.points()):
        if any(x >= y for x, y in zip(coords, coords[1:])):
            bits |= 1 << i
    return bits


@st.composite
def families(draw, shape, spec):
    """Random members plus members extended by a pattern (and, for clique
    specs, by arbitrary free cells), so that hits are common."""
    full = (1 << shape.cells) - 1
    base = draw(st.lists(st.integers(0, full), min_size=1, max_size=30))
    free = free_bits(shape) if isinstance(spec, CliqueDifference) else 0
    extensions = draw(st.lists(st.tuples(
        st.sampled_from(base), st.integers(1, (1 << shape.n) - 1),
        st.integers(0, full)), max_size=6))
    members = set(base)
    for a, s_bits, noise in extensions:
        members.add(a | pattern_bits(shape, spec, set_from_bits(s_bits))
                    | noise & free)
    return Family(shape, frozenset(members))


INDEXED_CASES = [
    *[(UniverseShape((1,), n), PolynomialDifference((1,))) for n in range(1, 6)],
    (UniverseShape((2,), 2), PolynomialDifference((2,))),
    (UniverseShape((1, 2), 2), PolynomialDifference((1, 2))),
    (UniverseShape((1, 3), 2), PolynomialDifference((1, 3))),
    (UniverseShape((2,), 2), CliqueDifference((2,))),
    (UniverseShape((2,), 3), CliqueDifference((2,))),
    (UniverseShape((1, 2), 3), CliqueDifference((1, 2))),
    (UniverseShape((3,), 2), CliqueDifference((3,))),
]


@pytest.mark.parametrize(
    "shape,spec", INDEXED_CASES,
    ids=[f"{type(sp).__name__}{sh.degrees}-n{sh.n}" for sh, sp in INDEXED_CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_indexed_pattern_pair_matches_pairwise_scan(shape, spec, data):
    fam = data.draw(families(shape, spec))
    assert find_pattern_pair(fam, spec) == pairwise_pattern_pair(fam, spec)


@pytest.mark.parametrize("shape,spec,S", [
    (UniverseShape((1,), 40), PolynomialDifference((1,)), {3, 17, 40}),
    (UniverseShape((2,), 12), CliqueDifference((2,)), {2, 5, 12}),
], ids=["power-n40", "clique-n12"])
def test_small_family_over_large_universe_builds_no_table(shape, spec, S, monkeypatch):
    built = []
    def counting_table(*args):
        built.append(args)
        return pattern_table(*args)
    monkeypatch.setattr(patterns, "pattern_table", counting_table)
    a = SubsetMask(shape, (1 << 7) | (1 << 38 % shape.cells))
    b = SubsetMask(shape, a.bits | pattern_bits(shape, spec, S))
    c = SubsetMask(shape, (1 << 20) | 1)  # no pattern to or from a or b
    fam = Family(shape, frozenset({a.bits, b.bits, c.bits}))
    A, B, w = find_pattern_pair(fam, spec)
    assert (A, B, w.S) == (a, b, frozenset(S))
    assert built == []
    # 2^n members over [3] go through the table, so the stub is on the path
    find_pattern_pair(Family(UniverseShape(shape.degrees, 3), frozenset(range(8))), spec)
    assert len(built) == 1


def test_indexed_pattern_pair_rejects_mismatched_spec():
    # raised even when the family has no pair to check
    fam = Family(UniverseShape((2,), 2), frozenset({0}))
    with pytest.raises(ShapeMismatchError):
        find_pattern_pair(fam, CliqueDifference((1, 2)))


# ---------------------------------------------------------------------------
# shape checks and certificates


def test_find_witness_shape_checks():
    sh = UniverseShape((2,), 2)
    A, B = SubsetMask(sh, 0), union_of_powers(sh, {2})
    assert find_witness(A, B, PolynomialDifference((2,))).S == frozenset({2})
    with pytest.raises(ShapeMismatchError):
        find_witness(A, B, PolynomialDifference((3,)))


def test_witness_json_shapes():
    sh = UniverseShape((2,), 2)
    w = find_witness(SubsetMask(sh, 0), union_of_powers(sh, {1, 2}),
                     PolynomialDifference((2,)))
    assert w.to_json() == {"kind": "power-difference", "S": [1, 2]}
    d2 = distance2_witness(union_of_powers(sh, {1}), union_of_powers(sh, {2}))
    assert isinstance(d2, Distance2Witness)
    assert d2.S1 == frozenset({1}) and d2.S2 == frozenset({2})
    iv = interval_mod_n_witness(0, 0b11, 3)
    assert iv.to_json() == {"kind": "interval-mod-n", "start": 1, "length": 2}


def test_verify_rejects_corrupted_certificates():
    sh = UniverseShape((2,), 2)
    A, B = SubsetMask(sh, 0), union_of_powers(sh, {1})
    spec = PolynomialDifference((2,))
    w = find_witness(A, B, spec)
    assert not verify_witness(A, B, spec, PowerWitness(frozenset({2})))
    assert not verify_witness(B, A, spec, w)


def test_set_from_bits():
    assert set_from_bits(0b101) == frozenset({1, 3})
    assert set_from_bits(0) == frozenset()
    assert list(subsets_ascending(2)) == [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]
