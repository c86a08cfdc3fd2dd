"""Tests for linear forms, induced forms, distributions, and block partitions.

The distribution oracle below re-evaluates forms point by point over every
subset of the universe; the convolution code path has to reproduce it
exactly.  Partition examples are frozen from hand runs of the documented
greedy order.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setdifflab.errors import (CapExceededError, FormatError, ShapeMismatchError,
                               UniverseTooSmallError)
from setdifflab.fpforms import (
    MODULUS_CAP,
    BlockPartition,
    DistributionTable,
    InducedForm,
    LinearFormP,
    _block_row,
    _product_table,
    _required_rows,
    build_block_partition,
    check_block_partition,
    coefficient_class_masks,
    distribution,
    forms_from_text,
    lift_bits,
    member_planes,
    phi_eval,
    projection_counts,
    support,
    uniformity_bound,
    value_counts,
)
from setdifflab.increment import iteration_cap
from setdifflab.universe import SubsetMask, UniverseShape, _bit_indices

from form_oracles import (Phi_eval, cell_form_value, cell_value_report, class_masks,
                          eval_on_bits, leftover)
from witness_oracles import from_points


# ---------------------------------------------------------------------------
# Independent oracle: evaluate pointwise over every subset of the universe.


def form_shape(form):
    return UniverseShape(degrees=(form.degree,), n=form.base.n)


def oracle_masses(form):
    shape, coeffs = form_shape(form), form.base.coeffs
    counts = [0] * form.p
    points = list(shape.points())
    for bits in range(1 << shape.cells):
        total = 0
        for idx, (_, coords) in enumerate(points):
            if bits >> idx & 1:
                term = 1
                for i in coords:
                    term *= coeffs[i - 1]
                total += term
        counts[total % form.p] += 1
    return tuple(Fraction(c, 1 << shape.cells) for c in counts)


def enumerated_masses(form):
    """The same masses from ``value_counts`` walking every subset once."""
    cells = form_shape(form).cells
    counts = value_counts(form.p, class_masks(form),
                          zip(range(2**cells), itertools.repeat(1)))
    return tuple(Fraction(c, 1 << cells) for c in counts)


def all_linear_forms(p, n):
    for coeffs in itertools.product(range(p), repeat=n):
        yield LinearFormP(p=p, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Evaluation


def test_phi_eval_worked_examples():
    assert phi_eval(LinearFormP(p=2, coeffs=(1, 1, 1)), {1, 3}) == 0
    assert phi_eval(LinearFormP(p=2, coeffs=(1, 1, 1)), ()) == 0
    assert phi_eval(LinearFormP(p=3, coeffs=(2, 1)), {1, 2}) == 0
    with pytest.raises(ValueError):
        phi_eval(LinearFormP(p=2, coeffs=(1, 1)), {3})


def test_form_validation():
    with pytest.raises(ValueError):
        LinearFormP(p=4, coeffs=(1,))
    with pytest.raises(ValueError):
        LinearFormP(p=3, coeffs=(3, 0))
    with pytest.raises(ValueError):
        InducedForm(base=LinearFormP(p=2, coeffs=(1,)), degree=0)


def test_Phi_eval_worked_examples():
    shape = UniverseShape(degrees=(2,), n=2)
    form = LinearFormP(p=2, coeffs=(1, 1)).induced(2)
    single = from_points(shape, [(1, (1, 2))])
    assert Phi_eval(form, single) == 1
    assert Phi_eval(form, SubsetMask(shape, 0)) == 0
    # B \ A = S^2 forces Phi(B) - Phi(A) = phi(S)^2.
    f3 = LinearFormP(p=3, coeffs=(1, 0)).induced(2)
    square = from_points(shape, [(1, (1, 1))])
    assert Phi_eval(f3, square) == 1 == phi_eval(f3.base, {1}) ** 2 % 3
    with pytest.raises(ShapeMismatchError):
        Phi_eval(form, SubsetMask(UniverseShape(degrees=(1,), n=2), 0))


def test_support_examples():
    assert support(LinearFormP(p=3, coeffs=(1, 0, 2))) == {1, 3}
    assert support(LinearFormP(p=2, coeffs=(0, 0))) == frozenset()
    assert support(LinearFormP(p=2, coeffs=(1,) * 5)) == set(range(1, 6))
    form = LinearFormP(p=2, coeffs=(1, 1, 0))
    assert distribution(form.induced(3)).support_size == len(support(form)) ** 3 == 8


def test_eval_on_bits_matches_pointwise():
    rng = Random(5)
    form = LinearFormP(p=3, coeffs=(1, 2, 0, 1)).induced(2)
    shape = form_shape(form)
    for _ in range(50):
        bits = rng.getrandbits(shape.cells)
        assert eval_on_bits(form, bits) == Phi_eval(
            form, SubsetMask(shape=shape, bits=bits))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weighted_value_counts_match_expanded_multiset(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))
    form = LinearFormP(p=p, coeffs=tuple(
        data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))))
    form = form.induced(data.draw(st.integers(1, 3)))
    cells = form_shape(form).cells
    weighted = data.draw(st.lists(
        st.tuples(st.integers(0, (1 << cells) - 1), st.integers(0, 5)),
        max_size=12))
    expected = [0] * p
    for bits, weight in weighted:
        for _ in range(weight):
            expected[eval_on_bits(form, bits)] += 1
    assert value_counts(p, class_masks(form), weighted) == expected


def ref_planes(members, cells):
    """Member bit-planes by one bit test per member and cell."""
    return [sum(1 << j for j, bits in enumerate(members) if bits >> c & 1)
            for c in range(cells)]


@st.composite
def plane_cases(draw):
    """(members, cells, support): up to 70 members over up to 40 cells, the
    empty and the full member likely among them, and a support of no cell,
    one cell, every cell or any cells."""
    cells = draw(st.integers(1, 40))
    full = (1 << cells) - 1
    member = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    members = draw(st.lists(member, min_size=1, max_size=70, unique=True))
    support = draw(st.one_of(st.just(0), st.just(full),
                             st.integers(0, cells - 1).map(lambda c: 1 << c),
                             st.integers(0, full)))
    return members, cells, support


# member and cell counts on either side of a byte boundary
@example(case=([0], 1, 1))
@example(case=([255], 8, 1 << 7))
@example(case=([0, 511, *range(1, 512, 73)], 9, 1 << 8))
@example(case=([*range(0, 1 << 17, 7717), (1 << 17) - 1], 17, (1 << 17) - 1))
@example(case=(list(range(8)), 3, 0b101))
@settings(max_examples=300, deadline=None)
@given(case=plane_cases())
def test_projection_counts_match_counter(case):
    members, cells, support = case
    planes = member_planes(members, cells)
    assert planes == ref_planes(members, cells)
    assert projection_counts(members, planes, support) == \
        Counter(map(support.__and__, members))


# ---------------------------------------------------------------------------
# Distributions


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_linear_distribution_matches_oracle(p, n):
    for base in all_linear_forms(p, n):
        form = base.induced(1)
        expected = oracle_masses(form)
        assert distribution(form).masses == expected
        assert enumerated_masses(form) == expected


@pytest.mark.parametrize("p,n,d", [(2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_induced_distribution_matches_oracle(p, n, d):
    for base in all_linear_forms(p, n):
        form = base.induced(d)
        expected = oracle_masses(form)
        assert distribution(form).masses == expected
        assert enumerated_masses(form) == expected


def test_distribution_worked_examples():
    table = distribution(LinearFormP(p=2, coeffs=(1, 1, 1)).induced(1))
    assert table.masses == (Fraction(1, 2), Fraction(1, 2))
    assert table.uniformity_bound == Fraction(27, 32)
    assert table.deviation == 0 and table.within_bound

    zero = distribution(LinearFormP(p=2, coeffs=(0, 0, 0)).induced(1))
    assert zero.masses == (Fraction(1), Fraction(0))
    assert zero.deviation == Fraction(1, 2)
    assert zero.uniformity_bound == 2 and zero.within_bound

    mixed = distribution(LinearFormP(p=3, coeffs=(1, 2)).induced(1))
    assert mixed.masses == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert mixed.deviation == Fraction(1, 6)

    induced = distribution(LinearFormP(p=2, coeffs=(1, 1)).induced(2))
    assert induced.support_size == 4
    assert induced.masses == (Fraction(1, 2), Fraction(1, 2))
    assert induced.uniformity_bound == Fraction(81, 128)
    assert induced.within_bound


def test_uniformity_bound_exhaustive_small():
    for p in (2, 3):
        for n in range(1, 6):
            for form in all_linear_forms(p, n):
                assert distribution(form.induced(1)).within_bound


def test_exact_distribution_has_no_cell_cap():
    form = LinearFormP(p=2, coeffs=(1, 1)).induced(5)  # 32 cells
    assert sum(distribution(form).masses) == 1


def test_linearity_on_disjoint_masks():
    rng = Random(11)
    shape = UniverseShape(degrees=(2,), n=2)
    for p in (2, 3):
        for _ in range(40):
            form = LinearFormP(
                p=p, coeffs=tuple(rng.randrange(p) for _ in range(2))).induced(2)
            a = rng.getrandbits(shape.cells)
            b = rng.getrandbits(shape.cells) & ~a
            left = Phi_eval(form, SubsetMask(shape=shape, bits=a | b))
            right = (Phi_eval(form, SubsetMask(shape=shape, bits=a))
                     + Phi_eval(form, SubsetMask(shape=shape, bits=b))) % p
            assert left == right


@pytest.mark.parametrize("p,n,d", [(2, 2, 2), (3, 2, 2), (2, 3, 1), (3, 3, 1)])
def test_power_pair_difference_is_a_dth_power(p, n, d):
    shape = UniverseShape(degrees=(d,), n=n)
    subsets = [frozenset(c) for r in range(1, n + 1)
               for c in itertools.combinations(range(1, n + 1), r)]
    for base in all_linear_forms(p, n):
        form = base.induced(d)
        for S in subsets:
            power = from_points(
                shape, [(1, c) for c in itertools.product(sorted(S), repeat=d)])
            for bits in range(1 << shape.cells):
                if bits & power.bits:
                    continue
                small = SubsetMask(shape=shape, bits=bits)
                big = SubsetMask(shape, bits | power.bits)
                diff = (Phi_eval(form, big) - Phi_eval(form, small)) % p
                assert diff == pow(phi_eval(base, S), d, p)


# ---------------------------------------------------------------------------
# Block partitions


def test_singleton_partition_worked_example():
    form = LinearFormP(p=2, coeffs=(1, 1) + (0,) * 8)
    part = build_block_partition(form, m=2)
    assert part.sigma == 1 and part.t == 4
    assert part.rows == (
        (frozenset({3}), frozenset({4})),
        (frozenset({5}), frozenset({6})),
        (frozenset({7}), frozenset({8})),
        (frozenset({9}), frozenset({10})),
    )
    assert leftover(part) == {1, 2}
    assert _required_rows(part.n, part.p, part.m) == 1
    check_block_partition(part, form)


def test_zero_form_partition():
    form = LinearFormP(p=2, coeffs=(0,) * 7)
    part = build_block_partition(form, m=3)
    assert part.sigma == 1 and part.t == 2
    assert leftover(part) == {7}
    assert frozenset().union(*part.rows[0]) == {1, 2, 3}
    check_block_partition(part, form)


def test_large_support_partition_worked_example():
    form = LinearFormP(p=2, coeffs=(1,) * 16)
    part = build_block_partition(form, m=2)
    assert part.sigma == 2 and part.t == 2 == _required_rows(part.n, part.p, part.m)
    assert part.rows == (
        (frozenset({1, 2}), frozenset({3, 4})),
        (frozenset({5, 6}), frozenset({7, 8})),
    )
    assert leftover(part) == set(range(9, 17))
    for block in itertools.chain.from_iterable(part.rows):
        assert phi_eval(form, block) == 0
    check_block_partition(part, form)


def test_mixed_class_zero_sum_block():
    # No coefficient class reaches size p, so the cross-class profile search
    # must fire; the first lexicographic profile is (0,0,2,1,2).
    form = LinearFormP(p=5, coeffs=(0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4))
    part = build_block_partition(form, m=1)
    assert part.sigma == 5 and part.t == 1 == _required_rows(part.n, part.p, part.m)
    assert part.rows == ((frozenset({6, 7, 8, 10, 11}),),)
    assert leftover(part) == {1, 2, 3, 4, 5, 9}
    assert phi_eval(form, {6, 7, 8, 10, 11}) == 0
    check_block_partition(part, form)
    # two elements hold no zero-sum 3-block, so the row is refused
    with pytest.raises(UniverseTooSmallError):
        _block_row([1, 2], (1, 1), 3, 1)


def test_partition_vacuous_bound_may_leave_no_rows():
    # Large support over F_5 at n=8: the row bound is max(ceil(8/10)-2, 0)=0
    # and no p-block fits the construction, so an empty partition is legal.
    form = LinearFormP(p=5, coeffs=(1, 2, 3, 4, 1, 2, 3, 0))
    part = build_block_partition(form, m=2)
    assert part.t == 0 and _required_rows(part.n, part.p, part.m) == 0
    assert leftover(part) == set(range(1, 9))
    check_block_partition(part, form)


def test_partition_random_sweep():
    rng = Random(20260823)
    for _ in range(100):
        n = rng.randrange(8, 33)
        p = rng.choice([2, 3, 5])
        form = LinearFormP(p=p, coeffs=tuple(rng.randrange(p) for _ in range(n)))
        part = build_block_partition(form, m=2)
        check_block_partition(part, form)
        expected_sigma = 1 if 2 * len(support(form)) <= n else p
        assert part.sigma == expected_sigma
        assert part.t >= _required_rows(n, p, 2)


def test_check_block_partition_rejects_corruption():
    form = LinearFormP(p=2, coeffs=(1, 1, 0, 0, 0, 0))
    part = build_block_partition(form, m=2)
    bad = BlockPartition(n=6, p=2, m=2, sigma=1,
                         rows=((frozenset({3}), frozenset({1})),))
    with pytest.raises(ValueError):
        check_block_partition(bad, form)  # block {1} has form value 1
    with pytest.raises(ValueError):
        check_block_partition(part, LinearFormP(p=2, coeffs=(1, 1, 0)))
    with pytest.raises(ValueError):
        build_block_partition(form, m=0)


def corrupted(part, **changes):
    fields = dict(n=part.n, p=part.p, m=part.m, sigma=part.sigma, rows=part.rows)
    return BlockPartition(**{**fields, **changes})


# a valid p-block partition of the all-ones form over F_2 at n=16, m=2, broken
# in each way check_block_partition refuses once the shapes match
ALL_ONES_16 = LinearFormP(p=2, coeffs=(1,) * 16)
PARTITION_CORRUPTIONS = {
    "sigma": (dict(sigma=3), "block size 3 not in"),
    "row width": (dict(m=3), "row width differs from m"),
    "block size": (dict(sigma=1), "block size differs from sigma"),
    "overlap": (dict(rows=((frozenset({1, 2}), frozenset({3, 4})),
                           (frozenset({3, 4}), frozenset({7, 8})))),
                "not pairwise disjoint"),
    "range": (dict(rows=((frozenset({1, 2}), frozenset({3, 4})),
                         (frozenset({5, 6}), frozenset({16, 17})))),
              r"element 17 outside \[1, 16\]"),
    "rows": (dict(rows=((frozenset({1, 2}), frozenset({3, 4})),)), "only 1 rows, need 2"),
}


@pytest.mark.parametrize("name", PARTITION_CORRUPTIONS)
def test_check_block_partition_rejects_each_corruption(name):
    part = build_block_partition(ALL_ONES_16, m=2)
    check_block_partition(part, ALL_ONES_16)
    changes, message = PARTITION_CORRUPTIONS[name]
    with pytest.raises(ValueError, match=message):
        check_block_partition(corrupted(part, **changes), ALL_ONES_16)


def two_phase_partition(form, m):
    """The large-support construction as first written: equal-coefficient
    rows from the support prefix while it stays thick, then rows of zero-sum
    blocks from everything left, each phase with a loop of its own."""
    n, p, coeffs = form.n, form.p, form.coeffs

    def classes_of(pool):
        classes = {}
        for z in pool:
            classes.setdefault(coeffs[z - 1], []).append(z)
        return classes

    def equal_block(classes):
        for value in sorted(classes):
            if len(classes[value]) >= p:
                return frozenset(classes[value][:p])
        return None

    def zero_sum_block(classes):
        block = equal_block(classes)
        if block is not None:
            return block
        values = sorted(classes)
        for profile in itertools.product(
                *[range(min(len(classes[v]), p) + 1) for v in values]):
            if sum(profile) == p and not sum(v * k for v, k in zip(values, profile)) % p:
                return frozenset(itertools.chain.from_iterable(
                    classes[v][:k] for v, k in zip(values, profile)))
        return None

    prefix = set(sorted(support(form))[:math.ceil(n / 4)])
    rows = []
    pool = sorted(prefix)
    while len(pool) >= p * p + m * p:
        row = []
        for _ in range(m):
            block = equal_block(classes_of(pool))
            row.append(block)
            pool = [z for z in pool if z not in block]
        rows.append(tuple(row))
    required = max(math.ceil(n / (p * m)) - 2, 0)
    pool = sorted((set(range(1, n + 1)) - prefix) | set(pool))
    while len(rows) < required:
        row = []
        for _ in range(m):
            block = zero_sum_block(classes_of(pool))
            if block is None:
                raise AssertionError("the two-phase construction ran out of blocks")
            row.append(block)
            pool = [z for z in pool if z not in block]
        rows.append(tuple(row))
    return tuple(rows), frozenset(pool)


@st.composite
def large_support_forms(draw):
    """A form with more than n/2 nonzero coefficients, about a fifth zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 60))
    zeros = draw(st.sets(st.integers(0, n - 1), max_size=min(n // 5, (n - 1) // 2)))
    coeffs = [0 if z in zeros else draw(st.integers(1, p - 1)) for z in range(n)]
    return LinearFormP(p=p, coeffs=tuple(coeffs)), draw(st.integers(1, 4))


@example(case=(LinearFormP(p=2, coeffs=(1,) * 60), 1))  # both phases
@example(case=(LinearFormP(p=3, coeffs=(1, 2) * 30), 2))
@example(case=(LinearFormP(p=5, coeffs=(0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4)), 1))
@settings(max_examples=300, deadline=None)
@given(case=large_support_forms())
def test_large_support_partition_matches_two_phase_oracle(case):
    form, m = case
    part = build_block_partition(form, m)  # refuses nothing
    assert part.sigma == form.p
    assert (part.rows, leftover(part)) == two_phase_partition(form, m)


# ---------------------------------------------------------------------------
# Block-constant cells


def small_partition():
    return build_block_partition(LinearFormP(p=2, coeffs=(1, 1, 0, 0, 0, 0)), m=2)


def test_cell_plant_lift_roundtrip():
    part = small_partition()
    shape = UniverseShape(degrees=(2,), n=6)
    background = 1 << shape.index_of(1, (1, 1))
    table = _product_table(part, 1, 2)
    region = sum(table)  # the row region X_1^2, tiled by the 2^2 block products
    assert len(table) == 4 and region == from_points(
        shape, [(1, (i, j)) for i in (3, 4) for j in (3, 4)]).bits
    assert background & region == 0
    assert from_points(shape, [(1, (3, 4))]).bits & region  # inside the region
    # off the row region a stranger differs from the empty background
    assert from_points(shape, [(1, (1, 2))]).bits & ~region != 0
    members = []
    for small in range(16):  # plant each subset of the small universe
        member = background | sum(table[i] for i in _bit_indices(small))
        assert lift_bits(table, member) == small
        assert member & ~region == background
        members.append(member)
    assert len(set(members)) == 16 and members[0] == background


def test_cell_form_value_constancy():
    part = small_partition()
    form = LinearFormP(p=2, coeffs=(1, 1, 0, 0, 0, 0)).induced(2)
    shape = UniverseShape(degrees=(2,), n=6)
    background = from_points(shape, [(1, (1, 1))])
    value = cell_form_value(form, part, 1, background)
    assert value == 1 == Phi_eval(form, background)
    table = _product_table(part, 1, 2)
    assert {Phi_eval(form, SubsetMask(shape, background.bits | sum(
                table[i] for i in _bit_indices(small))))
            for small in range(1 << len(table))} == {value}

    assert cell_form_value(form, part, 2, SubsetMask(shape, 0)) == 0
    with pytest.raises(ValueError):
        cell_form_value(form, part, 1, from_points(shape, [(1, (3, 3))]))
    with pytest.raises(ShapeMismatchError):
        cell_form_value(LinearFormP(p=3, coeffs=(1,) * 6).induced(2), part, 1,
                        SubsetMask(shape, 0))


def test_cell_form_value_constancy_sigma_p():
    form = LinearFormP(p=2, coeffs=(1,) * 16)
    part = build_block_partition(form, m=2)
    induced = form.induced(2)
    shape = UniverseShape(degrees=(2,), n=16)
    background = from_points(shape, [(1, (16, 16))])
    value = cell_form_value(induced, part, 1, background)
    assert value == 1
    table = _product_table(part, 1, 2)
    assert {Phi_eval(induced, SubsetMask(shape, background.bits | sum(
                table[i] for i in _bit_indices(small))))
            for small in range(1 << len(table))} == {1}


def test_cell_value_report_examples():
    part = small_partition()
    form = LinearFormP(p=2, coeffs=(1, 1, 0, 0, 0, 0)).induced(1)
    report = cell_value_report(form, part)
    assert sum(report.cell_masses) == 1 == sum(report.global_masses)
    assert report.max_gap == 0  # support never meets the singleton blocks

    ones = LinearFormP(p=3, coeffs=(1,) * 9)
    part3 = build_block_partition(ones, m=1)
    assert part3.rows == ((frozenset({1, 2, 3}),),)
    report3 = cell_value_report(ones.induced(1), part3)
    assert sum(report3.cell_masses) == 1
    assert report3.max_gap == Fraction(3, 256)


# ---------------------------------------------------------------------------
# Form files


def test_modulus_cap_boundary():
    # 251 is the largest prime the cap admits, 257 the smallest it refuses
    assert 251 < MODULUS_CAP < 257
    assert LinearFormP(p=251, coeffs=(1, 250)).p == 251
    assert forms_from_text("p=251\n1 2\n")[0].p == 251
    assert iteration_cap(Fraction(1, 2), Fraction(1, 2), 251) > 0
    for p in (257, 10 ** 18 + 3):
        with pytest.raises(CapExceededError):
            LinearFormP(p=p, coeffs=(1,))
        with pytest.raises(CapExceededError):
            forms_from_text(f"p={p}\n1 2\n")
        with pytest.raises(CapExceededError):
            iteration_cap(Fraction(1, 2), Fraction(1, 2), p)


def test_forms_file_rows():
    forms = [LinearFormP(p=3, coeffs=(1, 0, 2)), LinearFormP(p=3, coeffs=(2, 2))]
    assert forms_from_text("p=3\n1 0 2\n2 2\n") == forms


def test_forms_file_parsing():
    parsed = forms_from_text("# comment\np=3\n\n-1 4\n")
    assert parsed == [LinearFormP(p=3, coeffs=(2, 1))]
    with pytest.raises(FormatError):
        forms_from_text("")
    with pytest.raises(FormatError):
        forms_from_text("q=3\n1 1\n")
    with pytest.raises(FormatError):
        forms_from_text("p=4\n1 1\n")
    with pytest.raises(FormatError):
        forms_from_text("p=3\n1 x\n")
    with pytest.raises(FormatError):
        forms_from_text("p=3\n")


def test_distribution_table_validation():
    with pytest.raises(ValueError):
        DistributionTable(p=2, masses=(Fraction(1, 2),), support_size=0,
                          uniformity_bound=Fraction(2))
    with pytest.raises(ValueError):
        DistributionTable(p=2, masses=(Fraction(1, 2), Fraction(1, 4)),
                          support_size=0, uniformity_bound=Fraction(2))
    assert uniformity_bound(2, 3) == Fraction(27, 32)


# ---------------------------------------------------------------------------
# Class masks, counted distributions and lifts against pointwise oracles

PRIMES = st.sampled_from([2, 3, 5, 7])
ALL_SIZES = [(n, d) for n in range(1, 5) for d in range(1, 4)]
ENUMERABLE = [(n, d) for n, d in ALL_SIZES if n ** d <= 9]


@st.composite
def induced_forms(draw, sizes=ALL_SIZES, sparse=False):
    """A degree-d lift over [n]; ``sparse`` zeroes at least half the
    coefficients, so the partition at m=1 has singleton rows."""
    p = draw(PRIMES)
    n, d = draw(st.sampled_from(sizes))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    if sparse:
        for z in draw(st.sets(st.integers(0, n - 1), min_size=(n + 1) // 2)):
            coeffs[z] = 0
    return LinearFormP(p=p, coeffs=tuple(coeffs)).induced(d)


def cell_products(form):
    """The coefficient of every cell, point by point, mod p."""
    out = []
    for _, coords in form_shape(form).points():
        term = 1
        for i in coords:
            term *= form.base.coeffs[i - 1]
        out.append(term % form.p)
    return out


def binomial_fold(p, values):
    """Value distribution of a uniform subset of cells with these
    coefficients: one Fraction-valued binomial convolution per value."""
    masses = [Fraction(1)] + [Fraction(0)] * (p - 1)
    for value, k in sorted(Counter(v for v in values if v).items()):
        weights = [Fraction(math.comb(k, j), 2 ** k) for j in range(k + 1)]
        masses = [sum(w * masses[(y - j * value) % p]
                      for j, w in enumerate(weights)) for y in range(p)]
    return tuple(masses)


@settings(max_examples=80, deadline=None)
@given(form=induced_forms())
def test_class_masks_match_cell_products(form):
    expected: dict[int, int] = {}
    for idx, c in enumerate(cell_products(form)):
        if c:
            expected[c] = expected.get(c, 0) | 1 << idx
    classes = coefficient_class_masks(form.p, form.base.coeffs, form.degree)
    assert classes == tuple(sorted(expected.items()))
    if form.degree == 1:  # the classes are the base form's coordinate sets
        by_value: dict[int, int] = {}
        for x, a in enumerate(form.base.coeffs):
            if a:
                by_value[a] = by_value.get(a, 0) | 1 << x
        assert classes == tuple(sorted(by_value.items()))


@settings(max_examples=60, deadline=None)
@given(form=induced_forms(ENUMERABLE))
def test_exact_distribution_matches_pointwise_oracle(form):
    assert distribution(form).masses == oracle_masses(form)


@settings(max_examples=80, deadline=None)
@given(form=induced_forms())
def test_exact_distribution_matches_binomial_fold(form):
    table = distribution(form)
    assert table.masses == binomial_fold(form.p, cell_products(form))
    assert table.support_size == len(support(form.base)) ** form.degree


@settings(max_examples=40, deadline=None)
@given(form=induced_forms(ENUMERABLE, sparse=True))
def test_cell_value_report_matches_brute_force(form):
    partition = build_block_partition(form.base, 1)
    assert partition.t >= 1
    shape = form_shape(form)
    acc = [Fraction(0)] * form.p
    for row in range(1, partition.t + 1):
        X = frozenset().union(*partition.rows[row - 1])
        off = [idx for idx, (_, coords) in enumerate(shape.points())
               if not set(coords) <= X]
        for chosen in range(1 << len(off)):
            background = SubsetMask(shape, sum(
                1 << idx for k, idx in enumerate(off) if chosen >> k & 1))
            value = cell_form_value(form, partition, row, background)
            acc[value] += Fraction(1, (1 << len(off)) * partition.t)
    report = cell_value_report(form, partition)
    assert report.cell_masses == tuple(acc)
    assert report.global_masses == oracle_masses(form)
    assert report.gaps == tuple(abs(a - b) for a, b in zip(acc, report.global_masses))
