"""Increment machinery: distinguishing forms, cell concentration, iteration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab.errors import (
    ContractViolationError,
    ShapeMismatchError,
    UniverseTooSmallError,
)
from setdifflab.fpforms import (
    BlockCell,
    LinearFormP,
    build_block_partition,
    coefficient_class_masks,
    distribution,
    value_counts,
)
from setdifflab.increment import (
    DistinguishingReport,
    _representatives,
    default_m_schedule,
    find_distinguishing_form,
    increment_step,
    iteration_cap,
    quasirandomize,
)
from setdifflab.patterns import PolynomialDifference, find_witness
from setdifflab.universe import Family, SubsetMask, UniverseShape

F = Fraction
LINE6 = UniverseShape(degrees=(1,), n=6)


def halfspace(shape: UniverseShape, element: int = 1) -> Family:
    """All subsets containing one fixed ground-set element (density 1/2)."""
    bit = 1 << shape.index_of(1, (element,))
    return Family(shape, frozenset(
        b for b in range(1 << shape.cells) if b & bit))


def eval_on_bits(form, bits: int) -> int:
    """The form's value on one subset, given as a bitmask over its universe."""
    total = 0
    for value, mask in coefficient_class_masks(form):
        total += value * (bits & mask).bit_count()
    return total % form.p


def member_masses(fam: Family, form) -> tuple[Fraction, ...]:
    """Distribution of the (induced) form over the family's members."""
    counts = value_counts(form.p, coefficient_class_masks(form),
                          zip(fam.members, itertools.repeat(1)))
    return tuple(Fraction(c, len(fam.members)) for c in counts)


def even_family() -> Family:
    """Subsets of [3] of even size; only the all-ones form sees the skew."""
    shape = UniverseShape(degrees=(1,), n=3)
    return Family(shape, frozenset(
        b for b in range(8) if b.bit_count() % 2 == 0))


def no_progress_family() -> Family:
    """Two subsets of [16]^2 that every weight-<=2 form fails to separate.

    A holds two off-diagonal points; B holds the full diagonal plus the rest
    of the strict upper triangle.  Single-coordinate forms read the diagonal
    (A: never, B: always - balanced), two-coordinate forms read a 2x2 grid
    parity that the construction flips between the members, and the all-ones
    form values both members 0.  Neither member is block-constant on any row
    of the all-ones partition, so the concentration scan comes up empty.
    """
    shape = UniverseShape(degrees=(2,), n=16)
    a_pts = [(1, (1, 3)), (1, (5, 7))]
    diag = [(1, (x, x)) for x in range(1, 17)]
    upper = [(1, (x, y)) for x in range(1, 17) for y in range(x + 1, 17)]
    A = SubsetMask.from_points(shape, a_pts)
    B = SubsetMask.from_points(shape, diag + [p for p in upper if p not in a_pts])
    return Family(shape, frozenset({A.bits, B.bits}))


class TestMemberMasses:
    def test_halfspace_is_all_ones_under_e1(self):
        form = LinearFormP(p=2, coeffs=(1, 0, 0, 0, 0, 0)).induced(1)
        assert member_masses(halfspace(LINE6), form) == (0, 1)

    def test_full_power_set_is_balanced(self):
        shape = UniverseShape(degrees=(1,), n=2)
        form = LinearFormP(p=2, coeffs=(1, 0)).induced(1)
        masses = member_masses(Family.full_power_set(shape), form)
        assert masses == (F(1, 2), F(1, 2))

    def test_degree_two_point_mass(self):
        shape = UniverseShape(degrees=(2,), n=2)
        corner = SubsetMask.from_points(shape, [(1, (1, 1))])
        form = LinearFormP(p=2, coeffs=(1, 0)).induced(2)
        assert member_masses(Family(shape, {corner.bits}), form) == (0, 1)


class TestDistinguishingReport:
    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            DistinguishingReport(
                form=LinearFormP(p=2, coeffs=(1,)), y=0, gap=F(-1, 4),
                scope="exhaustive")

    def test_json(self):
        report = DistinguishingReport(
            form=LinearFormP(p=2, coeffs=(1, 0)), y=1, gap=F(1, 4),
            scope="pool")
        assert report.to_json() == {
            "form": {"p": 2, "coeffs": [1, 0]},
            "y": 1,
            "gap": "1/4",
            "scope": "pool",
        }


class TestFindDistinguishingForm:
    def test_halfspace_picks_first_coordinate(self):
        # every nonzero F_2 form is globally balanced, so no gap can exceed
        # 1/2; e_1 attains it first in enumeration order.
        report = find_distinguishing_form(halfspace(LINE6), 2, F(1, 4))
        assert report.form == LinearFormP(p=2, coeffs=(1, 0, 0, 0, 0, 0))
        assert report.y == 0
        assert report.gap == F(1, 2)
        assert report.scope == "exhaustive"

    def test_full_power_set_is_uniform(self):
        fam = Family.full_power_set(UniverseShape(degrees=(1,), n=3))
        assert find_distinguishing_form(fam, 2, F(1, 4)) is None

    def test_singleton_empty_set(self):
        fam = Family(UniverseShape(degrees=(1,), n=2), {0})
        report = find_distinguishing_form(fam, 2, F(1, 4))
        assert report.form == LinearFormP(p=2, coeffs=(1, 0))
        assert (report.y, report.gap) == (0, F(1, 2))

    def test_exhaustive_search_sees_parity(self):
        report = find_distinguishing_form(even_family(), 2, F(1, 4))
        assert report.form == LinearFormP(p=2, coeffs=(1, 1, 1))
        assert report.gap == F(1, 2)

    def test_pool_scope_misses_parity(self):
        # p^n = 8 over budget: only weight-<=2 forms are tried, and the
        # even-size family is balanced under all of them.
        assert find_distinguishing_form(
            even_family(), 2, F(1, 4), search_budget=4) is None

    def test_extra_forms_extend_the_pool(self):
        report = find_distinguishing_form(
            even_family(), 2, F(1, 4), search_budget=4,
            extra_forms=(LinearFormP(p=2, coeffs=(1, 1, 1)),))
        assert report.scope == "pool"
        assert report.form == LinearFormP(p=2, coeffs=(1, 1, 1))
        assert report.gap == F(1, 2)

    def test_threshold_respected(self):
        assert find_distinguishing_form(halfspace(LINE6), 2, F(3, 4)) is None

    def test_mismatched_extra_form_rejected(self):
        with pytest.raises(ShapeMismatchError):
            find_distinguishing_form(
                even_family(), 2, F(1, 4), search_budget=4,
                extra_forms=(LinearFormP(p=2, coeffs=(1,)),))

    def test_multi_part_universe_rejected(self):
        fam = Family.full_power_set(UniverseShape(degrees=(1, 2), n=2))
        with pytest.raises(ShapeMismatchError):
            find_distinguishing_form(fam, 2, F(1, 4))

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            find_distinguishing_form(
                Family(LINE6, frozenset()), 2, F(1, 4))

    def test_exhaustive_winner_is_the_earliest_multiple(self):
        # {Ø, {1}, {1,2}} at p=3: the class {(1,2), (2,1)} has the largest
        # gap, and exhaustive order lists (2,1) at index 5 before the
        # representative (1,2) at index 7; 2x1 + x2 takes 1 where x1 + 2x2
        # takes 2.
        fam = Family(UniverseShape(degrees=(1,), n=2), {0, 1, 3})
        report = find_distinguishing_form(fam, 3, F(1, 8))
        assert report.scope == "exhaustive"
        assert report.form == LinearFormP(p=3, coeffs=(2, 1))
        assert (report.y, report.gap) == (1, F(1, 4))

    def test_pool_winner_is_the_representative(self):
        # the same family in pool scope: the pool lists (1,2) first, and the
        # later extra multiple (2,1) does not displace it
        fam = Family(UniverseShape(degrees=(1,), n=2), {0, 1, 3})
        report = find_distinguishing_form(
            fam, 3, F(1, 8), search_budget=0,
            extra_forms=(LinearFormP(p=3, coeffs=(2, 1)),))
        assert report.scope == "pool"
        assert report.form == LinearFormP(p=3, coeffs=(1, 2))
        assert (report.y, report.gap) == (2, F(1, 4))

    @pytest.mark.parametrize("p, d, members, coeffs, y, gap", [
        # 2 * (1,3) at p=5: 2^2 = 4 moves y = 1 of the representative to 4
        (5, 2, {1}, (2, 1), 4, F(13, 16)),
        # 5 * (1,3) at p=7: 5^3 = 6 moves y = 4 of the representative to 3
        (7, 3, {72, 183}, (5, 1), 3, F(55, 64)),
    ])
    def test_scaled_winner_permutes_residues(self, p, d, members, coeffs, y, gap):
        fam = Family(UniverseShape(degrees=(d,), n=2), members)
        report = find_distinguishing_form(fam, p, F(1, 2))
        assert report.form == LinearFormP(p=p, coeffs=coeffs)
        assert (report.y, report.gap) == (y, gap)
        assert report == fraction_loop_search(fam, p, F(1, 2), p ** 2, ())

    def test_extra_forms_count_as_given(self):
        # {Ø, [3]} at p=3: every weight-<=2 gap is at most 1/2, the all-twos
        # and all-ones forms reach 3/4, and the first one given wins
        fam = Family(UniverseShape(degrees=(1,), n=3), {0, 7})
        twos, ones = LinearFormP(p=3, coeffs=(2, 2, 2)), LinearFormP(p=3, coeffs=(1, 1, 1))
        for extra in ((twos, ones), (ones, twos)):
            report = find_distinguishing_form(
                fam, 3, F(1, 4), search_budget=0, extra_forms=extra)
            assert report.form == extra[0]
            assert (report.y, report.gap) == (0, F(3, 4))

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            find_distinguishing_form(halfspace(LINE6), 4, F(1, 4))

    @pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 3), (7, 2)])
    def test_representatives_cover_each_class_once(self, p, n):
        # every nonzero multiple of the representatives, listed once each,
        # is the whole search space in either scope
        for weight, space in ((n, _vector_forms(p, n)), (2, _pool_forms(p, n))):
            reps = list(_representatives(p, n, weight))
            assert reps[0] == (0,) * n
            multiples = [reps[0]] + [tuple(c * a % p for a in rep)
                                     for rep in reps[1:] for c in range(1, p)]
            assert sorted(multiples) == sorted(f.coeffs for f in space)
            assert all(next(a for a in rep if a) == 1 for rep in reps[1:])


def _vector_forms(p, n):
    """All p^n coefficient vectors, first coordinate fastest."""
    for index in range(p ** n):
        coeffs = []
        rest = index
        for _ in range(n):
            coeffs.append(rest % p)
            rest //= p
        yield LinearFormP(p=p, coeffs=tuple(coeffs))


def _pool_forms(p, n):
    """Weight <= 2 coefficient vectors (the documented default pool)."""
    yield LinearFormP(p=p, coeffs=(0,) * n)
    for z in range(n):
        for a in range(1, p):
            coeffs = [0] * n
            coeffs[z] = a
            yield LinearFormP(p=p, coeffs=tuple(coeffs))
    for z1, z2 in itertools.combinations(range(n), 2):
        for a1 in range(1, p):
            for a2 in range(1, p):
                coeffs = [0] * n
                coeffs[z1], coeffs[z2] = a1, a2
                yield LinearFormP(p=p, coeffs=tuple(coeffs))


def fraction_loop_search(fam, p, eta, search_budget, extra_forms):
    """The form search as first written: every form of the search order
    counted on its own, per-member evaluation counts against the masses of
    its full distribution table."""
    degree, n = fam.shape.degrees[0], fam.shape.n
    if p ** n <= search_budget:
        candidates, scope = _vector_forms(p, n), "exhaustive"
    else:
        candidates, scope = itertools.chain(_pool_forms(p, n), extra_forms), "pool"
    best = None
    for form in candidates:
        induced = form.induced(degree)
        counts = [0] * p
        for bits in fam.members:
            counts[eval_on_bits(induced, bits)] += 1
        global_masses = distribution(induced).masses
        for y in range(p):
            gap = abs(F(counts[y], len(fam)) - global_masses[y])
            if best is None or gap > best.gap:
                best = DistinguishingReport(form=form, y=y, gap=gap, scope=scope)
    return best if best is not None and best.gap >= eta else None


@st.composite
def search_cases(draw):
    """(family, p, eta, budget, extra forms); the budget picks the scope."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3 if p == 7 else 4))  # at most 625 forms
    d = draw(st.sampled_from([1, 2, 3]))
    shape = UniverseShape(degrees=(d,), n=n)
    members = draw(st.sets(st.integers(0, shape.full_bits()), min_size=1, max_size=20))
    coeffs = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    extra = [LinearFormP(p=p, coeffs=tuple(c))
             for c in draw(st.lists(coeffs, max_size=3))]
    budget = p ** n - draw(st.sampled_from([0, 1]))
    eta = draw(st.sampled_from([F(0), F(1, 8), F(1, 4), F(1, 2)]))
    return Family(shape, frozenset(members)), p, eta, budget, extra


@st.composite
def projection_cases(draw):
    """Cases whose members share their projections onto many supports: each
    member is one of a few backgrounds, flipped only on a few noise cells.
    The extra forms share the last pool form's support or repeat a pool
    form, so the search meets a support again right after the pool."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 4 if d == 3 else 6))  # at most 64 cells
    shape = UniverseShape(degrees=(d,), n=n)
    any_bits = st.integers(0, shape.full_bits())
    backgrounds = draw(st.lists(any_bits, min_size=1, max_size=3))
    noise = draw(any_bits) & draw(any_bits) & draw(any_bits)
    members = draw(st.sets(
        st.builds(lambda b, x: b ^ (x & noise), st.sampled_from(backgrounds), any_bits),
        min_size=1, max_size=64))
    pool = list(_pool_forms(p, n))
    last = [z for z, a in enumerate(pool[-1].coeffs) if a]

    def on_last_support(values):
        coeffs = [0] * n
        for z, a in zip(last, values):
            coeffs[z] = a
        return LinearFormP(p=p, coeffs=tuple(coeffs))

    shared = st.lists(st.integers(1, p - 1), min_size=len(last),
                      max_size=len(last)).map(on_last_support)
    extra = draw(st.lists(st.one_of(shared, st.sampled_from(pool)), max_size=4))
    budget = draw(st.sampled_from([0, 243]))  # exhaustive only up to 3^5 forms
    eta = draw(st.sampled_from([F(0), F(1, 8), F(1, 4), F(1, 2)]))
    return Family(shape, frozenset(members)), p, eta, budget, extra


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(search_cases(), projection_cases()))
def test_find_distinguishing_form_matches_fraction_loop(case):
    fam, p, eta, budget, extra = case
    got = find_distinguishing_form(fam, p, eta, search_budget=budget,
                                   extra_forms=extra)
    assert got == fraction_loop_search(fam, p, eta, budget, extra)


class TestIncrementStep:
    def test_halfspace_single_window(self):
        fam = halfspace(LINE6)
        report = find_distinguishing_form(fam, 2, F(1, 4))
        step = increment_step(fam, report, 1)
        # every (row, background) cell holds exactly 2 members; ties resolve
        # to the first row and the smallest background, which is {1}.
        assert step.cell.row == 1
        assert step.cell.background.bits == 1
        assert step.cell.partition.rows[0] == (frozenset({2}),)
        assert step.previous_density == F(1, 2)
        assert step.density == 1
        assert step.guarantee_ratio == F(7, 6)
        assert step.guaranteed
        cell, lifted, density = step
        assert density == 1
        assert lifted == Family.full_power_set(
            UniverseShape(degrees=(1,), n=1))

    def test_halfspace_window_two(self):
        fam = halfspace(LINE6)
        report = find_distinguishing_form(fam, 2, F(1, 4))
        step = increment_step(fam, report, 2)
        assert step.cell.partition.rows == (
            (frozenset({2}), frozenset({3})),
            (frozenset({4}), frozenset({5})),
        )
        assert (step.cell.row, step.cell.background.bits) == (1, 1)
        assert step.density == 1
        assert step.family == Family.full_power_set(
            UniverseShape(degrees=(1,), n=2))

    def test_gap_zero_never_guaranteed(self):
        fam = Family.full_power_set(UniverseShape(degrees=(1,), n=2))
        report = DistinguishingReport(
            form=LinearFormP(p=2, coeffs=(0, 0)), y=0, gap=F(0),
            scope="exhaustive")
        step = increment_step(fam, report, 1)
        assert step.density == step.previous_density == 1
        assert not step.guaranteed

    def test_expect_guarantee_contract(self):
        fam = Family.full_power_set(UniverseShape(degrees=(1,), n=2))
        report = DistinguishingReport(
            form=LinearFormP(p=2, coeffs=(0, 0)), y=0, gap=F(0),
            scope="exhaustive")
        with pytest.raises(ContractViolationError):
            increment_step(fam, report, 1, expect_guarantee=True)

    def test_partition_failure_surfaces(self):
        # all-ones mod 5 on [8] admits no block at window 2
        fam = Family(UniverseShape(degrees=(1,), n=8), {0})
        report = DistinguishingReport(
            form=LinearFormP(p=5, coeffs=(1,) * 8), y=0, gap=F(1, 2),
            scope="exhaustive")
        with pytest.raises(UniverseTooSmallError):
            increment_step(fam, report, 2)

    def test_members_straddling_every_row(self):
        # a member partial on one block of every row lands in no cell; the
        # scan falls back to the first row's empty-background cell.
        shape = UniverseShape(degrees=(2,), n=16)
        member = SubsetMask.from_points(shape, [(1, (1, 1)), (1, (5, 5))])
        fam = Family(shape, {member.bits})
        report = DistinguishingReport(
            form=LinearFormP(p=2, coeffs=(1,) * 16), y=0, gap=F(1, 2),
            scope="pool")
        step = increment_step(fam, report, 2)
        assert (step.cell.row, step.cell.background.bits) == (1, 0)
        assert step.density == 0
        assert len(step.family) == 0
        assert not step.guaranteed

    def test_report_shape_mismatch(self):
        report = DistinguishingReport(
            form=LinearFormP(p=2, coeffs=(1, 0, 0, 0, 0)), y=0, gap=F(1, 2),
            scope="exhaustive")
        with pytest.raises(ShapeMismatchError):
            increment_step(halfspace(LINE6), report, 1)


def two_pass_increment(fam, report, m):
    """The increment scan as first written, with the old BlockCell.lift loop
    inlined over pointwise block products: a first pass counts every
    (row, background) cell a member lies in, a second lifts the densest
    cell's members.  Returns (cell, density, lifted family)."""
    shape = fam.shape
    partition = build_block_partition(report.form, m)
    if partition.t == 0:
        raise UniverseTooSmallError("no rows")
    tables = {}
    for row in range(1, partition.t + 1):
        blocks = [sorted(b) for b in partition.rows[row - 1]]
        tables[row] = [
            sum(1 << shape.index_of(1, cell) for cell in itertools.product(*combo))
            for combo in itertools.product(blocks, repeat=shape.degrees[0])]

    def lift(row, bits):
        """(background, small-universe bits) of the member's cell, or None."""
        region = chosen = covered = 0
        for idx, product in enumerate(tables[row]):
            region |= product
            if product & bits == product:
                chosen |= 1 << idx
                covered |= product
        return (bits & ~region, chosen) if covered == bits & region else None

    counters = {}
    for bits in fam.members:
        for row in tables:
            lifted = lift(row, bits)
            if lifted is not None:
                key = (row, lifted[0])
                counters[key] = counters.get(key, 0) + 1
    if counters:
        row, background = max(counters, key=lambda k: (counters[k], -k[0], -k[1]))
        count = counters[(row, background)]
    else:
        row, background, count = 1, 0, 0
    cell = BlockCell(partition=partition, row=row,
                     background=SubsetMask(shape, background))
    lifts = [lift(row, bits) for bits in fam.members]
    lifted = Family(cell.small_shape(), frozenset(
        small for back, small in filter(None, lifts) if back == background))
    return cell, F(count, len(cell)), lifted


@st.composite
def increment_cases(draw, blocks):
    """(family, report, m).  Without ``blocks``: n <= 4 and at least half the
    coefficients zero, so rows are singletons.  With ``blocks``: every
    coefficient nonzero, so rows hold zero-sum p-blocks that members can cut.
    Members are random or planted into a random cell, then maybe perturbed."""
    m = draw(st.sampled_from([1, 2]))
    if blocks:
        p = draw(st.sampled_from([2, 3]))
        n = draw(st.integers(2 * p * m + 1, 14))
        d = draw(st.sampled_from([1, 2]))
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
    else:
        p = draw(st.sampled_from([2, 3, 5, 7]))
        n = draw(st.integers(1, 4))
        d = draw(st.integers(1, 3))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        for z in draw(st.sets(st.integers(0, n - 1), min_size=(n + 1) // 2)):
            coeffs[z] = 0
    form = LinearFormP(p=p, coeffs=tuple(coeffs))
    shape = UniverseShape(degrees=(d,), n=n)
    partition = build_block_partition(form, m)
    any_bits = st.integers(0, shape.full_bits())
    members = set(draw(st.lists(any_bits, min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 12)) if partition.t else 0):
        row = draw(st.integers(1, partition.t))
        region = BlockCell(partition=partition, row=row,
                           background=SubsetMask.empty(shape)).region_bits()
        cell = BlockCell(partition=partition, row=row, background=SubsetMask(
            shape, draw(st.sampled_from(sorted(members))) & ~region))
        small = draw(st.integers(0, len(cell) - 1))
        bits = cell.plant(SubsetMask(cell.small_shape(), small)).bits
        if draw(st.booleans()):
            bits ^= draw(any_bits) & draw(any_bits)
        members.add(bits)
    report = DistinguishingReport(form=form, y=0, gap=F(1, 2), scope="pool")
    return Family(shape, frozenset(members)), report, m


@pytest.mark.parametrize("blocks", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_increment_step_matches_two_pass_loop(blocks, data):
    fam, report, m = data.draw(increment_cases(blocks))
    try:
        expected = two_pass_increment(fam, report, m)
    except UniverseTooSmallError:
        with pytest.raises(UniverseTooSmallError):
            increment_step(fam, report, m)
        return
    step = increment_step(fam, report, m)
    assert (step.cell, step.density, step.family) == expected


def stepwise_iteration_cap(delta, eta, p) -> int:
    """The cap by one Fraction product per step, the reference."""
    ratio = 1 + F(eta) / (3 * p)
    q, value = 0, F(delta)
    while value < 1:
        value *= ratio
        q += 1
    return q


class TestIterationCap:
    def test_frozen_example(self):
        assert iteration_cap(F(1, 2), F(1, 2), 2) == 9

    def test_exact_boundary(self):
        # ratio 3/2: delta * ratio^q is exactly 1 at q = 2 and at q = 3
        assert iteration_cap(F(4, 9), F(3), 2) == 2
        assert iteration_cap(F(8, 27), F(3), 2) == 3

    def test_tiny_densities(self):
        assert iteration_cap(F(2000, 2 ** 100), F(1, 4), 3) == 2253
        assert iteration_cap(F(1, 2 ** 400), F(1, 4), 5) == 16774

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(1, 1 << 16), b=st.integers(0, 1 << 16),
           eta=st.fractions(min_value=F(1, 16), max_value=4, max_denominator=16),
           p=st.sampled_from([2, 3, 5, 7]))
    def test_matches_stepwise_loop(self, a, b, eta, p):
        delta = F(a, a + b)
        assert iteration_cap(delta, eta, p) == stepwise_iteration_cap(delta, eta, p)

    def test_full_density_needs_no_steps(self):
        assert iteration_cap(F(1), F(1, 2), 2) == 0

    def test_definition_holds(self):
        rng = random.Random(20260823)
        for _ in range(50):
            delta = F(rng.randrange(1, 64), 64)
            eta = F(rng.randrange(1, 16), 16)
            p = rng.choice([2, 3, 5])
            q = iteration_cap(delta, eta, p)
            ratio = 1 + eta / (3 * p)
            assert delta * ratio ** q >= 1
            assert q == 0 or delta * ratio ** (q - 1) < 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            iteration_cap(F(0), F(1, 2), 2)
        with pytest.raises(ValueError):
            iteration_cap(F(3, 2), F(1, 2), 2)
        with pytest.raises(ValueError):
            iteration_cap(F(1, 2), F(0), 2)
        for p in (0, -3):
            with pytest.raises(ValueError):
                iteration_cap(F(1, 2), F(1, 2), p)


class TestDefaultSchedule:
    def test_values(self):
        assert default_m_schedule(6, 2) == 1
        assert default_m_schedule(16, 2) == 2
        assert default_m_schedule(50, 2) == 5
        assert default_m_schedule(1, 2) == 0


class TestQuasirandomize:
    def test_halfspace_one_step_to_pattern(self):
        final, trace, pair = quasirandomize(halfspace(LINE6), 2, F(1, 2))
        assert trace.status == "pattern-found"
        assert trace.iterations == 1
        assert trace.cap == 9
        assert trace.initial_density == F(1, 2)
        assert trace.final_density == 1
        assert final == Family.full_power_set(UniverseShape(degrees=(1,), n=1))
        A, B, witness = pair
        assert (A.bits, B.bits) == (0, 1)
        assert witness.S == frozenset({1})
        report, step = trace.steps[0]
        assert report.form == LinearFormP(p=2, coeffs=(1, 0, 0, 0, 0, 0))
        assert step.guaranteed

    def test_halfspace_explicit_schedule(self):
        final, trace, pair = quasirandomize(
            halfspace(LINE6), 2, F(1, 2), m_schedule=(2,))
        assert trace.status == "pattern-found"
        assert trace.iterations == 1
        assert final == Family.full_power_set(UniverseShape(degrees=(1,), n=2))
        assert pair[0].bits == 0 and pair[1].bits == 1

    def test_full_power_set_already_uniform(self):
        fam = Family.full_power_set(UniverseShape(degrees=(1,), n=2))
        final, trace, pair = quasirandomize(fam, 2, F(1, 2))
        assert trace.status == "uniform"
        assert trace.iterations == 0
        assert trace.cap == 0
        assert final == fam
        assert pair is None

    def test_schedule_runs_out(self):
        # {Ø} halves its universe once, then floor(sqrt(1/2)) = 0 stops it
        fam = Family(UniverseShape(degrees=(1,), n=2), {0})
        final, trace, pair = quasirandomize(fam, 2, F(1, 2))
        assert trace.status == "inconclusive:m-schedule"
        assert trace.iterations == 1
        assert trace.cap == 18
        assert trace.final_density == F(1, 2)
        assert final == Family(UniverseShape(degrees=(1,), n=1), {0})
        assert pair is None
        report, step = trace.steps[0]
        assert report.form == LinearFormP(p=2, coeffs=(1, 0))
        assert step.density == F(1, 2)

    def test_explicit_empty_schedule(self):
        _, trace, _ = quasirandomize(
            halfspace(LINE6), 2, F(1, 2), m_schedule=())
        assert trace.status == "inconclusive:m-schedule"
        assert trace.iterations == 0

    def test_max_steps(self):
        _, trace, _ = quasirandomize(
            halfspace(LINE6), 2, F(1, 2), max_steps=0)
        assert trace.status == "inconclusive:max-steps"
        assert trace.iterations == 0

    def test_partition_too_small(self):
        # only the all-ones form separates {Ø, {1,2}}, and its partition
        # needs more room than [2] has
        fam = Family(UniverseShape(degrees=(1,), n=2), {0, 3})
        final, trace, pair = quasirandomize(fam, 2, F(1, 2))
        assert trace.status == "inconclusive:partition"
        assert trace.iterations == 0
        assert final == fam

    def test_no_progress(self):
        fam = no_progress_family()
        final, trace, pair = quasirandomize(
            fam, 2, F(1, 2), search_budget=1000,
            extra_forms=(LinearFormP(p=2, coeffs=(1,) * 16),))
        assert trace.status == "inconclusive:no-progress"
        assert trace.iterations == 0
        assert final == fam
        assert trace.final_density == trace.initial_density == F(1, 2 ** 255)

    def test_trace_json(self):
        _, trace, _ = quasirandomize(halfspace(LINE6), 2, F(1, 2))
        assert trace.to_json() == {
            "steps": [{
                "n": 6,
                "m": 1,
                "row": 1,
                "blocks": [[2]],
                "background": "10",
                "density_before": "1/2",
                "density_after": "1/1",
                "guarantee_ratio": "7/6",
                "guaranteed": True,
                "report": {
                    "form": {"p": 2, "coeffs": [1, 0, 0, 0, 0, 0]},
                    "y": 0,
                    "gap": "1/2",
                    "scope": "exhaustive",
                },
            }],
            "iterations": 1,
            "cap": 9,
            "status": "pattern-found",
            "initial_density": "1/2",
            "final_density": "1/1",
        }


class TestPlantedPatternConservation:
    """Power pairs survive the cell isomorphism in both directions."""

    def check_cell(self, cell: BlockCell, blocks):
        small_shape = cell.small_shape()
        masks = [SubsetMask(small_shape, b) for b in range(1 << small_shape.cells)]
        spec = PolynomialDifference((cell.degree,))
        for a, b in itertools.product(masks, repeat=2):
            small_w = find_witness(a, b, spec)
            big_w = find_witness(cell.plant(a), cell.plant(b), spec)
            if small_w is None:
                assert big_w is None
            else:
                expected = frozenset().union(
                    *(blocks[j - 1] for j in small_w.S))
                assert big_w is not None and big_w.S == expected

    def test_singleton_blocks_degree_two(self):
        form = LinearFormP(p=2, coeffs=(1, 1, 0, 0, 0, 0))
        partition = build_block_partition(form, 2)
        assert partition.rows == (
            (frozenset({3}), frozenset({4})),
            (frozenset({5}), frozenset({6})),
        )
        shape = UniverseShape(degrees=(2,), n=6)
        for background in (
            SubsetMask.empty(shape),
            SubsetMask.from_points(shape, [(1, (1, 2)), (1, (5, 5))]),
        ):
            cell = BlockCell(partition=partition, row=1, background=background)
            self.check_cell(cell, partition.rows[0])

    def test_paired_blocks_degree_two(self):
        form = LinearFormP(p=2, coeffs=(1,) * 16)
        partition = build_block_partition(form, 2)
        assert partition.rows[0] == (frozenset({1, 2}), frozenset({3, 4}))
        shape = UniverseShape(degrees=(2,), n=16)
        cell = BlockCell(partition=partition, row=1,
                         background=SubsetMask.empty(shape))
        self.check_cell(cell, partition.rows[0])
