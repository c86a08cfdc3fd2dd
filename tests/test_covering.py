import itertools
import random
from fractions import Fraction

import pytest

from setdifflab.covering import (
    DEMO_CELL_CAP,
    CoveringCell,
    _canonical_windows,
    count_hits,
    demo_average_density,
    demo_framework_report,
    exact_moments,
    guarantee_threshold,
    interval_demo_cells,
    proof_chain_report,
    scan_for_dense_cell,
    verify_framework_conditions,
)
from setdifflab.errors import (
    CapExceededError,
    ShapeMismatchError,
    UnsatisfiablePredicateError,
    UniverseTooSmallError,
)
from setdifflab.universe import (
    Family,
    OrderedWindow,
    SubsetMask,
    UniverseShape,
    _plant_bits,
    _restrict_bits,
    _window_runs,
    plant_into_window,
    window_region,
)


def nonempty(small):
    """The pattern family of every nonempty subset of the window shape."""
    return Family(small, range(1, 1 << small.cells))


def brute_moments(shape, m, pattern_family):
    """Oracle: raw enumeration of N(A) over every subset of the universe."""
    total = 1 << shape.cells
    values = [
        count_hits(SubsetMask(shape, b), m, pattern_family) for b in range(total)
    ]
    e = Fraction(sum(values), total)
    e2 = Fraction(sum(v * v for v in values), total)
    return e, e2 - e * e


def brute_scan(fam, m, pattern_family):
    """Oracle: materialize every cell, rank by (density, -r, -U)."""
    shape = fam.shape
    best = None
    hit_sum = 0
    n_cells = 0
    for r in range(shape.n // m):
        w = OrderedWindow.interval(r * m + 1, m)
        region = window_region(shape, w).bits
        off_positions = [i for i in range(shape.cells) if not region >> i & 1]
        for pick in range(1 << len(off_positions)):
            ub = 0
            for j, pos in enumerate(off_positions):
                if pick >> j & 1:
                    ub |= 1 << pos
            members = {
                plant_into_window(f, w, shape).bits | ub
                for f in pattern_family.masks()
            }
            count = sum(1 for mbr in members if mbr in fam.members)
            hit_sum += count
            n_cells += 1
            dens = Fraction(count, len(members))
            key = (dens, -r, -ub)
            if best is None or key > best[0]:
                best = (key, r, ub, dens)
    avg = Fraction(hit_sum, n_cells * len(pattern_family))
    return best[1], best[2], best[3], avg


def test_window_system_validation():
    sh = UniverseShape((1,), 6)
    windows = _canonical_windows(sh, 2, nonempty(UniverseShape((1,), 2)))
    assert len(windows) == 3 and {w.m for w in windows} == {2}
    assert windows[2].elements == (5, 6)
    assert exact_moments(sh, 2, nonempty(UniverseShape((1,), 2))).t == 3
    with pytest.raises(UniverseTooSmallError):
        _canonical_windows(UniverseShape((1,), 3), 4, nonempty(UniverseShape((1,), 4)))


# each public window entry, called on (family, m, pattern family)
ENTRIES = {
    "count_hits": lambda fam, m, pf: count_hits(SubsetMask(fam.shape, 0), m, pf),
    "exact_moments": lambda fam, m, pf: exact_moments(fam.shape, m, pf),
    "scan_for_dense_cell": scan_for_dense_cell,
    "proof_chain_report":
        lambda fam, m, pf: proof_chain_report(fam, m, pf, Fraction(1, 4)),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("n,m,pattern_shape,error", [
    (4, 2, UniverseShape((2,), 2), ShapeMismatchError),
    (4, 2, UniverseShape((1,), 3), ShapeMismatchError),
    (3, 4, UniverseShape((1,), 4), UniverseTooSmallError),
], ids=["degrees", "side", "no-window"])
def test_every_entry_checks_its_windows(entry, n, m, pattern_shape, error):
    # the pattern family lives over [m] with the family's degrees, and at
    # least one size-m window fits in [n]
    fam = Family(UniverseShape((1,), n), range(1 << n))
    with pytest.raises(error):
        ENTRIES[entry](fam, m, nonempty(pattern_shape))


def test_empty_pattern_family_refusals_keep_their_order():
    fam = Family(UniverseShape((1,), 3), range(8))
    empty4 = Family(UniverseShape((1,), 4), ())
    # the scan refuses a shape mismatch before emptiness, emptiness before
    # size; the other entries find no window first
    with pytest.raises(ShapeMismatchError):
        scan_for_dense_cell(fam, 4, Family(UniverseShape((2,), 4), ()))
    with pytest.raises(UnsatisfiablePredicateError, match="has empty cells"):
        scan_for_dense_cell(fam, 4, empty4)
    for entry in ("count_hits", "exact_moments", "proof_chain_report"):
        with pytest.raises(UniverseTooSmallError):
            ENTRIES[entry](fam, 4, empty4)
    # the two audits accept an empty pattern family: nothing is hit
    sh = UniverseShape((1,), 4)
    empty2 = Family(UniverseShape((1,), 2), ())
    assert count_hits(SubsetMask(sh, 0b1111), 2, empty2) == 0
    rep = proof_chain_report(Family(sh, range(16)), 2, empty2, Fraction(1, 4))
    assert rep.expectation == 0 and rep.sum_N == 0 and rep.window_counts == (0, 0)


def test_count_hits_worked_example():
    sh = UniverseShape((1,), 4)
    A = SubsetMask(sh, 0b1010)  # {2, 4}
    assert count_hits(A, 1, nonempty(UniverseShape((1,), 1))) == 2


def test_exact_moments_worked_example():
    sh = UniverseShape((1,), 4)
    pattern = nonempty(UniverseShape((1,), 1))
    rep = exact_moments(sh, 1, pattern)
    assert rep.p_P == Fraction(1, 2)
    assert rep.expectation == 2
    assert rep.variance == 1
    e, v = brute_moments(sh, 1, pattern)
    assert (e, v) == (rep.expectation, rep.variance)


@pytest.mark.parametrize("degrees", [(1,), (2,), (1, 1)])
@pytest.mark.parametrize("m,t", [(1, 2), (1, 3), (2, 2)])
def test_moment_closed_forms_against_enumeration(degrees, m, t):
    n = m * t
    sh = UniverseShape(degrees, n)
    if sh.cells > 16:
        pytest.skip("enumeration oracle budget")
    small = UniverseShape(degrees, m)
    subsets = range(1 << small.cells)
    patterns = [
        nonempty(small),
        Family(small, (b for b in subsets if b & 1 == 1)),
        Family(small, (b for b in subsets if b.bit_count() % 2 == 0)),
        Family(small, subsets),
    ]
    for pattern in patterns:
        rep = exact_moments(sh, m, pattern)
        count = sum(1 for b in subsets if b in pattern.members)
        assert rep.p_P == Fraction(count, 1 << small.cells)
        e, v = brute_moments(sh, m, pattern)
        assert e == rep.expectation == t * rep.p_P
        assert v == rep.variance == t * rep.p_P * (1 - rep.p_P)


def test_variance_bound_flag():
    sh = UniverseShape((1,), 8)
    pattern = nonempty(UniverseShape((1,), 1))
    rep = exact_moments(sh, 1, pattern, epsilon=Fraction(1, 4))
    # t = 8 >= 1/(eps p) = 8 and Var/E^2 = 1/8 <= 1/4
    assert rep.variance / rep.expectation**2 == Fraction(1, 8)
    assert rep.epsilon_bound_ok is True
    rep2 = exact_moments(UniverseShape((1,), 2), 1, Family(UniverseShape((1,), 1), [1]),
                         epsilon=Fraction(1, 4))
    assert rep2.t < 1 / (rep2.epsilon * rep2.p_P)  # below threshold: vacuous
    assert rep2.epsilon_bound_ok is True
    rep3 = exact_moments(sh, 1, pattern)
    assert rep3.epsilon_bound_ok is None


def test_unsatisfiable_predicate():
    with pytest.raises(UnsatisfiablePredicateError):
        exact_moments(UniverseShape((1,), 4), 2, Family(UniverseShape((1,), 2), ()))


def test_guarantee_threshold_value():
    assert guarantee_threshold(1, (1,), Fraction(1, 2)) == 16
    assert guarantee_threshold(2, (2,), Fraction(1, 2)) == 2**4 * 8 * 2
    assert guarantee_threshold(1, (1, 2), Fraction(1, 1)) == 4


def test_guarantee_threshold_cell_cap():
    # the exponent is the cell count of [m]^3: m = 64 reaches the cell cap,
    # and a larger m is refused before 2^(m^3) is formed
    assert guarantee_threshold(64, (3,), Fraction(1)) == (1 << 64**3) * 64
    for m in (65, 2000, 10 ** 9):
        with pytest.raises(CapExceededError):
            guarantee_threshold(m, (3,), Fraction(1, 4))


def test_scan_worked_example():
    sh = UniverseShape((1,), 4)
    fam = Family(sh, frozenset(b for b in range(16) if b & 1))  # contains 1
    assert fam.density() == Fraction(1, 2)
    pattern = Family(UniverseShape((1,), 2), range(4))
    cell, best, avg = scan_for_dense_cell(fam, 2, pattern)
    assert best == 1
    assert avg == Fraction(1, 2)
    assert cell.window.elements == (3, 4)
    assert cell.background.bits == 0b0001  # {1}
    assert len(cell.pattern_family) == 4
    assert all((plant_into_window(f, cell.window, sh).bits | 0b0001) in fam.members
               for f in pattern.masks())


def test_scan_full_family_with_sub_pattern():
    sh = UniverseShape((1,), 4)
    fam = Family(sh, range(1 << sh.cells))
    pattern = Family(UniverseShape((1,), 2), frozenset([0b00, 0b01]))
    cell, best, avg = scan_for_dense_cell(fam, 2, pattern)
    assert best == 1 == avg  # every cell consists of family members only


def test_scan_empty_pattern_family_rejected():
    sh = UniverseShape((1,), 4)
    fam = Family(sh, range(1 << sh.cells))
    with pytest.raises(UnsatisfiablePredicateError):
        scan_for_dense_cell(fam, 2, Family(UniverseShape((1,), 2), frozenset()))


def test_scan_matches_materialization_oracle():
    rng = random.Random(23)
    small2 = UniverseShape((1,), 2)
    patterns = [
        Family(small2, range(4)),
        Family(small2, frozenset([0b00, 0b01])),
        Family(small2, frozenset([0b11])),
    ]
    for n in (4, 6):
        sh = UniverseShape((1,), n)
        for trial in range(12):
            members = frozenset(
                rng.randrange(1 << n) for _ in range(rng.randrange(1, 1 << n))
            )
            fam = Family(sh, members)
            for pattern in patterns:
                cell, best, avg = scan_for_dense_cell(fam, 2, pattern)
                r, ub, dens, oavg = brute_scan(fam, 2, pattern)
                assert best == dens
                assert avg == oavg
                assert cell.window.elements == tuple(range(2 * r + 1, 2 * r + 3))
                assert cell.background.bits == ub
                assert best >= avg  # pigeonhole


def test_scan_cell_membership_protocol():
    # a cell's members are the background with a pattern member planted in the
    # window; the scan tests membership by the off-window bits and the restriction
    sh = UniverseShape((1,), 4)
    pattern = Family(UniverseShape((1,), 2), frozenset([0b01, 0b11]))
    cell = CoveringCell(OrderedWindow((3, 4)), SubsetMask(sh, 0b0001), pattern)
    runs = _window_runs(sh, cell.window)
    off = ~window_region(sh, cell.window).bits
    members = [_plant_bits(f, runs) | cell.background.bits
               for f in sorted(cell.pattern_family.members)]
    assert members == [0b0101, 0b1101]

    def in_cell(bits):
        return (bits & off == cell.background.bits
                and _restrict_bits(bits, runs) in cell.pattern_family.members)

    assert all(in_cell(b) for b in members)
    assert in_cell(0b0101)
    assert not in_cell(0b0111)  # background differs
    assert not in_cell(0b1001)  # window part not in pattern


def test_proof_chain_worked_example():
    sh = UniverseShape((1,), 4)
    fam = Family(sh, frozenset(b for b in range(16) if b & 1))
    pattern = Family(UniverseShape((1,), 2), range(4))
    rep = proof_chain_report(fam, 2, pattern, Fraction(1, 4))
    assert rep.window_counts == (16, 16)
    assert rep.fam_window_counts == (8, 8)
    assert rep.sum_N == 32 and rep.sum_N_fam == 16
    assert rep.double_counting_all_ok and rep.double_counting_fam_ok
    assert rep.monotone_ok and rep.lower_bound_ok


def test_proof_chain_random_instances():
    rng = random.Random(5)
    small3 = UniverseShape((1,), 3)
    patterns = [
        Family(small3, range(8)),
        Family(small3, frozenset([0, 1, 3, 7])),
    ]
    sh = UniverseShape((1,), 6)
    for trial in range(8):
        members = frozenset(
            rng.randrange(64) for _ in range(rng.randrange(8, 64))
        )
        fam = Family(sh, members)
        for pattern in patterns:
            rep = proof_chain_report(fam, 3, pattern, Fraction(1, 4))
            assert rep.double_counting_all_ok
            assert rep.double_counting_fam_ok
            assert rep.monotone_ok
            assert rep.lower_bound_ok
            # two-member consequence of the dense-cell pigeonhole
            cell, best, _ = scan_for_dense_cell(fam, 3, pattern)
            delta = fam.density()
            if len(pattern) > 4 / delta and best >= delta / 2:
                assert best * len(pattern) >= 2


def test_demo_cells_worked_example():
    n = 3
    cells = interval_demo_cells(n)
    assert len(cells) == 24
    # cell (C, y) is entry C n + y - 1
    assert cells[0 * n + 1 - 1] == (0b000, 0b001, 0b011)
    assert cells[0b101 * n + 2 - 1] == (0b101, 0b111, 0b011)
    for c in cells:
        assert len(set(c)) == 3
    # every subset lies in exactly n^2 = 9 labeled cells
    for a in range(8):
        assert sum(1 for c in cells if a in c) == 9


def test_demo_cell_cap():
    # the cap admits n = 13 and nothing larger, without building a cell
    assert 13 << 13 <= DEMO_CELL_CAP < 14 << 14
    for n in (14, 64, 10 ** 9):
        with pytest.raises(CapExceededError):
            interval_demo_cells(n)
        with pytest.raises(CapExceededError):
            demo_average_density(n, ())


def test_demo_average_density_worked_example():
    assert demo_average_density(3, {0}) == Fraction(1, 8)


def test_demo_average_density_equals_family_density():
    rng = random.Random(31)
    for n in (3, 4, 5):
        for _ in range(6):
            fam = {rng.randrange(1 << n) for _ in range(rng.randrange(1, 1 << n))}
            assert demo_average_density(n, fam) == Fraction(len(fam), 1 << n)


def test_framework_report_demo():
    rep = demo_framework_report(3)
    assert rep.omega_size == 8
    assert rep.num_cells == 24
    assert (rep.K, rep.L) == (3, 9)
    assert rep.equal_cell_size and rep.equal_membership
    assert rep.pattern_ok and rep.accounting_ok
    tiny = demo_framework_report(1)
    assert (tiny.omega_size, tiny.num_cells, tiny.K, tiny.L) == (2, 2, 1, 1)
    assert tiny.accounting_ok


def test_framework_report_flags_violations():
    anything = lambda a, b: True
    rep = verify_framework_conditions([[1, 2], [3]], universe=[1, 2, 3],
                                      pattern=anything)
    assert not rep.equal_cell_size and rep.K is None
    rep2 = verify_framework_conditions([[1, 2], [1, 3]], universe=[1, 2, 3],
                                       pattern=anything)
    assert not rep2.equal_membership  # 1 appears twice, 2 and 3 once
    rep3 = verify_framework_conditions(
        [[0b0101, 0b0000]], universe=range(16),
        pattern=lambda a, b: False,
    )
    assert rep3.pattern_ok is False
    rep4 = verify_framework_conditions([[5, 6]], universe=[5],
                                       pattern=anything)  # 6 is stray
    assert not rep4.equal_membership
