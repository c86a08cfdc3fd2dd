import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setdifflab import cli, covering
from setdifflab.covering import (
    DEMO_CELL_CAP,
    CoveringCell,
    _canonical_windows,
    demo_average_density,
    guarantee_threshold,
    interval_demo_cells,
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
    family_to_text,
)

from witness_oracles import plant_into_window, proof_chain, window_hits, window_region


def nonempty(small):
    """The pattern family of every nonempty subset of the window shape."""
    return Family(small, range(1, 1 << small.cells))


def brute_moments(shape, m, pattern_family):
    """Oracle: raw enumeration of N(A) over every subset of the universe."""
    total = 1 << shape.cells
    values = [sum(hits) for hits in window_hits(shape, m, pattern_family)]
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


def one_dict_scan(fam, m, pattern_family):
    """The scan as it ran before the densest-cell count moved into
    ``universe``: every (r, U) cell of every window counted in one dict under
    the int r 2^cells + U, the winner the largest (count, -key)."""
    shape = fam.shape
    windows = _canonical_windows(shape, m, pattern_family)
    pf = pattern_family.members
    counters = {}
    maps = [(r << shape.cells, _window_runs(shape, w), ~window_region(shape, w).bits)
            for r, w in enumerate(windows)]
    for b in fam.members:
        for tag, runs, off in maps:
            if _restrict_bits(b, runs) in pf:
                key = tag | b & off
                counters[key] = counters.get(key, 0) + 1
    cell_size = len(pattern_family)
    total_cells = len(windows) * (1 << shape.cells - pattern_family.shape.cells)
    average = Fraction(sum(counters.values()), total_cells * cell_size)
    best_key = max(counters, key=lambda k: (counters[k], -k), default=0)
    r, ubits = best_key >> shape.cells, best_key & shape.full_bits
    cell = CoveringCell(windows[r], SubsetMask(shape, ubits))
    return cell, Fraction(counters.get(best_key, 0), cell_size), average


@st.composite
def scan_cases(draw):
    """(family, m, pattern family) over one or two parts.  Members are random
    or planted into a random window's cell with one of a few backgrounds, so
    counts are small and ties between windows and backgrounds are common."""
    degrees = draw(st.sampled_from([(1,), (2,), (1, 2)]))
    m = draw(st.integers(1, 2))
    shape = UniverseShape(degrees, draw(st.integers(m, 5 if degrees == (1,) else 3)))
    small = UniverseShape(degrees, m)
    pattern = draw(st.sets(st.integers(0, small.full_bits), min_size=1, max_size=4))
    any_bits = st.integers(0, shape.full_bits)
    backgrounds = draw(st.lists(any_bits, min_size=1, max_size=3))
    members = set(draw(st.lists(any_bits, max_size=3)))
    for _ in range(draw(st.integers(0, 10))):
        w = OrderedWindow.interval(draw(st.integers(0, shape.n // m - 1)) * m + 1, m)
        off = ~window_region(shape, w).bits
        planted = _plant_bits(draw(st.sampled_from(sorted(pattern))), _window_runs(shape, w))
        members.add(planted | draw(st.sampled_from(backgrounds)) & off)
    return Family(shape, members), m, Family(small, pattern)


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_scan_matches_one_dict_scan(case):
    assert scan_for_dense_cell(*case) == one_dict_scan(*case)


@pytest.mark.parametrize("degrees, n, m", [((1,), 6, 2), ((1, 2), 3, 1)])
def test_scan_ties_go_to_the_first_window_and_background(degrees, n, m):
    # every cell of the full power set is full, so all of them tie
    shape = UniverseShape(degrees, n)
    cell, best, average = scan_for_dense_cell(
        Family(shape, range(1 << shape.cells)), m, nonempty(UniverseShape(degrees, m)))
    assert (cell.window, cell.background.bits) == (OrderedWindow.interval(1, m), 0)
    assert best == average == 1


def test_scan_without_incidences():
    # no member restricts into the pattern family on any window
    fam = Family(UniverseShape((1, 2), 4), {0, 1 << 19})
    pattern = Family(UniverseShape((1, 2), 2), {1})
    cell, best, average = scan_for_dense_cell(fam, 2, pattern)
    assert (cell.window, cell.background.bits) == (OrderedWindow.interval(1, 2), 0)
    assert best == average == 0
    assert one_dict_scan(fam, 2, pattern) == (cell, best, average)


def test_window_system_validation():
    sh = UniverseShape((1,), 6)
    windows = _canonical_windows(sh, 2, nonempty(UniverseShape((1,), 2)))
    assert len(windows) == 3 and {w.m for w in windows} == {2}
    assert windows[2].elements == (5, 6)
    with pytest.raises(UniverseTooSmallError):
        _canonical_windows(UniverseShape((1,), 3), 4, nonempty(UniverseShape((1,), 4)))


def run_scan_command(tmp_path, capsys, fam, m, pattern_family):
    """Run ``setdiff scan`` on the two families; return its exit code and stderr."""
    paths = []
    for name, family in (("fam.txt", fam), ("pattern.txt", pattern_family)):
        paths.append(tmp_path / name)
        paths[-1].write_text(family_to_text(family))
    code = cli.main(["scan", "--family", str(paths[0]), "--m", str(m),
                     "--pattern-family", str(paths[1])])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("entry", ["scan_for_dense_cell", "setdiff-scan"])
@pytest.mark.parametrize("n,m,pattern_family,error", [
    (4, 2, nonempty(UniverseShape((2,), 2)), ShapeMismatchError),
    (4, 2, nonempty(UniverseShape((1,), 3)), ShapeMismatchError),
    (3, 4, nonempty(UniverseShape((1,), 4)), UniverseTooSmallError),
    (4, 2, Family(UniverseShape((1,), 2), ()), UnsatisfiablePredicateError),
], ids=["degrees", "side", "no-window", "empty"])
def test_every_entry_checks_its_windows(entry, n, m, pattern_family, error,
                                        tmp_path, capsys):
    # the pattern family is nonempty and lives over [m] with the family's
    # degrees, and at least one size-m window fits in [n]; the command
    # reports the scan's refusal as a domain error (exit 4)
    fam = Family(UniverseShape((1,), n), range(1 << n))
    with pytest.raises(error) as refusal:
        scan_for_dense_cell(fam, m, pattern_family)
    if entry == "setdiff-scan":
        code, err = run_scan_command(tmp_path, capsys, fam, m, pattern_family)
        assert code == 4 and str(refusal.value) in err


def test_empty_pattern_family_refusals_keep_their_order():
    fam = Family(UniverseShape((1,), 3), range(8))
    # the scan refuses a shape mismatch before emptiness, emptiness before size
    with pytest.raises(ShapeMismatchError):
        scan_for_dense_cell(fam, 4, Family(UniverseShape((2,), 4), ()))
    with pytest.raises(UnsatisfiablePredicateError, match="has empty cells"):
        scan_for_dense_cell(fam, 4, Family(UniverseShape((1,), 4), ()))


def test_count_hits_worked_example():
    sh = UniverseShape((1,), 4)
    # A = {2, 4} hits the second and fourth of the four size-1 windows
    hits = list(window_hits(sh, 1, nonempty(UniverseShape((1,), 1))))[0b1010]
    assert hits == [False, True, False, True]


def test_exact_moments_worked_example():
    sh = UniverseShape((1,), 4)
    pattern = nonempty(UniverseShape((1,), 1))
    assert pattern.density() == Fraction(1, 2)
    assert brute_moments(sh, 1, pattern) == (2, 1)  # t p(P) and t p(P)(1 - p(P))


def test_variance_bound_flag():
    eps = Fraction(1, 4)
    pattern = nonempty(UniverseShape((1,), 1))
    # at n = 8, t = 8 reaches 1/(eps p(P)), and Var/E^2 = 1/8 <= eps
    e, v = brute_moments(UniverseShape((1,), 8), 1, pattern)
    assert 8 >= 1 / (eps * pattern.density())
    assert v / e**2 == Fraction(1, 8) <= eps
    # below the threshold the implication is vacuous: t = 2 < 8 and
    # Var/E^2 = 1/2 exceeds eps
    e, v = brute_moments(UniverseShape((1,), 2), 1, pattern)
    assert 2 < 1 / (eps * pattern.density())
    assert v / e**2 == Fraction(1, 2) > eps


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
        p = Fraction(len(pattern), 1 << small.cells)
        e, v = brute_moments(sh, m, pattern)
        assert e == t * p
        assert v == t * p * (1 - p)


def test_guarantee_threshold_value():
    assert guarantee_threshold(1, (1,), Fraction(1, 2)) == 16
    assert guarantee_threshold(2, (2,), Fraction(1, 2)) == 2**4 * 8 * 2
    assert guarantee_threshold(1, (1, 2), Fraction(1, 1)) == 4
    for epsilon in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            guarantee_threshold(2, (1,), epsilon)


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
    cell = CoveringCell(OrderedWindow((3, 4)), SubsetMask(sh, 0b0001))
    runs = _window_runs(sh, cell.window)
    off = ~window_region(sh, cell.window).bits
    members = [_plant_bits(f, runs) | cell.background.bits
               for f in sorted(pattern.members)]
    assert members == [0b0101, 0b1101]

    def in_cell(bits):
        return (bits & off == cell.background.bits
                and _restrict_bits(bits, runs) in pattern.members)

    assert all(in_cell(b) for b in members)
    assert in_cell(0b0101)
    assert not in_cell(0b0111)  # background differs
    assert not in_cell(0b1001)  # window part not in pattern


def test_proof_chain_worked_example():
    sh = UniverseShape((1,), 4)
    fam = Family(sh, frozenset(b for b in range(16) if b & 1))
    pattern = Family(UniverseShape((1,), 2), range(4))
    rep = proof_chain(fam, 2, pattern, Fraction(1, 4))
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
            rep = proof_chain(fam, 3, pattern, Fraction(1, 4))
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
        with pytest.raises(CapExceededError):
            verify_framework_conditions(n)


def test_demo_average_density_worked_example():
    assert demo_average_density(3, {0}) == Fraction(1, 8)


def test_demo_average_density_equals_family_density():
    rng = random.Random(31)
    for n in (3, 4, 5):
        for _ in range(6):
            fam = {rng.randrange(1 << n) for _ in range(rng.randrange(1, 1 << n))}
            assert demo_average_density(n, fam) == Fraction(len(fam), 1 << n)


def test_framework_report_demo():
    rep = verify_framework_conditions(3)
    assert rep.omega_size == 8
    assert rep.num_cells == 24
    assert (rep.K, rep.L) == (3, 9)
    assert rep.equal_cell_size and rep.equal_membership
    assert rep.pattern_ok and rep.accounting_ok
    tiny = verify_framework_conditions(1)
    assert (tiny.omega_size, tiny.num_cells, tiny.K, tiny.L) == (2, 2, 1, 1)
    assert tiny.accounting_ok


def test_framework_report_flags_violations(monkeypatch):
    # broken cell lists in place of the demo's: each condition is seen to fail
    def check(n, cells):
        monkeypatch.setattr(covering, "interval_demo_cells", lambda _n: cells)
        return verify_framework_conditions(n)

    rep = check(2, [(0, 1), (2,)])
    assert not rep.equal_cell_size and rep.K is None
    assert rep.accounting_ok is None
    rep2 = check(2, [(0, 1), (0, 2)])  # 0 in two cells, 1 and 2 in one, 3 in none
    assert rep2.equal_cell_size and rep2.K == 2 and rep2.pattern_ok
    assert not rep2.equal_membership and rep2.L is None
    assert rep2.accounting_ok is None
    # a ^ (a ^ 0b0101) = {1, 3}, no cyclic interval of Z_4; sizes and
    # memberships are equal, so only the pattern fails
    rep3 = check(4, [(a, a ^ 0b0101) for a in range(16)])
    assert (rep3.K, rep3.L, rep3.accounting_ok) == (2, 2, True)
    assert rep3.pattern_ok is False


def test_framework_report_counts_distinct_members(monkeypatch):
    # at n = 3 the first demo row lists the empty interval twice, in place
    # of {1}: its cells {C, C ^ 0b011} hold two distinct members and the
    # others three, and each subset lies in 2 + 3 + 3 cells
    rows = covering._demo_rows
    def repeating(n):
        first, *rest = rows(n)
        return (first[:1] * 2 + first[2:], *rest)
    monkeypatch.setattr(covering, "_demo_rows", repeating)
    rep = verify_framework_conditions(3)
    assert rep.num_cells == 24
    assert not rep.equal_cell_size and rep.K is None
    assert rep.equal_membership and rep.L == 8
    assert rep.accounting_ok is None
