"""Window covering and double counting.

A window system is a list of t pairwise-disjoint size-m windows of [n]; a
subset A "hits" window X_r when its restriction-and-relabel into [m] lands in
a chosen pattern family (equivalently, satisfies a predicate).  Everything
here is exact: hit-count moments over the uniform random subset are computed
as rationals via the window-bit decomposition, the dense-cell scan reports
exact relative densities, and the cyclic-shift demo realizes the abstract
covering conditions over Z_2^{Z_n}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, Hashable, Optional, Sequence

from .errors import ShapeMismatchError, UnsatisfiablePredicateError, UniverseTooSmallError, capped_count
from .universe import (
    Family,
    OrderedWindow,
    Record,
    SubsetMask,
    UniverseShape,
    _cell_count,
    _restrict_bits,
    _window_runs,
    cyclic_interval_bits,
    window_region,
)

Predicate = Callable[[SubsetMask], bool]

# the most subsets satisfying_count and proof_chain_report each enumerate
PREDICATE_SUBSET_CAP = 1 << 24
PROOF_CHAIN_SUBSET_CAP = 1 << 20


class WindowSystem(Record):
    shape: UniverseShape
    windows: tuple[OrderedWindow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))
        if not self.windows:
            raise ValueError("need at least one window")
        m = self.windows[0].m
        seen: set[int] = set()
        for w in self.windows:
            if w.m != m:
                raise ValueError("windows must share a common size")
            elems = set(w.elements)
            if elems & seen:
                raise ValueError("windows must be pairwise disjoint")
            if any(x > self.shape.n for x in elems):
                raise ValueError(f"window {w.elements} exceeds n={self.shape.n}")
            seen |= elems

    @property
    def m(self) -> int:
        return self.windows[0].m

    @property
    def t(self) -> int:
        return len(self.windows)

    @property
    def small_shape(self) -> UniverseShape:
        return UniverseShape(self.shape.degrees, self.m)

    @classmethod
    def canonical(cls, shape: UniverseShape, m: int) -> "WindowSystem":
        """The intervals [(r-1)m+1 .. rm] for r = 1..floor(n/m)."""
        t = shape.n // m
        if t < 1:
            raise UniverseTooSmallError(f"no size-{m} window fits in [{shape.n}]")
        return cls(
            shape,
            tuple(OrderedWindow.interval((r - 1) * m + 1, m) for r in range(1, t + 1)),
        )


def count_hits(A: SubsetMask, ws: WindowSystem, pred: Predicate) -> int:
    """N(A): the number of windows whose relabeled restriction satisfies pred."""
    if A.shape != ws.shape:
        raise ShapeMismatchError("mask shape does not match the window system")
    small = ws.small_shape
    return sum(1 for w in ws.windows
               if pred(SubsetMask(small, _restrict_bits(A.bits, _window_runs(A.shape, w)))))


def satisfying_count(small_shape: UniverseShape, pred: Predicate) -> int:
    """|{F in P([m]-shape) : pred(F)}| by full enumeration."""
    subsets = capped_count("the subsets of a predicate enumeration",
                           PREDICATE_SUBSET_CAP, 2, small_shape.cells)
    return sum(1 for b in range(subsets) if pred(SubsetMask(small_shape, b)))


class MomentReport(Record):
    t: int
    p_P: Fraction
    expectation: Fraction
    variance: Fraction
    epsilon: Optional[Fraction]
    epsilon_bound_ok: Optional[bool]


def exact_moments(
    ws: WindowSystem, pred: Predicate, epsilon: Optional[Fraction] = None
) -> MomentReport:
    """Exact E[N] = t p(P) and Var[N] = t p(P)(1 - p(P)) over uniform A.

    The windows occupy disjoint bit blocks, so the t restrictions are
    independent uniform subsets of the [m]-shape and the closed forms are
    identities of exact counting, not approximations.  When epsilon is
    given, the report checks the implication t >= 1/(eps p(P))  =>
    Var <= eps E^2 symbolically (Var/E^2 = (1-p)/(t p)).
    """
    count = satisfying_count(ws.small_shape, pred)
    if count == 0:
        raise UnsatisfiablePredicateError("predicate admits no subset: p(P) = 0")
    p = Fraction(count, 1 << ws.small_shape.cells)
    t = ws.t
    expectation = t * p
    variance = t * p * (1 - p)
    ok = None
    if epsilon is not None:
        epsilon = Fraction(epsilon)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        # implication check, all exact
        ok = t < 1 / (epsilon * p) or variance <= epsilon * expectation**2
    return MomentReport(t, p, expectation, variance, epsilon, ok)


def guarantee_threshold(m: int, degrees: Sequence[int], epsilon: Fraction) -> Fraction:
    """Smallest n (as an exact rational) above which the dense-cell guarantee
    kicks in: 2^(m^{d_1} + ... + m^{d_s}) * eps^-3 * m.

    The exponent is the cell count of the window universe [m], refused
    past CELL_CAP before the power of 2 is formed."""
    if m < 1:
        raise ValueError(f"m must be positive, got m={m}")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    return (1 << _cell_count(m, degrees)) * epsilon**-3 * m


class CoveringCell(Record):
    """The cell C(I_r, U): subsets agreeing with U off the window power region
    whose relabeled window part lies in the pattern family."""

    window: OrderedWindow
    background: SubsetMask
    pattern_family: Family


def scan_for_dense_cell(
    fam: Family, m: int, pattern_family: Family
) -> tuple[CoveringCell, Fraction, Fraction]:
    """Max-density cell over the canonical interval windows.

    Returns (cell, its relative density, the global average density over all
    cells).  All cells share the size |pattern_family|, so the average over
    cells of |fam n C| / |C| equals a ratio of two incidence counts and the
    pigeonhole max >= average is exact.  Ties break to the smallest window
    index, then the smallest background bit value, so member order is free.
    """
    shape = fam.shape
    if pattern_family.shape.degrees != shape.degrees:
        raise ShapeMismatchError("pattern family degrees do not match")
    if pattern_family.shape.n != m:
        raise ShapeMismatchError(f"pattern family side {pattern_family.shape.n} != m={m}")
    if len(pattern_family) == 0:
        raise UnsatisfiablePredicateError("empty pattern family has empty cells")
    ws = WindowSystem.canonical(shape, m)
    pf = pattern_family.members
    counters: dict[tuple[int, int], int] = {}
    maps = [(r, _window_runs(shape, w), ~window_region(shape, w).bits)
            for r, w in enumerate(ws.windows)]
    for b in fam.members:
        for r, runs, off in maps:
            if _restrict_bits(b, runs) in pf:
                key = (r, b & off)
                counters[key] = counters.get(key, 0) + 1
    cell_size = len(pattern_family)
    off_cells = shape.cells - ws.small_shape.cells
    total_cells = ws.t * (1 << off_cells)
    incidences = sum(counters.values())
    average = Fraction(incidences, total_cells * cell_size)
    if counters:
        best_key = max(counters, key=lambda k: (counters[k], -k[0], -k[1]))
        # max count first; among equals prefer smaller r then smaller U
        best_count = counters[best_key]
    else:
        best_key, best_count = (0, 0), 0
    r, ubits = best_key
    cell = CoveringCell(ws.windows[r], SubsetMask(shape, ubits), pattern_family)
    return cell, Fraction(best_count, cell_size), average


class ProofChainReport(Record):
    """Exact accounting behind the dense-cell guarantee, over all subsets."""

    epsilon: Fraction
    density: Fraction
    expectation: Fraction
    sum_N: int                      # sum over all A of N(A)
    sum_N_fam: int                  # restricted to family members
    sum_N_fam_high: int             # family members with N >= (1-eps) E[N]
    high_fam_count: int
    window_counts: tuple[int, ...]      # |D(I_r)| by direct count
    fam_window_counts: tuple[int, ...]  # |fam n D(I_r)|
    double_counting_all_ok: bool
    double_counting_fam_ok: bool
    monotone_ok: bool
    high_fraction_antecedent: bool  # family covers a (delta-eps) fraction of high-N sets
    lower_bound_ok: bool            # (delta-eps)(1-eps) bound, vacuous when antecedent fails


def proof_chain_report(
    fam: Family, m: int, pattern_family: Family, epsilon: Fraction
) -> ProofChainReport:
    """Enumerate every subset of the universe and audit the covering proof."""
    shape = fam.shape
    epsilon = Fraction(epsilon)
    total = capped_count("the subsets of a full enumeration",
                         PROOF_CHAIN_SUBSET_CAP, 2, shape.cells)
    ws = WindowSystem.canonical(shape, m)
    pf = pattern_family.members
    runs = [_window_runs(shape, w) for w in ws.windows]
    p = Fraction(len(pattern_family), 1 << ws.small_shape.cells)
    expectation = ws.t * p
    threshold = (1 - epsilon) * expectation
    sum_N = sum_N_fam = sum_N_fam_high = high_fam_count = 0
    window_counts = [0] * ws.t
    fam_window_counts = [0] * ws.t
    for b in range(total):
        hits = [_restrict_bits(b, rt) in pf for rt in runs]
        N = sum(hits)
        sum_N += N
        for r, h in enumerate(hits):
            if h:
                window_counts[r] += 1
        if b in fam.members:
            sum_N_fam += N
            for r, h in enumerate(hits):
                if h:
                    fam_window_counts[r] += 1
            if N >= threshold:
                sum_N_fam_high += N
                high_fam_count += 1
    delta = fam.density()
    antecedent = high_fam_count >= (delta - epsilon) * total
    lower = (delta - epsilon) * (1 - epsilon) * sum_N
    return ProofChainReport(
        epsilon=epsilon,
        density=delta,
        expectation=expectation,
        sum_N=sum_N,
        sum_N_fam=sum_N_fam,
        sum_N_fam_high=sum_N_fam_high,
        high_fam_count=high_fam_count,
        window_counts=tuple(window_counts),
        fam_window_counts=tuple(fam_window_counts),
        double_counting_all_ok=sum_N == sum(window_counts),
        double_counting_fam_ok=sum_N_fam == sum(fam_window_counts),
        monotone_ok=sum_N_fam >= sum_N_fam_high,
        high_fraction_antecedent=antecedent,
        lower_bound_ok=(not antecedent) or sum_N_fam_high >= lower,
    )


# ---------------------------------------------------------------------------
# cyclic-shift demo over Z_2^{Z_n}
#
# Cells are labeled by (base C, anchor y); the members are C + 1_{I} over the
# n cyclic intervals I starting at y of length 0..n-1 (addition is XOR).
# Distinct labels can carry equal member collections; the accounting counts
# labels, which is what makes |Omega| L = |W| K come out exactly.


DEMO_CELL_CAP = 1 << 17  # the most cells (n 2^n) the demo builds: n <= 13


@lru_cache(maxsize=16)
def _demo_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row y-1: the cyclic intervals starting at y of lengths 0..n-1.

    Refused first when the demo's n 2^n cells exceed DEMO_CELL_CAP.
    """
    if n < 1:
        raise ValueError("n must be positive")
    capped_count(f"the cells of the demo at n={n}", DEMO_CELL_CAP, 2, n, factor=n)
    return tuple(tuple(cyclic_interval_bits(n, y, length) for length in range(n))
                 for y in range(1, n + 1))


@lru_cache(maxsize=16)
def _cyclic_intervals(n: int) -> frozenset[int]:
    """Every nonempty cyclic interval of Z_n, the full set included."""
    return frozenset(i for row in _demo_rows(n) for i in row if i) | {(1 << n) - 1}


def interval_demo_cells(n: int) -> list[tuple[int, ...]]:
    """The members of all n 2^n labeled cells, bases ascending then anchors
    ascending: cell (C, y) is entry C n + y - 1."""
    rows = _demo_rows(n)  # refuses an n past the cap before 2^n is formed
    return [tuple(base ^ i for i in row) for base in range(1 << n) for row in rows]


def demo_average_density(n: int, fam_bits: Collection[int]) -> Fraction:
    """Average over labeled cells of |fam n C| / |C|, as an exact rational."""
    intervals = [i for row in _demo_rows(n) for i in row]
    fam = frozenset(fam_bits)
    hits = sum(base ^ i in fam for base in range(1 << n) for i in intervals)
    return Fraction(hits, (n << n) * n)


class FrameworkReport(Record):
    omega_size: int
    num_cells: int
    K: Optional[int]            # common cell size, None if not uniform
    L: Optional[int]            # common membership count, None if not uniform
    equal_cell_size: bool
    equal_membership: bool
    pattern_ok: Optional[bool]  # None when no pattern predicate was supplied
    accounting_ok: Optional[bool]  # |Omega| L == |W| K


def verify_framework_conditions(
    cells: Sequence,
    universe: Collection[Hashable],
    pattern: Optional[Callable[[Hashable, Hashable], bool]] = None,
) -> FrameworkReport:
    """Check the finite covering conditions on an explicit cell list.

    (i) every ordered pair of distinct members within a cell satisfies the
    pattern, (ii) cells share a common size K, (iii) every universe element
    lies in a common number L of cells, and the label accounting
    |Omega| L = |W| K.  Each cell is a collection of its members.
    """
    member_lists = [tuple(c) for c in cells]
    if not member_lists:
        raise ValueError("need at least one cell")
    sizes = {len(ms) for ms in member_lists}
    equal_size = len(sizes) == 1
    K = sizes.pop() if equal_size else None
    counts = {u: 0 for u in universe}
    stray = False
    for ms in member_lists:
        for mbr in ms:
            if mbr in counts:
                counts[mbr] += 1
            else:
                stray = True
    membership_values = set(counts.values())
    equal_membership = len(membership_values) == 1 and not stray
    L = membership_values.pop() if equal_membership else None
    pattern_ok = None
    if pattern is not None:
        pattern_ok = all(
            pattern(a, b)
            for ms in member_lists
            for a in ms
            for b in ms
            if a != b
        )
    accounting = None
    if equal_size and equal_membership:
        accounting = len(counts) * L == len(member_lists) * K
    return FrameworkReport(
        omega_size=len(counts),
        num_cells=len(member_lists),
        K=K,
        L=L,
        equal_cell_size=equal_size,
        equal_membership=equal_membership,
        pattern_ok=pattern_ok,
        accounting_ok=accounting,
    )


def demo_framework_report(n: int) -> FrameworkReport:
    """The cyclic-shift demo run through the generic condition checker.

    The pattern holds when a ^ b is one nonempty cyclic interval of Z_n,
    read as one lookup among the intervals.
    """
    intervals = _cyclic_intervals(n)
    return verify_framework_conditions(
        interval_demo_cells(n),
        range(1 << n),
        pattern=lambda a, b: a ^ b in intervals,
    )
