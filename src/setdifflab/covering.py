"""Window covering and double counting.

The canonical window system of size m is the t = floor(n/m) pairwise-disjoint
intervals [(r-1)m+1 .. rm] of [n]; a subset A "hits" window r when its
restriction-and-relabel into [m] lands in a pattern family over [m].  The
dense-cell scan takes m and the pattern family, as ``scan`` does, and hands
each window's hitting members to ``universe._densest_cell``, as the increment
step hands its rows.  Everything is exact: the scan's relative densities, its
average (double counting makes it one ratio of incidence counts), and the
cyclic-shift demo of the abstract covering conditions over Z_2^{Z_n}.  The
tests check the hit-count moments E[N] = t p(P), Var[N] = t p(P)(1-p(P)) and
the proof chain behind the scan's guarantee from raw enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Optional, Sequence

from .errors import ShapeMismatchError, UnsatisfiablePredicateError, UniverseTooSmallError, capped_count
from .universe import (
    Family,
    OrderedWindow,
    Record,
    SubsetMask,
    UniverseShape,
    _cell_count,
    _densest_cell,
    _plant_bits,
    _restrict_bits,
    _window_runs,
)


def _canonical_windows(
    shape: UniverseShape, m: int, pattern_family: Family
) -> tuple[OrderedWindow, ...]:
    """The intervals [(r-1)m+1 .. rm] for r = 1..floor(n/m), once the pattern
    family is checked to live over [m] with the shape's degrees and to be
    nonempty (an empty one leaves every cell empty)."""
    if pattern_family.shape.degrees != shape.degrees:
        raise ShapeMismatchError("pattern family degrees do not match")
    if pattern_family.shape.n != m:
        raise ShapeMismatchError(f"pattern family side {pattern_family.shape.n} != m={m}")
    if not pattern_family.members:
        raise UnsatisfiablePredicateError("empty pattern family has empty cells")
    t = shape.n // m
    if t < 1:
        raise UniverseTooSmallError(f"no size-{m} window fits in [{shape.n}]")
    return tuple(OrderedWindow.interval((r - 1) * m + 1, m) for r in range(1, t + 1))


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
    windows = _canonical_windows(shape, m, pattern_family)
    pf = pattern_family.members
    def hits(window: OrderedWindow):  # a row: the members in its cells, the mask off them
        runs = _window_runs(shape, window)
        return ((b for b in fam.members if _restrict_bits(b, runs) in pf),
                ~_plant_bits(-1, runs))

    r, background, count, incidences = _densest_cell(map(hits, windows))
    size = len(pattern_family)
    average = Fraction(incidences, len(windows) * size << shape.cells - pattern_family.shape.cells)
    cell = CoveringCell(windows[r], SubsetMask(shape, background))
    return cell, Fraction(count, size), average


# ---------------------------------------------------------------------------
# cyclic-shift demo over Z_2^{Z_n}
#
# Cells are labeled by (base C, anchor y); the members are C + 1_{I} over the
# n cyclic intervals I starting at y of length 0..n-1 (addition is XOR).
# Distinct labels can carry equal member collections; the accounting counts
# labels, which is what makes |Omega| L = |W| K come out exactly.


DEMO_CELL_CAP = 1 << 17  # the most cells (n 2^n) the demo builds: n <= 13


def _demo_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row y-1: the cyclic intervals starting at y of lengths 0..n-1, each a
    run of ones shifted to start at bit y-1, its bits past n wrapped round.

    Refused first when the demo's n 2^n cells exceed DEMO_CELL_CAP.
    """
    if n < 1:
        raise ValueError("n must be positive")
    capped_count(f"the cells of the demo at n={n}", DEMO_CELL_CAP, 2, n, factor=n)
    full = (1 << n) - 1
    return tuple(tuple((run | run >> n) & full
                       for run in (((1 << length) - 1) << (y - 1) for length in range(n)))
                 for y in range(1, n + 1))


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
    pattern_ok: bool
    accounting_ok: Optional[bool]  # |Omega| L == |W| K


def verify_framework_conditions(n: int) -> FrameworkReport:
    """Check the finite covering conditions on the demo's labeled cells.

    (i) every ordered pair of distinct members within a cell differs by one
    nonempty cyclic interval of Z_n, (ii) cells share a common size K,
    (iii) every subset of [n] lies in a common number L of cells, and the
    label accounting |Omega| L = |W| K.  A member is a base XOR an interval,
    both subsets of [n], so every member lies in Omega.
    """
    cells = interval_demo_cells(n)
    intervals = _cyclic_intervals(n)
    sizes = {len(c) for c in cells}
    equal_size = len(sizes) == 1
    K = sizes.pop() if equal_size else None
    counts = [0] * (1 << n)
    for c in cells:
        for mbr in c:
            counts[mbr] += 1
    membership_values = set(counts)
    equal_membership = len(membership_values) == 1
    L = membership_values.pop() if equal_membership else None
    pattern_ok = all(a ^ b in intervals for c in cells for a in c for b in c if a != b)
    accounting = None
    if equal_size and equal_membership:
        accounting = len(counts) * L == len(cells) * K
    return FrameworkReport(
        omega_size=len(counts),
        num_cells=len(cells),
        K=K,
        L=L,
        equal_cell_size=equal_size,
        equal_membership=equal_membership,
        pattern_ok=pattern_ok,
        accounting_ok=accounting,
    )
