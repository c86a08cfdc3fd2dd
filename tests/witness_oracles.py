"""Certificates and audits no subcommand reaches, and an independent checker.

The paper's relative versions (its abstract, category (ii)) differ by
planted members of a template family inside interval windows, or by one
cyclic interval of Z_n.  Their specs, certificates and extractors live here
until a command needs them, beside ``verify_witness``, which re-checks any
certificate from its definition, and the window, power, point and symmetry
maps it and the tests read.
``find_witness`` decides one ordered pair under a power or clique spec
through the package's own key test, the one ``find_pattern_pair`` runs.
``window_hits`` and ``proof_chain`` count the covering technique's windows
over every subset of a universe.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Optional, Union

from setdifflab.errors import ShapeMismatchError
from setdifflab.patterns import (
    CliqueWitness,
    Distance2Witness,
    PatternSpec,
    PowerWitness,
    _power_bits,
    _same_shape,
    _witness_set,
    pattern_index,
    set_from_bits,
)
from setdifflab.universe import (
    Family,
    OrderedWindow,
    Record,
    SubsetMask,
    UniverseShape,
    _plant_bits,
    _restrict_bits,
    _window_runs,
)

SAME_WINDOW = "same-window"
DISJOINT_WINDOWS = "disjoint-windows"
NESTED = "nested"
_MODES = (SAME_WINDOW, DISJOINT_WINDOWS, NESTED)


# ---------------------------------------------------------------------------
# template-family and cyclic-interval specs


class FamilyDifference(Record):
    family: Family
    mode: str = SAME_WINDOW

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


class IntervalModN(Record):
    pass


Spec = Union[PatternSpec, FamilyDifference, IntervalModN]


class FamilyWitness(Record):
    """Certificate (windows, U, F_1, F_2) for a template-family difference.

    F1/F2 are the planted sets inside the window power region of the big
    universe; F1_member/F2_member are their relabelings, i.e. the template
    members they come from.  In nested mode F2 is strictly inside F1 (so the
    certified ordered pair has B inside A).
    """

    mode: str
    windows: tuple[OrderedWindow, ...]
    U: SubsetMask
    F1: SubsetMask
    F2: SubsetMask
    F1_member: SubsetMask
    F2_member: SubsetMask

    def to_json(self) -> dict:
        return {
            "kind": "family-difference",
            "mode": self.mode,
            "windows": [list(w.elements) for w in self.windows],
            "U": self.U.to_hex(),
            "F1": self.F1.to_hex(),
            "F2": self.F2.to_hex(),
            "F1_member": self.F1_member.to_hex(),
            "F2_member": self.F2_member.to_hex(),
        }


class IntervalWitness(Record):
    start: int
    length: int

    def to_json(self) -> dict:
        return {"kind": "interval-mod-n", "start": self.start, "length": self.length}


Witness = Union[
    PowerWitness, Distance2Witness, FamilyWitness, IntervalWitness, CliqueWitness
]


# ---------------------------------------------------------------------------
# maps the checker reads


def from_points(shape: UniverseShape, points) -> SubsetMask:
    """The mask of the listed (part, coords) points."""
    bits = 0
    for part, coords in points:
        bits |= 1 << shape.index_of(part, coords)
    return SubsetMask(shape, bits)


def points_of(mask: SubsetMask) -> list:
    """The (part, coords) points of the mask's cells, in cell order."""
    cells = list(mask.shape.points())
    return [cells[i] for i in mask.indices()]


def is_interval(window: OrderedWindow) -> bool:
    e = window.elements
    return all(e[i + 1] == e[i] + 1 for i in range(len(e) - 1))


def restrict_and_relabel(mask: SubsetMask, window: OrderedWindow) -> SubsetMask:
    """Keep points with all coordinates in the window, relabel into [m]:
    the k-th window element (under the window's ordering) becomes label k."""
    small = UniverseShape(mask.shape.degrees, window.m)
    return SubsetMask(small, _restrict_bits(mask.bits, _window_runs(mask.shape, window)))


def plant_into_window(
    small_mask: SubsetMask, window: OrderedWindow, shape: UniverseShape
) -> SubsetMask:
    """Right inverse of ``restrict_and_relabel``: place an [m]-shape subset
    into the window power region of the big universe (all other cells empty)."""
    if window.m != small_mask.shape.n or small_mask.shape.degrees != shape.degrees:
        raise ShapeMismatchError("small mask does not match window size / degrees")
    return SubsetMask(shape, _plant_bits(small_mask.bits, _window_runs(shape, window)))


def window_region(shape: UniverseShape, window: OrderedWindow) -> SubsetMask:
    """The region X^{d_1} u ... u X^{d_s} as a mask over the big shape."""
    return SubsetMask(shape, _plant_bits(-1, _window_runs(shape, window)))


def cyclic_interval_bits(n: int, start: int, length: int) -> int:
    """Bits of {start, start+1, ..., start+length-1} mod n, elements 1..n,
    walked one element at a time."""
    if not 1 <= start <= n:
        raise ValueError(f"start {start} not in 1..{n}")
    if not 0 <= length <= n:
        raise ValueError(f"length {length} not in 0..{n}")
    bits = 0
    z = start
    for _ in range(length):
        bits |= 1 << (z - 1)
        z = z % n + 1
    return bits


def ref_is_symmetric(A: SubsetMask) -> bool:
    """Invariance under every coordinate permutation, point by point."""
    for part, coords in points_of(A):
        for perm in itertools.permutations(coords):
            if not A.bits >> A.shape.index_of(part, perm) & 1:
                return False
    return True


def ref_symmetric_region(d: int, n: int) -> SubsetMask:
    """The sorted-coordinate points x_1 <= ... <= x_d of [n]^d."""
    pts = [(1, coords) for coords in
           itertools.combinations_with_replacement(range(1, n + 1), d)]
    return from_points(UniverseShape((d,), n), pts)


def union_of_powers(shape: UniverseShape, S) -> SubsetMask:
    """S^{d_1} u ... u S^{d_s} as a mask."""
    elems = sorted(S)
    if any(not 1 <= x <= shape.n for x in elems):
        raise ValueError(f"S {elems} not inside [{shape.n}]")
    return SubsetMask(shape, _power_bits(shape, sum(1 << (x - 1) for x in elems)))


def hyperedges_of(mask: SubsetMask) -> tuple[frozenset[frozenset[int]], ...]:
    """Per part: the d_j-subsets read off strictly increasing points."""
    shape = mask.shape
    out: list[set[frozenset[int]]] = [set() for _ in range(shape.s)]
    for part, coords in points_of(mask):
        if all(coords[i] < coords[i + 1] for i in range(len(coords) - 1)):
            out[part - 1].add(frozenset(coords))
    return tuple(frozenset(e) for e in out)


def bundle_mask(bundle) -> SubsetMask:
    """The inverse of ``hyperedges_of``: one strictly increasing point per
    hyperedge of each part."""
    return from_points(bundle.shape(), [(j, tuple(sorted(edge)))
                                        for j, part in enumerate(bundle.parts, start=1)
                                        for edge in part])


# ---------------------------------------------------------------------------
# template-family and cyclic-interval extractors


def family_difference_witness(
    A: SubsetMask, B: SubsetMask, template: Family, mode: str = SAME_WINDOW
) -> Optional[FamilyWitness]:
    """Witness that A and B differ by planted template members.

    same-window: one interval I, A \\ U and B \\ U are planted members F_1,
    F_2 inside I.  disjoint-windows: F_1 sits in I_1, F_2 in I_2 with I_1,
    I_2 disjoint (then A sym-diff B = F_1 u F_2).  nested: same window and
    F_2 strictly inside F_1 (then A sym-diff B = F_1 \\ F_2).

    Scan order: interval starts ascending (ordered pairs of starts for the
    disjoint mode), then template members ascending; first hit wins.
    """
    shape = _same_shape(A, B)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if template.shape.degrees != shape.degrees:
        raise ShapeMismatchError("template degrees do not match the pair's shape")
    m = template.shape.n
    n = shape.n
    if m > n:
        raise ValueError(f"template side m={m} exceeds n={n}")
    a, b, small = A.bits, B.bits, template.shape
    if a == b:
        return None
    windows = [OrderedWindow.interval(start, m) for start in range(1, n - m + 2)]
    members = sorted(template.members)
    planted = [[(f, _plant_bits(f, _window_runs(shape, I))) for f in members]
               for I in windows]
    starts = range(len(windows))
    if mode == DISJOINT_WINDOWS:
        pairs = [(i, j) for i in starts for j in starts if abs(i - j) >= m]
    else:
        pairs = [(i, i) for i in starts]
    for i, j in pairs:
        for f1, F1 in planted[i]:
            if F1 & ~a:
                continue
            rest = a & ~F1
            for f2, F2 in planted[j]:
                if F1 == F2 or F2 & ~b or rest != b & ~F2:
                    continue
                if mode == NESTED and F2 & ~F1:
                    continue
                return FamilyWitness(
                    mode, (windows[i],) if i == j else (windows[i], windows[j]),
                    SubsetMask(shape, rest), SubsetMask(shape, F1), SubsetMask(shape, F2),
                    SubsetMask(small, f1), SubsetMask(small, f2))
    return None


def interval_mod_n_witness(
    a_bits: int, b_bits: int, n: int
) -> Optional[IntervalWitness]:
    """(start, length) if the symmetric difference is one cyclic interval.

    The full set is an interval from any start; ties break to start 1.  A
    difference with bits at or above n is no interval of Z_n.
    """
    diff = a_bits ^ b_bits
    full = (1 << n) - 1
    if diff == 0 or diff & ~full:
        return None
    if diff == full:
        return IntervalWitness(1, n)
    # z starts a run when z is in diff and z - 1 (mod n) is not
    starts = diff & ~((diff << 1 | diff >> (n - 1)) & full)
    if starts & (starts - 1):
        return None  # more than one run
    return IntervalWitness(starts.bit_length(), diff.bit_count())


# ---------------------------------------------------------------------------
# one pair under a power or clique spec, and the checker


def find_witness(A: SubsetMask, B: SubsetMask, spec: PatternSpec) -> Optional[Witness]:
    """The witness of the ordered pair (A, B) under a power or clique spec."""
    shape = _same_shape(A, B)
    index = pattern_index(shape, spec)
    mask, _, witness = index
    s = _witness_set(shape, index, A.bits & mask, B.bits & mask)
    return witness(set_from_bits(s)) if s else None


def verify_witness(
    A: SubsetMask, B: SubsetMask, spec: Spec, w: Witness
) -> bool:
    """Independent certificate check: recompute the claimed difference."""
    shape = _same_shape(A, B)
    if isinstance(w, PowerWitness):
        return (
            bool(w.S)
            and not A.bits & ~B.bits
            and A.bits != B.bits
            and B.bits & ~A.bits == union_of_powers(shape, w.S).bits
        )
    if isinstance(w, Distance2Witness):
        return (
            A.bits != B.bits
            and not w.U.bits & ~(A.bits & B.bits)
            and A.bits & ~w.U.bits == union_of_powers(shape, w.S1).bits
            and B.bits & ~w.U.bits == union_of_powers(shape, w.S2).bits
        )
    if isinstance(w, FamilyWitness):
        if not isinstance(spec, FamilyDifference):
            return False
        regions = [window_region(shape, I) for I in w.windows]
        if w.mode in (SAME_WINDOW, NESTED):
            if len(w.windows) != 1 or not is_interval(w.windows[0]):
                return False
            r1 = r2 = regions[0]
        else:
            if (
                len(w.windows) != 2
                or not all(is_interval(I) for I in w.windows)
                or set(w.windows[0].elements) & set(w.windows[1].elements)
            ):
                return False
            r1, r2 = regions
        ok = (
            not w.U.bits & ~(A.bits & B.bits)
            and A.bits & ~w.U.bits == w.F1.bits
            and B.bits & ~w.U.bits == w.F2.bits
            and not w.F1.bits & ~r1.bits
            and not w.F2.bits & ~r2.bits
            and restrict_and_relabel(w.F1, w.windows[0]) in spec.family.masks()
            and restrict_and_relabel(w.F2, w.windows[-1]) in spec.family.masks()
            and w.F1.bits != w.F2.bits
        )
        if w.mode == NESTED:
            ok = ok and not w.F2.bits & ~w.F1.bits
        return ok
    if isinstance(w, IntervalWitness):
        return (
            w.length >= 1
            and (A.bits ^ B.bits) == cyclic_interval_bits(shape.n, w.start, w.length)
        )
    if isinstance(w, CliqueWitness):
        H = hyperedges_of(A)
        G = hyperedges_of(B)
        if not w.S:
            return False
        for j in range(shape.s):
            d = shape.degrees[j]
            want = {frozenset(c) for c in itertools.combinations(sorted(w.S), d)}
            if not H[j] <= G[j] or G[j] - H[j] != want:
                return False
        return True
    raise TypeError(f"unknown witness {w!r}")


# ---------------------------------------------------------------------------
# the covering technique over every subset


def window_hits(shape: UniverseShape, m: int, pattern_family: Family):
    """For each subset A of the universe, ascending, one flag per canonical
    window [(r-1)m+1 .. rm]: whether the relabeled restriction of A lies in
    the pattern family.  N(A) is the number of flags set."""
    runs = [_window_runs(shape, OrderedWindow.interval(r * m + 1, m))
            for r in range(shape.n // m)]
    for bits in range(1 << shape.cells):
        yield [_restrict_bits(bits, rt) in pattern_family.members for rt in runs]


def proof_chain(fam: Family, m: int, pattern_family: Family, epsilon) -> SimpleNamespace:
    """The accounting behind the dense-cell guarantee, over every subset A:
    |D(I_r)| and |fam n D(I_r)| per window, the sums of N(A) over all A and
    over the members, and the four checks of the proof chain (the lower
    bound is vacuous unless the members with N(A) >= (1 - eps) E[N] make up
    a (delta - eps) share of all subsets)."""
    total = 1 << fam.shape.cells
    threshold = (1 - epsilon) * (fam.shape.n // m) * pattern_family.density()
    sum_N = sum_N_fam = sum_N_fam_high = high_fam_count = 0
    window_counts = fam_window_counts = [0] * (fam.shape.n // m)
    for bits, hits in enumerate(window_hits(fam.shape, m, pattern_family)):
        N = sum(hits)
        sum_N += N
        window_counts = [c + h for c, h in zip(window_counts, hits)]
        if bits in fam.members:
            sum_N_fam += N
            fam_window_counts = [c + h for c, h in zip(fam_window_counts, hits)]
            if N >= threshold:
                sum_N_fam_high += N
                high_fam_count += 1
    delta = fam.density()
    antecedent = high_fam_count >= (delta - epsilon) * total
    return SimpleNamespace(
        sum_N=sum_N, sum_N_fam=sum_N_fam,
        window_counts=tuple(window_counts), fam_window_counts=tuple(fam_window_counts),
        double_counting_all_ok=sum_N == sum(window_counts),
        double_counting_fam_ok=sum_N_fam == sum(fam_window_counts),
        monotone_ok=sum_N_fam >= sum_N_fam_high,
        lower_bound_ok=not antecedent
        or sum_N_fam_high >= (delta - epsilon) * (1 - epsilon) * sum_N)
