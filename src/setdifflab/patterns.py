"""Difference-pattern witnesses.

A pattern says how two distinct subsets A, B of a coordinate-power universe
may differ: by a union of powers S^{d_1} u ... u S^{d_s} of a common S, by
planted members of a small template family inside an interval window, by a
cyclic interval (d = 1 universes read as Z_n), or - for set systems encoding
hypergraphs - by a complete clique bundle.  Each witness op either returns a
certificate or None; certificates are independently checkable and serialize
to plain JSON objects.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Union

from .errors import ShapeMismatchError, capped_count
from .universe import (
    Family,
    OrderedWindow,
    Record,
    SubsetMask,
    UniverseShape,
    _bit_indices,
    _cross_bits,
    _plant_bits,
    _window_runs,
    cyclic_interval_bits,
    restrict_and_relabel,
    window_region,
)

SAME_WINDOW = "same-window"
DISJOINT_WINDOWS = "disjoint-windows"
NESTED = "nested"
_MODES = (SAME_WINDOW, DISJOINT_WINDOWS, NESTED)


# ---------------------------------------------------------------------------
# pattern specs


class PolynomialDifference(Record):
    """B \\ A = S^{d_1} u ... u S^{d_s}; one degree is a power difference."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))


class FamilyDifference(Record):
    family: Family
    mode: str = SAME_WINDOW

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


class IntervalModN(Record):
    pass


class CliqueDifference(Record):
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))


PatternSpec = Union[
    PolynomialDifference, FamilyDifference, IntervalModN, CliqueDifference,
]


# ---------------------------------------------------------------------------
# witnesses


class PowerWitness(Record):
    S: frozenset[int]

    def to_json(self) -> dict:
        return {"kind": "power-difference", "S": sorted(self.S)}


class Distance2Witness(Record):
    U: SubsetMask
    S1: frozenset[int]
    S2: frozenset[int]

    def to_json(self) -> dict:
        return {
            "kind": "distance-2",
            "U": self.U.to_hex(),
            "S1": sorted(self.S1),
            "S2": sorted(self.S2),
        }


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


class CliqueWitness(Record):
    S: frozenset[int]

    def to_json(self) -> dict:
        return {"kind": "clique-difference", "S": sorted(self.S)}


Witness = Union[
    PowerWitness, Distance2Witness, FamilyWitness, IntervalWitness, CliqueWitness
]


# ---------------------------------------------------------------------------
# helpers


def set_from_bits(bits: int) -> frozenset[int]:
    return frozenset(i + 1 for i in _bit_indices(bits))


def _power_bits(shape: UniverseShape, s: int) -> int:
    """Bits of S^{d_1} u ... u S^{d_s} for S given as a bitmask over [n]."""
    bits = 0
    for part, d in enumerate(shape.degrees, start=1):
        cube = s
        for k in range(1, d):
            cube = _cross_bits(shape.n, s, cube, k)
        bits |= cube << shape.part_offset(part)
    return bits


def union_of_powers(shape: UniverseShape, S) -> SubsetMask:
    """S^{d_1} u ... u S^{d_s} as a mask."""
    elems = sorted(S)
    if any(not 1 <= x <= shape.n for x in elems):
        raise ValueError(f"S {elems} not inside [{shape.n}]")
    return SubsetMask(shape, _power_bits(shape, sum(1 << (x - 1) for x in elems)))


def _same_shape(A: SubsetMask, B: SubsetMask) -> UniverseShape:
    if A.shape != B.shape:
        raise ShapeMismatchError(f"{A.shape} vs {B.shape}")
    return A.shape


# ---------------------------------------------------------------------------
# distance-2 certificates


DISTANCE2_CAP = 1 << 16  # the most sets S_1 distance2_witness walks: n <= 16


def distance2_witness(A: SubsetMask, B: SubsetMask) -> Optional[Distance2Witness]:
    """Common-subset certificate: U with A \\ U and B \\ U both power-form,
    for the pattern PolynomialDifference(shape.degrees).

    Walks S_1 in ascending bit order; U = A minus the S_1-powers is forced,
    and so is S_2, which the witness check reads off B \\ U.  Empty S_i are
    allowed (then that side equals U); A == B is rejected outright since the
    pair must be distinct.  The walk is refused past DISTANCE2_CAP sets S_1.
    """
    shape = _same_shape(A, B)
    if A.bits == B.bits:
        raise ValueError("distance-2 witness needs a distinct pair")
    sets = capped_count("the sets S_1 of a distance-2 search", DISTANCE2_CAP, 2, shape.n)
    index = pattern_index(shape, PolynomialDifference(shape.degrees))
    for s1 in range(sets):
        P1 = _power_bits(shape, s1)
        if P1 & ~A.bits:
            continue
        U = A.bits & ~P1
        s2 = _witness_set(shape, index, U, B.bits)
        if s2 or U == B.bits:
            return Distance2Witness(
                SubsetMask(shape, U), set_from_bits(s1), set_from_bits(s2))
    return None


def _check_degrees(spec: PatternSpec, shape: UniverseShape) -> None:
    if isinstance(spec, (PolynomialDifference, CliqueDifference)) and (
        shape.degrees != spec.degrees
    ):
        raise ShapeMismatchError(
            f"pattern degrees {spec.degrees} vs shape {shape.degrees}"
        )
    if isinstance(spec, IntervalModN) and shape.degrees != (1,):
        raise ShapeMismatchError("interval pattern needs a single degree-1 part")


# ---------------------------------------------------------------------------
# template-family difference inside interval windows


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


# ---------------------------------------------------------------------------
# cyclic intervals over Z_n


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
# clique bundles (strictly increasing coordinates encode hyperedges)


def hyperedges_of(mask: SubsetMask) -> tuple[frozenset[frozenset[int]], ...]:
    """Per part: the d_j-subsets read off strictly increasing points."""
    shape = mask.shape
    out: list[set[frozenset[int]]] = [set() for _ in range(shape.s)]
    for part, coords in mask.points():
        if all(coords[i] < coords[i + 1] for i in range(len(coords) - 1)):
            out[part - 1].add(frozenset(coords))
    return tuple(frozenset(e) for e in out)


# ---------------------------------------------------------------------------
# dispatch


def find_witness(A: SubsetMask, B: SubsetMask, spec: PatternSpec) -> Optional[Witness]:
    shape = _same_shape(A, B)
    _check_degrees(spec, shape)
    if isinstance(spec, (PolynomialDifference, CliqueDifference)):
        return _indexed_witness(A, B, spec)
    if isinstance(spec, FamilyDifference):
        return family_difference_witness(A, B, spec.family, spec.mode)
    if isinstance(spec, IntervalModN):
        if A.bits == B.bits:
            return None
        return interval_mod_n_witness(A.bits, B.bits, shape.n)
    raise TypeError(f"unknown pattern spec {spec!r}")


def verify_witness(
    A: SubsetMask, B: SubsetMask, spec: PatternSpec, w: Witness
) -> bool:
    """Independent certificate check: recompute the claimed difference."""
    shape = _same_shape(A, B)
    if isinstance(w, PowerWitness):
        return (
            bool(w.S)
            and A.issubset(B)
            and A.bits != B.bits
            and B.difference(A).bits == union_of_powers(shape, w.S).bits
        )
    if isinstance(w, Distance2Witness):
        return (
            A.bits != B.bits
            and w.U.issubset(A)
            and w.U.issubset(B)
            and A.difference(w.U).bits == union_of_powers(shape, w.S1).bits
            and B.difference(w.U).bits == union_of_powers(shape, w.S2).bits
        )
    if isinstance(w, FamilyWitness):
        if not isinstance(spec, FamilyDifference):
            return False
        regions = [window_region(shape, I) for I in w.windows]
        if w.mode in (SAME_WINDOW, NESTED):
            if len(w.windows) != 1 or not w.windows[0].is_interval():
                return False
            r1 = r2 = regions[0]
        else:
            if (
                len(w.windows) != 2
                or not all(I.is_interval() for I in w.windows)
                or set(w.windows[0].elements) & set(w.windows[1].elements)
            ):
                return False
            r1, r2 = regions
        ok = (
            w.U.issubset(A)
            and w.U.issubset(B)
            and A.difference(w.U).bits == w.F1.bits
            and B.difference(w.U).bits == w.F2.bits
            and w.F1.issubset(r1)
            and w.F2.issubset(r2)
            and restrict_and_relabel(w.F1, w.windows[0]) in spec.family
            and restrict_and_relabel(w.F2, w.windows[-1]) in spec.family
            and w.F1.bits != w.F2.bits
        )
        if w.mode == NESTED:
            ok = ok and w.F2.issubset(w.F1)
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
# power and clique witnesses: one check on raw ints


@lru_cache(maxsize=16)
def pattern_index(
    shape: UniverseShape, spec: PatternSpec
) -> Optional[tuple[int, tuple[int, ...], type]]:
    """(key mask, touch masks, witness class) for power and clique specs;
    None for family and interval specs.  Built without enumerating S.

    Cells outside the key mask are free; ``touch[x - 1]`` holds the key cells
    with x among their coordinates.  Power specs key on every cell and
    P(S) = S^{d_1} u ... u S^{d_s}; clique specs key on the strictly
    increasing cells, where P(S) = K(S) is every d_j-subset of S.  A nonzero
    P(S) touches exactly the coordinates in S, so with key(X) = X & mask the
    pair (A, B) has the witness S iff key(A) lies inside key(B) and
    P = key(B) ^ key(A) is P(S) for the nonempty S that P touches.
    """
    if isinstance(spec, PolynomialDifference):
        witness = PowerWitness
    elif isinstance(spec, CliqueDifference):
        witness = CliqueWitness
    else:
        return None
    _check_degrees(spec, shape)
    mask = shape.full_bits()
    if witness is CliqueWitness:
        mask = 0
        for i, (_, coords) in enumerate(shape.points()):
            if all(x < y for x, y in zip(coords, coords[1:])):
                mask |= 1 << i
    everything = (1 << shape.n) - 1
    # the cells avoiding x are ([n] - {x})^{d_j}
    touch = tuple(mask & ~_power_bits(shape, everything & ~(1 << x))
                  for x in range(shape.n))
    return mask, touch, witness


def _witness_set(shape: UniverseShape, index, ka: int, kb: int) -> int:
    """Bitmask of the witness S for keys (ka, kb), or 0 if there is none."""
    mask, touch, _ = index
    if kb & ka != ka:
        return 0
    P = kb ^ ka
    s = 0
    for x, cells in enumerate(touch):
        if P & cells:
            s |= 1 << x
    return s if s and _power_bits(shape, s) & mask == P else 0


def _indexed_witness(A: SubsetMask, B: SubsetMask,
                     spec: PatternSpec) -> Optional[Witness]:
    shape = _same_shape(A, B)
    index = pattern_index(shape, spec)
    mask, _, witness = index
    s = _witness_set(shape, index, A.bits & mask, B.bits & mask)
    return witness(set_from_bits(s)) if s else None


@lru_cache(maxsize=16)
def pattern_table(shape: UniverseShape, spec: PatternSpec) -> dict[int, int]:
    """P(S) -> bitmask of S for every S with nonzero P(S), in ascending S.

    Enumerates all 2^n sets S, so only callers that already spend 2^n steps
    build it.  The table is shared; do not mutate it.
    """
    mask = pattern_index(shape, spec)[0]
    table = {}
    for s in range(1, 1 << shape.n):
        P = _power_bits(shape, s) & mask
        if P:
            table[P] = s
    return table


def _first_indexed_pair(
    shape: UniverseShape, spec: PatternSpec, members: list[int]
) -> Optional[tuple[int, int, int]]:
    """First (a, b, S bits) in ascending (a, b) order; members ascending.

    A family with fewer than 2^n members checks its ordered pairs; a larger
    one does one lookup per ``pattern_table`` entry and member.
    """
    index = pattern_index(shape, spec)
    mask = index[0]
    if len(members) < 1 << shape.n:
        keyed = [(b, b & mask) for b in members]
        for a, ka in keyed:
            for b, kb in keyed:
                if kb & ka == ka:  # cheap rejection before the full check
                    s = _witness_set(shape, index, ka, kb)
                    if s:
                        return a, b, s
        return None
    table = pattern_table(shape, spec)
    smallest: dict[int, int] = {}
    for b in members:
        smallest.setdefault(b & mask, b)
    for a in members:
        ka = a & mask
        hits = [(smallest[ka | P], P) for P in table
                if not P & ka and (ka | P) in smallest]
        if hits:
            b, P = min(hits)
            return a, b, table[P]
    return None


def find_pattern_pair(
    fam: Family, spec: PatternSpec
) -> Optional[tuple[SubsetMask, SubsetMask, Witness]]:
    """First ordered pair of distinct members admitting a witness.

    Pairs are ranked in ascending (A.bits, B.bits) order, so the result is
    deterministic for a given family and spec.  Polynomial and clique
    specs decide pairs on raw ints through the spec's
    ``pattern_index``; family and interval specs run ``find_witness`` on
    every ordered pair.
    """
    shape = fam.shape
    members = sorted(fam.members)
    index = pattern_index(shape, spec)
    if index is None:
        for a in members:
            A = SubsetMask(shape, a)
            for b in members:
                if a == b:
                    continue
                B = SubsetMask(shape, b)
                w = find_witness(A, B, spec)
                if w is not None:
                    return A, B, w
        return None
    hit = _first_indexed_pair(shape, spec, members)
    if hit is None:
        return None
    a, b, s = hit
    return SubsetMask(shape, a), SubsetMask(shape, b), index[2](set_from_bits(s))
