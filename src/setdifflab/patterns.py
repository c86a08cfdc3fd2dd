"""Difference-pattern witnesses.

A pattern says how two distinct subsets A, B of a coordinate-power universe
may differ: by a union of powers S^{d_1} u ... u S^{d_s} of a common S, or -
for set systems encoding hypergraphs - by a complete clique bundle.  Both are
decided on raw ints by one key test (``pattern_index``); a certificate names
the S and serializes to a plain JSON object.  The template-family and
cyclic-interval certificates of the paper's relative versions live with
their independent checker in ``tests/witness_oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

from .errors import ShapeMismatchError, capped_count
from .universe import Family, Record, SubsetMask, UniverseShape, _bit_indices, _cross_bits


# ---------------------------------------------------------------------------
# pattern specs


class PolynomialDifference(Record):
    """B \\ A = S^{d_1} u ... u S^{d_s}; one degree is a power difference."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))


class CliqueDifference(Record):
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))


PatternSpec = Union[PolynomialDifference, CliqueDifference]


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


class CliqueWitness(Record):
    S: frozenset[int]

    def to_json(self) -> dict:
        return {"kind": "clique-difference", "S": sorted(self.S)}


Witness = Union[PowerWitness, CliqueWitness]


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


# ---------------------------------------------------------------------------
# power and clique witnesses: one check on raw ints


@lru_cache(maxsize=16)
def pattern_index(
    shape: UniverseShape, spec: PatternSpec
) -> tuple[int, tuple[int, ...], type]:
    """(key mask, touch masks, witness class) of a spec.  Built without
    enumerating S.

    Cells outside the key mask are free; ``touch[x - 1]`` holds the key cells
    with x among their coordinates.  Power specs key on every cell and
    P(S) = S^{d_1} u ... u S^{d_s}; clique specs key on the strictly
    increasing cells, where P(S) = K(S) is every d_j-subset of S.  A nonzero
    P(S) touches exactly the coordinates in S, so with key(X) = X & mask the
    pair (A, B) has the witness S iff key(A) lies inside key(B) and
    P = key(B) ^ key(A) is P(S) for the nonempty S that P touches.
    """
    if shape.degrees != spec.degrees:
        raise ShapeMismatchError(
            f"pattern degrees {spec.degrees} vs shape {shape.degrees}")
    witness = CliqueWitness if isinstance(spec, CliqueDifference) else PowerWitness
    mask = shape.full_bits
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
    deterministic for a given family and spec; they are decided on raw ints
    through the spec's ``pattern_index``.
    """
    shape = fam.shape
    hit = _first_indexed_pair(shape, spec, sorted(fam.members))
    if hit is None:
        return None
    a, b, s = hit
    witness = pattern_index(shape, spec)[2]
    return SubsetMask(shape, a), SubsetMask(shape, b), witness(set_from_bits(s))
