"""Constructive equivalences between problem variants.

Five exact transports: restriction of symmetric sets to the sorted-coordinate
region and back, diagonal multiplexing into several equal parts, the
interval-partition bijection between symmetric sets and hypergraph bundles,
the clique-square correspondence between graph families and families over
[n]^2, and diagonal block families that spread a family across disjoint
windows.  Every map preserves exact counts and transports witnesses in the
documented direction.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, FormatError, capped_count
from .universe import (
    CELL_CAP,
    Family,
    OrderedWindow,
    Record,
    SubsetMask,
    UniverseShape,
    _cell_count,
    _content_lines,
    plant_into_window,
    single_part_degree,
)

Hyperedge = frozenset[int]

# most masks clique_square_correspondence walks over all its fibres
CLIQUE_FIBRE_CAP = 1 << 20


# ---------------------------------------------------------------------------
# symmetric region


class SymmetricRegion(Record):
    """Sorted-coordinate representatives {x_1 <= ... <= x_d} inside [n]^d."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive")

    def shape(self) -> UniverseShape:
        return UniverseShape(degrees=(self.d,), n=self.n)

    def mask(self) -> SubsetMask:
        # a sorted representative is the lowest cell of its orbit
        shape = self.shape()
        return SubsetMask(shape, sum(o & -o for o in _orbits(shape).values()))


@lru_cache(maxsize=64)
def _orbits(shape: UniverseShape) -> MappingProxyType[tuple[int, tuple[int, ...]], int]:
    """Coordinate-permutation orbits of [n]^d, C(n+d-1, d) masks in all, each
    keyed by what its sorted representative encodes under beta: (part index,
    hyperedge).  The hyperedge is the representative's distinct values, and
    the part is the composition of d given by their run lengths."""
    d = single_part_degree(shape)
    part_of = {comp: j for j, (_, comp) in
               enumerate(IntervalPartitionCatalog(d=d).parts())}
    orbits: dict[tuple[int, ...], int] = {}
    for i, (_, coords) in enumerate(shape.points()):
        rep = tuple(sorted(coords))
        orbits[rep] = orbits.get(rep, 0) | 1 << i
    table = {}
    for rep, orbit in orbits.items():
        edge = tuple(sorted(set(rep)))
        table[part_of[tuple(map(rep.count, edge))], edge] = orbit
    return MappingProxyType(table)  # read-only: every caller shares it


def is_symmetric(A: SubsetMask) -> bool:
    """Invariance under every coordinate permutation: each orbit is all in
    or all out."""
    return all(A.bits & orbit in (0, orbit) for orbit in _orbits(A.shape).values())


def symmetric_lift(A_sym: SubsetMask) -> SubsetMask:
    """Restrict a symmetric set to its sorted representatives."""
    if not is_symmetric(A_sym):  # raises for a multi-part shape
        raise ValueError("symmetric_lift needs a symmetric input")
    region = SymmetricRegion(d=A_sym.shape.degrees[0], n=A_sym.shape.n)
    return SubsetMask(A_sym.shape, A_sym.bits & region.mask().bits)


def symmetric_extend(B: SubsetMask) -> SubsetMask:
    """Orbit closure of a set of sorted representatives."""
    region = SymmetricRegion(d=single_part_degree(B.shape), n=B.shape.n)
    if B.bits & ~region.mask().bits:
        raise ValueError("symmetric_extend needs a subset of the sorted region")
    return SubsetMask(B.shape,
                      sum(o for o in _orbits(B.shape).values() if B.bits & o))


# ---------------------------------------------------------------------------
# multiplexing


def multiplex(fam: Family, s: int) -> Family:
    """Diagonal copies A |-> A u ... u A over s parts of the same degree."""
    if s < 1:
        raise ValueError("s must be at least 1")
    d = single_part_degree(fam.shape)
    _cell_count(fam.shape.n, itertools.repeat(d, s))  # refused before the s-tuple
    big = UniverseShape(degrees=(d,) * s, n=fam.shape.n)
    # a member fills only the low n^d bits, so this product has no carries
    copies = sum(1 << k * fam.shape.cells for k in range(s))
    return Family(big, frozenset(b * copies for b in fam.members))


# ---------------------------------------------------------------------------
# interval partitions and the hypergraph bijection


class IntervalPartitionCatalog(Record):
    """Partitions of [d] into k consecutive intervals, for every k.

    A partition into k intervals is the same thing as a composition
    (c_1,...,c_k) of d; parts are enumerated k ascending, then compositions
    in lexicographic order, which fixes the part indexing used by the
    hypergraph bijection.
    """

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        capped_count(f"the parts of the catalog for d={self.d}", CELL_CAP, 2, self.d - 1)

    def compositions(self, k: int) -> tuple[tuple[int, ...], ...]:
        if not 1 <= k <= self.d:
            raise ValueError(f"k must lie in [1, {self.d}]")
        return _compositions(self.d)[k - 1]

    def parts(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        for k in range(1, self.d + 1):
            for comp in self.compositions(k):
                yield k, comp

    @property
    def degrees(self) -> tuple[int, ...]:
        return _part_degrees(self.d)


@lru_cache(maxsize=32)
def _compositions(d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry k-1 lists the compositions of d into k parts, lexicographic."""
    table = []
    for k in range(1, d + 1):
        comps = []
        for cuts in itertools.combinations(range(1, d), k - 1):
            bounds = (0,) + cuts + (d,)
            comps.append(tuple(bounds[i + 1] - bounds[i] for i in range(k)))
        table.append(tuple(comps))
    return tuple(table)


@lru_cache(maxsize=32)
def _part_degrees(d: int) -> tuple[int, ...]:
    """The uniformity k of each part, in part order: a part into k
    intervals is a composition with k entries."""
    return tuple(len(comp) for comps in _compositions(d) for comp in comps)


class HypergraphBundle(Record):
    """One k_j-uniform hypergraph on [n] per part."""

    n: int
    degrees: tuple[int, ...]
    parts: tuple[frozenset[Hyperedge], ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        object.__setattr__(
            self, "parts",
            tuple(frozenset(frozenset(e) for e in part) for part in self.parts))
        self.shape()  # n and every degree must be positive
        if len(self.parts) != len(self.degrees):
            raise ValueError("one hyperedge set per degree required")
        for deg, part in zip(self.degrees, self.parts):
            for edge in part:
                if len(edge) != deg:
                    raise ValueError(
                        f"hyperedge {sorted(edge)} does not have {deg} vertices")
                if not all(1 <= v <= self.n for v in edge):
                    raise ValueError(f"vertex out of range in {sorted(edge)}")

    def shape(self) -> UniverseShape:
        return UniverseShape(degrees=self.degrees, n=self.n)


_HEADER = re.compile(r"n=(\d+) degrees=(\d+(?:,\d+)*)")


def bundles_to_text(bundles: Sequence[HypergraphBundle]) -> str:
    """Header line, then one line per part per bundle ('-' = no hyperedges)."""
    if not bundles:
        raise ValueError("nothing to serialize")
    n, degrees = bundles[0].n, bundles[0].degrees
    if any(b.n != n or b.degrees != degrees for b in bundles):
        raise ValueError("bundles in one file must share n and degrees")
    lines = [f"n={n} degrees={','.join(str(d) for d in degrees)}"]
    for bundle in bundles:
        for part in bundle.parts:
            edges = sorted(tuple(sorted(e)) for e in part)
            lines.append(
                " ".join(",".join(str(v) for v in e) for e in edges) or "-")
    return "\n".join(lines) + "\n"


def bundles_from_text(text: str) -> list[HypergraphBundle]:
    lines = _content_lines(text, "bundle")
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise FormatError(f"bad header {lines[0]!r}")
    n = int(header.group(1))
    degrees = tuple(int(tok) for tok in header.group(2).split(","))
    body = lines[1:]
    if not body or len(body) % len(degrees) != 0:
        raise FormatError(
            f"expected a multiple of {len(degrees)} part lines, got {len(body)}")
    bundles = []
    for start in range(0, len(body), len(degrees)):
        parts = []
        for line in body[start:start + len(degrees)]:
            edges = set()
            if line != "-":
                for token in line.split():
                    try:
                        edges.add(frozenset(int(v) for v in token.split(",")))
                    except ValueError:
                        raise FormatError(f"bad hyperedge {token!r}") from None
            parts.append(frozenset(edges))
        try:
            bundles.append(
                HypergraphBundle(n=n, degrees=degrees, parts=tuple(parts)))
        except CapExceededError:
            raise
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    return bundles


def beta_bijection(A_sym: SubsetMask) -> HypergraphBundle:
    """Symmetric set -> bundle: part (k,t) gets {a_1 < ... < a_k} iff the
    sorted point with a_i repeated per the t-th composition lies in the set."""
    degrees = IntervalPartitionCatalog(d=single_part_degree(A_sym.shape)).degrees
    parts: list[set[tuple[int, ...]]] = [set() for _ in degrees]
    for (j, edge), orbit in _orbits(A_sym.shape).items():
        hit = A_sym.bits & orbit
        if hit == orbit:
            parts[j].add(edge)
        elif hit:
            raise ValueError("beta_bijection needs a symmetric input")
    return HypergraphBundle(n=A_sym.shape.n, degrees=degrees, parts=tuple(parts))


def beta_inverse(bundle: HypergraphBundle) -> SubsetMask:
    d = bundle.degrees[-1]
    if bundle.degrees != IntervalPartitionCatalog(d=d).degrees:
        raise ValueError(
            f"degrees {bundle.degrees} do not match the catalog for d={d}")
    shape = UniverseShape(degrees=(d,), n=bundle.n)
    orbits = _orbits(shape)
    return SubsetMask(shape, sum(orbits[j, tuple(sorted(edge))]
                                 for j, part in enumerate(bundle.parts)
                                 for edge in part))


# ---------------------------------------------------------------------------
# clique-square correspondence


def _normalize_graph(edges: Iterable[Iterable[int]], n: int,
                     loopful: bool) -> frozenset[Hyperedge]:
    out = set()
    for edge in edges:
        e = frozenset(edge)
        if not all(1 <= v <= n for v in e):
            raise ValueError(f"vertex out of range in {sorted(e)}")
        if len(e) == 2 or (loopful and len(e) == 1):
            out.add(e)
        else:
            raise ValueError(f"{sorted(e)} is not an edge on [{n}]")
    return frozenset(out)


def clique_square_correspondence(graphs: Iterable[Iterable[Iterable[int]]],
                                 n: int, loopful: bool = False) -> Family:
    """Graph family -> family over [n]^2 with (x,y), x<y, reading edges.

    Cells on and below the diagonal are free and range over all values, so
    each graph contributes a fiber of 2^(n^2 - C(n,2)) masks; in loopful
    mode the diagonal encodes loops and only the below-diagonal cells are
    free.  Distinct graphs have disjoint fibers, so density is preserved.
    More than CLIQUE_FIBRE_CAP masks in all raise CapExceededError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    shape = UniverseShape(degrees=(2,), n=n)
    # an orbit's lowest cell is its sorted point; an edge of two vertices
    # sits at x < y, a loop (kept only when loopful) at x = y
    read = sum(o & -o for (_, edge), o in _orbits(shape).items()
               if loopful or len(edge) == 2)
    free = shape.full_bits & ~read
    graphs = list(graphs)
    capped_count(f"the fibre masks of {len(graphs)} graphs", CLIQUE_FIBRE_CAP,
                 2, free.bit_count(), factor=len(graphs))
    members = set()
    for graph in graphs:
        base = sum(1 << shape.index_of(1, (min(e), max(e)))
                   for e in _normalize_graph(graph, n, loopful))
        sub = 0  # the fibre: every subset of the free cells, ascending
        while True:
            members.add(base | sub)
            sub = (sub - free) & free
            if not sub:
                break
    return Family(shape, frozenset(members))


# ---------------------------------------------------------------------------
# diagonal block families


def diagonal_block_family(F: Family) -> Family:
    """Plant the t-th member (ascending mask order) in the t-th window.

    The result lives over [m*l] with l = |F| and has pairwise disjoint
    members; it turns same-window conclusions into disjoint-window ones.
    """
    if not F.members:
        raise ValueError("family is empty")
    m = F.shape.n
    l = len(F)
    big = UniverseShape(degrees=F.shape.degrees, n=m * l)
    members = []
    for t, small in enumerate(F.masks(), start=1):
        window = OrderedWindow.interval((t - 1) * m + 1, m)
        members.append(plant_into_window(small, window, big).bits)
    return Family(big, frozenset(members))
