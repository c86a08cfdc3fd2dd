"""Constructive equivalences between problem variants.

Three exact transports: diagonal multiplexing into several equal parts, the
interval-partition bijection between symmetric sets and hypergraph bundles,
and the clique-square correspondence between graph families and families
over [n]^2.  Every map preserves exact counts and transports witnesses in
the documented direction.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import CapExceededError, FormatError, capped_count
from .universe import (
    CELL_CAP,
    Family,
    Record,
    SubsetMask,
    UniverseShape,
    _cell_count,
    _content_lines,
    single_part_degree,
)

Hyperedge = frozenset[int]

# most masks clique_square_correspondence walks over all its fibres
CLIQUE_FIBRE_CAP = 1 << 20


# ---------------------------------------------------------------------------
# coordinate-permutation orbits


@lru_cache(maxsize=64)
def _orbits(shape: UniverseShape) -> MappingProxyType[tuple[int, tuple[int, ...]], int]:
    """Coordinate-permutation orbits of [n]^d, C(n+d-1, d) masks in all, each
    keyed by what its sorted representative encodes under beta: (part index,
    hyperedge).  The hyperedge is the representative's distinct values, and
    the part is the composition of d given by their run lengths."""
    part_of = {comp: j for j, comp in
               enumerate(_compositions(single_part_degree(shape)))}
    orbits: dict[tuple[int, ...], int] = {}
    for i, (_, coords) in enumerate(shape.points()):
        rep = tuple(sorted(coords))
        orbits[rep] = orbits.get(rep, 0) | 1 << i
    table = {}
    for rep, orbit in orbits.items():
        edge = tuple(sorted(set(rep)))
        table[part_of[tuple(map(rep.count, edge))], edge] = orbit
    return MappingProxyType(table)  # read-only: every caller shares it


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


@lru_cache(maxsize=32)
def _compositions(d: int) -> tuple[tuple[int, ...], ...]:
    """Every composition (c_1,...,c_k) of d, that is every partition of [d]
    into k consecutive intervals: k ascending, then lexicographic.  This is
    beta's part order, and part j is len(comp)-uniform.  The 2^(d-1) parts
    are refused past CELL_CAP before any is listed."""
    capped_count(f"the parts of the catalog for d={d}", CELL_CAP, 2, d - 1)
    return tuple(tuple(b - a for a, b in zip((0,) + cuts, cuts + (d,)))
                 for k in range(d)
                 for cuts in itertools.combinations(range(1, d), k))


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
    lines = list(_content_lines(text, "bundle"))
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise FormatError(f"bad header {lines[0]!r}")
    n = int(header.group(1))
    degrees = tuple(int(tok) for tok in header.group(2).split(","))
    body = lines[1:]
    if not body or len(body) % len(degrees) != 0:
        raise FormatError(
            f"expected a multiple of {len(degrees)} part lines, got {len(body)}")
    bundles: dict[HypergraphBundle, None] = {}  # insertion-ordered set
    for start in range(0, len(body), len(degrees)):
        chunk = body[start:start + len(degrees)]
        parts = []
        for line in chunk:
            edges = set()
            if line != "-":
                for token in line.split():
                    try:
                        edges.add(frozenset(int(v) for v in token.split(",")))
                    except ValueError:
                        raise FormatError(f"bad hyperedge {token!r}") from None
            parts.append(frozenset(edges))
        try:
            bundle = HypergraphBundle(n=n, degrees=degrees, parts=tuple(parts))
        except CapExceededError:
            raise
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        if bundle in bundles:
            raise FormatError(f"duplicate bundle {' / '.join(chunk)!r}")
        bundles[bundle] = None
    return list(bundles)


def beta_bijection(A_sym: SubsetMask) -> HypergraphBundle:
    """Symmetric set -> bundle: part (k,t) gets {a_1 < ... < a_k} iff the
    sorted point with a_i repeated per the t-th composition lies in the set."""
    degrees = tuple(map(len, _compositions(single_part_degree(A_sym.shape))))
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
    if bundle.degrees != tuple(map(len, _compositions(d))):
        raise ValueError(
            f"degrees {bundle.degrees} do not match the catalog for d={d}")
    shape = UniverseShape(degrees=(d,), n=bundle.n)
    orbits = _orbits(shape)
    return SubsetMask(shape, sum(orbits[j, tuple(sorted(edge))]
                                 for j, part in enumerate(bundle.parts)
                                 for edge in part))


# ---------------------------------------------------------------------------
# clique-square correspondence


def _normalize_graph(edges: Iterable[Iterable[int]], n: int) -> frozenset[Hyperedge]:
    out = set()
    for edge in edges:
        e = frozenset(edge)
        if not all(1 <= v <= n for v in e):
            raise ValueError(f"vertex out of range in {sorted(e)}")
        if len(e) != 2:
            raise ValueError(f"{sorted(e)} is not an edge on [{n}]")
        out.add(e)
    return frozenset(out)


def clique_square_correspondence(graphs: Iterable[Iterable[Iterable[int]]],
                                 n: int) -> Family:
    """Graph family -> family over [n]^2 with (x,y), x<y, reading edges.

    Cells on and below the diagonal are free and range over all values, so
    each graph contributes a fiber of 2^(n^2 - C(n,2)) masks.  Distinct
    graphs have disjoint fibers, so density is preserved.  More than
    CLIQUE_FIBRE_CAP masks in all raise CapExceededError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    shape = UniverseShape(degrees=(2,), n=n)
    # an orbit's lowest cell is its sorted point; an edge sits at x < y
    read = sum(o & -o for (_, edge), o in _orbits(shape).items() if len(edge) == 2)
    free = shape.full_bits & ~read
    graphs = list(graphs)
    capped_count(f"the fibre masks of {len(graphs)} graphs", CLIQUE_FIBRE_CAP,
                 2, free.bit_count(), factor=len(graphs))
    subs = [0]  # every subset of the free cells, ascending: one fibre's offsets
    while sub := (subs[-1] - free) & free:
        subs.append(sub)
    bases = (sum(1 << shape.index_of(1, (min(e), max(e))) for e in _normalize_graph(graph, n))
             for graph in graphs)
    # staged in a dict: frozenset() sizes its table to a dict's length, but
    # grows it fourfold at a time from a generator and keeps the slack
    return Family(shape, frozenset(dict.fromkeys(base | sub for base in bases for sub in subs)))
