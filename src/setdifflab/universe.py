"""Ground universes, subsets-as-bitmasks, families, and relabeling maps.

The ground set is a disjoint union of coordinate powers

    [n]^{d_1}  u  [n]^{d_2}  u  ...  u  [n]^{d_s}

with coordinates 1-based.  A subset is stored as a single Python int whose
bit ``i`` records membership of the cell with index ``i``; cell indices are
assigned row-major within each part, parts concatenated in order:

    index(part, (c_1, ..., c_d)) = offset(part) + sum_k (c_k - 1) * n^(d - k)

so the *first* coordinate is most significant and ``offset(part)`` is the
total cell count of the earlier parts.  All densities are exact rationals.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, FormatError, ShapeMismatchError, capped_count

Point = tuple[int, tuple[int, ...]]  # (part, coordinates), both 1-based
Runs = tuple[tuple[int, int, int], ...]  # (source index, image index, run mask)

# the most cells a universe may have, e.g. [64]^3 or [512]^2: a larger one is
# refused before any of its masks or tables is built
CELL_CAP = 1 << 18


class Record:
    """Base of the immutable value types: a frozen dataclass without the
    generated code, which would cost start-up in every process.

    The fields, ``_fields``, are the subclass's own annotations in order; a
    class value is a default.  Fields come by position or keyword, then
    ``__post_init__`` runs (it may normalise a field through
    ``object.__setattr__``).  Records equal only same-class records with
    equal fields and hash as the field tuple; assigning or deleting an
    attribute raises AttributeError.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        count = len(names)
        if count == 1:  # attrgetter of one name returns the bare value
            get = attrgetter(names[0])
            values = lambda record: (get(record),)
        else:
            values = attrgetter(*names) if names else lambda record: ()

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = self._bind(args, kwargs)
            for name, value in zip(names, args):  # keeps the compact instance dict
                object.__setattr__(self, name, value)
            self.__post_init__()

        def __eq__(self, other):
            same = other.__class__ is self.__class__
            return values(self) == values(other) if same else NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls._fields = names
        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in order, from positions, keywords and defaults."""
        names = cls._fields
        if not args and kwargs.keys() == set(names):
            return list(map(kwargs.__getitem__, names))
        given = dict(zip(names, args), **kwargs)
        if (len(args) <= len(names) and len(given) == len(args) + len(kwargs)
                and all(name in given or name in cls.__dict__ for name in names)):
            values = [given.pop(name) if name in given else cls.__dict__[name] for name in names]
            if not given:  # every keyword named a field
                return values
        raise TypeError(f"{cls.__name__} takes fields {names}, got {args} {kwargs}")

    def __post_init__(self) -> None:
        pass

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class UniverseShape(Record):
    """Shape descriptor: part degrees (d_1, ..., d_s) and side n."""

    degrees: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if len(self.degrees) < 1:
            raise ValueError("need at least one part")
        if any(not isinstance(d, int) or d < 1 for d in self.degrees):
            raise ValueError(f"degrees must be positive ints, got {self.degrees}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"side n must be a positive int, got {self.n}")
        object.__setattr__(self, "cells", _cell_count(self.n, self.degrees))  # refuses > CELL_CAP

    @property
    def s(self) -> int:
        return len(self.degrees)

    # __post_init__ or first use caches it in __dict__; fields alone decide eq, hash and pickle
    @cached_property
    def cells(self) -> int:
        return _cell_count(self.n, self.degrees)

    @cached_property
    def full_bits(self) -> int:
        return (1 << self.cells) - 1

    def __getstate__(self) -> dict:
        return {"degrees": self.degrees, "n": self.n}

    def part_offset(self, part: int) -> int:
        if not 1 <= part <= self.s:
            raise ValueError(f"part {part} out of range 1..{self.s}")
        return sum(self.n ** d for d in self.degrees[: part - 1])

    def index_of(self, part: int, coords: Sequence[int]) -> int:
        d = self.degrees[part - 1]
        coords = tuple(coords)
        if len(coords) != d:
            raise ValueError(f"part {part} has degree {d}, got coords {coords}")
        if any(not 1 <= c <= self.n for c in coords):
            raise ValueError(f"coordinates {coords} out of range 1..{self.n}")
        idx = self.part_offset(part)
        for k, c in enumerate(coords, start=1):
            idx += (c - 1) * self.n ** (d - k)
        return idx

    def points(self) -> Iterator[Point]:
        """All points in cell-index order."""
        for part in range(1, self.s + 1):
            d = self.degrees[part - 1]
            for coords in itertools.product(range(1, self.n + 1), repeat=d):
                yield part, coords


def _cell_count(n: int, degrees: Iterable[int]) -> int:
    """Cells of the parts [n]^d, one per listed degree d; refused past
    CELL_CAP."""
    what = f"the cells of a universe over [{n}]"
    total = 0
    for d in degrees:
        total += capped_count(what, CELL_CAP, n, d)
        capped_count(what, CELL_CAP, total)
    return total


def _bit_indices(bits: int) -> Iterator[int]:
    """Positions of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _cross_bits(n: int, xs: int, tail: int, k: int) -> int:
    """Bits of X x T in [n]^(k+1) for X a bitmask over [n], T one over [n]^k.

    T fills the low n^k bits and (x, rest) has index (x-1) n^k + index(rest),
    so T * sum_{x in X} 2^((x-1) n^k) lays one copy per x with no carries.
    """
    stride = n ** k
    return tail * sum(1 << i * stride for i in _bit_indices(xs))


def single_part_degree(shape: UniverseShape) -> int:
    """The degree d of a single-part universe [n]^d; other shapes raise."""
    if shape.s != 1:
        raise ShapeMismatchError(
            f"expected a single-part universe, got degrees {shape.degrees}")
    return shape.degrees[0]


class SubsetMask(Record):
    """A subset of the ground set, encoded as an int bitmask."""

    shape: UniverseShape
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.shape.full_bits:
            raise ValueError("bits outside the universe")

    def to_hex(self) -> str:
        return mask_to_hex(self.bits, self.shape.cells)


class Family(Record):
    """A set of subsets of one universe.  Members stored as raw bit values."""

    shape: UniverseShape
    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        full = self.shape.full_bits
        for b in self.members:
            if not 0 <= b <= full:
                raise ValueError("family member outside the universe")

    @classmethod
    def from_masks(cls, masks: Iterable[SubsetMask]) -> "Family":
        masks = list(masks)
        if not masks:
            raise ValueError("cannot infer shape from an empty mask list")
        shape = masks[0].shape
        for m in masks:
            if m.shape != shape:
                raise ShapeMismatchError("mixed shapes in family")
        return cls(shape, frozenset(m.bits for m in masks))

    def __len__(self) -> int:
        return len(self.members)

    def masks(self) -> Iterator[SubsetMask]:
        """Members as masks, ascending bit value (the canonical order)."""
        for b in sorted(self.members):
            yield SubsetMask(self.shape, b)

    def density(self) -> Fraction:
        return Fraction(len(self.members), 1 << self.shape.cells)


def _densest_cell(rows: Iterable[tuple[Iterable[int], int]]) -> tuple[int, int, int, int]:
    """(row index, background, count, incidences) of the densest cell over
    rows of (kept members, mask off the row region); a cell is one background.

    Ties go to the first row reaching the top count, then its smallest
    background; no kept member gives (0, 0, 0, 0).  Incidences count the kept
    members of all rows.  A row's count is dropped before the next is read.
    """
    best, incidences = (0, 0, 0), 0
    for r, (kept, off) in enumerate(rows):
        cells = Counter(map(off.__and__, kept))
        incidences += cells.total()
        top = max(cells.values(), default=0)
        if top > best[2]:
            best = (r, min(b for b, k in cells.items() if k == top), top)
        del cells
    return (*best, incidences)


class OrderedWindow(Record):
    """An ordered m-subset of [n]; position in the tuple is the ordering.

    ``relabel`` sends elements[k-1] to k, i.e. the k-th element under the
    window's ordering becomes the label k of the small universe [m].
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"window elements not distinct: {self.elements}")
        if not self.elements:
            raise ValueError("window cannot be empty")
        if any(not isinstance(x, int) or x < 1 for x in self.elements):
            raise ValueError(f"window elements must be positive ints: {self.elements}")

    @property
    def m(self) -> int:
        return len(self.elements)

    @classmethod
    def interval(cls, start: int, size: int) -> "OrderedWindow":
        """The interval {start, ..., start+size-1} in increasing order."""
        return cls(tuple(range(start, start + size)))


def _runs(pairs: Iterable[tuple[int, int]]) -> Runs:
    """A cell map as maximal runs of its (source, image) index pairs, taken
    in order, over which both indices step by one.  Every cell relabelling
    of this module is one such table, applied with a shift-and-mask per run."""
    runs: list[list[int]] = []
    for src, dst in pairs:
        if runs and src - runs[-1][0] == dst - runs[-1][1] == runs[-1][2]:
            runs[-1][2] += 1
        else:
            runs.append([src, dst, 1])
    return tuple((src, dst, (1 << length) - 1) for src, dst, length in runs)


def _window_runs(shape: UniverseShape, window: OrderedWindow) -> Runs:
    """The window map as a run table from source cells to the cells of the
    relabeled m-shape, which are taken in order.

    An interval window gives m^(d-1) runs of m bits per degree-d part.  The
    window maps below read this table; a caller builds it once per window
    and keeps it.
    """
    w = window.elements
    if max(w) > shape.n:
        raise ValueError(f"window {w} exceeds side n={shape.n}")
    return _runs(
        (shape.index_of(part, tuple(w[c - 1] for c in coords)), dst)
        for dst, (part, coords) in enumerate(UniverseShape(shape.degrees, window.m).points()))


def _restrict_bits(bits: int, runs: Runs) -> int:
    """Apply a run table forward to a raw member int: each run's cells are
    read at its source index and written at its image index.  Window runs
    keep the cells with all coordinates in the window and relabel them into
    [m] (the k-th window element becomes label k); the embedding's runs move
    a lower-degree member into the higher-degree shape."""
    return sum((bits >> src & run) << dst for src, dst, run in runs)


def _plant_bits(bits: int, runs: Runs) -> int:
    """Right inverse of _restrict_bits: place a raw small-shape int into the
    window power region of the big universe (other cells empty), given its
    window runs; all ones plant the whole region."""
    return sum((bits >> dst & run) << src for src, dst, run in runs)


# ---------------------------------------------------------------------------
# degree embedding


@lru_cache(maxsize=64)
def _embed_runs(source: UniverseShape, target: UniverseShape) -> Runs:
    """The degree embedding as a run table from source cells to target cells.

    Per part, (x_1, ..., x_{d'}) maps to (x_1, ..., x_1, x_2, ..., x_{d'})
    with the first coordinate repeated d - d' + 1 times, so the n^(d'-1)
    cells sharing a first coordinate form one run when d > d'.
    """
    return _runs(
        (src, target.index_of(part, coords[:1] * (target.degrees[part - 1] - len(coords))
                              + coords))
        for src, (part, coords) in enumerate(source.points()))


def embed_lower_degree(mask: SubsetMask, target_degrees: Sequence[int]) -> SubsetMask:
    """Pointwise image of a lower-degree subset inside a higher-degree shape,
    through the cached run table of _embed_runs."""
    src = mask.shape
    tdeg = tuple(target_degrees)
    if len(tdeg) != src.s:
        raise ValueError("part count must match")
    if any(t < d for t, d in zip(tdeg, src.degrees)):
        raise ValueError(f"target degrees {tdeg} below source {src.degrees}")
    target = UniverseShape(tdeg, src.n)
    return SubsetMask(target, _restrict_bits(mask.bits, _embed_runs(src, target)))


# ---------------------------------------------------------------------------
# text serialization
#
# Family file: a header line
#     shape s=<s> d=<d_1,...,d_s> n=<n>
# followed by one line per member: lowercase hex of the cell bit array with
# the most significant cell LAST (hex digit j encodes cells 4j..4j+3).
# Members are written in ascending bit order; blank lines and #-comments are
# ignored on input, here and in the bundle and form files (_content_lines).

_HEADER_RE = re.compile(
    r"^shape\s+s=(\d+)\s+d=([0-9,]+)\s+n=(\d+)\s*$"
)
_HEX_DIGITS = frozenset("0123456789abcdef")


# the runs between the line boundaries of str.splitlines
_LINE_RE = re.compile(r"[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]+")


def _content_lines(text: str, what: str) -> Iterator[str]:
    """Stripped lines, blanks and ``#`` comments dropped, read lazily so no
    list of lines is held; none left is an error."""
    empty = True
    for match in _LINE_RE.finditer(text):
        line = match.group().strip()
        if line and not line.startswith("#"):
            empty = False
            yield line
    if empty:
        raise FormatError(f"empty {what} file")


def mask_to_hex(bits: int, cells: int) -> str:
    ndigits = max(1, (cells + 3) // 4)
    return format(bits, f"0{ndigits}x")[::-1]


def mask_from_hex(text: str, cells: int) -> int:
    ndigits = max(1, (cells + 3) // 4)
    if len(text) != ndigits or not _HEX_DIGITS.issuperset(text):
        raise FormatError(f"bad member line {text!r} (want {ndigits} hex digits)")
    bits = int(text[::-1], 16)
    if bits >= 1 << cells:
        raise FormatError(f"member line {text!r} sets bits outside the universe")
    return bits


def family_to_text(fam: Family) -> str:
    sh = fam.shape
    lines = [f"shape s={sh.s} d={','.join(map(str, sh.degrees))} n={sh.n}"]
    lines.extend(mask_to_hex(b, sh.cells) for b in sorted(fam.members))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> Family:
    lines = _content_lines(text, "family")
    header = next(lines)
    m = _HEADER_RE.match(header)
    if not m:
        raise FormatError(f"bad family header {header!r}")
    s, dlist, n = int(m.group(1)), m.group(2), int(m.group(3))
    try:
        degrees = tuple(int(x) for x in dlist.split(","))
    except ValueError as e:
        raise FormatError(f"bad degree list {dlist!r}") from e
    if len(degrees) != s:
        raise FormatError(f"header says s={s} but lists {len(degrees)} degrees")
    try:
        shape = UniverseShape(degrees, n)
    except CapExceededError:
        raise
    except ValueError as e:
        raise FormatError(str(e)) from e
    # members are parsed as the lines are read, into one frozenset: a list of
    # the lines, or a set copied into a frozenset, would hold a second copy at
    # the parse's memory peak; on a bad or repeated line the walk below
    # reports the first failure in file order
    read = itertools.count()
    try:
        members = frozenset(mask_from_hex(ln, shape.cells) for ln, _ in zip(lines, read))
    except FormatError:
        members = None
    if members is None or len(members) < next(read):
        lines = _content_lines(text, "family")
        next(lines)
        seen = set()
        for ln in lines:
            b = mask_from_hex(ln, shape.cells)
            if b in seen:
                raise FormatError(f"duplicate member {ln!r}")
            seen.add(b)
    return Family(shape, members)
