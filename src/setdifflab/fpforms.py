"""Linear forms over F_p, their induced forms on power universes, and
zero-sum block partitions.

A linear form ``phi(x) = a_1 x_1 + ... + a_n x_n`` acts on subsets of [n]
through indicator vectors; its degree-d induced form ``Phi`` acts on subsets
of [n]^d, the cell (i_1, ..., i_d) carrying the coefficient
``a_{i_1} * ... * a_{i_d}``.  A form's only table is the cell bitmask of each
nonzero coefficient value; exact output distributions over uniformly random
subsets count subsets from its class sizes, where enumeration is hopeless.
A family is counted on its member bit-planes, one member bitset per cell,
so that its projection onto a few cells splits a few big ints.

The block-partition construction picks rows of m pairwise disjoint blocks
of [n] on which the form vanishes; the rest of [n] is left over.  A row's
block products tile its region X_i^d, and on subsets block-constant over the
row the induced form takes a single value -- the fact the density-increment
step lives on; ``lift_bits`` reads back the products a member holds.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FormatError, ShapeMismatchError, UniverseTooSmallError, capped_count
from .universe import (
    Record,
    _bit_indices,
    _cell_count,
    _content_lines,
    _cross_bits,
    _frac,
)

# the largest modulus a form may have: a larger one is refused before the
# primality test or any table with p entries
MODULUS_CAP = 1 << 8


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % q for q in range(2, math.isqrt(p) + 1))


class LinearFormP(Record):
    """``phi(x) = a_1 x_1 + ... + a_n x_n`` over F_p, applied to subsets of [n]."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        capped_count(f"the residues of modulus {self.p}", MODULUS_CAP, self.p)
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        coeffs = tuple(int(a) for a in self.coeffs)
        if any(not 0 <= a < self.p for a in coeffs):
            raise ValueError("coefficients must lie in {0, ..., p-1}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def induced(self, degree: int) -> "InducedForm":
        return InducedForm(base=self, degree=degree)


class InducedForm(Record):
    """Degree-d lift of a linear form to subsets of [n]^d.

    Never stores its own coefficients: the cell (i_1, ..., i_d) always
    carries the product ``a_{i_1} * ... * a_{i_d}`` of the base form's.
    """

    base: LinearFormP
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        _cell_count(self.base.n, (self.degree,))  # refuses [n]^d past CELL_CAP

    @property
    def p(self) -> int:
        return self.base.p


def phi_eval(form: LinearFormP, S: Iterable[int]) -> int:
    """Sum of the coefficients over a subset of [n], mod p."""
    total = 0
    for z in S:
        if not 1 <= z <= form.n:
            raise ValueError(f"element {z} outside [1, {form.n}]")
        total += form.coeffs[z - 1]
    return total % form.p


def support(form: LinearFormP) -> frozenset[int]:
    """The coordinates carrying a nonzero coefficient."""
    return frozenset(z for z, a in enumerate(form.coeffs, start=1) if a)


def coefficient_class_masks(p: int, coeffs: Sequence[int],
                            degree: int) -> tuple[tuple[int, int], ...]:
    """(value, cell bitmask over [n]^degree) per nonzero coefficient value of
    the degree-``degree`` lift of the form with these coefficients mod p,
    values ascending.

    The classes are folded out of the base form's without visiting cells:
    on [n]^(k+1) the class a*w holds the products {x : a_x = a} x M_w of a
    base class and a class of [n]^k.
    """
    n = len(coeffs)
    first: dict[int, int] = {}
    for x, a in enumerate(coeffs):
        if a:
            first[a] = first.get(a, 0) | 1 << x
    masks = first
    for k in range(1, degree):
        folded: dict[int, int] = {}
        for a, row in first.items():
            spread = _cross_bits(n, row, 1, k)  # X x {first cell}; mask * spread is X x M
            for w, mask in masks.items():
                value = a * w % p
                folded[value] = folded.get(value, 0) | mask * spread
        masks = folded
    return tuple(sorted(masks.items()))


def value_counts(p: int, classes: Sequence[tuple[int, int]],
                 weighted: Iterable[tuple[int, int]]) -> list[int]:
    """Total multiplicity of the subsets taking each value 0, ..., p-1 under
    the form with these ``coefficient_class_masks``, read from (bitmask over
    the form's universe, multiplicity) pairs."""
    counts = [0] * p
    for bits, weight in weighted:
        total = 0
        for value, mask in classes:
            total += value * (bits & mask).bit_count()
        counts[total % p] += weight
    return counts


# ---------------------------------------------------------------------------
# Member bit-planes

# _BIT_DIGITS[b] maps a byte to the digit "1" when its bit b is set, else "0"
_BIT_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


def member_planes(members: Sequence[int], cells: int) -> list[int]:
    """The members transposed: entry c has bit j set when ``members[j]``
    holds cell c.

    The members are written once as little-endian bytes, last member first.
    Cell c's byte of every member is then one strided slice, which
    ``bytes.translate`` turns into base-2 digits of the cell's bit and
    ``int`` reads with the first member lowest, so the planes take about as
    much memory as the members.  The bytes are joined 256 members at a time:
    a join holds a list and an 80-byte buffer view of every piece, about
    ten times the bytes it joins.
    """
    width = cells + 7 >> 3
    layout, pending = bytearray(), reversed(members)
    while piece := b"".join(bits.to_bytes(width, "little")
                            for bits in itertools.islice(pending, 256)):
        layout += piece
    return [int(layout[c >> 3::width].translate(_BIT_DIGITS[c & 7]) or b"0", 2)
            for c in range(cells)]


def projection_counts(members: Sequence[int], planes: Sequence[int],
                      support: int) -> dict[int, int]:
    """{projection: number of members} of the ``member & support`` of every
    member, read from the members' ``member_planes``.

    The member set is split cell by cell of the support into parts, each one
    member bitset, whose members agree on the cells so far; a part's
    projection is then that of any of its members.  A part of one member is
    closed at once, so a support that tells the members apart splits into no
    more parts than there are members.
    """
    counts: dict[int, int] = {}
    parts = [(1 << len(members)) - 1]
    for c in _bit_indices(support):
        plane = planes[c]
        split = []
        for part in parts:
            inside = part & plane
            for sub in (inside, part ^ inside):
                if sub & (sub - 1):
                    split.append(sub)
                elif sub:
                    counts[members[sub.bit_length() - 1] & support] = 1
        parts = split
    for part in parts:
        counts[members[part.bit_length() - 1] & support] = part.bit_count()
    return counts


# ---------------------------------------------------------------------------
# Output distributions


def uniformity_bound(p: int, zsize: int) -> Fraction:
    """``p * (1 - p^-2)^{|Z|}``: explicit closeness-to-uniform bound."""
    return p * (1 - Fraction(1, p * p)) ** zsize


class DistributionTable(Record):
    """Distribution of a form's value over a uniformly random subset."""

    p: int
    masses: tuple[Fraction, ...]
    support_size: int
    uniformity_bound: Fraction

    def __post_init__(self):
        if len(self.masses) != self.p:
            raise ValueError("need exactly one mass per residue")
        if sum(self.masses) != 1:
            raise ValueError("masses must sum to 1")

    @property
    def deviation(self) -> Fraction:
        uniform = Fraction(1, self.p)
        return max(abs(q - uniform) for q in self.masses)

    @property
    def within_bound(self) -> bool:
        return self.deviation <= self.uniformity_bound

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "masses": [_frac(q) for q in self.masses],
            "support_size": self.support_size,
            "uniformity_bound": _frac(self.uniformity_bound),
            "deviation": _frac(self.deviation),
            "within_bound": self.within_bound,
        }


def _subset_counts(p: int, sizes) -> list[int]:
    """Subsets of the cells per value, from (value, class size) pairs.

    Of the k cells of value c, residue y gets as many subsets as x^y has in
    (1 + x^c)^k mod (x^p - 1), by repeated squaring; the classes multiply,
    and the counts add up to 2^cells.
    """
    def times(u, v):
        return [sum(u[i] * v[(y - i) % p] for i in range(p)) for y in range(p)]

    counts = [1] + [0] * (p - 1)
    for value, k in sizes:
        factor = [0] * p
        factor[0] = factor[value] = 1
        while k:
            if k & 1:
                counts = times(counts, factor)
            factor = times(factor, factor)
            k >>= 1
    return counts


def distribution(form: InducedForm) -> DistributionTable:
    """Exact distribution table of the form's value over uniform random
    subsets, counted per residue from the coefficient class sizes, which sum
    to the support size |Z|^d (no size limit; the tests check it against a
    walk over every subset).  A linear form is evaluated as its degree-1
    lift ``form.induced(1)``.
    """
    p = form.p
    sizes = [(value, mask.bit_count())
             for value, mask in coefficient_class_masks(p, form.base.coeffs, form.degree)]
    zsize = sum(k for _, k in sizes)
    return DistributionTable(
        p=p, masses=tuple(Fraction(c, 1 << zsize) for c in _subset_counts(p, sizes)),
        support_size=zsize, uniformity_bound=uniformity_bound(p, zsize))


# ---------------------------------------------------------------------------
# Block partitions


class BlockPartition(Record):
    """t rows of m pairwise disjoint form-null blocks of [n].

    Every block has the common size sigma (1 in the small-support case, p
    otherwise) and sums to zero under the owning linear form.  A partition
    is its rows: the elements of [n] that no block holds are left over.
    """

    n: int
    p: int
    m: int
    sigma: int
    rows: tuple[tuple[frozenset[int], ...], ...]

    @property
    def t(self) -> int:
        return len(self.rows)


def _required_rows(n: int, p: int, m: int) -> int:
    """The row bound ceil(n/(pm)) - 2 of a partition of [n], at least 0."""
    return max(math.ceil(n / (p * m)) - 2, 0)


def check_block_partition(partition: BlockPartition, form: LinearFormP) -> None:
    """Raise ValueError if the partition violates any defining guarantee."""
    if form.n != partition.n or form.p != partition.p:
        raise ShapeMismatchError("partition belongs to a different form shape")
    if partition.sigma not in (1, partition.p):
        raise ValueError(f"block size {partition.sigma} not in {{1, p}}")
    seen: set[int] = set()
    for row in partition.rows:
        if len(row) != partition.m:
            raise ValueError("row width differs from m")
        for block in row:
            if len(block) != partition.sigma:
                raise ValueError("block size differs from sigma")
            if block & seen:
                raise ValueError("blocks are not pairwise disjoint")
            seen |= block
            if phi_eval(form, block) != 0:
                raise ValueError(f"block {sorted(block)} has nonzero form value")
    required = _required_rows(partition.n, partition.p, partition.m)
    if partition.t < required:
        raise ValueError(f"only {partition.t} rows, need {required}")


def build_block_partition(form: LinearFormP, m: int) -> BlockPartition:
    """Split [n] into t >= ceil(n/(pm)) - 2 rows of m form-null blocks.

    Small support (2|Z| <= n): singleton blocks from the coefficient-free
    elements in ascending order.  Large support: equal-coefficient p-blocks
    are pulled from a fixed support prefix while it stays thick, then
    zero-sum p-blocks are composed across coefficient classes from whatever
    is left until the row bound is met.  The row bound can be vacuous (0) at
    small n, in which case an empty partition is legitimate.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = form.n
    Z = support(form)
    if 2 * len(Z) <= n:
        free = sorted(set(range(1, n + 1)) - Z)
        t = len(free) // m
        rows = tuple(
            tuple(frozenset((free[i * m + j],)) for j in range(m))
            for i in range(t))
        partition = BlockPartition(n=n, p=form.p, m=m, sigma=1, rows=rows)
    else:
        partition = _large_support_partition(form, m)
    check_block_partition(partition, form)
    return partition


def _large_support_partition(form: LinearFormP, m: int) -> BlockPartition:
    n, p = form.n, form.p
    prefix = sorted(support(form))[:math.ceil(n / 4)]
    rows: list[tuple[frozenset[int], ...]] = []

    # Rows from the prefix while it stays thick enough that a whole row of m
    # blocks is guaranteed to come out: at least p^2 + p elements in at most
    # p - 1 nonzero classes, so one class has p and each block is one class.
    pool = prefix
    while len(pool) >= p * p + m * p:
        row, pool = _block_row(pool, form.coeffs, p, m)
        rows.append(row)

    # Top up with zero-sum blocks drawn from everything still unused until
    # the row bound holds.  While rows are missing the leftover pool keeps at
    # least 2p elements per block extraction, so a zero-sum p-subset always
    # exists and the exhaustive profile search finds one.
    pool = sorted(set(range(1, n + 1)).difference(prefix).union(pool))
    while len(rows) < _required_rows(n, p, m):
        row, pool = _block_row(pool, form.coeffs, p, m)
        rows.append(row)
    return BlockPartition(n=n, p=p, m=m, sigma=p, rows=tuple(rows))


def _block_row(pool: list[int], coeffs: Sequence[int], p: int,
               m: int) -> tuple[tuple[frozenset[int], ...], list[int]]:
    """A row of m blocks, each the ``_zero_sum_block`` of the pool the blocks
    before it left, and the pool the row leaves."""
    row = []
    for _ in range(m):
        block = _zero_sum_block(_coefficient_classes(pool, coeffs), p)
        if block is None:
            raise UniverseTooSmallError(
                f"no zero-sum {p}-block is left among {len(pool)} elements")
        row.append(block)
        pool = [z for z in pool if z not in block]
    return tuple(row), pool


def _coefficient_classes(pool, coeffs) -> dict[int, list[int]]:
    """The pool's elements by coefficient value, each class in pool order."""
    classes: dict[int, list[int]] = {}
    for z in pool:
        classes.setdefault(coeffs[z - 1], []).append(z)
    return classes


def _zero_sum_block(classes, p):
    """A p-element subset of the pool whose coefficients sum to 0 mod p,
    given the pool's ``_coefficient_classes``.

    Prefers the p smallest elements of the first class with p; otherwise
    takes the first per-class count profile (classes by ascending value,
    profiles in lexicographic order) with total p and weighted sum 0, using
    the smallest elements of each class.
    """
    values = sorted(classes)
    for v in values:
        if len(classes[v]) >= p:
            return frozenset(classes[v][:p])
    ranges = [range(min(len(classes[v]), p) + 1) for v in values]
    for profile in itertools.product(*ranges):
        if sum(profile) != p:
            continue
        if sum(v * k for v, k in zip(values, profile)) % p:
            continue
        chosen: list[int] = []
        for v, k in zip(values, profile):
            chosen.extend(classes[v][:k])
        return frozenset(chosen)
    return None


# ---------------------------------------------------------------------------
# Block products of a row


def _product_table(partition: BlockPartition, row: int, degree: int) -> tuple[int, ...]:
    """Bitmask over [n]^degree of each complete block product of a row,
    indexed by the row-major cell index of the small universe [m]^degree.
    The products tile the row region X_i^degree."""
    blocks = [sum(1 << z - 1 for z in b) for b in partition.rows[row - 1]]
    table = blocks
    for k in range(1, degree):
        table = [_cross_bits(partition.n, b, t, k) for b in blocks for t in table]
    return tuple(table)


def lift_bits(table: Sequence[int], member: int) -> int:
    """Small-universe bits of the products of a row's ``_product_table``
    that ``member`` holds whole: the lift of a member of the row's cell."""
    chosen = 0
    for idx, product in enumerate(table):
        if member & product == product:
            chosen |= 1 << idx
    return chosen


# ---------------------------------------------------------------------------
# Form files

_FORM_HEADER = re.compile(r"p=(\d+)")


def forms_from_text(text: str) -> list[LinearFormP]:
    """Parse a form file: a ``p=<prime>`` header line, then one
    space-separated coefficient row per form.

    Blank lines and ``#`` comments are skipped; coefficients may be arbitrary
    integers and are reduced mod p.
    """
    lines = _content_lines(text, "form")
    header = next(lines)
    match = _FORM_HEADER.fullmatch(header)
    if not match:
        raise FormatError(f"bad form header {header!r}, expected p=<prime>")
    p = int(match.group(1))
    capped_count(f"the residues of modulus {p}", MODULUS_CAP, p)
    if not _is_prime(p):
        raise FormatError(f"modulus {p} is not prime")
    forms = []
    for ln in lines:
        try:
            raw = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise FormatError(f"bad coefficient row {ln!r}") from exc
        forms.append(LinearFormP(p=p, coeffs=tuple(a % p for a in raw)))
    if not forms:
        raise FormatError("form file has no coefficient rows")
    return forms
