"""Density increment driven by distinguishing linear forms.

A family that is *not* close to uniform under some induced form must
concentrate on a block-constant cell of the form's block partition; pulling
the family back through that cell's product isomorphism yields a denser
family over a smaller universe.  Iterating either certifies pool-uniformity,
finds a pattern pair along the way, or runs out of room.

The form search counts one form per projective class {c*phi : c != 0}:
scaling by c permutes the residues of the induced form, so the whole class
shares one gap.  Classes are walked grouped by support; each representative
is counted over the family's projections onto that support, weighted by how
many members share each projection, against the global distribution read
from a per-search memo keyed by the class-size signature.

Neither the search nor the step loops over the members per form or per row.
Each transposes the family once into member bit-planes (one member bitset
per cell); the search splits each support's projections out of them.  The
step's row count, ``universe._densest_cell`` over each row's members constant
on its block products, is its one block-constancy test: only the members the
winning row kept are lifted.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (CapExceededError, ContractViolationError, ShapeMismatchError,
                     UniverseTooSmallError, capped_count)
from .fpforms import (
    MODULUS_CAP,
    BlockPartition,
    LinearFormP,
    _product_table,
    _subset_counts,
    build_block_partition,
    coefficient_class_masks,
    member_planes,
    projection_counts,
    value_counts,
)
from .patterns import PolynomialDifference, find_pattern_pair
from .universe import (Family, Record, SubsetMask, UniverseShape, _bit_indices, _densest_cell,
                       _restrict_bits, _runs, single_part_degree)

DEFAULT_FORM_BUDGET = 1 << 20
POWER_BITS_CAP = 1 << 20  # the bits of ratio^q at iteration_cap's bound on q

Numeric = Union[int, Fraction]


class DistinguishingReport(Record):
    """A form whose induced distribution on the family strays from global."""

    form: LinearFormP
    y: int
    gap: Fraction
    scope: str  # "exhaustive" or "pool"

    def __post_init__(self):
        if self.gap < 0:
            raise ValueError("gap must be nonnegative")

    def to_json(self) -> dict:
        return {
            "form": {"p": self.form.p, "coeffs": list(self.form.coeffs)},
            "y": self.y,
            "gap": self.gap,
            "scope": self.scope,
        }


def _representatives(p: int, n: int, exhaustive: bool) -> Iterator[tuple[int, ...]]:
    """One coefficient vector per projective class {c*a : c != 0}: the zero
    vector, then each support (by size, then in combinations order) with its
    vectors whose first nonzero coefficient is 1.  If ``exhaustive``, every
    support is walked and the last nonzero coefficient is the 1 instead;
    otherwise the supports stop at weight 2, and the classes come in the
    order of their first members in the weight-<=2 pool.
    """
    yield (0,) * n
    for k in range(1, (n if exhaustive else 2) + 1):
        for zs in itertools.combinations(range(n), k):
            for rest in itertools.product(range(1, p), repeat=k - 1):
                coeffs = [0] * n
                for z, a in zip(zs, (*rest, 1) if exhaustive else (1, *rest)):
                    coeffs[z] = a
                yield tuple(coeffs)


def find_distinguishing_form(fam: Family, p: int, eta: Numeric,
                             search_budget: int = DEFAULT_FORM_BUDGET,
                             extra_forms: Sequence[LinearFormP] = (),
                             ) -> Optional[DistinguishingReport]:
    """Search linear forms for an induced-distribution gap of at least eta.

    All p^n forms are tried when p^n fits the budget; otherwise the search
    falls back to the weight-<=2 pool plus any user-supplied forms, and a
    miss then only certifies "pool"-uniformity.  Returns the maximal-gap
    report (first form, then smallest y, on ties) or None below threshold.

    Scaling a form by c != 0 scales its degree-d lift by c^d, which permutes
    the residues: c*phi takes c^d * y wherever phi takes y.  So the search
    counts one representative per class {c*phi}, its member that comes first
    in the search order, walking the classes grouped by support so that the
    projection of the family onto a support is built once.  The family is
    transposed once into member bit-planes, and each projection is split out
    of the planes of the support's cells (``projection_counts``).  Only the
    winning coefficient tuple becomes a ``LinearFormP``.

    The winner is the largest gap, then the earliest position in the search
    order, then the smallest y.  Exhaustive order reads a form as the base-p
    number sum a_z p^z, first coordinate fastest, so a representative ends
    in coefficient 1.  The pool lists a support's forms by ascending first
    coefficient, so a representative starts with 1 and the walk visits
    classes in order; user forms follow the pool in the order given, each
    counted as itself.  Gaps are compared exactly, as integers over one
    denominator |F| * 2^(universe cells).
    """
    if not fam.members:
        raise ValueError("family is empty")
    eta = Fraction(eta)
    degree = single_part_degree(fam.shape)
    n = fam.shape.n
    LinearFormP(p=p, coeffs=(0,) * n)  # refuses an over-cap or composite p
    exhaustive = True  # all p^n forms, when they fit the budget
    try:
        capped_count("forms", search_budget, p, n)
    except CapExceededError:
        exhaustive = False
    scope = "exhaustive" if exhaustive else "pool"
    candidates: Iterable[tuple[int, ...]] = _representatives(p, n, exhaustive)
    if not exhaustive:
        for form in extra_forms:
            if form.p != p or form.n != n:
                raise ShapeMismatchError(
                    f"candidate form {form} does not fit p={p}, n={n}")
        candidates = itertools.chain(candidates, (f.coeffs for f in extra_forms))
    members = list(fam.members)
    planes = member_planes(members, fam.shape.cells)
    size, total = len(members), fam.shape.cells
    support = projection = None
    global_memo: dict[tuple[tuple[int, int], ...], list[int]] = {}
    best = (-1, 0, 0, ())  # (num, position, y, coeffs) of the largest gap num / (size << total)
    for index, coeffs in enumerate(candidates):
        classes = coefficient_class_masks(p, coeffs, degree)
        union = 0
        for _, mask in classes:
            union |= mask
        if union != support:
            support, cells = union, union.bit_count()
            projection = projection_counts(members, planes, support)
        counts = value_counts(p, classes, projection.items())
        signature = tuple((value, mask.bit_count()) for value, mask in classes)
        subsets = global_memo.get(signature)
        if subsets is None:
            subsets = global_memo[signature] = _subset_counts(p, signature)
        nums = [abs((c << cells) - s * size) for c, s in zip(counts, subsets)]
        top = max(nums)
        num = top << total - cells
        if num < best[0]:
            continue
        position = index  # the pool walk runs in search order
        if exhaustive:
            position = sum(a * p ** z for z, a in enumerate(coeffs))
        if num > best[0] or position < best[1]:
            best = (num, position, nums.index(top), coeffs)
    num, _, y, coeffs = best
    gap = Fraction(num, size << total)
    if gap < eta:
        return None
    return DistinguishingReport(form=LinearFormP(p=p, coeffs=coeffs), y=y,
                                gap=gap, scope=scope)


class IncrementStep(Record):
    """Result of one increment: the chosen cell and the pulled-back family.

    The cell is the subsets of [n]^d that keep ``background`` off the region
    X_i^d of the partition's row ``row`` and are block-constant on it: the
    bijective image of P([m]^d), a member being the background plus one
    complete block product per chosen cell of [m]^d.
    """

    partition: BlockPartition
    row: int
    background: SubsetMask
    family: Family
    density: Fraction
    previous_density: Fraction
    guarantee_ratio: Fraction
    guaranteed: bool


def increment_step(fam: Family, report: DistinguishingReport, m: int) -> IncrementStep:
    """Scan the form's block cells for the densest one and pull back into it.

    A member lies in a row's cell when it is constant on each block product
    of the row; the cell is the background it keeps off the row region.  So
    each row hands ``universe._densest_cell`` the members constant on every
    product, read from the member bit-planes.  Only the members the winning
    row keeps are lifted: each holds a product whole or not at all, so the
    lift reads each product's lowest cell through one run table.

    The returned family lives over [m]^d.  The step is flagged guaranteed
    when the relative density reaches the previous density times
    ``1 + gap/3`` (the increment the theory promises once its size
    preconditions hold).
    """
    degree = single_part_degree(fam.shape)
    shape = fam.shape
    if report.form.n != shape.n:
        raise ShapeMismatchError("report's form lives on a different [n]")
    previous = fam.density()
    partition = build_block_partition(report.form, m)
    if partition.t == 0:
        raise UniverseTooSmallError(
            f"block partition of [{shape.n}] at m={m} produced no rows")

    members = list(fam.members)
    planes = member_planes(members, shape.cells)
    def kept(table: Sequence[int]):  # the members constant on every product, in member order
        constant = (1 << len(members)) - 1  # member bits, constant so far
        for product in table:
            ones = zeros = constant
            for c in _bit_indices(product):
                ones &= planes[c]
                zeros &= ~planes[c]
            constant &= ones | zeros
        selector = bin(constant)[:1:-1].encode()  # lowest member first
        return itertools.compress(members, selector.translate(bytes.maketrans(b"01", b"\0\1")))
    def row_cells(index: int):  # row index + 1: the members in its cells, the mask off them
        table = _product_table(partition, index + 1, degree)
        return kept(table), ~sum(table)
    index, background, _, _ = _densest_cell(map(row_cells, range(partition.t)))
    table = _product_table(partition, index + 1, degree)
    off = ~sum(table)
    runs = _runs(((product & -product).bit_length() - 1, j) for j, product in enumerate(table))
    lifted = Family(UniverseShape((degree,), m), frozenset(
        _restrict_bits(bits, runs) for bits in kept(table) if bits & off == background))
    density = lifted.density()
    ratio = 1 + Fraction(report.gap) / 3
    return IncrementStep(
        partition=partition, row=index + 1, background=SubsetMask(shape, background),
        family=lifted, density=density, previous_density=previous,
        guarantee_ratio=ratio,
        guaranteed=report.gap > 0 and density >= previous * ratio)


def iteration_cap(delta: Numeric, eta: Numeric, p: int) -> int:
    """Smallest q with delta * (1 + eta/3p)^q >= 1, computed exactly.

    This equals ceil(log(1/delta) / log(1 + eta/3p)) away from boundary
    cases, but avoids floating logs entirely.  With delta = a/b and the ratio
    A/B it compares a A^q with b B^q on integers, doubling q, then bisecting.
    At an upper bound on q, ratio^q past POWER_BITS_CAP bits is refused first.
    """
    delta = Fraction(delta)
    eta = Fraction(eta)
    if not 0 < delta <= 1:
        raise ValueError("density must lie in (0, 1]")
    if eta <= 0 or p < 1:  # else the ratio is at most 1 and no q exists
        raise ValueError("eta and p must be positive")
    # the integers compared grow with p
    capped_count(f"the residues of modulus {p}", MODULUS_CAP, p)
    if delta == 1:
        return 0
    ratio = 1 + eta / (3 * p)
    a, b, A, B = delta.numerator, delta.denominator, ratio.numerator, ratio.denominator
    bound = -(-(b.bit_length() - a.bit_length() + 1) * A // (A - B))  # >= q: ln(1+x) >= x/(1+x)
    capped_count("the bits of (1 + eta/3p)^q", POWER_BITS_CAP, bound * A.bit_length())
    step = 1  # doubled until delta * ratio^step >= 1
    while a * A ** step < b * B ** step:
        step *= 2
    q = 0  # the largest q with delta * ratio^q < 1, built bit by bit
    while step > 1:
        step //= 2
        if a * A ** (q + step) < b * B ** (q + step):
            q += step
    return q + 1


class IncrementTrace(Record):
    """What the quasirandomization loop did, step by step."""

    steps: tuple[tuple[DistinguishingReport, IncrementStep], ...]
    status: str
    cap: int
    initial_density: Fraction
    final_density: Fraction

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        steps = []
        for report, step in self.steps:
            steps.append({
                "n": step.partition.n,
                "m": step.partition.m,
                "row": step.row,
                "blocks": [sorted(b) for b in step.partition.rows[step.row - 1]],
                "background": step.background.to_hex(),
                "density_before": step.previous_density,
                "density_after": step.density,
                "guarantee_ratio": step.guarantee_ratio,
                "guaranteed": step.guaranteed,
                "report": report.to_json(),
            })
        return {
            "steps": steps,
            "iterations": self.iterations,
            "cap": self.cap,
            "status": self.status,
            "initial_density": self.initial_density,
            "final_density": self.final_density,
        }


def default_m_schedule(n: int, p: int) -> int:
    """Window size floor(sqrt(n/p)); 0 signals that the universe ran out."""
    return math.isqrt(n // p)


def quasirandomize(fam: Family, p: int, eta: Numeric,
                   m_schedule: Optional[Iterable[int]] = None,
                   search_budget: int = DEFAULT_FORM_BUDGET,
                   extra_forms: Sequence[LinearFormP] = (),
                   max_steps: Optional[int] = None):
    """Iterate distinguishing-form search (threshold eta/p) and increment.

    Stops when no distinguishing form remains ("uniform"), when the current
    family exhibits a power-difference pair after a step ("pattern-found"),
    or with an "inconclusive:*" status when the schedule or progress runs
    out.  Returns (final family, IncrementTrace, pattern pair or None).
    ``extra_forms`` live over the input's [n], so only the first search
    offers them.
    """
    eta = Fraction(eta)
    pattern = PolynomialDifference((single_part_degree(fam.shape),))
    initial_density = fam.density()
    cap = iteration_cap(initial_density, eta, p)
    if max_steps is None:
        max_steps = cap
    threshold = eta / p

    steps: list[tuple[DistinguishingReport, IncrementStep]] = []
    pair = None
    schedule = iter(m_schedule) if m_schedule is not None else None

    while True:
        report = find_distinguishing_form(fam, p, threshold,
                                          search_budget=search_budget,
                                          extra_forms=extra_forms)
        extra_forms = ()
        if report is None:
            status = "uniform"
            break
        if len(steps) >= max_steps:
            status = "inconclusive:max-steps"
            break
        m = (next(schedule, 0) if schedule is not None  # an exhausted schedule reads 0
             else default_m_schedule(fam.shape.n, p))
        if m < 1:
            status = "inconclusive:m-schedule"
            break
        try:
            step = increment_step(fam, report, m)
        except UniverseTooSmallError:
            status = "inconclusive:partition"
            break
        if step.density <= step.previous_density:
            status = "inconclusive:no-progress"
            break
        steps.append((report, step))
        fam = step.family
        found = find_pattern_pair(fam, pattern)
        if found is not None:
            status = "pattern-found"
            pair = found
            break

    trace = IncrementTrace(
        steps=tuple(steps), status=status, cap=cap,
        initial_density=initial_density, final_density=fam.density())
    if steps and all(s.guaranteed for _, s in steps) and trace.iterations > cap:
        raise ContractViolationError(
            f"{trace.iterations} guaranteed steps exceed the cap {cap}")
    return fam, trace, pair
