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
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (CapExceededError, ContractViolationError, ShapeMismatchError,
                     UniverseTooSmallError)
from .fpforms import (
    MODULUS_CAP,
    BlockCell,
    LinearFormP,
    _product_table,
    _subset_counts,
    build_block_partition,
    coefficient_class_masks,
    lift_bits,
    value_counts,
)
from .patterns import PolynomialDifference, find_pattern_pair
from .universe import Family, Record, SubsetMask, _frac, single_part_degree

DEFAULT_FORM_BUDGET = 1 << 20

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
            "gap": _frac(self.gap),
            "scope": self.scope,
        }


def _representatives(p: int, n: int, weight: int) -> Iterator[tuple[int, ...]]:
    """One coefficient vector per projective class {c*a : c != 0} of weight
    at most ``weight``: the zero vector, then each support (by size, then in
    combinations order) with its vectors whose first nonzero coefficient is 1.

    Up to weight 2 this lists the classes in the order of their first
    members in the weight-<=2 pool, which are these representatives.
    """
    yield (0,) * n
    for k in range(1, weight + 1):
        for zs in itertools.combinations(range(n), k):
            for rest in itertools.product(range(1, p), repeat=k - 1):
                coeffs = [0] * n
                for z, a in zip(zs, (1, *rest)):
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
    counts one representative per class {c*phi} (first nonzero coefficient
    1), walking the classes grouped by support so that the projection of
    the family onto a support is built once.  The winner is the largest
    gap, then the earliest position in the search order, then the smallest
    y.  Exhaustive order reads a form as the base-p number sum a_z p^z,
    first coordinate fastest, so a class's earliest member is the multiple
    whose last nonzero coefficient is 1.  The pool lists a support's forms
    by ascending first coefficient, so there the representative comes first
    and the walk visits classes in order; user forms follow the pool in the
    order given, each counted as itself.  Gaps are compared exactly, as
    integers over |F| * 2^cells.
    """
    if not fam.members:
        raise ValueError("family is empty")
    eta = Fraction(eta)
    degree = single_part_degree(fam.shape)
    n = fam.shape.n
    exhaustive = p ** n <= search_budget
    scope = "exhaustive" if exhaustive else "pool"
    # The first representative is the zero form, whose LinearFormP refuses a
    # composite p before any class is counted.
    candidates: Iterable[LinearFormP] = (
        LinearFormP(p=p, coeffs=coeffs)
        for coeffs in _representatives(p, n, n if exhaustive else 2))
    if not exhaustive:
        candidates = itertools.chain(candidates, extra_forms)
    size = len(fam.members)
    support = projection = None
    global_memo: dict[tuple[tuple[int, int], ...], list[int]] = {}
    best = None  # (num, cells, position, y, form) of the largest gap num / (size * 2^cells)
    for index, form in enumerate(candidates):
        if form.p != p or form.n != n:
            raise ShapeMismatchError(f"candidate form {form} does not fit p={p}, n={n}")
        induced = form.induced(degree)
        classes = coefficient_class_masks(induced)
        union = 0
        for _, mask in classes:
            union |= mask
        if union != support:
            support, cells = union, union.bit_count()
            projection = Counter(map(support.__and__, fam.members))
        counts = value_counts(p, classes, projection.items())
        signature = tuple((value, mask.bit_count()) for value, mask in classes)
        subsets = global_memo.get(signature)
        if subsets is None:
            subsets = global_memo[signature] = _subset_counts(p, signature)
        nums = [abs((c << cells) - s * size) for c, s in zip(counts, subsets)]
        top = max(nums)
        if best is not None:
            above, below = top << best[1], best[0] << cells
            if above < below:
                continue
        scale, position = 1, index  # the pool walk runs in search order
        if exhaustive:
            scale = pow(next((a for a in reversed(form.coeffs) if a), 1), -1, p)
            position = sum(scale * a % p * p ** z for z, a in enumerate(form.coeffs))
        if best is None or above > below or position < best[2]:
            power = pow(scale, degree, p)
            y = min(power * r % p for r, num in enumerate(nums) if num == top)
            if scale != 1:
                form = LinearFormP(p=p, coeffs=tuple(scale * a % p for a in form.coeffs))
            best = (top, cells, position, y, form)
    num, cells, _, y, form = best
    gap = Fraction(num, size << cells)
    if gap < eta:
        return None
    return DistinguishingReport(form=form, y=y, gap=gap, scope=scope)


class IncrementStep(Record):
    """Result of one increment: the chosen cell and the pulled-back family."""

    cell: BlockCell
    family: Family
    density: Fraction
    previous_density: Fraction
    guarantee_ratio: Fraction
    guaranteed: bool

    def __iter__(self):
        yield self.cell
        yield self.family
        yield self.density


def increment_step(fam: Family, report: DistinguishingReport, m: int,
                   expect_guarantee: bool = False) -> IncrementStep:
    """Scan the form's block cells for the densest one and pull back into it.

    The returned family lives over [m]^d.  The step is flagged guaranteed
    when the relative density reaches the previous density times
    ``1 + gap/3`` (the increment the theory promises once its size
    preconditions hold); with ``expect_guarantee`` a step that fails to beat
    the previous density at all raises ContractViolationError.
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

    # Each member is lifted once per row; only one row's cells are held, and
    # a row's densest cell replaces the best so far only when strictly denser.
    row, background, members = 1, 0, []
    for r in range(1, partition.t + 1):
        table = _product_table(partition, r, degree)
        region = sum(table)
        cells: dict[int, list[int]] = {}
        for bits in fam.members:
            chosen = lift_bits(table, bits & region)
            if chosen is not None:
                cells.setdefault(bits & ~region, []).append(chosen)
        densest = max(cells, key=lambda b: (len(cells[b]), -b), default=0)
        if len(cells.get(densest, ())) > len(members):
            row, background, members = r, densest, cells[densest]
    cell = BlockCell(partition=partition, row=row,
                     background=SubsetMask(shape, background))
    density = Fraction(len(members), len(cell))
    if expect_guarantee and density <= previous:
        raise ContractViolationError(
            f"no cell beats density {previous}; distinguishing gap {report.gap}")
    lifted = Family(cell.small_shape(), frozenset(members))
    ratio = 1 + Fraction(report.gap) / 3
    return IncrementStep(
        cell=cell, family=lifted, density=density, previous_density=previous,
        guarantee_ratio=ratio,
        guaranteed=report.gap > 0 and density >= previous * ratio)


def iteration_cap(delta: Numeric, eta: Numeric, p: int) -> int:
    """Smallest q with delta * (1 + eta/3p)^q >= 1, computed exactly.

    This equals ceil(log(1/delta) / log(1 + eta/3p)) away from boundary
    cases, but avoids floating logs entirely.  With delta = a/b and the ratio
    A/B it compares a A^q with b B^q on integers, doubling q, then bisecting.
    """
    delta = Fraction(delta)
    eta = Fraction(eta)
    if not 0 < delta <= 1:
        raise ValueError("density must lie in (0, 1]")
    if eta <= 0 or p < 1:  # else the ratio is at most 1 and no q exists
        raise ValueError("eta and p must be positive")
    if p > MODULUS_CAP:  # the integers compared grow with p
        raise CapExceededError(f"modulus {p} exceeds the cap {MODULUS_CAP}")
    if delta == 1:
        return 0
    ratio = 1 + eta / (3 * p)
    a, b, A, B = delta.numerator, delta.denominator, ratio.numerator, ratio.denominator
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
            cell = step.cell
            steps.append({
                "n": cell.background.shape.n,
                "m": cell.partition.m,
                "row": cell.row,
                "blocks": [sorted(b) for b in cell.partition.rows[cell.row - 1]],
                "background": cell.background.to_hex(),
                "density_before": _frac(step.previous_density),
                "density_after": _frac(step.density),
                "guarantee_ratio": _frac(step.guarantee_ratio),
                "guaranteed": step.guaranteed,
                "report": report.to_json(),
            })
        return {
            "steps": steps,
            "iterations": self.iterations,
            "cap": self.cap,
            "status": self.status,
            "initial_density": _frac(self.initial_density),
            "final_density": _frac(self.final_density),
        }


def default_m_schedule(n: int, p: int) -> int:
    """Window size floor(sqrt(n/p)); 0 signals that the universe ran out."""
    return math.isqrt(n // p)


def quasirandomize(fam: Family, p: int, eta: Numeric,
                   m_schedule: Optional[Sequence[int]] = None,
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
    cap = iteration_cap(initial_density, eta, p) if initial_density > 0 else 0
    if max_steps is None:
        max_steps = cap
    threshold = eta / p

    steps: list[tuple[DistinguishingReport, IncrementStep]] = []
    status = "uniform"
    pair = None
    schedule = list(m_schedule) if m_schedule is not None else None

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
        if schedule is not None:
            if not schedule:
                status = "inconclusive:m-schedule"
                break
            m = schedule.pop(0)
        else:
            m = default_m_schedule(fam.shape.n, p)
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
