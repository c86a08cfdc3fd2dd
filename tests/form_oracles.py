"""Checkers of the F_p layer that no subcommand calls.

``eval_on_bits`` evaluates a form on one subset through its class masks,
and ``Phi_eval`` cell by cell, independently of them; ``cell_form_value``
and ``cell_value_report`` state the constant value of a block cell and
compare the cell values with the global distribution; ``leftover`` is the
part of [n] a block partition leaves out.
"""

from __future__ import annotations

from fractions import Fraction

from setdifflab.errors import ShapeMismatchError, UniverseTooSmallError
from setdifflab.fpforms import (
    BlockPartition,
    InducedForm,
    _product_table,
    _subset_counts,
    coefficient_class_masks,
)
from setdifflab.universe import Record, SubsetMask


def class_masks(form: InducedForm):
    """``coefficient_class_masks`` of an induced form."""
    return coefficient_class_masks(form.p, form.base.coeffs, form.degree)


def leftover(partition: BlockPartition) -> frozenset[int]:
    """The elements of [n] that no block of the partition holds."""
    return frozenset(range(1, partition.n + 1)).difference(*sum(partition.rows, ()))


def masses_from_classes(p: int, classes) -> tuple[Fraction, ...]:
    """Value distribution of a uniform subset of the cells in ``classes``,
    given as (value, cell mask) pairs."""
    sizes = [(value, mask.bit_count()) for value, mask in classes]
    cells = sum(k for _, k in sizes)
    return tuple(Fraction(c, 1 << cells) for c in _subset_counts(p, sizes))


def eval_on_bits(form, bits: int) -> int:
    """The form's value on one subset, given as a bitmask over its universe."""
    total = 0
    for value, mask in class_masks(form):
        total += value * (bits & mask).bit_count()
    return total % form.p


def Phi_eval(form: InducedForm, A: SubsetMask) -> int:
    """Sum of the coefficient products over the cells of A, mod p."""
    shape = A.shape
    if shape.degrees != (form.degree,) or shape.n != form.base.n:
        raise ShapeMismatchError(
            f"mask over {shape.degrees}/{shape.n} fed to an induced form of "
            f"degree {form.degree} over [{form.base.n}]")
    coeffs = form.base.coeffs
    p = form.p
    total = 0
    for i, (_part, coords) in enumerate(shape.points()):
        if not A.bits >> i & 1:
            continue
        term = 1
        for i in coords:
            term = term * coeffs[i - 1] % p
        total += term
    return total % p


def cell_form_value(form: InducedForm, partition: BlockPartition, row: int,
                    background: SubsetMask) -> int:
    """The common value of the induced form on every member of the cell.

    A complete block product contributes the product of the per-block form
    values, all zero by construction, so only the background survives.
    """
    if form.base.n != partition.n or form.p != partition.p:
        raise ShapeMismatchError("form and partition disagree on n or p")
    if background.bits & sum(_product_table(partition, row, form.degree)):
        raise ValueError("background must be disjoint from the row region")
    return Phi_eval(form, background)


class CellValueReport(Record):
    """Cell-value distribution (uniform row, uniform background) vs global."""

    cell_masses: tuple[Fraction, ...]
    global_masses: tuple[Fraction, ...]
    gaps: tuple[Fraction, ...]

    @property
    def max_gap(self) -> Fraction:
        return max(self.gaps)


def cell_value_report(form: InducedForm, partition: BlockPartition) -> CellValueReport:
    """Compare the constant cell values against the global distribution.

    The cell value equals the induced form on the background, so per row the
    value of a uniform background is distributed as the form's value on the
    cells off that row's region X_i^d; rows are then averaged.
    """
    if form.base.n != partition.n or form.p != partition.p:
        raise ShapeMismatchError("form and partition disagree on n or p")
    if partition.t == 0:
        raise UniverseTooSmallError("partition has no rows to average over")
    p = form.p
    classes = class_masks(form)
    acc = [Fraction(0)] * p
    for row in range(1, partition.t + 1):
        region = sum(_product_table(partition, row, form.degree))
        off = [(value, mask & ~region) for value, mask in classes]
        for y, q in enumerate(masses_from_classes(p, off)):
            acc[y] += q
    cell_masses = tuple(q / partition.t for q in acc)
    global_masses = masses_from_classes(p, classes)
    gaps = tuple(abs(a - b) for a, b in zip(cell_masses, global_masses))
    return CellValueReport(cell_masses=cell_masses, global_masses=global_masses,
                           gaps=gaps)
