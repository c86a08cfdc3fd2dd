"""Exception types shared across the package.

Everything derives from ValueError so that careless callers still get a
sensible failure; the CLI maps the distinct classes to distinct exit codes.
"""


class FormatError(ValueError):
    """A text artifact (family / form / bundle file) failed to parse."""


class ShapeMismatchError(ValueError):
    """Operands live over different universe shapes."""


class UnsatisfiablePredicateError(ValueError):
    """A window pattern family is empty (p(P) = 0)."""


class UniverseTooSmallError(ValueError):
    """A construction ran out of room (e.g. no block extractable)."""


class CapExceededError(ValueError):
    """A configured enumeration budget or vertex cap was exceeded."""


def capped_count(what: str, cap: int, base: int, exponent: int = 1,
                 factor: int = 1) -> int:
    """Return the count factor * base^exponent, or raise CapExceededError,
    naming ``what`` was counted and the cap, when it exceeds ``cap``.

    Every budget in the package is checked here, before the work it bounds.
    The power is multiplied out only while the product is within the cap,
    so no number above cap * base is formed."""
    count = factor
    for _ in range(exponent if base > 1 else min(exponent, 1)):  # 0 or 1: one factor
        if count > cap:
            break
        count *= base
    if count > cap:
        raise CapExceededError(f"over budget: {what} exceed the cap {cap}")
    return count


class ContractViolationError(AssertionError):
    """A computed result broke a guarantee the package checks itself: an
    extremal record failed re-verification, or guaranteed increment steps
    outran their iteration cap."""
