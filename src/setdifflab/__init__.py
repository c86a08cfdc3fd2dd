"""Exact toolkit for set-difference density problems on coordinate-power
universes: pattern witnesses, window covering and double counting, F_p
linear-form distinguishers with density increments, equivalence reductions,
and a branch-and-bound extremal oracle."""

__version__ = "0.1.0"
