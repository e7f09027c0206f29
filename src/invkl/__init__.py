"""Canonical bases and Kazhdan-Lusztig tables for involution modules of Hecke algebras."""

from .coxeter import CoxeterSystem, GroupElement, build_system
from .errors import (
    InvariantError,
    NotDivisible,
    RecurrenceInconsistent,
    RelationViolated,
    TheoremMismatch,
)
from .laurent import LaurentPoly

__all__ = [
    "CoxeterSystem",
    "GroupElement",
    "build_system",
    "LaurentPoly",
    "InvariantError",
    "NotDivisible",
    "RecurrenceInconsistent",
    "TheoremMismatch",
    "RelationViolated",
]

__version__ = "0.1.0"
