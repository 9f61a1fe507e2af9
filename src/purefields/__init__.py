"""Exact integral bases of pure fields Q(m^(1/n)) for square-free m.

The package computes explicit integral bases from closed-form constructions,
cross-checks the p-indices against Newton polygons, tabulates the periodic
behavior of the bases modulo a fixed modulus, and certifies every emitted
basis with independent brute-force oracles.

The names below are the documented library surface; everything else is
reached through its submodule.
"""

from .exactmath import QPolynomial
from .oracle import (
    CertificationReport,
    CounterexampleFound,
    MaximalityResult,
    Proved,
    Skipped,
    basis_discriminant,
    certify,
    is_algebraic_integer,
    p_maximality_enum,
)
from .periodicity import (
    ParametricRow,
    PeriodAtlas,
    SkippedClass,
    UnknownRow,
    atlas,
    verify_periodicity,
)
from .purebasis import (
    BasisElement,
    CertificationSkipped,
    IndexReport,
    IntegralBasis,
    PureField,
    UnknownSquareFreeError,
    integral_basis,
)

__all__ = [
    "BasisElement",
    "CertificationReport",
    "CertificationSkipped",
    "CounterexampleFound",
    "IndexReport",
    "IntegralBasis",
    "MaximalityResult",
    "ParametricRow",
    "PeriodAtlas",
    "Proved",
    "PureField",
    "QPolynomial",
    "Skipped",
    "SkippedClass",
    "UnknownRow",
    "UnknownSquareFreeError",
    "atlas",
    "basis_discriminant",
    "certify",
    "integral_basis",
    "is_algebraic_integer",
    "p_maximality_enum",
    "verify_periodicity",
]

__version__ = "0.1.0"
