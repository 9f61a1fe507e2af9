"""Periodicity of integral bases in the radicand.

For fixed degree n, the integral basis of Q(m^(1/n)) written as polynomials
in the root depends only on m modulo

    n0 = prod over p | n of p^(v_p(n) + 1),

as long as m stays square-free.  This module computes n0, builds the atlas
mapping each residue class r mod n0 to its parametric basis row, and checks
the periodicity claim on demand for concrete pairs of radicands.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import QPolynomial, SquareFree, factorize, square_free_check
from .purebasis import BasisElement, PureField, integral_basis
from .purebasis import ENUM_BUDGET_DEFAULT, CertificationSkipped, budget_skip_reason

__all__ = [
    "ParametricRow",
    "PeriodAtlas",
    "SkippedClass",
    "UnknownRow",
    "atlas",
    "atlas_json_dict",
    "atlas_pretty",
    "period_modulus",
    "verify_periodicity",
]


def period_modulus(n: int) -> int:
    """Smallest modulus n0 such that the basis shape depends only on m mod n0."""
    return _period(_factorization(n))


def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    return tuple(factorize(n))


def _period(factorization: tuple[tuple[int, int], ...]) -> int:
    return math.prod(p ** (k + 1) for p, k in factorization)


@dataclass(frozen=True)
class ParametricRow:
    """Basis row shared by every square-free radicand in one residue class."""

    witness: int
    second_witness: int
    elements: tuple[BasisElement, ...]

    @property
    def polynomials(self) -> tuple[QPolynomial, ...]:
        """The row as rational polynomials N(X)/d, built on each read."""
        return tuple(e.numerator / e.denominator for e in self.elements)


@dataclass(frozen=True)
class SkippedClass:
    """Residue class containing no square-free integers."""

    reason: str


@dataclass(frozen=True)
class UnknownRow:
    """Class where the scan found fewer than two square-free witnesses."""

    scan_bound: int


AtlasRow = ParametricRow | SkippedClass | UnknownRow


@dataclass(frozen=True)
class PeriodAtlas:
    n: int
    n0: int
    rows: dict[int, AtlasRow]


def _square_free_witnesses(r: int, n0: int, scan_bound: int):
    """Square-free m with m = r mod n0 (0 <= r < n0), |m| <= scan_bound,
    smallest first.

    Ties between m and -m go to the positive one; 0 and +-1 are not radicands.
    """
    # r + n0*t (t >= 0) and r - n0*t (t >= 1) each run outward in |m|, so
    # merging them lazily costs nothing beyond the witnesses taken
    members = heapq.merge(
        itertools.count(r, n0),
        itertools.count(r - n0, -n0),
        key=lambda m: (abs(m), m < 0),
    )
    for m in itertools.takewhile(lambda m: abs(m) <= scan_bound, members):
        if m not in (0, 1, -1) and isinstance(square_free_check(m), SquareFree):
            yield m


def _certified_elements(field: PureField, enum_budget: int) -> tuple[BasisElement, ...]:
    """The certified basis of the field.

    Each element N(alpha)/d is in lowest terms, so two bases are equal as
    polynomial tuples exactly when their elements are equal: comparing
    them forms no Fraction.
    """
    basis, _ = integral_basis(field, enum_budget=enum_budget)
    return basis.elements


def atlas(
    n: int, *, scan_bound: int | None = None, enum_budget: int = ENUM_BUDGET_DEFAULT
) -> PeriodAtlas:
    """Parametric basis table for degree n, one row per residue class mod n0.

    Each non-skipped class is certified at two independent witnesses; the two
    rows must agree as literal polynomial tuples, otherwise periodicity is
    violated and a RuntimeError reports the offending class.  The atlas
    certifies up to 2 * n0 degree-n fields, so its work measure n0 * n^2 is
    checked against enum_budget before the witness scan: over it,
    CertificationSkipped is raised.  A negative scan_bound raises
    ValueError.
    """
    factorization = _factorization(n)
    n0 = _period(factorization)
    if scan_bound is None:
        scan_bound = 10 * n0
    elif scan_bound < 0:
        raise ValueError(f"scan_bound must be non-negative, got {scan_bound}")
    over_budget = budget_skip_reason(n, enum_budget, n0)
    if over_budget is not None:
        raise CertificationSkipped(over_budget)
    primes = [p for p, _ in factorization]
    rows: dict[int, AtlasRow] = {}
    for r in range(n0):
        if any(r % (p * p) == 0 for p in primes):
            # p^2 divides n0 for every p | n, so p^2 | r forces p^2 | m
            # throughout the class: no member is square-free.
            p = next(p for p in primes if r % (p * p) == 0)
            rows[r] = SkippedClass(
                f"every m = {r} mod {n0} is divisible by {p}^2"
            )
            continue
        witnesses = list(
            itertools.islice(_square_free_witnesses(r, n0, scan_bound), 2)
        )
        if len(witnesses) < 2:
            rows[r] = UnknownRow(scan_bound)
            continue
        # the scan found both square-free, so each field is assembled
        # directly rather than checked again by PureField.create
        first, second = witnesses
        elements = _certified_elements(PureField(n, first, factorization), enum_budget)
        if elements != _certified_elements(PureField(n, second, factorization), enum_budget):
            raise RuntimeError(
                f"periodicity violated at residue {r} mod {n0}: "
                f"witnesses {first} and {second} yield different rows"
            )
        rows[r] = ParametricRow(first, second, elements)
    return PeriodAtlas(n, n0, rows)


def verify_periodicity(
    n: int, r: int, m1: int, m2: int, *, enum_budget: int = ENUM_BUDGET_DEFAULT
) -> bool:
    """Check that two square-free radicands in class r share one basis row.

    Both m1 and m2 must be congruent to r modulo n0 and square-free; violated
    preconditions raise ValueError rather than returning False, since they
    say nothing about periodicity itself.
    """
    n0 = period_modulus(n)
    if not 0 <= r < n0:
        raise ValueError(f"residue {r} out of range for modulus {n0}")
    for m in (m1, m2):
        if m % n0 != r:
            raise ValueError(f"{m} is not congruent to {r} mod {n0}")
    # PureField.create rejects non-square-free radicands.
    return _certified_elements(
        PureField.create(n, m1), enum_budget
    ) == _certified_elements(PureField.create(n, m2), enum_budget)


def _coefficient_strings(element: BasisElement) -> list[str]:
    return [str(Fraction(c, element.denominator)) for c in element.int_numerator]


def atlas_json_dict(atl: PeriodAtlas) -> dict:
    """JSON-ready dict; basis elements appear as coefficient-string lists."""
    rows: dict[str, dict] = {}
    for r in sorted(atl.rows):
        row = atl.rows[r]
        if isinstance(row, ParametricRow):
            rows[str(r)] = {
                "witness": row.witness,
                "second_witness": row.second_witness,
                "basis": [_coefficient_strings(e) for e in row.elements],
            }
        elif isinstance(row, SkippedClass):
            rows[str(r)] = {"skip": row.reason}
        else:
            rows[str(r)] = {"unknown_below": row.scan_bound}
    return {"n": atl.n, "n0": atl.n0, "rows": rows}


def atlas_pretty(atl: PeriodAtlas) -> str:
    """Human-readable atlas, grouping residue classes that share a row."""
    groups: dict[tuple[BasisElement, ...], list[int]] = {}
    skipped: list[int] = []
    unknown: list[int] = []
    for r in sorted(atl.rows):
        row = atl.rows[r]
        if isinstance(row, ParametricRow):
            groups.setdefault(row.elements, []).append(r)
        elif isinstance(row, SkippedClass):
            skipped.append(r)
        else:
            unknown.append(r)
    lines = [f"degree {atl.n}, period {atl.n0}"]
    for elements, residues in sorted(groups.items(), key=lambda kv: kv[1][0]):
        residue_list = ", ".join(str(r) for r in residues)
        lines.append(f"m = {residue_list} (mod {atl.n0}):")
        rendered = ", ".join(str(e) for e in elements)
        lines.append(f"  [{rendered}]")
    if skipped:
        lines.append(
            "no square-free radicands: "
            + ", ".join(str(r) for r in skipped)
        )
    if unknown:
        lines.append(
            "unresolved (scan bound too small): "
            + ", ".join(str(r) for r in unknown)
        )
    return "\n".join(lines) + "\n"
