"""Slow reference twins on Fraction arithmetic, for tests only.

The library certifies on integer numerators N(alpha)/d.  These are the
rational routes it replaced, kept to cross-check it: a field element as
power-basis coordinates in Fractions, with its product, trace, coordinates
in a triangular basis and integrality test, the p-adic valuation of a
rational number, and the Faddeev-LeVerrier characteristic polynomial.
It also converts between a BasisElement and one rational polynomial,
and reduces a rational polynomial mod p, which the library never needs:
an element keeps its integer numerator, and the Newton index bound reads
integer coefficients.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from poly_reference import FpPolynomial
from purefields.exactmath import QPolynomial, vp_int
from purefields.purebasis import BasisElement, IntegralBasis, PureField


def charpoly(rows) -> list[Fraction]:
    """Coefficients, constant first, of the monic det(X*I - M) of a square
    rational matrix given as rows.

    The matrix is cleared to integers by a common denominator L and the
    coefficients are recovered by the Faddeev-LeVerrier recurrence, whose
    trace divisions are exact over Z; the answer is rescaled by powers of
    L.  It forms n - 1 matrix products and shares no code with
    exactmath.charpoly.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("characteristic polynomial of a non-square matrix")
    scale = math.lcm(*(Fraction(c).denominator for row in rows for c in row))
    N = [[int(Fraction(c) * scale) for c in row] for row in rows]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    Mk = [row[:] for row in N]
    coeffs[n - 1] = -sum(Mk[i][i] for i in range(n))
    for k in range(2, n + 1):
        for i in range(n):
            Mk[i][i] += coeffs[n - k + 1]
        columns = list(zip(*Mk))
        Mk = [[sum(map(operator.mul, row, col)) for col in columns] for row in N]
        tr = sum(Mk[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("inexact trace division in characteristic polynomial")
        coeffs[n - k] = -(tr // k)
    return [Fraction(coeffs[i], scale ** (n - i)) for i in range(n + 1)]


def qpoly_power(q: QPolynomial, e: int) -> QPolynomial:
    """q**e for e >= 0, by repeated squaring."""
    if e < 0:
        raise ValueError("negative power")
    result = QPolynomial([1])
    while e:
        if e & 1:
            result = result * q
        q = q * q
        e >>= 1
    return result


def minimal_polynomial(field: PureField) -> QPolynomial:
    """X^n - m, the minimal polynomial of alpha."""
    return QPolynomial((-field.m,) + (0,) * (field.n - 1) + (1,))


def element_from_qpoly(q: QPolynomial) -> BasisElement:
    """q(alpha) as N(alpha)/d in lowest terms, q a nonzero rational polynomial."""
    den = math.lcm(*(c.denominator for c in q.coefficients))
    num = [c.numerator * (den // c.denominator) for c in q.coefficients]
    g = math.gcd(den, *num)
    return BasisElement([c // g for c in num], den // g)


def element_as_qpoly(element: BasisElement) -> QPolynomial:
    """N(X)/d as one rational polynomial."""
    return element.numerator / element.denominator


def fp_from_qpoly(p: int, f: QPolynomial) -> FpPolynomial:
    """Reduce f mod p; coefficient denominators must be prime to p."""
    out = []
    for c in f.coefficients:
        if c.denominator % p == 0:
            raise ValueError("denominator not invertible mod p")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return FpPolynomial(p, out)


def vp_rational(p: int, a) -> int:
    """p-adic valuation extended to nonzero rationals: v(n/d) = v(n) - v(d)."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("valuation of zero undefined")
    return vp_int(p, a.numerator) - vp_int(p, a.denominator)


@dataclass(frozen=True)
class FieldElement:
    """An element of Q(m^(1/n)) as coordinates in the power basis.

    coords[i] is the coefficient of alpha^i, 0 <= i < n.
    """

    field: PureField
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.field.n:
            raise ValueError(
                f"need {self.field.n} coordinates, got {len(self.coords)}"
            )
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    @classmethod
    def from_qpoly(cls, field: PureField, q) -> "FieldElement":
        """q(alpha), reducing q modulo X^n - m first."""
        rem = q % minimal_polynomial(field)
        return cls(field, tuple(rem.coefficient(i) for i in range(field.n)))

    @classmethod
    def from_basis_element(cls, field: PureField, element: BasisElement) -> "FieldElement":
        if element.degree >= field.n:
            raise ValueError("element degree exceeds the field degree")
        return cls(
            field,
            tuple(
                element.numerator.coefficient(i) / element.denominator
                for i in range(field.n)
            ),
        )

    @classmethod
    def one(cls, field: PureField) -> "FieldElement":
        return cls.alpha_power(field, 0)

    @classmethod
    def alpha_power(cls, field: PureField, j: int) -> "FieldElement":
        if not 0 <= j < field.n:
            raise ValueError(f"power must lie in [0, {field.n}), got {j}")
        return cls(field, tuple(Fraction(int(i == j)) for i in range(field.n)))

    def to_basis_element(self) -> BasisElement:
        """The same element as N(alpha)/d in lowest terms."""
        return element_from_qpoly(QPolynomial(self.coords))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if self.field != other.field:
            raise ValueError("elements of different fields")
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )


def mul(e1: FieldElement, e2: FieldElement) -> FieldElement:
    """Exact product, reduced by alpha^n = m."""
    if e1.field != e2.field:
        raise ValueError("elements of different fields")
    n, m = e1.field.n, e1.field.m
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(e1.coords):
        if a:
            for j, b in enumerate(e2.coords):
                if b:
                    prod[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        if prod[k]:
            prod[k - n] += m * prod[k]
    return FieldElement(e1.field, tuple(prod[:n]))


def trace(e: FieldElement) -> Fraction:
    """Field trace; the power-basis trace form is diagonal, so n*coords[0]."""
    return e.field.n * e.coords[0]


def is_algebraic_integer(e: FieldElement) -> bool:
    """Integrality by the characteristic polynomial of the multiplication
    map, whose row j is the product e * alpha^j formed by mul.  Integer
    coordinates settle it at once, and a non-integer trace pairing
    Tr(e * alpha^j) rules it out."""
    if all(c.denominator == 1 for c in e.coords):
        return True
    rows = [mul(e, FieldElement.alpha_power(e.field, j)) for j in range(e.field.n)]
    if any(trace(row).denominator != 1 for row in rows):
        return False
    return all(c.denominator == 1 for c in charpoly([row.coords for row in rows]))


def coordinates_in_basis(e: FieldElement, basis: IntegralBasis) -> tuple[Fraction, ...]:
    """Coordinates of e in the given triangular basis, by back-substitution."""
    if e.field != basis.field:
        raise ValueError("element and basis live in different fields")
    n = e.field.n
    rem = list(e.coords)
    coords = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        element = basis.elements[i]
        c = rem[i] * element.denominator / element.numerator.coefficient(i)
        if c:
            coords[i] = c
            for j in range(i + 1):
                rem[j] -= c * element.numerator.coefficient(j) / element.denominator
    return tuple(coords)
