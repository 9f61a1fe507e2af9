"""Independent certification of claimed integral bases.

Nothing in this module reuses the closed-form constructions: elements are
multiplied exactly in the power basis, discriminants come from the trace
pairing, and p-maximality is proved through the multiplier ring of the
p-radical.  A lattice that is closed under multiplication and contains 1
is an order, hence integral; only on a lattice that is not an order is
integrality decided element by element, by the characteristic polynomial
of the multiplication map.  The oracle certifies bases handed to it; it
never builds one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import (
    IntMatrix,
    RatMatrix,
    charpoly,
    det_int,
    det_rational,
    fp_kernel,
    hnf_rows,
    is_prime,
)
from .purebasis import BasisElement, IntegralBasis, PureField, index_report


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
        rem = q % field.minimal_polynomial
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

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul(self, other)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if self.field != other.field:
            raise ValueError("elements of different fields")
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if self.field != other.field:
            raise ValueError("elements of different fields")
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coords):
            if c:
                term = "1" if i == 0 else ("a" if i == 1 else f"a^{i}")
                parts.append(f"{c}*{term}" if i else f"{c}")
        return " + ".join(parts) if parts else "0"


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


def dual_basis_coords(e: FieldElement) -> tuple[Fraction, ...]:
    """Coordinates of e against the trace-dual of the power basis.

    Component i is Tr(e * alpha^i); every algebraic integer has all
    components in Z (the converse does not hold).  The constant term of
    e * alpha^i is c_0 for i = 0 and m * c_(n-i) otherwise, so no product
    is formed.
    """
    n, m = e.field.n, e.field.m
    c = e.coords
    return (n * c[0],) + tuple(n * m * c[n - i] for i in range(1, n))


def _multiplication_matrix(e: FieldElement) -> RatMatrix:
    # row j = coordinates of e * alpha^j: the coordinates shifted up by j,
    # the top j of them wrapped round to the bottom and multiplied by m
    n, m = e.field.n, e.field.m
    c = e.coords
    return RatMatrix([[m * x for x in c[n - j:]] + list(c[:n - j]) for j in range(n)])


def is_algebraic_integer(e: FieldElement) -> bool:
    """Whether e lies in the ring of integers, decided exactly.

    The characteristic polynomial of multiplication by e is the minimal
    polynomial raised to a power, so integer coefficients there are
    equivalent to integrality of e.  Integer trace pairings are checked
    first as a cheap necessary condition.
    """
    if all(c.denominator == 1 for c in e.coords):
        return True
    if any(t.denominator != 1 for t in dual_basis_coords(e)):
        return False
    return charpoly(_multiplication_matrix(e)).is_integral()


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


def _basis_field_elements(basis: IntegralBasis) -> list[FieldElement]:
    return [
        FieldElement.from_basis_element(basis.field, e) for e in basis.elements
    ]


StructureTable = tuple[tuple[tuple[Fraction, ...], ...], ...]


@functools.lru_cache(maxsize=1)
def _structure_constants(basis: IntegralBasis) -> StructureTable:
    """table[i][j] holds the coordinates of b_i * b_j in the basis itself.

    With b_i = N_i(alpha)/d_i, each product is taken on the integer
    numerators, reduced by alpha^n = m, and peeled off against the
    triangular basis from the top degree down over one common denominator.
    The most recent table is kept, so certify and each prime's
    p_maximality_enum share one; its rows are tuples, hence immutable.
    """
    n, m = basis.field.n, basis.field.m
    nums = [e.numerator.integer_coefficients() for e in basis.elements]
    dens = [e.denominator for e in basis.elements]
    table: list[list[tuple[Fraction, ...]]] = [[()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = [0] * (2 * n - 1)
            for a, x in enumerate(nums[i]):
                if x:
                    for b, y in enumerate(nums[j]):
                        if y:
                            prod[a + b] += x * y
            for k in range(2 * n - 2, n - 1, -1):
                if prod[k]:
                    prod[k - n] += m * prod[k]
            # the product is rem/scale; rem stays an integer vector
            rem, scale = prod[:n], dens[i] * dens[j]
            coords = [Fraction(0)] * n
            for k in range(n - 1, -1, -1):
                if rem[k]:
                    lead = nums[k][k]
                    g = lead // math.gcd(rem[k], lead)
                    if g != 1:
                        rem = [r * g for r in rem]
                        scale *= g
                    q = rem[k] // lead
                    coords[k] = Fraction(q * dens[k], scale)
                    for t in range(k):
                        rem[t] -= q * nums[k][t]
            table[i][j] = table[j][i] = tuple(coords)
    return tuple(map(tuple, table))


def _multiplicatively_closed(table: StructureTable) -> bool:
    # an order is closed under multiplication: every pairwise product must
    # have integer coordinates in the basis itself
    return all(c.denominator == 1 for row in table for coords in row for c in coords)


_NOT_CLOSED = (
    "the lattice is not multiplicatively closed; p-maximality is about orders"
)


def _order_defect(basis: IntegralBasis, table: StructureTable) -> str | None:
    """Why the lattice is not an order, or None when it is one.

    A full lattice that is closed under multiplication and contains 1 is a
    ring finitely generated over Z, so every element of it is integral.
    """
    if not _multiplicatively_closed(table):
        return _NOT_CLOSED
    unit_coords = coordinates_in_basis(FieldElement.one(basis.field), basis)
    if any(c.denominator != 1 for c in unit_coords):
        return "the lattice does not contain 1; p-maximality is about orders"
    return None


def _power_basis_discriminant(field: PureField) -> int:
    # Gram determinant det[Tr(alpha^(i+j))]; alpha^k = m^(k div n) *
    # alpha^(k mod n) and Tr(alpha^j) = n*[j == 0] for 0 <= j < n, so the
    # matrix is integral; no closed discriminant formula enters here
    n, m = field.n, field.m

    def power_trace(k: int) -> int:
        return n * m ** (k // n) if k % n == 0 else 0

    gram = [[power_trace(i + j) for j in range(n)] for i in range(n)]
    return det_int(IntMatrix(gram))


def _discriminant_exact(basis: IntegralBasis, table: StructureTable) -> Fraction:
    """Trace-pairing discriminant with an internal dual-route cross-check.

    The Gram matrix comes from the structure constants, Tr(b_i b_j) =
    sum_k c_ijk Tr(b_k).  Its determinant must equal the power-basis Gram
    determinant times the squared transition determinant (triangular, so
    the product of leading coefficients over denominators).  Disagreement
    means a bug in the oracle itself, never bad input, hence the raise.
    """
    traces = [
        (k, t) for k, t in enumerate(map(trace, _basis_field_elements(basis))) if t
    ]
    gram = [
        [sum(coords[k] * t for k, t in traces) for coords in row] for row in table
    ]
    gram_route = det_rational(RatMatrix(gram))

    transition_det = Fraction(1)
    for i, element in enumerate(basis.elements):
        transition_det *= element.numerator.coefficient(i) / element.denominator
    product_route = _power_basis_discriminant(basis.field) * transition_det ** 2

    if gram_route != product_route:
        raise ArithmeticError(
            "internal error: Gram and transition-matrix discriminants disagree"
        )
    return gram_route


def basis_discriminant(basis: IntegralBasis) -> int:
    """Discriminant of the Z-module spanned by the basis."""
    value = _discriminant_exact(basis, _structure_constants(basis))
    if value.denominator != 1:
        raise ArithmeticError("discriminant is not an integer; basis is not integral")
    return int(value)


# --- p-maximality -----------------------------------------------------------


@dataclass(frozen=True)
class Proved:
    """No element of (1/p)*O outside O is an algebraic integer."""


@dataclass(frozen=True)
class CounterexampleFound:
    """An algebraic integer in (1/p)*O \\ O; the claimed basis is wrong."""

    element: FieldElement


@dataclass(frozen=True)
class Skipped:
    reason: str


MaximalityResult = Proved | CounterexampleFound | Skipped


def p_maximality_enum(
    basis: IntegralBasis, p: int, *, enum_budget: int = 2 ** 24
) -> MaximalityResult:
    """Prove or refute p-maximality of the order spanned by the basis.

    The question is whether any (sum c_i b_i)/p with c_i in [0, p), not all
    divisible by p, is an algebraic integer: Proved means none is.  Rather
    than walking all p^n cosets, the proof runs the radical-multiplier
    test: with I_p the p-radical ideal, the candidate order is p-maximal
    exactly when {y : y*I_p in p*I_p} collapses to p*O, and any survivor y
    yields the explicit counterexample y/p.  The two formulations answer
    the same question with the same witnesses, so the budget guard is kept
    on the nominal coset count p^n.

    The multiplier system is built on integers only: the generator
    products come from the integer structure constants, and solving them
    in the Hermite basis of I_p needs exact divisions alone, because that
    lattice contains p*O and so its diagonal entries lie in {1, p}.
    """
    field = basis.field
    n = field.n
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p ** n > enum_budget:
        # p^n itself may have too many digits to print
        return Skipped(
            f"p^n = {p}^{n} candidate cosets exceed the budget {enum_budget}"
        )

    # the multiplier argument needs a genuine order, so that every
    # multiplier found below is integral
    table = _structure_constants(basis)
    defect = _order_defect(basis, table)
    if defect is not None:
        return Skipped(defect)
    table = [[tuple(c.numerator for c in coords) for coords in row] for row in table]
    mod_table = [
        [tuple(c % p for c in table[i][j]) for j in range(n)]
        for i in range(n)
    ]

    def mod_mul(x: list[int], y: list[int]) -> list[int]:
        out = [0] * n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj % p
                        row = mod_table[i][j]
                        for k in range(n):
                            if row[k]:
                                out[k] = (out[k] + c * row[k]) % p
        return out

    def mod_pow(x: list[int], e: int) -> list[int]:
        result = x
        for bit in bin(e)[3:]:
            result = mod_mul(result, result)
            if bit == "1":
                result = mod_mul(result, x)
        return result

    # the p-radical of O/pO is the kernel of a Frobenius power: x nilpotent
    # iff x^(p^e) = 0 once p^e >= n, and x -> x^p is F_p-linear
    frobenius = [mod_pow([int(i == k) for i in range(n)], p) for k in range(n)]
    e = 1
    while p ** e < n:
        e += 1
    power = frobenius
    for _ in range(e - 1):
        power = [
            [
                sum(power[i][l] * frobenius[l][j] for l in range(n)) % p
                for j in range(n)
            ]
            for i in range(n)
        ]
    radical = fp_kernel([[power[i][j] for i in range(n)] for j in range(n)], p)
    if not radical:
        # O/pO has no nilpotents, so no x/p with x outside pO can be integral
        return Proved()

    # I_p = pO + radical lifts, as a full-rank sublattice in basis coordinates
    ideal_rows = [[p * int(i == j) for j in range(n)] for i in range(n)]
    ideal_rows.extend(list(v) for v in radical)
    lattice = hnf_rows(ideal_rows, n)

    # the lattice contains p*Z^n, so its lower-triangular HNF has every
    # diagonal entry in {1, p}: each back-substitution step is one exact
    # divmod, and a remainder means the vector lies outside the lattice
    lattice_rows = [
        (j, row[j], [(t, c) for t, c in enumerate(row[:j]) if c])
        for j, row in enumerate(lattice)
    ]
    lattice_rows.reverse()

    def solve_in_lattice(v: list[int]) -> list[int]:
        # w with w * lattice = v, peeled off from the top coordinate down
        rem = list(v)
        w = [0] * n
        for j, diagonal, below in lattice_rows:
            if rem[j]:
                q, r = divmod(rem[j], diagonal)
                if r:
                    raise ArithmeticError(
                        "internal error: product left the radical ideal"
                    )
                w[j] = q
                for t, c in below:
                    rem[t] -= q * c
        return w

    # y is a multiplier when y*g lands in p*I_p for every generator g of
    # I_p; in I_p-coordinates that is one mod-p linear system on y.  Its
    # conditions go into an echelon form, echelon[col] holding the row
    # whose first nonzero entry (a 1) sits in column col, so at most n rows
    # are kept and the proof ends once the multipliers are down to p*O
    echelon: list[list[int] | None] = [None] * n
    rank = 0
    for g in lattice:
        support = [(l, gl) for l, gl in enumerate(g) if gl]
        rows_mod_p = []
        for k in range(n):
            table_k = table[k]
            product = [0] * n
            for l, gl in support:
                product = [a + gl * c for a, c in zip(product, table_k[l])]
            rows_mod_p.append([x % p for x in solve_in_lattice(product)])
        # one condition per coordinate t: sum_k y_k * rows_mod_p[k][t] = 0
        for condition in zip(*rows_mod_p):
            row = list(condition)
            for col in range(n):
                if row[col]:
                    pivot = echelon[col]
                    if pivot is None:
                        inv = pow(row[col], -1, p)
                        echelon[col] = [x * inv % p for x in row]
                        rank += 1
                        break
                    c = row[col]
                    row = [(x - c * y) % p for x, y in zip(row, pivot)]
            if rank == n:
                return Proved()

    # the echelon rows span the whole system's row space, whose reduced
    # echelon form, and with it the kernel basis, is unique
    kernel = fp_kernel([row for row in echelon if row] or [[0] * n], p)
    u = kernel[0]
    elems = _basis_field_elements(basis)
    numerator_coords = [
        sum((Fraction(u[k]) * elems[k].coords[t] for k in range(n)), Fraction(0))
        for t in range(n)
    ]
    candidate = FieldElement(field, tuple(c / p for c in numerator_coords))
    if not is_algebraic_integer(candidate):
        raise ArithmeticError(
            "internal error: multiplier element failed the integrality recheck"
        )
    return CounterexampleFound(candidate)


# --- certification ----------------------------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of every oracle check; failures are entries, not exceptions."""

    integrality: tuple[bool, ...]
    ring_closed: bool
    disc_match: bool
    maximality: dict[int, MaximalityResult]

    @property
    def skipped(self) -> dict[int, str]:
        """Reason for each prime whose p-maximality check was skipped."""
        return {
            p: r.reason for p, r in self.maximality.items() if isinstance(r, Skipped)
        }

    @property
    def certified(self) -> bool:
        # all checks pass or are explicitly skipped
        return (
            all(self.integrality)
            and self.ring_closed
            and self.disc_match
            and not any(
                isinstance(r, CounterexampleFound) for r in self.maximality.values()
            )
        )


def certify(basis: IntegralBasis, *, enum_budget: int = 2 ** 24) -> CertificationReport:
    """Run every check against a claimed integral basis.

    Integrality of each element, closure under multiplication, agreement
    of the trace-pairing discriminant with the index ledger, and
    p-maximality for every prime dividing the degree.  A lattice that is
    closed and contains 1 is an order, so each of its elements is integral;
    only a lattice that is not an order has its elements tested one by
    one, with the characteristic polynomial as the last resort.
    """
    field = basis.field
    table = _structure_constants(basis)
    defect = _order_defect(basis, table)
    ring_closed = defect != _NOT_CLOSED
    if defect is None:
        integrality = (True,) * field.n
    else:
        integrality = tuple(map(is_algebraic_integer, _basis_field_elements(basis)))
    disc = _discriminant_exact(basis, table)
    disc_match = disc == index_report(field).field_discriminant
    maximality = {
        p: p_maximality_enum(basis, p, enum_budget=enum_budget)
        for p, _ in field.factorization
    }
    return CertificationReport(integrality, ring_closed, disc_match, maximality)


def certification_json_dict(report: CertificationReport) -> dict:
    """JSON-ready description of a certification report."""
    maximality: dict[str, dict] = {}
    for p, result in sorted(report.maximality.items()):
        if isinstance(result, Proved):
            maximality[str(p)] = {"status": "proved"}
        elif isinstance(result, Skipped):
            maximality[str(p)] = {"status": "skipped", "reason": result.reason}
        else:
            element = result.element
            den = math.lcm(*(c.denominator for c in element.coords))
            maximality[str(p)] = {
                "status": "counterexample",
                "element": {
                    "num": [int(c * den) for c in element.coords],
                    "den": den,
                },
            }
    return {
        "integrality": list(report.integrality),
        "ring_closed": report.ring_closed,
        "disc_match": report.disc_match,
        "maximality": maximality,
        "certified": report.certified,
    }
