"""Independent certification of claimed integral bases.

Nothing in this module reuses the closed-form constructions: elements are
multiplied exactly in the power basis, discriminants come from the trace
pairing, and p-maximality is proved through the multiplier ring of the
p-radical.  All three read one integer structure table, the coordinates of
every b_i * b_j over their least common denominator D: closure is D == 1,
and the discriminant is an integer determinant over a power of D.  A
lattice that is closed under multiplication and contains 1 is an order,
hence integral; only on a lattice that is not an order is integrality
decided element by element, by the characteristic polynomial of the
multiplication map.  The oracle certifies bases handed to it; it never
builds one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import (
    RatMatrix,
    _int_mat_mul,
    charpoly,
    det_int,
    det_rational,  # unused here; bound so the benchmark tracer can wrap it
    fp_kernel,
    fp_reduce,
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


StructureTable = tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]


@functools.lru_cache(maxsize=1)
def _structure_constants(basis: IntegralBasis) -> StructureTable:
    """(D, rows): coordinate k of b_i * b_j in the basis is rows[i][j][k] / D.

    With b_i = N_i(alpha)/d_i, each product is taken on the integer
    numerators, reduced by alpha^n = m, and peeled off against the
    triangular basis from the top degree down over one common denominator.
    D is the least common denominator of every coordinate, so D == 1
    exactly when the lattice is closed under multiplication.  The most
    recent table is kept, so certify and each prime's p_maximality_enum
    share one; its rows are tuples of ints, hence immutable.
    """
    n, m = basis.field.n, basis.field.m
    nums = [e.numerator.integer_coefficients() for e in basis.elements]
    dens = [e.denominator for e in basis.elements]
    support = [[(a, x) for a, x in enumerate(num) if x] for num in nums]
    below = [[(t, x) for t, x in enumerate(num[:-1]) if x] for num in nums]
    # each product as (numerators, denominator) in lowest terms
    products: list[list[tuple[list[int], int]]] = [[([], 1)] * n for _ in range(n)]
    common = 1
    for i in range(n):
        for j in range(i, n):
            prod = [0] * (2 * n - 1)
            for a, x in support[i]:
                for b, y in support[j]:
                    prod[a + b] += x * y
            for k in range(2 * n - 2, n - 1, -1):
                if prod[k]:
                    prod[k - n] += m * prod[k]
            # the product is rem/scale; rem stays an integer vector
            rem, scale = prod[:n], dens[i] * dens[j]
            coords = [0] * n
            for k in range(n - 1, -1, -1):
                if rem[k]:
                    lead = nums[k][k]
                    g = lead // math.gcd(rem[k], lead)
                    if g != 1:
                        rem = [r * g for r in rem]
                        coords = [c * g for c in coords]
                        scale *= g
                    q = rem[k] // lead
                    coords[k] = q * dens[k]
                    for t, c in below[k]:
                        rem[t] -= q * c
            g = math.gcd(scale, *coords)
            if g != 1:
                coords = [c // g for c in coords]
                scale //= g
            products[i][j] = products[j][i] = (coords, scale)
            common = math.lcm(common, scale)
    rows = tuple(
        tuple(
            tuple(coords) if scale == common
            else tuple(c * (common // scale) for c in coords)
            for coords, scale in row
        )
        for row in products
    )
    return common, rows


def _multiplicatively_closed(table: StructureTable) -> bool:
    # an order is closed under multiplication: every pairwise product has
    # integer coordinates in the basis itself, i.e. the table's D is 1
    return table[0] == 1


_NOT_CLOSED = (
    "the lattice is not multiplicatively closed; p-maximality is about orders"
)


def _order_defect(basis: IntegralBasis, table: StructureTable) -> str | None:
    """Why the lattice is not an order, or None when it is one.

    A full lattice that is closed under multiplication and contains 1 is a
    ring finitely generated over Z, so every element of it is integral.
    By triangularity 1 is in the lattice iff b_0 = +-1, and b_0 is in
    lowest terms.
    """
    if not _multiplicatively_closed(table):
        return _NOT_CLOSED
    b0 = basis.elements[0]
    if b0.denominator != 1 or abs(b0.numerator.coefficient(0)) != 1:
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
    return det_int(gram)


def _discriminant_exact(basis: IntegralBasis, table: StructureTable) -> Fraction:
    """Trace-pairing discriminant with an internal dual-route cross-check.

    The Gram matrix comes from the structure constants, Tr(b_i b_j) =
    sum_k c_ijk Tr(b_k), and stays on integers: with the table's common
    denominator D and the traces Tr(b_k) = t_k / L over their common
    denominator L (1 on an order, as on every integral lattice), the
    entries are G_ij / (D L) with G integral, so the discriminant is
    det_int(G) / (D L)^n.  It must equal the power-basis Gram determinant
    times the squared transition determinant (triangular, so the product
    of leading coefficients over denominators).  Disagreement means a bug
    in the oracle itself, never bad input, hence the raise.
    """
    n = basis.field.n
    common, rows = table
    # Tr(N(alpha)/d) = n * N[0] / d, the power-basis trace form being diagonal
    traces = [
        Fraction(n * int(e.numerator.coefficient(0)), e.denominator)
        for e in basis.elements
    ]
    scale = math.lcm(*(t.denominator for t in traces))
    traces = [(k, int(t * scale)) for k, t in enumerate(traces) if t]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            coords = rows[i][j]
            gram[i][j] = gram[j][i] = sum(coords[k] * t for k, t in traces)
    gram_route = Fraction(det_int(gram), (common * scale) ** n)

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


def _row_combination(coefficients: list[int], rows) -> list[int]:
    """sum_i coefficients[i] * rows[i]; with rows = table[k], the table
    rows b_i * b_k, that is x * b_k for x with the given coordinates."""
    out = [0] * len(rows[0])
    for c, row in zip(coefficients, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return out


def budget_skip_reason(p: int, n: int, enum_budget: int) -> str | None:
    """Why the p-maximality check of a degree-n order is skipped for budget,
    or None when its nominal coset count p^n is within the budget."""
    # p^n >= 2^n, so a degree past the budget's bit length is over budget
    # without forming p^n, which at huge n alone takes seconds
    if n >= enum_budget.bit_length() or p ** n > enum_budget:
        # p^n itself may have too many digits to print
        return f"p^n = {p}^{n} candidate cosets exceed the budget {enum_budget}"
    return None


def budget_skips(field: PureField, enum_budget: int) -> dict[int, str]:
    """The budget skip reason of each p | n over budget; it depends on n
    alone, so callers check it before building anything."""
    return {
        p: reason
        for p, _ in field.factorization
        if (reason := budget_skip_reason(p, field.n, enum_budget)) is not None
    }


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

    Everything is built on integers from the structure table.  The
    radical is the kernel of a Frobenius power, and each Frobenius image
    b_k^p is formed by p - 1 products with b_k, each a sum of table rows
    b_i * b_k.  The generator products of I_p are solved in its Hermite
    basis by exact divisions alone, because that lattice contains p*O and
    so its diagonal entries lie in {1, p}.  The multiplier conditions are
    fed one by one to exactmath.fp_reduce, and the proof stops at full
    rank.
    """
    field = basis.field
    n = field.n
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    over_budget = budget_skip_reason(p, n, enum_budget)
    if over_budget is not None:
        return Skipped(over_budget)

    # the multiplier argument needs a genuine order, so that every
    # multiplier found below is integral
    structure = _structure_constants(basis)
    defect = _order_defect(basis, structure)
    if defect is not None:
        return Skipped(defect)
    # closed, so D == 1 and the rows are the structure constants themselves
    table = structure[1]

    # the p-radical of O/pO is the kernel of a Frobenius power: x nilpotent
    # iff x^(p^e) = 0 once p^e >= n, and x -> x^p is F_p-linear, so it is
    # fixed by the images b_k^p, each taken as p - 1 products with b_k
    frobenius = []
    for k in range(n):
        image = [int(i == k) for i in range(n)]
        for _ in range(p - 1):
            image = [x % p for x in _row_combination(image, table[k])]
        frobenius.append(image)
    e = 1
    while p ** e < n:
        e += 1
    power = frobenius
    for _ in range(e - 1):
        power = [[x % p for x in row] for row in _int_mat_mul(power, frobenius)]
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
    # conditions go one by one into a reduced echelon form of at most n
    # rows, and the proof ends once the multipliers are down to p*O
    echelon: dict[int, list[int]] = {}
    for g in lattice:
        rows = [solve_in_lattice(_row_combination(g, table[k])) for k in range(n)]
        # one condition per coordinate t: sum_k y_k * rows[k][t] = 0 mod p
        for condition in zip(*rows):
            if fp_reduce(echelon, condition, p) and len(echelon) == n:
                return Proved()

    # the echelon rows span the whole system's row space, whose reduced
    # echelon form, and with it the kernel basis, is unique
    kernel = fp_kernel(list(echelon.values()) or [[0] * n], p)
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
    def failures(self) -> tuple[str, ...]:
        """The checks that failed, in the order they run."""
        failed = []
        if not all(self.integrality):
            failed.append("integrality")
        if not self.ring_closed:
            failed.append("ring closure")
        if not self.disc_match:
            failed.append("discriminant accounting")
        for p, result in sorted(self.maximality.items()):
            if isinstance(result, CounterexampleFound):
                failed.append(f"p-maximality at {p}")
        return tuple(failed)

    @property
    def certified(self) -> bool:
        # all checks pass or are explicitly skipped
        return not self.failures


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
