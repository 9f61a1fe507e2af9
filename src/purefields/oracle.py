"""Independent certification of claimed integral bases.

Nothing in this module reuses the closed-form constructions: elements are
multiplied exactly in the power basis, discriminants come from the trace
pairing, and p-maximality is proved through the multiplier ring of the
p-radical.  No table of all n^2 products b_i * b_j is formed.  Each
product a check needs is taken on the integer numerators and peeled once
against the triangular basis.  Closure is Round 2's order test: n shifts
by c*alpha and the products of a few Z[c*alpha]-module generators.  The
discriminant is the power-basis Gram determinant times the squared
transition determinant.

There is one element type, purebasis.BasisElement: N(alpha)/d with N an
integer polynomial and d > 0, in lowest terms.  The checks run on the
integer numerators, and a p-maximality counterexample is built as one.  A
lattice that is closed under multiplication and contains 1 is an order,
hence integral, so certifying an order forms no Fraction.  Only elements
outside an order (those of a lattice that is not one, and a
counterexample) are tested one by one: a trace test on the numerator, then
the characteristic polynomial of the multiplication map.  The oracle
certifies bases handed to it; it never builds one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactmath import (
    QPolynomial,
    RatMatrix,
    charpoly,
    det_int,
    det_rational,  # unused here; bound so the benchmark tracer can wrap it
    fp_kernel,
    fp_reduce,
    hnf_rows,
    is_prime,
)
from .purebasis import BasisElement, IntegralBasis, PureField, index_report


def _multiplication_matrix(field: PureField, numerator: Sequence[int]) -> RatMatrix:
    """Matrix of multiplication by N(alpha), N the integer coefficients.

    Row j holds the coordinates of N(alpha) * alpha^j: the coefficients
    shifted up by j, the top j of them wrapped round to the bottom and
    multiplied by m.
    """
    n, m = field.n, field.m
    c = list(numerator) + [0] * (n - len(numerator))
    return RatMatrix([[m * x for x in c[n - j:]] + c[:n - j] for j in range(n)])


def is_algebraic_integer(field: PureField, element: BasisElement) -> bool:
    """Whether x = N(alpha)/d lies in the ring of integers, decided exactly.

    d == 1 is integral at once.  Otherwise the trace pairings
    Tr(x * alpha^i), n*N_0/d for i = 0 and n*m*N_(n-i)/d for i >= 1, must
    be integers: a cheap necessary condition.  Last, the characteristic
    polynomial of multiplication by N(alpha) is the minimal polynomial of
    N(alpha) raised to a power, and x is integral exactly when
    d^(n-k) divides its coefficient of X^k for every k.
    """
    n, m = field.n, field.m
    if element.degree >= n:
        raise ValueError("element degree exceeds the field degree")
    d = element.denominator
    if d == 1:
        return True
    numerator = element.int_numerator
    if (n * numerator[0]) % d or any((n * m * c) % d for c in numerator[1:]):
        return False
    coefficients = charpoly(_multiplication_matrix(field, numerator)).coefficients
    return all(int(c) % d ** (n - k) == 0 for k, c in enumerate(coefficients))


def _supports(basis: IntegralBasis) -> list[tuple[int, list[tuple[int, int]]]]:
    # (d_k, nonzero (t, c) of N_k, t ascending) for b_k = N_k(alpha)/d_k;
    # the last pair is the leading coefficient
    return [
        (e.denominator, [(t, c) for t, c in enumerate(e.int_numerator) if c])
        for e in basis.elements
    ]


def _product(field: PureField, a, b) -> list[int]:
    """a(alpha) * b(alpha), dense, a and b given by their nonzero (t, c)
    pairs; alpha^n = m is folded in as the product is formed."""
    n, m = field.n, field.m
    out = [0] * n
    for s, x in a:
        for t, y in b:
            if s + t < n:
                out[s + t] += x * y
            else:
                out[s + t - n] += m * x * y
    return out


def _peel(supports, rem: list[int], scale: int) -> tuple[dict[int, int], int]:
    """The nonzero coordinates {k: c} of rem(alpha)/scale in the triangular
    basis, as integers over their least common denominator, which is 1
    exactly when the element lies in the lattice.

    The basis is peeled off from the top degree down, rem (consumed) and
    scale multiplied up whenever a leading coefficient does not divide the
    remainder, so rem stays an integer vector.
    """
    coords = {}
    for k in range(len(rem) - 1, -1, -1):
        if rem[k]:
            d, support = supports[k]
            lead = support[-1][1]
            q, r = divmod(rem[k], lead)
            if r:
                # abs: a negative lead must not flip the sign of the scale
                g = abs(lead) // math.gcd(rem[k], lead)
                rem = [x * g for x in rem]
                coords = {j: c * g for j, c in coords.items()}
                scale *= g
                q = rem[k] // lead
            coords[k] = q * d
            for t, c in support:
                rem[t] -= q * c
    if scale != 1:
        g = math.gcd(scale, *coords.values())
        coords = {k: c // g for k, c in coords.items()}
        scale //= g
    return coords, scale


class ClosureCertificate(NamedTuple):
    """Why the lattice L is or is not closed under multiplication.

    multiplier is c, the least c > 0 with c*alpha in L; generators is G,
    the indices of a set of Z[c*alpha]-module generators of L.
    """

    multiplier: int
    generators: tuple[int, ...]
    closed: bool


@functools.lru_cache(maxsize=1)
def _structure_constants(basis: IntegralBasis) -> ClosureCertificate:
    """Decide closure from n shifts and the products of a few generators.

    A closed L contains beta = c*alpha, so beta*L lies in L; conversely
    once beta*L does, L is a Z[beta]-module, L*L is the Z[beta]-span of
    the b_g*b_h over g, h in G, and L is closed iff each of those lies in
    L (Round 2's order test, Cohen, section 6.1).  The shift beta*b_(i-1)
    has degree i, and when its coordinate on b_i is +-1, b_i is a
    Z[beta]-combination of b_0, ..., b_(i-1); so G holds 0 and every i
    where that coordinate is not +-1.  Each product is peeled once.  The
    most recent certificate is kept, so certify and each prime's
    p_maximality_enum share one; the name is the benchmark tracer's.
    """
    field = basis.field
    n = field.n
    supports = _supports(basis)
    # c is the least common denominator of alpha's coordinates
    c = _peel(supports, [0, 1] + [0] * (n - 2), 1)[1]
    generators = [0]
    closed = True
    for i, (d, support) in enumerate(supports):
        coords, scale = _peel(supports, _product(field, [(1, c)], support), d)
        closed = closed and scale == 1
        if i + 1 < n and abs(coords.get(i + 1, 0)) != scale:
            generators.append(i + 1)
    if closed:
        pairs = [(supports[g], supports[h]) for g in generators for h in generators if g <= h]
        closed = all(
            _peel(supports, _product(field, a, b), d * e)[1] == 1
            for (d, a), (e, b) in pairs
        )
    return ClosureCertificate(c, tuple(generators), closed)


def _multiplicatively_closed(certificate: ClosureCertificate) -> bool:
    return certificate.closed


_NOT_CLOSED = (
    "the lattice is not multiplicatively closed; p-maximality is about orders"
)


def _order_defect(basis: IntegralBasis, certificate: ClosureCertificate) -> str | None:
    """Why the lattice is not an order, or None when it is one.

    A full lattice that is closed under multiplication and contains 1 is a
    ring finitely generated over Z, so every element of it is integral.
    By triangularity 1 is in the lattice iff b_0 = +-1, and b_0 is in
    lowest terms.
    """
    if not _multiplicatively_closed(certificate):
        return _NOT_CLOSED
    b0 = basis.elements[0]
    if b0.denominator != 1 or b0.int_numerator not in ((1,), (-1,)):
        return "the lattice does not contain 1; p-maximality is about orders"
    return None


def _power_basis_discriminant(field: PureField) -> int:
    # Gram determinant det[Tr(alpha^(i+j))]; alpha^k = m^(k div n) *
    # alpha^(k mod n) and Tr(alpha^j) = n*[j == 0] for 0 <= j < n, so the
    # matrix is integral; no closed discriminant formula enters here.
    # Row i has its one nonzero entry at j = -i (mod n), Tr(1) = n for
    # i = 0 and Tr(alpha^n) = n*m after, so det_int peels the whole matrix
    # away
    n, m = field.n, field.m
    gram = []
    for i in range(n):
        row = [0] * n
        row[-i % n] = n * m if i else n
        gram.append(row)
    return det_int(gram)


def _discriminant_exact(basis: IntegralBasis) -> int | Fraction:
    """Trace-pairing discriminant of the lattice, from the transition matrix.

    The basis is triangular over the power basis, so the transition
    determinant is the product of leading coefficients over the product of
    denominators, and the discriminant is the power-basis Gram determinant
    times its square.  The result is an int whenever it is an integer, as
    on every order.
    """
    leads = math.prod(e.int_numerator[-1] for e in basis.elements)
    numerator = _power_basis_discriminant(basis.field) * leads ** 2
    denominator = math.prod(e.denominator for e in basis.elements) ** 2
    if numerator % denominator:
        return Fraction(numerator, denominator)
    return numerator // denominator


def basis_discriminant(basis: IntegralBasis) -> int:
    """Discriminant of the Z-module spanned by the basis."""
    value = _discriminant_exact(basis)
    if isinstance(value, Fraction):
        raise ArithmeticError("discriminant is not an integer; basis is not integral")
    return value


# --- p-maximality -----------------------------------------------------------


@dataclass(frozen=True)
class Proved:
    """No element of (1/p)*O outside O is an algebraic integer."""


@dataclass(frozen=True)
class CounterexampleFound:
    """An algebraic integer in (1/p)*O \\ O; the claimed basis is wrong."""

    element: BasisElement


@dataclass(frozen=True)
class Skipped:
    reason: str


MaximalityResult = Proved | CounterexampleFound | Skipped


def _product_mod_p(x, rows, p: int) -> list[tuple[int, int]]:
    """sum_i x_i * rows[i] mod p as its nonzero (k, c) pairs, x and each
    row given by theirs."""
    out: dict[int, int] = {}
    for i, a in x:
        for k, c in rows[i]:
            out[k] = out.get(k, 0) + a * c
    return [(k, r) for k, c in out.items() if (r := c % p)]


def _numerator(coefficients: Sequence[int], supports) -> tuple[list[int], int]:
    """(N, L): sum_k coefficients[k] * b_k = N(alpha)/L, L the lcm of the
    basis denominators and N dense."""
    common = math.lcm(*(d for d, _ in supports))
    numerator = [0] * len(supports)
    for u, (d, support) in zip(coefficients, supports):
        if u:
            scale = u * (common // d)
            for t, c in support:
                numerator[t] += scale * c
    return numerator, common


def _power(field: PureField, support, e: int) -> list[int]:
    # N(alpha)^e, dense: one shift for a monomial N, else e - 1 products
    # with N; e >= 2
    if len(support) == 1:
        (t, c), = support
        power = [0] * field.n
        power[t * e % field.n] = c ** e * field.m ** (t * e // field.n)
        return power
    power = _product(field, support, support)
    for _ in range(e - 2):
        power = _product(field, [(t, c) for t, c in enumerate(power) if c], support)
    return power


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

    Everything is built on integers, each product formed in the power
    basis on the integer numerators when it is needed and peeled once
    against the triangular basis.  The radical is the kernel of a
    Frobenius power, whose images b_k^p = N_k^p / d_k^p are n such
    products.  Since I_p is an ideal, y multiplies all of it into p*I_p
    once it does so for a set of O-module generators, p*1 and the radical
    vectors.  The condition p*1 imposes is y in I_p, whose rows are those
    of the Frobenius-power system, so the echelon that yields the radical
    is also the multiplier system's first n conditions.  The radical
    vectors' products are solved in the Hermite basis of I_p, taken from
    the radical vectors and the p*e_j at the echelon's pivot columns, by
    exact divisions alone, because that lattice contains p*O and so its
    diagonal entries lie in {1, p}.  Their conditions are fed one by one
    to exactmath.fp_reduce, and the proof stops at full rank.
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
    defect = _order_defect(basis, _structure_constants(basis))
    if defect is not None:
        return Skipped(defect)
    supports = _supports(basis)

    # the p-radical of O/pO is the kernel of a Frobenius power: x nilpotent
    # iff x^(p^e) = 0 once p^e >= n, and x -> x^p is F_p-linear, so it is
    # fixed by the images b_k^p, each an integer vector since O is closed
    frobenius = []
    for d, support in supports:
        image = _peel(supports, _power(field, support, p), d ** p)[0]
        frobenius.append([(t, r) for t, c in image.items() if (r := c % p)])
    e = 1
    while p ** e < n:
        e += 1
    # row k of the power is the image of b_k under x -> x^(p^e)
    power = frobenius
    for _ in range(e - 1):
        power = [_product_mod_p(row, frobenius, p) for row in power]
    # column j, sum_i x_i * power[i][j] = 0, is one condition of x in I_p
    columns = [[0] * n for _ in range(n)]
    for i, row in enumerate(power):
        for j, c in row:
            columns[j][i] = c
    echelon: dict[int, list[int]] = {}
    for column in columns:
        # a zero column is no condition, and would leave the echelon as it is
        if any(column):
            fp_reduce(echelon, column, p)
    # the rows are already reduced, so this kernel costs O(n^2)
    radical = fp_kernel(list(echelon.values()) or [[0] * n], p)
    if not radical:
        # O/pO has no nilpotents, so no x/p with x outside pO can be integral
        return Proved()

    # I_p = pO + radical lifts, as a full-rank sublattice in basis
    # coordinates.  Each radical vector is 1 at its free column and 0 at
    # the others, so p*e_j at a free column j is p times a radical vector
    # less multiples of the p*e_j at pivot columns: those p*e_j and the
    # radical vectors, n rows in all, span the lattice
    ideal_rows = [[p * int(i == j) for j in range(n)] for i in echelon]
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

    def solve_in_lattice(v: dict[int, int]) -> list[int]:
        # w with w * lattice = v, peeled off from the top coordinate down
        rem = [0] * n
        for k, c in v.items():
            rem[k] = c
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
    # I_p; in I_p-coordinates that is one mod-p linear system on y.  The
    # generator p*1 asks for y*p in p*I_p, that is y in I_p: the echelon
    # above already holds those conditions.  A Hermite row p*e_j adds
    # nothing, y*p*b_j lying in p*I_p for every y in I_p, so only the
    # radical vectors remain.  Their conditions go one by one into the same
    # reduced echelon form of at most n rows, and the proof ends once the
    # multipliers are down to p*O
    for g in radical:
        # g * b_k = M(alpha) * N_k(alpha) / (L * d_k), with g = M(alpha)/L
        numerator, common = _numerator(g, supports)
        numerator = [(t, c) for t, c in enumerate(numerator) if c]
        rows = [
            solve_in_lattice(_peel(supports, _product(field, numerator, support), common * d)[0])
            for d, support in supports
        ]
        # one condition per coordinate t: sum_k y_k * rows[k][t] = 0 mod p
        for condition in zip(*rows):
            if fp_reduce(echelon, condition, p) and len(echelon) == n:
                return Proved()

    # the echelon rows span the whole system's row space, whose reduced
    # echelon form, and with it the kernel basis, is unique
    kernel = fp_kernel(list(echelon.values()) or [[0] * n], p)
    # y / p with y = sum u_k N_k / d_k, taken over p * L, L the lcm of the d_k
    numerator, common = _numerator(kernel[0], supports)
    g = math.gcd(p * common, *numerator)
    candidate = BasisElement(
        QPolynomial([c // g for c in numerator]), p * common // g
    )
    if not is_algebraic_integer(field, candidate):
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
    defect = _order_defect(basis, _structure_constants(basis))
    ring_closed = defect != _NOT_CLOSED
    if defect is None:
        integrality = (True,) * field.n
    else:
        integrality = tuple(is_algebraic_integer(field, e) for e in basis.elements)
    disc = _discriminant_exact(basis)
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
            # num is padded to the n coordinates, one per integrality entry
            num = list(result.element.int_numerator)
            num += [0] * (len(report.integrality) - len(num))
            maximality[str(p)] = {
                "status": "counterexample",
                "element": {"num": num, "den": result.element.denominator},
            }
    return {
        "integrality": list(report.integrality),
        "ring_closed": report.ring_closed,
        "disc_match": report.disc_match,
        "maximality": maximality,
        "certified": report.certified,
    }
