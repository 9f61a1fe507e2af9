"""Independent certification of claimed integral bases.

Nothing in this module reuses the closed-form constructions: elements are
multiplied exactly in the power basis, discriminants come from the trace
pairing, and p-maximality is proved through the multiplier ring of the
p-radical.  All three read one integer structure table, the nonzero
coordinates of every b_i * b_j over their least common denominator D:
closure is D == 1, and the discriminant is an integer determinant over a
power of D.

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


StructureTable = tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]


@functools.lru_cache(maxsize=1)
def _structure_constants(basis: IntegralBasis) -> StructureTable:
    """(D, rows): rows[i][j] holds the nonzero coordinates of b_i * b_j as
    (k, c) pairs, k ascending, each coordinate being c / D.

    With b_i = N_i(alpha)/d_i, each product is taken on the integer
    numerators, alpha^n = m folded in as it is formed, and peeled off
    against the triangular basis from the top degree down over one common
    denominator; the peel stops only at nonzero coordinates, so the sparse
    form comes with it.  D is the least common denominator of every
    coordinate, so D == 1 exactly when the lattice is closed under
    multiplication.  The most recent table is kept, so certify and each
    prime's p_maximality_enum share one; it is made of tuples, hence
    immutable.
    """
    n, m = basis.field.n, basis.field.m
    nums = [e.int_numerator for e in basis.elements]
    dens = [e.denominator for e in basis.elements]
    support = [[(a, x) for a, x in enumerate(num) if x] for num in nums]
    below = [[(t, x) for t, x in enumerate(num[:-1]) if x] for num in nums]
    # each product as (nonzero coordinates, denominator) in lowest terms
    products: list[list[tuple[list[tuple[int, int]], int]]] = [
        [([], 1)] * n for _ in range(n)
    ]
    common = 1
    for i in range(n):
        for j in range(i, n):
            # the product is rem/scale; rem stays an integer vector
            rem = [0] * n
            for a, x in support[i]:
                for b, y in support[j]:
                    if a + b < n:
                        rem[a + b] += x * y
                    else:
                        rem[a + b - n] += m * x * y
            scale = dens[i] * dens[j]
            coords: list[tuple[int, int]] = []
            for k in range(n - 1, -1, -1):
                if rem[k]:
                    lead = nums[k][k]
                    g = lead // math.gcd(rem[k], lead)
                    if g != 1:
                        rem = [r * g for r in rem]
                        coords = [(t, c * g) for t, c in coords]
                        scale *= g
                    # rem[k] != 0, so the quotient and the coordinate are too
                    q = rem[k] // lead
                    coords.append((k, q * dens[k]))
                    for t, c in below[k]:
                        rem[t] -= q * c
            coords.reverse()
            if scale != 1:
                g = math.gcd(scale, *(c for _, c in coords))
                if g != 1:
                    coords = [(k, c // g) for k, c in coords]
                    scale //= g
            products[i][j] = products[j][i] = (coords, scale)
            common = math.lcm(common, scale)
    rows = tuple(
        tuple(
            tuple(coords) if scale == common
            else tuple((k, c * (common // scale)) for k, c in coords)
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
    if b0.denominator != 1 or b0.int_numerator not in ((1,), (-1,)):
        return "the lattice does not contain 1; p-maximality is about orders"
    return None


def _power_basis_discriminant(field: PureField) -> int:
    # Gram determinant det[Tr(alpha^(i+j))]; alpha^k = m^(k div n) *
    # alpha^(k mod n) and Tr(alpha^j) = n*[j == 0] for 0 <= j < n, so the
    # matrix is integral; no closed discriminant formula enters here.
    # Each row has its one nonzero entry where i + j = 0 (mod n), so
    # det_int peels the whole matrix away
    n, m = field.n, field.m
    return det_int([
        [n * m ** ((i + j) // n) if (i + j) % n == 0 else 0 for j in range(n)]
        for i in range(n)
    ])


def _discriminant_exact(basis: IntegralBasis, table: StructureTable) -> int | Fraction:
    """Trace-pairing discriminant with an internal dual-route cross-check.

    The Gram matrix comes from the structure constants, Tr(b_i b_j) =
    sum_k c_ijk Tr(b_k), and stays on integers: with the table's common
    denominator D and the traces Tr(b_k) = t_k / L over their common
    denominator L (1 on an order, as on every integral lattice), the
    entries are G_ij / (D L) with G integral, so the discriminant is
    det_int(G) / (D L)^n.  It must equal the power-basis Gram determinant
    times the squared transition determinant (triangular, so the product
    of leading coefficients over the product of denominators); the two
    are compared cross-multiplied.  Disagreement means a bug in the
    oracle itself, never bad input, hence the raise.  The result is an
    int whenever it is an integer, as on every order.
    """
    n = basis.field.n
    common, rows = table
    nums = [e.int_numerator for e in basis.elements]
    dens = [e.denominator for e in basis.elements]
    # Tr(N(alpha)/d) = n * N_0 / d, the power-basis trace form being diagonal
    scale = math.lcm(*(d // math.gcd(n * num[0], d) for num, d in zip(nums, dens)))
    traces = {
        k: n * num[0] * scale // d for k, (num, d) in enumerate(zip(nums, dens)) if num[0]
    }
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(
                c * traces[k] for k, c in rows[i][j] if k in traces
            )
    det = det_int(gram)
    gram_scale = (common * scale) ** n

    leads = math.prod(num[i] for i, num in enumerate(nums))
    power_disc = _power_basis_discriminant(basis.field)
    if det * math.prod(dens) ** 2 != power_disc * leads ** 2 * gram_scale:
        raise ArithmeticError(
            "internal error: Gram and transition-matrix discriminants disagree"
        )
    if det % gram_scale:
        return Fraction(det, gram_scale)
    return det // gram_scale


def basis_discriminant(basis: IntegralBasis) -> int:
    """Discriminant of the Z-module spanned by the basis."""
    value = _discriminant_exact(basis, _structure_constants(basis))
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


def _row_combination(coefficients: Sequence[int], rows, n: int) -> list[int]:
    """sum_i coefficients[i] * rows[i], dense, the rows given by their
    nonzero (k, c) pairs; with rows = table[k], the products b_i * b_k,
    that is x * b_k for x with the given coordinates."""
    out = [0] * n
    for a, row in zip(coefficients, rows):
        if a:
            for k, c in row:
                out[k] += a * c
    return out


def _product_mod_p(x, rows, p: int) -> list[tuple[int, int]]:
    """sum_i x_i * rows[i] mod p as its nonzero (k, c) pairs, x and each
    row given by theirs; with rows = table[k], that is x * b_k mod p."""
    out: dict[int, int] = {}
    for i, a in x:
        for k, c in rows[i]:
            out[k] = out.get(k, 0) + a * c
    return [(k, r) for k, c in out.items() if (r := c % p)]


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

    Everything is built on integers from the structure table, whose
    entries are the nonzero coordinates of each product.  The radical is
    the kernel of a Frobenius power, and each Frobenius image b_k^p is
    formed by p - 1 products with b_k, each a sum of table rows b_i * b_k.
    Since I_p is an ideal, y multiplies all of it into p*I_p
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
        image = [(k, 1)]
        for _ in range(p - 1):
            image = _product_mod_p(image, table[k], p)
        frobenius.append(image)
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
    # I_p; in I_p-coordinates that is one mod-p linear system on y.  The
    # generator p*1 asks for y*p in p*I_p, that is y in I_p: the echelon
    # above already holds those conditions.  A Hermite row p*e_j adds
    # nothing, y*p*b_j lying in p*I_p for every y in I_p, so only the
    # radical vectors remain.  Their conditions go one by one into the same
    # reduced echelon form of at most n rows, and the proof ends once the
    # multipliers are down to p*O
    for g in radical:
        rows = [solve_in_lattice(_row_combination(g, table[k], n)) for k in range(n)]
        # one condition per coordinate t: sum_k y_k * rows[k][t] = 0 mod p
        for condition in zip(*rows):
            if fp_reduce(echelon, condition, p) and len(echelon) == n:
                return Proved()

    # the echelon rows span the whole system's row space, whose reduced
    # echelon form, and with it the kernel basis, is unique
    kernel = fp_kernel(list(echelon.values()) or [[0] * n], p)
    # y / p with y = sum u_k N_k / d_k, taken over p * L, L the lcm of the d_k
    u = kernel[0]
    common = math.lcm(*(e.denominator for e in basis.elements))
    numerator = [0] * n
    for u_k, e in zip(u, basis.elements):
        if u_k:
            scale = u_k * (common // e.denominator)
            for t, c in enumerate(e.int_numerator):
                numerator[t] += scale * c
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
    table = _structure_constants(basis)
    defect = _order_defect(basis, table)
    ring_closed = defect != _NOT_CLOSED
    if defect is None:
        integrality = (True,) * field.n
    else:
        integrality = tuple(is_algebraic_integer(field, e) for e in basis.elements)
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
