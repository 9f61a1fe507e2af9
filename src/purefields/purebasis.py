"""Integral bases of pure fields Q(m^(1/n)).

The construction is fully explicit.  For prime-power degree the basis is a
family of geometric-sum polynomials divided by prime powers, selected by a
single valuation parameter s.  For composite degree element k is one
coefficient-wise Chinese remainder step over the degree-k elements of all
the prime-power bases at once, or, where each of those is alpha times the
one below it, alpha times element k - 1.  Every element is built once, as
its nonzero (t, c) terms over one denominator, the form the certifier
reads; no Fraction is formed and nothing is normalized again.
build_basis is the one construction path: it composes the prime-power
bases of a validated field, uncertified; integral_basis certifies its
result.  Alongside the basis we keep the index ledger: per-prime indices
in closed form, the total index, and the two discriminants it ties
together.  The ledger of the last field asked for is kept, so
integral_basis and the certifier it calls compute it once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .exactmath import (
    SQUARE_FREE_BOUND_DEFAULT,
    NotSquareFree,
    QPolynomial,
    Unknown,
    factorize,
    hnf_rows,
    is_prime,
    square_free_check,
    vp_int,
)


class UnknownSquareFreeError(Exception):
    """Square-freeness of m could not be settled within the trial bound."""

    def __init__(self, m: int, bound: int):
        super().__init__(
            f"could not decide whether {m} is square-free "
            f"(trial divisors up to {bound})"
        )
        self.m = m
        self.bound = bound


class CertificationSkipped(Exception):
    """Certification was not started: its work measure exceeds the budget,
    so nothing is certified nor refuted."""

    def __init__(self, reason: str):
        super().__init__(f"certification skipped: {reason}")
        self.reason = reason


# the default budget_skip_reason bound: n^2 <= 2^16 admits every n <= 256
ENUM_BUDGET_DEFAULT = 2 ** 16


def budget_skip_reason(n: int, enum_budget: int, n0: int = 1) -> str | None:
    """Why certification is skipped for budget, or None when its work
    measure is within it: n^2 for one degree-n field, n0 * n^2 for an atlas
    of n0 residue classes.  It depends on the degree alone, so callers
    check it before anything is built."""
    if n0 * n * n <= enum_budget:
        return None
    measure = f"n^2 = {n}^2" if n0 == 1 else f"n0 * n^2 = {n0} * {n}^2"
    return f"{measure} = {n0 * n * n} exceeds the budget {enum_budget}"


@dataclass(frozen=True)
class PureField:
    """The degree-n field generated by a root of X^n - m, m square-free."""

    n: int
    m: int
    factorization: tuple[tuple[int, int], ...]

    @classmethod
    def create(
        cls,
        n: int,
        m: int,
        *,
        square_free_bound: int = SQUARE_FREE_BOUND_DEFAULT,
    ) -> "PureField":
        """Validate n >= 2 and m; an m that square_free_check cannot settle
        raises UnknownSquareFreeError (a larger square_free_bound settles more)."""
        if n < 2:
            raise ValueError(f"degree must be at least 2, got {n}")
        if m in (0, 1, -1):
            raise ValueError(f"m must differ from 0 and +-1, got {m}")
        check = square_free_check(m, square_free_bound)
        if isinstance(check, NotSquareFree):
            raise ValueError(f"m = {m} is divisible by {check.prime}**2")
        if isinstance(check, Unknown):
            raise UnknownSquareFreeError(m, check.bound)
        return cls(n, m, tuple(factorize(n)))

    def __str__(self) -> str:
        return f"Q({self.m}^(1/{self.n}))"


# frozen instances are written through object; bound once, as it runs
# twice for every element built
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class BasisElement:
    """numerator(alpha) / denominator, numerator an integer polynomial.

    The numerator is stored once, as its nonzero (t, c) terms, t ascending
    (terms); the last term is the leading one.  It may be given as its int
    coefficients, constant first, or as a QPolynomial with integer
    coefficients.  int_numerator (the dense ints) and numerator (the
    polynomial) are views built from the terms on each read.  Normalized:
    the gcd of all numerator coefficients and the denominator is 1, so the
    denominator is the least c with c * element in Z[alpha].
    """

    terms: tuple[tuple[int, int], ...]
    denominator: int

    def __init__(self, numerator: QPolynomial | Sequence[int], denominator: int):
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        if isinstance(numerator, QPolynomial):
            if not numerator.is_integral():
                raise ValueError("numerator must have integer coefficients")
            numerator = [c.numerator for c in numerator.coefficients]
        ints = list(numerator)
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            raise ValueError("zero basis element")
        if math.gcd(denominator, *ints) != 1:
            raise ValueError("element not in lowest terms")
        _set(self, "terms", tuple((t, c) for t, c in enumerate(ints) if c))
        _set(self, "denominator", denominator)

    @classmethod
    def _from_terms(cls, terms: tuple[tuple[int, int], ...], denominator: int) -> BasisElement:
        """The element sum c * alpha^t / denominator of terms that are
        already normalized: nonzero, t ascending, denominator positive.

        Construction's elements all lead with +-1, which puts them in
        lowest terms whatever the denominator; that O(1) fact is checked
        in place of a gcd over every coefficient.
        """
        if terms[-1][1] not in (1, -1):
            raise ValueError("trusted construction needs a leading coefficient of +-1")
        element = object.__new__(cls)
        _set(element, "terms", terms)
        _set(element, "denominator", denominator)
        return element

    def _shifted(self) -> BasisElement:
        # alpha times the element: every term moved up one degree
        return BasisElement._from_terms(
            tuple([(t + 1, c) for t, c in self.terms]), self.denominator
        )

    @property
    def int_numerator(self) -> tuple[int, ...]:
        """The numerator's int coefficients, constant first, built from the
        terms on each read."""
        dense = [0] * (self.terms[-1][0] + 1)
        for t, c in self.terms:
            dense[t] = c
        return tuple(dense)

    @property
    def numerator(self) -> QPolynomial:
        """The numerator as a polynomial, built from the terms on each read."""
        return QPolynomial(self.int_numerator)

    @property
    def degree(self) -> int:
        return self.terms[-1][0]

    def __repr__(self) -> str:
        # the dense form, so that reports read as they did before terms
        dense, d = self.int_numerator, self.denominator
        return f"BasisElement(int_numerator={dense!r}, denominator={d!r})"

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"({self.numerator})/{self.denominator}"


@dataclass(frozen=True)
class IntegralBasis:
    """Triangular basis of the maximal order, element i of degree i."""

    field: PureField
    elements: tuple[BasisElement, ...]

    def __post_init__(self):
        if len(self.elements) != self.field.n:
            raise ValueError("basis must have exactly n elements")
        for i, e in enumerate(self.elements):
            if e.degree != i:
                raise ValueError(f"element {i} has degree {e.degree}, want {i}")

    @classmethod
    def _assemble(cls, field: PureField, elements: tuple[BasisElement, ...]) -> IntegralBasis:
        # construction's own bases: n elements, element i of degree i by
        # construction, so the checks of __post_init__ are not rerun
        basis = object.__new__(cls)
        _set(basis, "field", field)
        _set(basis, "elements", elements)
        return basis

    @cached_property
    def _hash(self) -> int:
        # equal bases have equal terms, so this agrees with ==
        return hash((self.field, tuple([e.terms for e in self.elements])))

    def __hash__(self) -> int:
        # the certifier's closure-certificate cache is keyed on the basis, so
        # hash every coefficient once per basis object, not once per lookup
        return self._hash

    def denominator_ledger_ok(self) -> bool:
        # Theorem-level constraint: every denominator divides n/gcd(n, m)
        # and is coprime to m.
        bound = self.field.n // math.gcd(self.field.n, self.field.m)
        return all(
            bound % e.denominator == 0 and math.gcd(e.denominator, self.field.m) == 1
            for e in self.elements
        )

    def canonical(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, H): common denominator and HNF rows of the coordinate matrix.

        Row i of H holds the power-basis coordinates of D * (some Z-basis
        of the same lattice); two bases span the same order iff their
        canonical forms coincide.
        """
        common = math.lcm(*(e.denominator for e in self.elements))
        n = self.field.n
        rows = []
        for e in self.elements:
            scale = common // e.denominator
            row = [0] * n
            for t, c in e.terms:
                row[t] = scale * c
            rows.append(row)
        return common, tuple(map(tuple, hnf_rows(rows, n)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


def spans_equal(basis1: IntegralBasis, basis2: IntegralBasis) -> bool:
    """Whether the two bases generate the same Z-module."""
    if (basis1.field.n, basis1.field.m) != (basis2.field.n, basis2.field.m):
        raise ValueError("bases live in different fields")
    d1, h1 = basis1.canonical()
    d2, h2 = basis2.canonical()
    # rescale both to the lcm of the common denominators
    lcm = math.lcm(d1, d2)
    s1, s2 = lcm // d1, lcm // d2
    return all(
        s1 * x == s2 * y for r1, r2 in zip(h1, h2) for x, y in zip(r1, r2)
    )


@dataclass(frozen=True)
class IndexReport:
    """Index and discriminant bookkeeping for one pure field."""

    per_prime: dict[int, int]
    total_index: int
    field_discriminant: int
    poly_discriminant: int

    def __post_init__(self):
        prod = 1
        for p, e in self.per_prime.items():
            prod *= p ** e
        if prod != self.total_index:
            raise ValueError("total index does not match per-prime exponents")
        if self.field_discriminant * self.total_index ** 2 != self.poly_discriminant:
            raise ValueError("discriminant identity violated")


def s_value(p: int, m: int) -> int:
    """v_p(m^p - m) - 1; the parameter steering the basis shape at p."""
    if m % p == 0:
        raise ValueError("s undefined when p divides m; the Eisenstein branch applies")
    return vp_int(p, m ** p - m) - 1


def h_polynomial(p: int, k: int, r: int, t: int) -> list[int]:
    """The geometric sum (X^(p^k) - r^(p^t)) / (X^(p^(k-t)) - r) expanded,
    as its int coefficients, constant first.

    Degree p^k - p^(k-t), with p^t terms r^j * X^(p^(k-t) * (p^t - 1 - j)).
    """
    if t < 0 or t > k:
        raise ValueError(f"t must lie in [0, {k}], got {t}")
    if not 0 <= r < p ** (k + 1):
        raise ValueError(f"r must be a residue in [0, {p ** (k + 1)})")
    if r % p == 0:
        raise ValueError("r must be coprime to p")
    step = p ** (k - t)
    terms = p ** t
    coeffs = [0] * (p ** k - step + 1)
    power = 1
    for j in range(terms):
        coeffs[step * (terms - 1 - j)] = power
        power *= r
    return coeffs


def ind_p_closed_form(p: int, k: int, m: int) -> int:
    """The p-index of a root of X^(p^k) - m, in closed form."""
    if m % p == 0:
        # X^(p^k) - m is p-Eisenstein for square-free m
        return 0
    return (p ** k - p ** (k - min(s_value(p, m), k))) // (p - 1)


def prime_power_basis(p: int, k: int, m: int) -> IntegralBasis:
    """Integral basis of Q(m^(1/p^k)) for square-free m.

    For p | m the power basis is already maximal.  Otherwise the basis is
    the double-indexed family alpha^j * h_t(alpha) / p^t over the rows
    t = 0..min(s, k), s = v_p(m^p - m) - 1.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _prime_power_basis(PureField.create(p ** k, m), p, k)


def _prime_power_basis(field: PureField, p: int, k: int) -> IntegralBasis:
    m = field.m
    if m % p == 0:
        power_basis = (BasisElement._from_terms(((i, 1),), 1) for i in range(field.n))
        return IntegralBasis._assemble(field, tuple(power_basis))

    r = m % p ** (k + 1)
    top = min(s_value(p, m), k)
    elements = []
    for t in range(top + 1):
        # row t fills degrees p^k - p^(k-t) up to the start of row t + 1:
        # h_t / p^t, then alpha times the element below
        h = tuple([(j, c) for j, c in enumerate(h_polynomial(p, k, r, t)) if c])
        element = BasisElement._from_terms(h, p ** t)
        elements.append(element)
        for _ in range(p ** (k - t) - (p ** (k - t - 1) if t < top else 0) - 1):
            element = element._shifted()
            elements.append(element)
    return IntegralBasis._assemble(field, tuple(elements))


def _is_shift(above, below, b: int, c: int) -> bool:
    """Whether the (denominator, terms) pair above is c * alpha^b times
    below: the same denominator, every term moved up b degrees and scaled
    by c, compared in place."""
    (d, upper), (e, lower) = above, below
    if d != e or len(upper) != len(lower):
        return False
    for (s, y), (t, x) in zip(upper, lower):
        if s != t + b or y != c * x:
            return False
    return True


def compose_bases(bases: Sequence[IntegralBasis], m: int) -> IntegralBasis:
    """Merge bases of Q(m^(1/n_i)) for pairwise coprime n_i into degree prod n_i.

    For each degree k, piece i contributes its unique stretched element
    Psi_i = X^b * psi_a(X^(n/n_i)) of degree k, k = a * (n/n_i) + b.
    Writing Psi_i = A_i/u_i, the result is C/U with U = prod u_i and C_j
    the CRT representative in [0, U) of (A_ij mod u_i) over every i.  Then
    (U/u_i) * gamma - Psi_i is integral for every i, which makes gamma
    integral.  A single piece comes back unchanged.

    Where every Psi_i of degree k is X times the one of degree k - 1 over
    the same u_i (always so at b > 0; at b = 0 when psi_a = X * psi_(a-1)
    in piece i), U is unchanged and reduction mod U commutes with the
    shift, so element k is X times element k - 1 and no CRT step runs.
    In built bases that holds at every degree but the starts of the
    pieces' rows.  Every piece must be monic, as every prime-power basis
    is: then each CRT step leads with 1, and each element is built once,
    in lowest terms, with no gcd taken.
    """
    degrees = [basis.field.n for basis in bases]
    if any(math.gcd(a, b) != 1 for a, b in combinations(degrees, 2)):
        raise ValueError(f"degrees {degrees} are not pairwise coprime")
    if any(basis.field.m != m for basis in bases):
        raise ValueError("bases must belong to the same radicand m")
    if len(bases) == 1:
        return bases[0]
    n = math.prod(degrees)
    # every input carries an already-validated m, so assemble the composite
    # field directly rather than re-running the square-free check
    merged = tuple(sorted(f for basis in bases for f in basis.field.factorization))
    strides = [n // n_i for n_i in degrees]
    pieces = [basis.elements for basis in bases]
    # the degrees k at which some piece's stretched element is not X times
    # the one before: k = 0, and k = a * stride where psi_a is not
    # X * psi_(a-1) over the same denominator
    breaks = {0}
    for stride, rows in zip(strides, pieces):
        breaks.update(
            a * stride
            for a, (e, below) in enumerate(zip(rows[1:], rows), 1)
            if not _is_shift((e.denominator, e.terms), (below.denominator, below.terms), 1, 1)
        )

    elements = []
    for k in range(n):
        if k not in breaks:
            elements.append(elements[-1]._shifted())
            continue
        stretched = [(s, k % s, rows[k // s]) for s, rows in zip(strides, pieces)]
        modulus = math.prod(e.denominator for *_, e in stretched)
        if modulus == 1:
            # every coefficient but the leading 1 is an integer, which the
            # representative range [0, 1) takes to 0
            elements.append(BasisElement._from_terms(((k, 1),), 1))
            continue
        coeffs = [0] * (k + 1)
        for stride, shift, e in stretched:
            # the idempotent that is 1 mod u and 0 mod every other u_i
            u = e.denominator
            cofactor = modulus // u
            idempotent = cofactor * pow(cofactor, -1, u)
            for j, c in e.terms:
                coeffs[shift + j * stride] += c * idempotent
        terms = tuple([(t, r) for t, c in enumerate(coeffs) if (r := c % modulus)])
        elements.append(BasisElement._from_terms(terms, modulus))
    return IntegralBasis._assemble(PureField(n, m, merged), tuple(elements))


@lru_cache(maxsize=1)
def index_report(field: PureField) -> IndexReport:
    """Assemble the index/discriminant ledger from the closed forms alone.

    The report of the last field asked for is kept and handed out again,
    so integral_basis and the certifier it calls build it once; callers
    must not mutate it."""
    n, m = field.n, field.m
    per_prime = {}
    for p, k in field.factorization:
        # merging coprime parts raises each prime-power index to the
        # complementary power: ind_p picks up the cofactor n / p^k
        per_prime[p] = ind_p_closed_form(p, k, m) * (n // p ** k)
    total = 1
    for p, e in per_prime.items():
        total *= p ** e
    # disc(X^n + a) = (-1)^(n(n-1)/2) * n^n * a^(n-1); substituting a = -m
    # contributes a further (-1)^(n-1), so the exponent is (n-1)(n+2)/2
    sign = -1 if ((n - 1) * (n + 2) // 2) % 2 else 1
    poly_disc = sign * n ** n * m ** (n - 1)
    if poly_disc % (total * total) != 0:
        raise ArithmeticError("index square does not divide the discriminant")
    return IndexReport(per_prime, total, poly_disc // (total * total), poly_disc)


def build_basis(field: PureField) -> IntegralBasis:
    """The closed-form basis of the field, not yet certified.

    One compose_bases call merges the bases of the prime powers of n.  m
    was validated when the field was created, so each piece's field is
    assembled directly, as in compose_bases, and no piece is validated
    again.
    """
    pieces = [
        _prime_power_basis(PureField(p ** k, field.m, ((p, k),)), p, k)
        for p, k in field.factorization
    ]
    return compose_bases(pieces, field.m)


def integral_basis(
    field: PureField, *, enum_budget: int = ENUM_BUDGET_DEFAULT
) -> tuple[IntegralBasis, IndexReport]:
    """Integral basis plus index ledger, certified before being returned.

    The basis from build_basis is post-certified (integrality, ring
    closure, discriminant accounting, p-maximality for every p | n); a
    basis that fails certification is never emitted.  A field whose work
    measure n^2 exceeds enum_budget raises CertificationSkipped before
    anything is built: at huge n the construction itself would not finish.
    """
    from . import oracle

    over_budget = budget_skip_reason(field.n, enum_budget)
    if over_budget is not None:
        raise CertificationSkipped(over_budget)

    basis = build_basis(field)
    report = index_report(field)
    certification = oracle.certify(basis, enum_budget=enum_budget)
    if not certification.certified:
        raise RuntimeError(
            f"constructed basis for {field} failed certification: {certification}"
        )
    if not basis.denominator_ledger_ok():
        raise RuntimeError(f"denominator ledger violated for {field}")
    _check_discriminant_accounting(basis, report)
    return basis, report


def _check_discriminant_accounting(basis: IntegralBasis, report: IndexReport) -> None:
    # triangular determinant: the product of the denominators is the index
    prod = 1
    for e in basis.elements:
        prod *= e.denominator
    if prod != report.total_index:
        raise RuntimeError(
            f"denominator product {prod} disagrees with index {report.total_index}"
        )


def ledger_json_dict(field: PureField, report: IndexReport) -> dict:
    """JSON-ready description of a field's index ledger."""
    return {
        "n": field.n,
        "m": field.m,
        "index": {str(p): e for p, e in sorted(report.per_prime.items())},
        "total_index": report.total_index,
        "disc_field": report.field_discriminant,
        "disc_poly": report.poly_discriminant,
    }


def basis_json_dict(basis: IntegralBasis, report: IndexReport) -> dict:
    """JSON-ready description of a basis and its ledger."""
    common, matrix = basis.canonical()
    return {
        **ledger_json_dict(basis.field, report),
        "elements": [
            {"num": list(e.int_numerator), "den": e.denominator}
            for e in basis.elements
        ],
        "hnf": {"den": common, "matrix": [list(row) for row in matrix]},
    }
