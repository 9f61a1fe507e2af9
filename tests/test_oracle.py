"""Certification oracle: exact arithmetic, integrality, discriminants,
and the p-maximality proof, cross-validated against a literal coset walk
and against the rational twins in rational_reference."""

import dataclasses
import fractions
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from purefields import exactmath, oracle
from purefields.exactmath import (
    QPolynomial,
    RatMatrix,
    SquareFree,
    charpoly,
    det_rational,
    factorize,
    fp_kernel,
    fp_reduce,
    hnf_rows,
    square_free_check,
    vp_int,
)
from purefields.oracle import (
    CertificationReport,
    ClosureCertificate,
    CounterexampleFound,
    Proved,
    MaximalityResult,
    Skipped,
    _multiplication_matrix,
    _power_basis_discriminant,
    basis_discriminant,
    certification_json_dict,
    certify,
    is_algebraic_integer,
    p_maximality_enum,
)
from purefields.purebasis import (
    BasisElement,
    CertificationSkipped,
    IntegralBasis,
    PureField,
    budget_skip_reason,
    build_basis,
    index_report,
    integral_basis,
    prime_power_basis,
)
from fp_reference import fp_kernel as reference_fp_kernel
import given_basis_reference
import multiplier_reference
from fp_reference import fp_reduce as reference_fp_reduce
from rational_reference import FieldElement, coordinates_in_basis, mul, trace
from rational_reference import element_as_qpoly, element_from_qpoly, minimal_polynomial
from rational_reference import charpoly as reference_charpoly
from rational_reference import is_algebraic_integer as reference_is_integral
from poly_reference import dedekind_p_maximal
from table_reference import closure_certificate_by_products, gram_discriminant, structure_constants


def power_basis(n: int, m: int) -> IntegralBasis:
    field = PureField.create(n, m)
    return IntegralBasis(
        field, tuple(BasisElement(QPolynomial.x_power(j), 1) for j in range(n))
    )


def element(field: PureField, *coords) -> FieldElement:
    return FieldElement(field, tuple(Fraction(c) for c in coords))


def basis_element(*coords) -> BasisElement:
    """N(alpha)/d in lowest terms from power-basis coordinates."""
    return element_from_qpoly(QPolynomial(coords))


class ReachedCharpoly(Exception):
    pass


def _raising_charpoly(matrix):
    raise ReachedCharpoly


def passes_trace_test(field: PureField, e: BasisElement) -> bool:
    """Whether is_algebraic_integer gets past its trace test (and, at
    gcd(d, m) = 1, the Eisenstein exit after it) to charpoly."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "charpoly", _raising_charpoly)
        try:
            is_algebraic_integer(field, e)
        except ReachedCharpoly:
            return True
    return False


# ---------------------------------------------------------------------------
# field arithmetic: the rational reference twin
# ---------------------------------------------------------------------------

def test_field_element_validation():
    f = PureField.create(3, 2)
    with pytest.raises(ValueError):
        FieldElement(f, (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        FieldElement.alpha_power(f, 3)


def test_mul_defining_relation():
    for n, m in [(2, 5), (3, 10), (9, 55), (12, 53)]:
        f = PureField.create(n, m)
        top = FieldElement.alpha_power(f, n - 1)
        alpha = FieldElement.alpha_power(f, 1)
        assert mul(top, alpha).coords == tuple(
            Fraction(m if i == 0 else 0) for i in range(n)
        )


def test_mul_identity():
    f = PureField.create(4, 17)
    e = element(f, Fraction(1, 2), 3, Fraction(-5, 4), 0)
    assert mul(e, FieldElement.one(f)) == e


def test_mul_hand_example():
    # ((1+a)/2)^2 = (1 + 2a + a^2)/4 = (6 + 2a)/4 = (3+a)/2 when a^2 = 5
    f = PureField.create(2, 5)
    e = element(f, Fraction(1, 2), Fraction(1, 2))
    assert mul(e, e) == element(f, Fraction(3, 2), Fraction(1, 2))


def test_mul_field_mismatch():
    e1 = FieldElement.one(PureField.create(2, 5))
    e2 = FieldElement.one(PureField.create(2, 7))
    with pytest.raises(ValueError):
        mul(e1, e2)


def test_from_qpoly_reduces():
    f = PureField.create(3, 10)
    # X^4 + X = 10*a + a = 11*a
    e = FieldElement.from_qpoly(f, QPolynomial([0, 1, 0, 0, 1]))
    assert e == element(f, 0, 11, 0)


def test_trace_examples():
    f = PureField.create(5, 7)
    assert trace(FieldElement.one(f)) == 5
    for j in range(1, 5):
        assert trace(FieldElement.alpha_power(f, j)) == 0
    f2 = PureField.create(2, 5)
    assert trace(element(f2, Fraction(1, 2), Fraction(1, 2))) == 1


def test_multiplication_by_alpha_has_minimal_charpoly():
    for n, m in [(2, 7), (3, 10), (6, 5), (9, 55), (24, 5)]:
        f = PureField.create(n, m)
        assert charpoly(_multiplication_matrix(f, (0, 1))) == minimal_polynomial(f)


def test_multiplication_matrix_charpoly_matches_reference_at_degree_24():
    field = PureField.create(24, -10)
    rng = random.Random(24)
    for support in (2, 6, 24):
        numerator = [0] * 24
        for i in rng.sample(range(24), support):
            numerator[i] = rng.randint(-30, 30) or 1
        M = _multiplication_matrix(field, numerator)
        assert list(charpoly(M).coefficients) == reference_charpoly(M.entries)


# ---------------------------------------------------------------------------
# the trace test and integrality
# ---------------------------------------------------------------------------

def test_dual_coords_of_one():
    # the trace pairings of 1/6 in a sextic field are (1, 0, ..., 0): it
    # passes the trace test, and only the characteristic polynomial
    # (X - 1/6)^6 rejects it
    f = PureField.create(6, 5)
    one_sixth = BasisElement(QPolynomial([1]), 6)
    assert passes_trace_test(f, one_sixth)
    assert not is_algebraic_integer(f, one_sixth)
    assert not is_algebraic_integer(f, BasisElement(QPolynomial([1]), 3))


def test_dual_coords_flag_non_integer():
    # Tr((a/7) * a^2) = 3*10/7 is not an integer, so the trace test alone
    # rejects a/7 and the characteristic polynomial is never formed
    f = PureField.create(3, 10)
    e = BasisElement(QPolynomial([0, 1]), 7)
    fe = FieldElement.from_basis_element(f, e)
    assert trace(mul(fe, element(f, 0, 0, 1))) == Fraction(30, 7)
    assert not passes_trace_test(f, e)
    assert not is_algebraic_integer(f, e)


def test_dual_coords_integral_on_certified_basis():
    basis, _ = integral_basis(PureField.create(12, 17))
    powers = [FieldElement.alpha_power(basis.field, i) for i in range(12)]
    for e in basis.elements:
        fe = FieldElement.from_basis_element(basis.field, e)
        assert all(trace(mul(fe, a)).denominator == 1 for a in powers)
        assert e.denominator == 1 or passes_trace_test(basis.field, e)
        assert is_algebraic_integer(basis.field, e)


def test_is_algebraic_integer_examples():
    f10 = PureField.create(3, 10)   # 10 = 1 mod 9
    assert is_algebraic_integer(f10, basis_element(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    f2 = PureField.create(3, 2)
    assert not is_algebraic_integer(f2, basis_element(Fraction(1, 3), Fraction(1, 3), 0))
    f = PureField.create(7, 3)
    for j in range(7):
        assert is_algebraic_integer(f, BasisElement(QPolynomial.x_power(j), 1))
    with pytest.raises(ValueError):
        is_algebraic_integer(f10, BasisElement(QPolynomial.x_power(3), 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_integral_implies_integer_dual_coords(coeffs):
    # one-directional: integrality forces integer trace pairings
    basis, _ = integral_basis(PureField.create(3, 10))
    total = QPolynomial()
    for c, e in zip(coeffs, basis.elements):
        total = total + element_as_qpoly(e) * c
    if total.is_zero():
        return
    x = element_from_qpoly(total)
    assert is_algebraic_integer(basis.field, x)
    assert x.denominator == 1 or passes_trace_test(basis.field, x)
    fx = FieldElement.from_basis_element(basis.field, x)
    powers = [FieldElement.alpha_power(basis.field, i) for i in range(3)]
    assert all(trace(mul(fx, a)).denominator == 1 for a in powers)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 12),
    st.sampled_from((-30, -19, -7, -2, 2, 3, 10, 17, 26, 30)),
    st.lists(st.fractions(-40, 40, max_denominator=36), min_size=12, max_size=12),
)
def test_shifted_coordinates_match_products(n, m, coords):
    # the trace test and the multiplication matrix are read off the
    # numerator by a shift; they must agree with the products they stand
    # for, and the integrality verdict with the rational twin's
    field = PureField.create(n, m)
    if not any(coords[:n]):
        return
    x = basis_element(*coords[:n])
    numerator = x.numerator.integer_coefficients()
    powers = [FieldElement.alpha_power(field, i) for i in range(n)]
    scaled = FieldElement.from_basis_element(field, BasisElement(x.numerator, 1))
    assert _multiplication_matrix(field, numerator).entries == tuple(
        mul(scaled, a).coords for a in powers
    )
    fx = FieldElement.from_basis_element(field, x)
    pairings_integral = all(trace(mul(fx, a)).denominator == 1 for a in powers)
    if x.denominator > 1 and math.gcd(x.denominator, m) == 1:
        assert passes_trace_test(field, x) == pairings_integral
    elif x.denominator > 1:
        # the Eisenstein exit: rejected at a prime of m before charpoly
        assert not passes_trace_test(field, x)
        assert not is_algebraic_integer(field, x)
    assert is_algebraic_integer(field, x) == reference_is_integral(fx)


SQUARE_FREE_UP_TO_200 = [
    m for m in range(-200, 201)
    if m not in (0, 1, -1) and isinstance(square_free_check(m), SquareFree)
]


@st.composite
def subfield_elements(draw):
    """(field, x), n in 2..24, m square-free (half the time in the class
    where every prime of n/g is wild), x = z + N(alpha)/d in lowest
    terms, d in 1..n*|m|.  Both terms share one of three shapes: terms
    only at multiples of a g | n, g > 1, so x lies in Q(alpha^g); alpha^b times
    such an element, 0 < b < g, which Q(alpha^g) does not hold; or dense
    (g = 1).  z is integral, a combination of the built basis of
    Q(alpha^g) shifted by alpha^b; N is zero one draw in three, so x is
    then integral, and otherwise scaled three draws in four so that the
    trace test passes and charpoly decides."""
    n = draw(st.integers(2, 24))
    shape = draw(st.sampled_from(("subfield", "shifted", "dense")))
    g = 1 if shape == "dense" else draw(st.sampled_from([g for g in range(2, n + 1) if n % g == 0]))
    b = draw(st.integers(1, g - 1)) if shape == "shifted" else 0
    if g < n and draw(st.booleans()):
        # every prime of n/g wild, so the maximal order of Q(alpha^g) has
        # denominators
        m = _wild_class_radicand(n // g, draw(st.integers(1, 10)))
    else:
        m = draw(st.sampled_from(SQUARE_FREE_UP_TO_200))
    # z over its denominator D, from the maximal order of Q(alpha^g)
    z = [0] * n
    if g == n:
        z[b], D = draw(st.integers(-3, 3)), 1
    else:
        basis = build_basis(PureField.create(n // g, m))
        D = math.lcm(*(e.denominator for e in basis.elements))
        for e in basis.elements:
            c = draw(st.integers(-3, 3)) * (D // e.denominator)
            for t, a in enumerate(e.int_numerator):
                z[b + t * g] += c * a
    d = draw(st.integers(1, n * abs(m)))
    numerator = [0] * n
    if draw(st.integers(0, 2)):
        for t in range(b, n, g):
            numerator[t] = draw(st.integers(-40, 40))
        if draw(st.integers(0, 3)):
            # n*N_0/d and n*m*N_t/d, t >= 1, are then integers
            numerator = [
                c * (d // math.gcd(d, n if t == 0 else n * m)) for t, c in enumerate(numerator)
            ]
    # x = (d*z + D*N) / (D*d)
    numerator = [d * a + D * c for a, c in zip(z, numerator)]
    assume(any(numerator))
    common = math.gcd(D * d, *numerator)
    return PureField.create(n, m), BasisElement([c // common for c in numerator], D * d // common)


@settings(max_examples=200, deadline=None)
@given(subfield_elements())
def test_integrality_in_the_subfield_matches_the_full_degree_reference(drawn):
    # the verdict is the full-degree Faddeev-LeVerrier twin's.  A call
    # past the trace test with gcd(d, m) = 1 has d | n and takes, for each
    # prime q of d in ascending order until the first that fails,
    # charpoly of the (n/g)-row matrix of Q(alpha^g), g the gcd of n and
    # the exponents of N mod q^a shifted down by the least of them
    field, x = drawn
    n, d = field.n, x.denominator
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "charpoly", lambda M: rows.append(M.rows) or charpoly(M))
        verdict = is_algebraic_integer(field, x)
    fx = FieldElement.from_basis_element(field, x)
    assert verdict == reference_is_integral(fx)
    powers = [FieldElement.alpha_power(field, i) for i in range(n)]
    expected = []
    if d > 1 and math.gcd(d, field.m) == 1 and all(
        trace(mul(fx, a)).denominator == 1 for a in powers
    ):
        assert n % d == 0
        primes = [q for q, _ in factorize(d)]
        for i, q in enumerate(primes):
            modulus = q ** vp_int(q, d)
            local = [c % modulus for c in x.int_numerator]
            exponents = [t for t, c in enumerate(local) if c]
            expected.append(n // math.gcd(n, *(t - exponents[0] for t in exponents)))
            if verdict or i == len(primes) - 1:
                continue
            x_q = FieldElement.from_basis_element(field, BasisElement(local, modulus))
            if not reference_is_integral(x_q):
                break
    assert rows == expected


# degrees with two or more primes, so that a denominator can hold several
MULTI_PRIME_DEGREES = (6, 10, 12, 14, 15, 18, 20, 24)


@st.composite
def local_elements(draw):
    """(field, x), n with two or more primes, m three draws in four in the
    wild class (every prime of n puts denominators in the built basis,
    which is CRT-composed across them), else any square-free m up to 200.  x starts
    as z = N(alpha)/D, an integral combination of alpha^j-shifted elements
    of the built basis, D the lcm of its denominators, then is corrupted
    as refute's mutants are: a bump adds (D/q^v)*alpha^i, q a prime of n
    and q^v || D, which breaks integrality at q alone when q | D; a den
    divides by one or two primes of n or of m.  Lowest terms last."""
    n = draw(st.sampled_from(MULTI_PRIME_DEGREES))
    if draw(st.integers(0, 3)):
        m = _wild_class_radicand(n, draw(st.integers(1, 10)))
    else:
        m = draw(st.sampled_from(SQUARE_FREE_UP_TO_200))
    field = PureField.create(n, m)
    basis = build_basis(field)
    D = math.lcm(*(e.denominator for e in basis.elements))
    numerator = [0] * n
    for _ in range(draw(st.integers(1, 3))):
        # the top elements carry the largest denominators
        e = basis.elements[-draw(st.integers(1, n))]
        j = draw(st.integers(0, n - 1))
        c = draw(st.sampled_from((-2, -1, 1, 2, 3))) * (D // e.denominator)
        for t, a in enumerate(e.int_numerator):
            # alpha^(t + j), reduced by alpha^n = m
            numerator[(t + j) % n] += c * a * (m if t + j >= n else 1)
    primes_of_n = [q for q, _ in field.factorization]
    if draw(st.booleans()):
        q = draw(st.sampled_from(primes_of_n))
        numerator[draw(st.integers(0, n - 1))] += D // q ** vp_int(q, D)
    den = D
    if draw(st.booleans()):
        primes = primes_of_n + [q for q, _ in factorize(abs(m))]
        for _ in range(draw(st.integers(1, 2))):
            den *= draw(st.sampled_from(primes))
    assume(any(numerator))
    common = math.gcd(den, *numerator)
    return field, BasisElement([c // common for c in numerator], den // common)


@settings(max_examples=150, deadline=None)
@given(local_elements())
def test_local_integrality_matches_the_full_degree_reference(drawn):
    # deciding one prime of d at a time, on N mod q^a stripped of its
    # alpha-power, gives the full-degree Faddeev-LeVerrier twin's verdict
    field, x = drawn
    fx = FieldElement.from_basis_element(field, x)
    assert is_algebraic_integer(field, x) == reference_is_integral(fx)


def test_den_mutants_of_a_wild_basis_reach_charpoly_only_in_small_subfields(monkeypatch):
    # den*2 and den*3 corruptions of built (12, m) bases, m in the wild
    # class: every element off the order is tested one prime of its
    # denominator at a time, and each local numerator, stripped of its
    # alpha-power, lies in Q(alpha^3) (or smaller) at 2 and Q(alpha^4) (or
    # smaller) at 3
    rows = []
    monkeypatch.setattr(oracle, "charpoly", lambda M: rows.append(M.rows) or charpoly(M))
    for t in (1, 2):
        basis = build_basis(PureField.create(12, _wild_class_radicand(12, t)))
        for j, e in enumerate(basis.elements):
            for factor in (2, 3):
                elements = list(basis.elements)
                elements[j] = BasisElement(e.int_numerator, factor * e.denominator)
                report = certify(IntegralBasis(basis.field, tuple(elements)))
                assert report.integrality == tuple(k != j for k in range(12))
    assert rows and max(rows) <= 4


def test_eisenstein_exit_rejects_before_charpoly(monkeypatch):
    # alpha/2 and alpha/5 in Q(sqrt(-30)), and alpha^2/3 in Q(6^(1/4)),
    # pass the trace test; their denominators meet m, where X^n - m is
    # Eisenstein and Z_(q)[alpha] is q-maximal, so no charpoly is needed
    monkeypatch.setattr(oracle, "charpoly", _raising_charpoly)
    for n, m, x in (
        (2, -30, BasisElement([0, 1], 2)),
        (2, -30, BasisElement([0, 1], 5)),
        (4, 6, BasisElement([0, 0, 1], 3)),
    ):
        assert not is_algebraic_integer(PureField.create(n, m), x)


def test_a_large_prime_denominator_is_decided_without_factoring():
    # d = 2^89 - 1, a prime: over m = d it meets the Eisenstein exit after
    # the trace test, over m = 3 it fails the trace test; d is never
    # factored, so each call takes microseconds
    q = 2 ** 89 - 1
    # Lucas-Lehmer: 2^89 - 1 is prime iff s_87 = 0, s_0 = 4, s_(i+1) = s_i^2 - 2
    s = 4
    for _ in range(87):
        s = (s * s - 2) % q
    assert s == 0
    cases = (
        (PureField(6, q, ((2, 1), (3, 1))), BasisElement([0, 1], q)),
        (PureField.create(6, 3), BasisElement([0, 1], q)),
        (PureField.create(6, 3), BasisElement([1, 0, 1], 2 * q)),
    )
    for field, x in cases:
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            assert not is_algebraic_integer(field, x)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.01


def test_coordinates_in_basis_roundtrip():
    basis, _ = integral_basis(PureField.create(6, 10))
    fe = FieldElement.from_basis_element(basis.field, basis.elements[4])
    coords = coordinates_in_basis(fe, basis)
    assert coords == tuple(Fraction(int(i == 4)) for i in range(6))
    mixed = mul(fe, fe)
    back = coordinates_in_basis(mixed, basis)
    assert all(c.denominator == 1 for c in back)


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------

def test_power_basis_discriminants():
    assert basis_discriminant(power_basis(2, 7)) == 28
    assert basis_discriminant(power_basis(3, 10)) == -2700
    # sign exponent (n-1)(n+2)/2: negative for n = 4, 12, positive for n = 9
    assert basis_discriminant(power_basis(4, 5)) == -(4 ** 4) * 5 ** 3
    assert basis_discriminant(power_basis(9, 55)) == 9 ** 9 * 55 ** 8
    assert basis_discriminant(power_basis(12, 53)) == -(12 ** 12) * 53 ** 11


def test_power_basis_discriminant_formula_grid():
    # the Gram route reads its determinant off one entry per row; the
    # whole certifier route cross-checks against it at small n
    for n in range(2, 65):
        for m in (-5, -2, 3, 7):
            sign = -1 if ((n - 1) * (n + 2) // 2) % 2 else 1
            expected = sign * n ** n * m ** (n - 1)
            assert _power_basis_discriminant(PureField.create(n, m)) == expected
            if n <= 8:
                assert basis_discriminant(power_basis(n, m)) == expected


def test_trace_gram_leaves_det_int_a_core_of_at_most_two(monkeypatch):
    # the bases are triangular and mostly plain powers, so the trace Gram
    # of the table twin is nearly monomial: single-entry rows and columns
    # are expanded away and fraction-free elimination sees at most a 2 x 2
    # core; the certifier's transition route never reaches elimination
    cores = []
    bareiss = exactmath._bareiss

    def recording(a):
        cores.append(len(a))
        return bareiss(a)

    monkeypatch.setattr(exactmath, "_bareiss", recording)
    for n, m in LARGE_FIELD_SEED_ONE:
        field = PureField.create(n, m)
        basis = build_basis(field)
        cores.clear()
        assert basis_discriminant(basis) == index_report(field).field_discriminant
        assert cores == [], (n, m, cores)
        twin = gram_discriminant(basis, structure_constants(basis))
        assert twin == index_report(field).field_discriminant
        assert max(cores, default=0) <= 2, (n, m, cores)


@pytest.mark.parametrize("n, m", [(128, 3), (256, 3)])
def test_large_degree_discriminant_matches_ledger(n, m):
    field = PureField.create(n, m)
    assert basis_discriminant(build_basis(field)) == index_report(field).field_discriminant


def test_dedekind_basis_discriminant():
    field = PureField.create(3, 10)
    ded = IntegralBasis(
        field,
        (
            BasisElement(QPolynomial([1]), 1),
            BasisElement(QPolynomial([0, 1]), 1),
            BasisElement(QPolynomial([1, 1, 1]), 3),
        ),
    )
    assert basis_discriminant(ded) == -300


def test_degree_nine_discriminant_drops_by_index_squared():
    basis = prime_power_basis(3, 2, 55)
    assert basis_discriminant(basis) == 9 ** 9 * 55 ** 8 // 3 ** 8


def test_non_integral_basis_discriminant_raises():
    field = PureField.create(2, 7)
    thirds = IntegralBasis(
        field,
        (BasisElement(QPolynomial([1]), 1), BasisElement(QPolynomial([0, 1]), 3)),
    )
    with pytest.raises(ArithmeticError):
        basis_discriminant(thirds)


# ---------------------------------------------------------------------------
# p-maximality
# ---------------------------------------------------------------------------

def test_maximality_proved_for_degree_nine_family():
    basis = prime_power_basis(3, 2, 55)
    assert p_maximality_enum(basis, 3) == Proved()


def test_maximality_counterexample_quadratic():
    result = p_maximality_enum(power_basis(2, 5), 2)
    assert isinstance(result, CounterexampleFound)
    assert result.element == BasisElement(QPolynomial([1, 1]), 2)


def test_maximality_degree_twelve():
    basis, _ = integral_basis(PureField.create(12, 53))
    assert p_maximality_enum(basis, 2) == Proved()
    assert p_maximality_enum(basis, 3) == Proved()


def test_maximality_budget_guard(monkeypatch):
    # certify's budget bounds n^2: just under it no proof runs, and every
    # p | n is skipped with one reason; at n^2 itself each is proved
    basis = build_basis(PureField.create(6, 5))
    proofs = []

    def counting(basis, p):
        proofs.append(p)
        return p_maximality_enum(basis, p)

    monkeypatch.setattr(oracle, "p_maximality_enum", counting)
    report = certify(basis, enum_budget=35)
    assert proofs == []
    reason = "n^2 = 6^2 = 36 exceeds the budget 35"
    assert report.maximality == {2: Skipped(reason), 3: Skipped(reason)}
    report = certify(basis, enum_budget=36)
    assert sorted(proofs) == [2, 3]
    assert report.certified and report.maximality == {2: Proved(), 3: Proved()}


def test_budget_guard_with_unprintable_coset_count():
    # 2^15000 has more digits than int -> str may convert; the guard reads
    # n^2 and never forms p^n, so the degree-15000 basis is never built
    field = PureField.create(15000, 2)
    with pytest.raises(CertificationSkipped) as info:
        integral_basis(field, enum_budget=15000 ** 2 - 1)
    assert info.value.reason == (
        "n^2 = 15000^2 = 225000000 exceeds the budget 224999999"
    )
    assert budget_skip_reason(15000, 15000 ** 2) is None


def test_maximality_rejects_composite_p():
    with pytest.raises(ValueError):
        p_maximality_enum(power_basis(2, 5), 4)


def test_maximality_skips_non_ring_lattice():
    # (1, 3a, a^2) in Q(10^(1/3)): a^2 * a^2 = 10a needs coordinate 10/3
    field = PureField.create(3, 10)
    lattice = IntegralBasis(
        field,
        (
            BasisElement(QPolynomial([1]), 1),
            BasisElement(QPolynomial([0, 3]), 1),
            BasisElement(QPolynomial([0, 0, 1]), 1),
        ),
    )
    result = p_maximality_enum(lattice, 3)
    assert isinstance(result, Skipped)
    assert "closed" in result.reason


def test_maximality_skips_lattice_without_one():
    # cZ + aZ with a^2 = 6 is multiplicatively closed; it contains 1
    # exactly when c is a unit of Z, whatever its sign
    field = PureField.create(2, 6)

    def lattice(c):
        return IntegralBasis(
            field,
            (BasisElement(QPolynomial([c]), 1), BasisElement(QPolynomial([0, 1]), 1)),
        )

    for c in (2, 3):
        result = p_maximality_enum(lattice(c), 2)
        assert isinstance(result, Skipped)
        assert "contain 1" in result.reason
    # -1 spans Z[a], the maximal order of Q(6^(1/2))
    assert p_maximality_enum(lattice(-1), 2) == Proved()


# power-basis coordinates num[i]/den of the witnesses the rational-arithmetic
# solve found; the integer solve must return the very same elements
PINNED_COUNTEREXAMPLES = {
    (9, 55, 3): [Fraction(1, 3)] * 9,
    (12, 17, 2): [Fraction(1, 2), 0, 0] * 4,
    (12, 17, 3): [Fraction(1, 3), 0, 0, 0, Fraction(2, 3), 0, 0, 0,
                  Fraction(1, 3), 0, 0, 0],
    (2, 5, 2): [Fraction(1, 2), Fraction(1, 2)],
}


@pytest.mark.parametrize("n, m, p", sorted(PINNED_COUNTEREXAMPLES))
def test_counterexample_coordinates_pinned(n, m, p):
    result = p_maximality_enum(power_basis(n, m), p)
    assert isinstance(result, CounterexampleFound)
    num = result.element.numerator.integer_coefficients()
    coords = [Fraction(c, result.element.denominator) for c in num]
    assert coords + [0] * (n - len(num)) == PINNED_COUNTEREXAMPLES[n, m, p]


@pytest.mark.parametrize("n, m, p, maximal", [(9, 55, 3, False), (12, 17, 2, True)])
def test_product_outside_the_radical_ideal_raises(monkeypatch, n, m, p, maximal):
    # Z*1 + p*O is a full-rank lattice but no ideal (1 * b_1 = b_1 is not
    # in it), so solving a generator product in it must hit the guard
    basis = integral_basis(PureField.create(n, m))[0] if maximal else power_basis(n, m)
    assert basis.elements[0] == BasisElement(QPolynomial([1]), 1)

    def not_an_ideal(rows, ncols):
        return [[(1 if i == 0 else p) * (i == j) for j in range(ncols)] for i in range(ncols)]

    monkeypatch.setattr(oracle, "hnf_rows", not_an_ideal)
    with pytest.raises(ArithmeticError, match="left the radical ideal"):
        oracle._round_two(basis, p, oracle._structure_constants(basis))


def _exhaustive_maximality_scan(basis: IntegralBasis, p: int) -> MaximalityResult:
    """Literal coset walk; the slow twin that cross-validates the fast route."""
    field = basis.field
    n = field.n
    elems = [FieldElement.from_basis_element(field, e) for e in basis.elements]
    for cvec in itertools.product(range(p), repeat=n):
        if not any(cvec):
            continue
        numerator = [
            sum((Fraction(c) * e.coords[t] for c, e in zip(cvec, elems)), Fraction(0))
            for t in range(n)
        ]
        candidate = FieldElement(field, tuple(x / p for x in numerator))
        if reference_is_integral(candidate):
            return CounterexampleFound(candidate.to_basis_element())
    return Proved()


def test_fast_route_matches_exhaustive_scan():
    cases = [
        (2, 5, 2),
        (2, 7, 2),
        (3, 10, 3),
        (3, 2, 3),
        (4, 5, 2),
        (4, 17, 2),
        (6, 5, 2),
        (6, 10, 3),
    ]
    for n, m, p in cases:
        for basis in (power_basis(n, m), integral_basis(PureField.create(n, m))[0]):
            fast = p_maximality_enum(basis, p)
            slow = _exhaustive_maximality_scan(basis, p)
            assert type(fast) is type(slow), (n, m, p)
            if isinstance(fast, CounterexampleFound):
                for found in (fast.element, slow.element):
                    assert is_algebraic_integer(basis.field, found)
                    # the witness must leave the lattice
                    in_basis = coordinates_in_basis(
                        FieldElement.from_basis_element(basis.field, found), basis
                    )
                    assert any(c.denominator != 1 for c in in_basis)


def _stacked_multiplier_scan(basis: IntegralBasis, p: int) -> MaximalityResult:
    """The whole n^2-row multiplier system in one call of the list-based
    fp_kernel twin.

    The slow twin of the early-stopping echelon route: the radical comes
    from exact powers x^(p^e) in the field, and every generator product is
    formed and solved in rationals.
    """
    field = basis.field
    n = field.n
    elems = [FieldElement.from_basis_element(field, e) for e in basis.elements]

    def combination(v) -> FieldElement:
        total = element(field, *([0] * n))
        for c, e in zip(v, elems):
            total = total + element(field, *(Fraction(c) * x for x in e.coords))
        return total

    def integer_coords(x: FieldElement) -> list[int]:
        coords = coordinates_in_basis(x, basis)
        assert all(c.denominator == 1 for c in coords)
        return [int(c) for c in coords]

    e = 1
    while p ** e < n:
        e += 1
    images = []
    for b in elems:
        power = b
        for _ in range(e):
            x, power = power, FieldElement.one(field)
            for _ in range(p):
                power = mul(power, x)
        images.append(integer_coords(power))
    # column k holds the image of b_k under the linear map x -> x^(p^e)
    radical = reference_fp_kernel([[images[k][t] for k in range(n)] for t in range(n)], p)
    if not radical:
        return Proved()
    ideal = [[p * int(i == j) for j in range(n)] for i in range(n)]
    lattice = hnf_rows(ideal + [list(v) for v in radical], n)

    stacked = []
    for g in lattice:
        generator = combination(g)
        rows = []
        for b in elems:
            # w with w * lattice = b * g, the lattice rows being triangular
            rem = integer_coords(mul(b, generator))
            w = [0] * n
            for j in range(n - 1, -1, -1):
                w[j], r = divmod(rem[j], lattice[j][j])
                assert r == 0
                rem = [a - w[j] * c for a, c in zip(rem, lattice[j])]
            rows.append([c % p for c in w])
        stacked.extend(zip(*rows))
    kernel = reference_fp_kernel(stacked, p)
    if not kernel:
        return Proved()
    numerator = combination(kernel[0])
    candidate = FieldElement(field, tuple(c / p for c in numerator.coords))
    return CounterexampleFound(candidate.to_basis_element())


def test_echelon_route_matches_stacked_system():
    for n in range(2, 17):
        primes = [p for p in (2, 3, 5, 7, 11, 13) if n % p == 0]
        for m in (-7, 10, 26):
            field = PureField.create(n, m)
            for basis in (power_basis(n, m), build_basis(field)):
                for p in primes:
                    fast = p_maximality_enum(basis, p)
                    slow = _stacked_multiplier_scan(basis, p)
                    assert type(fast) is type(slow), (n, m, p)
                    if isinstance(fast, CounterexampleFound):
                        assert fast.element == slow.element, (n, m, p)


@pytest.mark.parametrize("n, m", [(24, 73), (30, 7)])
def test_multiplier_system_holds_at_most_n_rows(monkeypatch, n, m):
    # every condition of one proof goes into one reduced echelon form, and
    # both kernels (the radical and a counterexample) read that same dict
    fed, read = [], []

    def recording_reduce(echelon, row, lanes):
        fed.append(echelon)
        return fp_reduce(echelon, row, lanes)

    def recording_kernel(echelon, lanes):
        assert fed and all(e is echelon for e in fed)
        read.append(echelon)
        return fp_kernel(echelon, lanes)

    monkeypatch.setattr(oracle, "fp_reduce", recording_reduce)
    monkeypatch.setattr(oracle, "fp_kernel", recording_kernel)
    field = PureField.create(n, m)
    outcomes = set()
    for basis in (power_basis(n, m), build_basis(field)):
        for p, _ in field.factorization:
            fed.clear()
            outcomes.add(type(p_maximality_enum(basis, p)))
    # both the proof and the counterexample path ran
    assert outcomes == {Proved, CounterexampleFound}
    assert read and max(len(e) for e in read) <= n



def _dense_table(rows, n: int) -> list[list[list[int]]]:
    # every coordinate of each product, zeros included
    dense = []
    for row in rows:
        dense.append([])
        for pairs in row:
            coords = [0] * n
            for k, c in pairs:
                coords[k] = c
            dense[-1].append(coords)
    return dense


def _every_hermite_row_scan(basis: IntegralBasis, p: int) -> MaximalityResult:
    """The multiplier system fed every Hermite row of I_p, p*e_j included.

    An integer twin on the structure table of table_reference that takes the
    radical from the columns of x -> x^(p^e), multiplies every row of the
    Hermite basis of I_p and solves each product in that basis by
    back-substitution, stopping at full rank.
    """
    n = basis.field.n
    table = _dense_table(structure_constants(basis)[1], n)

    def row_combination(coefficients, rows):
        out = [0] * n
        for c, row in zip(coefficients, rows):
            if c:
                out = [a + c * b for a, b in zip(out, row)]
        return out

    frobenius = []
    for k in range(n):
        image = [int(i == k) for i in range(n)]
        for _ in range(p - 1):
            image = [x % p for x in row_combination(image, table[k])]
        frobenius.append(image)
    images = [[int(i == k) for i in range(n)] for k in range(n)]
    power = 1
    while True:
        images = [
            [sum(v[i] * frobenius[i][t] for i in range(n)) % p for t in range(n)]
            for v in images
        ]
        power *= p
        if power >= n:
            break
    radical = reference_fp_kernel([[images[k][t] for k in range(n)] for t in range(n)], p)
    if not radical:
        return Proved()
    ideal = [[p * int(i == j) for j in range(n)] for i in range(n)]
    lattice = hnf_rows(ideal + [list(v) for v in radical], n)
    echelon: dict[int, list[int]] = {}
    for g in lattice:
        rows = []
        for k in range(n):
            rem = row_combination(g, table[k])
            w = [0] * n
            for j in range(n - 1, -1, -1):
                w[j], r = divmod(rem[j], lattice[j][j])
                assert r == 0
                rem = [a - w[j] * c for a, c in zip(rem, lattice[j])]
            rows.append(w)
        for condition in zip(*rows):
            if reference_fp_reduce(echelon, condition, p) and len(echelon) == n:
                return Proved()
    u = reference_fp_kernel(list(echelon.values()), p)[0]
    y = sum(
        (element_as_qpoly(e) * c for c, e in zip(u, basis.elements) if c),
        QPolynomial([0]),
    )
    return CounterexampleFound(element_from_qpoly(y / p))


def _hnf_modulo(rows, n: int, modulus: int) -> list[list[int]]:
    """hnf_rows of the rows together with modulus * Z^n, every entry kept
    below modulus as it goes (Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 2.4.8), so nothing grows.

    Column col is eliminated against modulus * e_col; the rows left with a
    zero there, reduced mod modulus, span with modulus * Z^col the part of
    the lattice below col.  The Hermite form is unique, so this is
    hnf_rows's output wherever the lattice holds modulus * Z^n.
    """
    work = [[x % modulus for x in row] for row in rows]
    hermite: list[list[int]] = [[]] * n
    for col in range(n - 1, -1, -1):
        pivot = [modulus * int(j == col) for j in range(n)]
        rest = []
        for row in work:
            if row[col]:
                a, b = pivot[col], row[col]
                g, s, t = exactmath.ext_gcd(a, b)
                pivot, row = (
                    [s * x + t * y for x, y in zip(pivot, row)],
                    [((a // g) * y - (b // g) * x) % modulus for x, y in zip(pivot, row)],
                )
                pivot[:col] = [x % modulus for x in pivot[:col]]
            if any(row):
                rest.append(row)
        hermite[col] = pivot
        work = rest
    # entries below the diagonal into [0, diagonal), as hnf_rows leaves them
    for i in range(n):
        for j in range(i - 1, -1, -1):
            q = hermite[i][j] // hermite[j][j]
            if q:
                hermite[i] = [x - q * y for x, y in zip(hermite[i], hermite[j])]
    return hermite


def _order_with_q_maximal_part(field: PureField, q: int, c: int = 1) -> IntegralBasis:
    """Z[c*alpha] + q*O_K, an order between Z[c*alpha] and O_K."""
    n = field.n
    maximal = build_basis(field).elements
    common = math.lcm(*(e.denominator for e in maximal))
    rows = [[common * c ** i * int(i == j) for j in range(n)] for i in range(n)]
    for e in maximal:
        num = e.numerator.integer_coefficients()
        scale = q * (common // e.denominator)
        rows.append([scale * c for c in num] + [0] * (n - len(num)))
    elements = []
    for row in _hnf_modulo(rows, n, common * c ** (n - 1)):
        g = math.gcd(common, *row)
        elements.append(BasisElement(QPolynomial([c // g for c in row]), common // g))
    return IntegralBasis(field, tuple(elements))


@pytest.mark.parametrize(
    "n, m", [(18, 649), (20, -199), (24, 73), (27, 10), (30, -7), (32, 5), (36, -7)]
)
def test_generators_of_the_radical_ideal_match_every_hermite_row(n, m):
    field = PureField.create(n, m)
    primes = [p for p, _ in field.factorization]
    orders = [build_basis(field), power_basis(n, m)]
    orders += [_order_with_q_maximal_part(field, q) for q in primes]
    outcomes = set()
    for basis in orders:
        for p in primes:
            fast = p_maximality_enum(basis, p)
            assert fast == _every_hermite_row_scan(basis, p), (n, m, p, basis)
            outcomes.add(type(fast))
    assert outcomes == {Proved, CounterexampleFound}


LARGE_FIELD_SEED_ONE = [
    (18, 649), (18, 547), (20, -199), (21, 442),
    (21, -439), (22, 3391), (24, -1151), (24, 5),
]


def test_proof_feeds_at_most_two_n_conditions(monkeypatch):
    # the n rows of the radical's own echelon, then one radical vector's n
    # conditions: rows p*e_j of the Hermite basis are never multiplied
    fed = []

    def counting_reduce(echelon, row, lanes):
        fed.append(row)
        return fp_reduce(echelon, row, lanes)

    monkeypatch.setattr(oracle, "fp_reduce", counting_reduce)
    for n, m in LARGE_FIELD_SEED_ONE:
        basis = build_basis(PureField.create(n, m))
        certificate = oracle._structure_constants(basis)
        for p, _ in basis.field.factorization:
            fed.clear()
            assert oracle._round_two(basis, p, certificate) == Proved()
            assert len(fed) <= 2 * n, (n, m, p, len(fed))


def test_proved_carries_its_evidence():
    for n, m in LARGE_FIELD_SEED_ONE:
        field = PureField.create(n, m)
        report = certify(build_basis(field), enum_budget=n ** n)
        for p, result in report.maximality.items():
            assert isinstance(result, Proved), (n, m, p)
            assert 0 <= result.radical_dimension < n
            if result.radical_dimension:
                assert 1 <= result.generators <= result.radical_dimension, (n, m, p)
            else:
                assert result.generators == 0
            # the evidence is neither compared, nor hashed, nor reported
            assert result == Proved() and hash(result) == hash(Proved())
        assert certification_json_dict(report)["maximality"] == {
            str(p): {"status": "proved"} for p, _ in field.factorization
        }


@pytest.mark.parametrize("m", [2, 3])
def test_certify_with_lanes_wider_than_a_byte(m):
    # at p = 257 a residue takes two bytes of its lane
    report = certify(build_basis(PureField.create(257, m)), enum_budget=257 ** 257)
    assert isinstance(report.maximality[257], Proved)
    assert certification_json_dict(report) == {
        "integrality": [True] * 257,
        "ring_closed": True,
        "disc_match": True,
        "maximality": {"257": {"status": "proved"}},
        "certified": True,
    }


def _recording_hnf(monkeypatch) -> list[list[list[int]]]:
    # the generator rows of every lattice p_maximality_enum builds; each
    # has as many columns as the degree the proof ran at
    calls = []

    def recording(rows, ncols):
        calls.append([list(r) for r in rows])
        assert all(len(r) == ncols for r in rows)
        return hnf_rows(rows, ncols)

    monkeypatch.setattr(oracle, "hnf_rows", recording)
    return calls


@pytest.mark.parametrize(
    "n, m", [(18, 649), (20, -199), (24, 73), (27, 10), (30, -7), (32, 5), (36, -7)]
)
def test_pivot_rows_and_radical_span_every_p_e_j(monkeypatch, n, m):
    # the p*e_j at pivot columns and the radical vectors have the same
    # Hermite form as every p*e_j and the radical vectors, at the degree
    # the proof ran at: n, or p^k where it ran on the subfield Q(alpha^u)
    field = PureField.create(n, m)
    primes = dict(field.factorization)
    orders = [build_basis(field), power_basis(n, m)]
    orders += [_order_with_q_maximal_part(field, q) for q in primes]
    calls = _recording_hnf(monkeypatch)
    compared = 0
    for basis in orders:
        certificate = oracle._structure_constants(basis)
        for p, k in primes.items():
            calls.clear()
            oracle._round_two(basis, p, certificate)
            assert len(calls) <= 1
            for rows in calls:
                degree = len(rows)
                assert degree in (n, p ** k), (n, m, p, degree)
                p_rows = [r for r in rows if sorted(r) == [0] * (degree - 1) + [p]]
                radical = [r for r in rows if r not in p_rows]
                # each radical vector is 1 at its free column, reduced mod p
                assert all(max(r) < p and 1 in r for r in radical), (n, m, p)
                every = [[p * int(i == j) for j in range(degree)] for i in range(degree)]
                assert hnf_rows(rows, degree) == hnf_rows(every + radical, degree), (
                    n, m, p
                )
                compared += 1
    assert compared


def test_radical_ideal_gets_n_generator_rows(monkeypatch):
    # d - dim(radical) rows p*e_j and dim(radical) radical vectors, d the
    # degree the proof ran at: p^k on these built bases (n = p^k * u with
    # u > 1 and p prime to m), whose local bases all have tensor shape
    calls = _recording_hnf(monkeypatch)
    lattices = 0
    for n, m in LARGE_FIELD_SEED_ONE:
        basis = build_basis(PureField.create(n, m))
        certificate = oracle._structure_constants(basis)
        for p, k in basis.field.factorization:
            calls.clear()
            assert oracle._round_two(basis, p, certificate) == Proved()
            assert [len(rows) for rows in calls] in ([], [p ** k]), (n, m, p)
            lattices += len(calls)
    assert lattices


def test_counterexample_is_always_integral_and_outside():
    basis = power_basis(9, 55)
    result = p_maximality_enum(basis, 3)
    assert isinstance(result, CounterexampleFound)
    assert is_algebraic_integer(basis.field, result.element)
    found = FieldElement.from_basis_element(basis.field, result.element)
    assert reference_is_integral(found)
    assert any(c.denominator != 1 for c in coordinates_in_basis(found, basis))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_emitted_bases_all_pass():
    for n, m in [(2, 5), (3, 10), (4, 17), (6, 5), (9, -26), (12, 17)]:
        basis, _ = integral_basis(PureField.create(n, m))
        report = certify(basis)
        assert report.certified, (n, m)
        assert all(report.integrality)
        assert report.ring_closed
        assert report.disc_match
        assert all(r == Proved() for r in report.maximality.values())


def _six_lattice_not_closed() -> IntegralBasis:
    # (1, a, ..., a^4, 2a^5) in Q(10^(1/6)): a * a^4 = a^5 has coordinate 1/2
    field = PureField.create(6, 10)
    return IntegralBasis(
        field,
        tuple(BasisElement(QPolynomial.x_power(j), 1) for j in range(5))
        + (BasisElement(QPolynomial.x_power(5, 2), 1),),
    )


@pytest.mark.parametrize(
    "make_basis",
    [
        _six_lattice_not_closed,
        lambda: integral_basis(PureField.create(12, 17))[0],
        lambda: integral_basis(PureField.create(30, 7), enum_budget=5 ** 30)[0],
    ],
    ids=["not-closed-6", "certified-12", "certified-30"],
)
def test_certify_builds_structure_table_once(make_basis):
    # _structure_constants builds the closure certificate, no longer a table
    basis = make_basis()
    n = basis.field.n
    primes = [p for p, _ in basis.field.factorization]
    oracle._structure_constants.cache_clear()
    report = certify(basis, enum_budget=max(primes) ** n)
    info = oracle._structure_constants.cache_info()
    # certify builds the certificate; every prime's proof reuses it
    assert (info.misses, info.hits) == (1, len(primes))
    if report.ring_closed:
        assert report.certified and all(r == Proved() for r in report.maximality.values())
    else:
        assert all("closed" in r.reason for r in report.maximality.values())
    certificate = oracle._structure_constants(basis)
    assert certificate.closed is report.ring_closed
    multiplier = certificate.multiplier
    assert type(multiplier) is int and multiplier == _alpha_multiplier(basis)
    # G holds 0, strictly increasing, inside the basis
    generators = certificate.generators
    assert isinstance(generators, tuple) and generators[0] == 0
    assert list(generators) == sorted(set(generators)) and generators[-1] < n
    # the table twin: one integer table over its least common denominator
    # D, closed iff D == 1
    common, rows = structure_constants(basis)
    assert isinstance(common, int) and (common == 1) == report.ring_closed
    assert isinstance(rows, tuple) and len(rows) == n
    # each product as its nonzero coordinates (k, c), k strictly increasing
    for row in rows:
        assert isinstance(row, tuple) and len(row) == n
        for pairs in row:
            assert isinstance(pairs, tuple) and pairs
            for pair in pairs:
                assert isinstance(pair, tuple) and len(pair) == 2
                assert type(pair[1]) is int and pair[1] != 0
            ks = [k for k, _ in pairs]
            assert all(type(k) is int for k in ks)
            assert ks == sorted(set(ks)) and 0 <= ks[0] and ks[-1] < n
    # a new basis is one more build, even when every prime stops at the budget
    before = oracle._structure_constants.cache_info().misses
    certify(power_basis(n, basis.field.m), enum_budget=1)
    assert oracle._structure_constants.cache_info().misses == before + 1


def _refute_mutants(basis: IntegralBasis):
    # single-element corruptions as in the refute benchmark: a denominator
    # doubled, tripled or raised by one, or one numerator coefficient bumped
    for j, target in enumerate(basis.elements):
        coeffs = target.numerator.integer_coefficients()
        den = target.denominator
        variants = [(coeffs, den * 2), (coeffs, den * 3), (coeffs, den + 1)]
        variants += [
            (tuple(c + (t == i) for t, c in enumerate(coeffs)), den) for i in range(j + 1)
        ]
        for numerator, denominator in variants:
            try:
                changed = BasisElement(QPolynomial(list(numerator)), denominator)
                mutant = IntegralBasis(
                    basis.field,
                    basis.elements[:j] + (changed,) + basis.elements[j + 1:],
                )
            except ValueError:
                # out of lowest terms, or the leading coefficient cancelled
                continue
            yield mutant


def _field_route_table(basis: IntegralBasis) -> list[list[tuple[Fraction, ...]]]:
    # coordinates of b_i * b_j by field multiplication and back-substitution
    elems = [FieldElement.from_basis_element(basis.field, e) for e in basis.elements]
    return [[coordinates_in_basis(mul(x, y), basis) for y in elems] for x in elems]


def test_integer_table_matches_field_arithmetic():
    built = [
        build_basis(PureField.create(n, m))
        for n, m in itertools.product(range(2, 17), (10, -7, 26))
        if n <= 12 or m == 10
    ]
    powers = [power_basis(n, m) for n, m in [(3, 10), (8, 3), (9, 55), (12, 17)]]
    mutants = [
        mutant
        for n, m in [(4, 17), (6, 10), (8, 3), (9, -26)]
        for mutant in _refute_mutants(build_basis(PureField.create(n, m)))
    ]
    closure = []
    for basis in built + powers + mutants:
        common, rows = structure_constants(basis)
        expected = _field_route_table(basis)
        denominators = [c.denominator for row in expected for coords in row for c in coords]
        # D is the least common denominator of every coordinate
        assert common == math.lcm(*denominators), basis
        for row, expected_row in zip(_dense_table(rows, basis.field.n), expected):
            for coords, expected_coords in zip(row, expected_row):
                assert tuple(Fraction(c, common) for c in coords) == expected_coords
        is_closed = all(d == 1 for d in denominators)
        certificate = oracle._structure_constants(basis)
        assert oracle._multiplicatively_closed(certificate) == is_closed, basis
        closure.append(is_closed)
    # the orders are closed, and some mutant is not
    assert all(closure[:len(built + powers)]) and not all(closure)


def _doubled_denominator_mutants(basis: IntegralBasis):
    for j, target in enumerate(basis.elements):
        try:
            changed = BasisElement(target.numerator, target.denominator * 2)
        except ValueError:
            # the numerator's content is even: no longer in lowest terms
            continue
        yield IntegralBasis(
            basis.field, basis.elements[:j] + (changed,) + basis.elements[j + 1:]
        )


def _trace_gram_determinant(basis: IntegralBasis) -> Fraction:
    # det[Tr(b_i * b_j)] in field arithmetic, with no structure table
    elems = [FieldElement.from_basis_element(basis.field, e) for e in basis.elements]
    return det_rational(RatMatrix([[trace(mul(x, y)) for y in elems] for x in elems]))


def test_discriminant_of_non_orders_matches_trace_gram():
    candidates = [_six_lattice_not_closed()] + [
        mutant
        for n, m in [(4, 17), (6, 10), (8, 3), (9, -26)]
        for mutant in _doubled_denominator_mutants(build_basis(PureField.create(n, m)))
    ]
    both_scaled = 0
    for basis in candidates:
        table = structure_constants(basis)
        elems = [FieldElement.from_basis_element(basis.field, e) for e in basis.elements]
        trace_lcd = math.lcm(*(trace(e).denominator for e in elems))
        assert table[0] > 1, basis
        assert not oracle._structure_constants(basis).closed, basis
        expected = _trace_gram_determinant(basis)
        assert oracle._discriminant_exact(basis) == expected
        assert gram_discriminant(basis, table) == expected
        both_scaled += trace_lcd > 1
    # the table's D and the traces' common denominator both enter the
    # twin's scale
    assert both_scaled >= 3


# ---------------------------------------------------------------------------
# the closure certificate against the table twin
# ---------------------------------------------------------------------------

_NOT_CLOSED = "the lattice is not multiplicatively closed; p-maximality is about orders"
_WITHOUT_ONE = "the lattice does not contain 1; p-maximality is about orders"


def _table_report(basis: IntegralBasis) -> CertificationReport:
    """certify's report with every check on the table twin: closure from its
    D, the discriminant from its trace Gram, p-maximality by the Hermite-row
    scan on its rows, integrality by the rational twin, and on an order,
    for each prime q of the rational multiplier of alpha with q not
    dividing n, the counterexample (c/q)*alpha."""
    field = basis.field
    table = structure_constants(basis)
    closed = table[0] == 1
    b0 = basis.elements[0]
    has_one = b0.denominator == 1 and b0.int_numerator in ((1,), (-1,))
    if closed and has_one:
        integrality = (True,) * field.n
    else:
        integrality = tuple(
            reference_is_integral(FieldElement.from_basis_element(field, e))
            for e in basis.elements
        )
    disc_match = gram_discriminant(basis, table) == index_report(field).field_discriminant
    maximality = {
        p: Skipped(_NOT_CLOSED) if not closed
        else Skipped(_WITHOUT_ONE) if not has_one
        else _every_hermite_row_scan(basis, p)
        for p, _ in field.factorization
    }
    if closed and has_one:
        c = _alpha_multiplier(basis)
        for q in range(2, c + 1):
            if c % q == 0 and field.n % q and exactmath.is_prime(q):
                maximality[q] = CounterexampleFound(BasisElement([0, c // q], 1))
    return CertificationReport(integrality, closed, disc_match, maximality)


def _assert_matches_table_twin(
    basis: IntegralBasis,
) -> tuple[ClosureCertificate, CertificationReport]:
    certificate = oracle._structure_constants(basis)
    table = structure_constants(basis)
    assert certificate.closed == (table[0] == 1), basis
    assert oracle._discriminant_exact(basis) == gram_discriminant(basis, table), basis
    report = certify(basis, enum_budget=basis.field.n ** basis.field.n)
    assert certification_json_dict(report) == certification_json_dict(_table_report(basis))
    return certificate, report


def _alpha_multiplier(basis: IntegralBasis) -> int:
    # the least c > 0 with c*alpha in the lattice, by rational coordinates
    alpha = FieldElement.alpha_power(basis.field, 1)
    return math.lcm(*(c.denominator for c in coordinates_in_basis(alpha, basis)))


@pytest.mark.parametrize("n, m", [(3, 10), (6, 10)])
def test_order_without_alpha_is_closed(n, m):
    # Z[2a] is a ring, yet a * 1 is not in it: closure is decided by
    # beta = 2a, not by a
    field = PureField.create(n, m)
    basis = IntegralBasis(
        field, tuple(BasisElement(QPolynomial.x_power(j, 2 ** j), 1) for j in range(n))
    )
    certificate, report = _assert_matches_table_twin(basis)
    assert certificate == (2, (0,), True)
    assert report.ring_closed and all(report.integrality) and not report.certified


def test_numerator_bumps_of_b1_leave_alpha_outside():
    # refute's numerator-bump corruptions of b_1: bumping its lead puts
    # alpha outside the lattice, bumping its constant term does not
    multipliers = set()
    closed = set()
    for n, m in [(3, 10), (4, 17), (6, 10), (8, 3), (9, -26), (12, 17)]:
        basis = build_basis(PureField.create(n, m))
        b1 = basis.elements[1]
        for i in range(2):
            bumped = [c + (t == i) for t, c in enumerate(b1.int_numerator)]
            try:
                changed = BasisElement(QPolynomial(bumped), b1.denominator)
            except ValueError:
                continue
            mutant = IntegralBasis(basis.field, basis.elements[:1] + (changed,) + basis.elements[2:])
            certificate, _ = _assert_matches_table_twin(mutant)
            assert certificate.multiplier == _alpha_multiplier(mutant), mutant
            multipliers.add(certificate.multiplier)
            if certificate.multiplier > 1:
                closed.add(certificate.closed)
    # alpha left the lattice, and such lattices were found closed and not
    assert max(multipliers) > 1 and closed == {True, False}


@st.composite
def triangular_lattices(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.sampled_from((-7, -2, 2, 3, 10, 26)))
    elements = []
    for i in range(n):
        lead = draw(st.sampled_from((1, -1, 2, -2, 3, -3)))
        lower = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=i, max_size=i))
        den = draw(st.one_of(st.just(1), st.integers(1, 12)))
        numerator = lower + [lead]
        g = math.gcd(den, *numerator)
        elements.append(BasisElement(QPolynomial([c // g for c in numerator]), den // g))
    return IntegralBasis(PureField.create(n, m), tuple(elements))


@settings(max_examples=80, deadline=None)
@given(triangular_lattices())
def test_closure_certificate_matches_table_twin(basis):
    certificate, _ = _assert_matches_table_twin(basis)
    assert certificate.multiplier == _alpha_multiplier(basis)


def _lowest_terms(numerator, denominator: int) -> BasisElement:
    g = math.gcd(denominator, *numerator)
    return BasisElement([c // g for c in numerator], denominator // g)


def _perturbed(basis: IntegralBasis, i: int, term: int | None, rng: random.Random):
    """basis with b_i changed, one numerator term (term) or, with term
    None, the denominator, and each b_j above it that was c*alpha times
    b_(j-1), c the unperturbed multiplier, rebuilt as c*alpha times the
    new b_(j-1): the shift into b_i breaks and the rest stay as they were.
    None when the change leaves no valid element."""
    c = _alpha_multiplier(basis)
    elements = list(basis.elements)
    numerator, denominator = list(elements[i].int_numerator), elements[i].denominator
    if term is None:
        denominator *= rng.choice((2, 3, 5))
    else:
        numerator[term] += rng.choice((1, -1, 2))
    if not numerator[-1] or not math.gcd(denominator, *numerator) == 1:
        return None
    elements[i] = BasisElement(numerator, denominator)
    for j in range(i + 1, basis.field.n):
        below, e = basis.elements[j - 1], basis.elements[j]
        if e.denominator != below.denominator or e.int_numerator != (0,) + tuple(
            c * x for x in below.int_numerator
        ):
            break
        new = elements[j - 1]
        elements[j] = _lowest_terms([0] + [c * x for x in new.int_numerator], new.denominator)
    return IntegralBasis(basis.field, tuple(elements))


def _shift_structured_lattices():
    # built bases and Z[c*alpha], c in {1, 2, 3, 6}, and copies with one
    # numerator term or one denominator perturbed (_perturbed); the twin
    # is run on those with n <= 12 and on every built basis
    rng = random.Random(30)
    radicands = (-30, -26, -7, -2, 2, 3, 5, 10, 17, 26, 65, 82)
    for n in (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 24, 30, 36, 48):
        m = radicands[n % len(radicands)]
        field = PureField.create(n, m)
        orders = [build_basis(field)]
        orders += [_multiplier_lattice(n, m, c) for c in (1, 2, 3, 6)]
        for basis in orders:
            yield basis, n <= 12 or basis is orders[0]
            for term in (None, *rng.sample(range(n), 2)):
                i = rng.randrange(n) if term is None else rng.randrange(term, n)
                perturbed = _perturbed(basis, i, term, rng)
                if perturbed is not None:
                    yield perturbed, n <= 12


def test_closure_read_off_matches_the_product_twin():
    # on shift-structured lattices the read-off certificate (multiplier,
    # generators, verdict) is the one with every shift and product formed,
    # and certify matches the table twin byte for byte up to n = 12 and on
    # every built basis
    verdicts = set()
    for basis, with_table in _shift_structured_lattices():
        certificate = oracle._structure_constants(basis)
        assert certificate == closure_certificate_by_products(basis), basis
        if with_table:
            _assert_matches_table_twin(basis)
        verdicts.add(certificate.closed)
    assert verdicts == {True, False}


def _scrambled(basis: IntegralBasis, rng: random.Random) -> IntegralBasis:
    # b_k + sum_(j<k) a_j b_j: another triangular basis of the same lattice
    rows = [[Fraction(c, e.denominator) for c in e.int_numerator] for e in basis.elements]
    elements = []
    for k, row in enumerate(rows):
        row = row[:]
        for j in range(k):
            a = rng.choice((0, 0, 1, -1, 2, 5))
            for t, c in enumerate(rows[j]):
                row[t] += a * c
        elements.append(element_from_qpoly(QPolynomial(row)))
    return IntegralBasis(basis.field, tuple(elements))


def _local_orders_and_primes():
    # the orders of the local-basis checks: built bases (at m = 10 also
    # one with other lower terms), Z[c*alpha] with p | c or not, and
    # Z[alpha] + q*O_K, with every p | n
    for n in range(2, 31):
        for m in (10, -7, 26):
            field = PureField.create(n, m)
            primes = [p for p, _ in field.factorization]
            orders = [build_basis(field)]
            if m == 10:
                orders.append(_scrambled(orders[0], random.Random(n)))
            orders += [
                IntegralBasis(
                    field, tuple(BasisElement([0] * j + [c ** j], 1) for j in range(n))
                )
                for c in (1, 2, 3, 6)
            ]
            orders += [_order_with_q_maximal_part(field, q) for q in primes]
            for basis in orders:
                for p in primes:
                    yield basis, p


def test_local_basis_matches_given_basis_twin():
    # verdict, radical dimension and counterexample bytes are those of the
    # route that forms every product on the given numerators
    outcomes, local_differs = set(), False
    for basis, p in _local_orders_and_primes():
        n = basis.field.n
        certificate = oracle._structure_constants(basis)
        fast = oracle._round_two(basis, p, certificate)
        slow = given_basis_reference.p_maximality_enum(basis, p)
        assert type(fast) is type(slow), (basis, p)
        if isinstance(fast, Proved):
            assert fast.radical_dimension == slow.radical_dimension, (basis, p)
        else:
            assert fast.element.int_numerator == slow.element.int_numerator, (basis, p)
            assert fast.element.denominator == slow.element.denominator, (basis, p)
        outcomes.add(type(fast))
        local = oracle._local_supports(basis, p, certificate.multiplier)
        local_differs = local_differs or local != oracle._supports(basis)
    assert outcomes == {Proved, CounterexampleFound} and local_differs


@st.composite
def local_orders(draw):
    # Z[c*alpha] + q*O_K, whose basis has denominators at the primes of n
    n = draw(st.integers(2, 12))
    m = draw(st.sampled_from((-7, -2, 2, 3, 10, 26)))
    q = draw(st.sampled_from((1, 2, 3, 4, 6, 9)))
    c = draw(st.sampled_from((1, 2, 3, 6)))
    return _order_with_q_maximal_part(PureField.create(n, m), q, c)


@settings(max_examples=80, deadline=None)
@given(st.one_of(triangular_lattices(), local_orders()), st.sampled_from((2, 3, 5)))
# Z[3*alpha] + 3*O_K at (3, 10) has b_2 = alpha + alpha^2, whose alpha
# term stays at p = 3: alpha is not in the order, 3*alpha is
@example(_order_with_q_maximal_part(PureField.create(3, 10), 3, 3), 3)
def test_local_basis_is_a_unit_triangular_change_of_basis(basis, p):
    # b_k' = (d_k/p^v) * b_k less integer multiples of beta^t, t < k: in
    # the given basis it is 0 above k and d_k/p^v, prime to p, at k, and on
    # an order its coordinates are p-integral, so it lies in O_(p)
    field = basis.field
    certificate = oracle._structure_constants(basis)
    order = oracle._order_defect(basis, certificate) is None
    local = oracle._local_supports(basis, p, certificate.multiplier)
    for k, ((q, support), given) in enumerate(zip(local, basis.elements)):
        coefficients = [0] * (k + 1)
        for t, c in support:
            coefficients[t] = c
        local_element = FieldElement.from_qpoly(field, QPolynomial(coefficients) / q)
        coords = coordinates_in_basis(local_element, basis)
        assert not any(coords[k + 1:]), (basis, p, k)
        assert q == p ** vp_int(p, given.denominator)
        assert coords[k] == given.denominator // q and coords[k] % p, (basis, p, k)
        if order:
            assert all(c.denominator % p for c in coords), (basis, p, k)


@pytest.mark.parametrize(
    "make_basis, p",
    [
        (lambda: power_basis(9, 55), 3),
        (lambda: power_basis(12, 17), 2),
        (lambda: power_basis(12, 17), 3),
        (lambda: build_basis(PureField.create(12, 10)), 2),
        (lambda: build_basis(PureField.create(18, 649)), 3),
        (lambda: _order_with_q_maximal_part(PureField.create(12, 10), 2), 3),
    ],
)
def test_local_basis_up_to_units_at_p(monkeypatch, make_basis, p):
    # every odd local element times a unit at p that is not 1 mod p^2 is a
    # Z_(p)-basis of O (x) Z_(p) too, whose span is not closed: the scales
    # prime to p are inverted, and the verdict and counterexample hold
    basis = make_basis()
    certificate = oracle._structure_constants(basis)
    expected = oracle._round_two(basis, p, certificate)
    local_supports = oracle._local_supports
    unit = 3 if p == 2 else 2

    def scaled(basis, p, c):
        return [
            (q, [(t, unit * x) for t, x in support] if k % 2 else support)
            for k, (q, support) in enumerate(local_supports(basis, p, c))
        ]

    monkeypatch.setattr(oracle, "_local_supports", scaled)
    result = oracle._round_two(basis, p, certificate)
    assert result == expected
    if isinstance(result, Proved):
        assert result.radical_dimension == expected.radical_dimension


def test_scale_divisible_by_p_is_an_internal_error(monkeypatch):
    # a local basis with 3*alpha in place of alpha gives some element of O
    # a coordinate with 3 in its denominator
    with pytest.raises(ArithmeticError, match="internal error"):
        oracle._residues({0: 1}, 3, 9)
    local_supports = oracle._local_supports

    def tripled(basis, p, c):
        local = local_supports(basis, p, c)
        q, support = local[1]
        local[1] = q, [(t, p * x) for t, x in support]
        return local

    monkeypatch.setattr(oracle, "_local_supports", tripled)
    with pytest.raises(ArithmeticError, match="internal error: product left the order"):
        p_maximality_enum(power_basis(9, 55), 3)


def test_certify_forms_products_on_demand(monkeypatch):
    # the table formed n(n+1)/2 products; closure forms one peel of alpha,
    # n shifts and the products of at most five generators (0 and each
    # degree where the denominators jump), and each prime's proof p^k
    # Frobenius images and p^k products per radical vector consumed (one
    # on these fields), each peeled against the local basis of the
    # degree-p^k order in Q(alpha^u), u = n/p^k > 1
    peels, ideal_peels = [], []
    peel = oracle._peel
    against = None

    def counting(supports, rem, scale):
        # a peel against the basis (the local one inside a proof at p), or
        # one against the Hermite rows of I_p
        (peels if supports == against else ideal_peels).append(scale)
        return peel(supports, rem, scale)

    monkeypatch.setattr(oracle, "_peel", counting)
    for n, m in LARGE_FIELD_SEED_ONE:
        basis = build_basis(PureField.create(n, m))
        oracle._structure_constants.cache_clear()
        peels.clear()
        against = oracle._supports(basis)
        certificate = oracle._structure_constants(basis)
        size = len(certificate.generators)
        assert certificate.closed and certificate.multiplier == 1 and size <= 5
        assert len(peels) <= 1 + n + size * (size + 1) // 2 < n * (n + 1) // 2
        for p, k in basis.field.factorization:
            peels.clear()
            ideal_peels.clear()
            local = oracle._local_supports(basis, p, certificate.multiplier)
            against = oracle._subfield(basis.field, local, p)[1]
            result = oracle._round_two(basis, p, certificate)
            assert result == Proved()
            assert len(peels) in (p ** k, 2 * p ** k), (n, m, p, len(peels))
            # each radical vector multiplied peels its p^k products in I_p
            assert len(ideal_peels) == p ** k * result.generators, (n, m, p)


# ---------------------------------------------------------------------------
# Dedekind's criterion before Round 2
# ---------------------------------------------------------------------------

# DIFFERENTIAL_RADICANDS and three more, rotated over n = 2..64
DEDEKIND_RADICANDS = (-30, -26, -19, -7, -2, 2, 3, 5, 7, 10, 17, 26, 30)


def _multiplier_lattice(n: int, m: int, c: int) -> IntegralBasis:
    # Z[c*alpha], an order with multiplier c
    field = PureField.create(n, m)
    return IntegralBasis(
        field, tuple(BasisElement([0] * j + [c ** j], 1) for j in range(n))
    )


def _dedekind_orders_and_primes():
    # built bases for n = 2..64, one radicand each, Z[c*alpha] for c in
    # {1, 2, 3, 6}, and Z[alpha] + q*O_K, with every p | n
    for n in range(2, 65):
        m = DEDEKIND_RADICANDS[n % len(DEDEKIND_RADICANDS)]
        field = PureField.create(n, m)
        primes = [p for p, _ in field.factorization]
        orders = [build_basis(field)]
        orders += [_multiplier_lattice(n, m, c) for c in (1, 2, 3, 6)]
        orders += [_order_with_q_maximal_part(field, q) for q in primes]
        for basis in orders:
            for p in primes:
                yield basis, p


def _p_maximal_by_the_ledger(basis: IntegralBasis, p: int) -> bool:
    # O is p-maximal iff v_p(disc O) = v_p(disc O_K), disc O_K the ledger's
    disc = index_report(basis.field).field_discriminant
    return vp_int(p, oracle._discriminant_exact(basis)) == vp_int(p, disc)


def test_round_two_proves_wherever_dedekind_fires(monkeypatch):
    # four routes: Dedekind's criterion fires exactly when p does not
    # divide c and p^2 does not divide m^p - m; otherwise the discriminant
    # route fires exactly when v_p(disc O) <= 1; otherwise the polygon
    # route fires exactly when O is p-maximal (every polygon met here is
    # p-regular); Round 2 (here a stand-in) gets the rest.  Wherever a
    # read-off fires, Round 2 proves p-maximality too, and with an empty
    # radical where the discriminant did
    round_two = oracle._round_two
    monkeypatch.setattr(oracle, "_round_two", lambda basis, p, certificate: None)
    routes = {"dedekind": 0, "discriminant": 0, "polygon": 0, "round 2": 0}
    for basis, p in _dedekind_orders_and_primes():
        n, m = basis.field.n, basis.field.m
        certificate = oracle._structure_constants(basis)
        result = p_maximality_enum(basis, p)
        tame = certificate.multiplier % p and (m ** p - m) % (p * p)
        unramified = vp_int(p, oracle._discriminant_exact(basis)) <= 1
        maximal = _p_maximal_by_the_ledger(basis, p)
        if result is None:
            assert not tame and not unramified and not maximal, (n, m, p, basis)
            routes["round 2"] += 1
            continue
        assert result == Proved(), (n, m, p, basis)
        route = "dedekind" if tame else "discriminant" if unramified else "polygon"
        assert result.route == route, (n, m, p)
        assert tame or unramified or maximal, (n, m, p, basis)
        assert (result.radical_dimension, result.generators) == (0, 0)
        again = round_two(basis, p, certificate)
        assert again == Proved(), (n, m, p, basis)
        if route == "discriminant":
            # p^2 does not divide disc(O), and on this grid p does not
            # divide it at all: p is unramified, O/pO has no nilpotents
            assert again.radical_dimension == 0, (n, m, p, basis)
        routes[result.route] += 1
    assert all(routes.values()), routes


def test_discriminant_valuation_is_read_off_the_basis():
    # the term-by-term sum is v_p of the exact discriminant, on every order
    # of the route grid and at every p | n
    for basis, p in _dedekind_orders_and_primes():
        exact = oracle._discriminant_exact(basis)
        assert oracle._discriminant_valuation(basis, p) == vp_int(p, exact), (basis, p)


@pytest.mark.parametrize("m", [10, -10, 19])
def test_discriminant_route_at_valuation_one(m):
    # Q(m^(1/3)) with m = +-1 mod 9: v_3(disc O_K) = 3 - 2 = 1, so 3 is
    # tamely ramified (3 = P^2 * Q) and 3 does not divide the index.  The
    # route proves 3-maximality with no radical formed; Round 2 proves it
    # too, over a radical of dimension 1
    basis = build_basis(PureField.create(3, m))
    assert oracle._discriminant_valuation(basis, 3) == 1
    result = p_maximality_enum(basis, 3)
    assert result == Proved() and (result.route, result.degree) == ("discriminant", 3)
    again = oracle._round_two(basis, 3, oracle._structure_constants(basis))
    assert again == Proved() and again.radical_dimension == 1


def test_proved_names_its_route():
    # (12, 10): 2 is tame (10^2 - 10 = 90), 3 wild (10^3 - 10 = 990 = 9 * 110)
    basis = build_basis(PureField.create(12, 10))
    report = certify(basis)
    tame, wild = report.maximality[2], report.maximality[3]
    assert tame.route == "dedekind" and (tame.radical_dimension, tame.generators) == (0, 0)
    assert wild.route == "polygon" and (wild.radical_dimension, wild.generators) == (0, 0)
    # Round 2 at either prime proves it as well, with its own evidence
    certificate = oracle._structure_constants(basis)
    again = oracle._round_two(basis, 2, certificate)
    assert again.route == "round 2" and again == tame
    again = oracle._round_two(basis, 3, certificate)
    assert again.route == "round 2" and again == wild and again.radical_dimension > 0
    # the route is neither compared, nor hashed, nor reported
    assert tame == Proved() == wild and hash(tame) == hash(Proved())
    assert certification_json_dict(report)["maximality"] == {
        "2": {"status": "proved"}, "3": {"status": "proved"}
    }


def test_p_dividing_c_is_left_to_round_two():
    # Z[2*alpha] at (12, 5): 2 is tame for X^12 - 5 (5^2 - 5 = 20), but
    # alpha is not in the order at 2, so the criterion says nothing there
    basis = _multiplier_lattice(12, 5, 2)
    result = p_maximality_enum(basis, 2)
    assert isinstance(result, CounterexampleFound)
    assert is_algebraic_integer(basis.field, result.element)


def test_prime_of_c_outside_n_is_a_counterexample():
    # Z[5*alpha] at (6, 7) is proved at 2 and 3, yet alpha is integral and
    # outside it: 5 does not divide 6, and the report names the prime
    report = certify(_multiplier_lattice(6, 7, 5))
    assert report.failures == ("discriminant accounting", "p-maximality at 5")
    assert report.maximality[5] == CounterexampleFound(BasisElement([0, 1], 1))
    assert report.maximality[2] == report.maximality[3] == Proved()
    assert certification_json_dict(report)["maximality"]["5"] == {
        "status": "counterexample",
        "element": {"num": [0, 1, 0, 0, 0, 0], "den": 1},
    }


@pytest.mark.parametrize("c", [2, 3, 6])
def test_each_prime_of_c_outside_n_gets_its_counterexample(c):
    basis = _multiplier_lattice(5, 7, c)
    field = basis.field
    report = certify(basis)
    primes = [q for q in (2, 3) if c % q == 0]
    # 7^5 - 7 = 16800 is divisible by 25, so 5 fails on its own account
    assert sorted(report.maximality) == sorted(primes + [5])
    assert isinstance(report.maximality[5], CounterexampleFound)
    for q in primes:
        element = report.maximality[q].element
        assert element == BasisElement([0, c // q], 1)
        # integral, in (1/q)*O and not in O
        assert is_algebraic_integer(field, element)
        found = FieldElement.from_basis_element(field, element)
        coords = coordinates_in_basis(found, basis)
        assert all((q * x).denominator == 1 for x in coords)
        assert any(x.denominator != 1 for x in coords)
    assert report.failures[-len(primes) - 1:] == tuple(
        f"p-maximality at {q}" for q in sorted(primes + [5])
    )


# ---------------------------------------------------------------------------
# Round 2 on the degree-p^k subfield Q(alpha^u), u = n/p^k
# ---------------------------------------------------------------------------


def _full_degree_round_two(basis: IntegralBasis, p: int) -> MaximalityResult:
    # Round 2 with the kernel on the full local basis, at degree n
    certificate = oracle._structure_constants(basis)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_subfield", lambda field, local, p: (field, local, 1))
        return oracle._round_two(basis, p, certificate)


def _wild_class_radicand(n: int, t: int) -> int:
    # the square-free m = 1 + n0*s of least s >= t, n0 = prod p^(v_p(n)+1):
    # p^2 | m^p - m at every p | n, so every prime of n goes to Round 2
    n0 = math.prod(p ** (k + 1) for p, k in factorize(n))
    s = t
    while not isinstance(square_free_check(1 + n0 * s), SquareFree):
        s += 1
    return 1 + n0 * s


@st.composite
def composite_fields(draw):
    # n in 2..64; three draws in four take m in the wild class 1 mod n0
    n = draw(st.integers(2, 64))
    if draw(st.integers(0, 3)):
        m = _wild_class_radicand(n, draw(st.integers(1, 40)))
    else:
        m = draw(st.integers(-10 ** 4, 10 ** 4))
        assume(m not in (0, 1, -1) and isinstance(square_free_check(m), SquareFree))
    return PureField.create(n, m)


@settings(max_examples=40, deadline=None)
@given(composite_fields())
@example(PureField.create(12, 17))
@example(PureField.create(60, 1801))
def test_subfield_round_two_matches_the_full_degree_kernel(field):
    # the built basis (proved) and Z[alpha] (the counterexample path where
    # p is wild): verdict, element bytes and radical dimension are those
    # of the kernel run on the full local basis at degree n.  At n = p^k
    # both are that one run (pinned below), so only p^k < n is compared
    n, m = field.n, field.m
    for basis in (build_basis(field), power_basis(n, m)):
        certificate = oracle._structure_constants(basis)
        for p in (p for p, k in field.factorization if p ** k < n):
            fast = oracle._round_two(basis, p, certificate)
            slow = _full_degree_round_two(basis, p)
            assert type(fast) is type(slow), (n, m, p, basis)
            if isinstance(fast, Proved):
                assert fast.radical_dimension == slow.radical_dimension, (n, m, p)
                assert fast.route == slow.route == "round 2"
            else:
                assert fast.element.int_numerator == slow.element.int_numerator
                assert fast.element.denominator == slow.element.denominator


def _recording_kernel(monkeypatch) -> list[int]:
    # the degree each Round 2 kernel runs at
    degrees = []
    kernel = oracle._multiplier_kernel

    def recording(field, local, p):
        degrees.append(field.n)
        return kernel(field, local, p)

    monkeypatch.setattr(oracle, "_multiplier_kernel", recording)
    return degrees


def test_built_bases_take_the_subfield_at_every_round_two_prime(monkeypatch):
    # wherever Dedekind's criterion does not prove a built basis p-maximal
    # (a wild p, never p | m), Round 2 proves it too, and where
    # u = n/p^k > 1 its kernel runs at degree p^k, not n
    degrees = _recording_kernel(monkeypatch)
    reduced = 0
    for n in range(2, 65):
        for m in (_wild_class_radicand(n, 1), DEDEKIND_RADICANDS[n % 13]):
            field = PureField.create(n, m)
            basis = build_basis(field)
            certificate = oracle._structure_constants(basis)
            for p, k in field.factorization:
                degrees.clear()
                result = p_maximality_enum(basis, p)
                assert result == Proved(), (n, m, p)
                assert degrees == [], (n, m, p, degrees)
                if result.route == "dedekind":
                    continue
                assert oracle._round_two(basis, p, certificate) == Proved(), (n, m, p)
                assert degrees == [p ** k], (n, m, p, degrees)
                reduced += p ** k < n
    assert reduced


def _shifted_sums(field: PureField, u: int) -> IntegralBasis:
    # element a*u + b is alpha^b * (b_(a*u) + b_(a*u - 1)) for a >= 1, b
    # the built basis, where every b_(a*u + b) is alpha^b * b_(a*u) (the
    # primes of u are tame, so their pieces are power bases): a unit
    # triangular change of basis, since alpha^b * b_(a*u - 1) is
    # alpha^(b - 1) * alpha^u * b_((a-1)*u), in the order
    rows = [
        [Fraction(c, e.denominator) for c in e.int_numerator]
        for e in build_basis(field).elements
    ]
    elements = []
    for j, row in enumerate(rows):
        a, b = divmod(j, u)
        if a:
            low = rows[a * u - 1] + [0] * (len(rows[a * u]) - len(rows[a * u - 1]))
            row = [0] * b + [x + y for x, y in zip(rows[a * u], low)]
        elements.append(element_from_qpoly(QPolynomial(row)))
    return IntegralBasis(field, tuple(elements))


def test_counterexample_recheck_runs_in_the_subfield(monkeypatch):
    # on Z[alpha] at (60, 1801) every p | 60 is wild, Round 2 runs on
    # Q(alpha^u), u = 60/p^k, and the counterexample lies there too: its
    # integrality recheck takes charpoly at degree p^k, not 60
    rows = []
    monkeypatch.setattr(oracle, "charpoly", lambda M: rows.append(M.rows) or charpoly(M))
    report = certify(power_basis(60, 1801))
    assert all(isinstance(report.maximality[p], CounterexampleFound) for p in (2, 3, 5))
    assert rows == [4, 3, 5]


def test_counterexample_at_degree_81_rechecks_in_one_charpoly(monkeypatch):
    # Z[alpha] at (81, 10) is refuted at 3 after one radical vector, and
    # the recheck of the counterexample, with g = 1, is the one charpoly,
    # at the full degree; its powers of an 81-term numerator mod X^81 - 10
    # keep the whole certify well under a second
    rows = []
    monkeypatch.setattr(oracle, "charpoly", lambda M: rows.append(M.rows) or charpoly(M))
    report = certify(power_basis(81, 10))
    assert isinstance(report.maximality[3], CounterexampleFound)
    assert rows == [81]


@pytest.mark.parametrize(
    "make_basis, p",
    [
        # n = p^k
        pytest.param(lambda: build_basis(PureField.create(27, 10)), 3, id="built-27-10"),
        pytest.param(lambda: power_basis(16, 17), 2, id="power-16-17"),
        # p | c: Z[p*alpha], spanned by the (p*alpha)^j
        pytest.param(lambda: _multiplier_lattice(12, 5, 2), 2, id="c2-12-5"),
        pytest.param(lambda: _multiplier_lattice(12, 17, 3), 3, id="c3-12-17"),
        # p | m: the local basis of Z[alpha] has the shape, but alpha^u is
        # no unit at p, and O/pO is not etale over O'/pO'
        pytest.param(lambda: power_basis(12, 10), 2, id="power-12-10"),
        pytest.param(lambda: power_basis(30, 10), 5, id="power-30-10"),
        # no tensor shape: other lower terms survive the reduction mod p^v
        pytest.param(
            lambda: _scrambled(build_basis(PureField.create(12, 10)), random.Random(12)),
            3,
            id="scrambled-12-10",
        ),
        pytest.param(
            lambda: _scrambled(build_basis(PureField.create(18, 649)), random.Random(18)),
            3,
            id="scrambled-18-649",
        ),
        # shift-invariant, but element a*u has terms off the multiples of u
        pytest.param(lambda: _shifted_sums(PureField.create(12, 65), 3), 2, id="shifted-12-65"),
    ],
)
def test_subfield_is_not_taken_without_the_shape(monkeypatch, make_basis, p):
    basis = make_basis()
    field, n = basis.field, basis.field.n
    certificate = oracle._structure_constants(basis)
    local = oracle._local_supports(basis, p, certificate.multiplier)
    assert oracle._subfield(field, local, p) == (field, local, 1)
    degrees = _recording_kernel(monkeypatch)
    fast = oracle._round_two(basis, p, certificate)
    assert degrees == [n]
    # the verdict of the twin that forms every product on the given basis
    slow = given_basis_reference.p_maximality_enum(basis, p)
    assert type(fast) is type(slow)
    if isinstance(fast, Proved):
        assert fast.radical_dimension == slow.radical_dimension
    else:
        assert fast.element == slow.element


@pytest.mark.parametrize("n", [512, 1024])
def test_large_degree_certifies_with_the_budget_lifted(n):
    field = PureField.create(n, 3)
    basis = build_basis(field)
    report = certify(basis, enum_budget=2 ** n)
    assert report.certified and report.maximality == {2: Proved()}
    assert basis_discriminant(basis) == index_report(field).field_discriminant


def test_certify_integrality_matches_per_element_test():
    orders = [
        integral_basis(PureField.create(n, m))[0]
        for n, m in [(2, 5), (4, 17), (6, 10), (8, 3), (9, -26), (12, 17), (16, 3)]
    ]
    orders += [power_basis(n, m) for n, m in [(3, 10), (9, 55), (12, 17)]]
    candidates = orders + [
        mutant for basis in orders[1:4] for mutant in _refute_mutants(basis)
    ]
    for basis in candidates:
        elems = [FieldElement.from_basis_element(basis.field, e) for e in basis.elements]
        expected = tuple(reference_is_integral(e) for e in elems)
        assert certify(basis, enum_budget=1).integrality == expected, basis


@pytest.mark.parametrize(
    "make_basis, calls",
    [
        (lambda: integral_basis(PureField.create(12, 17))[0], 0),
        (lambda: power_basis(8, 3), 0),
        (_six_lattice_not_closed, 6),
        (lambda: next(_refute_mutants(integral_basis(PureField.create(6, 10))[0])), 6),
    ],
    ids=["certified-12", "power-order-8", "not-closed-6", "denominator-mutant-6"],
)
def test_certify_tests_elements_only_off_orders(monkeypatch, make_basis, calls):
    basis = make_basis()
    seen = []

    def counting(field, e, **kwargs):
        seen.append(e)
        return is_algebraic_integer(field, e, **kwargs)

    monkeypatch.setattr(oracle, "is_algebraic_integer", counting)
    certify(basis)
    assert len(seen) == calls


def test_certify_forms_no_fraction_on_an_order(monkeypatch):
    # an order is integral by closure, and every other check runs on the
    # integer numerators
    bases = [
        build_basis(PureField.create(n, m))
        for n, m in [(6, 10), (9, 55), (12, 17), (18, 7), (24, 5)]
    ]
    original = fractions.Fraction.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    oracle._structure_constants.cache_clear()
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    # a budget above 3^24, so that every p-maximality proof runs
    reports = [certify(basis, enum_budget=3 ** 24) for basis in bases]
    monkeypatch.undo()
    assert len(made) == 0
    assert all(
        report.certified
        and all(isinstance(r, Proved) for r in report.maximality.values())
        for report in reports
    )


def test_certify_power_basis_with_index():
    report = certify(power_basis(3, 10))
    assert not report.certified
    assert all(report.integrality)
    assert report.ring_closed
    assert not report.disc_match
    assert isinstance(report.maximality[3], CounterexampleFound)


def test_certify_denominator_mutant_fails_integrality():
    basis, _ = integral_basis(PureField.create(3, 10))
    mutated = IntegralBasis(
        basis.field,
        tuple(
            BasisElement(e.numerator, e.denominator * 2) if i == 2 else e
            for i, e in enumerate(basis.elements)
        ),
    )
    report = certify(mutated)
    assert not report.certified
    assert not report.integrality[2]


def test_certify_non_ring_lattice():
    field = PureField.create(3, 10)
    lattice = IntegralBasis(
        field,
        (
            BasisElement(QPolynomial([1]), 1),
            BasisElement(QPolynomial([0, 3]), 1),
            BasisElement(QPolynomial([0, 0, 1]), 1),
        ),
    )
    report = certify(lattice)
    assert not report.certified
    assert not report.ring_closed


def test_denominator_mutants_always_break_a_check():
    basis, _ = integral_basis(PureField.create(6, 10))
    for i, target in enumerate(basis.elements):
        for p in (2, 3):
            mutated = IntegralBasis(
                basis.field,
                tuple(
                    BasisElement(e.numerator, e.denominator * p) if j == i else e
                    for j, e in enumerate(basis.elements)
                ),
            )
            assert not certify(mutated).certified, (i, p)


def test_certification_json_shape():
    report = certify(power_basis(2, 5))
    data = certification_json_dict(report)
    assert data["certified"] is False
    assert data["integrality"] == [True, True]
    assert data["ring_closed"] is True
    assert data["maximality"]["2"]["status"] == "counterexample"
    assert data["maximality"]["2"]["element"] == {"num": [1, 1], "den": 2}

    good, _ = integral_basis(PureField.create(2, 5))
    data2 = certification_json_dict(certify(good))
    assert data2["certified"] is True
    assert data2["maximality"]["2"] == {"status": "proved"}

    skipped = certification_json_dict(certify(good, enum_budget=3))
    assert skipped["maximality"]["2"]["status"] == "skipped"
    assert skipped["certified"] is True


def test_certified_report_invariant():
    report = CertificationReport(
        (True, True), True, True, {2: Skipped("budget")}
    )
    assert report.certified
    report2 = CertificationReport(
        (True, False), True, True, {2: Proved()}
    )
    assert not report2.certified


def test_field_discriminants_against_reference_implementation():
    # sympy's maximal-order routine handles these degrees reliably
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two

    x = sympy.Symbol("x")
    cases = [
        (2, -11), (2, 10), (3, -5), (3, 17), (4, 5),
        (4, -26), (5, 7), (6, 10), (6, -2), (6, 53),
    ]
    for n, m in cases:
        basis, _ = integral_basis(PureField.create(n, m))
        _, disc = round_two(sympy.Poly(x ** n - m, x, domain=sympy.QQ))
        assert basis_discriminant(basis) == disc, (n, m)


# square-free radicands of both signs: p | m for each p <= 7, and the wild
# case m^(p-1) = 1 mod p^2 at p = 2 (-19, -7, 17), 3 (-26, -19, 10, 17, 26),
# 5 (-26, -7, 26), 7 (-30, -19, 30) and 11 (3)
DIFFERENTIAL_RADICANDS = (-30, -26, -19, -7, 2, 3, 10, 17, 26, 30)


def test_field_discriminants_match_round_two_grid():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two

    x = sympy.Symbol("x")
    for n in range(2, 13):
        for m in DIFFERENTIAL_RADICANDS:
            # every p | n has p^n <= n^n cosets, so no prime is skipped
            basis, _ = integral_basis(PureField.create(n, m), enum_budget=n ** n)
            _, disc = round_two(sympy.Poly(x ** n - m, x, domain=sympy.QQ))
            assert basis_discriminant(basis) == disc, (n, m)


# ---------------------------------------------------------------------------
# each fact at its own size: Dedekind at degree p^k, Frobenius images by
# square-and-multiply
# ---------------------------------------------------------------------------


def test_dedekind_route_is_the_generic_criterion_on_the_prime_power_polynomial():
    # the route fires, at degree p^k, exactly when p does not divide c and
    # the generic criterion holds on X^(p^k) - m: for every p | n and one
    # prime outside n (p^k = 1 there, so X - m)
    fired = 0
    for n in range(2, 49):
        outside = next(q for q in (2, 3, 5, 7, 11, 13) if n % q)
        primes = [p for p, _ in factorize(n)] + [outside]
        for m in DEDEKIND_RADICANDS:
            for basis in (build_basis(PureField.create(n, m)), power_basis(n, m)):
                c = oracle._structure_constants(basis).multiplier
                for p in primes:
                    degree = p ** vp_int(p, n)
                    f = [-m] + [0] * (degree - 1) + [1]
                    expected = c % p != 0 and dedekind_p_maximal(f, p)
                    result = p_maximality_enum(basis, p)
                    dedekind = isinstance(result, Proved) and result.route == "dedekind"
                    assert dedekind == expected, (n, m, p)
                    if dedekind:
                        assert result.degree == degree, (n, m, p)
                        fired += 1
    assert fired


@st.composite
def prime_power_binomials(draw):
    # (m, p, p^k): p <= 97 prime, p^k <= 512, m of either sign, p | m
    # about half the time
    p = draw(st.sampled_from([p for p in range(2, 98) if all(p % q for q in range(2, p))]))
    degree = draw(st.sampled_from([p ** k for k in range(10) if p ** k <= 512]))
    m = draw(st.integers(-10 ** 6, 10 ** 6))
    return (m * p if draw(st.booleans()) else m), p, degree


@settings(max_examples=300, deadline=None)
@given(prime_power_binomials())
def test_dedekind_congruence_matches_the_generic_criterion(binomial):
    # one modular power decides what the criterion decides on X^(p^k) - m
    # through the radical mod p
    m, p, degree = binomial
    f = [-m] + [0] * (degree - 1) + [1]
    assert oracle._dedekind_binomial(m, p, degree) == dedekind_p_maximal(f, p)


def test_certify_names_a_large_prime_of_c_at_once():
    # a prime cofactor of c is settled by strong tests, not by trial
    # division up to its square root
    q = 100_000_000_000_031
    basis = _multiplier_lattice(2, 3, q)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        report = certify(basis)
        best = min(best, time.perf_counter() - start)
    assert report.maximality[q] == CounterexampleFound(BasisElement([0, 1], 1))
    assert best < 0.1


def test_large_prime_outside_n_is_proved_at_once():
    # trial division did not return on 2^61 - 1 in 20 s; the strong tests
    # and Dedekind's criterion on X - 5 take well under a second
    basis = build_basis(PureField.create(6, 5))
    start = time.perf_counter()
    result = p_maximality_enum(basis, 2 ** 61 - 1)
    assert time.perf_counter() - start < 1
    assert result == Proved() and result.route == "dedekind" and result.degree == 1


def test_proved_records_the_degree_its_proof_ran_at():
    # (24, 10): 2 is tame (10^2 - 10 = 90), so Dedekind's criterion runs on
    # X^8 - 10; 3 is wild (10^3 - 10 = 990 = 9 * 110), so the polygon is
    # that of X^3 - 10, and Round 2 runs on the degree-3 order of
    # Q(alpha^8)
    basis = build_basis(PureField.create(24, 10))
    report = certify(basis)
    tame, wild = report.maximality[2], report.maximality[3]
    assert (tame.route, tame.degree) == ("dedekind", 8)
    assert (wild.route, wild.degree) == ("polygon", 3)
    result = oracle._round_two(basis, 3, oracle._structure_constants(basis))
    assert (result.route, result.degree) == ("round 2", 3)
    # at n = p^k every route runs at n: 3 is tame and 17 wild at 2
    for m, route in ((3, "dedekind"), (17, "polygon")):
        basis = build_basis(PureField.create(16, m))
        result = certify(basis).maximality[2]
        assert (result.route, result.degree) == (route, 16), m
        result = oracle._round_two(basis, 2, oracle._structure_constants(basis))
        assert (result.route, result.degree) == ("round 2", 16), m
    # without the tensor shape Round 2 runs at n; the polygon does not
    # depend on the basis
    scrambled = _scrambled(build_basis(PureField.create(12, 10)), random.Random(12))
    result = p_maximality_enum(scrambled, 3)
    assert (result.route, result.degree) == ("polygon", 3)
    result = oracle._round_two(scrambled, 3, oracle._structure_constants(scrambled))
    assert (result.route, result.degree) == ("round 2", 12)
    # the degree is evidence: neither compared nor reported
    assert tame == wild == Proved() and hash(tame) == hash(Proved())
    assert certification_json_dict(report)["maximality"] == {
        "2": {"status": "proved"}, "3": {"status": "proved"}
    }


def _scaled_span(basis: IntegralBasis, c: int) -> IntegralBasis:
    # span{c^i * b_i}: at a prime of c its leads are divisible by p, and
    # alpha is not in it
    elements = []
    for i, e in enumerate(basis.elements):
        numerator = [x * c ** i for x in e.int_numerator]
        g = math.gcd(e.denominator, *numerator)
        elements.append(BasisElement([x // g for x in numerator], e.denominator // g))
    return IntegralBasis(basis.field, tuple(elements))


def test_frobenius_images_match_exact_powers():
    # the images mod p^(1+w) * q^p have the local coordinates mod p of the
    # exact powers.  At a prime of c the leads carry w: in Z[2*alpha] at
    # (4, -30), (2*alpha)^2 = 4*alpha^2 is b_2, yet mod 2 * 1^2 it is 0
    compared = with_w = 0
    for n in range(2, 13):
        for m in (-30, -7, 10, 17):
            field = PureField.create(n, m)
            for c in (1, 2, 3, 4, 6, 9):
                for basis in (build_basis(field), power_basis(n, m)):
                    basis = _scaled_span(basis, c)
                    certificate = oracle._structure_constants(basis)
                    if oracle._order_defect(basis, certificate) is not None:
                        continue
                    for p, _ in field.factorization:
                        local = oracle._local_supports(basis, p, certificate.multiplier)
                        exact = []
                        for q, support in local:
                            power = given_basis_reference._power(field, support, p)
                            coords, scale = oracle._peel(local, power, q ** p)
                            coords = oracle._residues(coords, scale, p)
                            exact.append(sorted((j, r) for j, x in coords.items() if (r := x % p)))
                        images = oracle._frobenius_images(field, local, p)
                        assert [sorted(row) for row in images] == exact, (n, m, c, p)
                        compared += 1
                        with_w += any(s[-1][1] % p == 0 for _, s in local)
    assert compared and with_w


@st.composite
def scaled_spans(draw):
    n = draw(st.integers(2, 27))
    m = draw(st.sampled_from(DEDEKIND_RADICANDS))
    c = draw(st.sampled_from((2, 3, 5, 6, 7)))
    return _scaled_span(build_basis(PureField.create(n, m)), c)


@st.composite
def wild_prime_power_orders(draw):
    # the built basis and Z[alpha] at n = p^k, p <= 23, m in the wild class
    n = draw(st.sampled_from((4, 8, 16, 9, 27, 25, 7, 11, 13, 17, 19, 23)))
    m = _wild_class_radicand(n, draw(st.integers(1, 20)))
    if draw(st.booleans()):
        return build_basis(PureField.create(n, m))
    return power_basis(n, m)


def _assert_same_outcome(fast: MaximalityResult, slow: MaximalityResult, context) -> None:
    assert type(fast) is type(slow), context
    if isinstance(fast, Proved):
        if fast.route == "round 2":
            assert fast.radical_dimension == slow.radical_dimension, context
    else:
        assert fast.element.int_numerator == slow.element.int_numerator, context
        assert fast.element.denominator == slow.element.denominator, context


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(local_orders(), scaled_spans(), wild_prime_power_orders()),
    st.integers(0, 5),
)
# span{6^i * b_i} at (12, 10): every lead past b_0 is divisible by 2 and 3
@example(_scaled_span(build_basis(PureField.create(12, 10)), 6), 0)
@example(_scaled_span(build_basis(PureField.create(12, 10)), 6), 1)
@example(_order_with_q_maximal_part(PureField.create(9, 10), 3, 3), 0)
def test_round_two_matches_the_exact_power_twin(basis, index):
    # Frobenius images formed mod p^(1+w) * q^p, w = v_p of the product of
    # the local leads, give the verdict, radical dimension and
    # counterexample bytes of the twin that forms every power exactly
    primes = [p for p, _ in basis.field.factorization]
    p = primes[index % len(primes)]
    certificate = oracle._structure_constants(basis)
    assume(oracle._order_defect(basis, certificate) is None)
    fast = oracle._round_two(basis, p, certificate)
    slow = given_basis_reference.p_maximality_enum(basis, p)
    _assert_same_outcome(fast, slow, (basis, p))


@st.composite
def composite_degree_orders(draw):
    # the built basis or Z[alpha] at composite n <= 48, m in the wild class
    # half the time
    n = draw(st.integers(4, 48).filter(lambda n: not exactmath.is_prime(n)))
    if draw(st.booleans()):
        m = _wild_class_radicand(n, draw(st.integers(1, 10)))
    else:
        m = draw(st.sampled_from(DEDEKIND_RADICANDS))
    if draw(st.booleans()):
        return build_basis(PureField.create(n, m))
    return power_basis(n, m)


@settings(max_examples=30, deadline=None)
@given(composite_degree_orders())
def test_p_maximality_matches_the_round_two_twin(basis):
    # Dedekind's criterion on X^(p^k) - m proves exactly where Round 2 on
    # the given basis does
    for p, _ in basis.field.factorization:
        fast = p_maximality_enum(basis, p)
        slow = given_basis_reference.p_maximality_enum(basis, p)
        _assert_same_outcome(fast, slow, (basis, p))


def test_frobenius_images_take_logarithmically_many_products(monkeypatch):
    # at (23, m), m in the wild class, Round 2 runs at p = 23: each image of
    # a non-monomial element takes at most 2 * log2(p) products (the exact
    # powers took p - 1 = 22), and each radical vector multiplied p^k more
    basis = build_basis(PureField.create(23, _wild_class_radicand(23, 1)))
    certificate = oracle._structure_constants(basis)
    local = oracle._local_supports(basis, 23, certificate.multiplier)
    images = sum(len(support) > 1 for _, support in local)
    calls = []
    product = oracle._product
    monkeypatch.setattr(
        oracle, "_product", lambda field, a, b: calls.append(1) or product(field, a, b)
    )
    result = oracle._round_two(basis, 23, certificate)
    assert result == Proved() and result.generators and images
    frobenius = len(calls) - 23 * result.generators
    assert 0 < frobenius <= 2 * (23).bit_length() * images


# ---------------------------------------------------------------------------
# the Newton polygon of X^(p^k) - m before Round 2
# ---------------------------------------------------------------------------


def test_round_two_proves_wherever_the_polygon_fires(monkeypatch):
    # in the wild class every p | n is wild.  Wherever the polygon route
    # proves a built basis or Z[c*alpha] p-maximal, the ledger and Round 2
    # agree; Z[alpha] + p*O_K, wherever it lies strictly between Z[alpha]
    # and O_K at p, is never proved by it, and Round 2 (a stand-in until
    # then) refutes it
    round_two = oracle._round_two
    monkeypatch.setattr(oracle, "_round_two", lambda basis, p, certificate: None)
    fired = between = 0
    for n in range(2, 65):
        m = _wild_class_radicand(n, 1)
        orders = [build_basis(PureField.create(n, m))]
        orders += [_multiplier_lattice(n, m, c) for c in (1, 2, 3, 6)]
        for basis in orders:
            certificate = oracle._structure_constants(basis)
            for p, _ in basis.field.factorization:
                result = p_maximality_enum(basis, p)
                if isinstance(result, Proved) and result.route == "polygon":
                    assert _p_maximal_by_the_ledger(basis, p), (n, m, p, basis)
                    again = round_two(basis, p, certificate)
                    assert again == Proved(), (n, m, p, basis)
                    fired += 1
        for radicand in (m, DEDEKIND_RADICANDS[n % 13]):
            field = PureField.create(n, radicand)
            disc = index_report(field).field_discriminant
            for p, _ in field.factorization:
                basis = _order_with_q_maximal_part(field, p)
                valuation = oracle._discriminant_valuation(basis, p)
                if vp_int(p, disc) < valuation < oracle._power_basis_valuation(field, p):
                    assert p_maximality_enum(basis, p) is None, (n, radicand, p)
                    certificate = oracle._structure_constants(basis)
                    again = round_two(basis, p, certificate)
                    assert isinstance(again, CounterexampleFound), (n, radicand, p)
                    between += 1
    assert fired and between


def _irregular(polygon_of):
    # the polygon with its first side marked not separable
    def binomial_polygon(m, p, degree):
        phi, polygon = polygon_of(m, p, degree)
        side = dataclasses.replace(polygon.sides[0], separable=False)
        return phi, dataclasses.replace(polygon, sides=(side, *polygon.sides[1:]))

    return binomial_polygon


def test_an_irregular_polygon_falls_through_to_round_two(monkeypatch):
    # Ore's theorem gives the index only on a p-regular polygon; with one
    # side not separable, each wild prime of a built basis goes to Round 2
    monkeypatch.setattr(oracle, "binomial_polygon", _irregular(oracle.binomial_polygon))
    routes = set()
    for n, m in LARGE_FIELD_SEED_ONE:
        field = PureField.create(n, m)
        basis = build_basis(field)
        for p, _ in field.factorization:
            result = p_maximality_enum(basis, p)
            assert result == Proved() and result.route != "polygon", (n, m, p)
            routes.add(result.route)
    assert "round 2" in routes


def test_power_order_at_a_wild_prime_builds_no_polygon(monkeypatch):
    # v_p(disc Z[alpha]) is G itself, so the polygon is never built and
    # Z[alpha] takes the counterexample path
    def refused(m, p, degree):
        raise AssertionError("polygon built")

    monkeypatch.setattr(oracle, "binomial_polygon", refused)
    wild = 0
    for n, m in [(12, 17), (16, 17), (60, 1801), (18, 649), (24, -1151), (27, 10)]:
        basis = power_basis(n, m)
        for p, _ in basis.field.factorization:
            if (m ** p - m) % (p * p) == 0:
                assert isinstance(p_maximality_enum(basis, p), CounterexampleFound), (n, m, p)
                wild += 1
    assert wild >= 10


@pytest.mark.parametrize("n, m", [(961, 115), (509, 93)])
def test_wild_prime_at_scale_takes_the_polygon(n, m):
    # u = 1 and p^k = n: Round 2 at full degree took seconds here
    field = PureField.create(n, m)
    report = certify(build_basis(field), enum_budget=n * n)
    (p, result), = report.maximality.items()
    assert report.certified and (result.route, result.degree) == ("polygon", n), p


# ---------------------------------------------------------------------------
# Round 2's early stop, and one integrality verdict per local numerator
# ---------------------------------------------------------------------------


def _round_two_twin_orders(n: int):
    # (basis, p) for Z[c*alpha], c in {1, 2, 3, 6}, and Z[alpha] + p*O_K
    # wherever that lies strictly between Z[alpha] and O_K at p, at a
    # wild-class radicand and at one where some primes may be tame
    for m in (_wild_class_radicand(n, 1), DEDEKIND_RADICANDS[n % len(DEDEKIND_RADICANDS)]):
        field = PureField.create(n, m)
        primes = [p for p, _ in field.factorization]
        for c in (1, 2, 3, 6):
            for p in primes:
                yield _multiplier_lattice(n, m, c), p
        disc = index_report(field).field_discriminant
        for p in primes:
            basis = _order_with_q_maximal_part(field, p)
            valuation = oracle._discriminant_valuation(basis, p)
            if vp_int(p, disc) < valuation < oracle._power_basis_valuation(field, p):
                yield basis, p


def test_early_stop_matches_the_feed_every_vector_twin(monkeypatch):
    # the first kernel vector that multiplies the radical vectors not yet
    # fed into p*I_p is the full system's: same result type, radical
    # dimension, generators and counterexample bytes as feeding them all
    fast = oracle._multiplier_kernel
    outcomes = set()
    for n in range(2, 41):
        for basis, p in _round_two_twin_orders(n):
            certificate = oracle._structure_constants(basis)
            monkeypatch.setattr(oracle, "_multiplier_kernel", fast)
            result = oracle._round_two(basis, p, certificate)
            monkeypatch.setattr(oracle, "_multiplier_kernel", multiplier_reference.multiplier_kernel)
            twin = oracle._round_two(basis, p, certificate)
            assert repr(result) == repr(twin), (n, basis.field.m, p)
            outcomes.add(type(result))
    assert outcomes == {Proved, CounterexampleFound}


@pytest.mark.parametrize("n, m, p", [(16, 17, 2), (81, 10, 3)])
def test_round_two_multiplies_fewer_vectors_than_the_radical(monkeypatch, n, m, p):
    # on Z[alpha], p and the first radical vector already generate I_p as
    # an O-module: once the first vector's n conditions are in, the first
    # kernel vector is checked on the rest, and Round 2 stops there
    conditions, kernels = [], []

    def recording_reduce(echelon, row, lanes):
        conditions.append(bool(kernels))
        return fp_reduce(echelon, row, lanes)

    def recording_kernel(echelon, lanes):
        kernels.append(fp_kernel(echelon, lanes))
        return kernels[-1]

    monkeypatch.setattr(oracle, "fp_reduce", recording_reduce)
    monkeypatch.setattr(oracle, "fp_kernel", recording_kernel)
    basis = power_basis(n, m)
    local = oracle._local_supports(basis, p, oracle._structure_constants(basis).multiplier)
    result = oracle._multiplier_kernel(basis.field, local, p)
    radical_dimension = len(kernels[0])
    fed, rest = divmod(sum(conditions), n)
    assert rest == 0 and 1 <= fed < radical_dimension, (fed, radical_dimension)
    assert result == multiplier_reference.multiplier_kernel(basis.field, local, p)


def _integrality_keys(field: PureField, element: BasisElement) -> list[tuple]:
    # the (q^a, g, local terms less their power of alpha) that
    # is_algebraic_integer takes a characteristic polynomial for, in
    # order, up to the first prime at which the element is not integral
    n, m, d = field.n, field.m, element.denominator
    if d == 1 or math.gcd(d, m) > 1:
        return []
    if any((n * c if t == 0 else n * m * c) % d for t, c in element.terms):
        return []
    keys = []
    for q, _ in field.factorization:
        if d % q:
            continue
        modulus = q ** vp_int(q, d)
        local = [(t, r) for t, c in element.terms if (r := c % modulus)]
        stripped = tuple((t - local[0][0], r) for t, r in local)
        keys.append((modulus, math.gcd(n, *(t for t, _ in stripped)), stripped))
        # N/q^a is in lowest terms, and integral exactly where x is at q
        if not is_algebraic_integer(field, BasisElement(element.int_numerator, modulus)):
            break
    return keys


def test_certify_takes_one_charpoly_per_local_numerator(monkeypatch):
    # the elements of one lattice that is not an order share verdicts: a
    # shifted element has the local numerator of the one below it less
    # its power of alpha, so a charpoly is taken once per distinct key
    calls = []
    charpoly_of = oracle.charpoly
    monkeypatch.setattr(oracle, "charpoly", lambda M: calls.append(M.rows) or charpoly_of(M))
    reached = distinct = 0
    for n in (8, 9, 12):
        for m in (_wild_class_radicand(n, 1), 10, -7):
            for mutant in _refute_mutants(build_basis(PureField.create(n, m))):
                if oracle._order_defect(mutant, oracle._structure_constants(mutant)) is None:
                    continue
                keys = [
                    key for e in mutant.elements for key in _integrality_keys(mutant.field, e)
                ]
                calls.clear()
                report = certify(mutant)
                assert len(calls) == len(set(keys)), (n, m, mutant)
                assert report.integrality == tuple(
                    is_algebraic_integer(mutant.field, e) for e in mutant.elements
                )
                reached += len(keys)
                distinct += len(set(keys))
    # keys repeat within one certify (about half of them here), and each
    # took one charpoly
    assert 0 < distinct < reached


def test_integrality_verdicts_last_one_certify(monkeypatch):
    # the verdicts live in certify's own call: a second, identical certify
    # takes every characteristic polynomial again
    calls = []
    charpoly_of = oracle.charpoly
    monkeypatch.setattr(oracle, "charpoly", lambda M: calls.append(M.rows) or charpoly_of(M))
    mutant = next(_refute_mutants(build_basis(PureField.create(12, 17))))
    counts = []
    for _ in range(2):
        calls.clear()
        certify(mutant)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
