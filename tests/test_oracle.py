"""Certification oracle: exact arithmetic, integrality, discriminants,
and the p-maximality proof, cross-validated against a literal coset walk
and against the rational twins in rational_reference."""

import fractions
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purefields import exactmath, oracle
from purefields.exactmath import (
    QPolynomial,
    RatMatrix,
    charpoly,
    det_rational,
    fp_kernel,
    fp_reduce,
    hnf_rows,
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
    IntegralBasis,
    PureField,
    build_basis,
    index_report,
    integral_basis,
    prime_power_basis,
)
from rational_reference import FieldElement, coordinates_in_basis, mul, trace
from rational_reference import charpoly as reference_charpoly
from rational_reference import is_algebraic_integer as reference_is_integral
from table_reference import gram_discriminant, structure_constants


def power_basis(n: int, m: int) -> IntegralBasis:
    field = PureField.create(n, m)
    return IntegralBasis(
        field, tuple(BasisElement(QPolynomial.x_power(j), 1) for j in range(n))
    )


def element(field: PureField, *coords) -> FieldElement:
    return FieldElement(field, tuple(Fraction(c) for c in coords))


def basis_element(*coords) -> BasisElement:
    """N(alpha)/d in lowest terms from power-basis coordinates."""
    return BasisElement.from_qpoly(QPolynomial(coords))


class ReachedCharpoly(Exception):
    pass


def _raising_charpoly(matrix):
    raise ReachedCharpoly


def passes_trace_test(field: PureField, e: BasisElement) -> bool:
    """Whether is_algebraic_integer gets past its trace test to charpoly."""
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
        assert charpoly(_multiplication_matrix(f, (0, 1))) == f.minimal_polynomial


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
        total = total + e.as_qpoly() * c
    if total.is_zero():
        return
    x = BasisElement.from_qpoly(total)
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
    if x.denominator > 1:
        assert passes_trace_test(field, x) == pairings_integral
    assert is_algebraic_integer(field, x) == reference_is_integral(fx)


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


def test_maximality_budget_guard():
    basis = prime_power_basis(3, 2, 55)
    result = p_maximality_enum(basis, 3, enum_budget=3 ** 9 - 1)
    assert isinstance(result, Skipped)
    assert "budget" in result.reason
    assert p_maximality_enum(basis, 3, enum_budget=3 ** 9) == Proved()


def test_budget_guard_with_unprintable_coset_count():
    # 2^15000 has more digits than int -> str may convert; the guard reads
    # only basis.field.n, so a stand-in spares building a degree-15000 basis
    stand_in = SimpleNamespace(field=SimpleNamespace(n=15000))
    result = p_maximality_enum(stand_in, 2)
    assert isinstance(result, Skipped)
    assert "2^15000" in result.reason and "budget" in result.reason


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
        p_maximality_enum(basis, p)


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
    """The whole n^2-row multiplier system in one fp_kernel call.

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
    radical = fp_kernel([[images[k][t] for k in range(n)] for t in range(n)], p)
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
    kernel = fp_kernel(stacked, p)
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
                    fast = p_maximality_enum(basis, p, enum_budget=p ** n)
                    slow = _stacked_multiplier_scan(basis, p)
                    assert type(fast) is type(slow), (n, m, p)
                    if isinstance(fast, CounterexampleFound):
                        assert fast.element == slow.element, (n, m, p)


@pytest.mark.parametrize("n, m", [(24, 73), (30, 7)])
def test_multiplier_system_holds_at_most_n_rows(monkeypatch, n, m):
    row_counts = []

    def recording_kernel(rows, p):
        row_counts.append(len(rows))
        return fp_kernel(rows, p)

    monkeypatch.setattr(oracle, "fp_kernel", recording_kernel)
    field = PureField.create(n, m)
    outcomes = set()
    for basis in (power_basis(n, m), build_basis(field)):
        for p, _ in field.factorization:
            outcomes.add(type(p_maximality_enum(basis, p, enum_budget=p ** n)))
    # both the proof and the counterexample path ran
    assert outcomes == {Proved, CounterexampleFound}
    assert row_counts and max(row_counts) <= n



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
    radical = fp_kernel([[images[k][t] for k in range(n)] for t in range(n)], p)
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
            if fp_reduce(echelon, condition, p) and len(echelon) == n:
                return Proved()
    u = fp_kernel(list(echelon.values()), p)[0]
    y = sum(
        (e.as_qpoly() * c for c, e in zip(u, basis.elements) if c), QPolynomial([0])
    )
    return CounterexampleFound(BasisElement.from_qpoly(y / p))


def _order_with_q_maximal_part(field: PureField, q: int) -> IntegralBasis:
    """Z[alpha] + q*O_K, an order between Z[alpha] and O_K."""
    n = field.n
    maximal = build_basis(field).elements
    common = math.lcm(*(e.denominator for e in maximal))
    rows = [[common * int(i == j) for j in range(n)] for i in range(n)]
    for e in maximal:
        num = e.numerator.integer_coefficients()
        scale = q * (common // e.denominator)
        rows.append([scale * c for c in num] + [0] * (n - len(num)))
    elements = []
    for row in hnf_rows(rows, n):
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
            fast = p_maximality_enum(basis, p, enum_budget=p ** n)
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

    def counting_reduce(echelon, row, p):
        fed.append(row)
        return fp_reduce(echelon, row, p)

    monkeypatch.setattr(oracle, "fp_reduce", counting_reduce)
    for n, m in LARGE_FIELD_SEED_ONE:
        basis = build_basis(PureField.create(n, m))
        for p, _ in basis.field.factorization:
            fed.clear()
            assert p_maximality_enum(basis, p, enum_budget=p ** n) == Proved()
            assert len(fed) <= 2 * n, (n, m, p, len(fed))


def _recording_hnf(monkeypatch) -> list[list[list[int]]]:
    # the generator rows of every lattice p_maximality_enum builds
    calls = []

    def recording(rows, ncols):
        calls.append([list(r) for r in rows])
        return hnf_rows(rows, ncols)

    monkeypatch.setattr(oracle, "hnf_rows", recording)
    return calls


@pytest.mark.parametrize(
    "n, m", [(18, 649), (20, -199), (24, 73), (27, 10), (30, -7), (32, 5), (36, -7)]
)
def test_pivot_rows_and_radical_span_every_p_e_j(monkeypatch, n, m):
    # the p*e_j at pivot columns and the radical vectors have the same
    # Hermite form as every p*e_j and the radical vectors
    field = PureField.create(n, m)
    primes = [p for p, _ in field.factorization]
    orders = [build_basis(field), power_basis(n, m)]
    orders += [_order_with_q_maximal_part(field, q) for q in primes]
    calls = _recording_hnf(monkeypatch)
    compared = 0
    for basis in orders:
        for p in primes:
            calls.clear()
            p_maximality_enum(basis, p, enum_budget=p ** n)
            assert len(calls) <= 1
            for rows in calls:
                p_rows = [r for r in rows if sorted(r) == [0] * (n - 1) + [p]]
                radical = [r for r in rows if r not in p_rows]
                # each radical vector is 1 at its free column, reduced mod p
                assert all(max(r) < p and 1 in r for r in radical), (n, m, p)
                every = [[p * int(i == j) for j in range(n)] for i in range(n)]
                assert hnf_rows(rows, n) == hnf_rows(every + radical, n), (n, m, p)
                compared += 1
    assert compared


def test_radical_ideal_gets_n_generator_rows(monkeypatch):
    # n - dim(radical) rows p*e_j and dim(radical) radical vectors
    calls = _recording_hnf(monkeypatch)
    lattices = 0
    for n, m in LARGE_FIELD_SEED_ONE:
        basis = build_basis(PureField.create(n, m))
        for p, _ in basis.field.factorization:
            calls.clear()
            assert p_maximality_enum(basis, p, enum_budget=p ** n) == Proved()
            assert [len(rows) for rows in calls] in ([], [n]), (n, m, p)
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
    scan on its rows, and integrality by the rational twin."""
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


def test_certify_forms_products_on_demand(monkeypatch):
    # the table formed n(n+1)/2 products; closure forms one peel of alpha,
    # n shifts and the products of at most five generators (0 and each
    # degree where the denominators jump), and each prime's proof n
    # Frobenius images and n products per radical vector consumed (one on
    # these fields)
    peels = []
    peel = oracle._peel

    def counting(supports, rem, scale):
        peels.append(scale)
        return peel(supports, rem, scale)

    monkeypatch.setattr(oracle, "_peel", counting)
    for n, m in LARGE_FIELD_SEED_ONE:
        basis = build_basis(PureField.create(n, m))
        oracle._structure_constants.cache_clear()
        peels.clear()
        certificate = oracle._structure_constants(basis)
        size = len(certificate.generators)
        assert certificate.closed and certificate.multiplier == 1 and size <= 5
        assert len(peels) <= 1 + n + size * (size + 1) // 2 < n * (n + 1) // 2
        for p, _ in basis.field.factorization:
            peels.clear()
            assert p_maximality_enum(basis, p, enum_budget=p ** n) == Proved()
            assert len(peels) in (n, 2 * n), (n, m, p, len(peels))


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

    def counting(field, e):
        seen.append(e)
        return is_algebraic_integer(field, e)

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
    assert all(report.certified and not report.skipped for report in reports)


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
