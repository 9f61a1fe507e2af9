"""Certification oracle: exact arithmetic, integrality, discriminants,
and the p-maximality proof, cross-validated against a literal coset walk."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purefields import oracle
from purefields.exactmath import (
    QPolynomial,
    RatMatrix,
    charpoly,
    det_rational,
    fp_kernel,
    hnf_rows,
)
from purefields.oracle import (
    CertificationReport,
    CounterexampleFound,
    FieldElement,
    Proved,
    MaximalityResult,
    Skipped,
    _multiplication_matrix,
    basis_discriminant,
    certification_json_dict,
    certify,
    coordinates_in_basis,
    dual_basis_coords,
    is_algebraic_integer,
    mul,
    p_maximality_enum,
    trace,
)
from purefields.purebasis import (
    BasisElement,
    IntegralBasis,
    PureField,
    build_basis,
    integral_basis,
    prime_power_basis,
)


def power_basis(n: int, m: int) -> IntegralBasis:
    field = PureField.create(n, m)
    return IntegralBasis(
        field, tuple(BasisElement(QPolynomial.x_power(j), 1) for j in range(n))
    )


def element(field: PureField, *coords) -> FieldElement:
    return FieldElement(field, tuple(Fraction(c) for c in coords))


# ---------------------------------------------------------------------------
# field arithmetic
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
    for n, m in [(2, 7), (3, 10), (6, 5), (9, 55)]:
        f = PureField.create(n, m)
        alpha = FieldElement.alpha_power(f, 1)
        assert charpoly(_multiplication_matrix(alpha)) == f.minimal_polynomial


# ---------------------------------------------------------------------------
# dual coordinates and integrality
# ---------------------------------------------------------------------------

def test_dual_coords_of_one():
    f = PureField.create(6, 5)
    assert dual_basis_coords(FieldElement.one(f)) == tuple(
        Fraction(6 if i == 0 else 0) for i in range(6)
    )


def test_dual_coords_flag_non_integer():
    # Tr((a/p) * a^(n-1)) = n*m/p is not an integer when p divides neither
    f = PureField.create(3, 10)
    e = element(f, 0, Fraction(1, 7), 0)
    coords = dual_basis_coords(e)
    assert coords[2] == Fraction(3 * 10, 7)
    assert any(c.denominator != 1 for c in coords)


def test_dual_coords_integral_on_certified_basis():
    basis, _ = integral_basis(PureField.create(12, 17))
    for e in basis.elements:
        fe = FieldElement.from_basis_element(basis.field, e)
        assert all(t.denominator == 1 for t in dual_basis_coords(fe))


def test_is_algebraic_integer_examples():
    f10 = PureField.create(3, 10)   # 10 = 1 mod 9
    assert is_algebraic_integer(
        element(f10, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    )
    f2 = PureField.create(3, 2)
    assert not is_algebraic_integer(element(f2, Fraction(1, 3), Fraction(1, 3), 0))
    f = PureField.create(7, 3)
    for j in range(7):
        assert is_algebraic_integer(FieldElement.alpha_power(f, j))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_integral_implies_integer_dual_coords(coeffs):
    # one-directional: integrality forces integer trace pairings
    basis, _ = integral_basis(PureField.create(3, 10))
    elems = [
        FieldElement.from_basis_element(basis.field, e) for e in basis.elements
    ]
    total = element(basis.field, 0, 0, 0)
    for c, e in zip(coeffs, elems):
        total = total + element(basis.field, *(Fraction(c) * x for x in e.coords))
    assert is_algebraic_integer(total)
    assert all(t.denominator == 1 for t in dual_basis_coords(total))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 12),
    st.sampled_from((-30, -19, -7, -2, 2, 3, 10, 17, 26, 30)),
    st.lists(st.fractions(-40, 40, max_denominator=36), min_size=12, max_size=12),
)
def test_shifted_coordinates_match_products(n, m, coords):
    # the trace pairings and the multiplication matrix are read off the
    # coordinates by a shift; they must equal the products they stand for
    field = PureField.create(n, m)
    e = FieldElement(field, tuple(coords[:n]))
    powers = [FieldElement.alpha_power(field, i) for i in range(n)]
    assert dual_basis_coords(e) == tuple(trace(mul(e, a)) for a in powers)
    assert _multiplication_matrix(e).entries == tuple(mul(e, a).coords for a in powers)


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
    for n in range(2, 9):
        for m in (-5, -2, 3, 7):
            sign = -1 if ((n - 1) * (n + 2) // 2) % 2 else 1
            assert basis_discriminant(power_basis(n, m)) == sign * n ** n * m ** (n - 1)


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
    assert result.element.coords == (Fraction(1, 2), Fraction(1, 2))


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
    # 2Z + aZ with a^2 = 6 is multiplicatively closed but has no unit
    field = PureField.create(2, 6)
    lattice = IntegralBasis(
        field,
        (BasisElement(QPolynomial([2]), 1), BasisElement(QPolynomial([0, 1]), 1)),
    )
    result = p_maximality_enum(lattice, 2)
    assert isinstance(result, Skipped)
    assert "contain 1" in result.reason


# power-basis coordinates of the witnesses the rational-arithmetic solve
# found; the integer solve must return the very same elements
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
    assert list(result.element.coords) == PINNED_COUNTEREXAMPLES[n, m, p]


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
        if is_algebraic_integer(candidate):
            return CounterexampleFound(candidate)
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
                    assert is_algebraic_integer(found)
                    # the witness must leave the lattice
                    in_basis = coordinates_in_basis(found, basis)
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
    return CounterexampleFound(FieldElement(field, tuple(c / p for c in numerator.coords)))


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
                        assert fast.element.coords == slow.element.coords, (n, m, p)


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


def test_counterexample_is_always_integral_and_outside():
    result = p_maximality_enum(power_basis(9, 55), 3)
    assert isinstance(result, CounterexampleFound)
    assert is_algebraic_integer(result.element)


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
    basis = make_basis()
    primes = [p for p, _ in basis.field.factorization]
    oracle._structure_constants.cache_clear()
    report = certify(basis, enum_budget=max(primes) ** basis.field.n)
    info = oracle._structure_constants.cache_info()
    # certify builds the table; every prime's proof reuses it
    assert (info.misses, info.hits) == (1, len(primes))
    if report.ring_closed:
        assert report.certified and all(r == Proved() for r in report.maximality.values())
    else:
        assert all("closed" in r.reason for r in report.maximality.values())
    # one integer table over its least common denominator D, closed iff D == 1
    common, rows = oracle._structure_constants(basis)
    assert isinstance(common, int) and (common == 1) == report.ring_closed
    assert isinstance(rows, tuple) and len(rows) == basis.field.n
    for row in rows:
        assert isinstance(row, tuple) and len(row) == basis.field.n
        for coords in row:
            assert isinstance(coords, tuple)
            assert all(type(c) is int for c in coords)
    # a new basis is one more build, even when every prime stops at the budget
    before = oracle._structure_constants.cache_info().misses
    certify(power_basis(basis.field.n, basis.field.m), enum_budget=1)
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
        table = oracle._structure_constants(basis)
        common, rows = table
        expected = _field_route_table(basis)
        denominators = [c.denominator for row in expected for coords in row for c in coords]
        # D is the least common denominator of every coordinate
        assert common == math.lcm(*denominators), basis
        for row, expected_row in zip(rows, expected):
            for coords, expected_coords in zip(row, expected_row):
                assert tuple(Fraction(c, common) for c in coords) == expected_coords
        is_closed = all(d == 1 for d in denominators)
        assert oracle._multiplicatively_closed(table) == is_closed, basis
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
        table = oracle._structure_constants(basis)
        elems = [FieldElement.from_basis_element(basis.field, e) for e in basis.elements]
        trace_lcd = math.lcm(*(trace(e).denominator for e in elems))
        assert table[0] > 1, basis
        assert oracle._discriminant_exact(basis, table) == _trace_gram_determinant(basis)
        both_scaled += trace_lcd > 1
    # the table's D and the traces' common denominator both enter the scale
    assert both_scaled >= 3


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
        expected = tuple(is_algebraic_integer(e) for e in elems)
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

    def counting(e):
        seen.append(e)
        return is_algebraic_integer(e)

    monkeypatch.setattr(oracle, "is_algebraic_integer", counting)
    certify(basis)
    assert len(seen) == calls


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
