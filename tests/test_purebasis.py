"""Tests for the closed-form basis construction and index ledger."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purefields.exactmath import QPolynomial, square_free_check, SquareFree
from purefields import purebasis
from purefields.purebasis import (
    BasisElement,
    CertificationSkipped,
    IntegralBasis,
    IndexReport,
    PureField,
    UnknownSquareFreeError,
    basis_json_dict,
    build_basis,
    compose_bases,
    h_polynomial,
    ind_p_closed_form,
    index_report,
    integral_basis,
    prime_power_basis,
    s_value,
    spans_equal,
)


def poly(*coeffs):
    return QPolynomial(coeffs)


def element_strings(basis):
    return [str(e) for e in basis.elements]


def square_free_range(bound):
    for m in range(2, bound + 1):
        if isinstance(square_free_check(m), SquareFree):
            yield m


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def test_field_create_validates():
    f = PureField.create(12, 53)
    assert f.factorization == ((2, 2), (3, 1))
    with pytest.raises(ValueError):
        PureField.create(1, 5)
    with pytest.raises(ValueError):
        PureField.create(3, 1)
    with pytest.raises(ValueError):
        PureField.create(3, 12)  # 4 | 12
    with pytest.raises(UnknownSquareFreeError):
        PureField.create(2, 1009 ** 2 * 1013, square_free_bound=100)
    PureField.create(2, 1009 ** 2 * 1013, square_free_bound=100, allow_unknown=True)


def test_minimal_polynomial():
    f = PureField.create(9, 55)
    assert f.minimal_polynomial == QPolynomial([-55] + [0] * 8 + [1])


# ---------------------------------------------------------------------------
# s and the closed-form index
# ---------------------------------------------------------------------------

def test_s_value_examples():
    assert s_value(3, 28) == 2   # v3(28^3 - 28) = v3(21924) = 3
    assert s_value(3, 10) == 1   # v3(990) = 2
    assert s_value(2, 5) == 1    # v2(20) = 2
    assert s_value(2, 7) == 0    # v2(42) = 1
    assert s_value(3, -26) >= 2  # -26 = 1 mod 27


def test_s_value_rejects_p_dividing_m():
    with pytest.raises(ValueError):
        s_value(3, 12)


@given(m=st.integers(min_value=2, max_value=400), p=st.sampled_from([2, 3, 5]))
@settings(max_examples=120)
def test_s_value_mod_one_congruence(m, p):
    # m = 1 mod p^(k+1) forces s > k for every k below the valuation
    if m % p == 0:
        return
    s = s_value(p, m)
    assert s >= 0
    # s depends only on m mod p^(s+2): shifting by that modulus preserves it
    shifted = m + p ** (s + 2)
    assert s_value(p, shifted) == s


def test_ind_p_closed_form_examples():
    assert ind_p_closed_form(3, 2, 28) == 4   # s = 2 = k -> (9-1)/2
    assert ind_p_closed_form(3, 2, 10) == 3   # s = 1 < k -> (9-3)/2
    assert ind_p_closed_form(2, 2, 5) == 2    # s = 1 -> (4-2)/1
    assert ind_p_closed_form(2, 2, 17) == 3   # s >= 2 = k -> (4-1)/1
    assert ind_p_closed_form(2, 1, 7) == 0    # s = 0
    assert ind_p_closed_form(3, 1, 10) == 1   # 10 = 1 mod 9
    assert ind_p_closed_form(5, 1, 10) == 0   # 5 | m: Eisenstein
    assert ind_p_closed_form(3, 2, 3) == 0


# ---------------------------------------------------------------------------
# h-polynomials
# ---------------------------------------------------------------------------

def test_h_polynomial_frozen_examples():
    assert h_polynomial(3, 2, 1, 1) == poly(1, 0, 0, 1, 0, 0, 1)  # X^6+X^3+1
    assert h_polynomial(3, 2, 1, 2) == QPolynomial([1] * 9)
    assert h_polynomial(2, 2, 5, 1) == poly(5, 0, 1)              # X^2+5
    assert h_polynomial(2, 2, 1, 2) == poly(1, 1, 1, 1)
    assert h_polynomial(3, 1, 8, 1) == poly(64, 8, 1)
    for p, k, r in [(2, 3, 7), (3, 2, 4), (5, 1, 3)]:
        assert h_polynomial(p, k, r, 0) == QPolynomial.one()


def test_h_polynomial_geometric_identity():
    # (X^(p^(k-t)) - r) * h_t = X^(p^k) - r^(p^t)
    for p, k, r, t in [(2, 3, 3, 2), (3, 2, 7, 1), (5, 1, 2, 1), (2, 2, 5, 2)]:
        h = h_polynomial(p, k, r, t)
        lhs = (QPolynomial.x_power(p ** (k - t)) - poly(r)) * h
        rhs = QPolynomial.x_power(p ** k) - poly(r ** (p ** t))
        assert lhs == rhs
        assert h.degree == p ** k - p ** (k - t)


def test_h_polynomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        h_polynomial(3, 2, 1, 3)   # t > k
    with pytest.raises(ValueError):
        h_polynomial(3, 2, 6, 1)   # 3 | r
    with pytest.raises(ValueError):
        h_polynomial(3, 2, 27, 1)  # 3 | 27, and range check wants [0, 27)


# ---------------------------------------------------------------------------
# prime-power bases
# ---------------------------------------------------------------------------

def test_quadratic_bases_match_classical_table():
    # m = 1 mod 4 gets (1, (X+1)/2); the rest keep the power basis
    assert element_strings(prime_power_basis(2, 1, 5)) == ["1", "(X+1)/2"]
    assert element_strings(prime_power_basis(2, 1, 13)) == ["1", "(X+1)/2"]
    assert element_strings(prime_power_basis(2, 1, -26)) == ["1", "X"]
    for m in (2, 3, 6, 7, -5):
        assert element_strings(prime_power_basis(2, 1, m)) == ["1", "X"]


def test_cubic_bases_match_classical_table():
    assert element_strings(prime_power_basis(3, 1, 10)) == ["1", "X", "(X^2+X+1)/3"]
    b8 = prime_power_basis(3, 1, 17)  # 17 = 8 mod 9
    assert element_strings(b8) == ["1", "X", "(X^2+8X+64)/3"]
    # the classical form (X^2-X+1)/3 spans the same module
    classical = IntegralBasis(
        b8.field,
        (
            BasisElement(poly(1), 1),
            BasisElement(poly(0, 1), 1),
            BasisElement(poly(1, -1, 1), 3),
        ),
    )
    assert spans_equal(b8, classical)
    for m in (2, 3, 5, 7, 12 - 5):  # residues 2..7 mod 9
        assert element_strings(prime_power_basis(3, 1, m)) == ["1", "X", "X^2"]


def test_quartic_bases():
    # m = 1 mod 8: the full tower with denominator 4 at the top
    assert element_strings(prime_power_basis(2, 2, 17)) == [
        "1", "X", "(X^2+1)/2", "(X^3+X^2+X+1)/4"
    ]
    # m = 5 mod 8: two halves
    assert element_strings(prime_power_basis(2, 2, 5)) == [
        "1", "X", "(X^2+5)/2", "(X^3+5X)/2"
    ]
    # m = 3 mod 4 or even: power basis
    assert element_strings(prime_power_basis(2, 2, 3)) == ["1", "X", "X^2", "X^3"]
    assert element_strings(prime_power_basis(2, 2, 6)) == ["1", "X", "X^2", "X^3"]


def test_degree_nine_family():
    # the parametric list for m = 1 mod 27
    want = [
        "1", "X", "X^2", "X^3", "X^4", "X^5",
        "(X^6+X^3+1)/3", "(X^7+X^4+X)/3",
        "(X^8+X^7+X^6+X^5+X^4+X^3+X^2+X+1)/9",
    ]
    assert element_strings(prime_power_basis(3, 2, 55)) == want
    assert element_strings(prime_power_basis(3, 2, -26)) == want
    assert element_strings(prime_power_basis(3, 2, 109)) == want


def test_degree_nine_smaller_s():
    # 10 = 1 mod 9 but not mod 27: s = 1 < k = 2, denominators stop at 3
    basis = prime_power_basis(3, 2, 10)
    dens = [e.denominator for e in basis.elements]
    assert dens == [1, 1, 1, 1, 1, 1, 3, 3, 3]
    assert str(basis.elements[6]) == "(X^6+10X^3+100)/3"
    prod = math.prod(dens)
    assert prod == 3 ** ind_p_closed_form(3, 2, 10)


def test_eisenstein_power_basis():
    basis = prime_power_basis(3, 2, 6)
    assert [e.denominator for e in basis.elements] == [1] * 9
    assert element_strings(prime_power_basis(2, 3, 10))[:2] == ["1", "X"]


def test_denominator_product_equals_index():
    for p, k, m in [(2, 1, 5), (2, 2, 17), (2, 2, 5), (3, 1, 10), (3, 2, 55),
                    (3, 2, 10), (2, 3, 17), (5, 1, 7), (2, 2, -31)]:
        basis = prime_power_basis(p, k, m)
        prod = math.prod(e.denominator for e in basis.elements)
        assert prod == p ** ind_p_closed_form(p, k, m), (p, k, m)


def test_triangularity_enforced():
    field = PureField.create(2, 5)
    with pytest.raises(ValueError):
        IntegralBasis(field, (BasisElement(poly(0, 1), 1), BasisElement(poly(1), 1)))


def test_denominator_ledger():
    basis = prime_power_basis(3, 2, 55)
    assert basis.denominator_ledger_ok()
    bad = IntegralBasis(
        basis.field,
        basis.elements[:-1] + (BasisElement(basis.elements[-1].numerator, 27),),
    )
    assert not bad.denominator_ledger_ok()


def test_build_basis_checks_square_freeness_once(monkeypatch):
    # the field's m is already validated; the prime-power pieces must not
    # rerun the trial division
    field = PureField.create(12, 53)
    calls = []
    original = purebasis.square_free_check
    monkeypatch.setattr(
        purebasis,
        "square_free_check",
        lambda *args: calls.append(args) or original(*args),
    )
    basis = build_basis(field)
    assert calls == []
    assert spans_equal(basis, integral_basis(field)[0])
    with pytest.raises(ValueError):
        prime_power_basis(3, 2, 28)  # 4 | 28
    assert calls


@pytest.mark.parametrize("p", [4, 6])
def test_prime_power_basis_rejects_composite_p(p):
    # unchecked, p = 4 yields the non-maximal power basis of Q(5^(1/4)) and
    # p = 6 fails later with a basis-length error
    with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
        prime_power_basis(p, 1, 5)


def test_integral_basis_raises_on_skipped_maximality():
    with pytest.raises(CertificationSkipped) as info:
        integral_basis(PureField.create(9, 55), enum_budget=3 ** 9 - 1)
    assert list(info.value.skipped) == [3]
    assert "budget" in info.value.skipped[3]
    assert "p = 3" in str(info.value)


def test_integral_basis_checks_the_budget_before_building():
    # at n = 10^6 the construction alone would never finish; the budget
    # depends on n only, so it stops the call before anything is built
    from purefields.oracle import p_maximality_enum

    with pytest.raises(CertificationSkipped) as info:
        integral_basis(PureField.create(10 ** 6, 2))
    assert sorted(info.value.skipped) == [2, 5]
    assert info.value.skipped[5] == (
        "p^n = 5^1000000 candidate cosets exceed the budget 16777216"
    )
    # the same reason string as the oracle's own budget skip
    field = PureField.create(9, 55)
    with pytest.raises(CertificationSkipped) as small:
        integral_basis(field, enum_budget=3 ** 9 - 1)
    skipped = p_maximality_enum(build_basis(field), 3, enum_budget=3 ** 9 - 1)
    assert small.value.skipped == {3: skipped.reason}


# ---------------------------------------------------------------------------
# CRT composition
# ---------------------------------------------------------------------------

def test_compose_power_bases_gives_power_basis():
    b2 = prime_power_basis(2, 1, 6)
    b3 = prime_power_basis(3, 1, 6)
    composed = compose_bases(b2, b3, 6)
    assert composed.field.n == 6
    assert element_strings(composed) == [
        "1", "X", "X^2", "X^3", "X^4", "X^5"
    ]


def test_compose_degree_six():
    # m = 5: quadratic part (1, (X+1)/2), cubic part trivial
    b2 = prime_power_basis(2, 1, 5)
    b3 = prime_power_basis(3, 1, 5)
    composed = compose_bases(b2, b3, 5)
    assert [e.denominator for e in composed.elements] == [1, 1, 1, 2, 2, 2]
    # degree 3 pairs Psi_{1,0} = (X^3+1)/2 with Omega_{0,3} = X^3:
    # CRT of (1 mod 2, 0 mod 1) on the constant term gives 1
    assert str(composed.elements[3]) == "(X^3+1)/2"
    assert str(composed.elements[4]) == "(X^4+X)/2"


def test_compose_is_symmetric_up_to_span():
    b4 = prime_power_basis(2, 2, 17)
    b3 = prime_power_basis(3, 1, 17)
    left = compose_bases(b4, b3, 17)
    right = compose_bases(b3, b4, 17)
    assert spans_equal(left, right)
    assert [e.denominator for e in left.elements] == \
        [e.denominator for e in right.elements]


def test_compose_rejects_mismatches():
    b2 = prime_power_basis(2, 1, 5)
    b4 = prime_power_basis(2, 2, 5)
    with pytest.raises(ValueError):
        compose_bases(b2, b4, 5)  # gcd(2, 4) != 1
    b3 = prime_power_basis(3, 1, 7)
    with pytest.raises(ValueError):
        compose_bases(b2, b3, 5)  # different m


def test_compose_crt_congruences_hold():
    # v * gamma - Psi and u * gamma - Omega must be integral
    b4 = prime_power_basis(2, 2, 17)
    b3 = prime_power_basis(3, 1, 17)
    composed = compose_bases(b4, b3, 17)
    n1, n2 = 4, 3
    for k, gamma in enumerate(composed.elements):
        a, b = divmod(k, n2)
        c, d = divmod(k, n1)
        psi = b4.elements[a]
        omega = b3.elements[c]
        psi_poly = (psi.numerator / psi.denominator).inflate(n2).times_x_power(b)
        omega_poly = (omega.numerator / omega.denominator).inflate(n1).times_x_power(d)
        gamma_poly = gamma.as_qpoly()
        u, v = psi.denominator, omega.denominator
        assert (gamma_poly * v - psi_poly).is_integral(), k
        assert (gamma_poly * u - omega_poly).is_integral(), k
        assert gamma.denominator == u * v


def test_compose_degree_twelve_against_printed_row():
    # m = 53: denominators (1,1,1,1,1,1,2,2,6,6,6,6) and the X^8 element
    # matches (X^8+2X^4+3X^2+4)/6 as a span
    b4 = prime_power_basis(2, 2, 53)
    b3 = prime_power_basis(3, 1, 53)
    composed = compose_bases(b4, b3, 53)
    assert [e.denominator for e in composed.elements] == \
        [1, 1, 1, 1, 1, 1, 2, 2, 6, 6, 6, 6]
    printed = IntegralBasis(
        composed.field,
        tuple(
            BasisElement(num, den)
            for num, den in [
                (poly(1), 1), (poly(0, 1), 1), (poly(0, 0, 1), 1),
                (poly(0, 0, 0, 1), 1), (poly(0, 0, 0, 0, 1), 1),
                (poly(0, 0, 0, 0, 0, 1), 1),
                (poly(1, 0, 0, 0, 0, 0, 1), 2),
                (poly(0, 1, 0, 0, 0, 0, 0, 1), 2),
                (poly(4, 0, 3, 0, 2, 0, 0, 0, 1), 6),
                (poly(0, 4, 0, 3, 0, 2, 0, 0, 0, 1), 6),
                (poly(0, 0, 4, 0, 3, 0, 2, 0, 0, 0, 1), 6),
                (poly(0, 0, 0, 4, 0, 3, 0, 2, 0, 0, 0, 1), 6),
            ]
        ),
    )
    assert spans_equal(composed, printed)


# ---------------------------------------------------------------------------
# the index report
# ---------------------------------------------------------------------------

def test_index_report_degree_nine():
    report = index_report(PureField.create(9, 55))
    assert report.per_prime == {3: 4}
    assert report.total_index == 81
    assert report.poly_discriminant == 9 ** 9 * 55 ** 8
    assert report.field_discriminant * 81 ** 2 == report.poly_discriminant


def test_index_report_degree_twelve():
    report = index_report(PureField.create(12, 53))
    # quartic part contributes 2 * 3, cubic part 1 * 4
    assert report.per_prime == {2: 6, 3: 4}
    assert report.total_index == 2 ** 6 * 3 ** 4
    # disc(X^12 - 53) is negative: sign exponent (n-1)(n+2)/2 = 77
    assert report.poly_discriminant == -(12 ** 12) * 53 ** 11


def test_index_report_quadratic():
    report = index_report(PureField.create(2, 7))
    assert report.total_index == 1
    assert report.field_discriminant == 28
    report5 = index_report(PureField.create(2, 5))
    assert report5.total_index == 2
    assert report5.field_discriminant == 5


def test_index_report_sign_convention():
    # n = 3: (-1)^3 = -1; D(alpha) = -27 m^2
    report = index_report(PureField.create(3, 10))
    assert report.poly_discriminant == -27 * 100
    assert report.field_discriminant == -300  # ind = 3


def test_index_multiplicativity_recursion():
    for n1, n2, m in [(2, 3, 5), (4, 3, 17), (2, 9, 10), (4, 9, 73), (2, 5, 11)]:
        full = index_report(PureField.create(n1 * n2, m)).total_index
        part1 = index_report(PureField.create(n1, m)).total_index
        part2 = index_report(PureField.create(n2, m)).total_index
        assert full == part1 ** n2 * part2 ** n1, (n1, n2, m)


def test_gassert_criterion_small():
    for n in range(2, 11):
        primes = [p for p, _ in PureField.create(n, 2).factorization]
        for m in list(square_free_range(60)) + [-m for m in square_free_range(60)]:
            total = index_report(PureField.create(n, m)).total_index
            criterion = all((m ** p - m) % (p * p) != 0 for p in primes)
            assert (total == 1) == criterion, (n, m)


def test_report_invariant_guard():
    with pytest.raises(ValueError):
        IndexReport({2: 1}, 4, 1, 16)
    with pytest.raises(ValueError):
        IndexReport({2: 2}, 4, 3, 16)


# ---------------------------------------------------------------------------
# serialization bits
# ---------------------------------------------------------------------------

def test_json_dict_shape():
    field = PureField.create(9, 55)
    basis = prime_power_basis(3, 2, 55)
    data = basis_json_dict(basis, index_report(field))
    assert data["n"] == 9 and data["m"] == 55
    assert data["index"] == {"3": 4}
    assert data["total_index"] == 81
    assert data["elements"][6] == {"num": [1, 0, 0, 1, 0, 0, 1], "den": 3}
    assert data["hnf"]["den"] == 9
    assert len(data["hnf"]["matrix"]) == 9


def test_element_rendering():
    assert str(BasisElement(poly(4, 0, 3, 0, 4, 0, 0, 0, 1), 6)) == \
        "(X^8+4X^4+3X^2+4)/6"
    assert str(BasisElement(poly(0, 0, 1), 1)) == "X^2"
    assert str(BasisElement(poly(1), 1)) == "1"


def test_element_normalization_enforced():
    with pytest.raises(ValueError):
        BasisElement(poly(2, 0, 2), 4)
    e = BasisElement.from_qpoly(QPolynomial([2, 0, 2]) / 4)
    assert (e.numerator, e.denominator) == (poly(1, 0, 1), 2)
