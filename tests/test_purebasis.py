"""Tests for the closed-form basis construction and index ledger."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from purefields.exactmath import QPolynomial, factorize, square_free_check, SquareFree
from purefields import purebasis
from purefields.cli import canonical_json
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
from construction_reference import compose_bases_by_crt
from rational_reference import element_as_qpoly, element_from_qpoly, minimal_polynomial
from test_oracle import DEDEKIND_RADICANDS


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


def test_minimal_polynomial():
    f = PureField.create(9, 55)
    assert minimal_polynomial(f) == QPolynomial([-55] + [0] * 8 + [1])


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
    assert h_polynomial(3, 2, 1, 1) == [1, 0, 0, 1, 0, 0, 1]  # X^6+X^3+1
    assert h_polynomial(3, 2, 1, 2) == [1] * 9
    assert h_polynomial(2, 2, 5, 1) == [5, 0, 1]              # X^2+5
    assert h_polynomial(2, 2, 1, 2) == [1, 1, 1, 1]
    assert h_polynomial(3, 1, 8, 1) == [64, 8, 1]
    for p, k, r in [(2, 3, 7), (3, 2, 4), (5, 1, 3)]:
        assert h_polynomial(p, k, r, 0) == [1]


def test_h_polynomial_geometric_identity():
    # (X^(p^(k-t)) - r) * h_t = X^(p^k) - r^(p^t)
    for p, k, r, t in [(2, 3, 3, 2), (3, 2, 7, 1), (5, 1, 2, 1), (2, 2, 5, 2)]:
        h = QPolynomial(h_polynomial(p, k, r, t))
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
    # the budget bounds n^2: one under it, nothing is certified
    field = PureField.create(9, 55)
    with pytest.raises(CertificationSkipped) as info:
        integral_basis(field, enum_budget=80)
    assert info.value.reason == "n^2 = 9^2 = 81 exceeds the budget 80"
    assert str(info.value) == f"certification skipped: {info.value.reason}"
    basis, _ = integral_basis(field, enum_budget=81)
    assert spans_equal(basis, build_basis(field))


def test_integral_basis_checks_the_budget_before_building(monkeypatch):
    # at n = 10^6 the construction alone would never finish; the budget
    # depends on n only, so it stops the call before anything is built.
    # The default admits n = 256 and refuses n = 257
    from purefields.oracle import Skipped, certify

    assert integral_basis(PureField.create(256, 3))[0].field.n == 256
    field = PureField.create(9, 55)
    basis = build_basis(field)

    def refuse(field):
        raise AssertionError(f"built a basis for {field}")

    monkeypatch.setattr(purebasis, "build_basis", refuse)
    for n, reason in [
        (257, "n^2 = 257^2 = 66049 exceeds the budget 65536"),
        (10 ** 6, "n^2 = 1000000^2 = 1000000000000 exceeds the budget 65536"),
    ]:
        with pytest.raises(CertificationSkipped) as info:
            integral_basis(PureField.create(n, 2))
        assert info.value.reason == reason
    # the same reason string as the one certify gives each skipped prime
    with pytest.raises(CertificationSkipped) as small:
        integral_basis(field, enum_budget=80)
    report = certify(basis, enum_budget=80)
    assert report.maximality == {3: Skipped(small.value.reason)}


def test_every_degree_to_64_certifies_at_the_default_budget():
    for n in range(2, 65):
        basis, report = integral_basis(PureField.create(n, 3))
        assert len(basis.elements) == n, n


# ---------------------------------------------------------------------------
# CRT composition
# ---------------------------------------------------------------------------

def test_compose_power_bases_gives_power_basis():
    b2 = prime_power_basis(2, 1, 6)
    b3 = prime_power_basis(3, 1, 6)
    composed = compose_bases([b2, b3], 6)
    assert composed.field.n == 6
    assert element_strings(composed) == [
        "1", "X", "X^2", "X^3", "X^4", "X^5"
    ]


def test_compose_degree_six():
    # m = 5: quadratic part (1, (X+1)/2), cubic part trivial
    b2 = prime_power_basis(2, 1, 5)
    b3 = prime_power_basis(3, 1, 5)
    composed = compose_bases([b2, b3], 5)
    assert [e.denominator for e in composed.elements] == [1, 1, 1, 2, 2, 2]
    # degree 3 pairs Psi_{1,0} = (X^3+1)/2 with Omega_{0,3} = X^3:
    # CRT of (1 mod 2, 0 mod 1) on the constant term gives 1
    assert str(composed.elements[3]) == "(X^3+1)/2"
    assert str(composed.elements[4]) == "(X^4+X)/2"


def test_compose_is_symmetric_up_to_span():
    b4 = prime_power_basis(2, 2, 17)
    b3 = prime_power_basis(3, 1, 17)
    left = compose_bases([b4, b3], 17)
    right = compose_bases([b3, b4], 17)
    assert spans_equal(left, right)
    assert [e.denominator for e in left.elements] == \
        [e.denominator for e in right.elements]


def test_compose_rejects_mismatches():
    b2 = prime_power_basis(2, 1, 5)
    b4 = prime_power_basis(2, 2, 5)
    with pytest.raises(ValueError):
        compose_bases([b2, b4], 5)  # gcd(2, 4) != 1
    b3 = prime_power_basis(3, 1, 7)
    with pytest.raises(ValueError):
        compose_bases([b2, b3], 5)  # different m
    # coprime in adjacent pairs, but gcd(2, 4) != 1
    with pytest.raises(ValueError, match="pairwise coprime"):
        compose_bases([b2, prime_power_basis(3, 1, 5), b4], 5)


def test_compose_single_piece_is_unchanged():
    # (X^2+8X+64)/3 keeps the coefficients a CRT would reduce mod 3
    b3 = prime_power_basis(3, 1, 17)
    assert compose_bases([b3], 17) is b3
    assert element_strings(build_basis(PureField.create(3, 17)))[2] == "(X^2+8X+64)/3"


def stretch(element, stride, shift):
    """X^shift * element(X^stride) as a rational polynomial."""
    coeffs = [0] * (shift + stride * element.degree + 1)
    for j, c in enumerate(element_as_qpoly(element).coefficients):
        coeffs[shift + j * stride] = c
    return QPolynomial(coeffs)


def assert_crt_congruences(composed, pieces):
    # with U the product of the pieces' degree-k denominators u_i,
    # (U/u_i) * gamma - Psi_i is integral for every piece i
    n = composed.field.n
    for k, gamma in enumerate(composed.elements):
        stretched = []
        for piece in pieces:
            stride = n // piece.field.n
            a, b = divmod(k, stride)
            element = piece.elements[a]
            stretched.append((element.denominator, stretch(element, stride, b)))
        common = math.prod(u for u, _ in stretched)
        assert gamma.denominator == common, k
        for u, psi in stretched:
            assert (element_as_qpoly(gamma) * (common // u) - psi).is_integral(), (k, u)


def test_compose_crt_congruences_hold():
    # v * gamma - Psi and u * gamma - Omega must be integral
    b4 = prime_power_basis(2, 2, 17)
    b3 = prime_power_basis(3, 1, 17)
    assert_crt_congruences(compose_bases([b4, b3], 17), [b4, b3])


@pytest.mark.parametrize("n", [30, 60])
def test_compose_three_piece_congruences(n):
    # 901 = 1 mod 900, so every piece has a nontrivial denominator
    m = 901
    pieces = [prime_power_basis(p, k, m) for p, k in PureField.create(n, m).factorization]
    assert len(pieces) == 3
    assert all(piece.elements[-1].denominator > 1 for piece in pieces)
    composed = compose_bases(pieces, m)
    assert composed == build_basis(PureField.create(n, m))
    assert_crt_congruences(composed, pieces)


def _radicands_of_every_shape(n):
    # for each p^k exactly dividing n, the least square-free m >= 2 with
    # p | m and one with each shape min(s, k) = 0..k at p
    radicands = set()
    for p, k in factorize(n):
        wanted = {"Eisenstein", *range(k + 1)}
        for m in square_free_range(p ** (k + 3)):
            shape = "Eisenstein" if m % p == 0 else min(s_value(p, m), k)
            if shape in wanted:
                wanted.remove(shape)
                radicands.add(m)
            if not wanted:
                break
        assert not wanted, (n, p, wanted)
    return sorted(radicands)


def test_compose_matches_the_crt_twin():
    # every degree with two or more prime factors up to 96, at radicands of
    # every shape at each of its primes and one of either sign: element k
    # is alpha times element k - 1 only where every piece shifts, and a
    # CRT step elsewhere, element for element the twin's CRT at every k
    shifted = 0
    for n in range(6, 97):
        factorization = factorize(n)
        if len(factorization) < 2:
            continue
        for m in _radicands_of_every_shape(n) + [-m for m in (3, 7, 15)]:
            pieces = [prime_power_basis(p, k, m) for p, k in factorization]
            composed = compose_bases(pieces, m)
            assert composed == compose_bases_by_crt(pieces, m), (n, m)
            assert compose_bases(pieces[::-1], m) == composed, (n, m)
            shifted += sum(
                e.int_numerator == (0,) + below.int_numerator
                and e.denominator == below.denominator
                for below, e in zip(composed.elements, composed.elements[1:])
            )
    assert shifted


# The construction before compose_bases took every piece at once: a
# two-branch prime-power basis sorted by degree, a two-branch closed form,
# and a fold of the pieces two at a time.

def two_branch_prime_power_basis(p, k, m):
    field = PureField(p ** k, m, ((p, k),))
    if m % p == 0:
        return IntegralBasis(
            field, tuple(BasisElement(QPolynomial.x_power(i), 1) for i in range(p ** k))
        )
    r = m % p ** (k + 1)
    s = s_value(p, m)
    elements = []
    if s < k:
        for t in range(s + 1):
            h = h_polynomial(p, k, r, t)
            width = p ** (k - s) if t == s else p ** (k - t) - p ** (k - t - 1)
            elements += [BasisElement([0] * j + h, p ** t) for j in range(width)]
    else:
        for t in range(k):
            h = h_polynomial(p, k, r, t)
            width = p ** (k - t) - p ** (k - t - 1)
            elements += [BasisElement([0] * j + h, p ** t) for j in range(width)]
        elements.append(BasisElement(h_polynomial(p, k, r, k), p ** k))
    elements.sort(key=lambda e: e.degree)
    return IntegralBasis(field, tuple(elements))


def two_branch_ind_p(p, k, m):
    if m % p == 0:
        return 0
    s = s_value(p, m)
    if s <= k:
        return (p ** k - p ** (k - s)) // (p - 1)
    return (p ** k - 1) // (p - 1)


def crt_pair(a, u, b, v):
    if u == 1:
        return b % v
    if v == 1:
        return a % u
    return (a + u * ((b - a) * pow(u, -1, v) % v)) % (u * v)


def compose_pair(basis1, basis2, m):
    n1, n2 = basis1.field.n, basis2.field.n
    merged = tuple(sorted(basis1.field.factorization + basis2.field.factorization))
    elements = []
    for k in range(n1 * n2):
        a, b = divmod(k, n2)
        c, d = divmod(k, n1)
        psi, omega = basis1.elements[a], basis2.elements[c]
        u, v = psi.denominator, omega.denominator
        num_a = stretch(psi, n2, b) * u
        num_c = stretch(omega, n1, d) * v
        coeffs = [
            crt_pair(int(num_a.coefficient(i)), u, int(num_c.coefficient(i)), v)
            for i in range(k + 1)
        ]
        if coeffs[k] == 0:
            coeffs[k] = u * v
        elements.append(BasisElement(QPolynomial(coeffs), u * v))
    return IntegralBasis(PureField(n1 * n2, m, merged), tuple(elements))


def test_build_basis_matches_pairwise_fold():
    fields = 0
    for n in [*range(2, 37), 60]:
        for m in (-19, -7, 2, 3, 10, 17, 26, 55):
            field = PureField.create(n, m)
            folded = None
            for p, k in field.factorization:
                assert ind_p_closed_form(p, k, m) == two_branch_ind_p(p, k, m)
                piece = two_branch_prime_power_basis(p, k, m)
                folded = piece if folded is None else compose_pair(folded, piece, m)
            built = build_basis(field)
            assert built.field == folded.field
            assert [
                (e.numerator.integer_coefficients(), e.denominator) for e in built.elements
            ] == [
                (e.numerator.integer_coefficients(), e.denominator) for e in folded.elements
            ], (n, m)
            fields += 1
    assert fields == 288


def test_basis_hash_is_computed_once(monkeypatch):
    # the basis hash is formed once per basis object, from the integer
    # numerators read at construction, never from the QPolynomials
    calls = []
    field_hash = PureField.__hash__

    def counting_hash(self):
        calls.append(self)
        return field_hash(self)

    def no_hash(self):
        raise AssertionError("a numerator QPolynomial was hashed")

    basis = build_basis(PureField.create(12, 17))
    monkeypatch.setattr(PureField, "__hash__", counting_hash)
    monkeypatch.setattr(QPolynomial, "__hash__", no_hash)
    first = hash(basis)
    assert len(calls) == 1
    assert hash(basis) == first
    assert len(calls) == 1
    monkeypatch.undo()
    # equal bases built separately still hash equal
    again = build_basis(PureField.create(12, 17))
    assert again is not basis and again == basis and hash(again) == first


def test_compose_degree_twelve_against_printed_row():
    # m = 53: denominators (1,1,1,1,1,1,2,2,6,6,6,6) and the X^8 element
    # matches (X^8+2X^4+3X^2+4)/6 as a span
    b4 = prime_power_basis(2, 2, 53)
    b3 = prime_power_basis(3, 1, 53)
    composed = compose_bases([b4, b3], 53)
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
    e = element_from_qpoly(QPolynomial([2, 0, 2]) / 4)
    assert (e.numerator, e.denominator) == (poly(1, 0, 1), 2)


@pytest.mark.parametrize(
    "numerator, denominator, message",
    [
        (QPolynomial([Fraction(1, 2), 1]), 1, "integer coefficients"),
        (QPolynomial(), 1, "zero basis element"),
        ([], 1, "zero basis element"),
        ([0, 0], 3, "zero basis element"),
        (QPolynomial([2, 0, 2]), 4, "lowest terms"),
        ([3, 6, 0], 9, "lowest terms"),
        ([1, 1], 0, "denominator must be positive"),
        (QPolynomial([1, 1]), -2, "denominator must be positive"),
    ],
)
def test_element_rejects_malformed_input(numerator, denominator, message):
    with pytest.raises(ValueError, match=message):
        BasisElement(numerator, denominator)


@pytest.mark.parametrize(
    "coefficients, denominator",
    [([1], 1), ([0, 0, 1], 1), ([4, 0, 3, 0, 4, 0, 0, 0, 1], 6), ([-3, 5, 0], 2)],
)
def test_element_from_ints_equals_element_from_qpolynomial(coefficients, denominator):
    # trailing zeros are trimmed on both routes, as QPolynomial trims them
    from_ints = BasisElement(coefficients, denominator)
    from_poly = BasisElement(QPolynomial(coefficients), denominator)
    assert from_ints == from_poly
    assert hash(from_ints) == hash(from_poly)
    assert from_ints.int_numerator == from_poly.int_numerator
    assert str(from_ints) == str(from_poly)

    # the certifier's closure-certificate cache is keyed on the basis
    basis = build_basis(PureField.create(12, -71))
    rebuilt = IntegralBasis(
        basis.field,
        tuple(BasisElement(QPolynomial(e.int_numerator), e.denominator) for e in basis.elements),
    )
    assert rebuilt == basis and hash(rebuilt) == hash(basis)


def test_element_numerator_is_the_polynomial_view():
    # the basis of Q((-71)^(1/12)), numerators pinned as polynomials
    expected = [
        ([1], 1),
        ([0, 1], 1),
        ([0, 0, 1], 1),
        ([0, 0, 0, 1], 1),
        ([0, 0, 0, 0, 1], 1),
        ([0, 0, 0, 0, 0, 1], 1),
        ([1, 0, 0, 0, 0, 0, 1], 2),
        ([0, 1, 0, 0, 0, 0, 0, 1], 2),
        ([4, 0, 3, 0, 4, 0, 0, 0, 1], 6),
        ([9, 4, 0, 9, 0, 4, 9, 0, 0, 1], 12),
        ([0, 9, 4, 0, 9, 0, 4, 9, 0, 0, 1], 12),
        ([0, 0, 9, 4, 0, 9, 0, 4, 9, 0, 0, 1], 12),
    ]
    basis = build_basis(PureField.create(12, -71))
    assert [(e.numerator, e.denominator) for e in basis.elements] == [
        (QPolynomial(c), d) for c, d in expected
    ]
    assert all(type(e.numerator) is QPolynomial for e in basis.elements)


# ---------------------------------------------------------------------------
# elements carried as terms
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=12), st.integers(1, 24))
def test_terms_are_the_nonzero_coefficients(coefficients, denominator):
    # the public constructor stores exactly the nonzero (t, c), t ascending,
    # from ints and from a QPolynomial alike; the dense view gives the ints back
    assume(any(coefficients) and math.gcd(denominator, *coefficients) == 1)
    nonzero = tuple((t, c) for t, c in enumerate(coefficients) if c)
    for numerator in (coefficients, QPolynomial(coefficients)):
        element = BasisElement(numerator, denominator)
        assert element.terms == nonzero
        assert element.degree == nonzero[-1][0]
        assert element.int_numerator == tuple(coefficients[: element.degree + 1])


def test_built_elements_equal_publicly_constructed_ones():
    # every element construction builds through the trusted constructor
    # equals the one the public constructor makes from its dense ints:
    # same terms (nonzero, t ascending), same denominator, same hash, and
    # element i has degree i
    for n in range(2, 97):
        for m in DEDEKIND_RADICANDS:
            basis = build_basis(PureField.create(n, m))
            for i, e in enumerate(basis.elements):
                public = BasisElement(list(e.int_numerator), e.denominator)
                assert e == public and e.terms == public.terms, (n, m, i)
                assert hash(e) == hash(public) and e.degree == i, (n, m, i)
            assert basis == IntegralBasis(basis.field, basis.elements)


def test_trusted_constructor_checks_the_lead():
    # a lead of +-1 is what puts a built element in lowest terms
    with pytest.raises(ValueError, match="leading coefficient"):
        BasisElement._from_terms(((0, 2), (1, 2)), 4)
    with pytest.raises(ValueError, match="leading coefficient"):
        BasisElement._from_terms(((3, 3),), 1)
    assert BasisElement._from_terms(((0, 3), (2, -1)), 6) == BasisElement([3, 0, -1], 6)


def test_built_basis_skips_the_public_constructor(monkeypatch):
    # construction writes each element once, already normalized: none goes
    # through BasisElement.__init__ and its gcd over every coefficient
    calls = []
    init = BasisElement.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(BasisElement, "__init__", counting)
    for n, m in ((8, 17), (9, 10), (10, 21), (12, -71), (30, 901), (64, 3)):
        build_basis(PureField.create(n, m))
    prime_power_basis(3, 2, 10)
    assert calls == []


def test_integral_basis_computes_the_ledger_once(monkeypatch):
    # integral_basis and the certifier it calls share one index_report
    calls = []
    closed_form = purebasis.ind_p_closed_form
    monkeypatch.setattr(
        purebasis,
        "ind_p_closed_form",
        lambda p, k, m: calls.append(p) or closed_form(p, k, m),
    )
    index_report(PureField.create(2, 3))
    calls.clear()
    integral_basis(PureField.create(12, 35))
    assert sorted(calls) == [2, 3]


def test_ledger_memo_is_keyed_on_the_whole_field():
    # the same degree with another radicand, and back, is a fresh ledger
    for n, m in ((6, 2), (6, 3), (6, 2), (10, 2), (10, -2)):
        field = PureField.create(n, m)
        assert index_report(field) == index_report.__wrapped__(field), (n, m)


# m values chosen so that every basis shape min(s, k), and the Eisenstein
# case p | m, appears at p = 2 (k <= 6), 3 (k <= 3), 5 and 7 (k <= 2)
GOLDEN_RADICANDS = (2, 3, 5, 6, 7, 10, -3, -15, 26, 1001, 33, 65, 82, 129, 197, 687)
GOLDEN_CONSTRUCTION_SHA256 = "73edffd74bb5540931ff46cde90d542caa4a21ce5c8e21d1522bd2207a9956aa"


def test_golden_radicands_cover_every_shape():
    for p, top in ((2, 6), (3, 3), (5, 2), (7, 2)):
        shapes = {
            "Eisenstein" if m % p == 0 else min(s_value(p, m), top)
            for m in GOLDEN_RADICANDS
        }
        assert shapes == {"Eisenstein", *range(top + 1)}, p


def test_construction_bytes_pinned():
    # the canonical JSON of every uncertified basis for n in 2..64: any
    # change to what construction emits changes this digest
    digest = hashlib.sha256()
    for n in range(2, 65):
        for m in GOLDEN_RADICANDS:
            field = PureField.create(n, m)
            record = basis_json_dict(build_basis(field), index_report(field))
            digest.update(canonical_json(record).encode())
    assert digest.hexdigest() == GOLDEN_CONSTRUCTION_SHA256
