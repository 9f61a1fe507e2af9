"""Tests for phi-adic developments, principal polygons, and the p-index bound."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from purefields.exactmath import QPolynomial, fp_radical, vp_int
from purefields.newton import (
    _fp_inverse,
    _square_free_over_q,
    distinct_irreducible_factors,
    index_lower_bound,
    phi_development,
    phi_index,
    polygon_ascii,
    polygon_json_dict,
    principal_polygon,
    residual_str,
)
from poly_reference import FpExtPolynomial, FpPolynomial, poly_ext_gcd, poly_gcd
from poly_reference import distinct_irreducible_factors as reference_factors
from poly_reference import phi_development_by_division
from rational_reference import fp_from_qpoly, qpoly_power, vp_rational

X = QPolynomial([0, 1])


def poly(*coeffs):
    return QPolynomial(coeffs)


# ---------------------------------------------------------------------------
# developments
# ---------------------------------------------------------------------------

def test_development_phi_equals_x():
    dev = phi_development([-2, 0, 0, 0, 1], [0, 1], 2)
    assert dev.coefficients == ((-2,), (), (), (), (1,))
    assert dev.valuations == (1, None, None, None, 0)


def test_development_identity_case():
    phi = [3, 1]
    dev = phi_development(phi, phi, 5)
    assert dev.coefficients == ((), (1,))
    assert dev.valuations == (None, 0)


def test_development_binomials():
    # X^9 - m in base X - m expands with binomial coefficients
    m = 28
    f = [-m] + [0] * 8 + [1]
    phi = [-m, 1]
    dev = phi_development(f, phi, 3)
    assert dev.coefficients[0] == (m ** 9 - m,)
    for i in range(1, 10):
        assert dev.coefficients[i] == (math.comb(9, i) * m ** (9 - i),)


def test_development_requires_monic_phi():
    monic = "phi must be monic of degree >= 1"
    with pytest.raises(ValueError, match=monic):
        phi_development([1, 1], [1, 2], 3)
    with pytest.raises(ValueError, match=monic):
        phi_development([1, 1], [1], 3)


def test_development_requires_integer_coefficients():
    integral = "development expects integer coefficients"
    with pytest.raises(ValueError, match=integral):
        phi_development([Fraction(1, 2), 0, 1], [0, 1], 2)
    with pytest.raises(ValueError, match=integral):
        phi_development([1, 0, 1], [Fraction(1, 3), 1], 3)


@given(
    fc=st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=9),
    pc=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3),
    p=st.sampled_from([2, 3, 5]),
)
@settings(max_examples=120)
def test_development_reconstructs(fc, pc, p):
    f = QPolynomial(fc)
    phi = QPolynomial(pc + [1])
    dev = phi_development(fc, pc + [1], p)
    acc = QPolynomial()
    power = poly(1)
    for a in dev.coefficients:
        acc = acc + QPolynomial(a) * power
        power = power * phi
    assert acc == f
    assert all(QPolynomial(a).degree < phi.degree for a in dev.coefficients)


def _reference_development(f, phi, p):
    # repeated division with remainder over Q, valuations from vp_rational
    coeffs, rem = [], f
    while not rem.is_zero():
        rem, a = divmod(rem, phi)
        coeffs.append(a)
    coeffs = coeffs or [QPolynomial()]
    return tuple(coeffs), tuple(
        min((vp_rational(p, c) for c in a.coefficients if c), default=None) for a in coeffs
    )


@given(
    fc=st.lists(st.integers(min_value=-10 ** 12, max_value=10 ** 12), max_size=41),
    shift=st.integers(min_value=0, max_value=12),
    pc=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    p=st.sampled_from([2, 3, 5, 7]),
)
@example(fc=[], shift=0, pc=[0], p=2)
@settings(max_examples=150, deadline=None)
def test_development_matches_rational_reference(fc, shift, pc, p):
    # ledger digests reach about C(32, i) * p^32; the shift by p^shift
    # makes digits of positive valuation common
    f = QPolynomial([c * p ** shift for c in fc])
    phi = QPolynomial(pc + [1])
    dev = phi_development([c * p ** shift for c in fc], pc + [1], p)
    coefficients, valuations = _reference_development(f, phi, p)
    assert dev.coefficients == tuple(a.integer_coefficients() for a in coefficients)
    assert dev.valuations == valuations
    assert (dev.f, dev.phi, dev.p) == (f.integer_coefficients(), phi.integer_coefficients(), p)


_DIGIT = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


@st.composite
def _developments(draw):
    # weighted to linear phi, the Taylor shift; one in five has degree 2
    # or 3, where the library divides as the twin does
    p = draw(st.sampled_from([2, 3, 5, 7, 97]))
    shape = draw(st.sampled_from(["binomial", "sparse", "dense"]))
    if shape == "binomial":
        n, m = draw(st.integers(min_value=1, max_value=256)), draw(_DIGIT)
        f = [-m] + [0] * (n - 1) + [1]
    elif shape == "sparse":
        degree = draw(st.integers(min_value=1, max_value=200))
        lower = draw(st.sets(st.integers(min_value=0, max_value=degree - 1), min_size=1, max_size=3))
        f = [0] * (degree + 1)
        for t in (*lower, degree):
            f[t] = draw(_DIGIT.filter(bool))
    else:
        f = draw(st.lists(_DIGIT, max_size=41))
    r = draw(st.one_of(st.sampled_from([0, 1, -1, p - 1, 1 - p]), _DIGIT))
    if draw(st.integers(min_value=0, max_value=4)):
        phi = [-r, 1]
    else:
        phi = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=3)) + [1]
    return f, phi, p


@given(case=_developments())
@example(case=([-3] + [0] * 255 + [1], [-1, 1], 2))
@example(case=([5], [4, 1], 3))
@example(case=([], [0, 1], 2))
@settings(max_examples=150, deadline=None)
def test_development_matches_division_twin(case):
    f, phi, p = case
    dev, twin = phi_development(f, phi, p), phi_development_by_division(f, phi, p)
    assert dev.coefficients == twin.coefficients
    assert dev.valuations == twin.valuations
    assert (dev.f, dev.phi, dev.p) == (twin.f, twin.phi, twin.p)


def test_linear_development_is_one_taylor_shift():
    # X^4096 - 3 along X - 1 at 2: division takes about 4096^2 / 2 steps on
    # growing integers (seconds), the Taylor shift 4096 (about 0.1 s)
    n = 4096
    f = [-3] + [0] * (n - 1) + [1]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        dev = phi_development(f, [-1, 1], 2)
        best = min(best, time.perf_counter() - start)
    assert best < 0.4, best
    # the digits sum to f(1 + 1), and a_j = C(n, j) for j >= 1
    assert len(dev.coefficients) == n + 1
    assert sum(a for (a,) in dev.coefficients) == 2 ** n - 3
    for j in (1, 2, 3, 1000, n // 2, n - 1, n):
        assert dev.coefficients[j] == (math.comb(n, j),)


@pytest.mark.parametrize("p, k", [(3, 2), (2, 4), (5, 2), (3, 3), (2, 5)])
def test_development_of_pure_polynomials_closed_form(p, k):
    # X^N - m in base X - c, where c = -((-m) mod p) lifts the root of
    # X^N - m = (X - m)^N mod p: a_0 = c^N - m and a_i = C(N, i) c^(N - i)
    n = p ** k
    for m in (2, 3, 5, 6, 10, -7, -15, 17, -26, 105):
        c = -((-m) % p)
        dev = phi_development([-m] + [0] * (n - 1) + [1], [-c, 1], p)
        expected = [c ** n - m] + [math.comb(n, i) * c ** (n - i) for i in range(1, n + 1)]
        assert dev.coefficients == tuple((a,) if a else () for a in expected), m
        assert dev.valuations == tuple(vp_int(p, a) if a else None for a in expected), m


def test_development_valuation_examples():
    # a digit's valuation is the least vp of its nonzero coefficients
    assert phi_development([27, 3, 9], [0, 0, 0, 1], 3).valuations == (1,)
    assert phi_development([1, 1], [0, 0, 1], 2).valuations == (0,)
    assert phi_development([], [0, 1], 2).valuations == (None,)


# ---------------------------------------------------------------------------
# principal polygons
# ---------------------------------------------------------------------------

def _dev_x9_minus_28():
    return phi_development([-28] + [0] * 8 + [1], [-28, 1], 3)


def test_polygon_x9_minus_28():
    polygon = principal_polygon(_dev_x9_minus_28())
    assert polygon.vertices == ((0, 3), (1, 2), (3, 1), (9, 0))
    # slopes -h/e in lowest terms: -1, -1/2, -1/6
    assert [(s.h, s.e) for s in polygon.sides] == [(1, 1), (1, 2), (1, 6)]
    assert phi_index(polygon, 1) == 4


def test_polygon_flat_is_empty():
    dev = phi_development([1, 0, 1], [0, 1], 5)
    polygon = principal_polygon(dev)
    assert polygon.sides == ()
    assert polygon.vertices == ()
    assert phi_index(polygon, 1) == 0


def test_polygon_eisenstein():
    # X^4 - 6 at p = 2 is Eisenstein: single side (0,1)-(4,0), index 0
    dev = phi_development([-6, 0, 0, 0, 1], [0, 1], 2)
    polygon = principal_polygon(dev)
    assert polygon.vertices == ((0, 1), (4, 0))
    assert len(polygon.sides) == 1
    assert (polygon.sides[0].h, polygon.sides[0].e) == (1, 4)
    assert phi_index(polygon, 1) == 0


def test_points_lie_on_or_above_polygon():
    polygon = principal_polygon(_dev_x9_minus_28())
    for x, u in polygon.points:
        for side in polygon.sides:
            if side.start[0] <= x <= side.end[0]:
                height = Fraction(side.start[1]) - Fraction(side.h, side.e) * (x - side.start[0])
                assert u >= height


@given(
    vals=st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=12)), max_size=24),
    last=st.integers(min_value=0, max_value=3),
    degphi=st.integers(min_value=1, max_value=3),
    p=st.sampled_from([2, 3]),
)
@settings(max_examples=200, deadline=None)
def test_phi_index_counts_lattice_points(vals, last, degphi, p):
    # f = sum p^u_i X^i developed in base X has exactly these valuations
    vals = vals + [last]
    dev = phi_development([p ** u if u is not None else 0 for u in vals], [0, 1], p)
    assert list(dev.valuations) == vals
    polygon = principal_polygon(dev)
    under = set()
    for (xa, ya), (xb, yb) in zip(polygon.vertices, polygon.vertices[1:]):
        for x in range(max(1, xa), xb + 1):
            line = ya + Fraction(yb - ya, xb - xa) * (x - xa)
            under.update((x, y) for y in range(1, ya + 1) if y <= line)
    assert phi_index(polygon, degphi) == degphi * len(under)


# ---------------------------------------------------------------------------
# residual polynomials
# ---------------------------------------------------------------------------

def test_residual_merged_side_quartic():
    # X^4 - 5 at p = 2, phi = X - 1: one side (0,2)-(4,0) carrying Y^2+Y+1
    dev = phi_development([-5, 0, 0, 0, 1], [-1, 1], 2)
    polygon = principal_polygon(dev)
    assert polygon.vertices == ((0, 2), (4, 0))
    side = polygon.sides[0]
    assert (side.h, side.e, side.l, side.d) == (1, 2, 4, 2)
    assert side.residual == ((1,), (1,), (1,))
    assert side.separable
    assert residual_str(side.residual) == "Y^2+Y+1"


def test_residual_degree_one_sides():
    polygon = principal_polygon(_dev_x9_minus_28())
    for side in polygon.sides:
        assert side.d == 1
        assert len(side.residual) == 2
        assert side.separable


def test_residual_off_side_coefficient_is_zero():
    # X^2 + 4X + 12 at p = 2: points (0,2),(1,2),(2,0); (1,2) lies above the
    # side, so the middle residual coefficient vanishes and Y^2+1 = (Y+1)^2
    dev = phi_development([12, 4, 1], [0, 1], 2)
    polygon = principal_polygon(dev)
    assert polygon.vertices == ((0, 2), (2, 0))
    side = polygon.sides[0]
    assert side.d == 2
    assert side.residual[1] == ()
    assert not _reference_residual(dev, side).is_separable()
    assert not side.separable


def _reference_residual(dev, side):
    # c_j = (a_i / p^u) mod (p, phi) at i = start + j*e when (i, u_i) lies
    # on the side, u = start height - j*h, and 0 when it lies above
    p = dev.p
    phi_bar = FpPolynomial(p, dev.phi)
    coefficients = []
    for j in range(side.d + 1):
        i = side.start[0] + j * side.e
        u = side.start[1] - j * side.h
        digit = QPolynomial(dev.coefficients[i])
        if digit.is_zero() or min(vp_rational(p, c) for c in digit.coefficients if c) != u:
            coefficients.append(FpPolynomial(p))
        else:
            coefficients.append(fp_from_qpoly(p, digit / p ** u))
    return FpExtPolynomial(p, phi_bar, coefficients)


def test_residual_recompute_matches_attached():
    devs = [
        _dev_x9_minus_28(),
        phi_development([-5, 0, 0, 0, 1], [-1, 1], 2),
        phi_development([12, 4, 1], [0, 1], 2),
    ]
    for dev in devs:
        polygon = principal_polygon(dev)
        assert polygon.sides
        for side in polygon.sides:
            reference = _reference_residual(dev, side)
            assert tuple(c.coefficients for c in reference.coefficients) == side.residual
            assert reference.is_separable() == side.separable


def test_is_regular_examples():
    # regular: every side's residual is separable, which is what makes
    # index_lower_bound exact
    for f, phi, p in [
        (QPolynomial([-28] + [0] * 8 + [1]), poly(-28, 1), 3),
        (poly(-5, 0, 0, 0, 1), poly(-1, 1), 2),
    ]:
        dev = phi_development(f.integer_coefficients(), phi.integer_coefficients(), p)
        sides = principal_polygon(dev).sides
        assert sides and all(side.separable for side in sides)
        assert index_lower_bound(f, p)[1] is True


@st.composite
def residue_fields(draw):
    # F_p[x]/(phi_bar), phi_bar monic irreducible of degree 1 to 3: one
    # without a root in F_p, for degree at most 3
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    degree = draw(st.integers(1, 3))
    lower = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    phi_bar = FpPolynomial(p, lower + [1])
    assume(degree == 1 or all(phi_bar % FpPolynomial(p, [-a, 1]) for a in range(p)))
    return p, phi_bar


@settings(max_examples=200, deadline=None)
@given(residue_fields(), st.data())
def test_residue_field_inverse_matches_ext_gcd(field, data):
    p, phi_bar = field
    lower = data.draw(st.lists(st.integers(0, p - 1), max_size=phi_bar.degree))
    c = FpPolynomial(p, lower)
    modulus = list(phi_bar.coefficients)
    if c.is_zero():
        with pytest.raises(ValueError):
            _fp_inverse(list(c.coefficients), modulus, p)
        return
    g, s, _ = poly_ext_gcd(c, phi_bar)
    assert g == FpPolynomial(p, [1])
    inverse = FpPolynomial(p, _fp_inverse(list(c.coefficients), modulus, p))
    assert inverse == s % phi_bar
    assert c * inverse % phi_bar == FpPolynomial(p, [1])


def test_residue_field_inverse_rejects_a_shared_factor():
    # modulo a reducible phi_bar a coefficient sharing a factor is no unit,
    # while a nonzero constant still is
    phi_bar = [0, 1, 1]  # x (x + 1) over F_3
    with pytest.raises(ValueError, match="not invertible"):
        _fp_inverse([0, 1], phi_bar, 3)
    assert _fp_inverse([2], phi_bar, 3) == [2]


# ---------------------------------------------------------------------------
# factorization mod p
# ---------------------------------------------------------------------------

def test_radical_strips_multiplicity():
    f = [0, 0, 1, 0, 1, 0, 1]  # X^2 * (X^2+X+1)^2 over F_2
    # the radical is X * (X^2+X+1) = X^3 + X^2 + X
    assert fp_radical(f, 2) == [0, 1, 1, 1]


def test_distinct_factors_linear_split():
    factors = distinct_irreducible_factors([-1, 0, 0, 0, 1], 5)  # X^4 - 1 over F_5
    assert factors == [[1, 1], [2, 1], [3, 1], [4, 1]]


def test_distinct_factors_mixed_degrees():
    factors = distinct_irreducible_factors([0, 0, 1, 1, 1], 2)  # X^2 * (X^2+X+1)
    assert factors == [[0, 1], [1, 1, 1]]


def test_distinct_factors_frobenius_power():
    # X^9 - 28 mod 3 collapses to (X - 1)^9
    factors = distinct_irreducible_factors([-28] + [0] * 8 + [1], 3)
    assert factors == [[2, 1]]  # X - 1


def test_distinct_factors_deterministic():
    rng = random.Random(42)
    for p in (2, 3, 5, 7):
        for _ in range(8):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 9))] + [1]
            f = FpPolynomial(p, coeffs)
            once = distinct_irreducible_factors(coeffs, p)
            twice = distinct_irreducible_factors(coeffs, p)
            assert once == twice
            prod = FpPolynomial(p, (1,))
            for g in once:
                assert g[-1] == 1
                assert (f % FpPolynomial(p, g)).is_zero()
                prod = prod * FpPolynomial(p, g)
            assert list(prod.coefficients) == fp_radical(coeffs, p)


# ---------------------------------------------------------------------------
# the index bound
# ---------------------------------------------------------------------------

def test_index_bound_x9_minus_28():
    f = QPolynomial([-28] + [0] * 8 + [1])
    assert index_lower_bound(f, 3) == (4, True)


def test_index_bound_eisenstein():
    for n, m, p in [(4, 6, 2), (9, 3, 3), (6, 10, 5)]:
        f = QPolynomial([-m] + [0] * (n - 1) + [1])
        assert index_lower_bound(f, p) == (0, True)


def test_index_bound_inert_quadratic():
    # X^2 - 5 is irreducible mod 3 with multiplicity one: no contribution
    assert index_lower_bound(poly(-5, 0, 1), 3) == (0, True)


def test_index_bound_ramified_square():
    # mod 2, X^2 - 5 = (X+1)^2; the single side is regular and certifies
    # the full power-basis index of Z[sqrt(5)]
    assert index_lower_bound(poly(-5, 0, 1), 2) == (1, True)


def test_index_bound_irregular_flagged():
    bound, exact = index_lower_bound(poly(12, 4, 1), 2)
    assert bound == 1
    assert exact is False


def test_index_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        index_lower_bound(poly(1, 2, 2), 3)  # not monic
    with pytest.raises(ValueError):
        index_lower_bound(QPolynomial([Fraction(1, 2), 1]), 3)  # not integral
    with pytest.raises(ValueError):
        index_lower_bound(poly(4, 4, 1), 2)  # (X+2)^2 has a repeated factor


monic_integer_polys = st.lists(st.integers(-6, 6), min_size=0, max_size=4).map(
    lambda c: QPolynomial(c + [1])
)


@settings(max_examples=200, deadline=None)
@given(monic_integer_polys, monic_integer_polys, st.booleans())
@example(qpoly_power(X, 2) - poly(2), X + poly(1), True)  # (X^2 - 2)^2 (X + 1)
@example(qpoly_power(X, 6) - poly(12), poly(1), False)    # X^N - m: one step
@example(poly(1), poly(1), False)                          # a constant
def test_square_free_over_q_matches_rational_gcd(g, h, square):
    # f = g * h^2 has a repeated factor whenever h is not constant
    f = g * h * h if square else g * h
    expected = poly_gcd(f, f.derivative()).degree == 0
    assert _square_free_over_q([c.numerator for c in f.coefficients]) is expected
    if square and h.degree > 0:
        assert expected is False
        with pytest.raises(ValueError, match="square-free"):
            index_lower_bound(f, 2)


def test_index_bound_against_maximal_order():
    # independent check: compare with the p-valuation of the index of the
    # power basis inside a maximal order computed by sympy
    import math

    import sympy
    from sympy.abc import x
    from sympy.polys.numberfields.basis import round_two

    for n, m in [(2, 5), (2, 13), (2, -26), (3, 10), (3, 28), (3, -26),
                 (4, 5), (4, 17), (4, 33), (5, 7), (5, -26), (6, 17)]:
        fe = x ** n - m
        _, dK = round_two(sympy.Poly(fe, x, domain="QQ"))
        disc_f = int(sympy.discriminant(fe))
        ind = math.isqrt(abs(disc_f // int(dK)))
        f = QPolynomial([-m] + [0] * (n - 1) + [1])
        for p in (2, 3, 5):
            bound, exact = index_lower_bound(f, p)
            if exact:
                assert bound == (vp_int(p, ind) if ind % p == 0 else 0), (n, m, p)
            else:
                assert bound <= (vp_int(p, ind) if ind % p == 0 else 0), (n, m, p)


def _reference_index_bound(f, p):
    """The class- and Fraction-based route: factors from poly_reference,
    developments by repeated division over Q, each polygon by gift wrapping
    from the leftmost point, residuals as FpExtPolynomial, and lattice
    points counted under Fraction heights.  Returns the bound, exactness
    and, per factor, (lifted factor, points, vertices, side tuples)."""
    total, exact, polygons = 0, True, []
    for factor in reference_factors(fp_from_qpoly(p, f)):
        coefficients, valuations = _reference_development(f, factor.lift(), p)
        points = [(i, u) for i, u in enumerate(valuations) if u is not None]
        vertices = [points[0]]
        while True:
            x0, y0 = vertices[-1]
            right = [(Fraction(y - y0, x - x0), x, y) for x, y in points if x > x0]
            if not right or min(right)[0] >= 0:
                break
            slope = min(right)[0]
            vertices.append(max((x, y) for s, x, y in right if s == slope))
        vertices = vertices if len(vertices) > 1 else []
        sides, under = [], set()
        for (xa, ya), (xb, yb) in zip(vertices, vertices[1:]):
            slope = Fraction(ya - yb, xb - xa)
            h, e = slope.numerator, slope.denominator
            residual = []
            for j in range((xb - xa) // e + 1):
                digit, u = coefficients[xa + j * e], ya - j * h
                if digit.is_zero() or valuations[xa + j * e] != u:
                    residual.append(FpPolynomial(p))
                else:
                    residual.append(fp_from_qpoly(p, digit / p ** u))
            ext = FpExtPolynomial(p, factor, residual)
            sides.append((h, e, xb - xa, (xb - xa) // e, ext.is_separable(), str(ext)))
            for x in range(max(1, xa), xb + 1):
                line = ya - slope * (x - xa)
                under.update((x, y) for y in range(1, ya + 1) if y <= line)
        total += factor.degree * len(under)
        exact = exact and all(side[4] for side in sides)
        polygons.append((factor.coefficients, points, vertices, sides))
    return total, exact, polygons


@st.composite
def index_bound_inputs(draw):
    # monic square-free f of degree <= 12 at p in {2, 3, 5, 7}, weighted to
    # binomials, powers of an irreducible phi of degree 1 to 3 perturbed by
    # p^s (with a second factor, several phis), inseparable residuals,
    # Eisenstein polynomials and a few arbitrary ones
    p = draw(st.sampled_from((2, 3, 5, 7)))
    kinds = ("binomial", "phi power", "phi power", "inseparable", "eisenstein", "any")
    kind = draw(st.sampled_from(kinds))
    if kind == "binomial":
        n = draw(st.integers(1, 12))
        f = QPolynomial.x_power(n) - poly(draw(st.integers(-200, 200).filter(bool)))
    elif kind in ("phi power", "inseparable"):
        degree = draw(st.integers(1, 3 if kind == "phi power" else min(3, 12 // p)))
        lower = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
        phi_bar = FpPolynomial(p, lower + [1])
        assume(degree == 1 or all(phi_bar % FpPolynomial(p, [-a, 1]) for a in range(p)))
        if kind == "phi power":
            k = draw(st.integers(1, 12 // degree))
            s = draw(st.integers(1, 4))
            r = draw(st.lists(st.integers(-3, 3), max_size=degree * k))
        else:
            # phi^(p t) + p^(p u) (c + p g): one side, from (0, p u) to
            # (p t, 0), whose residual Y^gcd + c is a p-th power
            k = p * draw(st.integers(1, 12 // (p * degree)))
            s = p * draw(st.integers(1, 2))
            g = draw(st.lists(st.integers(-3, 3), max_size=degree * k - 1))
            r = [draw(st.integers(1, p - 1))] + [p * c for c in g]
        f = qpoly_power(phi_bar.lift(), k) + QPolynomial([c * p ** s for c in r])
        if degree * k < 12 and draw(st.booleans()):
            f = f * poly(draw(st.integers(-6, 6)), 1)
    elif kind == "eisenstein":
        n = draw(st.integers(1, 12))
        unit = draw(st.integers(-20, 20).filter(lambda c: c % p))
        middle = draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
        f = QPolynomial([p * unit] + [p * c for c in middle] + [1])
    else:
        f = QPolynomial(draw(st.lists(st.integers(-9, 9), max_size=12)) + [1])
    assume(poly_gcd(f, f.derivative()).degree == 0)
    return f, p


@settings(max_examples=300, deadline=None)
@given(index_bound_inputs())
@example((QPolynomial.x_power(12) - poly(3), 2))  # phi = X^2+X+1 among the factors
@example((poly(12, 4, 1), 2))  # the inseparable residual Y^2+1
def test_index_bound_matches_class_based_twin(case):
    f, p = case
    total, exact, polygons = _reference_index_bound(f, p)
    assert index_lower_bound(f, p) == (total, exact)
    ints = f.integer_coefficients()
    factors = distinct_irreducible_factors(ints, p)
    assert [tuple(phi) for phi in factors] == [polygon[0] for polygon in polygons]
    for phi, (_, points, vertices, sides) in zip(factors, polygons):
        polygon = principal_polygon(phi_development(ints, phi, p))
        assert list(polygon.points) == points
        assert list(polygon.vertices) == vertices
        assert [
            (s.h, s.e, s.l, s.d, s.separable, residual_str(s.residual))
            for s in polygon.sides
        ] == sides


def test_index_bound_builds_no_polynomial_object(monkeypatch):
    # after reading its QPolynomial input, the bound runs on int lists: the
    # development digits, factors and residuals are never polynomial objects
    built = []
    for cls in (QPolynomial, FpPolynomial, FpExtPolynomial):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    # p-maximal, not p-maximal and Eisenstein at 2; X^24 - 3 has the factor
    # X^2 + X + 1 mod 2
    for n, m, p in [(32, 3, 2), (32, 5, 2), (32, 6, 2), (27, 10, 3), (24, 3, 2)]:
        f = QPolynomial.x_power(n) - poly(m)
        built.clear()
        index_lower_bound(f, p)
        assert built == [], (n, m, p)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_polygon_json_shape():
    dev = _dev_x9_minus_28()
    polygon = principal_polygon(dev)
    data = polygon_json_dict(polygon, 1)
    assert data["phi_index"] == 4
    assert data["vertices"] == [[0, 3], [1, 2], [3, 1], [9, 0]]
    assert [s["slope"] for s in data["sides"]] == ["-1/1", "-1/2", "-1/6"]
    assert all(s["separable"] for s in data["sides"])
    assert [0, 3] in data["points"]


def test_polygon_asciiemits_sides():
    polygon = principal_polygon(_dev_x9_minus_28())
    art = polygon_ascii(polygon)
    assert "slope -1/6" in art
    assert "o" in art
