"""Tests for the exact arithmetic kernel."""

import math
import random
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from purefields import exactmath
from purefields.exactmath import (
    NotSquareFree,
    QPolynomial,
    RatMatrix,
    SquareFree,
    Unknown,
    charpoly,
    det_int,
    det_rational,
    ext_gcd,
    factorize,
    fp_kernel,
    fp_lanes,
    fp_radical,
    fp_reduce,
    hnf_rows,
    is_prime,
    square_free_check,
    vp_int,
)
from fp_reference import fp_kernel as reference_fp_kernel
from fp_reference import fp_reduce as reference_fp_reduce
from poly_reference import (
    FpExtPolynomial,
    FpPolynomial,
    dedekind_p_maximal,
    poly_ext_gcd,
    poly_gcd,
)
from rational_reference import charpoly as reference_charpoly
from rational_reference import fp_from_qpoly, qpoly_power, vp_rational


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def test_vp_int_examples():
    assert vp_int(3, 990) == 2
    assert vp_int(5, 7) == 0
    assert vp_int(2, 1024) == 10


def test_vp_int_zero_rejected():
    with pytest.raises(ValueError):
        vp_int(3, 0)


def _vp_by_division(p: int, a: int) -> int:
    # one factor of p at a time: the loop vp_int keeps for odd p
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(2 ** 300), 2 ** 300).filter(bool),
    st.integers(0, 400),
    st.sampled_from((2, 3, 5, 7)),
)
def test_vp_int_matches_division(a, e, p):
    # p^e * a, of either sign, covers valuations from 0 well past 64 bits
    assert vp_int(p, a * p ** e) == _vp_by_division(p, a * p ** e)


def test_vp_int_at_two_is_one_pass():
    # 200,000 trailing zero bits: stripping one factor at a time made
    # 200,000 full-size divisions
    a = 3 * 2 ** 200000
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        assert vp_int(2, a) == 200000
        best = min(best, time.perf_counter() - start)
    assert best < 0.001


def test_vp_rational():
    assert vp_rational(5, Fraction(1, 5)) == -1
    assert vp_rational(2, Fraction(12, 5)) == 2
    assert vp_rational(3, 7) == 0


@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    a=st.fractions(min_value=-1000, max_value=1000).filter(lambda x: x != 0),
    b=st.fractions(min_value=-1000, max_value=1000).filter(lambda x: x != 0),
)
def test_vp_multiplicative_and_ultrametric(p, a, b):
    assert vp_rational(p, a * b) == vp_rational(p, a) + vp_rational(p, b)
    if a + b != 0:
        va, vb = vp_rational(p, a), vp_rational(p, b)
        assert vp_rational(p, a + b) >= min(va, vb)
        if va != vb:
            assert vp_rational(p, a + b) == min(va, vb)


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=2, max_value=10 ** 6),
)
@settings(max_examples=200)
def test_fermat_valuation_stability(p, k, m):
    # v_p(m**p - m) equals v_p(m**(p**k) - m) whenever p does not divide m
    if m % p == 0:
        m += 1
    assert vp_int(p, m ** p - m) == vp_int(p, m ** (p ** k) - m)


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def test_ext_gcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (9, 0), (-6, -10)]:
        g, s, t = ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_a_sieve():
    # past 43^2 the strong tests decide, up to 30,000
    limit = 30_000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, limit, i))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the prime bases 2..7 and 2..31
    assert 3215031751 == 151 * 751 * 28351
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1)
    assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 31 + 1)


def test_is_prime_raises_at_the_deterministic_bound():
    # odd and prime to every base, so trial division cannot decide it
    n = exactmath.MILLER_RABIN_BOUND
    while any(n % b == 0 for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)):
        n += 1
    with pytest.raises(ValueError, match=str(exactmath.MILLER_RABIN_BOUND)):
        is_prime(n)
    # a factor among the bases still decides it
    assert not is_prime(2 * n)
    assert not is_prime(exactmath.MILLER_RABIN_BOUND * 3)


def test_factorize():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(72) == [(2, 3), (3, 2)]
    assert factorize(97) == [(97, 1)]
    with pytest.raises(ValueError):
        factorize(1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 10 ** 6),
    st.sampled_from((1, 1_000_003, 2 ** 61 - 1, 100_000_000_000_031)),
    st.sampled_from((1, 10_007)),
)
def test_factorize_matches_sympy(small, large, second):
    # a prime cofactor stops trial division at once; two large primes
    # still trial-divide up to the smaller
    sympy = pytest.importorskip("sympy")
    n = small * large * second
    assume(n >= 2)
    assert factorize(n) == sorted(sympy.factorint(n).items())


# ---------------------------------------------------------------------------
# square-free checking
# ---------------------------------------------------------------------------

def test_square_free_examples():
    assert square_free_check(-26, 10 ** 6) == SquareFree()
    assert square_free_check(12, 10 ** 6) == NotSquareFree(2)
    assert square_free_check(10, 10 ** 6) == SquareFree()
    assert square_free_check(-27, 10 ** 6) == NotSquareFree(3)


def test_square_free_unknown_and_large_prime_cofactor():
    # 1009 is prime and beyond a bound of 1000, yet 1009**2 < 1001**3, so the
    # cofactor has at most two prime factors and its square root settles it
    assert square_free_check(1009 * 1009, 1000) == NotSquareFree(1009)
    # three primes beyond the bound leave a cofactor >= 1001**3: undecided
    assert square_free_check(1009 * 1013 * 1019, 1000) == Unknown(1000)
    # a prime cofactor below bound**2 is recognized as square-free
    assert square_free_check(2 * 1009, 1000) == SquareFree()
    assert square_free_check(1009 * 1009, 10 ** 6) == NotSquareFree(1009)


def test_square_free_rejects_units():
    for m in (0, 1, -1):
        with pytest.raises(ValueError):
            square_free_check(m)


@given(m=st.integers(min_value=2, max_value=20000))
@settings(max_examples=150)
def test_square_free_matches_sieve(m):
    result = square_free_check(m, 10 ** 6)
    truly = all(m % (p * p) for p in range(2, int(math.isqrt(m)) + 1))
    if truly:
        assert result == SquareFree()
    else:
        assert isinstance(result, NotSquareFree)
        assert m % (result.prime ** 2) == 0
        assert is_prime(result.prime)


PRIMES_BELOW_2000 = [p for p in range(2, 2000) if is_prime(p)]


@given(
    s=st.integers(min_value=1, max_value=99).filter(
        lambda s: all(s % (p * p) for p in range(2, 10))
    ),
    large=st.lists(
        st.sampled_from([p for p in PRIMES_BELOW_2000 if p > 100]),
        min_size=1,
        max_size=3,
    ),
    sign=st.sampled_from((1, -1)),
)
@settings(max_examples=300)
def test_square_free_beyond_the_bound(s, large, sign):
    # every prime factor of m is below 2000, so those primes settle the truth;
    # at bound 100 trial division stops at d = 101 with cofactor prod(large),
    # which must be decided when it is below 101**3 (so has at most two
    # primes); three primes, or two near 2000, may leave it undecided
    m = sign * s * math.prod(large)
    result = square_free_check(m, 100)
    truly = all(m % (p * p) for p in PRIMES_BELOW_2000)
    if isinstance(result, Unknown):
        assert math.prod(large) >= 101**3
    elif truly:
        assert result == SquareFree()
    else:
        assert isinstance(result, NotSquareFree)
        assert m % (result.prime ** 2) == 0
        assert is_prime(result.prime)


# ---------------------------------------------------------------------------
# rational polynomials
# ---------------------------------------------------------------------------

def test_qpoly_normalization_and_degree():
    assert QPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
    assert QPolynomial().degree == -1
    assert QPolynomial([0]).is_zero()
    assert QPolynomial([5]).degree == 0


def test_qpoly_arithmetic():
    f = QPolynomial([1, 2, 3])
    g = QPolynomial([0, 1])
    assert f + g == QPolynomial([1, 3, 3])
    assert f - f == QPolynomial()
    assert f * g == QPolynomial([0, 1, 2, 3])
    assert 2 * f == QPolynomial([2, 4, 6])
    assert g * g * g == QPolynomial([0, 0, 0, 1])
    # f(2) = 17 is the remainder of f on division by X - 2
    assert f % QPolynomial([-2, 1]) == QPolynomial([17])


def test_qpoly_divmod_reconstruction():
    f = QPolynomial([2, 0, 0, 0, 1])
    phi = QPolynomial([-1, 1])
    q, r = divmod(f, phi)
    assert q * phi + r == f
    assert r.degree < phi.degree


def test_qpoly_str():
    assert str(QPolynomial([4, 0, 3, 0, 4, 0, 0, 0, 1])) == "X^8+4X^4+3X^2+4"
    assert str(QPolynomial([1, -1, 1])) == "X^2-X+1"
    assert str(QPolynomial()) == "0"
    assert str(QPolynomial([0, 1])) == "X"


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=6),
    st.lists(st.integers(min_value=-50, max_value=50), max_size=6),
)
def test_qpoly_ring_laws(a, b):
    f, g = QPolynomial(a), QPolynomial(b)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * f == f * f + g * f


# ---------------------------------------------------------------------------
# polynomials over F_p
# ---------------------------------------------------------------------------

def test_fp_poly_basics():
    f = FpPolynomial(5, [7, 3, 10])
    assert f.coefficients == (2, 3)
    assert FpPolynomial(3, [3, 6]).is_zero()


def test_fp_gcd_examples():
    # derivative of Y^2+Y+1 over F_2 is 1, so the gcd is 1: separable
    f = FpPolynomial(2, [1, 1, 1])
    assert poly_gcd(f, f.derivative()) == FpPolynomial(2, [1])
    # Y^2 and its derivative 2Y over F_3 share the factor Y
    g = FpPolynomial(3, [0, 0, 1])
    assert poly_gcd(g, g.derivative()) == FpPolynomial(3, [0, 1])
    h = FpPolynomial(5, [1, 1])
    assert poly_gcd(h, h) == FpPolynomial(5, [1, 1])


def test_fp_ext_gcd_bezout():
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            a = FpPolynomial(p, [rng.randrange(p) for _ in range(rng.randint(1, 6))])
            b = FpPolynomial(p, [rng.randrange(p) for _ in range(rng.randint(1, 6))])
            if a.is_zero() and b.is_zero():
                continue
            g, s, t = poly_ext_gcd(a, b)
            assert s * a + t * b == g
            if not a.is_zero() and not b.is_zero():
                assert (a % g).is_zero() and (b % g).is_zero()


def test_fp_pow_mod():
    f = FpPolynomial(3, [1, 0, 1])
    x = FpPolynomial(3, [0, 1])
    assert x.pow_mod(9, f) == x.pow_mod(9 % 8 + 8, f) % f
    assert x.pow_mod(2, f) == FpPolynomial(3, [-1]) % f


def test_fp_from_qpoly():
    f = QPolynomial([Fraction(1, 2), 3])
    assert fp_from_qpoly(5, f) == FpPolynomial(5, [3, 3])
    with pytest.raises(ValueError):
        fp_from_qpoly(2, f)


# ---------------------------------------------------------------------------
# division and Euclid over Q, F_p and F_p[x]/(phi)
# ---------------------------------------------------------------------------

def _extension(phi, name):
    # coefficients of F_p[x]/(phi) as polynomials of degree < deg(phi)
    p = phi.p
    element = st.lists(st.integers(0, p - 1), max_size=phi.degree).map(
        partial(FpPolynomial, p)
    )
    return pytest.param(
        partial(FpExtPolynomial, p, phi), element, FpPolynomial(p, [1]), id=name
    )


FIELDS = [
    pytest.param(
        QPolynomial, st.fractions(-5, 5, max_denominator=6), Fraction(1), id="Q"
    ),
    *(
        pytest.param(partial(FpPolynomial, p), st.integers(0, p - 1), 1, id=f"F{p}")
        for p in (2, 3, 5, 7)
    ),
    _extension(FpPolynomial(3, [1, 0, 1]), "F3[x]/(x^2+1)"),
    _extension(FpPolynomial(2, [1, 1, 0, 1]), "F2[x]/(x^3+x+1)"),
]


@pytest.mark.parametrize("make, element, one", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_division_and_euclid_over_every_field(make, element, one, data):
    a = make(data.draw(st.lists(element, max_size=6)))
    b = make(data.draw(st.lists(element, min_size=1, max_size=5)))
    assume(not b.is_zero())
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    g = poly_gcd(a, b)
    assert g.coefficients[-1] == one
    assert (a % g).is_zero() and (b % g).is_zero()
    h, s, t = poly_ext_gcd(a, b)
    assert s * a + t * b == h == g


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_hnf_examples():
    assert hnf_rows([[1, 0], [0, 1]], 2) == [[1, 0], [0, 1]]
    assert hnf_rows([[2, 0], [1, 1]], 2) == [[2, 0], [1, 1]]
    assert hnf_rows([[0, 1], [1, 0]], 2) == [[1, 0], [0, 1]]


def test_hnf_shape_and_reduction():
    H = hnf_rows([[4, 0, 0], [2, 6, 0], [1, 3, 2]], 3)
    for i in range(3):
        assert H[i][i] > 0
        for j in range(3):
            if j > i:
                assert H[i][j] == 0
            elif j < i:
                assert 0 <= H[i][j] < H[j][j]


def test_hnf_singular_rejected():
    with pytest.raises(ValueError):
        hnf_rows([[1, 2], [2, 4]], 2)


def _random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def test_hnf_idempotent_and_span_invariant():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        while True:
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if det_int(m) != 0:
                break
        h = hnf_rows(m, n)
        assert hnf_rows(h, n) == h
        u = _random_unimodular(rng, n)
        transformed = [[sum(u[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert hnf_rows(transformed, n) == h


def test_hnf_rows_rectangular():
    # three generators of a rank-2 lattice
    rows = [[2, 0], [0, 2], [1, 1]]
    h = hnf_rows(rows, 2)
    assert h == [[1, 0], [1, 1]] or h == [[2, 0], [1, 1]]
    # the span of [[2,0],[0,2],[1,1]] is the checkerboard lattice, index 2
    assert abs(h[0][0] * h[1][1]) == 2


def test_det():
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[2, 0], [0, 0]]) == 0
    for not_square in ([[1, 2, 3], [4, 5, 6]], []):
        with pytest.raises(ValueError):
            det_int(not_square)
    assert det_rational(RatMatrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == Fraction(1, 3)


def _bareiss_reference(rows):
    # plain fraction-free elimination on the whole matrix, blind to zeros
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


_HUGE = 10 ** 30
_det_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(_HUGE - 9, _HUGE + 9),
    st.integers(-_HUGE - 9, -_HUGE + 9),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), density=st.floats(0, 1))
def test_det_int_matches_full_elimination(data, n, density):
    # the seeded mask picks the nonzero positions, then only those are drawn
    mask = random.Random(data.draw(st.integers(0, 2 ** 32)))
    support = [(i, j) for i in range(n) for j in range(n) if mask.random() < density]
    entries = data.draw(st.lists(_det_entries, min_size=len(support), max_size=len(support)))
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(support, entries):
        rows[i][j] = x
    assert det_int(rows) == _bareiss_reference(rows)


def _inversions(perm):
    return sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])


def test_det_int_of_permutation_and_monomial_matrices():
    rng = random.Random(15)
    for n in range(1, 11):
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            sign = -1 if _inversions(perm) % 2 else 1
            permutation = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
            assert det_int(permutation) == sign, perm
            scales = [rng.choice([-7, -2, 3, 5, _HUGE]) for _ in range(n)]
            monomial = [[s * x for x in row] for s, row in zip(scales, permutation)]
            assert det_int(monomial) == sign * math.prod(scales), perm


def test_det_int_zero_row_or_column():
    rng = random.Random(16)
    dense = [[rng.randint(1, 9) for _ in range(5)] for _ in range(5)]
    for k in range(5):
        zero_row = [row if i != k else [0] * 5 for i, row in enumerate(dense)]
        zero_col = [[x if j != k else 0 for j, x in enumerate(row)] for row in dense]
        assert det_int(zero_row) == 0
        assert det_int(zero_col) == 0
    # lines that empty only once single-entry lines are expanded away
    assert det_int([[1, 0, 0], [2, 0, 0], [3, 4, 5]]) == 0
    assert det_int([[0, 1, 1], [0, 0, 1], [1, 1, 1]]) == 1


def test_det_int_block_triangular():
    # blocks of sizes 3, 1 and 4 on the diagonal, arbitrary above, zero below
    rng = random.Random(17)
    sizes = [3, 1, 4]
    n = sum(sizes)
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    for _ in range(10):
        rows = [
            [rng.randint(-9, 9) if block[j] >= block[i] else 0 for j in range(n)]
            for i in range(n)
        ]
        expected = math.prod(
            _bareiss_reference([row[s:s + size] for row in rows[s:s + size]])
            for s, size in zip(starts, sizes)
        )
        assert det_int(rows) == expected == _bareiss_reference(rows)


def test_charpoly_examples():
    assert charpoly(RatMatrix([[0, 0], [0, 0]])) == QPolynomial([0, 0, 1])
    assert charpoly(RatMatrix([[1, 0], [0, 2]])) == QPolynomial([2, -3, 1])
    companion = RatMatrix([[0, 0, 7], [1, 0, 0], [0, 1, 0]])
    assert charpoly(companion) == QPolynomial([-7, 0, 0, 1])
    with pytest.raises(ValueError):
        charpoly(RatMatrix([[1, 2, 3], [4, 5, 6]]))


def test_rat_matrix_keeps_ints():
    M = RatMatrix([[1, Fraction(1, 2)], [Fraction(5, 2), 2]])
    assert [[type(c) for c in row] for row in M.entries] == [[int, Fraction], [Fraction, int]]
    assert M == RatMatrix([[Fraction(1), Fraction(1, 2)], [Fraction(5, 2), Fraction(2)]])
    assert det_rational(M) == Fraction(3, 4)


def assert_charpoly_matches_reference(rows):
    assert list(charpoly(RatMatrix(rows)).coefficients) == reference_charpoly(rows)


def square_matrices(entries):
    return st.integers(1, 20).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


SMALL_RATIONALS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6))
NEAR_1E30 = st.one_of(
    st.integers(10 ** 30 - 50, 10 ** 30 + 50), st.integers(-10 ** 30 - 50, -10 ** 30 + 50)
)


@settings(max_examples=40, deadline=None)
@given(square_matrices(SMALL_RATIONALS))
def test_charpoly_matches_reference_on_rationals(rows):
    assert_charpoly_matches_reference(rows)


@settings(max_examples=25, deadline=None)
@given(square_matrices(NEAR_1E30))
def test_charpoly_matches_reference_on_huge_integers(rows):
    assert_charpoly_matches_reference(rows)


@pytest.mark.parametrize("n", range(1, 21))
def test_charpoly_matches_reference_at_every_degree(n):
    # every split of n into baby and giant steps, the edges n = s^2 and
    # s^2 +- 1 (3, 4, 5, 8, 9, 10, 15, 16, 17) among them
    rng = random.Random(n)
    rows = [[Fraction(rng.randint(-50, 50), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    assert_charpoly_matches_reference(rows)
    rows = [[rng.choice((1, -1)) * 10 ** 30 + rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
    assert_charpoly_matches_reference(rows)


@pytest.mark.parametrize("n", range(1, 21))
def test_charpoly_closed_forms(n):
    X = QPolynomial([0, 1])
    zero = [[0] * n for _ in range(n)]
    assert charpoly(RatMatrix(zero)) == qpoly_power(X, n)
    scalar = [[Fraction(-7, 3) * (i == j) for j in range(n)] for i in range(n)]
    assert charpoly(RatMatrix(scalar)) == qpoly_power(QPolynomial([Fraction(7, 3), 1]), n)
    jordan = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    assert charpoly(RatMatrix(jordan)) == qpoly_power(X, n)
    # the companion matrix of X^n - m: ones below the diagonal, m in the corner
    companion = [[int(j == i - 1) for j in range(n)] for i in range(n)]
    companion[0][n - 1] += 10 ** 20 + 39
    assert charpoly(RatMatrix(companion)) == qpoly_power(X, n) - QPolynomial([10 ** 20 + 39])
    # u v^T has the one nonzero eigenvalue v.u
    u = [Fraction(i - 3, i + 1) for i in range(n)]
    v = [Fraction(2 * i + 1, 5) for i in range(n)]
    rank_one = [[a * b for b in v] for a in u]
    trace = sum(a * b for a, b in zip(u, v))
    assert charpoly(RatMatrix(rank_one)) == qpoly_power(X, n) - trace * qpoly_power(X, n - 1)


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        ours = charpoly(RatMatrix(m))
        theirs = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in m]).charpoly()
        coeffs = list(reversed(theirs.all_coeffs()))
        expected = QPolynomial([Fraction(int(c.p), int(c.q)) for c in [sympy.Rational(x) for x in coeffs]])
        assert ours == expected


def test_charpoly_cayley_hamilton():
    rng = random.Random(5)
    for n in range(1, 11):
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        poly = charpoly(RatMatrix(m))
        # evaluate the polynomial at the matrix
        acc = [[Fraction(0)] * n for _ in range(n)]
        power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for c in poly.coefficients:
            for i in range(n):
                for j in range(n):
                    acc[i][j] += c * power[i][j]
            power = [[sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert all(acc[i][j] == 0 for i in range(n) for j in range(n))


PACKED_PRIMES = [2, 3, 5, 7, 11, 251, 257, 65537]


def _pack_raw(lanes, values):
    # one lane of lanes.width bytes per column, little-endian, holding the
    # value itself
    return int.from_bytes(
        b"".join(v.to_bytes(lanes.width, "little") for v in values), "little"
    )


def _pack(lanes, row):
    return _pack_raw(lanes, [c % lanes.p for c in row])


def _packed_kernel(rows, p):
    # the kernel is read off the reduced echelon form fp_reduce fills
    lanes = fp_lanes(len(rows[0]), p)
    echelon = {}
    for row in rows:
        fp_reduce(echelon, _pack(lanes, row), lanes)
    return fp_kernel(echelon, lanes)


def _unpacked(echelon, lanes):
    # each pivot row as a list, checked against the lanes kept beside it
    rows = {}
    for col, (row, entries) in sorted(echelon.items()):
        assert list(entries) == list(lanes.unpack(row))
        rows[col] = list(entries)
    return rows


def test_fp_kernel():
    # x + y = 0 over F_3 has kernel spanned by (2, 1) after normalization
    basis = _packed_kernel([[1, 1]], 3)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + v[1]) % 3 == 0 and any(v)
    # identity has trivial kernel
    assert _packed_kernel([[1, 0], [0, 1]], 5) == []
    # zero map has full kernel
    assert len(_packed_kernel([[0, 0], [0, 0]], 2)) == 2
    # so has an empty echelon
    assert fp_kernel({}, fp_lanes(3, 7)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _gauss_jordan_kernel(rows, p):
    """Column-by-column Gauss-Jordan over the whole matrix at once, the
    elimination fp_kernel ran before it read the echelon fp_reduce fills."""
    ncols = len(rows[0])
    a = [[c % p for c in row] for row in rows]
    pivot_of_col = {}
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [c * inv % p for c in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[rank])]
        pivot_of_col[col] = rank
        rank += 1
    basis = []
    for fc in range(ncols):
        if fc not in pivot_of_col:
            v = [0] * ncols
            v[fc] = 1
            for col, row in pivot_of_col.items():
                v[col] = (-a[row][fc]) % p
            basis.append(tuple(v))
    return basis


def _lane_bound_rows(ncols, p, pivots):
    """Rows that drive a lane to its bound p - 1 + pivots*(p - 1)^2.

    The first rows are e_i + (p - 1)*(the free columns) for i < pivots, a
    reduced echelon form as it stands; the next is 1 at every pivot column
    and p - 1 at every free one, so each pivot row is added p - 1 times to
    it.  Rows of p - 1 entries, one more column zeroed in each, follow
    until there are ncols pivots."""
    free = [int(j >= pivots) for j in range(ncols)]
    rows = [[int(j == i) + (p - 1) * free[j] for j in range(ncols)] for i in range(pivots)]
    rows.append([1 if j < pivots else p - 1 for j in range(ncols)])
    rows.extend([p - 1] * (ncols - k) + [0] * k for k in range(ncols))
    return rows


@st.composite
def fp_matrices(draw):
    """(rows, p): random, rank-deficient (rows repeated as combinations of
    earlier ones), all-zero rows, or rows at the lane bound; entries of
    either sign."""
    p = draw(st.sampled_from(PACKED_PRIMES))
    ncols = draw(st.integers(1, 40))
    if draw(st.integers(0, 4)) == 0:
        return _lane_bound_rows(ncols, p, draw(st.integers(0, ncols - 1))), p
    entry = st.integers(-2 * p, 2 * p)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "combination", "zero"]))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.integers(0, p - 1))
            rows.append([x + c * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows, p


@settings(max_examples=300, deadline=None)
@given(fp_matrices())
def test_fp_kernel_matches_gauss_jordan(case):
    rows, p = case
    kernel = _packed_kernel(rows, p)
    assert kernel == _gauss_jordan_kernel(rows, p)
    assert kernel == reference_fp_kernel(rows, p)


@settings(max_examples=100, deadline=None)
@given(fp_matrices())
def test_fp_reduce_reports_rank_in_any_row_order(case):
    rows, p = case
    lanes = fp_lanes(len(rows[0]), p)
    packed = [_pack(lanes, row) for row in rows]
    forward, backward = {}, {}
    added = [fp_reduce(forward, row, lanes) for row in packed]
    for row in reversed(packed):
        fp_reduce(backward, row, lanes)
    # one pivot per True, and the reduced echelon form is the span's own
    assert sum(added) == len(forward)
    assert dict(sorted(forward.items())) == dict(sorted(backward.items()))
    assert fp_kernel(forward, lanes) == fp_kernel(backward, lanes)
    assert fp_kernel(forward, lanes) == reference_fp_kernel(rows, p)
    # step by step the list-based twin reports the same and holds the same form
    reference: dict[int, list[int]] = {}
    assert [reference_fp_reduce(reference, row, p) for row in rows] == added
    assert _unpacked(forward, lanes) == dict(sorted(reference.items()))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_fp_reduce_at_the_lane_bound(p):
    for ncols in (1, 2, 3, 17, 40):
        lanes = fp_lanes(ncols, p)
        for pivots in (0, ncols // 2, ncols - 1):
            echelon, reference = {}, {}
            for row in _lane_bound_rows(ncols, p, pivots):
                assert fp_reduce(echelon, _pack(lanes, row), lanes) == reference_fp_reduce(
                    reference, row, p
                )
                assert _unpacked(echelon, lanes) == dict(sorted(reference.items()))
            assert len(echelon) == ncols


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_lane_reduction_is_mod_p_up_to_the_lane_bound(p):
    for ncols in (1, 2, 17, 40):
        lanes = fp_lanes(ncols, p)
        # every lane stays below 2^w between reductions
        w = (p - 1 + (ncols + 1) * (p - 1) ** 2).bit_length()
        edge = [(1 << w) - 1 - k for k in range(ncols)]
        for values in (edge, [(1 << w) - 1] * ncols, [0, p, p - 1, 2 * p, p * p][:ncols]):
            values += [0] * (ncols - len(values))
            reduced = lanes.reduce(_pack_raw(lanes, values))
            assert list(lanes.unpack(reduced)) == [v % p for v in values]


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_columns_are_the_transposed_rows(p):
    rng = random.Random(p)
    for ncols in (1, 5, 40):
        lanes = fp_lanes(ncols, p)
        dense = [[rng.choice([0, 0, 1, -1, p - 1, rng.randrange(-3 * p, 3 * p)]) for _ in range(ncols)] for _ in range(ncols)]
        sparse = [[(j, c) for j, c in enumerate(row) if c] for row in dense]
        transposed = [list(column) for column in zip(*dense)]
        assert lanes.columns(sparse) == [_pack(lanes, column) for column in transposed]
    with pytest.raises(ValueError):
        fp_lanes(2, p).columns([[(0, 1)]])


def test_lane_layout_is_built_once_per_size_and_prime():
    assert fp_lanes(24, 3) is fp_lanes(24, 3)
    assert fp_lanes(24, 3) is not fp_lanes(24, 2)


# ---------------------------------------------------------------------------
# the radical mod p and Dedekind's criterion
# ---------------------------------------------------------------------------

# monic integer polynomials of degree 1..12, constant first; a power of a
# random factor now and then, so that repeated factors mod p are common
monic_polynomials = st.one_of(
    st.lists(st.integers(-50, 50), min_size=1, max_size=12).map(lambda c: c + [1]),
    st.tuples(
        st.lists(st.integers(-5, 5), min_size=1, max_size=3),
        st.integers(1, 4),
    ).map(lambda base: _int_power(base[0] + [1], base[1])),
)


def _int_power(f: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        product = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                product[i + j] += x * y
        out = product
    return out


def _sympy_fp(sympy, coefficients, p):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coefficients)), x, modulus=p)


@settings(max_examples=150, deadline=None)
@given(monic_polynomials, st.sampled_from((2, 3, 5, 7)))
def test_radical_is_the_product_of_sympys_factors(f, p):
    sympy = pytest.importorskip("sympy")
    product = _sympy_fp(sympy, [1], p)
    for factor, _ in _sympy_fp(sympy, f, p).factor_list()[1]:
        product *= factor.monic()
    expected = [int(c) % p for c in reversed(product.all_coeffs())]
    assert fp_radical(f, p) == expected


def _shift(f: list[int], p: int) -> list[int]:
    # f(X + 1) mod p, f constant first
    out = [0] * len(f)
    for k, c in enumerate(f):
        if c:
            for i in range(k + 1):
                out[i] += c * math.comb(k, i)
    return [c % p for c in out]


def test_radical_of_a_monomial_matches_the_general_route():
    # c*X^k returns before the strip loop; c*(X + 1)^k has the same
    # factorization shifted and goes the whole way, and the radical
    # commutes with the shift
    for p in (2, 3, 5, 7):
        for k in range(201):
            # every unit c mod p comes round as k runs
            c = 1 + k % (p - 1)
            monomial = [0] * k + [c]
            radical = fp_radical(monomial, p)
            assert radical == ([0, 1] if k else [1]), (p, k, c)
            assert fp_radical(_shift(monomial, p), p) == _shift(radical, p), (p, k, c)


def test_dedekind_criterion_on_a_monomial_residue_is_linear_time():
    # X^3072 - 6 at 3 is X^3072 mod 3: the radical is X at once, where
    # stripping one factor per division took tens of ms
    f = [-6] + [0] * 3071 + [1]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        assert dedekind_p_maximal(f, 3)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01


@settings(max_examples=150, deadline=None)
@given(monic_polynomials, st.sampled_from((2, 3, 5, 7)))
def test_dedekind_criterion_matches_sympy(f, p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import _apply_Dedekind_criterion

    x = sympy.Symbol("x")
    _, degree = _apply_Dedekind_criterion(sympy.Poly(list(reversed(f)), x), p)
    # a common factor of degree 0 means Z_(p)[x]/(f) is p-maximal
    assert dedekind_p_maximal(f, p) == (degree == 0)


# 13 square-free radicands: p | m for each p <= 7, and m^p = m mod p^2 at
# p = 2 (-19, -7, 5, 17), 3 (-26, -19, 10, 17, 26), 5 (-7, 7, -26, 26),
# 7 (-19, -30, 30), 11 (3) and 13 (-19)
CLOSED_RULE_RADICANDS = (-30, -26, -19, -7, -2, 2, 3, 5, 7, 10, 17, 26, 30)


def test_dedekind_criterion_matches_the_closed_rule_for_binomials():
    # for X^n - m with p | n, Z_(p)[alpha] is p-maximal iff p^2 does not
    # divide m^p - m; the criterion never uses that rule
    triples = 0
    for n in range(2, 65):
        for m in CLOSED_RULE_RADICANDS:
            f = [-m] + [0] * (n - 1) + [1]
            for p, _ in factorize(n):
                assert dedekind_p_maximal(f, p) == bool((m ** p - m) % (p * p)), (n, m, p)
                triples += 1
    assert triples == 1326


def test_dedekind_criterion_rejects_a_polynomial_that_is_not_monic():
    with pytest.raises(ValueError, match="monic"):
        dedekind_p_maximal([1, 2], 3)
    with pytest.raises(ValueError, match="zero polynomial"):
        fp_radical([3, 6], 3)
