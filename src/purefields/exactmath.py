"""Exact arithmetic kernel: p-adic valuations, polynomials, and matrices.

QPolynomial, on the field-generic Polynomial base (arithmetic, division
with remainder, derivative, monic, pow_mod), is the public value and
display type of a polynomial over Q.  Arithmetic over F_p works on plain
int lists, constant first, where a check costs tens of microseconds at
the benchmark's degrees: the radical mod p (fp_radical), and the division
and gcd that newton's factorisation and residual fields are built from.

Integer matrices are plain lists of rows, which Hermite normal form and
determinants take as they are; a determinant expands single-entry rows
and columns away before fraction-free elimination.  All row reduction over
F_p goes through fp_reduce, one Gauss-Jordan step into a reduced echelon
form that callers feed one row at a time, so they can stop early at full
rank; fp_kernel reads a kernel basis straight off that form.  A row over
F_p is packed into one int, a lane of whole bytes per column (FpLanes),
so a step is a few big-int operations: one multiple of each pivot row
added, then one exact multiply-and-shift that takes every lane mod p at
once.  A characteristic polynomial is taken of an f-circulant
(FCirculant), the matrix of multiplication by c(X) on Q[X]/(X^n - f),
stored as c and f: its power traces are read off the powers of c mod
X^n - f.  Rational matrices are immutable values, and det_rational clears
their denominators once and works on integers.  Every operation is exact;
no floats anywhere.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integers and valuations
# ---------------------------------------------------------------------------

def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# strong tests to the 13 primes 2..41 decide primality for every n below
# MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86 (2017))
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below MILLER_RABIN_BOUND.

    Trial division by the bases 2..41 decides every n below 43^2 and every
    n with a factor among them; the rest take strong Miller-Rabin tests to
    those bases.  An n at or above the bound with no such factor raises
    ValueError.
    """
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"primality of {n} is not decided: the test is deterministic only "
            f"below {MILLER_RABIN_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as [(p, e), ...] with p ascending.

    Trial division stops once the cofactor is a prime below
    MILLER_RABIN_BOUND (tested at the start and after each prime is
    stripped), so a large prime factor costs a few strong tests; a
    cofactor with two large primes still trial-divides.
    """
    if n < 2:
        raise ValueError("factorize expects n >= 2")
    out: list[tuple[int, int]] = []
    prime = n < MILLER_RABIN_BOUND and is_prime(n)
    for p in _trial_divisors():
        if prime or p * p > n:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
        prime = n < MILLER_RABIN_BOUND and is_prime(n)
    if n > 1:
        out.append((n, 1))
    return out


def _trial_divisors():
    yield 2
    d = 3
    while True:
        yield d
        d += 2


def vp_int(p: int, a: int) -> int:
    """The p-adic valuation of a nonzero integer: largest e with p**e | a.

    At p = 2 it is the index of the lowest set bit, one pass over a; an
    odd p strips one factor at a time.
    """
    if a == 0:
        raise ValueError("valuation of zero undefined")
    if p == 2:
        # a & -a keeps the lowest set bit, for negative a too
        return (a & -a).bit_length() - 1
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# square-free checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquareFree:
    pass


@dataclass(frozen=True)
class NotSquareFree:
    prime: int


@dataclass(frozen=True)
class Unknown:
    bound: int


SquareFreeResult = Union[SquareFree, NotSquareFree, Unknown]

SQUARE_FREE_BOUND_DEFAULT = 10_000_000


def square_free_check(m: int, bound: int = SQUARE_FREE_BOUND_DEFAULT) -> SquareFreeResult:
    """Trial-divide |m| up to bound and report square-freeness.

    Divisors are tried in increasing order, so any d that divides the
    remaining cofactor is prime (its prime factors were already stripped).
    When the bound stops the division, every prime factor of the cofactor c
    is at least d, the first divisor not tried.  Below d**3, c is then a
    prime, a product of two primes or the square of one, and an integer
    square root tells which.  Unknown means c >= d**3, large enough to hold
    three prime factors beyond the bound, so a square may hide among them.
    """
    if m in (0, 1, -1):
        raise ValueError("square-freeness undefined for 0, 1, -1")
    m = abs(m)
    d = 2
    while d <= bound and d * d <= m:
        if m % d:
            d += 1 if d == 2 else 2
            continue
        m //= d
        if m % d == 0:
            return NotSquareFree(d)
        d += 1 if d == 2 else 2
    if d * d > m:
        return SquareFree()
    if m >= d ** 3:
        return Unknown(bound)
    r = math.isqrt(m)
    return NotSquareFree(r) if r * r == m else SquareFree()


# ---------------------------------------------------------------------------
# polynomials over a field
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense univariate polynomial over a field.

    coefficients[i] is the coefficient of X**i, reduced in the field; the
    tuple carries no trailing zeros, so the zero polynomial has an empty
    tuple and degree -1.  The algorithms here use nothing of the field but
    the arithmetic operators of its elements and truth testing for zero.
    A subclass supplies the field:

    - ``_like(coefficients)`` builds a polynomial over the same field,
      reducing coefficients that sums and products have left unreduced;
    - ``_reduce(c)`` reduces one such coefficient;
    - ``_inverse(c)`` inverts a nonzero reduced coefficient;
    - ``_zero`` and ``_one`` are the field's constants;
    - ``_field`` names the field: operands whose fields differ are
      rejected as "mixed moduli".
    """

    __slots__ = ("coefficients",)

    @staticmethod
    def _trimmed(coefficients: list) -> tuple:
        """The coefficients without their trailing zeros."""
        while coefficients and not coefficients[-1]:
            coefficients.pop()
        return tuple(coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def coefficient(self, i: int):
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return self._zero

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._field == other._field and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._field, self.coefficients))

    def _check(self, other: "Polynomial") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} and {type(other).__name__}")
        if other._field != self._field:
            raise ValueError("mixed moduli")

    def __neg__(self):
        return self._like([-c for c in self.coefficients])

    def __add__(self, other):
        self._check(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product with a polynomial of the same type, or with a scalar."""
        if type(other) is not type(self):
            return self._like([c * other for c in self.coefficients])
        self._check(other)
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return self._like(())
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self._like(out)

    __rmul__ = __mul__

    def __divmod__(self, divisor):
        """Division with remainder; divisor must be nonzero."""
        self._check(divisor)
        if not divisor.coefficients:
            raise ZeroDivisionError("polynomial division by zero")
        d = divisor.coefficients
        dd = len(d) - 1
        inv = self._inverse(d[-1])
        reduce = self._reduce
        rem = list(self.coefficients)
        quo = [self._zero] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            if not rem[i]:
                continue
            q = reduce(rem[i] * inv)
            if not q:
                continue
            quo[i - dd] = q
            for j, b in enumerate(d):
                rem[i - dd + j] -= q * b
        return self._like(quo), self._like(rem[:dd])

    def __floordiv__(self, divisor):
        return divmod(self, divisor)[0]

    def __mod__(self, divisor):
        return divmod(self, divisor)[1]

    def derivative(self):
        return self._like([i * c for i, c in enumerate(self.coefficients) if i])

    def monic(self):
        if not self.coefficients:
            return self
        return self * self._inverse(self.coefficients[-1])

    def pow_mod(self, e: int, modulus):
        """self**e mod modulus by repeated squaring."""
        self._check(modulus)
        result = self._like((self._one,))
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------

class QPolynomial(Polynomial):
    """Dense univariate polynomial with rational coefficients."""

    __slots__ = ()
    _field = "Q"
    _zero = Fraction(0)
    _one = Fraction(1)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        # arithmetic hands back Fractions already; converting one again
        # would cost about as much as the operation that made it
        self.coefficients: tuple[Fraction, ...] = self._trimmed(
            [c if type(c) is Fraction else Fraction(c) for c in coefficients]
        )

    def _like(self, coefficients) -> "QPolynomial":
        return QPolynomial(coefficients)

    @staticmethod
    def _reduce(c: Fraction) -> Fraction:
        # Fraction arithmetic already returns lowest terms
        return c

    @staticmethod
    def _inverse(c: Fraction) -> Fraction:
        return 1 / c

    @classmethod
    def x_power(cls, j: int, scale: Scalar = 1) -> "QPolynomial":
        """scale * X**j."""
        if j < 0:
            raise ValueError("negative exponent")
        return cls((0,) * j + (scale,))

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __truediv__(self, scalar: Scalar) -> "QPolynomial":
        if not isinstance(scalar, (int, Fraction)) or scalar == 0:
            raise ValueError("can only divide by a nonzero scalar")
        return QPolynomial(tuple(c / scalar for c in self.coefficients))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients)

    def integer_coefficients(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError("polynomial has non-integer coefficients")
        return tuple(int(c) for c in self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c) if c > 0 else f"-{-c}"
            else:
                x = "X" if i == 1 else f"X^{i}"
                if c == 1:
                    term = x
                elif c == -1:
                    term = f"-{x}"
                else:
                    term = f"{c}{x}" if c > 0 else f"-{-c}{x}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coefficients)!r})"


# ---------------------------------------------------------------------------
# the radical mod p and Dedekind's criterion, on int lists
# ---------------------------------------------------------------------------
#
# A polynomial here is a list of ints, constant first, with no trailing
# zeros; over F_p its entries lie in [0, p).  The loops skip zero terms, so
# on X^n - m a division or a product costs n times the divisor's terms.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_monic(a: list[int], p: int) -> list[int]:
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    # b nonzero; rem is reduced only where a quotient digit is read
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    inverse = pow(b[-1], -1, p)
    d = len(b) - 1
    rem = list(a)
    quo = [0] * max(len(a) - d, 0)
    for i in range(len(a) - 1, d - 1, -1):
        q = rem[i] * inverse % p
        if q:
            quo[i - d] = q
            for j, c in terms:
                rem[i - d + j] -= q * c
    return quo, _trim([c % p for c in rem[:d]])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    # monic; [] when both are zero
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p) if a else a


def _int_product(a: list[int], b: list[int]) -> list[int]:
    terms = [(j, c) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, c in terms:
                out[i + j] += x * c
    return out


def fp_radical(coefficients: Sequence[int], p: int) -> list[int]:
    """Monic product of the distinct irreducible factors of f over F_p, f
    given by its integer coefficients, constant first, not all divisible
    by p.

    Write f = prod a_i^i and g = gcd(f, f').  Then w = f/g is the product
    of the a_i with p not dividing i, and stripping w's factors from g
    leaves a p-th power h(X^p) = h(X)^p, whose radical is h's, so the loop
    goes on with h.  A zero derivative means f is such a power already,
    and g = 1 that f is square-free.  A monomial c*X^k, as X^n - m is where
    p | m, has radical X (1 at k = 0) and skips the loop.
    """
    f = _trim([c % p for c in coefficients])
    if not f:
        raise ValueError("the radical of the zero polynomial is undefined")
    if not any(f[:-1]):
        return [0, 1] if len(f) > 1 else [1]
    f = _fp_monic(f, p)
    radical = [1]
    while len(f) > 1:
        # f' = 0 iff every nonzero term sits at a multiple of p
        if sum(map(bool, f)) != sum(map(bool, f[::p])):
            g = _fp_gcd(f, _trim([i * c % p for i, c in enumerate(f)][1:]), p)
            if len(g) == 1:
                # f is square-free
                return [c % p for c in _int_product(radical, f)]
            w = _fp_divmod(f, g, p)[0]
            radical = [c % p for c in _int_product(radical, w)]
            # c, square-free, holds the factors of w still in g: divide
            # while it divides, then drop those that have run out
            c = _fp_gcd(g, w, p)
            while len(c) > 1:
                quotient, remainder = _fp_divmod(g, c, p)
                if remainder:
                    c = _fp_gcd(g, c, p)
                else:
                    g = quotient
            f = g
        # over F_p, h(X^p) = h(X)^p
        f = f[::p]
    return radical


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class RatMatrix:
    """Immutable rectangular matrix with rational entries.

    An int entry stays an int, since it has numerator and denominator
    like a Fraction and compares equal to one; only other entries are
    wrapped in Fraction.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if not self.cols or any(len(row) != self.cols for row in entries):
            raise ValueError("matrix must be rectangular and non-empty")
        self.entries: tuple[tuple[Scalar, ...], ...] = tuple(
            tuple(c if type(c) is int else Fraction(c) for c in row) for row in entries
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"RatMatrix({[list(r) for r in self.entries]!r})"


def _cleared(M: RatMatrix) -> tuple[list[list[int]], int]:
    """(N, L): L the lcm of the entry denominators and N = L*M on ints."""
    scale = math.lcm(*{c.denominator for row in M.entries for c in row})
    return [[c.numerator * (scale // c.denominator) for c in row] for row in M.entries], scale


def hnf_rows(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Hermite normal form of the lattice spanned by the given rows.

    The rows must span a full-rank lattice in Z^ncols.  Output is ncols rows
    forming a lower-triangular matrix with positive diagonal and the entries
    below each diagonal reduced into [0, diagonal).  Unimodular row
    operations only, so the row span is preserved exactly.
    """
    work = [list(r) for r in rows if any(r)]
    fixed: list[list[int] | None] = [None] * ncols
    for col in range(ncols - 1, -1, -1):
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not live:
            raise ValueError("rows do not span a full-rank lattice")
        pivot = live.pop()
        while live:
            other = live.pop()
            a, b = pivot[col], other[col]
            g, s, t = ext_gcd(a, b)
            new_pivot = [s * x + t * y for x, y in zip(pivot, other)]
            new_other = [(a // g) * y - (b // g) * x for x, y in zip(pivot, other)]
            pivot = new_pivot
            if any(new_other):
                rest.append(new_other)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        fixed[col] = pivot
        work = rest
    result = [row for row in fixed if row is not None]
    # reduce entries below the diagonal into [0, diagonal)
    for i in range(ncols):
        for j in range(i - 1, -1, -1):
            q = result[i][j] // result[j][j]
            if q:
                result[i] = [x - q * y for x, y in zip(result[i], result[j])]
    return result


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, exact on its nonzero structure.

    Each live row or column with one nonzero entry is Laplace-expanded away,
    signed by the positions of its row and column among the live ones, and
    an empty one gives 0 at once; fraction-free elimination runs only on the
    core that is left, so a monomial matrix costs O(n^2).
    """
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("determinant of an empty or non-square matrix")
    # support[0][i] holds the live columns of row i's nonzeros, support[1][j]
    # the live rows of column j's; a peeled line's set is emptied
    support = ([set(compress(range(n), row)) for row in rows], [set() for _ in range(n)])
    for i, js in enumerate(support[0]):
        for j in js:
            support[1][j].add(i)
    if not all(map(all, support)):
        return 0
    live = (list(range(n)), list(range(n)))
    product, parity = 1, 0
    stack = [(axis, k) for axis in (0, 1) for k in range(n) if len(support[axis][k]) == 1]
    while stack:
        axis, k = stack.pop()
        if len(support[axis][k]) != 1:
            continue
        (other,) = support[axis][k]
        i, j = (k, other) if axis == 0 else (other, k)
        product *= rows[i][j]
        # drop row i and column j; each leaves the lines that cross it
        for side, index, partner in ((0, i, j), (1, j, i)):
            r = bisect_left(live[side], index)
            parity ^= r & 1
            del live[side][r]
            line = support[side][index]
            line.discard(partner)
            for cross in line:
                left = support[1 - side][cross]
                left.discard(index)
                if not left:
                    return 0
                if len(left) == 1:
                    stack.append((1 - side, cross))
            line.clear()
    if live[0]:
        product *= _bareiss([[rows[i][j] for j in live[1]] for i in live[0]])
    return -product if parity else product


def _bareiss(a: list[list[int]]) -> int:
    # fraction-free elimination, in place; every division is exact
    n = len(a)
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


def det_rational(M: RatMatrix) -> Fraction:
    """Exact determinant of a square rational matrix."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    N, scale = _cleared(M)
    return Fraction(det_int(N), scale ** M.rows)


class FCirculant:
    """The n x n f-circulant with integer first row c and twist f.

    Row j is c shifted right by j, the j entries pushed past the end
    wrapped round to the front and multiplied by f: the matrix of
    multiplication by c(X) on Q[X]/(X^n - f), row j the coordinates of
    c(X)*X^j in 1, X, ..., X^(n-1) (P. J. Davis, Circulant Matrices,
    1979).  Only c and f are stored, and entries builds the rows when it
    is read.
    """

    __slots__ = ("first_row", "twist", "rows", "cols")

    def __init__(self, first_row: Sequence[int], twist: int):
        if not first_row:
            raise ValueError("an f-circulant has at least one row")
        self.first_row: tuple[int, ...] = tuple(first_row)
        self.twist = twist
        self.rows = self.cols = len(self.first_row)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        c, f, n = self.first_row, self.twist, self.rows
        return tuple(tuple(f * x for x in c[n - j:]) + c[:n - j] for j in range(n))

    def __repr__(self) -> str:
        return f"FCirculant({list(self.first_row)!r}, {self.twist!r})"


def charpoly(M: FCirculant) -> QPolynomial:
    """Monic characteristic polynomial det(X*I - M) of an f-circulant,
    computed exactly.

    f-circulants multiply like polynomials mod X^n - f, and X^i has trace
    0 on Q[X]/(X^n - f) for 0 < i < n, so the power traces are
    p_k = tr(M^k) = n * [c^k mod (X^n - f)]_0, k = 1..n: each power is
    one polynomial product by c and a fold of its top coefficients,
    X^(n+i) = f*X^i.  Newton's identities,
    k*a_k = -(a_(k-1) p_1 + ... + a_0 p_k) with a_0 = 1, give the
    coefficient a_k of X^(n-k), the division by k being exact over Z.
    """
    n, f = M.rows, M.twist
    # c without its trailing zeros: each product has len(c) - 1 top
    # coefficients to fold
    c = _trim(list(M.first_row)) or [0]
    traces = [0] * (n + 1)
    power = list(M.first_row)
    for k in range(1, n + 1):
        traces[k] = n * power[0]
        if k < n:
            product = _int_product(power, c)
            for i, top in enumerate(product[n:]):
                product[i] += f * top
            power = product[:n]
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        total = sum(map(mul, coeffs[k - 1::-1], traces[1:k + 1]))
        a, r = divmod(-total, k)
        if r:
            raise ArithmeticError("inexact division in Newton's identities")
        coeffs[k] = a
    return QPolynomial(coeffs[::-1])


class FpLanes:
    """Rows over F_p of a fixed number of columns, each packed into one int.

    Column j is the lane of width bytes at byte j * width; rows go in and
    out through bytes.  A lane holds a residue in [0, p) between steps and
    stays below 2^w inside one, w the bit length of p - 1 + (n + 1)(p - 1)^2
    for n columns: enough for a residue plus one multiple (p - c) * pivot,
    c < p, per column.  reduce takes every lane mod p at once by the exact
    multiply-and-shift q = floor(x * M / 2^s), with s = w + bitlen(p) and
    M = ceil(2^s / p): q = x div p for every x < 2^w, and a lane of at least
    s + w + 1 bits holds x * M, so no lane carries into the next.  For
    p >= 256 the width is a multiple of eight bytes, so that the residues
    unpack as 64-bit words; p must then be below 2^64.
    """

    __slots__ = ("p", "ncols", "width", "size", "_magic", "_shift", "_quotients")

    def __init__(self, ncols: int, p: int):
        if p >= 1 << 64:
            raise ValueError(f"p must be below 2^64, got {p}")
        w = (p - 1 + (ncols + 1) * (p - 1) ** 2).bit_length()
        self.p, self.ncols = p, ncols
        self._shift = w + p.bit_length()
        self._magic = -(-(1 << self._shift) // p)
        self.width = -(-(self._shift + w + 1) // 8)
        if p >= 256:
            self.width = -(-self.width // 8) * 8
        self.size = ncols * self.width
        # 2^w - 1 in every lane: the bits of each lane's quotient
        one = (1).to_bytes(self.width, "little")
        self._quotients = ((1 << w) - 1) * int.from_bytes(one * ncols, "little")

    def reduce(self, x: int) -> int:
        """Every lane of x mod p, each lane below 2^w."""
        return x - ((x * self._magic >> self._shift) & self._quotients) * self.p

    def unpack(self, row: int) -> Sequence[int]:
        """The lanes of a row whose lanes are residues."""
        data = row.to_bytes(self.size, "little")
        if self.p < 256:
            # the low byte of each lane
            return data[::self.width]
        # the low 64-bit word of each lane
        words = array("Q", data)
        if sys.byteorder == "big":
            words.byteswap()
        return words[::self.width // 8]

    def columns(self, rows: Iterable[Iterable[tuple[int, int]]]) -> list[int]:
        """The packed columns of the square matrix whose row i has the
        nonzero entries (j, c): column j holds c mod p in lane i."""
        p = self.p
        nbytes = -(-(p - 1).bit_length() // 8)
        out = [bytearray(self.size) for _ in range(self.ncols)]
        # row i goes into lane i, at byte i * width of every column
        for at, row in zip(range(0, self.size, self.width), rows, strict=True):
            for j, c in row:
                out[j][at:at + nbytes] = (c % p).to_bytes(nbytes, "little")
        return [int.from_bytes(column, "little") for column in out]


@functools.lru_cache(maxsize=256)
def fp_lanes(ncols: int, p: int) -> FpLanes:
    """The lane layout of rows of ncols columns over F_p, built once."""
    return FpLanes(ncols, p)


def fp_reduce(
    echelon: dict[int, tuple[int, Sequence[int]]], row: int, lanes: FpLanes
) -> bool:
    """One Gauss-Jordan step over F_p: add a packed row to a reduced
    echelon form.

    echelon maps each pivot column to its packed row, whose lane there is
    1 and whose lanes in every other pivot column are 0, together with
    that row's lanes unpacked, so that one lane of every row is read in
    O(1).  row has residues in its lanes.  Since the form is reduced, the
    multiple of each pivot row to take away is the row's own lane c at
    that column, so the row gets (p - c) * pivot for every pivot and then
    one reduction of all lanes.  If anything is left, it becomes the pivot
    row of its first nonzero column, is cleared from the other rows, and
    True is returned.  Rows fed in any order give the same reduced echelon
    form of their span.
    """
    p = lanes.p
    entries = lanes.unpack(row)
    reduced = True
    for col, (pivot, _) in echelon.items():
        c = entries[col]
        if c:
            row += (p - c) * pivot
            reduced = False
    if not reduced:
        row = lanes.reduce(row)
        entries = lanes.unpack(row)
    if not row:
        return False
    lead = next(compress(range(lanes.ncols), entries))
    c = entries[lead]
    if c != 1:
        row = lanes.reduce(row * pow(c, -1, p))
        entries = lanes.unpack(row)
    for col, (other, other_entries) in echelon.items():
        c = other_entries[lead]
        if c:
            other = lanes.reduce(other + (p - c) * row)
            echelon[col] = other, lanes.unpack(other)
    echelon[lead] = row, entries
    return True


def fp_kernel(
    echelon: dict[int, tuple[int, Sequence[int]]], lanes: FpLanes
) -> list[tuple[int, ...]]:
    """Basis of the right kernel over F_p of the rows held in a reduced
    echelon form that fp_reduce filled, one vector per free column, read
    straight off the pivot rows' lanes."""
    ncols, p = lanes.ncols, lanes.p
    basis: list[tuple[int, ...]] = []
    for free in range(ncols):
        if free not in echelon:
            v = [0] * ncols
            v[free] = 1
            for col, (_, entries) in echelon.items():
                v[col] = -entries[free] % p
            basis.append(tuple(v))
    return basis
