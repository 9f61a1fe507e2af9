"""Exact arithmetic kernel: p-adic valuations, dense rational polynomials,
polynomials over prime fields, and matrices.

Integer matrices are plain lists of rows, which Hermite normal form and
fraction-free determinants take as they are.  All row reduction over
F_p goes through fp_reduce, one Gauss-Jordan step into a reduced echelon
form; fp_kernel is built on it, and callers that can stop early (at full
rank) feed it rows one at a time.  Rational matrices, kept for exact
characteristic polynomials, are immutable values.  Every operation is
exact; no floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as [(p, e), ...] with p ascending."""
    if n < 2:
        raise ValueError("factorize expects n >= 2")
    out: list[tuple[int, int]] = []
    for p in _trial_divisors():
        if p * p > n:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
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
    """The p-adic valuation of a nonzero integer: largest e with p**e | a."""
    if a == 0:
        raise ValueError("valuation of zero undefined")
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e


def vp_rational(p: int, a: Scalar) -> int:
    """p-adic valuation extended to nonzero rationals: v(n/d) = v(n) - v(d)."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("valuation of zero undefined")
    return vp_int(p, a.numerator) - vp_int(p, a.denominator)


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
    Unknown means the bound was hit while the unfactored cofactor is large
    enough (> bound**2) to hide a square.
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
    return Unknown(bound)


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------

class QPolynomial:
    """Dense univariate polynomial with rational coefficients.

    coefficients[i] is the coefficient of X**i.  The tuple carries no
    trailing zeros, so the zero polynomial has an empty coefficient tuple
    and degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[Fraction, ...] = tuple(coeffs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def x_power(cls, j: int, scale: Scalar = 1) -> "QPolynomial":
        """scale * X**j."""
        if j < 0:
            raise ValueError("negative exponent")
        return cls((0,) * j + (scale,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return Fraction(0)

    def leading_coefficient(self) -> Fraction:
        if not self.coefficients:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(("QPolynomial", self.coefficients))

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coefficients))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["QPolynomial", Scalar]) -> "QPolynomial":
        if isinstance(other, QPolynomial):
            if not self.coefficients or not other.coefficients:
                return QPolynomial()
            out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if a == 0:
                    continue
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
            return QPolynomial(out)
        if isinstance(other, (int, Fraction)):
            return QPolynomial(tuple(c * other for c in self.coefficients))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "QPolynomial":
        if not isinstance(scalar, (int, Fraction)) or scalar == 0:
            raise ValueError("can only divide by a nonzero scalar")
        return QPolynomial(tuple(c / scalar for c in self.coefficients))

    def __pow__(self, e: int) -> "QPolynomial":
        if e < 0:
            raise ValueError("negative power")
        result = QPolynomial.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, divisor: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        """Exact division with remainder; divisor must be nonzero."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.leading_coefficient()
        dd = divisor.degree
        rem = list(self.coefficients)
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quo[i - dd] = q
            for j, b in enumerate(divisor.coefficients):
                rem[i - dd + j] -= q * b
        return QPolynomial(quo), QPolynomial(rem[:dd])

    def __floordiv__(self, divisor: "QPolynomial") -> "QPolynomial":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "QPolynomial") -> "QPolynomial":
        return divmod(self, divisor)[1]

    def evaluate(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "QPolynomial":
        return QPolynomial(tuple(i * c for i, c in enumerate(self.coefficients) if i))

    def times_x_power(self, j: int) -> "QPolynomial":
        if j < 0:
            raise ValueError("negative shift")
        return QPolynomial((Fraction(0),) * j + self.coefficients)

    def denominator(self) -> int:
        """Least positive c such that c * self has integer coefficients."""
        out = 1
        for c in self.coefficients:
            out = math.lcm(out, c.denominator)
        return out

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients)

    def integer_coefficients(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError("polynomial has non-integer coefficients")
        return tuple(int(c) for c in self.coefficients)

    def content(self) -> int:
        """gcd of the coefficients of an integer polynomial (0 for zero)."""
        g = 0
        for c in self.integer_coefficients():
            g = math.gcd(g, c)
        return g

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


def vp_poly(p: int, f: QPolynomial) -> int:
    """Valuation of a polynomial: min over nonzero coefficients of vp."""
    if f.is_zero():
        raise ValueError("valuation of zero polynomial undefined")
    return min(vp_rational(p, c) for c in f.coefficients if c != 0)


# ---------------------------------------------------------------------------
# polynomials over F_p
# ---------------------------------------------------------------------------

class FpPolynomial:
    """Dense univariate polynomial over the prime field F_p.

    All coefficients are reduced into [0, p); the leading one is nonzero
    and the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("p", "coefficients")

    def __init__(self, p: int, coefficients: Iterable[int] = ()):
        coeffs = [c % p for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.p = p
        self.coefficients: tuple[int, ...] = tuple(coeffs)

    @classmethod
    def from_qpoly(cls, p: int, f: QPolynomial) -> "FpPolynomial":
        """Reduce f mod p; coefficient denominators must be prime to p."""
        out = []
        for c in f.coefficients:
            if c.denominator % p == 0:
                raise ValueError("denominator not invertible mod p")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        return cls(p, out)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0

    def leading_coefficient(self) -> int:
        if not self.coefficients:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpPolynomial):
            return NotImplemented
        return self.p == other.p and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(("FpPolynomial", self.p, self.coefficients))

    def _check(self, other: "FpPolynomial") -> None:
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "FpPolynomial") -> "FpPolynomial":
        self._check(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return FpPolynomial(self.p, out)

    def __neg__(self) -> "FpPolynomial":
        return FpPolynomial(self.p, tuple(-c for c in self.coefficients))

    def __sub__(self, other: "FpPolynomial") -> "FpPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["FpPolynomial", int]) -> "FpPolynomial":
        if isinstance(other, int):
            return FpPolynomial(self.p, tuple(c * other for c in self.coefficients))
        self._check(other)
        if not self.coefficients or not other.coefficients:
            return FpPolynomial(self.p)
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] = (out[i + j] + a * b) % self.p
        return FpPolynomial(self.p, out)

    __rmul__ = __mul__

    def __divmod__(self, divisor: "FpPolynomial") -> tuple["FpPolynomial", "FpPolynomial"]:
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        inv = pow(divisor.leading_coefficient(), -1, p)
        dd = divisor.degree
        rem = list(self.coefficients)
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            q = c * inv % p
            quo[i - dd] = q
            for j, b in enumerate(divisor.coefficients):
                rem[i - dd + j] = (rem[i - dd + j] - q * b) % p
        return FpPolynomial(p, quo), FpPolynomial(p, rem[:dd])

    def __floordiv__(self, divisor: "FpPolynomial") -> "FpPolynomial":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "FpPolynomial") -> "FpPolynomial":
        return divmod(self, divisor)[1]

    def monic(self) -> "FpPolynomial":
        if self.is_zero():
            return self
        inv = pow(self.leading_coefficient(), -1, self.p)
        return self * inv

    def derivative(self) -> "FpPolynomial":
        return FpPolynomial(self.p, tuple(i * c for i, c in enumerate(self.coefficients) if i))

    def pow_mod(self, e: int, modulus: "FpPolynomial") -> "FpPolynomial":
        """self**e mod modulus by repeated squaring."""
        self._check(modulus)
        result = FpPolynomial(self.p, (1,))
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result

    def lift(self) -> QPolynomial:
        """Monic-compatible lift with coefficients in [0, p)."""
        return QPolynomial(self.coefficients)

    def __str__(self) -> str:
        return f"{self.lift()} (mod {self.p})"

    def __repr__(self) -> str:
        return f"FpPolynomial({self.p}, {list(self.coefficients)!r})"


def fp_gcd(a: FpPolynomial, b: FpPolynomial) -> FpPolynomial:
    """Monic gcd over F_p."""
    if a.p != b.p:
        raise ValueError("mixed moduli")
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def fp_ext_gcd(a: FpPolynomial, b: FpPolynomial) -> tuple[FpPolynomial, FpPolynomial, FpPolynomial]:
    """Extended Euclid over F_p: returns monic (g, s, t) with s*a + t*b = g."""
    if a.p != b.p:
        raise ValueError("mixed moduli")
    p = a.p
    one = FpPolynomial(p, (1,))
    zero = FpPolynomial(p)
    old_r, r = a, b
    old_s, s = one, zero
    old_t, t = zero, one
    while not r.is_zero():
        q, rem = divmod(old_r, r)
        old_r, r = r, rem
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r.is_zero():
        raise ValueError("gcd of two zero polynomials undefined")
    inv = pow(old_r.leading_coefficient(), -1, p)
    return old_r * inv, old_s * inv, old_t * inv


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class RatMatrix:
    """Immutable rectangular matrix with rational entries."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if not self.cols or any(len(row) != self.cols for row in entries):
            raise ValueError("matrix must be rectangular and non-empty")
        self.entries: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(c) for c in row) for row in entries
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"RatMatrix({[list(r) for r in self.entries]!r})"


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
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("determinant of an empty or non-square matrix")
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


def det_rational(M: RatMatrix) -> Fraction:
    """Exact determinant of a square rational matrix."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    for row in M.entries:
        for c in row:
            scale = math.lcm(scale, c.denominator)
    scaled = [[int(c * scale) for c in row] for row in M.entries]
    return Fraction(det_int(scaled), scale ** M.rows)


def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(m):
                oi[j] += c * bk[j]
    return out


def charpoly(M: RatMatrix) -> QPolynomial:
    """Monic characteristic polynomial det(X*I - M), computed exactly.

    The matrix is cleared to integers by a common denominator L and the
    coefficients are recovered by the Faddeev-LeVerrier recurrence, whose
    trace divisions are exact over Z; the answer is rescaled by powers of L.
    """
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.rows
    scale = 1
    for row in M.entries:
        for c in row:
            scale = math.lcm(scale, c.denominator)
    N = [[int(c * scale) for c in row] for row in M.entries]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    Mk = [row[:] for row in N]
    coeffs[n - 1] = -sum(Mk[i][i] for i in range(n))
    for k in range(2, n + 1):
        for i in range(n):
            Mk[i][i] += coeffs[n - k + 1]
        Mk = _int_mat_mul(N, Mk)
        tr = sum(Mk[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("inexact trace division in characteristic polynomial")
        coeffs[n - k] = -(tr // k)
    return QPolynomial([Fraction(coeffs[i], scale ** (n - i)) for i in range(n + 1)])


def fp_reduce(echelon: dict[int, list[int]], row: Sequence[int], p: int) -> bool:
    """One Gauss-Jordan step over F_p: add row to a reduced echelon form.

    echelon maps each pivot column to its row, whose entry there is 1 and
    whose entries in every other pivot column are 0.  The row is reduced
    against it; if anything is left, it becomes the pivot row of its first
    nonzero column, is cleared from the other rows, and True is returned.
    Rows fed in any order give the same reduced echelon form of their span.
    """
    row = [x % p for x in row]
    for col, pivot in echelon.items():
        c = row[col]
        if c:
            row = [(a - c * b) % p for a, b in zip(row, pivot)]
    lead = next((col for col, x in enumerate(row) if x), None)
    if lead is None:
        return False
    inv = pow(row[lead], -1, p)
    row = [x * inv % p for x in row]
    for col, other in echelon.items():
        c = other[lead]
        if c:
            echelon[col] = [(a - c * b) % p for a, b in zip(other, row)]
    echelon[lead] = row
    return True


def fp_kernel(rows: Sequence[Sequence[int]], p: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel {x : M x = 0 over F_p} of the given matrix,
    one vector per free column of the reduced echelon form."""
    if not rows:
        raise ValueError("empty matrix")
    ncols = len(rows[0])
    echelon: dict[int, list[int]] = {}
    for row in rows:
        fp_reduce(echelon, row, p)
    basis: list[tuple[int, ...]] = []
    for free in range(ncols):
        if free not in echelon:
            v = [0] * ncols
            v[free] = 1
            for col, row in echelon.items():
                v[col] = -row[free] % p
            basis.append(tuple(v))
    return basis
