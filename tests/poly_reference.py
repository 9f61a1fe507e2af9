"""Class-based polynomial arithmetic over F_p and F_p[x]/(phi), for tests only.

The library's F_p arithmetic works on int lists, constant first.  This is
the route it replaced, kept to cross-check it: FpPolynomial and
FpExtPolynomial supply F_p and F_p[x]/(phi_bar) to exactmath.Polynomial's
field-generic algorithms, poly_gcd and poly_ext_gcd are Euclid on any of
them (QPolynomial included), and distinct_irreducible_factors is the
distinct-degree and equal-degree factorization on FpPolynomial.
dedekind_p_maximal is Dedekind's criterion on any monic integer
polynomial, which the certifier's one congruence on X^(p^k) - m is
checked against.  phi_development_by_division is the phi-adic development
by repeated synthetic division for phi of any degree, which the library's
Taylor shift along a linear phi is checked against.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from purefields.exactmath import (
    Polynomial,
    QPolynomial,
    _fp_divmod,
    _fp_gcd,
    _int_product,
    _trim,
    fp_radical,
    vp_int,
)
from purefields.newton import PhiDevelopment


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials over the same field."""
    a._check(b)
    if not a and not b:
        raise ValueError("gcd of two zero polynomials undefined")
    while b:
        a, b = b, a % b
    return a.monic()


def poly_ext_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid: returns monic (g, s, t) with s*a + t*b = g."""
    a._check(b)
    one = a._like((a._one,))
    zero = a._like(())
    old_r, r = a, b
    old_s, s = one, zero
    old_t, t = zero, one
    while r:
        q, rem = divmod(old_r, r)
        old_r, r = r, rem
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if not old_r:
        raise ValueError("gcd of two zero polynomials undefined")
    inv = a._inverse(old_r.coefficients[-1])
    return old_r * inv, old_s * inv, old_t * inv


class FpPolynomial(Polynomial):
    """Dense univariate polynomial over the prime field F_p, with every
    coefficient reduced into [0, p)."""

    __slots__ = ("p",)
    _zero = 0
    _one = 1

    def __init__(self, p: int, coefficients: Iterable[int] = ()):
        self.p = p
        self.coefficients: tuple[int, ...] = self._trimmed([c % p for c in coefficients])

    @property
    def _field(self) -> int:
        return self.p

    def _like(self, coefficients) -> "FpPolynomial":
        return FpPolynomial(self.p, coefficients)

    def _reduce(self, c: int) -> int:
        return c % self.p

    def _inverse(self, c: int) -> int:
        return pow(c, -1, self.p)

    def lift(self) -> QPolynomial:
        """Monic-compatible lift with coefficients in [0, p)."""
        return QPolynomial(self.coefficients)

    def __str__(self) -> str:
        return f"{self.lift()} (mod {self.p})"

    def __repr__(self) -> str:
        return f"FpPolynomial({self.p}, {list(self.coefficients)!r})"


class FpExtPolynomial(Polynomial):
    """Polynomial in Y whose coefficients live in the field F_p[x]/(phi_bar)."""

    __slots__ = ("p", "phi_bar")

    def __init__(self, p: int, phi_bar: FpPolynomial, coefficients: Sequence[FpPolynomial]):
        self.p = p
        self.phi_bar = phi_bar
        self.coefficients: tuple[FpPolynomial, ...] = self._trimmed(
            [self._reduce(c) for c in coefficients]
        )

    @property
    def _field(self) -> FpPolynomial:
        return self.phi_bar

    @property
    def _zero(self) -> FpPolynomial:
        return FpPolynomial(self.p)

    @property
    def _one(self) -> FpPolynomial:
        return FpPolynomial(self.p, (1,))

    def _like(self, coefficients) -> "FpExtPolynomial":
        return FpExtPolynomial(self.p, self.phi_bar, coefficients)

    def _reduce(self, c: FpPolynomial) -> FpPolynomial:
        return c if c.degree < self.phi_bar.degree else c % self.phi_bar

    def _inverse(self, c: FpPolynomial) -> FpPolynomial:
        if c.degree == 0:
            # a nonzero constant is a unit of F_p, whatever phi_bar is
            return FpPolynomial(self.p, (pow(c.coefficients[0], -1, self.p),))
        g, s, _ = poly_ext_gcd(c, self.phi_bar)
        if g.degree != 0:
            raise ValueError("coefficient not invertible; phi_bar must be irreducible")
        return s % self.phi_bar

    def is_separable(self) -> bool:
        """True iff the polynomial has no repeated roots over the residue field."""
        deriv = self.derivative()
        if deriv.is_zero():
            return self.degree == 0
        return poly_gcd(self, deriv).degree == 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c.is_zero():
                continue
            if c.degree == 0:
                cstr = "" if (c.coefficients[0] == 1 and i > 0) else str(c.coefficients[0])
            else:
                cstr = "(" + str(c.lift()).lower() + ")"
            if i == 0:
                term = cstr if cstr else "1"
            elif i == 1:
                term = f"{cstr}Y"
            else:
                term = f"{cstr}Y^{i}"
            parts.append(term)
        return "+".join(parts)

    def __repr__(self) -> str:
        return (
            f"FpExtPolynomial(p={self.p!r}, phi_bar={self.phi_bar!r}, "
            f"coefficients={self.coefficients!r})"
        )


def _distinct_degree(f: FpPolynomial) -> list[tuple[int, FpPolynomial]]:
    # f monic squarefree; returns (d, product of all irreducible factors of degree d)
    p = f.p
    out: list[tuple[int, FpPolynomial]] = []
    x = FpPolynomial(p, (0, 1))
    h = x
    rest = f
    d = 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest.degree, rest))
            break
        h = h.pow_mod(p, rest)
        g = poly_gcd(h - x, rest) if not (h - x).is_zero() else rest
        if g.degree > 0:
            out.append((d, g))
            rest = (rest // g).monic()
            h = h % rest
    return out


def _equal_degree(f: FpPolynomial, d: int, rng: random.Random) -> list[FpPolynomial]:
    # f monic squarefree, all irreducible factors of degree d
    p = f.p
    if f.degree == d:
        return [f]
    n = f.degree
    while True:
        a = FpPolynomial(p, [rng.randrange(p) for _ in range(n)])
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            split = g
        else:
            if p == 2:
                t = a
                acc = a
                for _ in range(d - 1):
                    t = t.pow_mod(2, f)
                    acc = (acc + t) % f
                b = acc
            else:
                b = a.pow_mod((p ** d - 1) // 2, f) - FpPolynomial(p, (1,))
            if b.is_zero():
                continue
            split = poly_gcd(b, f)
            if not 0 < split.degree < n:
                continue
        return _equal_degree(split, d, rng) + _equal_degree((f // split).monic(), d, rng)


def distinct_irreducible_factors(f: FpPolynomial) -> list[FpPolynomial]:
    """Distinct monic irreducible factors of f over F_p, sorted by
    (degree, coefficient tuple)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rad = FpPolynomial(f.p, fp_radical(f.coefficients, f.p))
    rng = random.Random(0)
    factors: list[FpPolynomial] = []
    for d, prod in _distinct_degree(rad):
        factors.extend(_equal_degree(prod, d, rng))
    factors.sort(key=lambda g: (g.degree, g.coefficients))
    return factors


def dedekind_p_maximal(coefficients: Sequence[int], p: int) -> bool:
    """Whether Z_(p)[alpha] is p-maximal, alpha a root of the monic integer
    polynomial f given by its coefficients, constant first: Dedekind's
    criterion (Cohen, A Course in Computational Algebraic Number Theory,
    Theorem 6.1.4).

    With g the radical of f mod p and h = (f mod p)/g, both lifted to
    [0, p), F = (g*h - f)/p has integer coefficients, and the order is
    p-maximal exactly when F, g and h have no common factor mod p.
    """
    f = list(coefficients)
    if not f or f[-1] != 1:
        raise ValueError("Dedekind's criterion expects a monic polynomial")
    g = fp_radical(f, p)
    h = _fp_divmod(_trim([c % p for c in f]), g, p)[0]
    lifted = _int_product(g, h)
    # g*h = f mod p, so each difference is divisible by p
    F = _trim([(x - y) // p % p for x, y in zip(lifted, f)])
    common = _fp_gcd(F, g, p)
    return len(common) == 1 or len(_fp_gcd(h, common, p)) == 1


def phi_development_by_division(f: Sequence[int], phi: Sequence[int], p: int) -> PhiDevelopment:
    """newton.phi_development by repeated division with remainder for every
    phi, monic: each division is synthetic, the quotient digits being the
    leading remainder coefficients, left in place, so after a pass
    rem[:deg phi] is the next digit and rem[deg phi:] the quotient."""
    f, phi = tuple(_trim(list(f))), tuple(_trim(list(phi)))
    if len(phi) < 2 or phi[-1] != 1:
        raise ValueError("phi must be monic of degree >= 1")
    d = len(phi) - 1
    terms = [(j - d, b) for j, b in enumerate(phi[:d]) if b]
    # one division is the steps (i, k, b), rem[k] -= rem[i] * b, for i from
    # the top of rem down to d; a later division, on a shorter rem, takes
    # the same steps from its own top, which form a suffix of this list
    steps = [(i, i + j, b) for i in range(len(f) - 1, d - 1, -1) for j, b in terms]
    rem = list(f)
    digits: list[tuple[int, ...]] = []
    while rem:
        for i, k, b in steps[(len(f) - len(rem)) * len(terms):]:
            rem[k] -= rem[i] * b
        digits.append(tuple(_trim(rem[:d])))
        rem = rem[d:]
    if not digits:
        digits.append(())
    vals = tuple(vp_int(p, math.gcd(*a)) if a else None for a in digits)
    return PhiDevelopment(f, phi, p, tuple(digits), vals)
