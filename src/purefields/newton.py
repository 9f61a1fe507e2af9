"""Newton polygons of integer polynomials at a prime p.

Builds phi-adic developments, the principal (negative-slope) polygon of the
valuation points, the residual polynomial of each side over F_p[x]/(phi)
and whether it is separable, and the resulting lower bound for the p-index
of a monic integer polynomial, which is exact exactly when every
development is regular (every residual separable).
Developments, polygon heights and residual digits are computed on plain
integers: phi is monic, so its divisions need no inverse, and each digit
is divided only by a power of p that divides it.
Polynomials over Q, F_p and F_p[x]/(phi) share one implementation,
exactmath.Polynomial; FpExtPolynomial only supplies the field F_p[x]/(phi).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .exactmath import (
    FpPolynomial,
    Polynomial,
    QPolynomial,
    fp_radical,
    poly_ext_gcd,
    poly_gcd,
    vp_int,
)


# ---------------------------------------------------------------------------
# phi-adic development
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiDevelopment:
    """The base-phi expansion f = sum a_i * phi**i with deg(a_i) < deg(phi).

    valuations[i] is vp of a_i, or None when a_i = 0 (valuation +infinity).
    """

    f: QPolynomial
    phi: QPolynomial
    p: int
    coefficients: tuple[QPolynomial, ...]
    valuations: tuple[Optional[int], ...]


def phi_development(f: QPolynomial, phi: QPolynomial, p: int) -> PhiDevelopment:
    """Expand f in base phi by repeated division with remainder.

    phi is monic, so each division is synthetic on the integer numerators:
    the quotient digits are the leading remainder coefficients, left in
    place, so after a pass rem[:deg phi] is the next a_i and rem[deg phi:]
    the quotient.
    """
    if not f.is_integral() or not phi.is_integral():
        raise ValueError("development expects integer coefficients")
    if not phi.is_monic() or phi.degree < 1:
        raise ValueError("phi must be monic of degree >= 1")
    d = phi.degree
    tail = [c.numerator for c in phi.coefficients[:d]]
    rem = [c.numerator for c in f.coefficients]
    digits: list[list[int]] = []
    while rem:
        for i in range(len(rem) - 1, d - 1, -1):
            q = rem[i]
            if q:
                for j, b in enumerate(tail, i - d):
                    rem[j] -= q * b
        digits.append(rem[:d])
        # the quotient keeps the nonzero leading coefficient of rem
        rem = rem[d:]
    if not digits:
        digits.append([])
    vals = tuple(min((vp_int(p, c) for c in a if c), default=None) for a in digits)
    return PhiDevelopment(f, phi, p, tuple(QPolynomial(a) for a in digits), vals)


# ---------------------------------------------------------------------------
# residual polynomials over F_p[x]/(phi)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# the principal polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Side:
    """One negative-slope side of a principal polygon.

    The slope is -h/e in lowest terms, l is the length of the horizontal
    projection, and d = l/e is the degree of the attached residual, whose
    separability is decided once, when the side is built.
    """

    start: tuple[int, int]
    end: tuple[int, int]
    h: int
    e: int
    l: int
    d: int
    residual: FpExtPolynomial
    separable: bool


@dataclass(frozen=True)
class NewtonPolygon:
    """Principal polygon: the negative-slope part of the lower convex hull."""

    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    sides: tuple[Side, ...]

    def __post_init__(self):
        # the slope -h/e is negative iff h > 0, e being a positive length,
        # and -h1/e1 < -h2/e2 iff h2 * e1 < h1 * e2
        if any(s.h <= 0 or s.e <= 0 for s in self.sides):
            raise ValueError("principal polygon sides must have negative slope")
        if any(b.h * a.e >= a.h * b.e for a, b in zip(self.sides, self.sides[1:])):
            raise ValueError("side slopes must strictly increase")


def _lower_hull(points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def principal_polygon(dev: PhiDevelopment) -> NewtonPolygon:
    """Negative-slope part of the lower convex hull of the valuation points.

    Residual polynomials, and whether each is separable, are attached to
    every side, including degree-one sides.  The polygon may be empty (no
    negative-slope hull edges).
    """
    points = tuple(
        (i, u) for i, u in enumerate(dev.valuations) if u is not None
    )
    hull = _lower_hull(points)
    vertices: list[tuple[int, int]] = []
    sides: list[Side] = []
    for a, b in zip(hull, hull[1:]):
        if b[1] >= a[1]:
            break
        dx = b[0] - a[0]
        dy = a[1] - b[1]
        g = math.gcd(dx, dy)
        h, e = dy // g, dx // g
        residual = _residual(dev, a, h, e, g)
        side = Side(a, b, h, e, dx, g, residual, residual.is_separable())
        if not vertices:
            vertices.append(a)
        vertices.append(b)
        sides.append(side)
    return NewtonPolygon(points, tuple(vertices), tuple(sides))


def _residual(dev, start, h, e, d) -> FpExtPolynomial:
    """The residual polynomial of the side from start with slope -h/e and
    degree d, its coefficients read off the lattice points of the side.

    c_j is the reduction of a_i / p**u_i modulo (p, phi) when the point
    (i, u_i) with i = start + j*e lies on the side, and zero otherwise; the
    endpoints always lie on the side, so the degree is exactly d.
    """
    p = dev.p
    phi_bar = FpPolynomial(p, [c.numerator for c in dev.phi.coefficients])
    coeffs: list[FpPolynomial] = []
    for j in range(d + 1):
        i = start[0] + j * e
        u_line = start[1] - j * h
        u_i = dev.valuations[i] if i < len(dev.valuations) else None
        if u_i != u_line:
            coeffs.append(FpPolynomial(p))
            continue
        # u_i is the valuation of a_i, so the division is exact
        scale = p ** u_line
        digit = dev.coefficients[i].coefficients
        coeffs.append(FpPolynomial(p, [c.numerator // scale for c in digit]))
    return FpExtPolynomial(p, phi_bar, tuple(coeffs))


def phi_index(polygon: NewtonPolygon, degphi: int) -> int:
    """deg(phi) times the number of lattice points with x >= 1 and y >= 1
    lying on or below the polygon, with x bounded by the polygon's
    horizontal projection."""
    if not polygon.sides:
        return 0
    count = 0
    x_start = polygon.vertices[0][0]
    x_end = polygon.vertices[-1][0]
    for x in range(max(1, x_start), x_end + 1):
        for side in polygon.sides:
            if side.start[0] <= x <= side.end[0]:
                height = (side.start[1] * side.e - side.h * (x - side.start[0])) // side.e
                count += max(0, height)
                break
    return degphi * count


# ---------------------------------------------------------------------------
# factorization over F_p (distinct irreducible factors only)
# ---------------------------------------------------------------------------

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
    (degree, coefficient tuple) so the result is deterministic."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rad = FpPolynomial(f.p, fp_radical(f.coefficients, f.p))
    rng = random.Random(0)
    factors: list[FpPolynomial] = []
    for d, prod in _distinct_degree(rad):
        factors.extend(_equal_degree(prod, d, rng))
    factors.sort(key=lambda g: (g.degree, g.coefficients))
    return factors


# ---------------------------------------------------------------------------
# the p-index bound
# ---------------------------------------------------------------------------

def _square_free_over_q(f: Sequence[int]) -> bool:
    """Whether gcd(f, f') over Q is a constant, f a nonzero integer
    polynomial given constant first with no trailing zeros.

    A primitive pseudo-remainder sequence over Z decides it, with no
    Fraction; for X^N - m it is a single step.
    """
    a, b = list(f), [i * c for i, c in enumerate(f)][1:]
    while len(b) > 1:
        while len(a) >= len(b):
            # a <- b_top * a - a_top * X^(deg a - deg b) * b drops deg a
            top, shift = a.pop(), len(a) - len(b) + 1
            a = [b[-1] * c for c in a]
            for j, c in enumerate(b[:-1], shift):
                a[j] -= top * c
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        g = math.gcd(*a)
        a, b = b, [c // g for c in a]
    return True


def index_lower_bound(f: QPolynomial, p: int) -> tuple[int, bool]:
    """Lower bound for the p-index of a monic integer polynomial.

    Factors f mod p into distinct monic irreducibles, lifts each factor phi
    to integer coefficients in [0, p), and sums the phi-indices of the
    principal polygons.  The second component is True when every
    development is regular, in which case the bound is the exact p-index.
    """
    if not f.is_integral() or not f.is_monic():
        raise ValueError("index bound expects a monic integer polynomial")
    ints = [c.numerator for c in f.coefficients]
    if not _square_free_over_q(ints):
        raise ValueError("polynomial must be square-free over Q")
    fbar = FpPolynomial(p, ints)
    total = 0
    exact = True
    for factor in distinct_irreducible_factors(fbar):
        phi = factor.lift()
        dev = phi_development(f, phi, p)
        polygon = principal_polygon(dev)
        total += phi_index(polygon, factor.degree)
        if not all(side.separable for side in polygon.sides):
            exact = False
    return total, exact


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def polygon_json_dict(polygon: NewtonPolygon, degphi: int) -> dict:
    """JSON-ready dictionary for a principal polygon."""
    return {
        "points": [[i, u] for i, u in polygon.points],
        "vertices": [[i, u] for i, u in polygon.vertices],
        "sides": [
            {
                "slope": f"-{s.h}/{s.e}",
                "residual": str(s.residual),
                "separable": s.separable,
            }
            for s in polygon.sides
        ],
        "phi_index": phi_index(polygon, degphi),
    }


def polygon_ascii(polygon: NewtonPolygon) -> str:
    """Plain-text plot of the development points and polygon vertices."""
    if not polygon.points:
        return "(no points)"
    max_u = max(u for _, u in polygon.points)
    max_i = max(i for i, _ in polygon.points)
    vertex_set = set(polygon.vertices)
    point_set = set(polygon.points)
    lines = []
    for u in range(max_u, -1, -1):
        row = [f"{u:3d} |"]
        for i in range(max_i + 1):
            if (i, u) in vertex_set:
                row.append(" o")
            elif (i, u) in point_set:
                row.append(" *")
            else:
                row.append("  ")
        lines.append("".join(row))
    lines.append("    +" + "--" * (max_i + 1))
    labels = "     "
    for i in range(max_i + 1):
        labels += f"{i:2d}" if i < 100 else " ."

    lines.append(labels)
    for s in polygon.sides:
        lines.append(
            f"side {s.start} -> {s.end}: slope -{s.h}/{s.e}, "
            f"residual {s.residual}, "
            f"{'separable' if s.separable else 'not separable'}"
        )
    if not polygon.sides:
        lines.append("(empty principal polygon)")
    return "\n".join(lines)
