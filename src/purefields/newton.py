"""Newton polygons of integer polynomials at a prime p.

Builds phi-adic developments, the principal (negative-slope) polygon of the
valuation points, the residual polynomial of each side over F_p[x]/(phi)
and whether it is separable, and the resulting lower bound for the p-index
of a monic integer polynomial, which is exact exactly when every
development is regular (every residual separable).
Every polynomial here is a tuple or list of ints, constant first, with no
trailing zeros, as in exactmath's radical and Dedekind routines; an
element of F_p[x]/(phi) is such a list of degree below deg(phi), and a
residual polynomial is a tuple of them.  Developments, polygon heights and
residual digits are computed on plain integers, and each digit is divided
only by a power of p that divides it.  Along a linear phi = X - r, which
is every phi for X^(p^k) - m (its reduction is (X - m)^(p^k)), the
development is the Taylor shift f(X + r), one pass over each of f's
nonzero terms; along phi of degree 2 or more it is repeated synthetic
division, phi being monic.  QPolynomial appears only in
index_lower_bound's input and in rendering.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Sequence

from .exactmath import (
    QPolynomial,
    _fp_divmod,
    _fp_gcd,
    _int_product,
    _trim,
    fp_radical,
    vp_int,
)

Poly = tuple[int, ...]


# ---------------------------------------------------------------------------
# phi-adic development
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiDevelopment:
    """The base-phi expansion f = sum a_i * phi**i with deg(a_i) < deg(phi).

    valuations[i] is vp of a_i, or None when a_i = 0 (valuation +infinity).
    """

    f: Poly
    phi: Poly
    p: int
    coefficients: tuple[Poly, ...]
    valuations: tuple[Optional[int], ...]


def phi_development(f: Sequence[int], phi: Sequence[int], p: int) -> PhiDevelopment:
    """Expand f in base phi, f and phi given by their integer coefficients,
    constant first.

    For linear phi = X - r the digits are the Taylor coefficients of f at
    r: f(X) = sum_j a_j * (X - r)**j with
    a_j = sum_t c_t * C(t, j) * r**(t - j) over f's nonzero terms
    c_t * X**t, which takes O(deg f * terms) big-int steps where division
    would take about deg(f)**2 / 2 (f = X^N - m has two terms).  For
    deg phi >= 2 they come from repeated division with remainder, the only
    general algorithm.  A digit's valuation is that of the gcd of its
    coefficients.
    """
    if not all(isinstance(c, int) for c in (*f, *phi)):
        raise ValueError("development expects integer coefficients")
    f, phi = tuple(_trim(list(f))), tuple(_trim(list(phi)))
    if len(phi) < 2 or phi[-1] != 1:
        raise ValueError("phi must be monic of degree >= 1")
    if len(phi) == 2:
        digits = [(a,) if a else () for a in _taylor_shift(f, -phi[0])]
    else:
        digits = _divided_digits(f, phi)
    if not digits:
        digits.append(())
    vals = tuple(vp_int(p, math.gcd(*a)) if a else None for a in digits)
    return PhiDevelopment(f, phi, p, tuple(digits), vals)


def _taylor_shift(f: Poly, r: int) -> list[int]:
    """The coefficients of f(X + r), constant first.

    Each nonzero term c_t * X**t adds v_j = c_t * C(t, j) * r**(t - j) to
    digit j, walked from v_t = c_t down by v_(j-1) = v_j * j / (t - j + 1) * r,
    the ratio C(t, j - 1) / C(t, j) times r.  The division is exact:
    C(t, j) * j = C(t, j - 1) * (t - j + 1).
    """
    shifted = [0] * len(f)
    for t, c in enumerate(f):
        if not c:
            continue
        shifted[t] += c
        v = c
        for j in range(t, 0, -1):
            v = v * j // (t - j + 1) * r
            shifted[j - 1] += v
    return shifted


def _divided_digits(f: Poly, phi: Poly) -> list[Poly]:
    """The base-phi digits of f by repeated division, phi monic.

    Each division is synthetic: the quotient digits are the leading
    remainder coefficients, left in place, so after a pass rem[:deg phi]
    is the next digit and rem[deg phi:] the quotient.
    """
    d = len(phi) - 1
    terms = [(j - d, b) for j, b in enumerate(phi[:d]) if b]
    # one division is the steps (i, k, b), rem[k] -= rem[i] * b, for i from
    # the top of rem down to d; a later division, on a shorter rem, takes
    # the same steps from its own top, which form a suffix of this list
    steps = [(i, i + j, b) for i in range(len(f) - 1, d - 1, -1) for j, b in terms]
    rem = list(f)
    digits: list[Poly] = []
    while rem:
        for i, k, b in steps[(len(f) - len(rem)) * len(terms):]:
            rem[k] -= rem[i] * b
        digits.append(tuple(_trim(rem[:d])))
        # the quotient keeps the nonzero leading coefficient of rem
        rem = rem[d:]
    return digits


# ---------------------------------------------------------------------------
# F_p[x] beyond exactmath's radical and Dedekind routines
# ---------------------------------------------------------------------------

def _fp_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _fp_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    return _fp_divmod(_int_product(a, b), modulus, p)[1]


def _fp_pow_mod(a: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    """a**e mod modulus over F_p by repeated squaring."""
    result, base = [1], _fp_divmod(a, modulus, p)[1]
    while e:
        if e & 1:
            result = _fp_mul_mod(result, base, modulus, p)
        base = _fp_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def _fp_inverse(a: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """Inverse of a modulo modulus over F_p, by extended Euclid; modulus
    need not be irreducible, but a must be prime to it."""
    if len(a) == 1:
        # a nonzero constant is a unit of F_p, whatever the modulus is
        return [pow(a[0], -1, p)]
    # s1 * a = r1 modulo modulus throughout
    r0, r1, s0, s1 = list(modulus), list(a), [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _fp_sub(s0, _int_product(q, s1), p)
    if len(r0) != 1:
        raise ValueError("coefficient not invertible; phi_bar must be irreducible")
    inverse = pow(r0[0], -1, p)
    return [c * inverse % p for c in s0]


# ---------------------------------------------------------------------------
# residual polynomials over F_p[x]/(phi)
# ---------------------------------------------------------------------------

def _ext_rem(a: list, b: list, phi_bar: list[int], p: int) -> list:
    """a mod b for polynomials in Y over F_p[x]/(phi_bar), b nonzero."""
    inverse = _fp_inverse(b[-1], phi_bar, p)
    d = len(b) - 1
    rem = list(a)
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i]:
            q = _fp_mul_mod(rem[i], inverse, phi_bar, p)
            for j, c in enumerate(b[:-1], i - d):
                rem[j] = _fp_sub(rem[j], _fp_mul_mod(q, c, phi_bar, p), p)
    return _trim(rem[:d])


def _is_separable(residual: Sequence[Poly], phi_bar: list[int], p: int) -> bool:
    """True iff the polynomial in Y has no repeated roots over the residue
    field F_p[x]/(phi_bar): its gcd with its derivative is a constant.

    Euclid stops at the first remainder that is a nonzero constant.
    """
    a = list(residual)
    b = _trim([_trim([i * c % p for c in ci]) for i, ci in enumerate(a)][1:])
    while len(b) > 1:
        a, b = b, _ext_rem(a, b, phi_bar, p)
    return len(a) == 1 or len(b) == 1


def residual_str(residual: Sequence[Poly]) -> str:
    """The residual as text in Y, a non-constant coefficient in x shown in
    parentheses: Y^2+Y+1, (x+1)Y+x."""
    parts = []
    for i in range(len(residual) - 1, -1, -1):
        c = residual[i]
        if not c:
            continue
        if len(c) == 1:
            cstr = "" if (c[0] == 1 and i > 0) else str(c[0])
        else:
            cstr = "(" + str(QPolynomial(c)).lower() + ")"
        if i == 0:
            term = cstr if cstr else "1"
        elif i == 1:
            term = f"{cstr}Y"
        else:
            term = f"{cstr}Y^{i}"
        parts.append(term)
    return "+".join(parts)


# ---------------------------------------------------------------------------
# the principal polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Side:
    """One negative-slope side of a principal polygon.

    The slope is -h/e in lowest terms, l is the length of the horizontal
    projection, and d = l/e is the degree of the attached residual, whose
    separability is decided once, when the side is built.  residual[j] is
    the coefficient of Y**j, an element of F_p[x]/(phi).
    """

    start: tuple[int, int]
    end: tuple[int, int]
    h: int
    e: int
    l: int
    d: int
    residual: tuple[Poly, ...]
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
    phi_bar = [c % dev.p for c in dev.phi]
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
        side = Side(a, b, h, e, dx, g, residual, _is_separable(residual, phi_bar, dev.p))
        if not vertices:
            vertices.append(a)
        vertices.append(b)
        sides.append(side)
    return NewtonPolygon(points, tuple(vertices), tuple(sides))


def _residual(dev, start, h, e, d) -> tuple[Poly, ...]:
    """The residual polynomial of the side from start with slope -h/e and
    degree d, its coefficients read off the lattice points of the side.

    c_j is the reduction of a_i / p**u_i modulo (p, phi) when the point
    (i, u_i) with i = start + j*e lies on the side, and zero otherwise; the
    endpoints always lie on the side, so the degree is exactly d.  A digit
    has degree below deg(phi), so reducing it mod p reduces it mod (p, phi).
    """
    p = dev.p
    coeffs: list[Poly] = []
    for j in range(d + 1):
        i = start[0] + j * e
        u_line = start[1] - j * h
        if dev.valuations[i] != u_line:
            coeffs.append(())
            continue
        # u_i is the valuation of a_i, so the division is exact
        scale = p ** u_line
        coeffs.append(tuple(_trim([c // scale % p for c in dev.coefficients[i]])))
    return tuple(coeffs)


def phi_index(polygon: NewtonPolygon, degphi: int) -> int:
    """deg(phi) times the number of lattice points with x >= 1 and y >= 1
    lying on or below the polygon, with x bounded by the polygon's
    horizontal projection."""
    if not polygon.sides:
        return 0
    count = 0
    # sides meet end to start, so x from lo to each side's end is that
    # side's own range, a shared vertex counted once
    lo = max(1, polygon.vertices[0][0])
    for side in polygon.sides:
        (x0, y0), x1 = side.start, side.end[0]
        count += sum(
            max(0, (y0 * side.e - side.h * (x - x0)) // side.e) for x in range(lo, x1 + 1)
        )
        lo = x1 + 1
    return degphi * count


# ---------------------------------------------------------------------------
# factorization over F_p (distinct irreducible factors only)
# ---------------------------------------------------------------------------

def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    # f monic squarefree; returns (d, product of all irreducible factors of degree d)
    out: list[tuple[int, list[int]]] = []
    x = [0, 1]
    h = x
    rest = f
    d = 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((len(rest) - 1, rest))
            break
        h = _fp_pow_mod(h, p, rest, p)
        g = _fp_gcd(_fp_sub(h, x, p), rest, p)
        if len(g) > 1:
            out.append((d, g))
            # rest and g are monic, so is the quotient
            rest = _fp_divmod(rest, g, p)[0]
            h = _fp_divmod(h, rest, p)[1]
    return out


def _equal_degree(
    f: list[int], d: int, p: int, rng: Optional[random.Random]
) -> list[list[int]]:
    # f monic squarefree, all irreducible factors of degree d; rng is only
    # drawn from when there is more than one
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _fp_gcd(a, f, p)
        if 0 < len(g) - 1 < n:
            split = g
        else:
            if p == 2:
                t = a
                acc = a
                for _ in range(d - 1):
                    t = _fp_pow_mod(t, 2, f, p)
                    # over F_2, acc + t = acc - t
                    acc = _fp_sub(acc, t, p)
                b = acc
            else:
                b = _fp_sub(_fp_pow_mod(a, (p ** d - 1) // 2, f, p), [1], p)
            if not b:
                continue
            split = _fp_gcd(b, f, p)
            if not 0 < len(split) - 1 < n:
                continue
        rest = _fp_divmod(f, split, p)[0]
        return _equal_degree(split, d, p, rng) + _equal_degree(rest, d, p, rng)


def distinct_irreducible_factors(coefficients: Sequence[int], p: int) -> list[list[int]]:
    """Distinct monic irreducible factors over F_p of the integer
    polynomial given by its coefficients, constant first, each with
    coefficients in [0, p) and sorted by (degree, coefficients) so the
    result is deterministic."""
    products = _distinct_degree(fp_radical(coefficients, p), p)
    # seeding costs as much as the rest of a one-factor split: seed only
    # when some product has factors to split apart
    rng = random.Random(0) if any(len(g) - 1 > d for d, g in products) else None
    factors: list[list[int]] = []
    for d, prod in products:
        factors.extend(_equal_degree(prod, d, p, rng))
    factors.sort(key=lambda g: (len(g), g))
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
        # b's nonzero terms below its top: for X^N - m there are none
        b_terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
        while len(a) >= len(b):
            # a <- b_top * a - a_top * X^(deg a - deg b) * b drops deg a
            top, shift = a.pop(), len(a) - len(b) + 1
            a = [b[-1] * c for c in a]
            for j, c in b_terms:
                a[j + shift] -= top * c
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        g = math.gcd(*a)
        a, b = b, [c // g for c in a]
    return True


def index_lower_bound(f: QPolynomial, p: int) -> tuple[int, bool]:
    """Lower bound for the p-index of a monic integer polynomial.

    Factors f mod p into distinct monic irreducibles, takes each factor phi
    with integer coefficients in [0, p), and sums the phi-indices of the
    principal polygons.  The second component is True when every
    development is regular, in which case the bound is the exact p-index.
    """
    if not f.is_integral() or not f.is_monic():
        raise ValueError("index bound expects a monic integer polynomial")
    ints = [c.numerator for c in f.coefficients]
    if not _square_free_over_q(ints):
        raise ValueError("polynomial must be square-free over Q")
    total = 0
    exact = True
    for phi in distinct_irreducible_factors(ints, p):
        polygon = principal_polygon(phi_development(ints, phi, p))
        total += phi_index(polygon, len(phi) - 1)
        if not all(side.separable for side in polygon.sides):
            exact = False
    return total, exact


def binomial_polygon(m: int, p: int, degree: int) -> tuple[Poly, NewtonPolygon]:
    """(phi, polygon) for f = X^degree - m at p, degree = p^k.

    Mod p, f is (X - r)^(p^k) with r = m mod p, since r^(p^k) = r in F_p:
    phi = X - r is its one irreducible factor, so this polygon alone gives
    index_lower_bound(f, p), phi_index(polygon, 1), which is the exact
    p-index when every side is separable.
    """
    phi = (-(m % p), 1)
    f = [-m] + [0] * (degree - 1) + [1]
    return phi, principal_polygon(phi_development(f, phi, p))


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
                "residual": residual_str(s.residual),
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
            f"residual {residual_str(s.residual)}, "
            f"{'separable' if s.separable else 'not separable'}"
        )
    if not polygon.sides:
        lines.append("(empty principal polygon)")
    return "\n".join(lines)
