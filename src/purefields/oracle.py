"""Independent certification of claimed integral bases.

Nothing in this module reuses the closed-form constructions: elements are
multiplied exactly in the power basis, discriminants come from the trace
pairing, and p-maximality at p | n is proved by Dedekind's criterion on
X^(p^k) - m, p^k the exact power of p in n, where it applies, then by the
discriminant where p^2 does not divide it, then by the discriminant
against the index Ore's theorem reads off the first-order Newton polygon
of X^(p^k) - m where that polygon is p-regular, and otherwise through the
multiplier ring of the p-radical (Round 2), which alone builds
counterexamples.  On X^(p^k) - m the criterion is one congruence mod p^2,
a modular power, and the discriminant's valuation is a sum over the
basis's leading coefficients and denominators; the polygon is newton's,
built on X^(p^k) - m alone and not on any closed form of purebasis.  At
a prime q not dividing n, X^n - m is Eisenstein or separable mod q, so an
order is q-maximal exactly when q does not divide c, the least c > 0
with c*alpha in it.  No table of all n^2 products
b_i * b_j is formed.  Each product a check needs is taken on the integer
numerators and peeled once against a triangular basis.  Closure is Round
2's order test: n shifts by c*alpha and the products of a few
Z[c*alpha]-module generators, where a shift that maps b_i to b_(i+1)
term for term is read off the basis with no product.  p-maximality is
local, so Round 2 at p runs on a Z_(p)-basis derived from the given one
and c alone, whose numerators are reduced mod c^t * p^v.  With
n = p^k * u, p not dividing u or m, and that basis in tensor shape, it
runs on the degree-p^k order O' = O (x) Z_(p) intersected with
Q(alpha^u) instead: over Q(alpha^u), alpha is a root of X^u - alpha^u,
whose discriminant +-u^u * (alpha^u)^(u-1) is a unit at every prime
above p, so O (x) Z_(p) = O'[alpha] is p-maximal iff O' is.  The
discriminant is the power-basis Gram determinant, read off its
permutation, times the squared transition determinant: the product of
the leading coefficients over that of the denominators, two products
that the discriminant and each prime's valuation share.

There is one element type, purebasis.BasisElement: N(alpha)/d with N an
integer polynomial and d > 0, in lowest terms, held as the nonzero (t, c)
terms of N.  The checks read those terms as they are, with no rescan of a
dense numerator, and a p-maximality counterexample is built as one.  A
lattice that is closed under multiplication and contains 1 is an order,
hence integral, so certifying an order forms no Fraction.  Only elements
outside an order (those of a lattice that is not one, and a
counterexample) are tested one by one: a trace test on the numerator,
which leaves d | n once no prime of m divides d (X^n - m is Eisenstein
there, so such a d already rules x out), then one prime q of d at a time:
the characteristic polynomial of the multiplication map by N mod q^a,
stripped of its least power of alpha (a unit above q), on the smallest
pure subfield Q(alpha^g) that holds it, taken once per distinct such
numerator in one certify.  The oracle certifies bases handed to it; it
never builds one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import NamedTuple

from .exactmath import (
    FCirculant,
    charpoly,
    det_rational,  # unused here; bound so the benchmark tracer can wrap it
    factorize,
    fp_kernel,
    fp_lanes,
    fp_reduce,
    hnf_rows,
    is_prime,
    vp_int,
)
from .newton import binomial_polygon, phi_index
from .purebasis import BasisElement, IntegralBasis, PureField, index_report
from .purebasis import ENUM_BUDGET_DEFAULT, _is_shift, budget_skip_reason


def _multiplication_matrix(field: PureField, numerator: Sequence[int]) -> FCirculant:
    """Matrix of multiplication by N(alpha), N the integer coefficients:
    the m-circulant whose first row is N, padded to n.

    Row j holds the coordinates of N(alpha) * alpha^j: the coefficients
    shifted up by j, the top j of them wrapped round to the bottom and
    multiplied by m.  Only N and m are stored.
    """
    return FCirculant(list(numerator) + [0] * (field.n - len(numerator)), field.m)


def _pure_subfield(field: PureField, g: int) -> PureField:
    """K' = Q(alpha^g) for g | n: degree n/g, generated by the root alpha^g
    of X^(n/g) - m, its factorization read off the field's."""
    factorization = tuple(
        (p, k - v) for p, k in field.factorization if (v := vp_int(p, g)) < k
    )
    return PureField(field.n // g, field.m, factorization)


def is_algebraic_integer(
    field: PureField, element: BasisElement, *, _verdicts: dict | None = None
) -> bool:
    """Whether x = N(alpha)/d lies in the ring of integers, decided exactly.

    d == 1 is integral at once.  Otherwise the trace pairings
    Tr(x * alpha^i), n*N_0/d for i = 0 and n*m*N_(n-i)/d for i >= 1, must
    be integers: a cheap necessary condition.  Then integrality is decided
    one prime q of d at a time:

    - At q | m, X^n - m is q-Eisenstein (m is square-free), so Z_(q)[alpha]
      is q-maximal and x is q-integral only if q divides every N_t, which
      lowest terms rules out: x is not integral.
    - Otherwise gcd(d, m) = 1, so the trace test gives d | n*N_t for every
      t, hence d | n (lowest terms), and the primes of d are read off the
      field's factorization.  With q^a the exact power of q in d, x is
      q-integral iff x_q = (N mod q^a)(alpha)/q^a is, and x_q, whose only
      denominator is q^a, is integral iff it is q-integral.  alpha is a
      unit above q (q does not divide m), so x_q may be divided by
      alpha^s, s the least exponent of N mod q^a, leaving M(alpha)/q^a.
      With g the gcd of n and every exponent of M, that lies in
      K' = Q(alpha^g), of degree n' = n/g, where alpha^g is a root of
      X^n' - m and M(alpha) is M'(alpha^g), M' = M_0 + M_g X + ...  The
      characteristic polynomial of multiplication by M(alpha) on K' is
      its minimal polynomial, the same over K' as over K, raised to a
      power, and M(alpha)/q^a is integral exactly when q^(a*(n'-k))
      divides its coefficient of X^k for every k.

    x is integral iff every prime of d passes; the first that fails
    decides.  The verdict at q is thus a function of (q^a, g, M) alone
    in a fixed field: elements that differ by a power of alpha or by
    multiples of q^a in N share it.  certify hands in one dict for its
    own call, _verdicts, which keeps each verdict under that key, so
    each distinct local numerator's characteristic polynomial is taken
    once per certification.
    """
    n, m = field.n, field.m
    if element.degree >= n:
        raise ValueError("element degree exceeds the field degree")
    d = element.denominator
    if d == 1:
        return True
    terms = element.terms
    if any((n * c if t == 0 else n * m * c) % d for t, c in terms):
        return False
    if math.gcd(d, m) > 1:
        return False
    verdicts = {} if _verdicts is None else _verdicts
    # d | n here, so each prime of d is a prime of n
    for q, _ in field.factorization:
        if d % q:
            continue
        modulus = q ** vp_int(q, d)
        local = [(t, r) for t, c in terms if (r := c % modulus)]
        s = local[0][0]
        stripped = tuple([(t - s, r) for t, r in local])
        g = math.gcd(n, *(t for t, _ in stripped))
        key = (modulus, g, stripped)
        if key not in verdicts:
            subfield = _pure_subfield(field, g)
            reduced = [0] * (stripped[-1][0] // g + 1)
            for t, r in stripped:
                reduced[t // g] = r
            coefficients = charpoly(_multiplication_matrix(subfield, reduced)).coefficients
            verdicts[key] = not any(
                int(c) % modulus ** (subfield.n - k) for k, c in enumerate(coefficients)
            )
        if not verdicts[key]:
            return False
    return True


def _supports(basis: IntegralBasis) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    # (d_k, nonzero (t, c) of N_k, t ascending) for b_k = N_k(alpha)/d_k,
    # read off the element's own terms; the last pair is the leading one
    return [(e.denominator, e.terms) for e in basis.elements]


def _local_supports(
    basis: IntegralBasis, p: int, c: int
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """_supports of a Z_(p)-basis of the order, derived from its basis.

    Element k becomes N_k'(alpha)/p^v, v = v_p(d_k): each coefficient t
    below the leading one is reduced mod c^t * p^v, the leading one kept.
    That scales b_k by the unit d_k/p^v of Z_(p) and takes away integer
    multiples of beta^t, beta = c*alpha, t < k, which lie in the order, so
    the change of basis is lower-triangular with a unit diagonal mod p.
    """
    n = basis.field.n
    # the moduli c^t * p^v, t < n, for each p^v met, one multiplication a step
    moduli: dict[int, list[int]] = {}
    local = []
    for e in basis.elements:
        d, q = e.denominator, 1
        while d % p == 0:
            d //= p
            q *= p
        if q not in moduli:
            moduli[q] = list(accumulate(repeat(c, n - 1), operator.mul, initial=q))
        modulus = moduli[q]
        terms = e.terms
        support = [(t, r) for t, x in terms[:-1] if (r := x % modulus[t])]
        support.append(terms[-1])
        local.append((q, tuple(support)))
    return local


def _product(field: PureField, a, b) -> list[int]:
    """a(alpha) * b(alpha), dense, a and b given by their nonzero (t, c)
    pairs; alpha^n = m is folded in as the product is formed."""
    n, m = field.n, field.m
    out = [0] * n
    for s, x in a:
        for t, y in b:
            if s + t < n:
                out[s + t] += x * y
            else:
                out[s + t - n] += m * x * y
    return out


def _peel(supports, rem: list[int], scale: int) -> tuple[dict[int, int], int]:
    """The nonzero coordinates {k: c} of rem(alpha)/scale in the triangular
    basis, as integers over their least common denominator, which is 1
    exactly when the element lies in the lattice.

    The basis is peeled off from the top degree down, rem (consumed) and
    scale multiplied up whenever a leading coefficient does not divide the
    remainder, so rem stays an integer vector.
    """
    coords = {}
    for k in range(len(rem) - 1, -1, -1):
        if rem[k]:
            d, support = supports[k]
            lead = support[-1][1]
            q, r = divmod(rem[k], lead)
            if r:
                # abs: a negative lead must not flip the sign of the scale
                g = abs(lead) // math.gcd(rem[k], lead)
                rem = [x * g for x in rem]
                coords = {j: c * g for j, c in coords.items()}
                scale *= g
                q = rem[k] // lead
            coords[k] = q * d
            for t, c in support:
                rem[t] -= q * c
    if scale != 1:
        g = math.gcd(scale, *coords.values())
        coords = {k: c // g for k, c in coords.items()}
        scale //= g
    return coords, scale


class ClosureCertificate(NamedTuple):
    """Why the lattice L is or is not closed under multiplication.

    multiplier is c, the least c > 0 with c*alpha in L; generators is G,
    the indices of a set of Z[c*alpha]-module generators of L.
    """

    multiplier: int
    generators: tuple[int, ...]
    closed: bool


@functools.lru_cache(maxsize=1)
def _structure_constants(basis: IntegralBasis) -> ClosureCertificate:
    """Decide closure from n shifts and the products of a few generators.

    A closed L contains beta = c*alpha, so beta*L lies in L; conversely
    once beta*L does, L is a Z[beta]-module, L*L is the Z[beta]-span of
    the b_g*b_h over g, h in G, and L is closed iff each of those lies in
    L (Round 2's order test, Cohen, section 6.1).  The shift beta*b_(i-1)
    has degree i, and when its coordinate on b_i is +-1, b_i is a
    Z[beta]-combination of b_0, ..., b_(i-1); so G holds 0 and every i
    where that coordinate is not +-1.

    Most shifts are read off the supports: where b_(i+1) has the
    denominator of b_i and its terms are those of b_i moved up one degree
    and scaled by c, beta*b_i = b_(i+1), which lies in L with coordinate
    1, and no product is formed.  Each other shift and each generator
    product is peeled once; the products b_0*b_h are skipped when b_0 is
    an integer N_0 (d_0 = 1), as they are N_0*b_h.  The most recent
    certificate is kept, so certify and each prime's p_maximality_enum
    share one; the name is the benchmark tracer's.
    """
    field = basis.field
    n = field.n
    supports = _supports(basis)
    # c is the least common denominator of alpha's coordinates
    c = _peel(supports, [0, 1] + [0] * (n - 2), 1)[1]
    generators = [0]
    closed = True
    for i, (d, support) in enumerate(supports):
        if i + 1 < n and _is_shift(supports[i + 1], (d, support), 1, c):
            continue
        coords, scale = _peel(supports, _product(field, [(1, c)], support), d)
        closed = closed and scale == 1
        if i + 1 < n and abs(coords.get(i + 1, 0)) != scale:
            generators.append(i + 1)
    if closed:
        # an integer b_0 = N_0 makes each b_0*b_h = N_0*b_h, in L
        left = generators[1:] if supports[0][0] == 1 else generators
        pairs = [(supports[g], supports[h]) for g in left for h in generators if g <= h]
        closed = all(
            _peel(supports, _product(field, a, b), d * e)[1] == 1
            for (d, a), (e, b) in pairs
        )
    return ClosureCertificate(c, tuple(generators), closed)


def _multiplicatively_closed(certificate: ClosureCertificate) -> bool:
    return certificate.closed


_NOT_CLOSED = (
    "the lattice is not multiplicatively closed; p-maximality is about orders"
)


def _order_defect(basis: IntegralBasis, certificate: ClosureCertificate) -> str | None:
    """Why the lattice is not an order, or None when it is one.

    A full lattice that is closed under multiplication and contains 1 is a
    ring finitely generated over Z, so every element of it is integral.
    By triangularity 1 is in the lattice iff b_0 = +-1, and b_0 is in
    lowest terms.
    """
    if not _multiplicatively_closed(certificate):
        return _NOT_CLOSED
    b0 = basis.elements[0]
    if b0.denominator != 1 or b0.terms not in (((0, 1),), ((0, -1),)):
        return "the lattice does not contain 1; p-maximality is about orders"
    return None


def _power_basis_discriminant(field: PureField) -> int:
    # Gram determinant det[Tr(alpha^(i+j))]; alpha^k = m^(k div n) *
    # alpha^(k mod n) and Tr(alpha^j) = n*[j == 0] for 0 <= j < n, so row i
    # has its one nonzero entry at column sigma(i) = -i mod n: Tr(1) = n
    # for i = 0 and Tr(alpha^n) = n*m after.  The determinant is sign(sigma)
    # times their product.  sigma fixes 0 (and n/2 for even n) and swaps
    # every other i with n - i, so it has (n + fixed)/2 cycles and sign
    # (-1)^(n - cycles); no closed discriminant formula enters here
    n, m = field.n, field.m
    fixed = 2 if n % 2 == 0 else 1
    cycles = (n + fixed) // 2
    sign = -1 if (n - cycles) % 2 else 1
    return sign * n * (n * m) ** (n - 1)


def _transition(basis: IntegralBasis) -> tuple[int, int]:
    # (product of the leading coefficients, product of the denominators):
    # the basis is triangular over the power basis, so their quotient is
    # the transition determinant
    leads = denominators = 1
    for e in basis.elements:
        leads *= e.terms[-1][1]
        denominators *= e.denominator
    return leads, denominators


def _discriminant_exact(basis: IntegralBasis) -> int | Fraction:
    """Trace-pairing discriminant of the lattice, from the transition matrix.

    The basis is triangular over the power basis, so the transition
    determinant is the product of leading coefficients over the product of
    denominators, and the discriminant is the power-basis Gram determinant
    times its square.  The result is an int whenever it is an integer, as
    on every order.
    """
    leads, denominators = _transition(basis)
    numerator = _power_basis_discriminant(basis.field) * leads ** 2
    denominator = denominators ** 2
    if numerator % denominator:
        return Fraction(numerator, denominator)
    return numerator // denominator


def _power_basis_valuation(field: PureField, p: int) -> int:
    # v_p of the Gram determinant +-n * (n*m)^(n-1): v_p(disc Z[alpha])
    n, m = field.n, field.m
    return n * vp_int(p, n) + (n - 1) * vp_int(p, m)


def _discriminant_valuation(basis: IntegralBasis, p: int) -> int:
    """v_p of _discriminant_exact(basis): the Gram determinant's
    n*v_p(n) + (n - 1)*v_p(m), plus twice v_p of the product of the
    leading coefficients less v_p of the product of the denominators,
    the two products _discriminant_exact squares."""
    leads, denominators = _transition(basis)
    value = _power_basis_valuation(basis.field, p)
    return value + 2 * (vp_int(p, leads) - vp_int(p, denominators))


def basis_discriminant(basis: IntegralBasis) -> int:
    """Discriminant of the Z-module spanned by the basis."""
    value = _discriminant_exact(basis)
    if isinstance(value, Fraction):
        raise ArithmeticError("discriminant is not an integer; basis is not integral")
    return value


# --- p-maximality -----------------------------------------------------------


@dataclass(frozen=True)
class Proved:
    """No element of (1/p)*O outside O is an algebraic integer.

    The evidence takes no part in comparisons or reports.  route names the
    theorem: "dedekind" when Dedekind's criterion showed Z_(p)[alpha],
    which O contains locally, to be p-maximal, "discriminant" when p^2
    does not divide disc(O), so that p does not divide the index,
    "polygon" when v_p(disc O) equals v_p(disc O_K) as Ore's theorem gives
    it from a p-regular Newton polygon of X^(p^k) - m, and "round 2" when
    the multiplier ring of the p-radical did.  On Round 2,
    radical_dimension is the F_p-dimension of the p-radical of O/pO, and
    generators the number of radical vectors whose products were fed
    before the multiplier system reached full rank.  Where Round 2 ran on
    the degree-p^k order O' of Q(alpha^u), u = n/p^k (see _round_two),
    O/pO is etale over O'/pO', so radical_dimension is still that of
    O/pO, u times that of O'/pO', and generators counts the radical
    vectors of O''s system; route stays "round 2".  On the Dedekind,
    discriminant and polygon routes no radical is formed, and both stay 0.
    degree is the degree the proof ran at: p^k, the exact power of p in n,
    on the Dedekind and polygon routes (both run on X^(p^k) - m) and where
    Round 2 ran on O', n otherwise.
    """

    radical_dimension: int = dataclasses.field(default=0, compare=False)
    generators: int = dataclasses.field(default=0, compare=False)
    route: str = dataclasses.field(default="round 2", compare=False)
    degree: int = dataclasses.field(default=0, compare=False)


@dataclass(frozen=True)
class CounterexampleFound:
    """An algebraic integer in (1/p)*O \\ O; the claimed basis is wrong."""

    element: BasisElement


@dataclass(frozen=True)
class Skipped:
    """A p-maximality check that did not run: the lattice is not an order,
    or certify's work measure exceeds its budget."""

    reason: str


MaximalityResult = Proved | CounterexampleFound | Skipped


def _product_mod_p(x, rows, p: int) -> list[tuple[int, int]]:
    """sum_i x_i * rows[i] mod p as its nonzero (k, c) pairs, x and each
    row given by theirs."""
    out: dict[int, int] = {}
    for i, a in x:
        for k, c in rows[i]:
            out[k] = out.get(k, 0) + a * c
    return [(k, r) for k, c in out.items() if (r := c % p)]


def _residues(coords: dict[int, int], scale: int, modulus: int) -> dict[int, int]:
    """The coordinates coords/scale as residues c * scale^-1 mod modulus,
    a power of p; an element of the order has local coordinates in Z_(p),
    so its scale is prime to p."""
    if math.gcd(scale, modulus) != 1:
        raise ArithmeticError("internal error: product left the order at p")
    inverse = pow(scale, -1, modulus)
    return {k: c * inverse % modulus for k, c in coords.items()}


def _numerator(coefficients: Sequence[int], supports) -> tuple[list[int], int]:
    """(N, L): sum_k coefficients[k] * b_k = N(alpha)/L, L the lcm of the
    basis denominators and N dense."""
    common = math.lcm(*(d for d, _ in supports))
    numerator = [0] * len(supports)
    for u, (d, support) in zip(coefficients, supports):
        if u:
            scale = u * (common // d)
            for t, c in support:
                numerator[t] += scale * c
    return numerator, common


def _power_mod(field: PureField, support, e: int, modulus: int) -> list[int]:
    # a dense integer polynomial congruent to N(alpha)^e mod modulus: one
    # shift for a monomial N, else square-and-multiply with each factor
    # reduced mod modulus, so every integer stays below n*|m|*modulus^2;
    # e >= 2
    n = field.n
    if len(support) == 1:
        (t, c), = support
        power = [0] * n
        power[t * e % n] = pow(c, e, modulus) * pow(field.m, t * e // n, modulus)
        return power
    power = None
    for bit in bin(e)[3:]:
        factor = support if power is None else _reduced(power, modulus)
        power = _product(field, factor, factor)
        if bit == "1":
            power = _product(field, _reduced(power, modulus), support)
    return power


def _reduced(dense: list[int], modulus: int) -> list[tuple[int, int]]:
    # the nonzero (t, c mod modulus) pairs of a dense polynomial
    return [(t, r) for t, c in enumerate(dense) if (r := c % modulus)]


def _dedekind_binomial(m: int, p: int, degree: int) -> bool:
    # Dedekind's criterion on X^degree - m, degree = p^k (p_maximality_enum)
    return degree == 1 or (pow(m % p, degree, p * p) - m) % (p * p) != 0


def p_maximality_enum(basis: IntegralBasis, p: int) -> MaximalityResult:
    """Prove or refute p-maximality of the order spanned by the basis.

    The question is whether any (sum c_i b_i)/p with c_i in [0, p), not all
    divisible by p, is an algebraic integer: Proved means none is.  Rather
    than walking all p^n cosets, the proof first tries three read-offs,
    Dedekind's criterion, the discriminant and the Newton polygon, and
    otherwise runs Round 2 (_round_two), in time polynomial in n.  It has
    no budget of its own: certify checks one on n^2.

    When p does not divide c, the closure certificate's multiplier,
    alpha = (c*alpha)/c lies in O (x) Z_(p), which therefore contains
    Z_(p)[alpha].  Write n = p^k * u with p not dividing u.  Z_(p)[alpha]
    is free over Z_(p)[alpha^u] on 1, ..., alpha^(u-1), and
    disc(X^u - alpha^u) = +-u^u * (alpha^u)^(u-1) is a unit above p when p
    divides neither u nor m, so Z_(p)[alpha] is p-maximal iff
    Z_(p)[alpha^u] = Z_(p)[X]/(X^(p^k) - m) is; where p | m both X^n - m
    and X^(p^k) - m are Eisenstein.  So Dedekind's criterion (Cohen, A
    Course in Computational Algebraic Number Theory, Theorem 6.1.4) runs
    on f = X^(p^k) - m, and when it finds Z_(p)[alpha^u] p-maximal, so is
    O, and Proved(route="dedekind") is returned with no product formed.

    On f the criterion is one congruence (_dedekind_binomial).  With
    r = m mod p, r^(p^k) = r in F_p, so f mod p = (X - r)^(p^k).  At
    p^k = 1, f is linear, hence square-free mod p.  Otherwise g = X - r is
    the radical and h = (X - r)^(p^k - 1), and the criterion asks that
    F = (g*h - f)/p share no factor with g and h mod p.  Both are powers
    of X - r, so that holds iff F(r) = (m - r^(p^k))/p is prime to p, iff
    p^2 does not divide r^(p^k) - m.  Where p | m (the Eisenstein case),
    r = 0 and F(0) = m/p is prime to p for square-free m.

    Where the criterion does not apply or does not decide, the
    discriminant may: disc(O) = [O_K : O]^2 * disc(O_K), so p divides the
    index only if p^2 divides disc(O) (Cohen, section 6.1).  Its
    valuation is read off the triangular basis (_discriminant_valuation),
    and where it is at most 1, Proved(route="discriminant") is returned
    with no product formed.

    Otherwise the index of Z_(p)[alpha] may be known exactly, and then
    the valuation decides.  O is an order, so O lies in O_K and is
    p-maximal iff v_p(disc O) = v_p(disc O_K) = G - 2*ind_p(X^n - m), with
    G = n*v_p(n) + (n - 1)*v_p(m) that of disc Z[alpha].  By the tensor
    argument above, the p-maximal order of Q(alpha) is free over that of
    Q(alpha^u) on 1, ..., alpha^(u-1), as Z_(p)[alpha] is over
    Z_(p)[alpha^u], so ind_p(X^n - m) = u * ind_p(f) (both are 0 where
    p | m, the two polynomials being Eisenstein).  Where the
    first-order Newton polygon of f along phi = X - r, f's one factor
    mod p, is p-regular (every side separable), Ore's theorem gives
    ind_p(f) = phi_index(polygon, 1) (Ore, Math. Ann. 99, 1928;
    Guardia-Montes-Nart, Trans. AMS 364, 2012).  On that equality
    Proved(route="polygon") is returned with no product formed.  The
    polygon is built only where the valuation is below G, as equality
    needs ind_p(f) > 0, so Z[alpha] at a wild prime goes straight on to
    Round 2, which runs only where every other route fails and alone
    builds counterexamples.
    """
    field = basis.field
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")

    # the multiplier argument needs a genuine order, so that every
    # multiplier found below is integral
    certificate = _structure_constants(basis)
    defect = _order_defect(basis, certificate)
    if defect is not None:
        return Skipped(defect)
    degree = p ** vp_int(p, field.n)
    if certificate.multiplier % p and _dedekind_binomial(field.m, p, degree):
        return Proved(route="dedekind", degree=degree)
    valuation = _discriminant_valuation(basis, p)
    if valuation <= 1:
        return Proved(route="discriminant", degree=field.n)
    gram = _power_basis_valuation(field, p)
    if valuation < gram:
        _, polygon = binomial_polygon(field.m, p, degree)
        index = field.n // degree * phi_index(polygon, 1)
        if all(s.separable for s in polygon.sides) and valuation == gram - 2 * index:
            return Proved(route="polygon", degree=degree)
    return _round_two(basis, p, certificate)


def _subfield(
    field: PureField, local, p: int
) -> tuple[PureField, list[tuple[int, list[tuple[int, int]]]], int]:
    """(field', local', u): Round 2 at p may run on field' and local' in
    place of field and local, n = u * n'.

    Write n = p^k * u with p not dividing u.  The local basis has tensor
    shape when, for every k = a*u + b with 0 <= b < u, element k is
    alpha^b times element a*u, term for term over the same p^v, and
    element a*u has terms only at multiples of u.  Then O (x) Z_(p) is the
    direct sum of the alpha^b * O', b < u, O' spanned by the elements a*u.
    O' is O (x) Z_(p) intersected with K' = Q(alpha^u), an order of
    Q(m^(1/p^k)) with root alpha^u, and O (x) Z_(p) = O'[alpha].  Its local
    basis is that of the elements a*u, exponent t read as t/u.  Where
    n = p^k, where p | m, and where p | c (the reduction mod c^t * p^v
    breaks the shift), field and local come back unchanged with u = 1.
    """
    n, m = field.n, field.m
    k = dict(field.factorization)[p]
    u = n // p ** k
    if u == 1 or m % p == 0:
        return field, local, 1
    reduced = []
    for a in range(0, n, u):
        q, support = local[a]
        if any(t % u for t, _ in support) or not all(
            _is_shift(local[a + b], (q, support), b, 1) for b in range(1, u)
        ):
            return field, local, 1
        reduced.append((q, tuple([(t // u, c) for t, c in support])))
    return _pure_subfield(field, u), reduced, u


def _round_two(
    basis: IntegralBasis, p: int, certificate: ClosureCertificate
) -> MaximalityResult:
    """Round 2 at p on an order: Proved or an explicit counterexample.

    The proof (_multiplier_kernel) runs on the local basis
    b_k' = N_k'(alpha)/p^v of _local_supports, which spans O (x) Z_(p),
    and where _subfield finds that basis in tensor shape, on the degree
    p^k order O' = O (x) Z_(p) intersected with K' = Q(alpha^u),
    u = n/p^k, instead.  There p divides neither u nor m, so over K'
    alpha is a root of X^u - alpha^u, whose discriminant
    +-u^u * (alpha^u)^(u-1) is a unit at every prime above p.  So O/pO is
    etale over O'/pO': its radical is that of O'/pO' times O, u times as
    large, and y = sum_b alpha^b * y_b multiplies I_p into p*I_p exactly
    when every y_b multiplies I_p' into p*I_p'.  O is p-maximal iff O' is,
    and the multipliers mod p are the direct sum of the alpha^b-shifts of
    those of O', whose first reduced kernel vector, the one of least free
    column, is O''s on the columns a*u.

    A survivor y, the first kernel vector, is taken back to the given
    basis and yields the counterexample y/p; its bytes depend on neither
    local basis.
    """
    field = basis.field
    n = field.n
    # the proof runs in coordinates of a Z_(p)-basis of O (x) Z_(p), where
    # an element of O has coordinates in Z_(p)
    local = _local_supports(basis, p, certificate.multiplier)
    subfield, subfield_local, stride = _subfield(field, local, p)
    found = _multiplier_kernel(subfield, subfield_local, p)
    if isinstance(found, Proved):
        return dataclasses.replace(
            found, radical_dimension=stride * found.radical_dimension
        )
    # the first kernel vector of the full system: found on the columns a*u
    kernel = [0] * n
    kernel[::stride] = found

    # the echelon rows span the whole system's row space, whose reduced
    # echelon form, and with it the kernel basis, is unique.  kernel is
    # 1 at the first free column f and 0 above it; the change of basis is
    # triangular with a unit diagonal mod p, so in the given basis the
    # multipliers hold one vector 0 above f, which scaled to 1 at f is
    # kernel[0] of the given-basis system
    supports = _supports(basis)
    numerator, common = _numerator(kernel, local)
    # y = sum u_k b_k' lies in O, so its given-basis coordinates are integers
    coords = _peel(supports, numerator, common)[0]
    u = [0] * n
    for k, c in coords.items():
        u[k] = c % p
    f = max(k for k, c in enumerate(u) if c)
    inverse = pow(u[f], -1, p)
    u = [c * inverse % p for c in u]
    # y / p with y = sum u_k N_k / d_k, taken over p * L, L the lcm of the d_k
    numerator, common = _numerator(u, supports)
    g = math.gcd(p * common, *numerator)
    candidate = BasisElement([c // g for c in numerator], p * common // g)
    if not is_algebraic_integer(field, candidate):
        raise ArithmeticError(
            "internal error: multiplier element failed the integrality recheck"
        )
    return CounterexampleFound(candidate)


def _frobenius_images(field: PureField, local, p: int) -> list[list[tuple[int, int]]]:
    """The local coordinates mod p of each image b_k'^p = N_k'^p / q_k^p,
    q_k = p^v, as their nonzero (j, c) pairs.

    Each N_k'^p is formed by square-and-multiply mod
    M_k = p^(1+w) * q_k^p, about 2*log2(p) products of bounded integers,
    with w the sum of v_p(l_j) over the leads l_j of the local basis.
    That is enough precision: N_k'^p = R + M_k * X with X an integer
    polynomial, so b_k'^p = R/q_k^p + p^(1+w) * X(alpha).  Peeling an
    integer polynomial from the top degree down divides its remainder by
    l_j at each degree j, so X(alpha) has local coordinates with
    denominators dividing the product of the l_j, in p^(-w) * Z_(p), and
    p^(1+w) * X(alpha) has them in p * Z_(p): R/q_k^p has the coordinates
    of b_k'^p mod p.  w is 0 unless some lead is divisible by p, as where
    p | c and alpha is not in the order.
    """
    leads = math.prod(support[-1][1] for _, support in local)
    precision = p ** (1 + vp_int(p, leads))
    images = []
    for q, support in local:
        image = _power_mod(field, support, p, precision * q ** p)
        coords, scale = _peel(local, image, q ** p)
        if scale != 1:
            coords = _residues(coords, scale, p)
        images.append([(j, r) for j, c in coords.items() if (r := c % p)])
    return images


def _multiplier_kernel(field: PureField, local, p: int) -> Proved | tuple[int, ...]:
    """Round 2 at p on the order spanned by a local basis: Proved, or the
    first vector of the multiplier kernel in that basis's coordinates.

    With I_p the p-radical ideal, the order is p-maximal exactly when
    {y : y*I_p in p*I_p} collapses to p*O, and any survivor y yields the
    explicit counterexample y/p, an element of one of the p^n cosets.

    Everything is built on integers, each product formed in the power
    basis on integer numerators when it is needed and peeled once against
    a triangular basis, the local one.  There the coordinates of an
    element of O have denominators prime to p; coordinates with one are
    read mod p, or mod p^2 where they are to be peeled against I_p, which
    contains pO.  The radical is the kernel of a Frobenius power, fixed by
    the images b_k'^p mod p (_frobenius_images).  Since I_p is an ideal,
    y multiplies all of it into p*I_p once it does so for a set of
    O-module generators, p*1 and the radical vectors.  The condition p*1
    imposes is y in I_p, whose rows are those of the Frobenius-power
    system, so the echelon that yields the radical is also the multiplier
    system's first n conditions.  Each radical vector's products are
    peeled twice: against the local basis, for their coordinates, and
    then against the Hermite basis of I_p, taken from the radical vectors
    and the p*e_j at the echelon's pivot columns, which is triangular
    too; a product that needs a denominator there has left I_p, which an
    ideal cannot allow.  Their conditions are fed one by one to
    exactmath.fp_reduce, and the proof stops at full rank.  Both systems
    go to it as packed rows, one int per row with a lane per basis
    element, written straight from the sparse entries: the radical's
    columns from the Frobenius-power rows, and each radical vector's n
    conditions from its n peeled products.  Both kernels, the radical and
    the multipliers, are read off the one reduced echelon form that
    fp_reduce keeps.  A Proved carries the radical's dimension and the
    number of radical vectors multiplied.

    A counterexample stops the system early.  After each radical vector's
    conditions, y, the first vector of the current kernel, is checked on
    each radical vector v not yet fed: y*v in p*I_p, one product and two
    peels each (_ideal_coordinates).  If every check passes, y is a
    multiplier, and it is the full system's first kernel vector: the full
    system's rows contain the partial system's, so its free columns are
    among the partial system's, and y, 1 at the least of those and 0 at
    the others, is the full kernel's vector in reduced form, which is
    unique.  On a p-maximal order the full kernel is 0, so no check
    passes and the proof, with its generators count, is the one that
    feeds every radical vector (Cohen, Algorithm 6.1.8); elsewhere both
    end at the same y.
    """
    n = field.n

    # the p-radical of O/pO is the kernel of a Frobenius power: x nilpotent
    # iff x^(p^e) = 0 once p^e >= n, and x -> x^p is F_p-linear, so it is
    # fixed by the images b_k^p
    frobenius = _frobenius_images(field, local, p)
    e = 1
    while p ** e < n:
        e += 1
    # row k of the power is the image of b_k under x -> x^(p^e)
    power = frobenius
    for _ in range(e - 1):
        power = [_product_mod_p(row, frobenius, p) for row in power]
    # column j, sum_i x_i * power[i][j] = 0, is one condition of x in I_p,
    # written from the sparse rows straight into one packed int
    lanes = fp_lanes(n, p)
    echelon: dict[int, tuple[int, Sequence[int]]] = {}
    for column in lanes.columns(power):
        # a zero column is no condition, and would leave the echelon as it is
        if column:
            fp_reduce(echelon, column, lanes)
    radical = fp_kernel(echelon, lanes)
    if not radical:
        # O/pO has no nilpotents, so no x/p with x outside pO can be integral
        return Proved(0, 0, degree=n)

    # I_p = pO + radical lifts, as a full-rank sublattice in local
    # coordinates.  Each radical vector is 1 at its free column and 0 at
    # the others, so p*e_j at a free column j is p times a radical vector
    # less multiples of the p*e_j at pivot columns: those p*e_j and the
    # radical vectors, n rows in all, span the lattice
    ideal_rows = [[p * int(i == j) for j in range(n)] for i in echelon]
    ideal_rows.extend(list(v) for v in radical)
    # the lattice contains p*Z^n, so its lower-triangular HNF has every
    # diagonal entry in {1, p}, and its rows peel like a triangular basis
    ideal = [
        (1, [(t, c) for t, c in enumerate(row[:j + 1]) if c])
        for j, row in enumerate(hnf_rows(ideal_rows, n))
    ]

    # y is a multiplier when y*g lands in p*I_p for every generator g of
    # I_p; in I_p-coordinates that is one mod-p linear system on y.  The
    # generator p*1 asks for y*p in p*I_p, that is y in I_p: the echelon
    # above already holds those conditions.  A Hermite row p*e_j adds
    # nothing, y*p*b_j lying in p*I_p for every y in I_p, so only the
    # radical vectors remain.  Their conditions go one by one into the same
    # reduced echelon form of at most n rows, and the proof ends once the
    # multipliers are down to p*O
    def terms(g):
        # g = M(alpha)/L as (M's nonzero terms, L), taken where it is used:
        # most proofs end inside the first radical vector's conditions
        numerator, common = _numerator(g, local)
        return [(t, c) for t, c in enumerate(numerator) if c], common

    for generators, g in enumerate(radical, 1):
        # g * b_k' = M(alpha) * N_k'(alpha) / (L * p^v): one condition per
        # I_p-coordinate t, sum_k y_k * rows[k][t] = 0 mod p, column t of
        # the rows, packed
        numerator, common = terms(g)
        rows = [
            _ideal_coordinates(field, local, ideal, numerator, common, support, q, p).items()
            for q, support in local
        ]
        for condition in lanes.columns(rows):
            if fp_reduce(echelon, condition, lanes) and len(echelon) == n:
                return Proved(len(radical), generators, degree=n)
        # y, the current kernel's first vector, is the full system's once
        # it multiplies each radical vector not yet fed into p*I_p (the
        # docstring has why); after the last vector none is left to check
        y = fp_kernel(echelon, lanes)[0]
        y_terms, y_common = terms(y)
        if not any(
            c % p
            for v in radical[generators:]
            for c in _ideal_coordinates(
                field, local, ideal, y_terms, y_common, *terms(v), p
            ).values()
        ):
            break
    return y


def _ideal_coordinates(field: PureField, local, ideal, a, d: int, b, e: int, p: int):
    """The I_p-coordinates {k: c} of (a(alpha)/d) * (b(alpha)/e), which
    lies in I_p, one factor being in O and the other in I_p; a and b are
    given by their nonzero (t, c) pairs.

    The product is peeled twice: against the local basis, where its
    coordinates have denominators prime to p and are read mod p^2
    (p^2*O lies in p*I_p, since I_p contains p*O, so they fix the
    I_p-coordinates mod p), and then against the Hermite basis of I_p,
    where a denominator would mean the product left the ideal.
    """
    coords, scale = _peel(local, _product(field, a, b), d * e)
    if scale != 1:
        coords = _residues(coords, scale, p * p)
    rem = [0] * field.n
    for k, c in coords.items():
        rem[k] = c
    coords, scale = _peel(ideal, rem, 1)
    if scale != 1:
        raise ArithmeticError("internal error: product left the radical ideal")
    return coords


# --- certification ----------------------------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of every oracle check; failures are entries, not exceptions."""

    integrality: tuple[bool, ...]
    ring_closed: bool
    disc_match: bool
    maximality: dict[int, MaximalityResult]

    @property
    def failures(self) -> tuple[str, ...]:
        """The checks that failed, in the order they run."""
        failed = []
        if not all(self.integrality):
            failed.append("integrality")
        if not self.ring_closed:
            failed.append("ring closure")
        if not self.disc_match:
            failed.append("discriminant accounting")
        for p, result in sorted(self.maximality.items()):
            if isinstance(result, CounterexampleFound):
                failed.append(f"p-maximality at {p}")
        return tuple(failed)

    @property
    def certified(self) -> bool:
        # all checks pass or are explicitly skipped
        return not self.failures


def certify(
    basis: IntegralBasis, *, enum_budget: int = ENUM_BUDGET_DEFAULT
) -> CertificationReport:
    """Run every check against a claimed integral basis.

    Integrality of each element, closure under multiplication, agreement
    of the trace-pairing discriminant with the index ledger, and
    p-maximality for every prime dividing the degree; on an order, each
    prime q of the multiplier c that does not divide the degree adds a
    counterexample at q.  A lattice that is closed and contains 1 is an
    order, so each of its elements is integral; only a lattice that is not
    an order has its elements tested one by one, with the characteristic
    polynomial as the last resort.  Each q-local verdict of that test is
    kept, for this call only, under (q^a, g, the local numerator less its
    power of alpha), the reduction is_algebraic_integer proves, so
    elements that reduce alike, as a shifted element and the one below it
    do, take one characteristic polynomial.  When the work measure n^2
    exceeds enum_budget, no p-maximality proof runs: every p | n is
    Skipped with the same reason.
    """
    field = basis.field
    over_budget = budget_skip_reason(field.n, enum_budget)
    certificate = _structure_constants(basis)
    defect = _order_defect(basis, certificate)
    ring_closed = defect != _NOT_CLOSED
    if defect is None:
        integrality = (True,) * field.n
    else:
        # q-local verdicts, shared by this call's elements only
        verdicts: dict = {}
        integrality = tuple(
            is_algebraic_integer(field, e, _verdicts=verdicts) for e in basis.elements
        )
    disc = _discriminant_exact(basis)
    disc_match = disc == index_report(field).field_discriminant
    maximality = {
        p: Skipped(over_budget) if over_budget else p_maximality_enum(basis, p)
        for p, _ in field.factorization
    }
    if defect is None:
        # at q not dividing n, Z_(q)[alpha] is q-maximal: X^n - m is
        # Eisenstein at q | m and separable mod q otherwise.  So O is
        # q-maximal iff alpha lies in O (x) Z_(q), that is iff q does not
        # divide c; (c/q)*alpha is integral and lies in (1/q)*O, and not in
        # O, c being least
        c = certificate.multiplier
        for q, _ in factorize(c) if c > 1 else ():
            if field.n % q:
                maximality[q] = CounterexampleFound(BasisElement([0, c // q], 1))
    return CertificationReport(integrality, ring_closed, disc_match, maximality)


def certification_json_dict(report: CertificationReport) -> dict:
    """JSON-ready description of a certification report."""
    maximality: dict[str, dict] = {}
    for p, result in sorted(report.maximality.items()):
        if isinstance(result, Proved):
            maximality[str(p)] = {"status": "proved"}
        elif isinstance(result, Skipped):
            maximality[str(p)] = {"status": "skipped", "reason": result.reason}
        else:
            # num is padded to the n coordinates, one per integrality entry
            num = list(result.element.int_numerator)
            num += [0] * (len(report.integrality) - len(num))
            maximality[str(p)] = {
                "status": "counterexample",
                "element": {"num": num, "den": result.element.denominator},
            }
    return {
        "integrality": list(report.integrality),
        "ring_closed": report.ring_closed,
        "disc_match": report.disc_match,
        "maximality": maximality,
        "certified": report.certified,
    }
