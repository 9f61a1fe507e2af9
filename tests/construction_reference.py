"""Composite-degree construction by one CRT step per degree, for tests only.

The library's compose_bases builds element k as alpha times element k - 1
wherever every piece's stretched element of degree k is X times the one
of degree k - 1 over the same denominator, and runs a CRT step only at
the other degrees.  This is the route it replaced, kept to cross-check
it: a coefficient-wise CRT step at every degree.  The two must agree
element for element.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from purefields.purebasis import BasisElement, IntegralBasis, PureField


def compose_bases_by_crt(bases: Sequence[IntegralBasis], m: int) -> IntegralBasis:
    """compose_bases for two or more pieces of pairwise coprime degree:
    element k is C/U, U the product of the pieces' degree-k denominators
    u_i and C_j the CRT representative in [0, U) of their numerators'
    coefficients mod u_i."""
    degrees = [basis.field.n for basis in bases]
    n = math.prod(degrees)
    merged = tuple(sorted(f for basis in bases for f in basis.field.factorization))
    strides = [n // n_i for n_i in degrees]
    pieces = [
        [(e.int_numerator, e.denominator) for e in basis.elements]
        for basis in bases
    ]
    elements = []
    for k in range(n):
        terms = [(s, k % s, *rows[k // s]) for s, rows in zip(strides, pieces)]
        modulus = math.prod(u for *_, u in terms)
        coeffs = [0] * (k + 1)
        for stride, shift, num, u in terms:
            # the idempotent that is 1 mod u and 0 mod every other u_i
            cofactor = modulus // u
            idempotent = cofactor * pow(cofactor, -1, u)
            for j, c in enumerate(num):
                coeffs[shift + j * stride] += c * idempotent
        coeffs = [c % modulus for c in coeffs]
        if coeffs[k] == 0:
            # U = 1: the representative range [0, 1) collapses; keep degree k
            coeffs[k] = modulus
        elements.append(BasisElement(coeffs, modulus))
    return IntegralBasis(PureField(n, m, merged), tuple(elements))
