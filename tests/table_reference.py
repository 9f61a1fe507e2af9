"""The structure-constant table and its Gram discriminant, for tests only.

The library decides closure from n shifts and a few generator products,
forms the products p-maximality needs when it needs them, and reads the
discriminant off the triangular transition matrix.  These are the routes
it replaced, kept to cross-check it: every product b_i * b_j as integer
coordinates over their least common denominator D, and the discriminant
as the determinant of the trace Gram matrix built from that table,
compared against the transition-matrix route.  The closure certificate
itself, with every shift c*alpha*b_i formed and peeled and every
generator product taken, b_0's included, is closure_certificate_by_products,
which the library's read-off of shifts from the supports is checked
against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from purefields.exactmath import det_int
from purefields.oracle import (
    ClosureCertificate,
    _peel,
    _power_basis_discriminant,
    _product,
    _supports,
)
from purefields.purebasis import IntegralBasis

StructureTable = tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]


def structure_constants(basis: IntegralBasis) -> StructureTable:
    """(D, rows): rows[i][j] holds the nonzero coordinates of b_i * b_j as
    (k, c) pairs, k ascending, each coordinate being c / D.

    With b_i = N_i(alpha)/d_i, each product is taken on the integer
    numerators, alpha^n = m folded in as it is formed, and peeled off
    against the triangular basis from the top degree down over one common
    denominator; the peel stops only at nonzero coordinates, so the sparse
    form comes with it.  D is the least common denominator of every
    coordinate, so D == 1 exactly when the lattice is closed under
    multiplication.
    """
    n, m = basis.field.n, basis.field.m
    nums = [e.int_numerator for e in basis.elements]
    dens = [e.denominator for e in basis.elements]
    support = [[(a, x) for a, x in enumerate(num) if x] for num in nums]
    below = [[(t, x) for t, x in enumerate(num[:-1]) if x] for num in nums]
    # each product as (nonzero coordinates, denominator) in lowest terms
    products: list[list[tuple[list[tuple[int, int]], int]]] = [
        [([], 1)] * n for _ in range(n)
    ]
    common = 1
    for i in range(n):
        for j in range(i, n):
            # the product is rem/scale; rem stays an integer vector
            rem = [0] * n
            for a, x in support[i]:
                for b, y in support[j]:
                    if a + b < n:
                        rem[a + b] += x * y
                    else:
                        rem[a + b - n] += m * x * y
            scale = dens[i] * dens[j]
            coords: list[tuple[int, int]] = []
            for k in range(n - 1, -1, -1):
                if rem[k]:
                    lead = nums[k][k]
                    g = lead // math.gcd(rem[k], lead)
                    if g != 1:
                        rem = [r * g for r in rem]
                        coords = [(t, c * g) for t, c in coords]
                        scale *= g
                    # rem[k] != 0, so the quotient and the coordinate are too
                    q = rem[k] // lead
                    coords.append((k, q * dens[k]))
                    for t, c in below[k]:
                        rem[t] -= q * c
            coords.reverse()
            if scale != 1:
                g = math.gcd(scale, *(c for _, c in coords))
                if g != 1:
                    coords = [(k, c // g) for k, c in coords]
                    scale //= g
            products[i][j] = products[j][i] = (coords, scale)
            common = math.lcm(common, scale)
    rows = tuple(
        tuple(
            tuple(coords) if scale == common
            else tuple((k, c * (common // scale)) for k, c in coords)
            for coords, scale in row
        )
        for row in products
    )
    return common, rows


def gram_discriminant(basis: IntegralBasis, table: StructureTable) -> int | Fraction:
    """Trace-pairing discriminant from the table, cross-checked.

    The Gram matrix comes from the structure constants, Tr(b_i b_j) =
    sum_k c_ijk Tr(b_k), and stays on integers: with the table's common
    denominator D and the traces Tr(b_k) = t_k / L over their common
    denominator L (1 on an order, as on every integral lattice), the
    entries are G_ij / (D L) with G integral, so the discriminant is
    det_int(G) / (D L)^n.  It must equal the power-basis Gram determinant
    times the squared transition determinant (triangular, so the product
    of leading coefficients over the product of denominators); the two
    are compared cross-multiplied, and disagreement raises.  The result
    is an int whenever it is an integer.
    """
    n = basis.field.n
    common, rows = table
    nums = [e.int_numerator for e in basis.elements]
    dens = [e.denominator for e in basis.elements]
    # Tr(N(alpha)/d) = n * N_0 / d, the power-basis trace form being diagonal
    scale = math.lcm(*(d // math.gcd(n * num[0], d) for num, d in zip(nums, dens)))
    traces = {
        k: n * num[0] * scale // d for k, (num, d) in enumerate(zip(nums, dens)) if num[0]
    }
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(
                c * traces[k] for k, c in rows[i][j] if k in traces
            )
    det = det_int(gram)
    gram_scale = (common * scale) ** n

    leads = math.prod(num[i] for i, num in enumerate(nums))
    power_disc = _power_basis_discriminant(basis.field)
    if det * math.prod(dens) ** 2 != power_disc * leads ** 2 * gram_scale:
        raise ArithmeticError(
            "internal error: Gram and transition-matrix discriminants disagree"
        )
    if det % gram_scale:
        return Fraction(det, gram_scale)
    return det // gram_scale


def closure_certificate_by_products(basis: IntegralBasis) -> ClosureCertificate:
    """oracle._structure_constants with no read-off: the n shifts by
    beta = c*alpha each formed and peeled, G = 0 and every i where the
    coordinate of beta*b_(i-1) on b_i is not +-1, and the products
    b_g*b_h, g <= h in G, peeled when every shift lies in the lattice."""
    field = basis.field
    n = field.n
    supports = _supports(basis)
    c = _peel(supports, [0, 1] + [0] * (n - 2), 1)[1]
    generators = [0]
    closed = True
    for i, (d, support) in enumerate(supports):
        coords, scale = _peel(supports, _product(field, [(1, c)], support), d)
        closed = closed and scale == 1
        if i + 1 < n and abs(coords.get(i + 1, 0)) != scale:
            generators.append(i + 1)
    if closed:
        pairs = [(supports[g], supports[h]) for g in generators for h in generators if g <= h]
        closed = all(
            _peel(supports, _product(field, a, b), d * e)[1] == 1
            for (d, a), (e, b) in pairs
        )
    return ClosureCertificate(c, tuple(generators), closed)
