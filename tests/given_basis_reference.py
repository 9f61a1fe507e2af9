"""p-maximality in coordinates of the given basis, for tests only.

The library's Round 2 (oracle._round_two) runs on a Z_(p)-basis derived
from the given one, whose numerators are reduced mod c^t * p^v.  This is
the route it replaced, kept to cross-check it: every Frobenius image and
multiplier product is formed on the given numerators N_k(alpha)/d_k and
peeled against the given basis, where an element of the order has integer
coordinates.  Verdicts, radical dimensions and counterexamples must agree.
"""

from __future__ import annotations

import math
from typing import Sequence

from purefields.exactmath import fp_kernel, fp_lanes, fp_reduce, hnf_rows, is_prime
from purefields.oracle import (
    CounterexampleFound,
    MaximalityResult,
    Proved,
    Skipped,
    _numerator,
    _order_defect,
    _peel,
    _product,
    _product_mod_p,
    _structure_constants,
    _supports,
    is_algebraic_integer,
)
from purefields.purebasis import BasisElement, IntegralBasis, PureField


def _power(field: PureField, support, e: int) -> list[int]:
    # N(alpha)^e exactly, dense: one shift for a monomial N, else e - 1
    # products with N; e >= 2
    if len(support) == 1:
        (t, c), = support
        power = [0] * field.n
        power[t * e % field.n] = c ** e * field.m ** (t * e // field.n)
        return power
    power = _product(field, support, support)
    for _ in range(e - 2):
        power = _product(field, [(t, c) for t, c in enumerate(power) if c], support)
    return power


def p_maximality_enum(basis: IntegralBasis, p: int) -> MaximalityResult:
    """oracle.p_maximality_enum without Dedekind's criterion, Round 2
    always, with every product peeled against the given basis: the radical from the Frobenius images b_k^p, the Hermite
    basis of I_p from it, and the multiplier conditions of each radical
    vector fed to one reduced echelon form until it reaches rank n."""
    field = basis.field
    n = field.n
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    defect = _order_defect(basis, _structure_constants(basis))
    if defect is not None:
        return Skipped(defect)
    supports = _supports(basis)

    frobenius = []
    for d, support in supports:
        image = _peel(supports, _power(field, support, p), d ** p)[0]
        frobenius.append([(t, r) for t, c in image.items() if (r := c % p)])
    e = 1
    while p ** e < n:
        e += 1
    power = frobenius
    for _ in range(e - 1):
        power = [_product_mod_p(row, frobenius, p) for row in power]
    lanes = fp_lanes(n, p)
    echelon: dict[int, tuple[int, Sequence[int]]] = {}
    for column in lanes.columns(power):
        if column:
            fp_reduce(echelon, column, lanes)
    radical = fp_kernel(echelon, lanes)
    if not radical:
        return Proved(0, 0)

    ideal_rows = [[p * int(i == j) for j in range(n)] for i in echelon]
    ideal_rows.extend(list(v) for v in radical)
    ideal = [
        (1, [(t, c) for t, c in enumerate(row[:j + 1]) if c])
        for j, row in enumerate(hnf_rows(ideal_rows, n))
    ]
    for generators, g in enumerate(radical, 1):
        numerator, common = _numerator(g, supports)
        numerator = [(t, c) for t, c in enumerate(numerator) if c]
        rows = []
        for d, support in supports:
            coords = _peel(supports, _product(field, numerator, support), common * d)[0]
            rem = [0] * n
            for k, c in coords.items():
                rem[k] = c
            coords, scale = _peel(ideal, rem, 1)
            if scale != 1:
                raise ArithmeticError("internal error: product left the radical ideal")
            rows.append(coords.items())
        for condition in lanes.columns(rows):
            if fp_reduce(echelon, condition, lanes) and len(echelon) == n:
                return Proved(len(radical), generators)

    kernel = fp_kernel(echelon, lanes)
    numerator, common = _numerator(kernel[0], supports)
    g = math.gcd(p * common, *numerator)
    candidate = BasisElement([c // g for c in numerator], p * common // g)
    if not is_algebraic_integer(field, candidate):
        raise ArithmeticError(
            "internal error: multiplier element failed the integrality recheck"
        )
    return CounterexampleFound(candidate)
