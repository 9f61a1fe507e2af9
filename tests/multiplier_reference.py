"""Round 2's multiplier system with every radical vector fed, for tests only.

oracle._multiplier_kernel stops at the first kernel vector y that already
multiplies the radical vectors not yet fed into p*I_p.  This is the loop
it replaced, kept to cross-check it: the conditions of every radical
vector go into the reduced echelon form, and only then is the kernel
read.  Result types, radical dimensions, generators and counterexamples
must agree.
"""

from __future__ import annotations

from typing import Sequence

from purefields.exactmath import fp_kernel, fp_lanes, fp_reduce, hnf_rows
from purefields.oracle import (
    Proved,
    _frobenius_images,
    _numerator,
    _peel,
    _product,
    _product_mod_p,
    _residues,
)
from purefields.purebasis import PureField


def multiplier_kernel(field: PureField, local, p: int) -> Proved | tuple[int, ...]:
    """oracle._multiplier_kernel, feeding every radical vector before the
    kernel is read."""
    n = field.n
    frobenius = _frobenius_images(field, local, p)
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
        return Proved(0, 0, degree=n)

    ideal_rows = [[p * int(i == j) for j in range(n)] for i in echelon]
    ideal_rows.extend(list(v) for v in radical)
    ideal = [
        (1, [(t, c) for t, c in enumerate(row[:j + 1]) if c])
        for j, row in enumerate(hnf_rows(ideal_rows, n))
    ]
    for generators, g in enumerate(radical, 1):
        numerator, common = _numerator(g, local)
        numerator = [(t, c) for t, c in enumerate(numerator) if c]
        rows = []
        for q, support in local:
            coords, scale = _peel(local, _product(field, numerator, support), common * q)
            if scale != 1:
                coords = _residues(coords, scale, p * p)
            rem = [0] * n
            for k, c in coords.items():
                rem[k] = c
            coords, scale = _peel(ideal, rem, 1)
            if scale != 1:
                raise ArithmeticError("internal error: product left the radical ideal")
            rows.append(coords.items())
        for condition in lanes.columns(rows):
            if fp_reduce(echelon, condition, lanes) and len(echelon) == n:
                return Proved(len(radical), generators, degree=n)
    return fp_kernel(echelon, lanes)[0]
