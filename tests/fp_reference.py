"""The list-based F_p elimination, for tests only.

The library packs each row over F_p into one int, one lane per column.
This is the route it replaced, kept to cross-check it: rows are plain
lists of residues, and every step of the reduction is a list
comprehension over all columns.
"""

from __future__ import annotations

from typing import Sequence


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
