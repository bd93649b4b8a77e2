"""Exact dense linear algebra over any field whose elements support +,-,*,/ and truthiness.

Pivoting is deterministic: leftmost column, first nonzero row, no scaling
tricks, so repeated runs report identical ranks and bases.
"""
from __future__ import annotations

from collections.abc import Sequence

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers take it as True
if TYPE_CHECKING:
    from typing import TypeVar

    T = TypeVar("T")

Matrix = list  # list[list[T]]


def _clone(m: Sequence[Sequence[T]]) -> Matrix:
    return [list(row) for row in m]


def row_reduce(m: Sequence[Sequence[T]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (in place on a copy). Returns (rref, pivot columns)."""
    a = _clone(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for k in range(r, rows):
            if a[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for k in range(rows):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Sequence[Sequence[T]]) -> int:
    return len(row_reduce(m)[1])


def nullspace(m: Sequence[Sequence[T]], one: T, zero: T) -> list[list[T]]:
    """Basis of the right nullspace, one vector per free column."""
    rows = len(m)
    if rows == 0:
        return []
    n = len(m[0])
    red, pivots = row_reduce(m)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(m: Sequence[Sequence[T]], one: T, zero: T) -> Matrix:
    """Exact inverse of a square matrix; ValueError when singular."""
    n = len(m)
    aug = [list(m[r]) + [one if c == r else zero for c in range(n)] for r in range(n)]
    red, pivots = row_reduce(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def mat_mul(a: Sequence[Sequence[T]], b: Sequence[Sequence[T]], zero: T) -> Matrix:
    """a b, summing over the nonzeros of a's rows and b's rows only; an entry with no term is zero."""
    cols, b_rows = len(b[0]), [[(c, y) for c, y in enumerate(row) if y] for row in b]
    out = []
    for a_row in a:
        row = [zero] * cols
        for k, x in enumerate(a_row):
            if x:
                for c, y in b_rows[k]:
                    row[c] = row[c] + x * y
        out.append(row)
    return out


def mat_eq(a: Sequence[Sequence[T]], b: Sequence[Sequence[T]]) -> bool:
    return all(len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)) and len(a) == len(b)
