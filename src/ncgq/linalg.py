"""Exact dense linear algebra over any field whose elements support +,-,*,/ and truthiness.

Pivoting is deterministic: leftmost column, first nonzero row, no scaling
tricks, so repeated runs report identical solutions.
"""
from __future__ import annotations

from collections.abc import Sequence

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers take it as True
if TYPE_CHECKING:
    from typing import TypeVar

    T = TypeVar("T")

Matrix = list  # list[list[T]]


class LinearSolveError(ValueError):
    def __init__(self, message: str, rank: int, n_unknowns: int):
        super().__init__(message)
        self.rank = rank
        self.n_unknowns = n_unknowns


class InconsistentSystem(LinearSolveError):
    pass


class UnderdeterminedSystem(LinearSolveError):
    pass


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


def solve_unique(a: Sequence[Sequence[T]], b: Sequence[T], zero: T) -> list[T]:
    """Solve a x = b requiring a unique solution; exact residuals guaranteed.

    Raises InconsistentSystem / UnderdeterminedSystem carrying the rank defect.
    """
    rows = len(a)
    if rows == 0:
        raise UnderdeterminedSystem("empty system", 0, 0)
    n = len(a[0])
    aug = [list(row) + [b[k]] for k, row in enumerate(a)]
    red, pivots = row_reduce(aug)
    if n in pivots:
        raise InconsistentSystem(
            f"inconsistent linear system (rank {len(pivots) - 1} of {n} unknowns)",
            len(pivots) - 1,
            n,
        )
    if len(pivots) < n:
        raise UnderdeterminedSystem(
            f"solution not unique (rank {len(pivots)} of {n} unknowns)", len(pivots), n
        )
    x = [zero] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return x


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
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = zero
            for k in range(inner):
                if a[r][k] and b[k][c]:
                    acc = acc + a[r][k] * b[k][c]
            row.append(acc)
        out.append(row)
    return out


def mat_eq(a: Sequence[Sequence[T]], b: Sequence[Sequence[T]]) -> bool:
    return all(len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)) and len(a) == len(b)
