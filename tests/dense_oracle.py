"""Dense exact RREF: the independent reference engine for the tests.

RationalMatrix/rref_rank compute quotient dimensions the direct way, and
nullspace gives the canonical kernel basis; RREF output is canonical (unique
for a given matrix), with pivot columns strictly increasing.  The library
itself uses only the sparse echelons of linalg, so these serve as their
oracle.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

Q = Fraction


class RationalMatrix:
    """Dense rectangular matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        data = [[Q(x) for x in row] for row in entries]
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self.entries = data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[Q(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.entries[i][i] = Q(1)
        return m

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)]
        )

    def column(self, c: int) -> List[Q]:
        return [self.entries[r][c] for r in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"RationalMatrix[{self.rows}x{self.cols}: {body}]"


def rref_rank(matrix: RationalMatrix) -> Tuple[int, List[int], RationalMatrix]:
    """Reduced row-echelon form with exact arithmetic.

    Returns (rank, pivot column indices, reduced matrix).  Pivot search scans
    columns left to right, taking the first row with a nonzero entry
    (lowest row, lowest column) -- RREF is unique, so the scan order only
    fixes the elimination path.
    """
    work = [row[:] for row in matrix.entries]
    rows, cols = matrix.rows, matrix.cols
    pivots: List[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        src = next(
            (r for r in range(pivot_row, rows) if work[r][col]),
            None,
        )
        if src is None:
            continue
        if src != pivot_row:
            work[pivot_row], work[src] = work[src], work[pivot_row]
        lead = work[pivot_row][col]
        if lead != 1:
            work[pivot_row] = [x / lead for x in work[pivot_row]]
        for r in range(rows):
            if r != pivot_row and work[r][col]:
                factor = work[r][col]
                row_r, row_p = work[r], work[pivot_row]
                for c in range(col, cols):
                    if row_p[c]:
                        row_r[c] -= factor * row_p[c]
        pivots.append(col)
        pivot_row += 1
    return len(pivots), pivots, RationalMatrix(work)


def nullspace(matrix: RationalMatrix) -> List[List[Q]]:
    """Canonical kernel basis (one vector per free column, free entry = 1)."""
    rank, pivots, red = rref_rank(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Q(0)] * matrix.cols
        vec[f] = Q(1)
        for r, p in enumerate(pivots):
            vec[p] = -red.entries[r][f]
        basis.append(vec)
    return basis
