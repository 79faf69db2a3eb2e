"""Square matrices of BiLaurent entries: bundle transition matrices.

All transition matrices in this library follow one orientation convention:
they express how U-frame data is read in V, i.e. a section with U-component
s_U has V-component s_V = T * s_U on the chart overlap, and the line bundle
with first Chern class n has transition (z^-n).  A matrix usable as a
transition must have unit-monomial determinant c * z^a, which makes it
exactly invertible over the Laurent ring.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from .errors import NonUnitDeterminant
from .laurent import BiLaurent, Q


class PolyMatrix:
    """Immutable square matrix over the bivariate Laurent ring."""

    __slots__ = ("entries", "size")

    def __init__(self, rows: Sequence[Sequence[BiLaurent]]):
        size = len(rows)
        norm = []
        for row in rows:
            if len(row) != size:
                raise ValueError("matrix must be square")
            norm.append(tuple(
                p if isinstance(p, BiLaurent) else BiLaurent.const(p)
                for p in row
            ))
        object.__setattr__(self, "entries", tuple(norm))
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, size: int) -> "PolyMatrix":
        one, nil = BiLaurent.const(1), BiLaurent.zero()
        return cls([
            [one if i == j else nil for j in range(size)] for i in range(size)
        ])

    @classmethod
    def diagonal(cls, diag: Sequence[BiLaurent]) -> "PolyMatrix":
        nil = BiLaurent.zero()
        return cls([
            [diag[i] if i == j else nil for j in range(len(diag))]
            for i in range(len(diag))
        ])

    def __getitem__(self, key: Tuple[int, int]) -> BiLaurent:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.size == other.size
            and self.entries == other.entries
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        n = self.size
        return PolyMatrix([
            [
                sum(
                    (self.entries[i][k] * other.entries[k][j] for k in range(n)),
                    BiLaurent.zero(),
                )
                for j in range(n)
            ]
            for i in range(n)
        ])

    def apply(self, vector: Sequence[BiLaurent]) -> Tuple[BiLaurent, ...]:
        if len(vector) != self.size:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(
                (self.entries[i][k] * vector[k] for k in range(self.size)),
                BiLaurent.zero(),
            )
            for i in range(self.size)
        )

    def map_entries(self, fn: Callable[[BiLaurent], BiLaurent]) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries])

    def det(self) -> BiLaurent:
        n = self.size
        if n == 1:
            return self.entries[0][0]
        total = BiLaurent.zero()
        for j in range(n):
            entry = self.entries[0][j]
            if entry.is_zero:
                continue
            minor = PolyMatrix([
                [row[c] for c in range(n) if c != j]
                for row in self.entries[1:]
            ])
            cofactor = entry * minor.det()
            total = total + (cofactor if j % 2 == 0 else -cofactor)
        return total

    def unit_det(self) -> Tuple[Q, int]:
        """Determinant as (coeff, z-exponent); error when it is not c*z^a."""
        d = self.det()
        unit = d.as_unit_monomial()
        if unit is None or unit[2] != 0:
            raise NonUnitDeterminant(f"determinant {d} is not of the form c*z^a")
        return unit[0], unit[1]

    def inverse(self) -> "PolyMatrix":
        """Exact inverse via adjugate / determinant (unit determinant only)."""
        coeff, z_exp = self.unit_det()
        inv_det = BiLaurent.term(Q(1) / coeff, -z_exp, 0)
        n = self.size
        if n == 1:
            return PolyMatrix([[inv_det]])
        adj = [[BiLaurent.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = PolyMatrix([
                    [self.entries[r][c] for c in range(n) if c != j]
                    for r in range(n) if r != i
                ])
                cof = minor.det()
                if (i + j) % 2:
                    cof = -cof
                adj[j][i] = cof * inv_det
        return PolyMatrix(adj)

    def __str__(self):
        rows = ["[" + ", ".join(str(p) for p in row) + "]" for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"PolyMatrix({self})"
