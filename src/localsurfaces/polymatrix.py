"""Square matrices of BiLaurent entries: bundle transition matrices.

All transition matrices in this library follow one orientation convention:
they express how U-frame data is read in V, i.e. a section with U-component
s_U has V-component s_V = T * s_U on the chart overlap, and the line bundle
with first Chern class n has transition (z^-n).  A matrix usable as a
transition must have unit-monomial determinant c * z^a, which makes it
exactly invertible over the Laurent ring.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .errors import NonUnitDeterminant
from .laurent import BiLaurent, Q, Terms, _merge_tags, _raw


class PolyMatrix:
    """Immutable square matrix over the bivariate Laurent ring."""

    __slots__ = ("entries", "size")

    def __init__(self, rows: Sequence[Sequence[BiLaurent]]):
        size = len(rows)
        if not size:
            raise ValueError("matrix must not be empty")
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
        """Determinant by cofactor expansion along the first row (_det),
        summed on term dicts.  The minors are tuples of row slices, not
        PolyMatrix values: their entries are this matrix's, checked when
        it was built."""
        return _det(self.entries)

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
            rows = self.entries[:i] + self.entries[i + 1:]
            for j in range(n):
                cof = _det([row[:j] + row[j + 1:] for row in rows])
                if (i + j) % 2:
                    cof = -cof
                adj[j][i] = cof * inv_det
        return PolyMatrix(adj)

    def __str__(self):
        rows = ["[" + ", ".join(str(p) for p in row) + "]" for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"PolyMatrix({self})"


def _det(rows: Sequence[Tuple[BiLaurent, ...]]) -> BiLaurent:
    """Determinant of the square matrix with the given row tuples, expanded
    along the first row; a zero entry there adds no cofactor.  The sum runs
    on the entries' term dicts (_det_terms), so the result is the only
    BiLaurent it builds."""
    if len(rows) == 1:
        return rows[0][0]
    terms, tag = _det_terms(rows)
    return _raw(terms, tag)


def _det_terms(rows: Sequence[Tuple[BiLaurent, ...]]) -> Tuple[Terms, Optional[str]]:
    """Terms and tag of the determinant of two or more rows.  Each cofactor
    entry * minor is added term by term into one dict; a one-row minor is
    its entry, whose items() serve as a dict's.  The tags merge as a
    BiLaurent product and sum merge them, the entry's with the minor's and
    then with the sum so far, so the tag and any TagMismatch are theirs."""
    total: Terms = {}
    tag = None
    rest = rows[1:]
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        if len(rest) == 1:
            minor = rest[0][1 - j]
            minor_tag = minor.tag
        else:
            minor, minor_tag = _det_terms([row[:j] + row[j + 1:] for row in rest])
        tag = _merge_tags(tag, _merge_tags(entry.tag, minor_tag))
        minor_items = minor.items()
        for (za, ua), ca in entry.items():
            if j % 2:
                ca = -ca
            for (zb, ub), cb in minor_items:
                key = (za + zb, ua + ub)
                acc = total.get(key, 0) + ca * cb
                if acc:
                    total[key] = acc
                else:
                    total.pop(key, None)
    return total, tag
