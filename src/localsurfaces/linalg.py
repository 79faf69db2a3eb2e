"""Exact rational linear algebra: an incremental sparse echelon and kernels.

ReducedEchelon maintains the reduced row-echelon form of a span of sparse
vectors incrementally; its rows are the unique RREF of the span, with
pivots at each row's minimum key.  nullspace reads the canonical kernel
basis of a sparse matrix off that echelon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List

Q = Fraction
SparseVec = Dict[Hashable, Q]


class ReducedEchelon:
    """Incrementally maintained RREF basis of a span of sparse vectors.

    Coordinates are any mutually comparable keys; the leading coordinate of
    a vector is its minimum key.  Rows are kept fully reduced: a pivot row
    has a 1 at its lead and zeros at every other pivot lead, so the pivot
    set equals the canonical (order-determined) pivot set of the spanned
    subspace.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Fully reduce vec against the pivot rows; returns the residual."""
        out = dict(vec)
        # Pivot rows carry no other pivot leads, so one pass suffices.
        for lead in [key for key in out if key in self.pivots]:
            factor = out.get(lead)
            if not factor:
                continue
            for key, val in self.pivots[lead].items():
                acc = out.get(key, Q(0)) - factor * val
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return out

    def add(self, vec: SparseVec) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        residual = self.reduce(vec)
        if not residual:
            return False
        lead = min(residual)
        lead_val = residual[lead]
        row = {k: v / lead_val for k, v in residual.items()}
        # Maintain full reduction: clear the new lead from existing rows.
        for other in self.pivots.values():
            factor = other.get(lead)
            if not factor:
                continue
            for key, val in row.items():
                acc = other.get(key, Q(0)) - factor * val
                if acc:
                    other[key] = acc
                else:
                    other.pop(key, None)
        self.pivots[lead] = row
        return True


def nullspace(rows: Iterable[SparseVec], ncols: int) -> List[SparseVec]:
    """Canonical kernel basis of the matrix with the given sparse rows
    (column index -> nonzero entry).

    One vector per non-pivot column f of range(ncols): f -> 1 and
    p -> -row_p[f] at each pivot p.  The echelon rows are the unique RREF,
    so these are the vectors a dense RREF gives.
    """
    echelon = ReducedEchelon()
    for row in rows:
        echelon.add(row)
    pivots = sorted(echelon.pivots.items())
    basis = []
    for f in range(ncols):
        if f in echelon.pivots:
            continue
        vec = {f: Q(1)}
        for p, row in pivots:
            x = row.get(f)
            if x:
                vec[p] = -x
        basis.append(vec)
    return basis
