"""The rational RREF that linalg.nullspace ran on before it moved to the
fraction-free IntegerEchelon: the reference engine for the oracles and the
kernel oracle of the tests.

ReducedEchelon maintains the reduced row-echelon form of a span of sparse
vectors incrementally; its rows are the unique RREF of the span, with
pivots at each row's minimum key.  Entries may be ints or Fractions; add
divides the new row by its lead as a Fraction, so every row is exact, and
back-reduces by scanning every row.  nullspace reads the canonical kernel
basis of a sparse matrix off that echelon.
"""

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List

from localsurfaces.laurent import Coeff

Q = Fraction
SparseVec = Dict[Hashable, Coeff]


class ReducedEchelon:
    """Incrementally maintained RREF basis of a span of sparse vectors.

    Coordinates are any mutually comparable keys; the lead of a vector is
    its minimum key.  Rows are kept fully reduced: a pivot row has a 1 at
    its lead and zeros at every other pivot lead, so the pivot set is the
    canonical pivot set of the span.  pivots is read-only for callers;
    nullspace reads its rows, and a rank or leads alone use IntegerEchelon.
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
        # A Fraction lead: int / int would be a float.
        lead_val = Q(residual[lead])
        row = {key: val / lead_val for key, val in residual.items()}
        # Maintain full reduction: clear the new lead from every other row.
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
