"""Exact rational linear algebra: an incremental sparse echelon and kernels.

ReducedEchelon maintains the reduced row-echelon form of a span of sparse
vectors incrementally; its rows are the unique RREF of the span, with
pivots at each row's minimum key.  Entries may be ints or Fractions; add
scales the new row to a lead of 1 as Fractions (negating a -1 lead, dividing
by any other), so every row is exact.  A private column index maps each key
to the pivot rows that hold it, so add back-reduces only the rows holding
the new lead.  nullspace reads the canonical kernel basis of a sparse
matrix off that echelon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Set

from .laurent import Coeff

Q = Fraction
SparseVec = Dict[Hashable, Coeff]

_ONE = Q(1)


class ReducedEchelon:
    """Incrementally maintained RREF basis of a span of sparse vectors.

    Coordinates are any mutually comparable keys; the leading coordinate of
    a vector is its minimum key.  Rows are kept fully reduced: a pivot row
    has a 1 at its lead and zeros at every other pivot lead, so the pivot
    set equals the canonical (order-determined) pivot set of the spanned
    subspace.  pivots is read-only for callers.

    _holders maps each key that occurs in a row other than as its lead to
    the leads of the rows holding it.  A row without the new lead would be
    back-reduced by a factor of 0, so add visits only _holders[lead], and
    pivots stays the same unique RREF, entry for entry.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, SparseVec] = {}
        self._holders: Dict[Hashable, Set[Hashable]] = {}

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
        lead_val = residual.pop(lead)
        # Untouched int entries become Fractions; int / int would be a float.
        if lead_val == 1:
            tail = {k: v if type(v) is Q else Q(v) for k, v in residual.items()}
        elif lead_val == -1:
            tail = {k: -v if type(v) is Q else Q(-v) for k, v in residual.items()}
        else:
            if type(lead_val) is int:
                lead_val = Q(lead_val)
            tail = {k: v / lead_val for k, v in residual.items()}
        holders = self._holders
        for key in tail:
            holders.setdefault(key, set()).add(lead)
        # Maintain full reduction: clear the new lead from the rows holding it.
        for other_lead in holders.pop(lead, ()):
            other = self.pivots[other_lead]
            factor = other.pop(lead)
            for key, val in tail.items():
                old = other.get(key)
                if old is None:
                    other[key] = -factor * val
                    holders[key].add(other_lead)
                    continue
                acc = old - factor * val
                if acc:
                    other[key] = acc
                else:
                    del other[key]
                    holders[key].discard(other_lead)
        row = {lead: _ONE}
        row.update(tail)
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
