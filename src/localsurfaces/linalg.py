"""Exact rational linear algebra: an incremental sparse echelon and kernels.

ReducedEchelon maintains the reduced row-echelon form of a span of sparse
vectors incrementally; its rows are the unique RREF of the span, with
pivots at each row's minimum key.  It optionally tracks provenance (each
echelon vector as a combination of the inserted columns), which is what lets
the cohomology layer emit explicit coboundary certificates.  nullspace reads
the canonical kernel basis of a sparse matrix off that echelon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

Q = Fraction
SparseVec = Dict[int, Q]


class ReducedEchelon:
    """Incrementally maintained RREF basis of a span of sparse vectors.

    Coordinates are integers; the leading coordinate of a vector is its
    minimum key.  Rows are kept fully reduced: a pivot row has a 1 at its
    lead and zeros at every other pivot lead, so the pivot set equals the
    canonical (order-determined) pivot set of the spanned subspace.
    """

    def __init__(self, track_provenance: bool = False):
        self.pivots: Dict[int, SparseVec] = {}
        self.provenance: Optional[Dict[int, SparseVec]] = (
            {} if track_provenance else None
        )

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(
        self, vec: SparseVec, prov: Optional[SparseVec] = None
    ) -> Tuple[SparseVec, SparseVec]:
        """Fully reduce vec against the pivot rows.

        Returns (residual, combination) where combination maps column ids to
        the coefficients with which original columns were subtracted
        (only tracked when provenance is on).
        """
        out = dict(vec)
        used: SparseVec = dict(prov) if prov else {}
        # Pivot rows carry no other pivot leads, so one pass suffices.
        for lead in [key for key in out if key in self.pivots]:
            factor = out.get(lead)
            if not factor:
                continue
            row = self.pivots[lead]
            for key, val in row.items():
                acc = out.get(key, Q(0)) - factor * val
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
            if self.provenance is not None:
                for cid, val in self.provenance[lead].items():
                    acc = used.get(cid, Q(0)) - factor * val
                    if acc:
                        used[cid] = acc
                    else:
                        used.pop(cid, None)
        return out, used

    def add(self, vec: SparseVec, column_id=None) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        prov: Optional[SparseVec] = None
        if self.provenance is not None:
            prov = {column_id: Q(1)} if column_id is not None else {}
        residual, combo = self.reduce(vec, prov)
        if not residual:
            return False
        lead = min(residual)
        lead_val = residual[lead]
        row = {k: v / lead_val for k, v in residual.items()}
        row_prov = (
            {k: v / lead_val for k, v in combo.items()}
            if self.provenance is not None
            else None
        )
        # Maintain full reduction: clear the new lead from existing rows.
        for other_lead, other in list(self.pivots.items()):
            factor = other.get(lead)
            if not factor:
                continue
            for key, val in row.items():
                acc = other.get(key, Q(0)) - factor * val
                if acc:
                    other[key] = acc
                else:
                    other.pop(key, None)
            if self.provenance is not None:
                target = self.provenance[other_lead]
                for cid, val in row_prov.items():
                    acc = target.get(cid, Q(0)) - factor * val
                    if acc:
                        target[cid] = acc
                    else:
                        target.pop(cid, None)
        self.pivots[lead] = row
        if self.provenance is not None:
            self.provenance[lead] = row_prov or {}
        return True

    def solve_in_span(self, vec: SparseVec) -> Optional[SparseVec]:
        """Express vec as sum(coeff[cid] * column_cid), or None if outside.

        Requires provenance tracking.
        """
        if self.provenance is None:
            raise ValueError("provenance tracking is off")
        residual, combo = self.reduce(vec)
        if residual:
            return None
        return {cid: -val for cid, val in combo.items()}


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
