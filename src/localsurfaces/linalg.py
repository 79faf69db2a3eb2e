"""Exact linear algebra: incremental sparse echelons and kernels.

Each echelon has one job.  Ranks and leads: IntegerEchelon; RREF rows:
ReducedEchelon, read by nullspace.

ReducedEchelon maintains the reduced row-echelon form of a span of sparse
vectors incrementally; its rows are the unique RREF of the span, with
pivots at each row's minimum key.  Entries may be ints or Fractions; add
divides the new row by its lead as a Fraction, so every row is exact, and
back-reduces by scanning every row.  nullspace reads the canonical kernel
basis of a sparse matrix off that echelon.

IntegerEchelon counts the rank of a span of int vectors without leaving
the integers (fraction-free elimination, Bareiss, Math. Comp. 22, 1968).
Its rows are echeloned but not reduced, with leads again at each row's
minimum key.  It is exact: reducing v by a row replaces v with
(b/g)*v - (a/g)*row, a and b the leads of v and the row and
g = gcd(a, b), and a new row is divided by the gcd of its entries; both
are row operations over Q by a nonzero scalar, so the rows span what the
inserted vectors span.  The leads of any echelon basis are the minimum
keys of the nonzero vectors of its span, so the rank and the leads are
those of ReducedEchelon after the same inserts.  A Fraction entry either
cancels exactly or makes math.gcd raise TypeError once it reaches a lead
or a new row, so it never gives a wrong rank (floats never become
coefficients: laurent.as_fraction refuses them).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, Iterable, List

from .laurent import Coeff

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


class IntegerEchelon:
    """Rank and leads of a span of sparse int vectors, on ints only.

    Keys and leads are as in ReducedEchelon, and pivots maps each lead to
    its row, which is reduced forward only and divided by the gcd of its
    entries.  pivots is read-only for callers.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, Dict[Hashable, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec: Dict[Hashable, int]) -> bool:
        """Insert an int vector; returns True when it enlarges the span."""
        pivots = self.pivots
        v = dict(vec)
        while v:
            lead = min(v)
            row = pivots.get(lead)
            if row is None:
                break
            # v <- (b/g)*v - (a/g)*row clears the lead of v.
            a, b = v[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                v = {key: b * x for key, x in v.items()}
            for key, x in row.items():
                acc = v.get(key, 0) - a * x
                if acc:
                    v[key] = acc
                else:
                    del v[key]
        else:
            return False
        g = gcd(*v.values())
        if g != 1:
            v = {key: x // g for key, x in v.items()}
        pivots[lead] = v
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
