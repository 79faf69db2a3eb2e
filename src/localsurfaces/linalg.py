"""Exact linear algebra on one engine: an incremental fraction-free echelon.

IntegerEchelon keeps an echelon basis of the span of sparse int vectors
without leaving the integers (fraction-free elimination, Bareiss, Math.
Comp. 22, 1968).  Keys are any mutually comparable keys, and the lead of a
vector is its minimum key.  Rows are echeloned but not reduced.  It is
exact: reducing v by a row replaces v with (b/g)*v - (a/g)*row, a and b
the leads of v and the row and g = gcd(a, b), and a new row is divided by
the gcd of its entries; both are row operations over Q by a nonzero
scalar, so the rows span what the inserted vectors span.  The leads of any
echelon basis are the minimum keys of the nonzero vectors of its span, so
the rank and the leads are those of the unique RREF.  A Fraction entry
either cancels exactly or makes math.gcd raise TypeError once it reaches a
lead or a new row, so it never gives a wrong rank (floats never become
coefficients: laurent.as_fraction refuses them).

nullspace reads the canonical kernel basis of a sparse rational matrix off
that echelon: each row with a Fraction entry is scaled to ints (an all-int
row is inserted as it is), and a fraction-free back-substitution clears
every other lead from each row, so each row is its RREF row times an int.
Only the kernel entries can be Fractions: each follows the Coeff
convention, an int where integral and a Fraction otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List

from .laurent import Coeff

Q = Fraction
SparseVec = Dict[Hashable, Coeff]


class IntegerEchelon:
    """Rank and leads of a span of sparse int vectors, on ints only.

    pivots maps each lead to its row, which is reduced forward only and
    divided by the gcd of its entries.  pivots is read-only for callers.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, Dict[Hashable, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Dict[Hashable, int]) -> Dict[Hashable, int]:
        """The int residual of vec: a nonzero int multiple of vec minus a
        combination of the rows, whose lead is no row's lead; {} when vec
        is in the span."""
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
        return v

    def add(self, vec: Dict[Hashable, int]) -> bool:
        """Insert an int vector; returns True when it enlarges the span."""
        v = self.reduce(vec)
        if not v:
            return False
        g = gcd(*v.values())
        if g != 1:
            v = {key: x // g for key, x in v.items()}
        self.pivots[min(v)] = v
        return True


# bench/tracer.py wraps the echelon's add and reduce under this name; the
# alias goes once the tracer reads a trace the library writes (ROADMAP 4b).
ReducedEchelon = IntegerEchelon


def nullspace(rows: Iterable[SparseVec], ncols: int) -> List[SparseVec]:
    """Canonical kernel basis of the matrix with the given sparse rows
    (column index -> nonzero entry).

    One vector per non-pivot column f of range(ncols): f -> 1 and
    p -> -row_p[f] / row_p[p] at each pivot p, read off the rows of the
    echelon once back-substitution has cleared every other lead from
    them.  Each row is then its RREF row times an int, so these are the
    vectors a dense RREF gives.  Scaling a row by the lcm of its
    denominators keeps the kernel.  Full column rank returns [] before
    any back-substitution.
    """
    echelon = IntegerEchelon()
    for row in rows:
        if not all(type(x) is int for x in row.values()):
            scale = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (scale // x.denominator)
                   for c, x in row.items()}
        echelon.add(row)
    pivots = echelon.pivots
    if len(pivots) == ncols:
        return []
    leads = sorted(pivots)
    # Decreasing lead order: the rows a row is cleared by are reduced.
    for p in reversed(leads):
        row = pivots[p]
        for q in [key for key in row if key != p and key in pivots]:
            other = pivots[q]
            a, b = row[q], other[q]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                row = {key: b * x for key, x in row.items()}
            for key, x in other.items():
                acc = row.get(key, 0) - a * x
                if acc:
                    row[key] = acc
                else:
                    del row[key]
        pivots[p] = row
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec: SparseVec = {f: 1}
        for p in leads:
            row = pivots[p]
            x = row.get(f)
            if x:
                lead = row[p]
                vec[p] = -x // lead if x % lead == 0 else Q(-x, lead)
        basis.append(vec)
    return basis
