"""Full-scan incremental echelon, for oracle tests.

FullScanEchelon is the form ReducedEchelon had before it kept a column
index: every insert divides the new row by its lead and then scans every
pivot row for the new lead to back-reduce it.  It keeps no index, so it is
the reference for the pivot rows, rank and residuals of ReducedEchelon.
"""

from fractions import Fraction as Q


class FullScanEchelon:
    """RREF of a span of sparse vectors, kept by scanning every row."""

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        out = dict(vec)
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

    def add(self, vec):
        residual = self.reduce(vec)
        if not residual:
            return False
        lead = min(residual)
        lead_val = Q(residual[lead])
        row = {k: v / lead_val for k, v in residual.items()}
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
