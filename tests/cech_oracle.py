"""Reference Cech assembly over the whole window, for oracle tests.

FullComplex builds the coboundary matrix of any bundle, given by its
transition matrix T, the direct way: every window monomial (times rank) is a
coordinate, the U-holomorphic window monomials enter as inclusion columns,
and each V-holomorphic vector monomial xi^alpha v^beta e_slot enters as
-T^-1 * rewrite(...), computed by BiLaurent products and truncated to the
window.  Dimension and normal forms come from the dense RREF of that matrix.
It shares no code with CechComplex, which assembles line bundles only and
quotients the U-holomorphic coordinates out analytically, nor with the
extension-sequence H^1 of rank-2 bundles (bundles.charge_report,
deformation.tangent_h1), so it is the oracle for both.

coboundary_matrix is the dense matrix of CechComplex's own columns plus the
inclusion columns it quotients out, for rank checks against the dense RREF.

divide is the u-degree division by BiLaurent powers of v with Fraction
coefficients in the coordinates (z, u), the form cech._divide had before it
moved to integer coefficients in (z, u' = D*u).
"""

from fractions import Fraction as Q

from dense_oracle import RationalMatrix, rref_rank
from localsurfaces.cech import CechComplex
from localsurfaces.laurent import BiLaurent, U_CHART


class FullComplex:
    def __init__(self, s, transition, window):
        self.rank = transition.size
        self.window = window
        self.coords = [
            (slot, mono)
            for slot in range(self.rank)
            for mono in window.monomials()
        ]
        index = {coord: i for i, coord in enumerate(self.coords)}
        generators = [
            {index[(slot, mono)]: Q(1)}
            for slot, mono in self.coords
            if mono.z_exp >= 0
        ]
        conv = transition.inverse()
        entries = [p for row in conv.entries for p in row if not p.is_zero]
        # Same generator caps as the seed complex: v-degree up to
        # max_u + n_eff + u_gain + 2, every xi-degree whose image can
        # still reach the window.
        n_eff = max(0, max(-p.min_z_exp() for p in entries))
        u_gain = max(0, max(p.max_u_exp() for p in entries))
        v_glue = s.v_glue().with_tag(None)
        rho = BiLaurent.const(1)
        for beta in range(window.max_u + n_eff + u_gain + 3):
            if beta:
                rho = rho * v_glue
            for slot in range(self.rank):
                base = [
                    -(conv.entries[i][slot].with_tag(None) * rho)
                    for i in range(self.rank)
                ]
                top = max(
                    (p.max_z_exp() for p in base if not p.is_zero), default=0
                )
                for alpha in range(0, top - window.min_z + 1):
                    shift = BiLaurent.term(1, -alpha, 0)
                    column = {
                        index[(i, mono)]: coeff
                        for i, comp in enumerate(base)
                        for mono, coeff in (comp * shift).items()
                        if window.contains(mono)
                    }
                    if column:
                        generators.append(column)
        matrix = RationalMatrix(
            [[col.get(i, Q(0)) for i in range(len(self.coords))]
             for col in generators]
        )
        rank, self.pivots, reduced = rref_rank(matrix)
        self.rows = reduced.entries[:rank]
        self.dimension = len(self.coords) - rank

    def basis_monomials(self):
        pivots = set(self.pivots)
        return [
            coord for i, coord in enumerate(self.coords) if i not in pivots
        ]

    def normal_form(self, vec):
        """Reduce a vector cocycle (tuple of BiLaurent) by the RREF rows."""
        dense = [Q(0)] * len(self.coords)
        for slot, poly in enumerate(vec):
            for mono, coeff in poly.items():
                dense[self.coords.index((slot, mono))] = coeff
        for row, pivot in zip(self.rows, self.pivots):
            factor = dense[pivot]
            if factor:
                dense = [x - factor * y for x, y in zip(dense, row)]
        polys = [dict() for _ in range(self.rank)]
        for (slot, mono), coeff in zip(self.coords, dense):
            if coeff:
                polys[slot][mono] = coeff
        return tuple(BiLaurent(p, U_CHART) for p in polys)


def coboundary_matrix(s, n, window):
    """Dense coboundary matrix of O(-n): rows indexed by window monomials,
    columns by the generators in canonical order: the inclusions of the
    nonnegative-z (U-holomorphic) window monomials, then the complex's V
    columns, which are zero on those monomials."""
    complex_ = CechComplex(s, n, window)
    neg_size = -window.min_z * (window.max_u + 1)
    inclusions = [{local: Q(1)} for local in range(neg_size, window.size)]
    columns = inclusions + [vec for _, vec in complex_.columns]
    matrix = [[Q(0)] * len(columns) for _ in range(window.size)]
    for col_idx, vec in enumerate(columns):
        for row_idx, coeff in vec.items():
            matrix[row_idx][col_idx] = coeff
    return RationalMatrix(matrix)


def divide(terms, k, n, powers):
    """The u-degree division in the coordinates (z, u), on BiLaurent powers
    of v = z^k u + tau and Fraction coefficients: the oracle for
    cech._divide, which runs on ints in (z, u' = D*u).

    Divide the terms ((l, i), c) by the images g(a, b) = z^(-n-a) v^b by
    descending u-degree, dropping the nonnegative-z terms that arise and
    extending powers (v^0, v^1, ...) as needed; cancelled terms stay in
    work at 0 until popped.  Returns the quotient {(a, b): c} and the
    remainder {(l, i): c}, which lies on the normal-form monomials
    ki - n < l < 0 when every term that is not divided has l < 0.
    """
    work = dict(terms)
    quotient, remainder = {}, {}
    while work:
        i = max(i for _, i in work)
        while len(powers) <= i:
            powers.append(powers[-1] * powers[1])
        for l in [l for l, j in work if j == i]:
            c = work.pop((l, i))
            a = k * i - n - l
            if not c:
                continue
            if a < 0:
                remainder[l, i] = c
                continue
            quotient[a, i] = c
            for (l2, j), x in powers[i].items():
                l2 -= n + a
                if l2 < 0 and j < i:
                    work[l2, j] = work.get((l2, j), 0) - c * x
    return quotient, remainder
