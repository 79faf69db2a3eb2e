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
deformation.tangent_h1), nor with the windowless normal form of line
bundles (cech.normal_form), so it is the oracle for all three.

coboundary_matrix is the dense matrix of CechComplex's own columns plus the
inclusion columns it quotients out, for rank checks against the dense RREF.

divide is the u-degree division by BiLaurent powers of v with Fraction
coefficients in the coordinates (z, u), the form cech._divide had before it
moved to integer coefficients in (z, u' = D*u).

reduce_sigma, weight_solve, fraction_certificate and fraction_normal_form
are cech._reduce, cech._weight_solve, cech.triviality_certificate and
cech.normal_form as they were before the certificates moved to ints over
one running denominator: sigma's coefficients are scaled to Fractions
Q(c, D**i), the weight steps invert w' + t with Fraction entries, and f_U
sums the dropped terms with Fraction coefficients.

rewrite_f_U is f_U = sigma - z^-n * to_U_coords(f_V, s), the chart rewrite
cech.triviality_certificate made before it summed the terms its division
drops, with the check that f_U is U-holomorphic.  rewrite_certificate is
that certificate: the same division and weight steps give f_V, and
rewrite_f_U gives f_U.

relation_certificate is the triviality certificate by the relation solve
that cech.triviality_certificate used before it solved the remainder by
weights: the remainder is solved over the remainders of the relations of
levels b <= n - 1 by elimination with unit tag columns (_solve_in_span),
and f_U is rewrite_f_U.  Its f_V may differ from the weight-graded one
when tau has several nonzero coefficients, since f_V is not unique; both
re-check exactly.

relation_rank_trace is the relation rank of cech.h1_line_bundle on tau != 0
as it was counted before it moved to the fraction-free IntegerEchelon: the
same relation remainders on the rational RREF of rref_oracle, which turns
every entry into a Fraction.  _solve_in_span and h0_by_columns run on
rref_oracle too, so no oracle here shares linalg with the library.

h0_by_columns is cech.h0_basis as it was before it shared one V-rewrite
per u-degree: every window column z^a u^b is twisted and rewritten to
V-coordinates on its own.

window_size and window_monomials count and list the monomials of a window,
the coordinates of FullComplex and of coboundary_matrix.

default_window_for_transition sizes a FullComplex window from a transition
matrix, and line_transition is the 1x1 transition of a line bundle: the
windows and transitions the rank-2 oracle comparisons assemble.
"""

from fractions import Fraction as Q
from itertools import chain
from math import comb
from typing import Dict, Iterable, Optional

from dense_oracle import RationalMatrix, rref_rank
from localsurfaces.cech import (
    CechComplex,
    CohomologyResult,
    TrivialityCertificate,
    Window,
    _divide,
    _extend_powers,
    _integral_glue,
    _relation_levels,
    default_window,
    h1_dimension_formula,
)
from localsurfaces.errors import NotTrivial
from localsurfaces.laurent import BiLaurent, U_CHART, V_CHART
from localsurfaces.polymatrix import PolyMatrix
from localsurfaces.surface import _require_chart, to_U_coords, to_V_coords
from rref_oracle import ReducedEchelon, nullspace


def window_size(window):
    """Number of monomials z^l u^i in the window."""
    return (window.max_z - window.min_z + 1) * (window.max_u + 1)


def window_monomials(window):
    """The window's monomials (l, i), in CechComplex's local index order."""
    return [
        (l, i)
        for l in range(window.min_z, window.max_z + 1)
        for i in range(window.max_u + 1)
    ]


def line_transition(chern):
    """Transition matrix (z^-n) of the line bundle O(n)."""
    return PolyMatrix([[BiLaurent.term(1, -chern, 0, U_CHART)]])


def default_window_for_transition(s, transition):
    """Window sized from the exponent span of a transition matrix, in
    which FullComplex assembles the bundle's H^1."""
    span_z = 0
    span_u = 0
    for row in transition.entries:
        for p in row:
            if not p.is_zero:
                span_z = max(span_z, abs(p.min_z_exp()), abs(p.max_z_exp()))
                span_u = max(span_u, p.max_u_exp())
    reach = span_z + s.k + 3
    floor_m = (span_z - 2) // s.k if span_z >= 2 else 0
    return Window(-reach, reach, max(0, floor_m + 3) + span_u)


class FullComplex:
    def __init__(self, s, transition, window):
        self.rank = transition.size
        self.window = window
        self.coords = [
            (slot, mono)
            for slot in range(self.rank)
            for mono in window_monomials(window)
        ]
        index = {coord: i for i, coord in enumerate(self.coords)}
        generators = [
            {index[(slot, (l, i))]: Q(1)}
            for slot, (l, i) in self.coords
            if l >= 0
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
    size = window_size(window)
    inclusions = [{local: Q(1)} for local in range(neg_size, size)]
    columns = inclusions + [vec for _, vec in complex_.columns]
    matrix = [[Q(0)] * len(columns) for _ in range(size)]
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


def reduce_sigma(sigma, s, n):
    """D and the powers of v' from _integral_glue, and the quotient and
    remainder of _divide on the negative-z terms of sigma in (z, u' = D*u);
    its nonnegative-z terms are U-holomorphic and drop out.  When D = 1 the
    coefficients are taken as they are, so int ones divide on ints."""
    _require_chart(sigma, U_CHART)
    scale, powers = _integral_glue(s)
    negative = [((l, i), c if scale == 1 else Q(c, scale**i))
                for (l, i), c in sigma.items() if l < 0]
    return (scale, powers, *_divide(negative, s.k, n, powers))


def weight_solve(remainder, s, n, powers):
    """The quotient {(a, b): c} with remainder == sum c * g'(a, b) up to
    nonnegative-z terms, for a remainder of _divide on deformed Z_k(tau) in
    the coordinates (z, u') of _integral_glue; powers (v'^0, v'^1, ...) is
    extended as needed.  One step per weight, lowest first, as proved in
    triviality_certificate; a step that leaves the lowest weight where it
    was raises AssertionError.
    """
    d = next(j for j, t in enumerate(s.tau, start=1) if t)
    slope, t = s.k - d, powers[1].coefficient(d, 0)
    work, quotient, floor = dict(remainder), {}, -n
    while work:
        e = min(l - slope * i for l, i in work)
        if e <= floor:
            raise AssertionError(f"weight step left weight {e} <= {floor}")
        floor = e
        q0, b0 = -(e // slope), -(-(e + n) // d)
        p = [work.get((e + slope * q, q), 0) for q in range(q0)]
        # (w' + t)^-b0 = sum_j C(b0 + j - 1, j) (-1)^j t^(-b0-j) w'^j.
        inverse = [Q((-1) ** j * comb(b0 + j - 1, j), t ** (b0 + j))
                   for j in range(q0)]
        r = [sum(p[q] * inverse[m - q] for q in range(m + 1))
             for m in range(q0)]
        # Taylor shift: r(w') = sum_j c_j (w' + t)^j.
        for j in range(q0):
            c = sum(r[m] * comb(m, j) * (-t) ** (m - j) for m in range(j, q0))
            if not c:
                continue
            a, b = d * (b0 + j) - n - e, b0 + j
            quotient[a, b] = c
            _extend_powers(powers, b)
            for (l, i), x in powers[b].items():
                l -= n + a
                if l < 0:
                    work[l, i] = work.get((l, i), 0) - c * x
        work = {key: c for key, c in work.items() if c}
    return quotient


def fraction_normal_form(sigma, s, n):
    """cech.normal_form on reduce_sigma and weight_solve: on tau != 0 the
    remainder is solved by the weight steps, which raise AssertionError
    where it is not, the re-check of the 0 that cech.normal_form returns
    there without dividing."""
    _, powers, _, remainder = reduce_sigma(sigma, s, n)
    if not s.is_deformed:
        return BiLaurent(remainder, U_CHART)
    if remainder:
        weight_solve(remainder, s, n, powers)
    return BiLaurent.zero(U_CHART)


def fraction_certificate(sigma, s, n):
    """cech.triviality_certificate on reduce_sigma and weight_solve, with
    f_U summed from the dropped terms in Fraction arithmetic."""
    scale, powers, quotient, remainder = _divided(sigma, s, n)
    solved = weight_solve(remainder, s, n, powers) if remainder else {}
    # BiLaurent adds the coefficients of a key both quotients carry.
    terms = list(chain(quotient.items(), solved.items()))
    f_V = BiLaurent([((a, b), c * scale**b) for (a, b), c in terms], V_CHART)
    # The nonnegative-z terms the division and the weight steps dropped.
    f_U = {key: c for key, c in sigma.items() if key[0] >= 0}
    for (a, b), c in terms:
        for (l, i), x in powers[b].items():
            l -= n + a
            if l >= 0:
                f_U[l, i] = f_U.get((l, i), 0) - c * (x * scale**i)
    return TrivialityCertificate(BiLaurent(f_U, U_CHART), f_V)


def rewrite_f_U(sigma, s, n, f_V):
    """f_U = sigma - z^-n * to_U_coords(f_V, s) for the line bundle O(-n);
    raises AssertionError unless f_U is U-holomorphic."""
    twist = BiLaurent.term(1, -n, 0)
    f_U = sigma.with_tag(U_CHART) - twist * to_U_coords(f_V, s)
    if not f_U.is_zero and f_U.min_z_exp() < 0:
        raise AssertionError("exact certificate produced a non-holomorphic f_U")
    return f_U


def _divided(sigma, s, n):
    """reduce_sigma of sigma, raising NotTrivial as
    cech.triviality_certificate does when the remainder on tau = 0 is not
    0."""
    scale, powers, quotient, remainder = reduce_sigma(sigma, s, n)
    if remainder and not s.is_deformed:
        # scale is 1 on tau = 0, so u' = u.
        normal = BiLaurent(remainder, U_CHART)
        raise NotTrivial(f"class of {sigma} has the normal form {normal} != 0")
    return scale, powers, quotient, remainder


def rewrite_certificate(sigma, s, n):
    """cech.triviality_certificate with f_U from the chart rewrite: the
    same division and weight steps give f_V (fraction_certificate), and
    f_U is rewrite_f_U."""
    f_V = fraction_certificate(sigma, s, n).f_V
    return TrivialityCertificate(rewrite_f_U(sigma, s, n, f_V), f_V)


def relation_certificate(sigma, s, n):
    """Explicit f_U, f_V with sigma = f_U + z^-n * (f_V in U-coords) exactly,
    for the line bundle O(-n), by the relation solve.

    sigma is divided by u-degree as in cech.triviality_certificate.  On
    tau != 0 the remainder is solved over the remainders of the
    U-holomorphic relation tops z^(kb-n-a) u'^b, 0 <= a <= kb - n, for
    levels b = 1, 2, ... up to the first that suffices, at most n - 1 (the
    cap proved in cech.triviality_certificate).
    """
    scale, powers, quotient, remainder = _divided(sigma, s, n)
    terms = [((a, b), c * scale**b) for (a, b), c in quotient.items()]
    if remainder:
        # _solve_in_span skips dependent relations, so they never enter it.
        span, relations, quotients = ReducedEchelon(), [], {}
        for level in _relation_levels(s, n, powers):
            for key, relation_quotient, vec in level:
                if span.add(vec):
                    relations.append((key, vec))
                    quotients[key] = relation_quotient
            if not span.reduce(remainder):
                break
        else:
            raise AssertionError(f"relations up to level {n - 1} miss {sigma}")
        for key, x in _solve_in_span(relations, remainder).items():
            terms += [
                ((a, b), -x * c * scale**b)
                for (a, b), c in quotients[key].items()
            ]
    f_V = BiLaurent(terms, V_CHART)
    return TrivialityCertificate(rewrite_f_U(sigma, s, n, f_V), f_V)


def relation_rank_trace(s, n):
    """(b, rank, leads) after every insert of the relations of levels
    b = 1 .. n - 1 into a ReducedEchelon, up to the insert at which the rank
    reaches h1_dimension_formula(k, n), the count cech.h1_line_bundle
    proves H^1(O(-n)) = 0 by; empty when that count is 0."""
    count = h1_dimension_formula(s.k, n)
    _, powers = _integral_glue(s)
    span, trace = ReducedEchelon(), []
    if count:
        for b, level in enumerate(_relation_levels(s, n, powers), start=1):
            for _, _, vec in level:
                span.add(vec)
                trace.append((b, span.rank, frozenset(span.pivots)))
                if span.rank == count:
                    return trace
    return trace


def _solve_in_span(
    columns: Iterable, target: Dict
) -> Optional[Dict[tuple, Q]]:
    """Coefficients x with sum(x[key] * vec) == target over the (key, vec)
    columns; None when the target is outside their span.

    Eliminates the augmented columns [vec | e_i] in column order, with each
    tag coordinate (1, i) sorting after every real coordinate (0, c), so a
    row's tag part records it as a combination of the columns.  A column
    that leaves no real coordinate (a zero or dependent one) is skipped:
    inserting it would rewrite the other rows' tag parts.
    """
    echelon = ReducedEchelon()
    keys = []
    for key, vec in columns:
        augmented = {(0, c): x for c, x in vec.items()}
        augmented[1, len(keys)] = Q(1)
        keys.append(key)
        residual = echelon.reduce(augmented)
        if min(residual)[0] == 0:
            echelon.add(residual)
    residual = echelon.reduce({(0, c): x for c, x in target.items()})
    if any(tag == 0 for tag, _ in residual):
        return None
    return {keys[i]: -x for (_, i), x in residual.items()}


def h0_by_columns(s, n, window=None):
    """Window basis of the sections of O(n), one V-rewrite per column: the
    oracle for cech.h0_basis."""
    if window is None:
        window = default_window(s, abs(n))
    cols = [
        (a, b)
        for a in range(0, window.max_z + 1)
        for b in range(0, window.max_u + 1)
    ]
    constraint_rows = {}
    for idx, (a, b) in enumerate(cols):
        twisted = BiLaurent.term(1, a - n, b, U_CHART)
        rewritten = to_V_coords(twisted, s)
        for (l, i), coeff in rewritten.items():
            if l < 0:
                constraint_rows.setdefault((l, i), {})[idx] = coeff
    basis = tuple(
        BiLaurent({cols[i]: coeff for i, coeff in vec.items()}, U_CHART)
        for vec in nullspace(constraint_rows.values(), len(cols))
    )
    return CohomologyResult(
        dimension=len(basis), basis=basis, window=window, stabilized=False
    )
