"""Rank-2 extensions, splitting types on the zero section, splitting
certificates on deformed surfaces, and instanton-side bookkeeping.

A rank-2 bundle with vanishing first Chern class and splitting type j is an
extension of O(j) by O(-j) and is presented by the transition matrix
[[z^j, z^j sigma], [0, z^-j]] with sigma a class in H^1 of O(-2j).  On the
undeformed Z_k such classes form nontrivial moduli; on any nontrivial
deformation every class is a coboundary, and the explicit coboundary data
assembles a pair of unipotent matrices splitting the bundle off the diagonal,
exact by the definition of the coboundary data (SplitCertificate), so the
moduli of bundles there are the constant DISCRETE_ZERO_DIMENSIONAL.
The charge h^1 of such a bundle is exact: the cokernel of the connecting map
of its extension sequence, computed on line bundles alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Tuple, Union

from .cech import (
    h1_dimension_formula,
    h1_line_bundle,
    normal_form,
    triviality_certificate,
)
from .errors import CertificateNotFound, NoZeroSection, NotApplicable, NotTrivial
from .laurent import BiLaurent, U_CHART, V_CHART
from .linalg import IntegerEchelon, nullspace
from .polymatrix import PolyMatrix
from .surface import SurfaceSpec, _require_chart


@dataclass(frozen=True)
class ExtensionClass:
    """Extension data for a splitting-type-j bundle: sigma is the class in
    H^1 of O(-2j), in U-coordinates (TagMismatch otherwise); the extension
    form is p = z^j * sigma."""

    j: int
    sigma: BiLaurent

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("splitting type j must be >= 0")
        _require_chart(self.sigma, U_CHART)

    @property
    def p(self) -> BiLaurent:
        return BiLaurent.term(1, self.j, 0, U_CHART) * self.sigma


def extension_to_transition(e: ExtensionClass) -> PolyMatrix:
    """Transition [[z^j, z^j sigma], [0, z^-j]]; determinant 1."""
    j = e.j
    return PolyMatrix([
        [BiLaurent.term(1, j, 0, U_CHART), e.p],
        [BiLaurent.zero(U_CHART), BiLaurent.term(1, -j, 0, U_CHART)],
    ])


def restrict_to_zero_section(T: PolyMatrix, s: SurfaceSpec) -> PolyMatrix:
    """Restrict a bundle to the zero section u = 0 (undeformed surfaces
    only: nontrivial deformations contain no compact curve)."""
    if s.is_deformed:
        raise NoZeroSection(
            f"{s} contains no compact curve; the locus u = 0 is not invariant"
        )
    return T.map_entries(
        lambda p: BiLaurent(
            {(l, i): c for (l, i), c in p.items() if i == 0}, p.tag
        )
    )


def splitting_type_p1(T: PolyMatrix) -> Tuple[int, ...]:
    """Splitting type (j_1 >= ... >= j_r) of the u-free bundle T on the
    projective line, by column reduction over Q[z] (Kailath, Linear
    Systems, 1980, sec. 6.3).

    Column j of T has degree d_j, its largest z-exponent.  While the
    leading column-coefficient matrix (row i, column j: the coefficient of
    z^d_j in T[i][j]) is singular, a kernel vector c gives a column
    operation, unimodular over Q[z], that lowers the degree of the
    highest-degree column in c's support.  Each step lowers sum(d_j), which
    is bounded below by the degree of det T, so the loop ends.  Then
    T * diag(z^-d_j) is invertible over Q[z^-1], so T is the transition of
    O(-d_1) + ... + O(-d_r).

    The entries are u-free, so each is held as a univariate dict
    {z_exponent: coefficient}, built in the same pass that refuses a u-term
    with ValueError; then the unit determinant is checked
    (NonUnitDeterminant), before any reduction.  A column operation is dict
    arithmetic, and only the changed column's degree and leading
    coefficients are read again, so the reduction builds no BiLaurent."""
    r = T.size
    # cols[j][i] = T[i][j]; a unit determinant leaves no column zero
    cols = [[] for _ in range(r)]
    for row in T.entries:
        for col, p in zip(cols, row):
            entry = {}
            for (l, i), c in p.items():
                if i:
                    raise ValueError("splitting_type_p1 needs u-free entries")
                entry[l] = c
            col.append(entry)
    T.unit_det()
    deg = [0] * r
    # lead[i][j]: the coefficient of z^deg[j] in cols[j][i], where nonzero
    lead = [{} for _ in range(r)]
    changed = range(r)
    while True:
        for j in changed:
            col = cols[j]
            d = deg[j] = max([max(entry) for entry in col if entry])
            for row, entry in zip(lead, col):
                x = entry.get(d)
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        kernel = nullspace(lead, r)
        if not kernel:
            return tuple(sorted((-d for d in deg), reverse=True))
        c = kernel[0]
        h = max(c, key=lambda j: (deg[j], j))
        # column h becomes sum over s of c_s * z^(d_h - d_s) * column s:
        # c_h != 0 times column h plus Q[z]-multiples of the others, as
        # d_h >= d_s; the leading terms cancel, so its degree drops
        new = [{} for _ in range(r)]
        for s, factor in c.items():
            shift = deg[h] - deg[s]
            for out, entry in zip(new, cols[s]):
                for l, x in entry.items():
                    key = l + shift
                    acc = out.get(key, 0) + factor * x
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)
        cols[h] = new
        changed = (h,)


@dataclass(frozen=True)
class SplitCertificate:
    """Splitting of a rank-2 extension bundle: unipotent A_U (U-holomorphic
    entries) and A_V (V-holomorphic entries) with
    A_V * T * A_U^-1 = target = diag(z^j, z^-j).

    Exact by construction.  With A_U = [[1, f_U], [0, 1]] and
    A_V = [[1, -f_V], [0, 1]], the entries of A_V(U) * T and target * A_U
    agree (z^j, 0 or z^-j) everywhere but at (1, 2), as the other entries
    of A_V are constants, which the chart rewrite leaves alone.  At (1, 2)
    the difference is z^j * (sigma - f_U - z^-2j * f_V(U)), where
    f_V(U) = to_U_coords(f_V, s).  triviality_certificate(sigma, s, 2j)
    divides sigma by the images z^-2j * g(U) of V-holomorphic monomials g,
    and f_V is the quotient's combination of those g.  The division leaves
    sigma - z^-2j * f_V(U) no negative-z term, and its nonnegative-z
    terms, the ones the division drops, are what triviality_certificate
    sums as f_U, U-holomorphic by construction.  So the difference is 0,
    and A_U and A_V, being unipotent, have determinant 1.  The tests and
    the bench oracle re-check the product by the chart rewrite."""

    a_u: PolyMatrix
    a_v: PolyMatrix
    target: PolyMatrix


def split_certificate(s: SurfaceSpec, e: ExtensionClass) -> SplitCertificate:
    """Split the extension bundle of e over the deformed surface s.

    Solves sigma = f_U + z^-2j * (f_V in U-coords) exactly with
    triviality_certificate and assembles A_U = [[1, f_U], [0, 1]],
    A_V = [[1, -f_V], [0, 1]]; SplitCertificate says why that splits T.
    Raises CertificateNotFound when sigma is nontrivial, which happens only
    on the undeformed surface."""
    j = e.j
    target = PolyMatrix.diagonal([
        BiLaurent.term(1, j, 0, U_CHART),
        BiLaurent.term(1, -j, 0, U_CHART),
    ])
    one = BiLaurent.const(1, U_CHART)
    nil = BiLaurent.zero(U_CHART)
    try:
        cert = triviality_certificate(e.sigma, s, 2 * j)
    except NotTrivial as exc:
        raise CertificateNotFound(
            f"class {e.sigma} is not a coboundary on {s}"
        ) from exc
    a_u = PolyMatrix([[one, cert.f_U], [nil, one]])
    a_v = PolyMatrix([
        [BiLaurent.const(1, V_CHART), -cert.f_V],
        [BiLaurent.zero(V_CHART), BiLaurent.const(1, V_CHART)],
    ])
    return SplitCertificate(a_u, a_v, target)


_UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ChargeReport:
    """Charge bookkeeping: r1_dim is h0(R^1 pi_* E) = h^1(E), computed
    exactly from the extension sequence of E; the skyscraper component of
    the local holomorphic Euler characteristic is never fabricated and is
    reported as unsupported; splitting_ok records the divisibility
    criterion j = 0 mod k for the bundle to correspond to an instanton.
    No window enters."""

    r1_dim: int
    q_dim: str
    splitting_ok: bool


def charge_report(s: SurfaceSpec, e: ExtensionClass) -> ChargeReport:
    """Charge of the extension bundle E of e on Z_k(tau), following the
    charge computation of Gasparim-Koppe-Majumdar (Pure Appl. Math. Q. 4,
    2008).

    In extension_to_transition, slot 1 (z^j) spans the sub-bundle O(-j) and
    slot 2 (z^-j) the quotient O(j): 0 -> O(-j) -> E -> O(j) -> 0.  A
    section t of O(j) lifts to (0, t_U) on U and (0, t_V) on V; in the
    V-frame the lifts differ by (z^j sigma t_U, 0), which is sigma * t_U in
    the U-frame of O(-j).  So the connecting map is delta(t) = [sigma * t_U]
    in H^1(O(-j)), and as H^1(O(j)) = 0 for j >= 0 and the cover has no
    H^2, h^1(E) = h^1(O(-j)) - rank delta.  On tau != 0, h1_line_bundle
    proves h^1(O(-j)) = 0; on tau = 0 see _connecting_rank.
    """
    if s.is_deformed:
        r1_dim = h1_line_bundle(s, e.j).dimension
    else:
        r1_dim = h1_dimension_formula(s.k, e.j) - _connecting_rank(s, e)
    return ChargeReport(
        r1_dim=r1_dim,
        q_dim=_UNSUPPORTED,
        splitting_ok=(e.j % s.k == 0),
    )


def _connecting_rank(s: SurfaceSpec, e: ExtensionClass) -> int:
    """Rank of delta(t) = [sigma * t] from H^0(Z_k, O(j)) to H^1(Z_k, O(-j)),
    on the undeformed s = Z_k.

    H^0(O(j)) is spanned by the z^a u^b with z^-j z^a u^b = xi^(j+kb-a) v^b
    V-holomorphic, 0 <= a <= j + kb, and delta maps each to the normal form
    of sigma z^a u^b (cech.normal_form), which lies on the monomials
    z^l u^i, ki - j < l < 0.  Only finitely many sections can have a
    nonzero image: sigma z^a u^b is U-holomorphic once a >= -min_z(sigma),
    and for b > m = floor((j - 2) / k) every term has
    ki - j >= k(m + 1) - j >= -1, so no normal-form monomial.  Scaling
    sigma once by the lcm of its denominators keeps the rank and makes
    every image an int vector, counted on linalg's one echelon,
    IntegerEchelon, which never leaves the integers.
    """
    scale = lcm(*(c.denominator for _, c in e.sigma.items()))
    j, sigma = e.j, BiLaurent({key: c * scale for key, c in e.sigma.items()})
    reach = 0 if sigma.is_zero else -sigma.min_z_exp()
    span = IntegerEchelon()
    for b in range((j - 2) // s.k + 1):
        for a in range(min(j + s.k * b + 1, reach)):
            span.add(normal_form(BiLaurent.term(1, a, b) * sigma, s, j).terms)
    return span.rank


# On a nontrivial deformation every bundle splits, so any moduli space of
# bundles is discrete and zero-dimensional.
DISCRETE_ZERO_DIMENSIONAL = "discrete-zero-dimensional"

ModuliDimension = Union[int, str]


def moduli_dimension(j: int, k: int, deformed: bool = False) -> ModuliDimension:
    """Documented dimension 2j - k - 2 of the moduli of rank-2 bundles of
    splitting type j on the undeformed Z_k (a cited constant, not
    recomputed here), or DISCRETE_ZERO_DIMENSIONAL on deformed surfaces.

    Raises NotApplicable when 2j - k - 2 < 0 on the undeformed surface.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if j < 0:
        raise ValueError("j must be >= 0")
    if deformed:
        return DISCRETE_ZERO_DIMENSIONAL
    value = 2 * j - k - 2
    if value < 0:
        raise NotApplicable(
            f"2j-k-2 = {value} < 0: no moduli of splitting type {j} on Z_{k}"
        )
    return value


def extension_parameter_count(k: int, j: int) -> int:
    """Raw parameter count of splitting-type-j normal forms: the number of
    basis classes of H^1(Z_k, O(-2j)) with u-exponent >= 1 (those with
    sigma vanishing on the zero section), that is h1_dimension_formula(k,
    2j) less the 2j - 1 normal-form monomials z^l, -2j < l < 0, of the
    u = 0 row.  Exposed for comparison with the moduli dimension; no
    relation between the two is asserted."""
    return h1_dimension_formula(k, 2 * j) - max(0, 2 * j - 1)
