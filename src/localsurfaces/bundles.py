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
from typing import Tuple, Union

from .cech import (
    h1_dimension_formula,
    h1_line_bundle,
    normal_form,
    triviality_certificate,
)
from .errors import CertificateNotFound, NoZeroSection, NotApplicable, NotTrivial
from .laurent import BiLaurent, U_CHART, V_CHART
from .linalg import ReducedEchelon, nullspace
from .polymatrix import PolyMatrix
from .surface import SurfaceSpec


@dataclass(frozen=True)
class ExtensionClass:
    """Extension data for a splitting-type-j bundle: sigma is the class in
    H^1 of O(-2j); the extension form is p = z^j * sigma."""

    j: int
    sigma: BiLaurent

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("splitting type j must be >= 0")

    @property
    def p(self) -> BiLaurent:
        return BiLaurent.term(1, self.j, 0) * self.sigma.with_tag(None)


def extension_to_transition(e: ExtensionClass) -> PolyMatrix:
    """Transition [[z^j, z^j sigma], [0, z^-j]]; determinant 1."""
    j = e.j
    return PolyMatrix([
        [BiLaurent.term(1, j, 0, U_CHART), e.p.with_tag(U_CHART)],
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
            {m: c for m, c in p.items() if m.u_exp == 0}, p.tag
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
    O(-d_1) + ... + O(-d_r)."""
    r = T.size
    for row in T.entries:
        for p in row:
            if not p.is_zero and p.max_u_exp() > 0:
                raise ValueError("splitting_type_p1 needs u-free entries")
    T.unit_det()
    cols = [[row[j] for row in T.entries] for j in range(r)]  # cols[j][i] = T[i][j]
    while True:
        deg = [max(p.max_z_exp() for p in col if not p.is_zero) for col in cols]
        lead = [{} for _ in range(r)]
        for j, col in enumerate(cols):
            for i, p in enumerate(col):
                x = p.coefficient(deg[j], 0)
                if x:
                    lead[i][j] = x
        kernel = nullspace(lead, r)
        if not kernel:
            return tuple(sorted((-d for d in deg), reverse=True))
        c = kernel[0]
        h = max(c, key=lambda j: (deg[j], j))
        # column h becomes sum over s of (c_s / c_h) * z^(d_h - d_s) * column s
        cols[h] = [
            sum(
                (BiLaurent.term(c[s] / c[h], deg[h] - deg[s], 0) * cols[s][i]
                 for s in c),
                BiLaurent.zero(),
            )
            for i in range(r)
        ]


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
    defines f_U as sigma - z^-2j * to_U_coords(f_V, s), the same rewrite,
    and raises unless f_U is U-holomorphic.  So the difference is 0, and
    A_U and A_V, being unipotent, have determinant 1."""

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
    a_u = PolyMatrix([[one, cert.f_U.with_tag(U_CHART)], [nil, one]])
    a_v = PolyMatrix([
        [BiLaurent.const(1, V_CHART), (-cert.f_V).with_tag(V_CHART)],
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
    ki - j >= k(m + 1) - j >= -1, so no normal-form monomial.
    """
    j, sigma = e.j, e.sigma.with_tag(None)
    reach = 0 if sigma.is_zero else -sigma.min_z_exp()
    span = ReducedEchelon()
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
    sigma vanishing on the zero section).  Exposed for comparison with the
    moduli dimension; no relation between the two is asserted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 2 * j
    if n < 2:
        return 0
    m = (n - 2) // k
    return sum(n - 1 - i * k for i in range(1, m + 1))
