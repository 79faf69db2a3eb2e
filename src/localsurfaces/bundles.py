"""Rank-2 extensions, splitting types on the zero section, splitting
certificates on deformed surfaces, and instanton-side bookkeeping.

A rank-2 bundle with vanishing first Chern class and splitting type j is an
extension of O(j) by O(-j) and is presented by the transition matrix
[[z^j, z^j sigma], [0, z^-j]] with sigma a class in H^1 of O(-2j).  On the
undeformed Z_k such classes form nontrivial moduli; on any nontrivial
deformation every class is a coboundary, and the explicit coboundary data
assembles a pair of unipotent matrices splitting the bundle off the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .cech import Window, h1, triviality_certificate
from .errors import CertificateNotFound, NoZeroSection, NotApplicable, NotTrivial
from .laurent import BiLaurent, Q, U_CHART, V_CHART
from .linalg import nullspace
from .polymatrix import PolyMatrix
from .surface import SurfaceSpec, to_U_coords


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
    """Machine-checkable splitting of a rank-2 bundle: unipotent A_U
    (U-holomorphic entries) and A_V (V-holomorphic entries) with
    A_V * T * A_U^-1 = diag(z^j, z^-j); the stored residual is
    A_V * T - target * A_U, empty exactly when the splitting is exact."""

    a_u: PolyMatrix
    a_v: PolyMatrix
    target: PolyMatrix
    residual: PolyMatrix

    @property
    def exact(self) -> bool:
        return self.residual.is_zero()

    def dets(self) -> Tuple[Q, Q]:
        return (
            self.a_u.det().as_rational(),
            self.a_v.det().as_rational(),
        )


def split_certificate(s: SurfaceSpec, e: ExtensionClass) -> SplitCertificate:
    """Split the extension bundle of e over the deformed surface s.

    Solves sigma = f_U + z^-2j * (f_V in U-coords) and assembles
    A_U = [[1, f_U], [0, 1]], A_V = [[1, -f_V], [0, 1]].  Raises
    CertificateNotFound when no in-window coboundary expression exists
    (never expected on a deformed surface once the window suffices)."""
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
            f"class {e.sigma} is not an in-window coboundary on {s}"
        ) from exc
    a_u = PolyMatrix([[one, cert.f_U.with_tag(U_CHART)], [nil, one]])
    f_v_neg = (-cert.f_V).with_tag(V_CHART)
    a_v = PolyMatrix([
        [BiLaurent.const(1, V_CHART), f_v_neg],
        [BiLaurent.zero(V_CHART), BiLaurent.const(1, V_CHART)],
    ])
    a_v_in_u = a_v.map_entries(lambda p: to_U_coords(p, s))
    T = extension_to_transition(e)
    residual = (a_v_in_u @ T) - (target @ a_u)
    return SplitCertificate(a_u, a_v, target, residual)


_UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ChargeReport:
    """Charge bookkeeping: r1_dim is the computed h0(R^1 pi_* E)
    = dim H^1 of the bundle; the skyscraper component of the local
    holomorphic Euler characteristic is never fabricated and is reported
    as unsupported; splitting_ok records the divisibility criterion
    j = 0 mod k for the bundle to correspond to an instanton."""

    r1_dim: int
    q_dim: str
    splitting_ok: bool
    window: Window
    stabilized: bool


def charge_report(s: SurfaceSpec, T: PolyMatrix, j: int) -> ChargeReport:
    result = h1(s, T)
    return ChargeReport(
        r1_dim=result.dimension,
        q_dim=_UNSUPPORTED,
        splitting_ok=(j % s.k == 0),
        window=result.window,
        stabilized=result.stabilized,
    )


class _DiscreteZeroDimensional:
    """Marker: on a nontrivial deformation every bundle splits, so any
    moduli space of bundles is discrete and zero-dimensional."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DiscreteZeroDimensional"


DISCRETE_ZERO_DIMENSIONAL = _DiscreteZeroDimensional()

ModuliDimension = Union[int, _DiscreteZeroDimensional]


def moduli_dimension(j: int, k: int, deformed: bool = False) -> ModuliDimension:
    """Documented dimension 2j - k - 2 of the moduli of rank-2 bundles of
    splitting type j on the undeformed Z_k (a cited constant, not
    recomputed here), or the discrete marker on deformed surfaces.

    Raises NotApplicable when 2j - k - 2 < 0 on the undeformed surface.
    """
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
    n = 2 * j
    if n < 2:
        return 0
    m = (n - 2) // k
    return sum(n - 1 - i * k for i in range(1, m + 1))
