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
from typing import Dict, Tuple, Union

from .cech import Window, h1, triviality_certificate
from .errors import (
    CertificateNotFound,
    NoZeroSection,
    NotApplicable,
    NotTrivial,
    ProfileInconsistent,
)
from .laurent import BiLaurent, Q, U_CHART, V_CHART
from .linalg import ReducedEchelon
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


def _section_count(T: PolyMatrix, twist: int, degree_cap: int) -> int:
    """dim of global sections of E(twist) on the projective line, where E
    has the u-free transition T: vectors of polynomials s_U with
    T * z^-twist * s_U free of positive z-powers."""
    r = T.size
    echelon = ReducedEchelon()
    rank = 0
    nvars = 0
    for slot in range(r):
        for deg in range(degree_cap + 1):
            nvars += 1
            vec: Dict[Tuple[int, int], Q] = {}
            for i in range(r):
                entry = T.entries[i][slot]
                for mono, coeff in entry.items():
                    e = mono.z_exp + deg - twist
                    if e > 0:
                        key = (i, e)
                        acc = vec.get(key, Q(0)) + coeff
                        if acc:
                            vec[key] = acc
                        else:
                            vec.pop(key, None)
            if echelon.add(vec):
                rank += 1
    return nvars - rank


def splitting_type_p1(T: PolyMatrix) -> Tuple[int, ...]:
    """Splitting type (j_1 >= ... >= j_r) of the u-free bundle T on the
    projective line, recovered from the profile of section counts
    h0(E(m)) = sum_i max(0, j_i + m + 1) over a twist range wide enough
    that both ends are in the stable regime."""
    r = T.size
    for row in T.entries:
        for p in row:
            if not p.is_zero and p.max_u_exp() > 0:
                raise ValueError("splitting_type_p1 needs u-free entries")
    _, det_exp = T.unit_det()
    span = 1
    for row in T.entries:
        for p in row:
            if not p.is_zero:
                span = max(span, abs(p.min_z_exp()), abs(p.max_z_exp()))
    reach = r * span + 2
    counts_h: Dict[int, int] = {}
    for m in range(-reach - 2, reach + 1):
        # section degrees propagate through row reduction, adding up to
        # 2*span per rank level
        degree_cap = abs(m) + (2 * r - 1) * span + 2
        counts_h[m] = _section_count(T, m, degree_cap)
    multiplicity: Dict[int, int] = {}
    for c in range(-reach, reach + 1):
        cnt = counts_h[-c] - 2 * counts_h[-c - 1] + counts_h[-c - 2]
        if cnt < 0:
            raise ProfileInconsistent(f"negative multiplicity at degree {c}")
        if cnt:
            multiplicity[c] = cnt
    split: list[int] = []
    for c in sorted(multiplicity, reverse=True):
        split.extend([c] * multiplicity[c])
    if len(split) != r or sum(split) != -det_exp:
        raise ProfileInconsistent(
            f"profile fits {split}, expected rank {r} and degree {-det_exp} "
            f"(window too small)"
        )
    for m, h in counts_h.items():
        if h != sum(max(0, ji + m + 1) for ji in split):
            raise ProfileInconsistent(
                f"section count at twist {m} disagrees with {split}"
            )
    return tuple(split)


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
    if e.sigma.is_zero:
        identity = PolyMatrix.identity(2)
        residual = target - target  # zero, shape 2x2
        return SplitCertificate(identity, identity, target, residual)
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
