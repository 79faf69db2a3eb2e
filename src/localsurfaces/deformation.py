"""Deformations of Z_k: tangent cohomology, integrability of extension
classes, the semiuniversal family with its Kodaira-Spencer map, and the
embedding into the Hirzebruch-surface family.

The pipeline mirrors the construction: the tangent bundle of Z_k is an
extension of O(2) by O(-k), so candidate deformations of it are classes in
Ext^1(O(2), O(-k)) ~ H^1(Z_k, O(-k-2)).  A candidate transition matrix
S = [[z^k, k z^{k-1} u + sigma], [0, -z^-2]] is the Jacobian of an actual
chart change exactly when its entries admit consistent antiderivatives;
integrating termwise classifies every direction and produces the glue
(xi, v) = (z^-1, z^k u + tau) after normalizing away the two free
translation constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Sequence, Tuple, Union

from .cech import CohomologyResult
from .errors import BadCocycleSupport
from .laurent import BiLaurent, Q, Terms, U_CHART, V_CHART, as_fraction
from .params import ParamPoly
from .polymatrix import PolyMatrix
from .surface import (
    SurfaceSpec, _require_chart, glue_matrix, surface, tangent_transition,
)

# A tangent cocycle: the two components of a vector field in the U-frame.
VectorCocycle = Tuple[BiLaurent, ...]


def tangent_h1(k: int) -> CohomologyResult:
    """H^1(Z_k, T_{Z_k}): dimension k-1 with basis {(0, z^l)^t},
    1-k <= l <= -1.

    In tangent_transition, slot 2 (z^k) spans the sub-bundle O(-k) and
    slot 1 (-z^-2) the quotient O(2): 0 -> O(-k) -> T -> O(2) -> 0.  A
    section t of O(2) lifts to (t_U, 0) and (t_V, 0); in the V-frame the
    lifts differ by (0, k z^{k-1} u t_U), which is k z^-1 u t_U in the
    U-frame of O(-k).  That has u-degree >= 1 > m = floor((k-2)/k), so its
    class vanishes, and as H^1(O(2)) = 0 and the cover has no H^2,
    H^1(T) = H^1(O(-k)), whose normal-form basis is z^l, -k < l < 0, in
    slot 2.  The basis is of VectorCocycle pairs; no window enters, so the
    result has window None and stabilized=True.
    """
    zero = BiLaurent.zero(U_CHART)
    basis = tuple(
        (zero, BiLaurent.term(1, l, 0, U_CHART)) for l in range(1 - k, 0)
    )
    return CohomologyResult(
        dimension=len(basis), basis=basis, window=None, stabilized=True
    )


def ext_basis_tangent(k: int) -> Tuple[Tuple[BiLaurent, ...], Tuple[BiLaurent, ...]]:
    """Monomial bases of Ext^1(O(2), O(-k)) and of H^1(Z_k, O(-k-2)).

    The two lists correspond entrywise under multiplication by z^-k:
    ext basis {z^{k-1} u, z^-1, 1, z, ..., z^{k-1}}, cohomology basis
    {z^-1 u, z^{-k-1}, ..., z^-1}.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ext = [BiLaurent.term(1, k - 1, 1, U_CHART)]
    ext += [BiLaurent.term(1, l, 0, U_CHART) for l in range(-1, k)]
    shift = BiLaurent.term(1, -k, 0, U_CHART)
    h1_basis = [p * shift for p in ext]
    return tuple(ext), tuple(h1_basis)


class Verdict(Enum):
    NOT_A_JACOBIAN = "NotAJacobian"
    NOT_INTEGRABLE = "NotIntegrable"
    TRIVIAL_FAMILY = "TrivialFamily"
    NONTRIVIAL_DEFORMATION = "NontrivialDeformation"


@dataclass(frozen=True)
class TangentExtensionClass:
    """Extension class s1 * z^{k-1} u + sum_{l=-1}^{k-1} s0[l] * z^l."""

    k: int
    s1: Q = Q(0)
    s0: Mapping[int, Q] = None  # type: ignore[assignment]

    def __post_init__(self):
        s0 = {l: x for l, c in (self.s0 or {}).items() if (x := as_fraction(c))}
        if any(l < -1 or l > self.k - 1 for l in s0):
            raise BadCocycleSupport(
                f"s0 exponents must lie in [-1, {self.k - 1}]"
            )
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "s1", as_fraction(self.s1))

    @classmethod
    def from_poly(cls, k: int, sigma: BiLaurent) -> "TangentExtensionClass":
        _require_chart(sigma, U_CHART)
        s1 = Q(0)
        s0: Dict[int, Q] = {}
        for (l, i), coeff in sigma.items():
            if (l, i) == (k - 1, 1):
                s1 = coeff
            elif i == 0 and -1 <= l <= k - 1:
                s0[l] = coeff
            else:
                raise BadCocycleSupport(
                    f"term z^{l} u^{i} is outside the extension space for k={k}"
                )
        return cls(k, s1, s0)

    def poly(self) -> BiLaurent:
        terms = [((self.k - 1, 1), self.s1)]
        terms += [((l, 0), c) for l, c in self.s0.items()]
        return BiLaurent(terms, U_CHART)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Verdict plus the normalized glue data for an integrable direction."""

    verdict: Verdict
    tau: Tuple[Q, ...]
    t_k: Q
    c: Q
    c_prime: Q

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "tau": [str(t) for t in self.tau],
            "tK": str(self.t_k),
            "C": str(self.c),
            "CPrime": str(self.c_prime),
        }


def _integrate_z(p: BiLaurent) -> Tuple[BiLaurent, BiLaurent]:
    """Termwise antiderivative in z.  Returns (polynomial part, logarithmic
    part), the latter collecting the coefficients of z^-1 (times u powers),
    which have no holomorphic antiderivative on the punctured plane."""
    poly_terms: Terms = {}
    log_terms: Terms = {}
    for (l, i), coeff in p.items():
        if l == -1:
            log_terms[0, i] = coeff
        else:
            poly_terms[l + 1, i] = Q(coeff, l + 1)
    return BiLaurent(poly_terms), BiLaurent(log_terms)


def _integrate_u(p: BiLaurent) -> BiLaurent:
    return BiLaurent(
        {(l, i + 1): Q(coeff, i + 1) for (l, i), coeff in p.items()}
    )


def integrability_analysis(k: int, cls: TangentExtensionClass) -> IntegrabilityReport:
    """Classify the candidate transition S = [[z^k, k z^{k-1} u + sigma],
    [0, -z^-2]] by termwise symbolic integration.

    The (2,*) row always integrates consistently up to a constant C', which
    the invertibility of the resulting glue then forces to 0.  The (1,*) row
    requires: no z^{k-1} u term in sigma (the mixed z^k u coefficients must
    agree), no z^-1 term (logarithm obstruction), and yields
    v = z^k (u + t_k) + tau + C with t_i = (1/i) s_{0,i-1}.
    """
    if cls.k != k:
        raise ValueError("class was built for a different k")
    s11 = BiLaurent.term(1, k, 0)
    s12 = BiLaurent.term(k, k - 1, 1) + cls.poly()

    # Row 2: the antiderivatives of (0, -z^-2) are z^-1 + C'.
    c_prime = Q(0)  # det z^{k-1}(z^-1 + C') must be invertible for z != 0

    # Row 1: compare the u-antiderivative of S11 with the z-antiderivative
    # of S12.
    int_s11 = _integrate_u(s11)  # z^k u, plus a free f_11(z)
    int_s12, log12 = _integrate_z(s12)  # plus a free f_12(u)
    mismatch = int_s12 - int_s11
    mixed = BiLaurent(
        {(l, i): c for (l, i), c in mismatch.items() if i >= 1 and l != 0}
    )
    zero_tau = (Q(0),) * (k - 1)
    if not mixed.is_zero:
        return IntegrabilityReport(Verdict.NOT_A_JACOBIAN, zero_tau, Q(0), Q(0), c_prime)
    if not log12.is_zero:
        return IntegrabilityReport(Verdict.NOT_INTEGRABLE, zero_tau, Q(0), Q(0), c_prime)

    # v = z^k u + t_k z^k + tau + C; read tau and t_k off the integral.
    tau = tuple(int_s12.coefficient(i, 0) for i in range(1, k))
    t_k = int_s12.coefficient(k, 0)
    verdict = (
        Verdict.NONTRIVIAL_DEFORMATION if any(tau) else Verdict.TRIVIAL_FAMILY
    )
    return IntegrabilityReport(verdict, tau, t_k, Q(0), c_prime)


def normalization_residual(k: int, tau: Union[BiLaurent, Sequence]) -> ParamPoly:
    """v-component residual of T_{Z_k(tau)} o phi_U - phi_V o T_{Z_k(tau,
    tK, C, 0)} over formal parameters (tK, C), where phi_U(z, u) =
    (z, u + tK) and phi_V(xi, v) = (xi, v - C).  Identically zero: both
    sides are z^k (u + tK) + tau, so the translations normalize the two
    integration constants of integrability_analysis away for every value."""
    params = ("tK", "C")
    t_k = ParamPoly.var("tK", params)
    c = ParamPoly.var("C", params)
    tau_poly = ParamPoly.from_poly(surface(k, tau).tau_poly(), params)
    u_var = ParamPoly.from_poly(BiLaurent.term(1, 0, 1), params)
    z_k = ParamPoly.from_poly(BiLaurent.term(1, k, 0), params)

    # v-glue of Z_k(tau) evaluated after phi_U: u -> u + tK.
    v_tau = z_k * u_var + tau_poly
    lhs = v_tau.substitute_vars(u=u_var + t_k)
    # glue of Z_k(tau, tK, C, 0) followed by phi_V: v -> v - C.
    v_full = z_k * (u_var + t_k) + tau_poly + c
    rhs = v_full - c
    return lhs - rhs


def deform_by_cocycle(k: int, tau: BiLaurent) -> SurfaceSpec:
    """Rebuild Z_k(tau) by adding the tangent cocycle (0, z^-k tau)^t to the
    overlap coordinates and then applying the Z_k glue: the result is
    v = z^k (u + z^-k tau) = z^k u + tau, and the surface is read off it,
    so tau must be in U-coordinates (TagMismatch otherwise) and lie in
    degrees 1..k-1 (BadCocycleSupport otherwise).  The glue reproduces tau
    exactly, which the tests re-check against the fibres of family_and_ks."""
    _require_chart(tau, U_CHART)
    shifted_u = BiLaurent.term(1, 0, 1) + BiLaurent.term(1, -k, 0) * tau
    _, v_comp = glue_matrix(surface(k)).apply((BiLaurent.term(1, 1, 0), shifted_u))
    return surface(k, v_comp - BiLaurent.term(1, k, 1))


def _param_values(params: Tuple[str, ...], tvals: Sequence) -> Dict[str, Q]:
    """tvals as rationals keyed by the parameter names, one value each."""
    if len(tvals) != len(params):
        raise ValueError(f"wrong number of parameter values: {len(tvals)} "
                         f"for {len(params)} parameters")
    return {name: as_fraction(v) for name, v in zip(params, tvals)}


@dataclass(frozen=True)
class FamilySpec:
    """The (k-1)-parameter family over C^{k-1} whose fibre at t is Z_k(tau),
    tau = sum t_i z^i, encoded by the block transition
    [[z^-2, 0, 0], [z^-1 tau, z^k, 0], [0, 0, I_{k-1}]] acting on the
    coordinate column (z, u, t)^t."""

    k: int
    params: Tuple[str, ...]
    transition: Tuple[Tuple[ParamPoly, ...], ...]

    @property
    def base_dim(self) -> int:
        return self.k - 1

    def fiber(self, tvals: Sequence) -> Tuple[SurfaceSpec, PolyMatrix]:
        """Surface and 2x2 glue matrix of the fibre at rational t."""
        values = _param_values(self.params, tvals)
        corner = [
            [self.transition[i][j].substitute_params(values) for j in range(2)]
            for i in range(2)
        ]
        return surface(self.k, tuple(values.values())), PolyMatrix(corner)


def _family_params(k: int) -> Tuple[Tuple[str, ...], Tuple[ParamPoly, ...], ParamPoly]:
    """The parameter names t1..t(k-1), the parameters t_i as ParamPolys
    and tau = sum t_i z^i, a U-chart function, over those names."""
    params = tuple(f"t{i}" for i in range(1, k))
    t = tuple(ParamPoly.var(name, params) for name in params)
    tau = sum(
        (t_i * BiLaurent.term(1, i, 0, U_CHART) for i, t_i in enumerate(t, start=1)),
        ParamPoly.zero(params),
    )
    return params, t, tau


def family_and_ks(k: int) -> Tuple[FamilySpec, Dict[int, VectorCocycle]]:
    """The semiuniversal family of Z_k together with its Kodaira-Spencer map
    on basis vectors: d/dt_i maps to the tangent cocycle (0, z^{-k+i})^t.

    The map is derived, not transcribed: differentiating the family glue in
    t_i and setting t = 0 gives the V-frame field (0, z^i), which the
    inverse tangent transition converts to (0, z^{i-k}), the i-th
    tangent_h1(k) basis vector.  The fibre at t = 0 is Z_k because
    tau = sum t_i z^i vanishes there, which leaves the glue of Z_k in the
    corner.  The tests re-check both identities.
    """
    if k < 2:
        raise ValueError("the family needs k >= 2")
    params, _, tau = _family_params(k)
    size = k + 1
    rows = [[ParamPoly.zero(params)] * size for _ in range(size)]
    rows[0][0] = ParamPoly.from_poly(BiLaurent.term(1, -2, 0), params)
    rows[1][0] = tau * BiLaurent.term(1, -1, 0)
    rows[1][1] = ParamPoly.from_poly(BiLaurent.term(1, k, 0), params)
    for i in range(2, size):
        rows[i][i] = ParamPoly.const(1, params)
    fam = FamilySpec(k, params, tuple(map(tuple, rows)))

    # Kodaira-Spencer: derivative of the family v-glue, converted to U-frame.
    v_glue_sym = tau + BiLaurent.term(1, k, 1)
    conv = tangent_transition(surface(k)).inverse()
    zero_t = {name: Q(0) for name in params}
    ks: Dict[int, VectorCocycle] = {}
    for i, name in enumerate(params, start=1):
        wiggle = v_glue_sym.derivative(name).substitute_params(zero_t)
        ks[i] = conv.apply((BiLaurent.zero(), wiggle))
    return fam, ks


@dataclass(frozen=True)
class HirzebruchReport:
    """Embedding data of the family into the Hirzebruch-surface family.

    x lists the U-chart projective fibre coordinates [x_0 : ... : x_{k+1}],
    y the V-chart ones; the residuals are the left-minus-right sides of the
    k defining equations on each chart, as polynomials in (z, u, t) resp.
    (xi, v, t); all must vanish identically."""

    k: int
    x: Tuple[ParamPoly, ...]
    y: Tuple[ParamPoly, ...]
    residuals_u: Tuple[ParamPoly, ...]
    residuals_v: Tuple[ParamPoly, ...]
    overlap_consistent: bool

    @property
    def all_zero(self) -> bool:
        return all(r.is_zero for r in self.residuals_u + self.residuals_v)

    def x_at(self, tvals: Sequence) -> Tuple[BiLaurent, ...]:
        values = _param_values(self.x[0].params, tvals)
        return tuple(p.substitute_params(values) for p in self.x)

    def y_at(self, tvals: Sequence) -> Tuple[BiLaurent, ...]:
        values = _param_values(self.y[0].params, tvals)
        return tuple(p.substitute_params(values) for p in self.y)


def hirzebruch_embed_check(k: int) -> HirzebruchReport:
    """Build the chart maps into the Hirzebruch family
    x_{n+1} = z^{k-n} u + sum_{i=n+1}^{k-1} t_i z^{i-n},
    y_{n+1} = xi^n v - sum_{i=1}^{n} t_i xi^{n-i} (0 <= n <= k)
    and report the residuals of the defining equations
    z_0 x_n = z_1 (x_{n+1} + t_n x_0) (n < k) and z_0 x_k = z_1 x_{k+1},
    plus consistency of the two charts under the glue."""
    if k < 2:
        raise ValueError("the Hirzebruch family needs k >= 2")
    params, t, tau = _family_params(k)

    def upoly(z_exp, u_exp) -> ParamPoly:
        return ParamPoly.from_poly(BiLaurent.term(1, z_exp, u_exp, U_CHART), params)

    def vpoly(xi_exp, v_exp) -> ParamPoly:
        return ParamPoly.from_poly(BiLaurent.term(1, xi_exp, v_exp, V_CHART), params)

    one_u = upoly(0, 0)
    x = [one_u]
    for n in range(0, k + 1):
        entry = upoly(k - n, 1)
        for i in range(n + 1, k):
            entry = entry + t[i - 1] * upoly(i - n, 0)
        x.append(entry)

    one_v = vpoly(0, 0)
    y = [one_v]
    for n in range(0, k + 1):
        entry = vpoly(n, 1)
        for i in range(1, min(n, k - 1) + 1):
            entry = entry - t[i - 1] * vpoly(n - i, 0)
        y.append(entry)

    z_u = upoly(1, 0)  # z_1 on the U chart (z_0 = 1)
    residuals_u = [
        x[n] - z_u * (x[n + 1] + t[n - 1] * x[0]) for n in range(1, k)
    ]
    residuals_u.append(x[k] - z_u * x[k + 1])

    xi_v = vpoly(1, 0)  # z_0 on the V chart (z_1 = 1)
    residuals_v = [
        xi_v * y[n] - (y[n + 1] + t[n - 1] * y[0]) for n in range(1, k)
    ]
    residuals_v.append(xi_v * y[k] - y[k + 1])

    # Overlap: rewriting the V-chart data to U-coordinates must reproduce
    # the U-chart data (the projective rescaling by z is the first factor).
    z_img = ParamPoly.from_poly(BiLaurent.term(1, -1, 0), params)
    v_img = upoly(k, 1) + tau
    overlap = all(
        y[j].substitute_vars(z=z_img, u=v_img, tag=U_CHART) == x[j]
        for j in range(k + 2)
    )
    overlap = overlap and (
        xi_v.substitute_vars(z=z_img, u=v_img, tag=U_CHART) * z_u == one_u
    )
    return HirzebruchReport(
        k=k,
        x=tuple(x),
        y=tuple(y),
        residuals_u=tuple(residuals_u),
        residuals_v=tuple(residuals_v),
        overlap_consistent=overlap,
    )
