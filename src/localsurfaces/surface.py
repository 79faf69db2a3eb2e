"""Two-chart models of the local surfaces Z_k and their deformations Z_k(tau).

Z_k(tau) is glued from charts U = {(z, u)} and V = {(xi, v)} along
(xi, v) = (z^-1, z^k u + tau) with tau = t_1 z + ... + t_{k-1} z^{k-1};
tau = 0 recovers Z_k, the total space of O(-k) over the projective line.
The inverse rewrite uses u = xi^k v - sum_i t_i xi^{k-i}.

Chart rewrites are exact substitutions on BiLaurent values; the chart tag on
a polynomial says which coordinate pair its two slots mean, and the rewrite
operations enforce it.  A rewrite raises the glue image of u (or v) only to
the degrees that occur, each power built from the next lower one
(BiLaurent.substitute), so a polynomial of dense u-degree costs one
multiplication by the glue per degree.  Callers that rewrite many shifts of
one monomial rewrite it once and shift: on a deformed surface
cech.h0_basis rewrites z^-n u^b once per u-degree b, since z^a = xi^-a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from .errors import BadCocycleSupport, TagMismatch, UnsupportedForDeformed
from .laurent import BiLaurent, Q, U_CHART, V_CHART, as_fraction
from .polymatrix import PolyMatrix


@dataclass(frozen=True)
class SurfaceSpec:
    """The pair (k, tau) defining Z_k(tau)."""

    k: int
    tau: Tuple[Q, ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        tau = tuple(as_fraction(t) for t in self.tau)
        if len(tau) != self.k - 1:
            raise ValueError(
                f"tau must list t_1..t_{self.k - 1} ({self.k - 1} values), "
                f"got {len(tau)}"
            )
        object.__setattr__(self, "tau", tau)

    @property
    def is_deformed(self) -> bool:
        return any(self.tau)

    def tau_poly(self) -> BiLaurent:
        """tau as a polynomial in z (an overlap function, U-coords)."""
        return BiLaurent(
            {(i + 1, 0): t for i, t in enumerate(self.tau) if t},
            U_CHART,
        )

    def v_glue(self) -> BiLaurent:
        """v expressed in U-coordinates: z^k u + tau."""
        return BiLaurent.term(1, self.k, 1, U_CHART) + self.tau_poly()

    def u_glue(self) -> BiLaurent:
        """u expressed in V-coordinates: xi^k v - sum t_i xi^{k-i}."""
        terms = {(self.k, 1): Q(1)}
        for i, t in enumerate(self.tau, start=1):
            if t:
                terms[self.k - i, 0] = -t
        return BiLaurent(terms, V_CHART)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "tau": [str(t) for t in self.tau]}

    def __str__(self):
        if self.is_deformed:
            return f"Z_{self.k}({self.tau_poly()})"
        return f"Z_{self.k}"


def surface(k: int, tau: Union[None, Iterable, BiLaurent] = None) -> SurfaceSpec:
    """Convenience constructor; tau lists t_1..t_{k-1} or is a U-chart
    polynomial in z (TagMismatch otherwise) with terms in degrees 1..k-1
    only (BadCocycleSupport otherwise), and defaults to the zero
    deformation."""
    if tau is None:
        tau = [Q(0)] * (k - 1)
    elif isinstance(tau, BiLaurent):
        _require_chart(tau, U_CHART)
        for l, i in tau.support:
            if i or not 1 <= l <= k - 1:
                raise BadCocycleSupport(
                    f"tau term z^{l} u^{i} outside degrees 1..{k - 1}"
                )
        tau = [tau.coefficient(i, 0) for i in range(1, k)]
    return SurfaceSpec(k, tuple(tau))


def _require_chart(p: BiLaurent, wanted: str) -> None:
    if p.tag is not None and p.tag != wanted:
        raise TagMismatch(f"expected {wanted}-coords, got {p.tag}-coords")


def to_U_coords(p: BiLaurent, s: SurfaceSpec) -> BiLaurent:
    """Rewrite a V-chart function to U-coordinates via xi -> z^-1,
    v -> z^k u + tau.  Always yields a Laurent polynomial in z, polynomial
    in u."""
    _require_chart(p, V_CHART)
    return p.with_tag(None).substitute(
        z=BiLaurent.term(1, -1, 0),
        u=s.v_glue().with_tag(None),
        tag=U_CHART,
    )


def to_V_coords(p: BiLaurent, s: SurfaceSpec) -> BiLaurent:
    """Rewrite a U-chart function to V-coordinates via z -> xi^-1,
    u -> xi^k v - sum t_i xi^{k-i}."""
    _require_chart(p, U_CHART)
    return p.with_tag(None).substitute(
        z=BiLaurent.term(1, -1, 0),
        u=s.u_glue().with_tag(None),
        tag=V_CHART,
    )


def is_V_holomorphic(p: BiLaurent, s: SurfaceSpec) -> bool:
    """True when the U-chart function extends holomorphically over V,
    i.e. its V-coordinate rewrite has no negative power of xi.  For tau = 0
    this is the monomial criterion: z^m u^n is V-holomorphic iff m <= n*k."""
    rewritten = to_V_coords(p, s)
    return rewritten.is_zero or rewritten.min_z_exp() >= 0


def tangent_transition(s: SurfaceSpec) -> PolyMatrix:
    """Chart-change Jacobian [[-z^-2, 0], [k z^{k-1} u, z^k]]: the transition
    matrix of the tangent bundle of the undeformed Z_k."""
    if s.is_deformed:
        raise UnsupportedForDeformed(
            "tangent transition is only provided for tau = 0"
        )
    k = s.k
    return PolyMatrix([
        [BiLaurent.term(-1, -2, 0, U_CHART), BiLaurent.zero(U_CHART)],
        [BiLaurent.term(k, k - 1, 1, U_CHART), BiLaurent.term(1, k, 0, U_CHART)],
    ])


def glue_matrix(s: SurfaceSpec) -> PolyMatrix:
    """The glue written as a matrix acting on the coordinate column (z, u)^t:
    [[z^-2, 0], [z^-1 tau, z^k]] * (z, u)^t = (xi, v)^t."""
    return PolyMatrix([
        [BiLaurent.term(1, -2, 0, U_CHART), BiLaurent.zero(U_CHART)],
        [s.tau_poly() * BiLaurent.term(1, -1, 0, U_CHART),
         BiLaurent.term(1, s.k, 0, U_CHART)],
    ])
