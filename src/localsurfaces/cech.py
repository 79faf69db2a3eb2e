"""Truncated Cech complex for the two-chart cover of Z_k(tau).

The cover has two sets, so the complex has two levels and H^i = 0 for i >= 2
structurally; this module computes H^0 and H^1 with coefficients in any
bundle given by a transition matrix T (orientation: s_V = T * s_U).

A 1-cocycle is a vector of overlap functions in U-coordinates.  Its class is
unchanged by adding: (i) any U-holomorphic vector, and (ii) any V-holomorphic
vector converted to U-frame components, which means multiplied by T^-1 after
rewriting the component functions to U-coordinates.  For O(-n), whose
transition is (z^n), the V-side contributions are exactly the functions
z^-n * f with f holomorphic on V.

The infinite cochain spaces are truncated to a finite monomial window.
Quotienting by (i) is done analytically: the nonnegative-z window monomials
are exactly the U-holomorphic ones, so the complex keeps only the negative-z
window monomials as coordinates, and its columns are the images (ii) of the
V-holomorphic monomials, restricted to those coordinates.  Every computed
dimension is therefore an in-window statement.  On the undeformed surface
the monomial normal form makes the answer exact once the window stabilizes;
on deformed surfaces the stabilization flag is reported alongside.

Window growth is fixed: H^1 enlarges its window by (3, 1) (three z steps on
each side, one u step) until the dimension is unchanged across two
consecutive enlargements, and gives up with StepCapExceeded after 8
enlargements.

All linear algebra runs on the sparse ReducedEchelon: ranks and normal forms
on the complex's own echelon, H^0 sections through linalg.nullspace, and
both solves of a triviality certificate (over the untruncated images, then
over the window columns) through one solve, _solve_in_span, which
eliminates the columns augmented by unit tag coordinates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    NotTrivial,
    StepCapExceeded,
    SupportOutsideWindow,
    WindowTooSmall,
)
from .laurent import BiLaurent, Monomial, Q, U_CHART, V_CHART
from .linalg import ReducedEchelon, SparseVec, nullspace
from .polymatrix import PolyMatrix
from .surface import SurfaceSpec, line_transition, to_U_coords, to_V_coords

# Window growth per enlargement (z steps on each side, u steps) and the
# number of enlargements after which stabilization gives up.
_GROW = (3, 1)
_GROWTH_CAP = 8


@dataclass(frozen=True)
class Window:
    """Monomial truncation box {z^l u^i : min_z <= l <= max_z, 0 <= i <= max_u}."""

    min_z: int
    max_z: int
    max_u: int

    def __post_init__(self):
        if self.min_z > 0 or self.max_z < 0 or self.max_u < 0:
            raise ValueError("window must satisfy min_z <= 0 <= max_z, max_u >= 0")

    @property
    def size(self) -> int:
        return (self.max_z - self.min_z + 1) * (self.max_u + 1)

    def contains(self, mono: Monomial) -> bool:
        return self.min_z <= mono.z_exp <= self.max_z and 0 <= mono.u_exp <= self.max_u

    def covers(self, poly: BiLaurent) -> bool:
        return all(self.contains(m) for m in poly.support)

    def monomials(self) -> List[Monomial]:
        return [
            Monomial(l, i)
            for l in range(self.min_z, self.max_z + 1)
            for i in range(self.max_u + 1)
        ]

    def local_index(self, mono: Monomial) -> int:
        return (mono.z_exp - self.min_z) * (self.max_u + 1) + mono.u_exp

    def grown(self, dz: int, du: int) -> "Window":
        return Window(self.min_z - dz, self.max_z + dz, self.max_u + du)

    def hull(self, polys: Sequence[BiLaurent]) -> "Window":
        """Smallest enlargement of self containing every given support."""
        min_z, max_z, max_u = self.min_z, self.max_z, self.max_u
        for p in polys:
            for m in p.support:
                min_z = min(min_z, m.z_exp)
                max_z = max(max_z, m.z_exp)
                max_u = max(max_u, m.u_exp)
        return Window(min_z, max_z, max_u)

    def to_json_dict(self) -> dict:
        return {"min_z": self.min_z, "max_z": self.max_z, "max_u": self.max_u}


def default_window(s: SurfaceSpec, n: int) -> Window:
    """Default window for O(-n) on Z_k(tau): generous enough to contain the
    monomial normal-form range plus coboundary reach."""
    reach = abs(n) + s.k + 3
    floor_m = (n - 2) // s.k if n >= 2 else 0
    return Window(-reach, reach, max(0, floor_m + 3))


def default_window_for_transition(s: SurfaceSpec, transition: PolyMatrix) -> Window:
    """Window sized from the exponent span of a transition matrix."""
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


VectorCocycle = Tuple[BiLaurent, ...]
CocycleLike = Union[BiLaurent, Sequence[BiLaurent]]


@dataclass(frozen=True)
class CohomologyResult:
    """Outcome of a truncated H^0/H^1 computation."""

    dimension: int
    basis: Tuple[VectorCocycle, ...]
    m_row: Optional[int]
    window: Window
    stabilized: bool
    rank: int

    @property
    def scalar_basis(self) -> Tuple[BiLaurent, ...]:
        if self.rank != 1:
            raise ValueError("scalar basis only for rank-1 coefficients")
        return tuple(vec[0] for vec in self.basis)


@dataclass(frozen=True)
class TrivialityCertificate:
    """Explicit coboundary data: sigma = f_U + T^-1 * (f_V in U-coords)
    + residual, with the residual supported outside the window (empty when
    the certificate is exact)."""

    f_U: BiLaurent
    f_V: BiLaurent
    residual: BiLaurent
    window: Window

    @property
    def exact(self) -> bool:
        return self.residual.is_zero


class CechComplex:
    """Coboundary space of a bundle over a fixed window, with normal forms.

    Every nonnegative-z window monomial is U-holomorphic, hence already a
    coboundary, so the complex works modulo those: its coordinates are the
    negative-z window monomials (times rank, slot-major).  Its columns are
    the images -T^-1 * rewrite(xi^a v^b e_slot) of the V-holomorphic vector
    monomials whose image meets the window, restricted to the negative-z
    window monomials.  The image of a V monomial xi^a v^b is z^-a times the
    image of v^b, so each column is written by shifting exponents of one
    product per (b, slot); the complex keeps those products, and image(key)
    returns a column's untruncated image as the same shift.
    """

    def __init__(self, s: SurfaceSpec, transition: PolyMatrix, window: Window):
        self.surface = s
        self.transition = transition
        self.window = window
        self.rank = transition.size
        transition.unit_det()
        self.conv = transition.inverse()
        self._wsize = window.size
        # Negative-z monomials come first in each slot's local indices.
        self._neg_size = -window.min_z * (window.max_u + 1)

        self.columns: List[Tuple[tuple, SparseVec]] = []
        # Untruncated image of v^beta e_slot, by (beta, slot).
        self._bases: Dict[Tuple[int, int], VectorCocycle] = {}
        self.truncated_terms = 0
        self._echelon = ReducedEchelon()
        self._assemble()

    # -- construction ------------------------------------------------------

    def _conv_spans(self) -> Tuple[int, int]:
        n_eff = 0
        u_gain = 0
        for row in self.conv.entries:
            for p in row:
                if not p.is_zero:
                    n_eff = max(n_eff, -p.min_z_exp())
                    u_gain = max(u_gain, p.max_u_exp())
        return n_eff, u_gain

    def _index(self, slot: int, mono: Monomial) -> int:
        return slot * self._wsize + self.window.local_index(mono)

    def _coords(self, index: int) -> Tuple[int, Monomial]:
        slot, local = divmod(index, self._wsize)
        l, i = divmod(local, self.window.max_u + 1)
        return slot, Monomial(l + self.window.min_z, i)

    def _assemble(self) -> None:
        # V-holomorphic generators xi^alpha v^beta e_slot, mapped by
        # -T^-1 * (U-coordinate rewrite), in (beta, slot, alpha) order.
        w = self.window
        width = w.max_u + 1
        n_eff, u_gain = self._conv_spans()
        v_glue = self.surface.v_glue().with_tag(None)
        rho = BiLaurent.const(1)
        for beta in range(w.max_u + n_eff + u_gain + 3):
            if beta:
                rho = rho * v_glue
            for slot in range(self.rank):
                base = tuple(
                    -(self.conv.entries[i][slot].with_tag(None) * rho)
                    for i in range(self.rank)
                )
                self._bases[beta, slot] = base
                n_terms = sum(len(comp.items()) for comp in base)
                # (z, index of the term shifted by alpha = 0, coeff), z-sorted;
                # shifting by z^-alpha moves an index down by alpha * width.
                terms = sorted(
                    (m.z_exp, self._index(i, m), c)
                    for i, comp in enumerate(base)
                    for m, c in comp.items()
                    if m.u_exp <= w.max_u
                )
                if not terms:
                    continue
                zs = [z for z, _, _ in terms]
                alpha_lo = max(0, zs[0] - w.max_z)
                alpha_hi = zs[-1] - w.min_z
                for alpha in range(alpha_lo, alpha_hi + 1):
                    first = bisect_left(zs, alpha + w.min_z)
                    nonneg = bisect_left(zs, alpha, first)
                    last = bisect_right(zs, alpha + w.max_z, nonneg)
                    self.truncated_terms += n_terms - (last - first)
                    if first == last:
                        continue
                    shift = alpha * width
                    vec = {
                        index - shift: c for _, index, c in terms[first:nonneg]
                    }
                    key = ("V", slot, alpha, beta)
                    self.columns.append((key, vec))
                    self._echelon.add(vec)
        if not self.columns:
            raise WindowTooSmall(
                f"no V-holomorphic generator meets window {self.window}"
            )

    def image(self, key: tuple) -> VectorCocycle:
        """Untruncated image of the generator xi^alpha v^beta e_slot behind
        the column key ("V", slot, alpha, beta)."""
        _, slot, alpha, beta = key
        return tuple(
            BiLaurent({(m.z_exp - alpha, m.u_exp): c for m, c in comp.items()})
            for comp in self._bases[beta, slot]
        )

    # -- results -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.rank * self._neg_size - self._echelon.rank

    def non_pivot_indices(self) -> List[int]:
        pivot = self._echelon.pivots.keys()
        negative = (
            slot * self._wsize + local
            for slot in range(self.rank)
            for local in range(self._neg_size)
        )
        return [i for i in negative if i not in pivot]

    def basis(self) -> Tuple[VectorCocycle, ...]:
        out = []
        for index in self.non_pivot_indices():
            slot, mono = self._coords(index)
            vec = [BiLaurent.zero(U_CHART)] * self.rank
            vec[slot] = BiLaurent.term(1, mono.z_exp, mono.u_exp, U_CHART)
            out.append(tuple(vec))
        return tuple(out)

    # -- cocycle reduction ---------------------------------------------------

    def _as_vector(self, sigma: CocycleLike) -> VectorCocycle:
        if isinstance(sigma, BiLaurent):
            vec: Tuple[BiLaurent, ...] = (sigma,)
        else:
            vec = tuple(sigma)
        if len(vec) != self.rank:
            raise ValueError(f"cocycle must have {self.rank} components")
        for comp in vec:
            if comp.tag == V_CHART:
                raise SupportOutsideWindow(
                    "cocycles must be given in U-coordinates"
                )
        return vec

    def encode(self, sigma: CocycleLike) -> Dict[int, Q]:
        """Coordinates of an in-window cocycle; its nonnegative-z terms are
        U-holomorphic and drop out."""
        vec = self._as_vector(sigma)
        out: Dict[int, Q] = {}
        for slot, poly in enumerate(vec):
            for mono, coeff in poly.items():
                if not self.window.contains(mono):
                    raise SupportOutsideWindow(
                        f"monomial z^{mono.z_exp} u^{mono.u_exp} outside "
                        f"window {self.window}"
                    )
                if mono.z_exp < 0:
                    out[self._index(slot, mono)] = coeff
        return out

    def decode(self, vec: Dict[int, Q]) -> VectorCocycle:
        polys = [dict() for _ in range(self.rank)]
        for index, coeff in vec.items():
            slot, mono = self._coords(index)
            polys[slot][mono] = coeff
        return tuple(BiLaurent(p, U_CHART) for p in polys)

    def normal_form(self, sigma: CocycleLike) -> CocycleLike:
        """Unique window representative of [sigma] supported on the
        non-pivot basis monomials."""
        scalar = isinstance(sigma, BiLaurent)
        decoded = self.decode(self._echelon.reduce(self.encode(sigma)))
        return decoded[0] if scalar else decoded


def h1_dimension_formula(k: int, n: int) -> int:
    """Closed form for dim H^1(Z_k, O(-n)): (m+1)(2n-km-2)/2 with
    m = floor((n-2)/k) when n >= 2, and 0 otherwise."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        return 0
    m = (n - 2) // k
    return (m + 1) * (2 * n - k * m - 2) // 2


@dataclass(frozen=True)
class StabilizedValue:
    value: int
    window: Window
    enlargements: int


def stabilize_window(
    compute: Callable[[Window], int], w0: Window
) -> StabilizedValue:
    """Enlarge the window by (3, 1) until the computed value is unchanged
    across two consecutive enlargements.

    Returns the first window of the stable run.  Raises StepCapExceeded
    (carrying the last value and window) after 8 enlargements.
    """
    windows = [w0]
    values = [compute(w0)]
    while True:
        if len(values) >= 3 and values[-1] == values[-2] == values[-3]:
            return StabilizedValue(values[-1], windows[-3], len(values) - 1)
        if len(values) - 1 >= _GROWTH_CAP:
            raise StepCapExceeded(
                f"value did not stabilize within {_GROWTH_CAP} enlargements",
                last_value=values[-1],
                last_window=windows[-1],
            )
        windows.append(windows[-1].grown(*_GROW))
        values.append(compute(windows[-1]))


def h1(
    s: SurfaceSpec,
    transition: PolyMatrix,
    window: Optional[Window] = None,
) -> CohomologyResult:
    """H^1 of the bundle with the given transition matrix.

    Starting from the given (or default) window, the window is enlarged
    until the dimension settles; the result reports the first stable
    window and stabilized=True.
    """
    if window is None:
        window = default_window_for_transition(s, transition)
    cache: Dict[Window, CechComplex] = {}

    def compute(w: Window) -> int:
        cache[w] = CechComplex(s, transition, w)
        return cache[w].dimension

    stable = stabilize_window(compute, window)
    complex_ = cache[stable.window]
    return CohomologyResult(
        dimension=complex_.dimension,
        basis=complex_.basis(),
        m_row=None,
        window=stable.window,
        stabilized=True,
        rank=complex_.rank,
    )


def h1_line_bundle(
    s: SurfaceSpec, n: int, window: Optional[Window] = None
) -> CohomologyResult:
    """H^1(Z_k(tau), O(-n)); n is the positive twist, so n = 4 means O(-4)."""
    if window is None:
        window = default_window(s, n)
    m_row = (n - 2) // s.k if n >= 2 else None
    return replace(h1(s, line_transition(-n), window), m_row=m_row)


def normal_form(
    sigma: CocycleLike,
    s: SurfaceSpec,
    transition: PolyMatrix,
    window: Window,
) -> CocycleLike:
    """Project a cocycle onto the non-pivot monomial basis of its window."""
    return CechComplex(s, transition, window).normal_form(sigma)


def triviality_certificate(
    sigma: BiLaurent,
    s: SurfaceSpec,
    n: int,
    window: Optional[Window] = None,
) -> TrivialityCertificate:
    """Explicit f_U, f_V with sigma = f_U + z^-n * (f_V in U-coords) up to a
    window-external residual, for the line bundle O(-n).

    Raises NotTrivial when the in-window normal form of sigma is nonzero.
    The exact (residual-free) solve is attempted first: it searches for a
    V-holomorphic f_V whose conversion cancels every negative-z term of
    sigma identically, which succeeds whenever a polynomial certificate
    exists within the generator caps.
    """
    if window is None:
        window = default_window(s, n).hull([sigma])
    complex_ = CechComplex(s, line_transition(-n), window)
    nf = complex_.normal_form(sigma)
    if not nf.is_zero:
        raise NotTrivial(f"class of {sigma} is nonzero in window {window}")

    # Exact attempt: solve over full (untruncated) V-images projected to the
    # negative-z coordinates; any solution yields residual 0 since the
    # remainder sigma - z^-n * rewrite(f_V) is then U-holomorphic.
    images = (
        (key, _negative_z_part(complex_.image(key)[0]))
        for key in sorted(key for key, _ in complex_.columns)
    )
    coeffs = _solve_in_span(images, _negative_z_part(sigma))
    exact = coeffs is not None
    if not exact:
        # Windowed fallback: solve the truncated system; the residual
        # collects the truncated (window-external) terms.  The normal form
        # is zero, so the encoded sigma lies in the columns' span.
        coeffs = _solve_in_span(complex_.columns, complex_.encode(sigma))
    f_V = BiLaurent.zero()
    for (_, _, alpha, beta), x in coeffs.items():
        # Columns carry -W*rewrite, so f_V picks up a sign flip.
        f_V = f_V + BiLaurent.term(-x, alpha, beta)
    f_V = f_V.with_tag(V_CHART)
    factor = BiLaurent.term(1, -n, 0)
    remainder = sigma.with_tag(U_CHART) - factor * _rewrite_to_U(f_V, s)
    if exact:
        if not remainder.is_zero and remainder.min_z_exp() < 0:
            raise AssertionError(
                "exact certificate produced a non-holomorphic f_U"
            )
        return TrivialityCertificate(
            remainder, f_V, BiLaurent.zero(), window
        )
    # The solve matched sigma on the negative-z window monomials; f_U is
    # the remainder's in-window nonnegative-z part, the residual the rest.
    f_U = BiLaurent(
        {
            m: c
            for m, c in remainder.items()
            if m.z_exp >= 0 and window.contains(m)
        },
        U_CHART,
    )
    return TrivialityCertificate(f_U, f_V, remainder - f_U, window)


def _negative_z_part(p: BiLaurent) -> Dict[Monomial, Q]:
    return {m: c for m, c in p.items() if m.z_exp < 0}


def _solve_in_span(
    columns: Iterable[Tuple[tuple, Dict]], target: Dict
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


def _rewrite_to_U(p: BiLaurent, s: SurfaceSpec) -> BiLaurent:
    return to_U_coords(p, s).with_tag(None)


def h0_basis(
    s: SurfaceSpec,
    n: int,
    window: Optional[Window] = None,
) -> CohomologyResult:
    """Basis of the global sections of O(n) supported in the window: the
    U-holomorphic s_U (no negative z) with z^-n * s_U V-holomorphic.

    n here is the first Chern class, so h0_basis(s, 2) computes window
    sections of O(2).  The dimension is an in-window count (the full space
    of sections is infinite-dimensional on these noncompact surfaces).
    """
    if window is None:
        window = default_window(s, abs(n))
    cols = [
        Monomial(a, b)
        for a in range(0, window.max_z + 1)
        for b in range(0, window.max_u + 1)
    ]
    constraint_rows: Dict[Monomial, SparseVec] = {}
    for idx, mono in enumerate(cols):
        twisted = BiLaurent.term(1, mono.z_exp - n, mono.u_exp, U_CHART)
        rewritten = to_V_coords(twisted, s)
        for vm, coeff in rewritten.items():
            if vm.z_exp < 0:
                constraint_rows.setdefault(vm, {})[idx] = coeff
    basis = []
    for vec in nullspace(constraint_rows.values(), len(cols)):
        poly = BiLaurent({cols[i]: coeff for i, coeff in vec.items()}, U_CHART)
        basis.append((poly,))
    return CohomologyResult(
        dimension=len(basis),
        basis=tuple(basis),
        m_row=None,
        window=window,
        stabilized=False,
        rank=1,
    )
