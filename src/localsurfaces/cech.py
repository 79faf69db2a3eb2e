"""Truncated Cech complex of line bundles on the two-chart cover of Z_k(tau).

The cover has two sets, so the complex has two levels and H^i = 0 for i >= 2
structurally; this module computes H^0 and H^1 with coefficients in the line
bundles O(-n), whose transition is z^n (orientation: s_V = z^n * s_U).
Rank-2 bundles are not assembled here: their H^1 comes from an extension
sequence of line bundles (bundles.charge_report, deformation.tangent_h1).

A 1-cocycle is an overlap function in U-coordinates.  Its class is
unchanged by adding: (i) any U-holomorphic function, and (ii) z^-n * f for
any f holomorphic on V, rewritten to U-coordinates.

The infinite cochain spaces are truncated to a finite monomial window only
where the window is part of the answer: H^0, whose space of sections is
infinite-dimensional, and the undeformed H^1, which stabilizes to the
closed form.  Quotienting by (i) is done analytically: the nonnegative-z
window monomials are exactly the U-holomorphic ones, so CechComplex keeps
only the negative-z window monomials as coordinates, and its columns are
the images (ii) of the V-holomorphic monomials, restricted to those
coordinates.

Normal forms, triviality certificates and the deformed H^1 of O(-n) need
no window: dividing by the monic u-degree tops of the V-images leaves a
remainder on the finitely many normal-form monomials z^l u^i,
ki - n < l < 0.  On tau = 0 the remainder is the normal form.  On tau != 0
triviality_certificate solves it weight by weight with images of v-degree
b <= n - 1 (proved in its docstring), the relations of levels b <= n - 1
span those monomials, and h1_line_bundle counts their rank up to the
closed-form number, which proves H^1 = 0.  Z_k(tau) is affine there, so
normal_form returns 0 without dividing; the tests re-check that value by
the weight steps.

The windowed complex, the division and the weight steps run in the
coordinates (z, u' = D*u), D the least common denominator of tau, where
v' = D*v = z^k u' + D*tau has integer coefficients.  All three read the
images g'(a, b) = z^(-n-a) v'^b = D^b g(a, b) off one list of BiLaurent
powers of v' (_integral_glue), and the monic tops z^(kb-n-a) u'^b keep the
division on ints.  The change scales each coordinate z^l u^i by D^-i and
each image by D^b, nonzero constants, so every rank and pivot set is the
one in (z, u); triviality_certificate undoes it to write f_V in (xi, v).  It
reads f_U off the nonnegative-z terms the division and the weight steps
drop, rescaled back to (z, u), so no certificate rewrites f_V to
U-coordinates; the tests and the bench oracle re-check sigma = f_U +
z^-n * (f_V in U-coords) by that rewrite.

On tau != 0 certificates run on Python ints over one running int
denominator: sigma's negative-z part is scaled once to int numerators over
the lcm of its denominators, so the division is on ints, and each weight
step multiplies the pending terms and the quotient by a power of
t = D*t_d, which keeps the inverse of w' + t integral (pseudo-division).
One Fraction is built per output term of f_U and f_V, and none before.

On tau = 0 every power of v = z^k u is one monomial, so the division only
sorts sigma's terms, as they are.

Window growth is fixed: H^1 enlarges its window by (3, 1) (three z steps on
each side, one u step) until the dimension is unchanged across two
consecutive enlargements, and gives up with StepCapExceeded after 8
enlargements.

H^0 of O(n) on Z_k is read off the monomial criterion a <= n + k*b for
z^a u^b in the window, since z^-n z^a u^b = xi^(n-a+kb) v^b; only on a
deformed surface are its sections a nullspace, with z^-n u^b rewritten to
V-coordinates once per u-degree b.

The complex's columns and the relations of deformed H^1 are int vectors
of which only a rank and its leads are read, so both are counted on
IntegerEchelon, linalg's one echelon, and build no Fraction, nor does a
certificate on unit tau with an int sigma.  Deformed H^0 is the kernel
linalg.nullspace reads off the same echelon, which builds one Fraction
per kernel entry and none before.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
)

from .errors import NotTrivial, StepCapExceeded, WindowTooSmall
from .laurent import BiLaurent, Coeff, Key, Q, Terms, U_CHART, V_CHART, _raw
from .linalg import IntegerEchelon, SparseVec, nullspace
from .surface import SurfaceSpec, _require_chart, to_V_coords

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

    def contains(self, key: Key) -> bool:
        l, i = key
        return self.min_z <= l <= self.max_z and 0 <= i <= self.max_u

    def covers(self, poly: BiLaurent) -> bool:
        return all(self.contains(m) for m in poly.support)

    def local_index(self, key: Key) -> int:
        l, i = key
        return (l - self.min_z) * (self.max_u + 1) + i

    def grown(self, dz: int, du: int) -> "Window":
        return Window(self.min_z - dz, self.max_z + dz, self.max_u + du)

    def hull(self, polys: Sequence[BiLaurent]) -> "Window":
        """Smallest enlargement of self containing every given support."""
        min_z, max_z, max_u = self.min_z, self.max_z, self.max_u
        for p in polys:
            for l, i in p.support:
                min_z = min(min_z, l)
                max_z = max(max_z, l)
                max_u = max(max_u, i)
        return Window(min_z, max_z, max_u)

    def to_json_dict(self) -> dict:
        return {"min_z": self.min_z, "max_z": self.max_z, "max_u": self.max_u}


def default_window(s: SurfaceSpec, n: int) -> Window:
    """Default window for O(-n) on Z_k(tau): generous enough to contain the
    monomial normal-form range plus coboundary reach."""
    reach = abs(n) + s.k + 3
    floor_m = (n - 2) // s.k if n >= 2 else 0
    return Window(-reach, reach, max(0, floor_m + 3))


@dataclass(frozen=True)
class CohomologyResult:
    """Outcome of an H^0/H^1 computation.

    basis holds BiLaurent elements for a line bundle (h1, h1_line_bundle,
    h0_basis) and pairs of them for the tangent bundle
    (deformation.tangent_h1).  window is the one the result is counted or
    echoed in, None where no window enters (tangent_h1); stabilized is
    False only for the in-window count of h0_basis.
    """

    dimension: int
    basis: tuple
    window: Optional[Window]
    stabilized: bool


@dataclass(frozen=True)
class TrivialityCertificate:
    """Explicit coboundary data: sigma = f_U + z^-n * (f_V in U-coords)."""

    f_U: BiLaurent
    f_V: BiLaurent

    @property
    def exact(self) -> bool:
        """Always True: triviality_certificate solves exactly or raises."""
        return True


class CechComplex:
    """Coboundary space of O(-n) over a fixed window.

    Every nonnegative-z window monomial is U-holomorphic, hence already a
    coboundary, so the complex works modulo those: its coordinates are the
    negative-z window monomials.  Its columns are the images
    -z^-n * rewrite(xi^a v^b) = -z^(-n-a) v^b of the V-holomorphic
    monomials whose image meets the window, restricted to the negative-z
    window monomials, so each column is written by shifting exponents of
    one power of v per b.  Those are powers of v' in (z, u'), scaling column
    b by D^b and coordinate z^l u^i by D^-i, which keeps the rank, pivots,
    basis, column count and truncated_terms of the complex in (z, u).  The
    int columns go into an IntegerEchelon: only rank and leads are read.
    """

    def __init__(self, s: SurfaceSpec, n: int, window: Window):
        self.surface = s
        self.n = n
        self.window = window
        # Negative-z monomials come first in the local indices.
        self._neg_size = -window.min_z * (window.max_u + 1)

        self.columns: List[Tuple[tuple, SparseVec]] = []
        self.truncated_terms = 0
        self._echelon = IntegerEchelon()
        self._assemble()

    # -- construction ------------------------------------------------------

    def _coords(self, index: int) -> Key:
        l, i = divmod(index, self.window.max_u + 1)
        return l + self.window.min_z, i

    def _assemble(self) -> None:
        # V-holomorphic generators xi^alpha v^beta, mapped to
        # -z^-n * (U-coordinate rewrite), in (beta, alpha) order.
        w, n = self.window, self.n
        width = w.max_u + 1
        _, powers = _integral_glue(self.surface)
        for beta in range(w.max_u + max(0, n) + 3):
            _extend_powers(powers, beta)
            n_terms = len(powers[beta].items())
            # (z, index, coeff) of the terms of -z^-n v'^beta, z-sorted;
            # shifting by z^-alpha moves an index down by alpha * width.
            terms = sorted(
                (l - n, w.local_index((l - n, i)), -c)
                for (l, i), c in powers[beta].items()
                if i <= w.max_u
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
                vec = {index - shift: c for _, index, c in terms[first:nonneg]}
                self.columns.append((("V", alpha, beta), vec))
                self._echelon.add(vec)
        if not self.columns:
            raise WindowTooSmall(
                f"no V-holomorphic generator meets window {self.window}"
            )

    # -- results -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._neg_size - self._echelon.rank

    def basis(self) -> Tuple[BiLaurent, ...]:
        """The non-pivot negative-z monomials, in index order."""
        pivot = self._echelon.pivots.keys()
        return tuple(
            BiLaurent({self._coords(index): Q(1)}, U_CHART)
            for index in range(self._neg_size)
            if index not in pivot
        )


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


def h1(s: SurfaceSpec, n: int) -> CohomologyResult:
    """Windowed H^1(Z_k(tau), O(-n)).

    Starting from default_window(s, n), the window is enlarged until the
    dimension settles; the result reports the first stable window and
    stabilized=True.
    """
    cache: Dict[Window, CechComplex] = {}

    def compute(w: Window) -> int:
        cache[w] = CechComplex(s, n, w)
        return cache[w].dimension

    stable = stabilize_window(compute, default_window(s, n))
    complex_ = cache[stable.window]
    return CohomologyResult(
        dimension=complex_.dimension,
        basis=complex_.basis(),
        window=stable.window,
        stabilized=True,
    )


def h1_line_bundle(s: SurfaceSpec, n: int) -> CohomologyResult:
    """H^1(Z_k(tau), O(-n)); n is the positive twist, so n = 4 means O(-4).

    On tau = 0 the default window grows until the dimension settles (see
    h1); the result is the closed form with the normal-form monomial basis.
    On tau != 0 no window is used: every class divides by u-degree to a
    remainder on the h1_dimension_formula(k, n) normal-form monomials, and
    the relations of levels b <= n - 1 span all of them: the weight steps of
    triviality_certificate write each as a combination of images g(a, b),
    b <= n - 1, whose division writes it by their relation remainders.
    Their rank is counted level by level until it reaches that number,
    which proves H^1 = 0; the result echoes the default window with
    stabilized=True.  Falling short at level n - 1 raises
    AssertionError: a positive dimension is never reported on a deformed
    surface.  The relations are divided in (z, u' = D*u) (_integral_glue),
    which keeps the rank at every level, and their remainders are ints
    there, so the rank is counted fraction-free on an IntegerEchelon.
    """
    if not s.is_deformed:
        return h1(s, n)
    count = h1_dimension_formula(s.k, n)
    _, powers = _integral_glue(s)
    span = IntegerEchelon()
    if count and not any(
        span.add(vec) and span.rank == count
        for level in _relation_levels(s, n, powers)
        for _, _, vec in level
    ):
        raise AssertionError(
            f"relations up to level {n - 1} do not span H^1(O(-{n})) on {s}"
        )
    return CohomologyResult(
        dimension=0,
        basis=(),
        window=default_window(s, n),
        stabilized=True,
    )


def normal_form(sigma: BiLaurent, s: SurfaceSpec, n: int) -> BiLaurent:
    """The unique representative of [sigma] in H^1(O(-n)) on the
    normal-form monomials z^l u^i, ki - n < l < 0 (Gasparim, Comm.
    Algebra 25, 1997).

    On tau = 0 it is the remainder of the u-degree division, the one
    triviality_certificate names in NotTrivial.  On tau != 0 it is 0:
    Z_k(tau) is affine, so H^1(O(-n)) = 0 (Serre, FAC, 1955; Hartshorne
    III.3.5), and sigma is only checked to be in U-coordinates.  The
    weight steps of triviality_certificate solve every remainder there,
    which the tests re-check.
    """
    if s.is_deformed:
        _require_chart(sigma, U_CHART)
        return BiLaurent.zero(U_CHART)
    return BiLaurent(_reduce(sigma, s, n)[-1], U_CHART)


def triviality_certificate(
    sigma: BiLaurent, s: SurfaceSpec, n: int
) -> TrivialityCertificate:
    """Explicit f_U, f_V with sigma = f_U + z^-n * (f_V in U-coords) exactly,
    for the line bundle O(-n).

    The image g(a, b) = z^(-n-a) v^b of xi^a v^b, v = z^k u + tau, has the
    monic top u-degree term z^(kb-n-a) u^b.  Dividing sigma by these images
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2) leaves a
    remainder R on the normal-form monomials z^l u^i, ki - n < l < 0
    (Gasparim, Comm. Algebra 25, 1997).  On tau = 0, R is the normal form
    and NotTrivial is raised when R != 0.  On tau != 0, R is solved by
    leading terms in weight (_weight_solve).  Let d be tau's lowest degree,
    weigh z by 1 and u by -(k - d), and put w = z^(k-d) u.  Then
    v = z^d (w + t_d) + (higher weight), so g(a, b) has the leading part
    z^e (w + t_d)^b at weight e = db - n - a, and subtracting it never
    lowers weight.  R has weights e > -n, as l > ki - n >= di - n.  At the
    lowest weight e left, the negative-z monomials are z^e w^q,
    q < q0 = ceil(-e / (k - d)), and the leading parts of the images of
    weight e, b0 = ceil((e + n) / d) <= b < b0 + q0, are a basis of
    Q[w]/(w^q0), as w + t_d is a unit there: the weight-e part z^e p(w)
    has the coordinates of p (w + t_d)^-b0 mod w^q0 in the basis
    (w + t_d)^j on the images with b = b0 + j.  Subtracting them leaves
    z^e w^q, q >= q0, which is U-holomorphic, so the lowest weight rises
    and the solve ends by weight -1.  Cap: each image has
    b <= b0 + q0 - 1 <= (e + n) - e - 1 = n - 1.

    Both run in (z, u' = D*u) of _integral_glue, with t = D*t_d for t_d.
    sigma's coefficient on z^l u'^i is D^-i times the one on z^l u^i, and
    f_V's coefficient of xi^a v^b is D^b times the quotient's on
    g'(a, b) = D^b g(a, b).  On tau != 0 both run on ints: the division on
    numerators over the lcm L of those coefficients' denominators
    (_reduce), and the weight steps on numerators over L * F, where the
    step at weight e multiplies F by |t|^(b0 + q0 - 1) (_weight_solve).
    The quotient is kept over that one denominator, and each coefficient
    of f_U and f_V becomes a Fraction only when it is output.

    f_U needs no chart rewrite.  z^-n * (f_V in U-coords) is the sum of the
    c * g'(a, b) = c * z^(-n-a) v'^b over the entries ((a, b), c) of both
    quotients.  The division and the weight steps subtract each of them
    from sigma but keep only its negative-z terms, and leave no
    negative-z term.  So f_U = sigma - z^-n * (f_V in U-coords) is sigma's
    nonnegative-z part minus the nonnegative-z terms of those
    c * g'(a, b), where a term x z^l u'^i of v'^b is x D^i z^l u^i:
    U-holomorphic by construction.  The independent re-check, which
    rewrites f_V to U-coordinates, lives in the tests and in the bench
    oracle.
    """
    scale, powers, den, quotient, remainder = _reduce(sigma, s, n)
    if remainder and not s.is_deformed:
        # On tau = 0, scale and den are 1, so u' = u and the remainder
        # holds sigma's own coefficients.
        normal = BiLaurent(remainder, U_CHART)
        raise NotTrivial(f"class of {sigma} has the normal form {normal} != 0")
    if remainder:
        factor, solved = _weight_solve(remainder, s, n, powers)
        den *= factor
        for key, c in quotient.items():
            solved[key] = solved.get(key, 0) + c * factor
        quotient = solved
    f_V = {(a, b): _over(c * scale**b, den)
           for (a, b), c in quotient.items() if c}
    # The nonnegative-z terms the division and the weight steps dropped.
    dropped: Terms = {}
    for (a, b), c in quotient.items():
        for (l, i), x in powers[b].items():
            l -= n + a
            if l >= 0:
                dropped[l, i] = dropped.get((l, i), 0) - c * (x * scale**i)
    f_U = {key: c for key, c in sigma.items() if key[0] >= 0}
    for key, c in dropped.items():
        x = _over(f_U.pop(key, 0) * den + c, den)
        if x:
            f_U[key] = x
    return TrivialityCertificate(_raw(f_U, U_CHART), _raw(f_V, V_CHART))


def _reduce(
    sigma: BiLaurent, s: SurfaceSpec, n: int
) -> Tuple[int, List[BiLaurent], int, Terms, Terms]:
    """D and the powers of v' from _integral_glue, a denominator L, and the
    quotient and remainder of _divide on the negative-z terms of sigma in
    (z, u' = D*u), as numerators over L; its nonnegative-z terms are
    U-holomorphic and drop out.

    On tau != 0, L is the lcm of the denominators of the coefficients
    c / D^i of z^l u'^i, so the numerators, and the division, are ints.  On
    tau = 0, D = L = 1 and the coefficients divide as they are: every
    power of v = z^k u is one monomial, so the division only sorts terms.
    """
    _require_chart(sigma, U_CHART)
    scale, powers = _integral_glue(s)
    negative = [((l, i), c) for (l, i), c in sigma.items() if l < 0]
    den = 1
    if s.is_deformed:
        # c / D^i = (p / g) / (q D^i / g), g = gcd(p, D^i), c = p / q.
        parts = []
        for key, c in negative:
            power = scale ** key[1]
            g = gcd(c.numerator, power)
            parts.append((key, c.numerator // g, c.denominator * (power // g)))
        den = lcm(*(q for _, _, q in parts))
        negative = [(key, p * (den // q)) for key, p, q in parts]
    return (scale, powers, den, *_divide(negative, s.k, n, powers))


def _weight_solve(
    remainder: Terms, s: SurfaceSpec, n: int, powers: List[BiLaurent]
) -> Tuple[int, Terms]:
    """A factor F and a quotient {(a, b): c} of ints with
    F * remainder == sum c * g'(a, b) up to nonnegative-z terms, for an int
    remainder of _divide on deformed Z_k(tau) in the coordinates (z, u')
    of _integral_glue; powers (v'^0, v'^1, ...) is extended as needed.
    One step per weight, lowest first, as proved in triviality_certificate;
    a step that leaves the lowest weight where it was raises
    AssertionError.

    The step at weight e needs (w' + t)^-b0 mod w'^q0, whose entries
    +-C(b0 + j - 1, j) / t^(b0 + j) have denominators dividing
    T = |t|^(b0 + q0 - 1).  So the step multiplies the pending terms and
    the quotient by T and F by T, and its coordinates are ints:
    pseudo-division (Knuth, TAOCP vol. 2, 4.6.1).  T = 1 for unit t.
    """
    d = next(j for j, t in enumerate(s.tau, start=1) if t)
    slope, t = s.k - d, powers[1].coefficient(d, 0)
    work, quotient, floor, factor = dict(remainder), {}, -n, 1
    while work:
        e = min(l - slope * i for l, i in work)
        if e <= floor:
            raise AssertionError(f"weight step left weight {e} <= {floor}")
        floor = e
        q0, b0 = -(e // slope), -(-(e + n) // d)
        top = abs(t) ** (b0 + q0 - 1)
        p = [work.get((e + slope * q, q), 0) for q in range(q0)]
        # T (w' + t)^-b0 = sum_j C(b0 + j - 1, j) T / ((-t)^j t^b0) w'^j.
        inverse = [comb(b0 + j - 1, j) * top // ((-t) ** j * t**b0)
                   for j in range(q0)]
        r = [sum(p[q] * inverse[m - q] for q in range(m + 1))
             for m in range(q0)]
        if top != 1:
            factor *= top
            work = {key: c * top for key, c in work.items()}
            quotient = {key: c * top for key, c in quotient.items()}
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
    return factor, quotient


def _over(numerator: Coeff, den: int) -> Coeff:
    """numerator / den as a canonical coefficient: an int when it is
    integral, else a Fraction.  One Fraction is built when den is not 1,
    none for an int numerator over 1."""
    if den != 1:
        numerator = Q(numerator, den)
    if type(numerator) is not int and numerator.denominator == 1:
        return numerator.numerator
    return numerator


def _integral_glue(s: SurfaceSpec) -> Tuple[int, List[BiLaurent]]:
    """D, the least common denominator of tau, and the powers [v'^0, v'^1]
    of v' = D*v = z^k u' + D*tau, which has integer coefficients in the
    coordinates (z, u' = D*u).  D = 1 on tau = 0."""
    scale = lcm(*(t.denominator for t in s.tau))
    v = {
        (j, 0): t.numerator * (scale // t.denominator)
        for j, t in enumerate(s.tau, start=1)
    }
    v[s.k, 1] = 1
    return scale, [BiLaurent.const(1), BiLaurent(v)]


def _extend_powers(powers: List[BiLaurent], b: int) -> None:
    """Extend powers = [v'^0, v'^1, ...] of _integral_glue through v'^b,
    one product by v' per power."""
    while len(powers) <= b:
        powers.append(powers[-1] * powers[1])


def _relation_levels(
    s: SurfaceSpec, n: int, powers: List[BiLaurent]
) -> Iterator[Iterator[Tuple[Key, Terms, Terms]]]:
    """The relations of O(-n) on Z_k(tau), one lazy level per b = 1 .. n - 1,
    in the coordinates (z, u' = D*u) of _integral_glue, whose powers of v'
    are passed in.

    The relation (a, b), 0 <= a <= kb - n, is the division of the
    U-holomorphic top z^(kb-n-a) u'^b by _divide: a coboundary whose
    remainder lies on the normal-form monomials.  The top enters as the int
    1, so quotient and remainder are ints.  Level b yields
    ((a, b), quotient, remainder) in increasing a, dividing each top only
    when it is reached, so a caller may stop inside a level.
    """
    for b in range(1, n):
        yield (
            ((a, b), *_divide([((s.k * b - n - a, b), 1)], s.k, n, powers))
            for a in range(s.k * b - n + 1)
        )


def _divide(
    terms: Iterable, k: int, n: int, powers: List[BiLaurent]
) -> Tuple[Terms, Terms]:
    """Divide the terms ((l, i), c), coefficients of z^l u'^i, by the images
    g'(a, b) = z^(-n-a) v'^b in the coordinates (z, u' = D*u), where
    v' = z^k u' + D*tau has integer coefficients.

    Each g'(a, b) has the monic top term z^(kb-n-a) u'^b, so the division
    only multiplies and subtracts: int terms give an int quotient and
    remainder.  Pending terms sit in one bucket per u-degree, and the
    degree walks down from the top, since dividing a term of degree i adds
    terms of degree < i only.  Nonnegative-z terms that arise are dropped,
    cancelled terms are skipped, and powers (v'^0, v'^1, ...) is extended
    as needed.  Returns the quotient {(a, b): c} and the remainder
    {(l, i): c}, which lies on the normal-form monomials ki - n < l < 0 when
    every term that is not divided has l < 0.
    """
    buckets: List[Dict[int, Coeff]] = []
    for (l, i), c in terms:
        buckets += [{} for _ in range(i + 1 - len(buckets))]
        buckets[i][l] = c
    _extend_powers(powers, len(buckets) - 1)
    quotient, remainder = {}, {}
    for i in range(len(buckets) - 1, -1, -1):
        top = k * i
        for l, c in buckets[i].items():
            if not c:
                continue
            a = top - n - l
            if a < 0:
                remainder[l, i] = c
                continue
            quotient[a, i] = c
            shift = l - top
            for (l2, j), x in powers[i].items():
                l2 += shift
                if l2 < 0 and j < i:
                    bucket = buckets[j]
                    bucket[l2] = bucket.get(l2, 0) - c * x
    return quotient, remainder


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
    Sections are U-holomorphic, so only window.max_z and window.max_u
    bound them; window.min_z is echoed in the result and changes nothing.

    On Z_k the sections are the monomials z^a u^b, 0 <= a <= max_z,
    0 <= b <= max_u, with a <= n + k*b, in (a, b) lexicographic order.  On
    a deformed surface the columns are those monomials without the
    criterion: z^-n u^b is rewritten to V-coordinates once per b; z^a =
    xi^-a, so the rewrite of column (a, b) is that one shifted by xi^-a,
    and its terms with negative xi-exponent are the constraints on the
    column, whose nullspace is the basis.
    """
    if window is None:
        window = default_window(s, abs(n))
    cols = [
        (a, b)
        for a in range(0, window.max_z + 1)
        for b in range(0, window.max_u + 1)
    ]
    if not s.is_deformed:
        # On Z_k, z^-n * z^a u^b = xi^(n-a+kb) v^b, which is V-holomorphic
        # exactly when a <= n + k*b.
        basis = tuple(
            _raw({(a, b): 1}, U_CHART) for a, b in cols if a <= n + s.k * b
        )
    else:
        width = window.max_u + 1
        constraint_rows: Dict[Key, SparseVec] = {}
        for b in range(width):
            rewritten = to_V_coords(BiLaurent.term(1, -n, b, U_CHART), s)
            for (l, i), coeff in rewritten.items():
                for a in range(max(0, l + 1), window.max_z + 1):
                    row = constraint_rows.setdefault((l - a, i), {})
                    row[a * width + b] = coeff
        basis = tuple(
            BiLaurent({cols[i]: coeff for i, coeff in vec.items()}, U_CHART)
            for vec in nullspace(constraint_rows.values(), len(cols))
        )
    return CohomologyResult(
        dimension=len(basis), basis=basis, window=window, stabilized=False
    )
