"""Property tests for the algebraic invariants the library relies on:
canonical printing round-trips through the parser, the two chart rewrites
are inverse to each other, the normal form is an idempotent linear
projection, on the undeformed surface every window is exact on the
monomial normal forms, triviality and splitting certificates re-verify,
and splitting types on the projective line match the section-count oracle
and are invariant under changes of frame.  Derandomized, so every run draws
the same examples."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from p1_oracle import splitting_type_by_profile
from localsurfaces.bundles import (
    ExtensionClass,
    extension_to_transition,
    split_certificate,
    splitting_type_p1,
)
from localsurfaces.cech import (
    CechComplex,
    Window,
    default_window,
    normal_form,
    triviality_certificate,
)
from localsurfaces.errors import NotTrivial, WindowTooSmall
from localsurfaces.laurent import BiLaurent, Monomial, U_CHART, V_CHART, parse_poly
from localsurfaces.polymatrix import PolyMatrix
from localsurfaces.surface import (
    surface,
    to_U_coords,
    to_V_coords,
)

SETTINGS = settings(
    max_examples=60, derandomize=True, deadline=None, database=None
)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero = coefficients.filter(bool)


def polys(tag, min_z=-6, max_z=6, max_u=4):
    terms = st.dictionaries(
        st.tuples(st.integers(min_z, max_z), st.integers(0, max_u)),
        nonzero,
        max_size=5,
    )
    return terms.map(lambda t: BiLaurent(t, tag))


@st.composite
def deformed_surfaces(draw, ks=st.integers(2, 4)):
    k = draw(ks)
    tau = draw(st.lists(coefficients, min_size=k - 1, max_size=k - 1))
    if not any(tau):
        tau[0] = Q(1)
    return surface(k, tau)


@SETTINGS
@given(polys(U_CHART))
def test_print_parse_round_trip_u_chart(p):
    assert parse_poly(str(p)) == p


@SETTINGS
@given(polys(V_CHART))
def test_print_parse_round_trip_v_chart(p):
    parsed = parse_poly(str(p))
    assert parsed == p
    # a constant prints without variables, so only then may the tag drop
    if any(m != (0, 0) for m in p.support):
        assert parsed.tag == V_CHART


@SETTINGS
@given(deformed_surfaces(), polys(U_CHART))
def test_chart_rewrite_round_trip_from_u(s, p):
    assert to_U_coords(to_V_coords(p, s), s) == p


@SETTINGS
@given(deformed_surfaces(), polys(V_CHART, min_z=0))
def test_chart_rewrite_round_trip_from_v(s, p):
    assert to_V_coords(to_U_coords(p, s), s) == p


CASES = ((2, (0,), 4), (2, (1,), 4), (3, (1, 0), 5))


@st.composite
def cocycle_pairs(draw):
    k, tau, n = draw(st.sampled_from(CASES))
    s = surface(k, tau)
    w = default_window(s, n)
    window_polys = polys(U_CHART, w.min_z, w.max_z, w.max_u)
    return s, n, draw(window_polys), draw(window_polys), draw(coefficients)


@SETTINGS
@given(cocycle_pairs())
def test_normal_form_idempotent_and_linear(data):
    s, n, sigma, tau, c = data
    nf = normal_form(sigma, s, n)
    assert normal_form(nf, s, n) == nf
    combined = normal_form(sigma + tau * BiLaurent.const(c), s, n)
    assert combined == nf + normal_form(tau, s, n) * BiLaurent.const(c)


# -- undeformed windows are exact ----------------------------------------------

UNDEFORMED_KS = range(1, 6)
UNDEFORMED_NS = range(-3, 13)


def normal_form_monomials(k, n):
    """Basis of H^1(Z_k, O(-n)) (Gasparim's monomial normal forms):
    z^l u^i with i <= m = floor((n-2)/k) and ik-n+1 <= l <= -1."""
    m = (n - 2) // k
    return {
        Monomial(l, i) for i in range(m + 1) for l in range(i * k - n + 1, 0)
    }


windows = st.builds(
    Window, st.integers(-16, 0), st.integers(0, 6), st.integers(0, 5)
)


@SETTINGS
@given(windows)
def test_undeformed_window_dimension_counts_normal_forms(w):
    # On Z_k every V-image is one monomial z^(ki-n-a) u^i, so a window's
    # H^1 is spanned by the normal-form monomials inside it, whatever the
    # window; the only failure allowed is a window no generator meets.
    for k in UNDEFORMED_KS:
        for n in UNDEFORMED_NS:
            try:
                complex_ = CechComplex(surface(k), n, w)
            except WindowTooSmall:
                continue
            inside = {m for m in normal_form_monomials(k, n) if w.contains(m)}
            basis = complex_.basis()
            assert complex_.dimension == len(inside) == len(basis)
            assert all(len(b.support) == 1 for b in basis)
            assert {m for b in basis for m in b.support} == inside


def test_default_windows_hold_every_normal_form_monomial():
    # with the property above: every default window is exact on tau = 0
    for k in UNDEFORMED_KS:
        for n in UNDEFORMED_NS:
            w = default_window(surface(k), n)
            assert all(w.contains(m) for m in normal_form_monomials(k, n))


# -- certificates re-verify ----------------------------------------------------

CERTIFICATE_SETTINGS = settings(
    max_examples=60, derandomize=True, deadline=None, database=None
)

points = st.lists(st.tuples(nonzero, coefficients), min_size=2, max_size=2)


@st.composite
def certificate_cases(draw):
    # zero, unit and rational tau, with every coefficient drawn
    k = draw(st.integers(1, 4))
    s = surface(k, draw(st.lists(coefficients, min_size=k - 1, max_size=k - 1)))
    n = draw(st.integers(0, 8))
    w = default_window(s, n)
    return s, n, draw(polys(U_CHART, w.min_z, 3, w.max_u))


def holomorphic(p):
    return p.is_zero or p.min_z_exp() >= 0


@CERTIFICATE_SETTINGS
@given(certificate_cases(), points)
def test_triviality_certificate_reverifies(case, pts):
    s, n, sigma = case
    # on tau = 0 the class is nonzero exactly when sigma has a term on a
    # normal-form monomial: the oracle for NotTrivial
    monomials = normal_form_monomials(s.k, n)
    on_normal_forms = any(m in monomials for m in sigma.support)
    try:
        cert = triviality_certificate(sigma, s, n)
    except NotTrivial:
        assert not s.is_deformed and on_normal_forms
        return
    assert s.is_deformed or not on_normal_forms
    f_U, f_V = cert.f_U, cert.f_V
    # f_U and f_V are holomorphic on their charts
    assert f_U.tag == U_CHART and holomorphic(f_U)
    assert f_V.tag == V_CHART and holomorphic(f_V)
    # every certificate is exact
    assert cert.exact
    twist = BiLaurent.term(1, -n, 0)
    assert sigma == f_U + twist * to_U_coords(f_V, s)
    # at rational points, f_V evaluated in its own chart (xi, v)
    v_glue = s.v_glue()
    for z, u in pts:
        xi, v = 1 / z, v_glue.evaluate(z, u)
        assert sigma.evaluate(z, u) == (
            f_U.evaluate(z, u) + z ** -n * f_V.evaluate(xi, v)
        )


@st.composite
def split_cases(draw):
    k, j = draw(st.sampled_from(
        ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2), (2, 4))
    ))
    s = draw(deformed_surfaces(st.just(k)))
    monomials = sorted(normal_form_monomials(s.k, 2 * j))
    values = draw(st.lists(
        coefficients, min_size=len(monomials), max_size=len(monomials)
    ))
    return s, ExtensionClass(j, BiLaurent(dict(zip(monomials, values))))


def evaluated(m, x, y):
    return [[p.evaluate(x, y) for p in row] for row in m.entries]


def times(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


@CERTIFICATE_SETTINGS
@given(split_cases(), points)
def test_split_certificate_splits_on_deformed_surfaces(case, pts):
    s, e = case
    cert = split_certificate(s, e)
    diag = PolyMatrix.diagonal(
        [BiLaurent.term(1, e.j, 0), BiLaurent.term(1, -e.j, 0)]
    )
    assert cert.target == diag
    a_v_in_u = cert.a_v.map_entries(lambda p: to_U_coords(p, s))
    T = extension_to_transition(e)
    a_u_inv = cert.a_u.inverse()
    assert (a_v_in_u @ T) @ a_u_inv == diag
    # at rational points, A_V evaluated in its own chart (xi, v), so this
    # check does not go through to_U_coords
    v_glue = s.v_glue()
    for z, u in pts:
        a_v = evaluated(cert.a_v, 1 / z, v_glue.evaluate(z, u))
        product = times(times(a_v, evaluated(T, z, u)), evaluated(a_u_inv, z, u))
        assert product == evaluated(diag, z, u)


# -- splitting types on the projective line ------------------------------------

P1_SETTINGS = settings(
    max_examples=30, derandomize=True, deadline=None, database=None
)


@st.composite
def p1_transitions(draw):
    """u-free transitions with unit determinant, rank 2 or 3: monomial
    diagonal, multi-term Laurent entries above it, rows and columns
    permuted independently."""
    r = draw(st.integers(2, 3))
    # the oracle's cost grows fast with rank and span
    span = 3 if r == 2 else 1
    rows = [[BiLaurent.zero()] * r for _ in range(r)]
    for i in range(r):
        exponent = draw(st.integers(-span, span))
        rows[i][i] = BiLaurent.term(draw(nonzero), exponent, 0)
        for j in range(i + 1, r):
            rows[i][j] = draw(polys(None, -span, span, 0))
    row_order = draw(st.permutations(range(r)))
    col_order = draw(st.permutations(range(r)))
    return PolyMatrix([[rows[i][j] for j in col_order] for i in row_order])


@st.composite
def elementary_products(draw, r, exponents):
    """Products of 1 to 3 elementary matrices I + c z^e E_ij, e drawn from
    exponents: unimodular over Q[z] for e >= 0 and over Q[z^-1] for
    e <= 0."""
    product = PolyMatrix.identity(r)
    off_diagonal = [(i, j) for i in range(r) for j in range(r) if i != j]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.sampled_from(off_diagonal))
        rows = [list(row) for row in PolyMatrix.identity(r).entries]
        rows[i][j] = BiLaurent.term(draw(nonzero), draw(exponents), 0)
        product = product @ PolyMatrix(rows)
    return product


@P1_SETTINGS
@given(st.data())
def test_splitting_type_matches_profile_and_is_frame_invariant(data):
    T = data.draw(p1_transitions())
    split = splitting_type_p1(T)
    assert split == splitting_type_by_profile(T)
    assert sum(split) == -T.unit_det()[1]
    a_u = data.draw(elementary_products(T.size, st.integers(0, 2)))
    a_v = data.draw(elementary_products(T.size, st.integers(-2, 0)))
    assert splitting_type_p1(a_v @ T @ a_u) == split
