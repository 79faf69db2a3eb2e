"""Property tests for the algebraic invariants the library relies on:
canonical printing round-trips through the parser, the two chart rewrites
are inverse to each other, the window normal form is an idempotent linear
projection, and on the undeformed surface every window is exact on the
monomial normal forms.  Derandomized, so every run draws the same
examples."""

from fractions import Fraction as Q
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from localsurfaces.cech import CechComplex, Window, default_window
from localsurfaces.errors import WindowTooSmall
from localsurfaces.laurent import BiLaurent, Monomial, U_CHART, V_CHART, parse_poly
from localsurfaces.surface import (
    line_transition,
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
def deformed_surfaces(draw):
    k = draw(st.integers(2, 4))
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


@lru_cache(maxsize=None)
def complex_for(case):
    k, tau, n = case
    s = surface(k, tau)
    return CechComplex(s, line_transition(-n), default_window(s, n))


@st.composite
def cocycle_pairs(draw):
    complex_ = complex_for(draw(st.sampled_from(CASES)))
    w = complex_.window
    window_polys = polys(U_CHART, w.min_z, w.max_z, w.max_u)
    return complex_, draw(window_polys), draw(window_polys), draw(coefficients)


@SETTINGS
@given(cocycle_pairs())
def test_normal_form_idempotent_and_linear(data):
    complex_, sigma, tau, c = data
    nf = complex_.normal_form(sigma)
    assert complex_.normal_form(nf) == nf
    combined = complex_.normal_form(sigma + tau * BiLaurent.const(c))
    assert combined == nf + complex_.normal_form(tau) * BiLaurent.const(c)


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
                complex_ = CechComplex(surface(k), line_transition(-n), w)
            except WindowTooSmall:
                continue
            inside = {m for m in normal_form_monomials(k, n) if w.contains(m)}
            basis = [vec[0] for vec in complex_.basis()]
            assert complex_.dimension == len(inside) == len(basis)
            assert all(len(b.support) == 1 for b in basis)
            assert {m for b in basis for m in b.support} == inside


def test_default_windows_hold_every_normal_form_monomial():
    # with the property above: every default window is exact on tau = 0
    for k in UNDEFORMED_KS:
        for n in UNDEFORMED_NS:
            w = default_window(surface(k), n)
            assert all(w.contains(m) for m in normal_form_monomials(k, n))
