"""Property tests for the algebraic invariants the library relies on:
canonical printing round-trips through the parser, the two chart rewrites
are inverse to each other, and the window normal form is an idempotent
linear projection.  Derandomized, so every run draws the same examples."""

from fractions import Fraction as Q
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from localsurfaces.cech import CechComplex, default_window
from localsurfaces.laurent import BiLaurent, U_CHART, V_CHART, parse_poly
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
