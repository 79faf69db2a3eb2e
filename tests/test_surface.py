"""Chart rewrites, V-holomorphy and the standard transition matrices."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cech_oracle import line_transition
from laurent_oracle import substitute_by_term
from localsurfaces.bundles import ExtensionClass
from localsurfaces.deformation import TangentExtensionClass, deform_by_cocycle
from localsurfaces.errors import TagMismatch, UnsupportedForDeformed
from localsurfaces.laurent import BiLaurent, U_CHART, V_CHART, parse_poly
from localsurfaces.surface import (
    SurfaceSpec,
    glue_matrix,
    is_V_holomorphic,
    surface,
    tangent_transition,
    to_U_coords,
    to_V_coords,
)


def P(text, tag=None):
    return parse_poly(text, tag)


def test_surface_validation():
    with pytest.raises(ValueError):
        surface(0)
    with pytest.raises(ValueError):
        SurfaceSpec(3, (Q(1),))
    assert not surface(1).is_deformed
    assert surface(2, [1]).is_deformed
    assert not surface(4, [0, 0, 0]).is_deformed


def test_surface_json_round_trip():
    s = SurfaceSpec(2, (Q(1),))
    assert s.to_json_dict() == {"k": 2, "tau": ["1"]}
    for s in (SurfaceSpec(3, (Q(1, 2), Q(0))), surface(1)):
        data = s.to_json_dict()
        assert SurfaceSpec(data["k"], tuple(Q(t) for t in data["tau"])) == s
    with pytest.raises(ValueError):
        SurfaceSpec(2, (Q(1), Q(0)))


def test_to_U_examples():
    assert to_U_coords(P("xi*v"), surface(2)) == P("z*u")
    assert to_U_coords(P("v"), surface(2, [1])) == P("z^2*u + z")
    assert to_U_coords(P("xi^2"), surface(3, [0, 0])) == P("z^-2")


def test_to_V_examples():
    assert to_V_coords(P("z^3*u"), surface(2)) == P("xi^-1*v")
    assert to_V_coords(P("u"), surface(2, [1])) == P("xi^2*v - xi")
    assert to_V_coords(P("z^-2"), surface(1)) == P("xi^2")


def test_chart_tags_enforced():
    with pytest.raises(TagMismatch):
        to_U_coords(P("z*u", U_CHART), surface(2))
    with pytest.raises(TagMismatch):
        to_V_coords(P("xi*v"), surface(2))
    assert to_U_coords(P("xi*v"), surface(2)).tag == U_CHART
    assert to_V_coords(P("z^3*u"), surface(2)).tag == V_CHART


@pytest.mark.parametrize("build", [
    lambda p: surface(2, p),
    lambda p: deform_by_cocycle(2, p),
    lambda p: TangentExtensionClass.from_poly(2, p),
    lambda p: ExtensionClass(1, p),
])
def test_u_chart_entry_points_refuse_v_chart_polynomials(build):
    # Each reads its polynomial in (z, u); xi and v would be read as z and
    # u (surface(2, xi) as Z_2(z), ExtensionClass(1, xi^-1).p as 1).
    for text in ("xi", "xi^-1", "v"):
        with pytest.raises(TagMismatch):
            build(P(text))
    build(P("z"))
    build(P("z", U_CHART))


def test_round_trip_is_identity():
    rng = random.Random(5)
    surfaces = [surface(1), surface(2, [1]), surface(3, [Q(1, 2), 0]),
                surface(4, [1, 0, 2]), surface(5, [0, 0, 0, 0])]
    for s in surfaces:
        for _ in range(20):
            terms = {
                (rng.randint(-5, 5), rng.randint(0, 3)):
                    Q(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(1, 5))
            }
            p = BiLaurent(terms, U_CHART)
            assert to_U_coords(to_V_coords(p, s), s) == p
            q = BiLaurent(terms, V_CHART)
            assert to_V_coords(to_U_coords(q, s), s) == q


@st.composite
def rational_surfaces(draw):
    k = draw(st.integers(1, 5))
    tau = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                        min_size=k - 1, max_size=k - 1))
    return surface(k, tau)


u_polys = st.builds(
    BiLaurent,
    st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(0, 5)),
        st.fractions(-5, 5, max_denominator=4).filter(bool),
        max_size=6,
    ),
    st.just(U_CHART),
)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(rational_surfaces(), u_polys)
def test_chart_rewrites_match_term_by_term_oracle(s, p):
    # Z_k(tau), k <= 5, with rational tau: each rewrite is the
    # term-by-term substitution, and the two rewrites are inverse.
    xi = BiLaurent.term(1, -1, 0)
    q = to_V_coords(p, s)
    assert q == substitute_by_term(p, xi, s.u_glue().with_tag(None), V_CHART)
    back = to_U_coords(q, s)
    assert back == substitute_by_term(q, xi, s.v_glue().with_tag(None), U_CHART)
    assert back == p and back.tag == U_CHART


def test_v_holomorphy_monomial_criterion():
    # undeformed: z^m u^n is V-holomorphic iff m <= n*k
    for k in (1, 2, 3):
        s = surface(k)
        for m in range(-4, 4 * k + 1):
            for n in range(0, 4):
                mono = BiLaurent({(m, n): Q(1)}, U_CHART)
                assert is_V_holomorphic(mono, s) == (m <= n * k)


def test_v_holomorphy_paper_instances():
    assert is_V_holomorphic(P("z^4*u^2"), surface(2))
    assert not is_V_holomorphic(P("z^5*u^2"), surface(2))
    # deformed: brute substitution gives xi^-1 v^2 - 2 xi^-2 v + xi^-3
    s = surface(2, [1])
    assert to_V_coords(P("z^5*u^2"), s) == P("xi^-1*v^2 - 2*xi^-2*v + xi^-3")
    assert not is_V_holomorphic(P("z^5*u^2"), s)


def test_v_holomorphy_multiplicative():
    rng = random.Random(31)
    s = surface(2, [Q(1, 2)])
    pool = [P("u"), P("z*u"), P("z^2*u + z"), P("1"), P("z^2*u^2")]
    for _ in range(20):
        p, q = rng.choice(pool), rng.choice(pool)
        if is_V_holomorphic(p, s) and is_V_holomorphic(q, s):
            assert is_V_holomorphic(p * q, s)


def test_tangent_transition_matrices():
    assert tangent_transition(surface(2)).entries == (
        (P("-z^-2"), BiLaurent.zero()),
        (P("2*z*u"), P("z^2")),
    )
    assert tangent_transition(surface(1)).entries == (
        (P("-z^-2"), BiLaurent.zero()),
        (P("u"), P("z")),
    )
    with pytest.raises(UnsupportedForDeformed):
        tangent_transition(surface(2, [1]))


def test_transition_determinants_are_unit_monomials():
    for k in (1, 2, 3, 5):
        coeff, exp = tangent_transition(surface(k)).unit_det()
        assert (coeff, exp) == (Q(-1), k - 2)
    for n in (-3, 0, 2):
        coeff, exp = line_transition(n).unit_det()
        assert (coeff, exp) == (Q(1), -n)


def test_glue_matrix_realizes_glue():
    s = surface(3, [1, 2])
    z_var = BiLaurent.term(1, 1, 0, U_CHART)
    u_var = BiLaurent.term(1, 0, 1, U_CHART)
    xi_comp, v_comp = glue_matrix(s).apply((z_var, u_var))
    assert xi_comp == P("z^-1")
    assert v_comp == s.v_glue() == P("z^3*u + z + 2*z^2")
