"""Exact Laurent arithmetic, parsing and substitution."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laurent_oracle import substitute_by_term
from localsurfaces.errors import NonInvertibleSubstitution, TagMismatch
from localsurfaces.laurent import (
    BiLaurent,
    Monomial,
    U_CHART,
    V_CHART,
    parse_poly,
)


def P(text):
    return parse_poly(text)


def random_poly(rng, max_terms=5, z_range=(-4, 4), u_range=(0, 3)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(rng.randint(*z_range), rng.randint(*u_range))
        terms[mono] = Q(rng.randint(-6, 6), rng.randint(1, 4))
    return BiLaurent(terms)


# -- the arithmetic contract -------------------------------------------------

def test_exponent_addition():
    assert P("z^-1*u") * P("z*u") == P("u^2")


def test_additive_identity():
    assert P("z^-2") + BiLaurent.zero() == P("z^-2")


def test_binomial_square():
    assert P("z^2*u + z") ** 2 == P("z^4*u^2 + 2*z^3*u + z^2")


def test_scale():
    assert P("z + u") * Q(3, 2) == P("3/2*z + 3/2*u")


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zero_terms_never_stored():
    p = P("z") - P("z")
    assert p.is_zero and p.terms == {}
    q = BiLaurent({Monomial(2, 1): Q(0), Monomial(0, 0): Q(5)})
    assert q == BiLaurent.const(5)


def test_negative_u_exponent_rejected():
    with pytest.raises(ValueError):
        BiLaurent({Monomial(0, -1): Q(1)})


# -- chart tags ---------------------------------------------------------------

def test_tag_mismatch_raises():
    with pytest.raises(TagMismatch):
        P("z").with_tag(U_CHART) + P("z").with_tag(V_CHART)
    with pytest.raises(TagMismatch):
        P("z").with_tag(U_CHART) * P("z").with_tag(V_CHART)


def test_untagged_combines_with_either():
    assert (P("z") + P("z").with_tag(U_CHART)).tag == U_CHART
    assert (P("z") * P("z").with_tag(V_CHART)).tag == V_CHART


# -- substitution --------------------------------------------------------------

def test_substitute_chart_rewrite():
    # xi^2 v with xi -> z^-1, v -> z^2 u + z gives u + z^-1
    p = P("z^2*u")  # slots interpreted as (xi, v)
    out = p.substitute(z=P("z^-1"), u=P("z^2*u + z"))
    assert out == P("u + z^-1")


def test_substitute_single_variable():
    p = P("u")
    image = P("z^2*u - z")
    assert p.substitute(u=image) == image


def test_substitute_constant():
    assert BiLaurent.const(5).substitute(z=P("u"), u=P("z")) == BiLaurent.const(5)


def test_substitute_composition_random():
    # substitute(substitute(p, A), B) == substitute(p, B o A) when defined
    rng = random.Random(21)
    inner_z = P("z^-1")
    for _ in range(40):
        p = random_poly(rng)
        inner_u = random_poly(rng, z_range=(0, 3))
        outer_z = P("2*z")
        outer_u = random_poly(rng, z_range=(-2, 3))
        lhs = p.substitute(z=inner_z, u=inner_u).substitute(z=outer_z, u=outer_u)
        composed_z = inner_z.substitute(z=outer_z, u=outer_u)
        composed_u = inner_u.substitute(z=outer_z, u=outer_u)
        rhs = p.substitute(z=composed_z, u=composed_u)
        assert lhs == rhs


def test_substitute_negative_power_needs_unit():
    with pytest.raises(NonInvertibleSubstitution):
        P("z^-1").substitute(z=P("z + 1"))


# -- substitution against the term-by-term oracle ------------------------------

ORACLE_SETTINGS = settings(
    max_examples=150, derandomize=True, deadline=None, database=None
)
nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
tags = st.sampled_from([None, U_CHART, V_CHART])


def laurent(z_range, u_range, min_size=0, max_size=6, tag=st.none()):
    terms = st.dictionaries(
        st.tuples(st.integers(*z_range), st.integers(*u_range)),
        nonzero, min_size=min_size, max_size=max_size,
    )
    return st.builds(BiLaurent, terms, tag)


# Unit monomials c*z^a admit negative z exponents; c*z^a*u^b (b > 0) and
# polynomials of two or more terms do not.
z_images = st.one_of(
    st.none(),
    laurent((-3, 3), (0, 0), min_size=1, max_size=1, tag=tags),
    laurent((-3, 3), (0, 2), min_size=1, max_size=3, tag=tags),
)
u_images = st.one_of(st.none(), laurent((-2, 3), (0, 2), max_size=3, tag=tags))


def substitution_outcome(substitute, p, z, u, tag):
    """(result, its tag), or the class of the error raised."""
    try:
        out = substitute(p, z, u, tag)
    except (NonInvertibleSubstitution, TagMismatch) as exc:
        return type(exc)
    return out, out.tag


@ORACLE_SETTINGS
@example(BiLaurent.zero(), P("z + 1"), P("u"), U_CHART)
@example(P("3*z^-2*u^15"), P("-2*z^-1"), P("z^3*u + 1/2*z - z^2"), None)
@example(P("z^-1 - u^3 + z*u^11 + 2*u^12"), P("z^-1"), P("z^2*u + z"), V_CHART)
@example(P("z^-1"), P("z*u"), None, None)
@example(P("z + u^2"), P("z").with_tag(U_CHART), P("u").with_tag(V_CHART), None)
@example(P("z^2 + 1"), P("z").with_tag(U_CHART), P("u").with_tag(V_CHART), None)
@given(laurent((-4, 4), (0, 12)), z_images, u_images, tags)
def test_substitute_matches_term_by_term_oracle(p, z, u, tag):
    # Negative z exponents, gaps in the u-degrees, a single high power and
    # the zero polynomial, with tagged and untagged images: the same
    # polynomial and tag, or the same error.
    assert substitution_outcome(BiLaurent.substitute, p, z, u, tag) == (
        substitution_outcome(substitute_by_term, p, z, u, tag)
    )


@ORACLE_SETTINGS
@given(laurent((0, 4), (0, 6), min_size=1),
       laurent((-2, 3), (0, 2), min_size=2, max_size=3),
       u_images)
def test_substitute_non_monomial_z_image_matches_oracle(p, z, u):
    # Without negative z exponents any z image substitutes.
    out = p.substitute(z, u, V_CHART)
    assert out == substitute_by_term(p, z, u, V_CHART)
    assert out.tag == V_CHART


def test_negative_power_of_unit():
    assert P("2*z^3") ** -2 == P("1/4*z^-6")
    with pytest.raises(NonInvertibleSubstitution):
        P("z + 1") ** -1
    with pytest.raises(NonInvertibleSubstitution):
        P("2*z^-1*u") ** -1
    with pytest.raises(NonInvertibleSubstitution):
        BiLaurent.zero() ** -2


def test_unit_monomial_power_is_repeated_multiplication():
    # c*z^a*u^b ** e is one term: coefficients other than +-1, b > 0,
    # negative e on u-free terms, and the tag kept for every e.
    rng = random.Random(19)
    for _ in range(60):
        coeff = Q(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
        b = rng.choice([0, 0, 1, 3])
        tag = rng.choice([None, U_CHART, V_CHART])
        base = BiLaurent.term(coeff, rng.randint(-4, 4), b, tag)
        inverse = BiLaurent.term(1 / coeff, -base.min_z_exp(), 0, tag)
        for e in range(-5 if b == 0 else 0, 7):
            expected = BiLaurent.const(1, tag)
            for _ in range(abs(e)):
                expected = expected * (base if e > 0 else inverse)
            power = base ** e
            assert power == expected and str(power) == str(expected)
            assert power.tag == tag


def test_evaluate():
    assert P("z^-2*u + 3").evaluate(Q(1, 2), Q(5)) == Q(23)


# -- canonical text form --------------------------------------------------------

def test_parse_examples():
    assert P("3/2*z^-4*u^2") == BiLaurent({Monomial(-4, 2): Q(3, 2)})
    assert P(" z + 1/2 * z^3 ") == BiLaurent(
        {Monomial(1, 0): Q(1), Monomial(3, 0): Q(1, 2)}
    )
    assert P("-u^2 + z - 1") == BiLaurent(
        {Monomial(0, 2): Q(-1), Monomial(1, 0): Q(1), Monomial(0, 0): Q(-1)}
    )
    assert P("0").is_zero
    # whitespace between tokens is free, also between juxtaposed factors
    assert P("z^-1 + 2*z^-3*u") == P(" z^-1\t+2 * z^-3 * u ")
    assert P("3 z") == P("3*z") and P("z u") == P("z*u")
    # a coefficient may open a term or follow '*'
    assert P("3z") == P("3*z") and P("z*2") == P("2*z") and P("zz") == P("z^2")


def test_parse_v_chart_names():
    p = parse_poly("xi^2*v - xi")
    assert p.tag == V_CHART
    assert p == BiLaurent({Monomial(2, 1): Q(1), Monomial(1, 0): Q(-1)})


def test_parse_rejects_mixed_charts():
    with pytest.raises(ValueError):
        parse_poly("z*v")


def test_parse_rejects_garbage():
    # a sign must be followed by a term, not by another sign
    # whitespace may separate tokens but not split a number or exponent
    # a number right after a variable is a mistyped power, not a coefficient
    for bad in ["", "z^", "1//2", "z**2", "w", "-+z", "--z", "z - -u",
                "z + +u", "z +- 1", "3 4*z^-1", "z^-1 2", "1/ 2", "1 /2",
                "x i", "z ^2", "z^- 1", " \t ", "z2", "u3", "xi2", "z 2"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_parse_rejects_zero_denominator():
    # a ValueError naming the cause, not Fraction's ZeroDivisionError
    for bad in ["3/0", "2/0*z^-1", "z + 1/00*u", "1/2*5/0"]:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_poly(bad)


def test_canonical_print_order():
    p = P("u + z^-1 + z*u^2 + z")
    assert str(p) == "z^-1 + u + z + z*u^2"
    assert str(P("-z + 1/3") ) == "1/3 - z"
    assert str(BiLaurent.zero()) == "0"


def test_print_parse_roundtrip_random():
    rng = random.Random(3)
    for _ in range(80):
        p = random_poly(rng)
        assert parse_poly(str(p)) == p
    # V-tagged values roundtrip through the (xi, v) alphabet
    q = P("z^2*u - 2").with_tag(V_CHART)
    assert str(q) == "-2 + xi^2*v"
    assert parse_poly(str(q)) == q
