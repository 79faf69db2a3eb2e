"""Exact Laurent arithmetic, parsing and substitution."""

import random
import re
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laurent_oracle import str_by_magnitude, substitute_by_term
from localsurfaces.deformation import (
    TangentExtensionClass,
    family_and_ks,
    hirzebruch_embed_check,
)
from localsurfaces.errors import NonInvertibleSubstitution, TagMismatch
from localsurfaces.laurent import (
    F,
    POLY,
    RAT,
    SP,
    TERM,
    VAR,
    BiLaurent,
    U_CHART,
    V_CHART,
    parse_poly,
)
from localsurfaces.params import ParamPoly
from localsurfaces.surface import surface
from parse_oracle import parse_poly as parse_by_tokens


def P(text):
    return parse_poly(text)


def random_poly(rng, max_terms=5, z_range=(-4, 4), u_range=(0, 3)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(*z_range), rng.randint(*u_range))
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
    q = BiLaurent({(2, 1): Q(0), (0, 0): Q(5)})
    assert q == BiLaurent.const(5)


def test_negative_u_exponent_rejected():
    with pytest.raises(ValueError):
        BiLaurent({(0, -1): Q(1)})


def test_non_int_exponent_rejected():
    # hash(1.0) == hash(1), so a float exponent would merge with an int
    # key: z^0.5 squared would print z.
    for build in (lambda: BiLaurent.term(1, 0.5, 0),
                  lambda: BiLaurent.term(1, 0, Q(1)),
                  lambda: BiLaurent({(Q(1), 0): 1})):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(ValueError):
        BiLaurent({(1, 0, 0): 1})


def test_float_coefficient_rejected():
    # Q(1 / 3) would store 6004799503160661/18014398509481984, not 1/3.
    for build in (lambda: BiLaurent.term(1 / 3, 0, 0),
                  lambda: BiLaurent.const(0.5),
                  lambda: BiLaurent({(1, 0): 2.0})):
        with pytest.raises(TypeError):
            build()


def test_bool_coefficient_rejected():
    # Fraction(True) is 1, so True would print as the coefficient 1.
    for build in (lambda: BiLaurent.term(True, 1, 0),
                  lambda: BiLaurent.const(False),
                  lambda: BiLaurent({(1, 0): 2, (0, 0): True})):
        with pytest.raises(TypeError, match="bool"):
            build()
    assert str(BiLaurent.term(1, 1, 0)) == "z"


def test_int_constants_and_terms_keep_the_checks():
    # A plain int with int exponents takes the unchecked path; anything
    # else still goes through the constructor's checks.
    for build, error in ((lambda: BiLaurent.const(True), TypeError),
                         (lambda: BiLaurent.const(0.5), TypeError),
                         (lambda: BiLaurent.term(1, 0, -1), ValueError),
                         (lambda: BiLaurent.term(1, 0.5, 0), TypeError),
                         (lambda: BiLaurent.term(True, 0, 0), TypeError)):
        with pytest.raises(error):
            build()
    assert BiLaurent.const(0).is_zero and BiLaurent.term(0, 3, 1).is_zero
    assert BiLaurent.term(-2, -3, 1, V_CHART).tag == V_CHART
    assert BiLaurent.term(-2, -3, 1).sorted_terms() == [((-3, 1), -2)]
    assert type(BiLaurent.const(Q(4, 2)).as_rational()) is int


def test_int_constants_skip_the_constructor(monkeypatch):
    # The symbolic checks build their constants and terms from plain ints,
    # so the only checked constructions left there normalize a Fraction.
    init = BiLaurent.__init__
    seen = []

    def counting_init(self, terms=None, tag=None):
        seen.append(dict(terms or {}))
        init(self, terms, tag)

    monkeypatch.setattr(BiLaurent, "__init__", counting_init)
    for k in range(2, 7):
        hirzebruch_embed_check(k)
    family_and_ks(4)
    assert len(seen) < 10
    assert all(type(c) is Q for terms in seen for c in terms.values()), seen
    before = len(seen)
    BiLaurent.const(1), BiLaurent.term(3, -1, 2), BiLaurent.zero()
    assert len(seen) == before
    BiLaurent.const(Q(1, 2))
    assert seen[before:] == [{(0, 0): Q(1, 2)}]


# Each takes one exact number where tau, a point or a parameter value goes.
NUMERIC_ENTRY_POINTS = {
    "surface": lambda x: surface(2, [x]),
    "evaluate": lambda x: P("z + u").evaluate(x, 2),
    "tangent_s1": lambda x: TangentExtensionClass(3, x, {0: 1}),
    "tangent_s0": lambda x: TangentExtensionClass(3, 1, {0: x}),
    "fiber": lambda x: family_and_ks(2)[0].fiber([x]),
    "x_at": lambda x: hirzebruch_embed_check(2).x_at([x]),
    "y_at": lambda x: hirzebruch_embed_check(2).y_at([x]),
    "substitute_params": lambda x: ParamPoly.var("t", ["t"]).substitute_params(
        {"t": x}
    ),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_ENTRY_POINTS))
def test_float_rejected_at_numeric_entry_points(name):
    # surface(2, [0.1]) was Z_2(3602879701896397/36028797018963968*z).
    entry = NUMERIC_ENTRY_POINTS[name]
    for exact in (1, Q(1, 10), "1/10"):
        entry(exact)
    for inexact in (0.1, 0.5, 0.0):
        with pytest.raises(TypeError, match="inexact"):
            entry(inexact)


@pytest.mark.parametrize("name", sorted(NUMERIC_ENTRY_POINTS))
def test_bool_rejected_at_numeric_entry_points(name):
    # surface(2, [True]) was Z_2(z).
    entry = NUMERIC_ENTRY_POINTS[name]
    for flag in (True, False):
        with pytest.raises(TypeError, match="bool"):
            entry(flag)


def test_integral_coefficients_are_ints():
    p = BiLaurent({(0, 0): Q(4, 2), (1, 0): 3, (2, 0): Q(1, 2)})
    assert [type(c) for _, c in p.sorted_terms()] == [int, int, Q]
    assert str(p) == "2 + 3*z + 1/2*z^2"
    assert p == BiLaurent({(0, 0): Q(2), (1, 0): Q(3), (2, 0): Q(1, 2)})
    # int ** -e would be a float: a negative power is a Fraction.
    inverse = BiLaurent.term(3, 1, 0) ** -1
    assert inverse.as_unit_monomial() == (Q(1, 3), -1, 0)
    assert type(inverse.as_unit_monomial()[0]) is Q
    # Parsed terms are summed before a coefficient is made an int, so an
    # integral sum of fractions is an int and a parsed fraction is reduced.
    for text, want in (("1/2*z + 1/2*z", 1), ("3/2*u - 1/2*u", 1),
                       ("2/4*z", Q(1, 2))):
        (coeff,) = [c for _, c in P(text).items()]
        assert coeff == want and type(coeff) is type(want), text


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
    assert P("3/2*z^-4*u^2") == BiLaurent({(-4, 2): Q(3, 2)})
    assert P(" z + 1/2 * z^3 ") == BiLaurent(
        {(1, 0): Q(1), (3, 0): Q(1, 2)}
    )
    assert P("-u^2 + z - 1") == BiLaurent(
        {(0, 2): Q(-1), (1, 0): Q(1), (0, 0): Q(-1)}
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
    assert p == BiLaurent({(2, 1): Q(1), (1, 0): Q(-1)})


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


def test_parse_reads_only_ascii_digits():
    # Unicode digits of other scripts (fullwidth, Arabic-Indic) and
    # underscores are not numbers in the polynomial syntax.
    for bad in ["\uff11", "z^-\u0661", "\u0663*z", "1_0", "z^1_0",
                "1/\uff12"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_parse_rejects_zero_denominator():
    # a ValueError naming the cause, not Fraction's ZeroDivisionError
    for bad in ["3/0", "2/0*z^-1", "z + 1/00*u", "1/2*5/0"]:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_poly(bad)


# Differential tests against the token state machine parse_poly was.  The
# pieces are those the grammar was fitted on (variables, their letters,
# digits, fractions with a zero or nonzero denominator, operators, blanks,
# powers) plus another script's digit, an underscore, an exponent letter
# and a decimal point.
PARSE_PIECES = [
    "z", "u", "xi", "v", "x", "i", "0", "1", "2", "3", "1/2", "7/0", "/",
    "^", "^-", "+", "-", "*", " ", "\t", "z^2", "u^-1", "z^-3",
    "\u0661", "_", "e", ".",
]


def parse_outcome(parse, text):
    """(polynomial, tag) on accept, None on a ValueError."""
    try:
        p = parse(text)
    except ValueError:
        return None
    return p, p.tag


def test_parse_agrees_with_token_oracle_on_random_pieces():
    rng = random.Random(24)
    accepted = 0
    for _ in range(50_000):
        text = "".join(rng.choices(PARSE_PIECES, k=rng.randint(0, 8)))
        outcome = parse_outcome(parse_poly, text)
        assert outcome == parse_outcome(parse_by_tokens, text), text
        accepted += outcome is not None
    assert accepted > 2_000  # the accept side is drawn too


def term_text(rng, coeff, key):
    """One term of the text syntax for coeff * z^l * u^i, its sign first
    and with or without a number and blanks where the grammar allows."""
    l, i = key
    sign = "-" if coeff < 0 else rng.choice(["+", "+ "])
    mag = abs(coeff)
    number = [] if mag == 1 and rng.random() < 0.5 else [str(mag)]
    factors = ([f"z^{l}"] if l else []) + ([f"u^{i}"] if i else [])
    return sign + rng.choice(["*", " * "]).join(number + factors or ["1"])


def test_parse_agrees_with_token_oracle_on_repeated_keys():
    # Repeated keys whose fractions sum to an integer or cancel: the sums
    # equal the oracle's, and every coefficient is an int where integral.
    rng = random.Random(36)
    keys = [(-2, 0), (-1, 1), (0, 0), (1, 0), (0, 2)]
    integral = cancelled = 0
    for _ in range(2_000):
        pieces = []
        for key in rng.sample(keys, rng.randint(1, 3)):
            den = rng.randint(2, 6)
            first = Q(rng.randint(-9, 9), den)
            total = rng.choice([0, rng.randint(-3, 3), Q(1, den)])
            pieces += [(first, key), (total - first, key)]
            integral += total != 0 and type(total) is int
            cancelled += total == 0
        rng.shuffle(pieces)
        text = " ".join(term_text(rng, c, key) for c, key in pieces if c)
        if not text:
            continue
        outcome = parse_outcome(parse_poly, text)
        assert outcome == parse_outcome(parse_by_tokens, text), text
        p, _ = outcome
        assert all(type(c) is (int if c.denominator == 1 else Q)
                   for _, c in p.items()), text
    assert integral > 500 and cancelled > 500


def test_parse_and_print_build_no_fraction_they_do_not_return(monkeypatch):
    # parse_poly sums int numerator/denominator pairs and builds one
    # Fraction per non-integral coefficient it returns; str prints from
    # numerators and denominators and builds none.
    rng = random.Random(37)
    texts = ["3*z^-2*u + 2 - z + z", "4/2*z + 1/2*u + 1/2*u", "6/3",
             "1/2*z + 1/2*z", "2/4*z", "1/2*3*z - 1/3*u^2 + 5/10*z"]
    for _ in range(300):
        texts.append(" ".join(
            term_text(rng, Q(rng.randint(-7, 7), rng.choice([1, 1, 2, 3])),
                      (rng.randint(-3, 2), rng.randint(0, 2)))
            for _ in range(rng.randint(1, 6))
        ))
    parsed = [parse_poly(text) for text in texts]
    fractions = [sum(type(c) is Q for _, c in p.items()) for p in parsed]
    printed = [parsed[0] * Q(1, 2) * 2, BiLaurent.term(Q(-3, 4), 1, 2, V_CHART)]
    printed += parsed
    assert sum(fractions) > 100 and fractions.count(0) > 50
    built = []
    real_new = Q.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counted)
    for text, r in zip(texts, fractions):
        before = len(built)
        parse_poly(text)
        assert len(built) - before <= r, (text, built[before:])
    before = len(built)
    for p in printed:
        str(p)
    assert built[before:] == []


# POLY with each repetition bounded: "*" becomes {0,3} and \d+ becomes
# \d{1,3}.  Strings of the unbounded grammar come out about 330 characters
# long and take Hypothesis seconds to build; these average about 36.
BOUNDED_POLY = re.compile(
    re.sub(r"(?<!\\)\*", "{0,3}", POLY.pattern).replace(r"\d+", r"\d{1,3}"),
    re.ASCII,
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.from_regex(BOUNDED_POLY, fullmatch=True))
def test_parse_agrees_with_token_oracle_on_grammar_strings(text):
    assert POLY.fullmatch(text)
    assert parse_outcome(parse_poly, text) == parse_outcome(parse_by_tokens, text)


def test_parse_rejects_long_text_quickly():
    # The grammar has no nested ambiguity, so a failed full match is linear.
    for text in ["z " * 10000 + "!", "1*" * 10000 + "!", "z+" * 10000 + "!",
                 "1" * 20000 + "!"]:
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_poly(text)
        assert time.perf_counter() - start < 1.0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_grammar_is_the_parser_grammar():
    # Each README line NAME = body, with the names it uses replaced by their
    # expansions, blanks outside [...] dropped, groups made non-capturing
    # and a top-level alternation grouped, spells the parser's constant.
    block = re.search(r"```\n *(SP .*?)\n *```", README.read_text(), re.S)[1]
    expanded = {}
    for line in block.splitlines():
        name, body = (part.strip() for part in line.split("=", 1))
        alternation = "|" in re.sub(r"\(.*?\)", "", body)
        body = re.sub(r"\b(SP|RAT|VAR|F|TERM)\b",
                      lambda m: expanded[m[1]], body)
        body = re.sub(r"(\[[^\]]*\])|\s+", lambda m: m[1] or "", body)
        body = re.sub(r"\((?!\?)", "(?:", body)
        expanded[name] = f"(?:{body})" if alternation else body
    assert expanded == {"SP": SP, "RAT": RAT, "VAR": VAR, "F": F,
                        "TERM": TERM, "POLY": POLY.pattern}
    assert POLY.flags & re.ASCII


def test_canonical_print_order():
    p = P("u + z^-1 + z*u^2 + z")
    assert str(p) == "z^-1 + u + z + z*u^2"
    assert str(P("-z + 1/3") ) == "1/3 - z"
    assert str(BiLaurent.zero()) == "0"


def test_str_matches_the_magnitude_printer():
    # The numerator/denominator printer against the abs() printer it
    # replaced, on int and Fraction coefficients, the integral Fractions
    # that * and + leave in place, +-1, constant terms, the three tags
    # and the zero polynomial.
    doubled = BiLaurent.term(Q(1, 2), 1, 0) * 2
    assert type(doubled.coefficient(1, 0)) is Q
    rng = random.Random(38)
    coeffs = [1, -1, 2, -7, Q(1, 2), Q(-3, 4), Q(5, 3)]
    seen = set()
    for tag in (None, U_CHART, V_CHART):
        assert str(BiLaurent.zero(tag)) == str_by_magnitude(BiLaurent.zero(tag)) == "0"
        for _ in range(300):
            p = BiLaurent.zero(tag)
            for _ in range(rng.randint(1, 6)):
                p = p + BiLaurent.term(rng.choice(coeffs), rng.randint(-3, 3),
                                       rng.randint(0, 2), tag)
            if rng.random() < 0.5:
                p = p * Q(1, 2) * 2
            assert str(p) == str_by_magnitude(p), p.sorted_terms()
            seen.update((type(c), c.denominator == 1, abs(c) == 1,
                         key == (0, 0)) for key, c in p.items())
    assert {(Q, True, True, True), (Q, True, False, False),
            (int, True, True, True), (int, True, False, False),
            (Q, False, False, True)} <= seen


def test_print_parse_roundtrip_random():
    rng = random.Random(3)
    for _ in range(80):
        p = random_poly(rng)
        assert parse_poly(str(p)) == p
    # V-tagged values roundtrip through the (xi, v) alphabet
    q = P("z^2*u - 2").with_tag(V_CHART)
    assert str(q) == "-2 + xi^2*v"
    assert parse_poly(str(q)) == q
