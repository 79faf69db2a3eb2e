"""ParamPoly against its former arithmetic (tests/params_oracle.py).

Sums, products, powers, derivatives and substitute_vars must give the same
polynomial, print the same, and raise NonInvertibleSubstitution on the same
inputs as the oracle, which merges, powers and substitutes with its own
loops and builds every result through the public constructor.
"""

import random

import pytest

from localsurfaces.deformation import family_and_ks, hirzebruch_embed_check
from localsurfaces.errors import NonInvertibleSubstitution
from localsurfaces.laurent import BiLaurent, Q, U_CHART, V_CHART
from localsurfaces.params import ParamPoly

import params_oracle as oracle

PARAMS = ("t1", "t2")
COEFFS = (Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-5, 4))


def random_laurent(rng, tag=None, min_z=-3):
    return BiLaurent(
        [((rng.randint(min_z, 3), rng.randint(0, 2)), rng.choice(COEFFS))
         for _ in range(rng.randint(1, 3))],
        tag,
    )


def random_param_poly(rng, tag=None, min_z=-3, max_terms=3):
    return ParamPoly(PARAMS, [
        ((rng.randint(0, 2), rng.randint(0, 1)), random_laurent(rng, tag, min_z))
        for _ in range(rng.randint(0, max_terms))
    ])


def unit_term(rng, tag=None, u_exp=0):
    """A parameter-free c*z^a*u^b."""
    term = BiLaurent.term(rng.choice(COEFFS), rng.randint(-3, 3), u_exp, tag)
    return ParamPoly.from_poly(term, PARAMS)


def same(new, old):
    assert new == old
    assert str(new) == str(old)


def test_sums_and_products_match_the_oracle():
    rng = random.Random(41)
    for _ in range(150):
        tag = rng.choice((None, U_CHART))
        a, b = random_param_poly(rng, tag), random_param_poly(rng, tag)
        same(a + b, oracle.add(a, b))
        same(a * b, oracle.mul(a, b))
        same(a + (-a), ParamPoly.zero(PARAMS))
        for name in PARAMS:
            same(a.derivative(name), oracle.derivative(a, name))


def test_powers_match_the_oracle():
    rng = random.Random(43)
    for _ in range(40):
        p = random_param_poly(rng, rng.choice((None, U_CHART)), max_terms=2)
        for e in range(7):
            same(p ** e, oracle.power(p, e))
    for _ in range(60):
        u_exp = rng.choice((0, 0, 2))
        tag = rng.choice((None, V_CHART))
        p = unit_term(rng, tag, u_exp)
        for e in range(-4, 7):
            if e < 0 and u_exp:
                with pytest.raises(NonInvertibleSubstitution):
                    oracle.power(p, e)
                with pytest.raises(NonInvertibleSubstitution):
                    p ** e
                continue
            new, old = p ** e, oracle.power(p, e)
            # The power keeps the term's tag for every e, as BiLaurent ** e
            # does; the oracle dropped it for e <= 0, which shows in print
            # for e < 0 (xi^-2 against z^-2).
            assert all(c.tag == tag for c in new._terms.values())
            if tag is None or e >= 0:
                same(new, old)
            else:
                assert new == old


def test_negative_powers_raise_where_the_oracle_raises():
    non_units = [
        ParamPoly.zero(PARAMS),
        ParamPoly.from_poly(BiLaurent({(1, 0): 1, (-1, 0): 2}), PARAMS),
        ParamPoly.from_poly(BiLaurent.term(3, -2, 1), PARAMS),
        ParamPoly.var("t1", PARAMS),
        ParamPoly.var("t2", PARAMS) * BiLaurent.term(1, -1, 0),
    ]
    for p in non_units:
        for e in (-1, -3):
            with pytest.raises(NonInvertibleSubstitution):
                oracle.power(p, e)
            with pytest.raises(NonInvertibleSubstitution):
                p ** e


def test_substitute_vars_matches_the_oracle():
    rng = random.Random(47)
    for _ in range(80):
        p = random_param_poly(rng, rng.choice((None, V_CHART)))
        img_tag = rng.choice((None, U_CHART))
        z_img = unit_term(rng, img_tag) if rng.random() < 0.8 else None
        u_img = rng.choice((
            random_param_poly(rng, img_tag, min_z=0, max_terms=2),
            unit_term(rng, img_tag, rng.randint(0, 2)),
            None,
        ))
        tag = rng.choice((None, U_CHART))
        new = p.substitute_vars(z=z_img, u=u_img, tag=tag)
        same(new, oracle.substitute_vars(p, z=z_img, u=u_img, tag=tag))
        if tag is not None:
            assert all(c.tag == tag for c in new._terms.values())
    zero = ParamPoly.zero(PARAMS)
    same(zero.substitute_vars(z=ParamPoly.var("t1", PARAMS)), zero)
    # The tag remap on a result whose terms cancel in part.
    p = ParamPoly(PARAMS, {(1, 0): BiLaurent({(0, 1): 1, (1, 0): 2}),
                           (0, 0): BiLaurent.term(-1, 1, 1)})
    t1 = ParamPoly.var("t1", PARAMS)
    same(p.substitute_vars(z=t1, tag=U_CHART),
         oracle.substitute_vars(p, z=t1, tag=U_CHART))


def test_substitute_vars_matches_the_oracle_on_the_hirzebruch_charts():
    # The V-chart coordinates rewritten to the U chart, as the overlap
    # check does: z -> z^-1 (negative powers) and v -> z^k u + sum t_i z^i.
    for k in range(2, 6):
        report = hirzebruch_embed_check(k)
        params = report.y[0].params
        z_img = ParamPoly.from_poly(BiLaurent.term(1, -1, 0), params)
        v_img = ParamPoly.from_poly(BiLaurent.term(1, k, 1, U_CHART), params)
        for i in range(1, k):
            v_img = v_img + ParamPoly.var(f"t{i}", params) * BiLaurent.term(1, i, 0)
        for y in report.y:
            same(y.substitute_vars(z=z_img, u=v_img, tag=U_CHART),
                 oracle.substitute_vars(y, z=z_img, u=v_img, tag=U_CHART))


def test_substitute_vars_raises_where_the_oracle_raises():
    # Negative z-exponents need a parameter-free unit z-image.
    p = ParamPoly.from_poly(BiLaurent({(-2, 0): 1, (1, 1): 3}), PARAMS)
    for z_img in (
        ParamPoly.from_poly(BiLaurent({(1, 0): 1, (0, 0): 1}), PARAMS),
        ParamPoly.from_poly(BiLaurent.term(1, 1, 1), PARAMS),
        ParamPoly.var("t1", PARAMS),
        ParamPoly.zero(PARAMS),
    ):
        with pytest.raises(NonInvertibleSubstitution):
            oracle.substitute_vars(p, z=z_img)
        with pytest.raises(NonInvertibleSubstitution):
            p.substitute_vars(z=z_img)


def test_other_parameter_names_are_unequal_but_do_not_mix():
    a = ParamPoly.var("t1", ("t1",))
    b = ParamPoly.var("t1", ("t1", "t2"))
    assert a != b and not a == b
    assert ParamPoly.zero(("t1",)) != ParamPoly.zero(("s1",))
    assert a == ParamPoly.var("t1", ("t1",))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError, match="parameter names differ"):
            op()


def test_equal_values_hash_equal():
    # A constant BiLaurent equals its int or Fraction coefficient, and a
    # parameter-free ParamPoly equals its BiLaurent, so sets and dict keys
    # must see each pair as one value.
    rng = random.Random(38)
    numbers = [0, 1, -1, 2, *COEFFS]
    laurents = [BiLaurent.const(c, rng.choice((None, U_CHART, V_CHART)))
                for c in numbers]
    laurents += [random_laurent(rng) for _ in range(20)]
    params = [ParamPoly.from_poly(p, PARAMS) for p in laurents]
    params += [ParamPoly.const(c, ("t1",)) for c in numbers]
    params += [random_param_poly(rng) for _ in range(20)]
    values = numbers + laurents + params
    equal = 0
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                equal += type(a) is not type(b)
    assert equal > 100


def test_non_int_exponent_rejected():
    # hash(1.0) == hash(1), so a float exponent would merge with an int key:
    # t^0.5 squared would print t.
    one = BiLaurent.const(1)
    for exps in ((0.5,), (True,), (Q(1),), (1, 0.5)):
        with pytest.raises(TypeError):
            ParamPoly(("t", "s")[:len(exps)], {exps: one})
    with pytest.raises(ValueError):
        ParamPoly(("t",), {(-1,): one})
    with pytest.raises(ValueError):
        ParamPoly(("t",), {(1, 0): one})
    assert str(ParamPoly(("t",), {(2,): one})) == "t^2"


def test_internal_results_check_no_key(monkeypatch):
    # The public constructor checks every exponent tuple; sums, products,
    # derivatives and substitutions build their keys from checked keys and
    # must not check them again.
    init = ParamPoly.__init__
    checked = []

    def counting_init(self, params, terms=None):
        if terms:
            checked.append(terms)
        init(self, params, terms)

    monkeypatch.setattr(ParamPoly, "__init__", counting_init)
    for k in range(2, 7):
        hirzebruch_embed_check(k)
    family_and_ks(4)
    assert len(checked) == 0
    ParamPoly(PARAMS, {(1, 0): BiLaurent.const(1)})
    assert len(checked) == 1
