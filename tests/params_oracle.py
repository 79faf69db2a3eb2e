"""ParamPoly arithmetic as it was before it reused laurent, for oracle tests.

add and mul merge keys into their own dict, power is its own binary
powering loop with an inverting branch for negative exponents, and
substitute_vars caches one power per exponent and sums the terms
coeff * z-power * u-power one by one through these functions.  derivative
lowers one exponent term by term.  Every result is built through the public
constructor, which checks its keys.  None of them calls ParamPoly's +, *,
** or derivative, laurent._power or laurent._chained_powers, so they are
the reference for the ParamPoly that does.
"""

from localsurfaces.errors import NonInvertibleSubstitution
from localsurfaces.laurent import BiLaurent, Q
from localsurfaces.params import ParamPoly


def _check(a, b):
    if a.params != b.params:
        raise ValueError("parameter names differ")


def add(a, b):
    _check(a, b)
    out = dict(a._terms)
    for exps, coeff in b._terms.items():
        acc = out.get(exps)
        acc = coeff if acc is None else acc + coeff
        if acc.is_zero:
            out.pop(exps, None)
        else:
            out[exps] = acc
    return ParamPoly(a.params, out)


def mul(a, b):
    _check(a, b)
    out = {}
    for ea, ca in a._terms.items():
        for eb, cb in b._terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            prod = ca * cb
            acc = out.get(exps)
            acc = prod if acc is None else acc + prod
            if acc.is_zero:
                out.pop(exps, None)
            else:
                out[exps] = acc
    return ParamPoly(a.params, out)


def derivative(p, name):
    idx = p.params.index(name)
    out = {}
    for exps, coeff in p._terms.items():
        if exps[idx]:
            lowered = exps[:idx] + (exps[idx] - 1,) + exps[idx + 1:]
            out[lowered] = coeff * exps[idx]
    return ParamPoly(p.params, out)


def _unit_monomial(p):
    """(coeff, z_exp, u_exp) of a parameter-free single-term p, or None."""
    if len(p._terms) != 1:
        return None
    (exps, coeff), = p._terms.items()
    if any(exps):
        return None
    return coeff.as_unit_monomial()


def power(p, exponent):
    if exponent < 0:
        unit = _unit_monomial(p)
        if unit is None or unit[2] != 0:
            raise NonInvertibleSubstitution(
                f"negative power of non-unit ParamPoly {p}"
            )
        coeff, z_exp, _ = unit
        inv = ParamPoly.from_poly(
            BiLaurent.term(Q(1) / coeff, -z_exp, 0), p.params
        )
        return power(inv, -exponent)
    result = ParamPoly.const(1, p.params)
    base = p
    n = exponent
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return result


def substitute_vars(p, z=None, u=None, tag=None):
    """p with the ParamPoly images z and u substituted for its two slots."""
    z_img = z if z is not None else ParamPoly.from_poly(
        BiLaurent.term(1, 1, 0), p.params
    )
    u_img = u if u is not None else ParamPoly.from_poly(
        BiLaurent.term(1, 0, 1), p.params
    )
    z_pows, u_pows = {}, {}

    def cached(img, n, cache):
        if n not in cache:
            cache[n] = power(img, n)
        return cache[n]

    total = ParamPoly.zero(p.params)
    for exps, coeff in p._terms.items():
        part = ParamPoly.zero(p.params)
        for (ze, ue), scalar in coeff.items():
            term = mul(cached(z_img, ze, z_pows), cached(u_img, ue, u_pows))
            part = add(part, mul(term, ParamPoly.const(scalar, p.params)))
        total = add(total, mul(part, ParamPoly(p.params, {exps: BiLaurent.const(1)})))
    if tag is not None:
        total = ParamPoly(
            total.params,
            {e: c.with_tag(tag) for e, c in total._terms.items()},
        )
    return total
