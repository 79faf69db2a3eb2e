"""Term-by-term substitution and the Fraction printer, for oracle tests.

substitute_by_term is the form BiLaurent.substitute had before it chained
its powers: every exponent that occurs gets its own power of the image
(cached per exponent), and the terms coeff * z-power * u-power are added
one by one through BiLaurent arithmetic, so tags merge as the sum goes.  It
shares no power with another exponent and builds each one by repeated
multiplication, not BiLaurent.__pow__, which makes it the reference for the
chained powers of BiLaurent.substitute.

str_by_magnitude is the body BiLaurent.__str__ had before it printed from
numerators and denominators: it prints abs(coeff) and compares the
coefficient with 0 and 1, which is Fraction arithmetic on a Fraction.
"""

from fractions import Fraction

from localsurfaces.errors import NonInvertibleSubstitution
from localsurfaces.laurent import V_CHART, BiLaurent


def substitute_by_term(p, z=None, u=None, tag=None):
    """p with the images z and u substituted for its two slots."""
    z_img = z if z is not None else BiLaurent.term(1, 1, 0)
    u_img = u if u is not None else BiLaurent.term(1, 0, 1)
    if not p.is_zero and p.min_z_exp() < 0:
        unit = z_img.as_unit_monomial()
        if unit is None or unit[2] != 0:
            raise NonInvertibleSubstitution(
                f"z-image {z_img} is not a unit monomial but negative "
                f"powers of z occur"
            )
    z_pows = {0: BiLaurent.const(1)}
    u_pows = {0: BiLaurent.const(1)}

    def power(img, n, cache):
        if n not in cache:
            cache[n] = _repeated_product(img, n)
        return cache[n]

    total = BiLaurent.zero()
    for (ze, ue), coeff in p.items():
        term = power(z_img, ze, z_pows) * power(u_img, ue, u_pows)
        total = total + term * coeff
    return total.with_tag(tag)


def _repeated_product(img, n):
    """img ** n by |n| multiplications; a negative n multiplies the inverse
    of the unit monomial img, so this never calls BiLaurent.__pow__."""
    if n < 0:
        coeff, z_exp, _ = img.as_unit_monomial()
        img, n = BiLaurent.term(Fraction(1) / coeff, -z_exp, 0, img.tag), -n
    out = BiLaurent.const(1, img.tag)
    for _ in range(n):
        out = out * img
    return out


def str_by_magnitude(p):
    """The canonical text of p: terms by (z exponent, u exponent)
    ascending, each its sign and then abs() of its coefficient."""
    if p.is_zero:
        return "0"
    zname, uname = ("xi", "v") if p.tag == V_CHART else ("z", "u")
    pieces = []
    for (ze, ue), coeff in p.sorted_terms():
        factors = []
        if ze:
            factors.append(zname if ze == 1 else f"{zname}^{ze}")
        if ue:
            factors.append(uname if ue == 1 else f"{uname}^{ue}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
