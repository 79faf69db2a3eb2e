"""Term-by-term substitution, for oracle tests.

substitute_by_term is the form BiLaurent.substitute had before it chained
its powers: every exponent that occurs gets its own power of the image
(cached per exponent), and the terms coeff * z-power * u-power are added
one by one through BiLaurent arithmetic, so tags merge as the sum goes.  It
shares no power with another exponent and builds each one by repeated
multiplication, not BiLaurent.__pow__, which makes it the reference for the
chained powers of BiLaurent.substitute.
"""

from fractions import Fraction

from localsurfaces.errors import NonInvertibleSubstitution
from localsurfaces.laurent import BiLaurent


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
