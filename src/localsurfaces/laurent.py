"""Exact bivariate Laurent polynomials over the rationals.

A BiLaurent is a finitely supported map from monomials z^l * u^i to rational
coefficients, with l any integer and i >= 0 (chart functions are holomorphic
in the fibre variable).  This single type carries cocycles, transition-matrix
entries and chart functions throughout the library.

Values are immutable; all arithmetic is exact and returns canonical form
(no zero terms stored).  Public input is checked: the constructor
refuses a non-int exponent, a negative u-exponent and a float or bool
coefficient, and stores an integral Fraction as an int.  const and term
hand it all but a plain int coefficient with int exponents (u >= 0),
which is canonical already.  Values the library builds itself, from keys
and coefficients that are valid already (arithmetic, substitution,
parsing, certificates), go through _raw, which stores a canonical dict
without checking it again, as params._trusted does for ParamPoly.

An optional chart tag ("U" or "V") records which coordinate system the two
slots refer to -- (z, u) on the U chart, (xi, v) on the V chart -- and
arithmetic refuses to mix differently tagged values.
Tags are safety bookkeeping only: equality and hashing compare terms.

A term is keyed by a plain (z_exp, u_exp) tuple of two ints (Key); cech and
deformation share the Terms dict.  A NamedTuple key would lose CPython's
exact-tuple fast paths: on CPython 3.11, unpacking ``for (l, i), c in
p.items()`` over 30 keys took 0.32 s per 100 000 loops against 0.18 s, and
building a key, as * and substitute do per term, 0.56 us against 0.07 us.

A coefficient (Coeff) is a Python int where it is integral and a Fraction
otherwise, for parsed values too; as_fraction refuses a float or a bool
with TypeError, here and for tau, evaluation points and parameter values.
int and Fraction compare, hash and print alike, so equality and printing
do not depend on which one a coefficient is.  int / int is a float, so
code that divides coefficients divides through Fraction: Fraction(a, b),
or / with a Fraction operand.

Text syntax (used by the CLI and golden files): terms like ``3/2*z^-4*u^2``
joined by ``+`` / ``-``, as the grammar POLY below declares.  Parsing is a
full match of POLY and then one token pass that keeps each coefficient as
an int numerator over an int denominator until the terms are summed.
Canonical printing orders terms by (z exponent asc, u exponent asc) and
prints each coefficient from its numerator and denominator.
V-tagged values print and parse with the variable names ``xi`` and ``v``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .errors import NonInvertibleSubstitution, TagMismatch

Q = Fraction
Coeff = int | Fraction
Key = Tuple[int, int]
Terms = dict[Key, Coeff]

U_CHART = "U"
V_CHART = "V"

_VAR_NAMES = {U_CHART: ("z", "u"), V_CHART: ("xi", "v"), None: ("z", "u")}


def _merge_tags(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise TagMismatch(f"cannot combine {a}-coords with {b}-coords")


class BiLaurent:
    """Immutable exact Laurent polynomial in (z, u) with u-exponents >= 0."""

    __slots__ = ("_terms", "tag")

    def __init__(
        self,
        terms: Union[Mapping[Key, Coeff], Iterable, None] = None,
        tag: Optional[str] = None,
    ):
        clean: Terms = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for (l, i), coeff in items:
                if type(l) is not int or type(i) is not int:
                    raise TypeError(f"non-int exponent in key {(l, i)!r}")
                if i < 0:
                    raise ValueError(f"negative u-exponent in key {(l, i)!r}")
                key = (l, i)
                if type(coeff) is not int:
                    coeff = as_fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if not coeff:
                    continue
                if key in clean:
                    acc = clean[key] + coeff
                    if acc:
                        clean[key] = acc
                    else:
                        del clean[key]
                else:
                    clean[key] = coeff
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("BiLaurent is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, tag: Optional[str] = None) -> "BiLaurent":
        return _raw({}, tag)

    @classmethod
    def const(cls, value, tag: Optional[str] = None) -> "BiLaurent":
        """The constant value; a plain int skips the checks of __init__."""
        if type(value) is int:
            return _raw({(0, 0): value} if value else {}, tag)
        return cls({(0, 0): value}, tag)

    @classmethod
    def term(cls, coeff, z_exp: int, u_exp: int, tag: Optional[str] = None) -> "BiLaurent":
        """coeff * z^z_exp * u^u_exp; a plain int coeff with int exponents
        and u_exp >= 0 skips the checks of __init__."""
        if (type(coeff) is int and type(z_exp) is int and type(u_exp) is int
                and u_exp >= 0):
            return _raw({(z_exp, u_exp): coeff} if coeff else {}, tag)
        return cls({(z_exp, u_exp): coeff}, tag)

    def with_tag(self, tag: Optional[str]) -> "BiLaurent":
        p = BiLaurent.__new__(BiLaurent)
        object.__setattr__(p, "_terms", self._terms)
        object.__setattr__(p, "tag", tag)
        return p

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Terms:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, z_exp: int, u_exp: int) -> Coeff:
        return self._terms.get((z_exp, u_exp), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def support(self) -> set[Key]:
        return set(self._terms)

    def min_z_exp(self) -> int:
        return min(l for l, _ in self._terms)

    def max_z_exp(self) -> int:
        return max(l for l, _ in self._terms)

    def max_u_exp(self) -> int:
        return max(i for _, i in self._terms)

    def as_unit_monomial(self) -> Optional[Tuple[Coeff, int, int]]:
        """Return (coeff, z_exp, u_exp) when this is a single nonzero term."""
        if len(self._terms) != 1:
            return None
        ((z_exp, u_exp), coeff), = self._terms.items()
        return coeff, z_exp, u_exp

    def as_rational(self) -> Optional[Coeff]:
        if not self._terms:
            return 0
        unit = self.as_unit_monomial()
        if unit and unit[1] == 0 and unit[2] == 0:
            return unit[0]
        return None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Optional["BiLaurent"]:
        if isinstance(other, BiLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return BiLaurent.const(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        tag = _merge_tags(self.tag, rhs.tag)
        out = dict(self._terms)
        for key, coeff in rhs._terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return _raw(out, tag)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self._terms.items()}, self.tag)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        tag = _merge_tags(self.tag, rhs.tag)
        out: Terms = {}
        for (za, ua), ca in self._terms.items():
            for (zb, ub), cb in rhs._terms.items():
                key = (za + zb, ua + ub)
                acc = out.get(key, 0) + ca * cb
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return _raw(out, tag)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """self ** exponent.  A unit monomial c*z^a*u^b gives the single term
        c^e*z^(ae)*u^(be) with its tag, for any sign of e (a negative e
        needs b = 0); any other polynomial is powered by _power, e >= 0."""
        if not isinstance(exponent, int):
            return NotImplemented
        unit = self.as_unit_monomial()
        if unit is not None:
            coeff, z_exp, u_exp = unit
            if exponent < 0 and u_exp != 0:
                raise NonInvertibleSubstitution(
                    f"negative power would need u^{-u_exp}: {self}"
                )
            key = (z_exp * exponent, u_exp * exponent)
            # int ** -e is a float, so a negative power takes a Fraction.
            if exponent < 0:
                coeff = Q(coeff)
            return _raw({key: coeff ** exponent}, self.tag)
        if exponent < 0:
            raise NonInvertibleSubstitution(
                f"negative power of non-unit polynomial {self}"
            )
        return _power(self, exponent, BiLaurent.const(1, self.tag))

    # -- substitution ------------------------------------------------------

    def substitute(
        self,
        z: Optional["BiLaurent"] = None,
        u: Optional["BiLaurent"] = None,
        tag: Optional[str] = None,
    ) -> "BiLaurent":
        """Exactly substitute images for the two variable slots.

        A slot left as None keeps its variable.  When the polynomial has
        negative z-exponents the z image must be a unit monomial c*z^a so
        that negative powers substitute exactly.

        Each image is raised only to the exponents that occur, and each of
        those powers is built from the next lower one (_chained_powers), so
        dense u-degrees cost one multiplication by the image each and a lone
        high degree one binary powering.  The terms coeff * z-power *
        u-power are summed into a single dict.
        """
        z_img = z if z is not None else BiLaurent.term(1, 1, 0)
        u_img = u if u is not None else BiLaurent.term(1, 0, 1)
        z_exps = {ze for ze, _ in self._terms}
        u_exps = {ue for _, ue in self._terms}
        if z_exps and min(z_exps) < 0:
            unit = z_img.as_unit_monomial()
            if unit is None or unit[2] != 0:
                raise NonInvertibleSubstitution(
                    f"z-image {z_img} is not a unit monomial but negative "
                    f"powers of z occur"
                )
        # A power of an image carries its tag unless the exponent is 0.
        _merge_tags(z_img.tag if z_exps - {0} else None,
                    u_img.tag if u_exps - {0} else None)
        z_pows = _chained_powers(z_img, z_exps)
        u_pows = _chained_powers(u_img, u_exps)
        out: Terms = {}
        for (ze, ue), coeff in self._terms.items():
            u_terms = u_pows[ue].items()
            for (za, ua), ca in z_pows[ze].items():
                c = coeff * ca
                for (zb, ub), cb in u_terms:
                    key = (za + zb, ua + ub)
                    acc = out.get(key, 0) + c * cb
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)
        return _raw(out, tag)

    def evaluate(self, z_value, u_value) -> Q:
        """Evaluate at rational point (z != 0 required if negative powers)."""
        zq, uq = as_fraction(z_value), as_fraction(u_value)
        total = Q(0)
        for (ze, ue), coeff in self._terms.items():
            total += coeff * zq ** ze * uq ** ue
        return total

    # -- comparison / printing --------------------------------------------

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self):
        # A constant equals its int or Fraction coefficient, so hashes as it.
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[Tuple[Key, Coeff]]:
        return sorted(self._terms.items())

    def __str__(self):
        """Canonical text: terms by (z exponent, u exponent) ascending,
        each printed from its coefficient's numerator and denominator,
        which ints and Fractions both have, with no Fraction arithmetic."""
        if not self._terms:
            return "0"
        zname, uname = _VAR_NAMES[self.tag]
        pieces = []
        for (ze, ue), coeff in self.sorted_terms():
            num, den = coeff.numerator, coeff.denominator
            negative = num < 0
            if negative:
                num = -num
            mag = str(num) if den == 1 else f"{num}/{den}"
            factors = []
            if ze:
                factors.append(zname if ze == 1 else f"{zname}^{ze}")
            if ue:
                factors.append(uname if ue == 1 else f"{uname}^{ue}")
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag] + factors)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        tag = f", tag={self.tag!r}" if self.tag else ""
        return f"BiLaurent({self}{tag})"


def as_fraction(value) -> Fraction:
    """value as a Fraction; a float raises TypeError, since Fraction would
    keep its binary expansion (0.1 is 3602879701896397/36028797018963968),
    and so does a bool, which Fraction would read as 0 or 1."""
    if isinstance(value, float):
        raise TypeError(f"inexact number {value!r}")
    if isinstance(value, bool):
        raise TypeError(f"bool is not a number: {value!r}")
    return value if type(value) is Fraction else Fraction(value)


def _raw(terms: Terms, tag: Optional[str]) -> BiLaurent:
    p = BiLaurent.__new__(BiLaurent)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "tag", tag)
    return p


def _power(base, n: int, one):
    """base ** n for n >= 0 by binary powering, starting from the unit one.
    BiLaurent and ParamPoly both power through this routine."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _chained_powers(
    img: BiLaurent, exponents: set[int]
) -> dict[int, BiLaurent]:
    """img ** e for every e in exponents.  Walking up the positive exponents
    in order, img^e = img^e' * img^(e - e') for the next lower e', and the
    power of each gap e - e' is computed once.  A negative e needs img to
    be a unit monomial, whose powers are single terms.  Only ** and * are
    used: BiLaurent.substitute and ParamPoly.substitute_vars share it."""
    pows = {e: img ** e for e in exponents if e <= 0}
    gap_pows: dict[int, BiLaurent] = {}
    below = 0
    for e in sorted(e for e in exponents if e > 0):
        gap = e - below
        if gap not in gap_pows:
            gap_pows[gap] = img ** gap
        pows[e] = gap_pows[gap] if e == gap else pows[below] * gap_pows[gap]
        below = e
    return pows


# -- parsing ---------------------------------------------------------------

# The text syntax is this regular grammar (re.ASCII: \d is 0-9 only, not
# every script's digits).  A number may be juxtaposed only before a
# variable, and signs separate terms.  README.md states the same grammar.
SP = r"[ \t]*"
RAT = r"\d+(?:/\d+)?"
VAR = r"(?:xi|z|u|v)(?:\^-?\d+)?"
F = rf"(?:{RAT}|{VAR})"
TERM = rf"{F}(?:{SP}\*{SP}{F}|{SP}{VAR})*"
POLY = re.compile(rf"{SP}[+-]?{SP}{TERM}(?:{SP}[+-]{SP}{TERM})*{SP}", re.ASCII)

# After POLY has matched, one pass of _TOKEN reads the text: a sign, which
# opens a term; a number p or p/q; or a variable with its exponent.  Blanks
# and * are skipped.
_TOKEN = re.compile(r"([+-])|(\d+)(?:/(\d+))?|(xi|z|u|v)(?:\^(-?\d+))?", re.ASCII)


def parse_poly(text: str, tag: Optional[str] = None) -> BiLaurent:
    """Parse the canonical text syntax into a BiLaurent.

    Text that POLY does not full-match is a syntax error.  Both (z, u) and
    (xi, v) variable names are read; mixing the two chart alphabets, a
    negative u- or v-exponent and a zero denominator are errors.  When the
    (xi, v) alphabet is used the result is tagged V-coords unless an
    explicit tag is given.

    One _TOKEN pass reads the terms.  Each term's coefficient is an int
    numerator over an int denominator, and terms with equal keys are
    summed as such pairs.  Each sum becomes an int when it is integral and
    one Fraction otherwise, so the dict is canonical and goes through _raw.
    """
    if not POLY.fullmatch(text):
        raise ValueError(f"bad polynomial syntax in {text!r}")
    sums: dict[Key, Tuple[int, int]] = {}
    names = set()
    opened = False
    num = den = 1
    z_exp = u_exp = 0
    for sign, top, bottom, name, exp in _TOKEN.findall(text):
        if sign:
            if opened:
                _add_pair(sums, (z_exp, u_exp), num, den)
            opened = True
            num, den, z_exp, u_exp = (-1 if sign == "-" else 1), 1, 0, 0
            continue
        opened = True
        if top:
            num *= int(top)
            if bottom:
                q = int(bottom)
                if not q:
                    raise ValueError(f"zero denominator in {text!r}")
                den *= q
            continue
        names.add(name)
        power = int(exp) if exp else 1
        if name == "z" or name == "xi":
            z_exp += power
        elif power < 0:
            raise ValueError(f"negative {name}-exponent in {text!r}")
        else:
            u_exp += power
    _add_pair(sums, (z_exp, u_exp), num, den)
    if names & {"z", "u"} and names & {"xi", "v"}:
        raise ValueError(f"mixed chart variables in {text!r}")
    if tag is None and names & {"xi", "v"}:
        tag = V_CHART
    terms: Terms = {}
    for key, (num, den) in sums.items():
        if den == 1:
            terms[key] = num
        elif num % den:
            terms[key] = Q(num, den)
        else:
            terms[key] = num // den
    return _raw(terms, tag)


def _add_pair(sums: dict[Key, Tuple[int, int]], key: Key, num: int, den: int) -> None:
    """Add num/den to the (numerator, denominator) pair at key.  A sum
    that reaches 0 leaves the dict, and a later term of its key enters it
    again at the end: the key order that BiLaurent addition gives."""
    if key in sums:
        n, d = sums[key]
        num, den = n * den + num * d, d * den
        if not num:
            del sums[key]
            return
    elif not num:
        return
    sums[key] = (num, den)
