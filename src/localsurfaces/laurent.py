"""Exact bivariate Laurent polynomials over the rationals.

A BiLaurent is a finitely supported map from monomials z^l * u^i to rational
coefficients, with l any integer and i >= 0 (chart functions are holomorphic
in the fibre variable).  This single type carries cocycles, transition-matrix
entries and chart functions throughout the library.

Values are immutable; all arithmetic is exact and returns canonical form
(no zero terms stored).  An optional chart tag ("U" or "V") records which
coordinate system the two slots refer to -- (z, u) on the U chart, (xi, v)
on the V chart -- and arithmetic refuses to mix differently tagged values.
Tags are safety bookkeeping only: equality and hashing compare terms.

Text syntax (used by the CLI and golden files): terms like ``3/2*z^-4*u^2``
joined by ``+`` / ``-``; whitespace may separate tokens but not split one.
A number may follow a variable only after ``*``: ``z2`` is an error, not
``2*z``.
Canonical printing orders terms by (z exponent asc, u exponent asc).
V-tagged values print and parse with the variable names ``xi`` and ``v``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple, Union

from .errors import NonInvertibleSubstitution, TagMismatch

Q = Fraction

U_CHART = "U"
V_CHART = "V"

_VAR_NAMES = {U_CHART: ("z", "u"), V_CHART: ("xi", "v"), None: ("z", "u")}


class Monomial(NamedTuple):
    """Exponent pair z^z_exp * u^u_exp; u_exp is never negative."""

    z_exp: int
    u_exp: int


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
        terms: Union[Mapping[Tuple[int, int], Q], Iterable, None] = None,
        tag: Optional[str] = None,
    ):
        clean: dict[Monomial, Q] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                mono = Monomial(*key)
                if mono.u_exp < 0:
                    raise ValueError(f"negative u-exponent in {mono}")
                coeff = Q(coeff)
                if coeff:
                    acc = clean.get(mono, Q(0)) + coeff
                    if acc:
                        clean[mono] = acc
                    else:
                        clean.pop(mono, None)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("BiLaurent is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, tag: Optional[str] = None) -> "BiLaurent":
        return cls(None, tag)

    @classmethod
    def const(cls, value, tag: Optional[str] = None) -> "BiLaurent":
        return cls({Monomial(0, 0): Q(value)}, tag)

    @classmethod
    def term(cls, coeff, z_exp: int, u_exp: int, tag: Optional[str] = None) -> "BiLaurent":
        return cls({Monomial(z_exp, u_exp): Q(coeff)}, tag)

    def with_tag(self, tag: Optional[str]) -> "BiLaurent":
        p = BiLaurent.__new__(BiLaurent)
        object.__setattr__(p, "_terms", self._terms)
        object.__setattr__(p, "tag", tag)
        return p

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Q]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, z_exp: int, u_exp: int) -> Q:
        return self._terms.get(Monomial(z_exp, u_exp), Q(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def support(self) -> set[Monomial]:
        return set(self._terms)

    def min_z_exp(self) -> int:
        return min(m.z_exp for m in self._terms)

    def max_z_exp(self) -> int:
        return max(m.z_exp for m in self._terms)

    def max_u_exp(self) -> int:
        return max(m.u_exp for m in self._terms)

    def as_unit_monomial(self) -> Optional[Tuple[Q, int, int]]:
        """Return (coeff, z_exp, u_exp) when this is a single nonzero term."""
        if len(self._terms) != 1:
            return None
        (mono, coeff), = self._terms.items()
        return coeff, mono.z_exp, mono.u_exp

    def as_rational(self) -> Optional[Q]:
        if not self._terms:
            return Q(0)
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
        for mono, coeff in rhs._terms.items():
            acc = out.get(mono, Q(0)) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
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
        out: dict[Monomial, Q] = {}
        for (za, ua), ca in self._terms.items():
            for (zb, ub), cb in rhs._terms.items():
                mono = Monomial(za + zb, ua + ub)
                acc = out.get(mono, Q(0)) + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
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
            mono = Monomial(z_exp * exponent, u_exp * exponent)
            return _raw({mono: coeff ** exponent}, self.tag)
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
        out: dict[Monomial, Q] = {}
        for (ze, ue), coeff in self._terms.items():
            u_terms = u_pows[ue].items()
            for (za, ua), ca in z_pows[ze].items():
                c = coeff * ca
                for (zb, ub), cb in u_terms:
                    mono = Monomial(za + zb, ua + ub)
                    acc = out.get(mono, 0) + c * cb
                    if acc:
                        out[mono] = acc
                    else:
                        out.pop(mono, None)
        return _raw(out, tag)

    def evaluate(self, z_value, u_value) -> Q:
        """Evaluate at rational point (z != 0 required if negative powers)."""
        zq, uq = Q(z_value), Q(u_value)
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
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[Tuple[Monomial, Q]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        if not self._terms:
            return "0"
        zname, uname = _VAR_NAMES[self.tag]
        pieces = []
        for (ze, ue), coeff in self.sorted_terms():
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

    def __repr__(self):
        tag = f", tag={self.tag!r}" if self.tag else ""
        return f"BiLaurent({self}{tag})"


def _raw(terms: dict[Monomial, Q], tag: Optional[str]) -> BiLaurent:
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

_TOKEN = re.compile(
    r"""
    (?P<space>[\ \t]+)
    | (?P<rat>\d+(?:/\d+)?)
    | (?P<var>xi|z|u|v)(?:\^(?P<exp>-?\d+))?
    | (?P<op>[+\-*])
    """,
    re.VERBOSE,
)


def parse_poly(text: str, tag: Optional[str] = None) -> BiLaurent:
    """Parse the canonical text syntax into a BiLaurent.

    Accepts both (z, u) and (xi, v) variable names; mixing the two chart
    alphabets is an error.  When the (xi, v) alphabet is used the result is
    tagged V-coords unless an explicit tag is given.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            rest = text[pos:].replace(" ", "").replace("\t", "")
            raise ValueError(f"bad polynomial syntax near {rest!r}")
        if match.lastgroup != "space":
            tokens.append(match)
        elif text[pos - 1:pos].isdigit() and text[match.end():][:1].isdigit():
            # Deleting this space would join two numbers into one.
            raise ValueError(f"whitespace inside a number or exponent in {text!r}")
        pos = match.end()
    if not tokens:
        raise ValueError("empty polynomial string")

    terms: list[tuple[Q, int, int]] = []
    sign = Q(1)
    coeff: Optional[Q] = None
    z_exp = u_exp = 0
    charts_seen = set()
    in_term = False
    pending_mul = pending_sign = False

    def flush():
        nonlocal coeff, z_exp, u_exp, in_term
        if not in_term or pending_mul:
            raise ValueError(f"dangling operator in {text!r}")
        terms.append((sign * (coeff if coeff is not None else Q(1)), z_exp, u_exp))
        coeff, z_exp, u_exp, in_term = None, 0, 0, False

    for index, token in enumerate(tokens):
        kind = token.lastgroup
        if kind == "op":
            op = token.group("op")
            if op == "*":
                if not in_term or pending_mul:
                    raise ValueError(f"misplaced '*' in {text!r}")
                pending_mul = True
                continue
            if pending_sign:
                raise ValueError(f"dangling operator in {text!r}")
            if in_term:
                flush()
            sign = Q(-1) if op == "-" else Q(1)
            pending_sign = True
        elif kind == "rat":
            if index and tokens[index - 1].lastgroup == "var":
                # z2 is a mistyped z^2, not 2*z.
                raise ValueError(f"number right after a variable in {text!r}")
            try:
                value = Q(token.group("rat"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
            coeff = value if coeff is None else coeff * value
            in_term = True
            pending_mul = pending_sign = False
        else:
            name = token.group("var")
            exp = int(token.group("exp") or 1)
            if name in ("z", "u"):
                charts_seen.add(U_CHART)
            else:
                charts_seen.add(V_CHART)
            if name in ("z", "xi"):
                z_exp += exp
            else:
                if exp < 0:
                    raise ValueError(f"negative {name}-exponent in {text!r}")
                u_exp += exp
            in_term = True
            pending_mul = pending_sign = False
    flush()

    if len(charts_seen) > 1:
        raise ValueError(f"mixed chart variables in {text!r}")
    if tag is None and V_CHART in charts_seen:
        tag = V_CHART
    return BiLaurent([(Monomial(z, u), c) for c, z, u in terms], tag)
