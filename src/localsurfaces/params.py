"""Polynomials in commuting formal parameters, layered over BiLaurent.

A ParamPoly is a finitely supported map from parameter-exponent tuples
(non-negative ints, one slot per parameter name) to BiLaurent coefficients.
It is used only for identity checks that must hold for all parameter values
at once: the semiuniversal family transition, Kodaira-Spencer images, the
chart normalization isomorphism, and the Hirzebruch-embedding relations.

Only the parameter names, exponent tuples, derivative, substitute_params
and printing are ParamPoly's own.  Its public constructor takes (exponents,
coefficient) pairs like BiLaurent's and checks every exponent tuple; the
results of arithmetic and substitution are built from keys checked before,
so they go through _trusted, which merges keys without checking them again
(as laurent._raw does for BiLaurent).  Powers go through laurent._power (a
parameter-free term is powered as a BiLaurent), and substitute_vars raises
its images by laurent._chained_powers.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import add
from typing import Iterable, Optional, Sequence, Tuple, Union

from .errors import NonInvertibleSubstitution
from .laurent import BiLaurent, Q, _chained_powers, _power, as_fraction


class ParamPoly:
    """Exact polynomial in named parameters with BiLaurent coefficients."""

    __slots__ = ("params", "_terms")

    def __init__(
        self,
        params: Sequence[str],
        terms: Union[Mapping[Tuple[int, ...], BiLaurent], Iterable, None] = None,
    ):
        """Check every exponent tuple: one int >= 0 per parameter, a
        TypeError or ValueError otherwise.  Equal keys are merged and zero
        sums dropped.  Internal results skip the check (see _trusted)."""
        params = tuple(params)
        pairs = ()
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            pairs = _checked(items, len(params))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_terms", _merged(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: Sequence[str]) -> "ParamPoly":
        return _trusted(tuple(params), ())

    @classmethod
    def from_poly(cls, poly: BiLaurent, params: Sequence[str]) -> "ParamPoly":
        params = tuple(params)
        return _trusted(params, [((0,) * len(params), poly)])

    @classmethod
    def const(cls, value, params: Sequence[str]) -> "ParamPoly":
        return cls.from_poly(BiLaurent.const(value), params)

    @classmethod
    def var(cls, name: str, params: Sequence[str]) -> "ParamPoly":
        params = tuple(params)
        exps = [0] * len(params)
        exps[params.index(name)] = 1
        return _trusted(params, [(tuple(exps), BiLaurent.const(1))])

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Optional["ParamPoly"]:
        if isinstance(other, ParamPoly):
            if other.params != self.params:
                raise ValueError("parameter names differ")
            return other
        if isinstance(other, BiLaurent):
            return ParamPoly.from_poly(other, self.params)
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other, self.params)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _trusted(self.params, [*self._terms.items(), *rhs._terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.params, [(e, -c) for e, c in self._terms.items()])

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
        return _trusted(self.params, [
            (tuple(map(add, ea, eb)), ca * cb)
            for ea, ca in self._terms.items()
            for eb, cb in rhs._terms.items()
        ])

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if len(self._terms) == 1:
            (exps, coeff), = self._terms.items()
            if not any(exps):
                return ParamPoly.from_poly(coeff ** exponent, self.params)
        if exponent < 0:
            raise NonInvertibleSubstitution(
                f"negative power of non-unit ParamPoly {self}"
            )
        return _power(self, exponent, ParamPoly.const(1, self.params))

    # -- substitution ------------------------------------------------------

    def substitute_params(self, values: Mapping[str, Q]) -> BiLaurent:
        """Evaluate every parameter at a rational value."""
        vals = [as_fraction(values[name]) for name in self.params]
        total = BiLaurent.zero()
        for exps, coeff in self._terms.items():
            scalar = Q(1)
            for v, e in zip(vals, exps):
                scalar *= v ** e
            total = total + coeff * scalar
        return total

    def derivative(self, name: str) -> "ParamPoly":
        idx = self.params.index(name)
        out = []
        for exps, coeff in self._terms.items():
            if exps[idx] == 0:
                continue
            new = list(exps)
            new[idx] -= 1
            out.append((tuple(new), coeff * exps[idx]))
        return _trusted(self.params, out)

    def substitute_vars(
        self, z: Optional["ParamPoly"] = None, u: Optional["ParamPoly"] = None,
        tag: Optional[str] = None,
    ) -> "ParamPoly":
        """Substitute ParamPoly images for the two BiLaurent variable slots;
        each image is raised only to the exponents that occur."""
        z_img = z if z is not None else ParamPoly.from_poly(
            BiLaurent.term(1, 1, 0), self.params
        )
        u_img = u if u is not None else ParamPoly.from_poly(
            BiLaurent.term(1, 0, 1), self.params
        )
        monos = [
            (exps, mono, scalar)
            for exps, coeff in self._terms.items()
            for mono, scalar in coeff.items()
        ]
        z_pows = _chained_powers(z_img, {ze for _, (ze, _), _ in monos})
        u_pows = _chained_powers(u_img, {ue for _, (_, ue), _ in monos})
        total = _trusted(self.params, [
            (tuple(map(add, exps, ea)), ca * scalar)
            for exps, (ze, ue), scalar in monos
            for ea, ca in (z_pows[ze] * u_pows[ue])._terms.items()
        ])
        if tag is not None:
            total = _trusted(
                total.params,
                [(e, c.with_tag(tag)) for e, c in total._terms.items()],
            )
        return total

    # -- comparison / printing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ParamPoly) and other.params != self.params:
            return False
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self):
        # A parameter-free ParamPoly equals its BiLaurent, so hashes as it.
        free = (0,) * len(self.params)
        if self._terms.keys() <= {free}:
            return hash(self._terms.get(free, 0))
        return hash((self.params, frozenset(
            (e, frozenset(c.items())) for e, c in self._terms.items()
        )))

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for exps in sorted(self._terms):
            coeff = self._terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.params, exps)
                if e
            ]
            body = str(coeff)
            if factors:
                if coeff.as_rational() == 1:
                    body = "*".join(factors)
                else:
                    body = f"({body})*" + "*".join(factors)
            pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self):
        return f"ParamPoly({self})"


def _checked(items, length: int):
    """The (exponents, coefficient) pairs of items, each exponent tuple
    checked to be `length` ints >= 0; raises at the first bad one."""
    for exps, coeff in items:
        exps = tuple(exps)
        if len(exps) != length:
            raise ValueError("exponent tuple length != number of parameters")
        for e in exps:
            if type(e) is not int:
                raise TypeError(f"non-int parameter exponent in {exps!r}")
            if e < 0:
                raise ValueError("parameter exponents must be non-negative")
        yield exps, coeff


def _merged(pairs) -> dict[Tuple[int, ...], BiLaurent]:
    """The coefficients of equal exponent tuples summed, zero sums dropped."""
    clean: dict[Tuple[int, ...], BiLaurent] = {}
    for exps, coeff in pairs:
        if not coeff.is_zero:
            acc = clean.get(exps)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero:
                clean.pop(exps, None)
            else:
                clean[exps] = acc
    return clean


def _trusted(params: Tuple[str, ...], pairs) -> ParamPoly:
    """A ParamPoly from pairs whose exponent tuples are valid keys for the
    tuple params already, built from checked keys: no key is checked."""
    p = ParamPoly.__new__(ParamPoly)
    object.__setattr__(p, "params", params)
    object.__setattr__(p, "_terms", _merged(pairs))
    return p
