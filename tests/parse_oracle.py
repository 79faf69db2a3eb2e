"""The token state machine parse_poly was before it full-matched a grammar.

It scans tokens (blanks, numbers, variables with an optional exponent,
operators) and decides syntax with three flags and per-case checks.  It is
kept as the reference that the grammar-based localsurfaces.laurent.parse_poly
is compared against: the same accept or reject, and on accept an equal
BiLaurent with an equal tag.
"""

import re
from typing import Optional

from localsurfaces.laurent import BiLaurent, Q, U_CHART, V_CHART

_TOKEN = re.compile(
    r"""
    (?P<space>[\ \t]+)
    | (?P<rat>\d+(?:/\d+)?)
    | (?P<var>xi|z|u|v)(?:\^(?P<exp>-?\d+))?
    | (?P<op>[+\-*])
    """,
    re.VERBOSE | re.ASCII,  # \d is 0-9 only, not every script's digits
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
    return BiLaurent([((z, u), c) for c, z, u in terms], tag)
