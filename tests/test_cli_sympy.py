"""The CLI's polynomial text read by sympy, which shares no code with
localsurfaces: the certify-trivial identity of every corpus argv that exits
0, checked in Q[z, u], and every echoed sigma or input."""

import json

import pytest

from argv_corpus import corpus, corpus_environment, run

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    parse_expr,
    standard_transformations,
)
from sympy.polys.rings import ring  # noqa: E402

SYMBOLS = {name: sympy.Symbol(name) for name in ("z", "u", "xi", "v")}
TRANSFORMATIONS = standard_transformations + (convert_xor,)
# The names the transformed text calls.  Without a global_dict, parse_expr
# runs "from sympy import *" on every call.
GLOBALS = {"Integer": sympy.Integer, "Symbol": sympy.Symbol}
R, Z, U = ring("z,u", sympy.QQ)
RV, XI, V = ring("xi,v", sympy.QQ)


def read(text):
    """text as a sympy expression, by sympy's parser alone."""
    return parse_expr(text, local_dict=dict(SYMBOLS), global_dict=dict(GLOBALS),
                      transformations=TRANSFORMATIONS)


class Literal(int):
    """An integer of the text whose / is exact in QQ."""

    def __truediv__(self, other):
        return sympy.QQ(int(self), int(other))

    def __rtruediv__(self, other):
        return sympy.QQ(int(other), int(self))


def read_in(poly_ring, text):
    """Polynomial text as an element of poly_ring, by sympy's parser with
    the ring's generators for its variables.  This skips the sympy
    expression that read builds, whose sums of many terms took 1.8 s of
    this test, and a negative exponent raises."""
    names = {str(gen): gen for gen in poly_ring.gens}
    return poly_ring(parse_expr(text, local_dict=names, global_dict={"Integer": Literal},
                                transformations=TRANSFORMATIONS))


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def certifies(argv, doc, sigma) -> bool:
    """sigma = f_U + z^-n * f_V(1/z, z^k u + tau) for the argv's k, n and
    tau, sigma read from the argv and the printed f_U and f_V, with both
    sides times z^M in Q[z, u], M large enough that no negative power of z
    is left."""
    z = SYMBOLS["z"]
    k, n = int(flag(argv, "--k")), int(flag(argv, "--n"))
    if flag(argv, "--tau-poly") is not None:
        tau = read_in(R, flag(argv, "--tau-poly"))
    else:
        entries = (flag(argv, "--tau") or "").split(",")
        tau = sum((read_in(R, t.strip()) * Z ** i
                   for i, t in enumerate(entries, 1) if t.strip()), R.zero)
    f_u, f_v = read_in(R, doc["f_U"]), read_in(RV, doc["f_V"])
    lowest = min(int(term.as_powers_dict().get(z, 0)) for term in sympy.Add.make_args(sigma))
    m = max(0, -lowest, n + max(f_v.degree(XI), 0))
    glue = Z ** k * U + tau
    rhs = f_u * Z ** m
    for (a, b), c in f_v.terms():
        rhs += c * Z ** (m - n - a) * glue ** b
    return R.from_expr(sympy.expand(sigma * z ** m)) == rhs


def test_cli_text_rechecks_in_sympy():
    # The library's printer made the pinned hashes, and the benchmark's
    # oracle reads stdout with the library's parse_poly, so a fault that
    # parse and print share passes both.  Here sympy reads the argvs and
    # the printed polynomials: every certify-trivial certificate that exits
    # 0 satisfies its identity in Q[z, u], and every echoed sigma or input
    # equals the argv's sigma (sympy sums like terms, so equal polynomials
    # read as equal trees).
    certified = echoed = 0
    with corpus_environment():
        for argv in corpus():
            if not argv or "--sigma" not in argv:
                continue
            code, out, _ = run(argv)
            if code != 0:
                continue
            doc = json.loads(out)
            sigma = read(flag(argv, "--sigma"))
            for key in ("sigma", "input"):
                if key in doc:
                    assert read(doc[key]) == sigma, (argv, doc[key])
                    echoed += 1
            if argv[0] == "certify-trivial":
                assert certifies(argv, doc, sigma), (argv, doc)
                certified += 1
    assert certified > 250 and echoed > 600
