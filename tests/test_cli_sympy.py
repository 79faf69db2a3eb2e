"""The CLI's polynomial text read by sympy, which shares no code with
localsurfaces: the certify-trivial identity of every corpus argv that exits
0, checked in Q[z, u], every echoed sigma or input, and the Hirzebruch
charts of hirzebruch-check, checked in Q[z, u, t] and Q[xi, v, t]."""

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


def test_hirzebruch_text_rechecks_in_sympy():
    # hirzebruch_embed_check builds and checks its charts on ParamPoly and
    # BiLaurent alone.  Here the printed x and y are read into
    # Q[z, u, t] and Q[xi, v, t] and checked against the formulas of its
    # docstring, the k defining equations on each chart, and the overlap:
    # y_j(1/z, z^k u + tau) = x_j, both sides times z^M.
    with corpus_environment():
        for k in range(2, 9):
            code, out, _ = run(["hirzebruch-check", "--k", str(k)])
            assert code == 0
            doc = json.loads(out)
            names = ",".join(f"t{i}" for i in range(1, k))
            ru, z, u, *tu = ring(f"z,u,{names}", sympy.QQ)
            rv, xi, v, *tv = ring(f"xi,v,{names}", sympy.QQ)
            x = [read_in(ru, text) for text in doc["x"]]
            y = [read_in(rv, text) for text in doc["y"]]
            t_u = [ru.zero, *tu] + [ru.zero] * (k + 1)  # t_i = 0 for i >= k
            t_v = [rv.zero, *tv] + [rv.zero] * (k + 1)
            assert x == [ru.one] + [
                z ** (k - n) * u
                + sum((t_u[i] * z ** (i - n) for i in range(n + 1, k)), ru.zero)
                for n in range(k + 1)
            ]
            assert y == [rv.one] + [
                xi ** n * v
                - sum((t_v[i] * xi ** (n - i) for i in range(1, n + 1)), rv.zero)
                for n in range(k + 1)
            ]
            # z_0 x_n = z_1 (x_{n+1} + t_n x_0), n < k, and z_0 x_k = z_1 x_{k+1},
            # with (z_0, z_1) = (1, z) on U and (xi, 1) on V
            for n in range(1, k):
                assert x[n] == z * (x[n + 1] + t_u[n] * x[0])
                assert xi * y[n] == y[n + 1] + t_v[n] * y[0]
            assert x[k] == z * x[k + 1] and xi * y[k] == y[k + 1]
            glue = z ** k * u + sum((t_u[i] * z ** i for i in range(1, k)), ru.zero)
            m = k + 1
            for xj, yj in zip(x, y):
                rewritten = ru.zero
                for (a, b, *exps), c in yj.terms():
                    term = c * z ** (m - a) * glue ** b
                    for t_i, e in zip(tu, exps):
                        term *= t_i ** e
                    rewritten += term
                assert rewritten == z ** m * xj
            assert doc["overlap_consistent"] and doc["all_zero"]
            assert {*doc["residuals_u"], *doc["residuals_v"]} == {"0"}
