"""Seeded operation streams and their oracles, one stream per workload.

An op is one library or CLI call on one generated input.  ``Op.call`` is
what the timed loop runs; ``Op.check`` is the oracle, run after the timed
part on the value ``call`` returned, and returns ``None`` or the reason the
answer is wrong.  Oracles here are independent of the code under test where
that is possible: closed forms, the committed golden table, and evaluation
at rational points with plain ``Fraction`` arithmetic.

Each stream is infinite and depends only on the seed; a run takes the first
``Workload.list_size`` ops of it.  Where op cost depends strongly on the
shape of an input (twist, tau pattern, matrix span), the shape is fixed by
the op's position in a repeating cycle and the seed picks the values; that
keeps the cost of a run steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import localsurfaces as ls
import localsurfaces.cli  # noqa: F401  (binds ls.cli)

Q = Fraction

UNITS = (Q(1), Q(-1))
SMALL_RATIONALS = tuple(
    Q(p, q) for p, q in ((1, 2), (-1, 2), (2, 3), (-2, 3), (3, 2), (-3, 2), (1, 3), (-1, 3))
)
COEFFS = (Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-2, 3), Q(3, 4), Q(-5, 2))


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, Path], Iterator[Op]]
    # A run measures the first list_size ops of the stream, round after
    # round; sized so that one round takes 3 to 10 s at the seed commit.
    list_size: int


# -- shared closed forms -----------------------------------------------------

def h1_closed_form(k: int, n: int) -> int:
    """dim H^1(Z_k, O(-n)) = (m+1)(2n-km-2)/2, m = floor((n-2)/k)."""
    if n < 2:
        return 0
    m = (n - 2) // k
    return (m + 1) * (2 * n - k * m - 2) // 2


def h1_basis_monomials(k: int, n: int) -> list[tuple[int, int]]:
    """Exponents (l, i) of the normal-form basis z^l u^i of H^1(Z_k, O(-n)):
    i <= m and ik - n + 1 <= l <= -1."""
    if n < 2:
        return []
    m = (n - 2) // k
    return [(l, i) for i in range(m + 1) for l in range(i * k - n + 1, 0)]


def p1_split_closed_form(a: int, b: int, coeff: Q, e: int) -> tuple[int, int]:
    """Splitting type of [[z^a, c z^e], [0, z^b]] on the projective line: the
    class z^e survives iff b < e < a, and then balances the bundle to
    O(-e) + O(e-a-b)."""
    if coeff == 0 or e >= a or e <= b:
        pair = (-a, -b)
    else:
        pair = (-e, e - a - b)
    return max(pair), min(pair)


def evaluate(poly: ls.BiLaurent, x: Q, y: Q) -> Q:
    return sum((c * x ** l * y ** i for (l, i), c in poly.items()), Q(0))


def random_class(rng: random.Random, k: int, n: int, min_u: int = 0) -> ls.BiLaurent:
    """A random rational combination of every closed-form H^1(Z_k, O(-n))
    basis monomial with u-exponent >= min_u."""
    return ls.BiLaurent(
        {(l, i): rng.choice(COEFFS) for l, i in h1_basis_monomials(k, n) if i >= min_u}
    )


def tau_values(rng: random.Random, pattern: str) -> list[Q]:
    """One tau coefficient per pattern letter: 'u' unit, 'r' small rational,
    '0' zero."""
    pick = {"u": lambda: rng.choice(UNITS), "r": lambda: rng.choice(SMALL_RATIONALS)}
    return [pick[c]() if c in pick else Q(0) for c in pattern]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _expect(got, want) -> Optional[str]:
    return None if got == want else f"expected {want!r}, got {got!r}"


# -- golden-grid -------------------------------------------------------------

def golden_rows(root: Path) -> list[dict]:
    path = root / "golden" / "h1_table.jsonl"
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _line_bundle_op(label: str, k: int, tau: list[Q], n: int, want_dim: int,
                    closed_form: Optional[int]) -> Op:
    def call():
        result = ls.h1_line_bundle(ls.surface(k, tau), n)
        return result.dimension, result.stabilized

    def check(out) -> Optional[str]:
        dim, stabilized = out
        if not stabilized:
            return "result not stabilized"
        if closed_form is not None and dim != closed_form:
            return f"closed form gives {closed_form}, got {dim}"
        return _expect(dim, want_dim)

    return Op(label, call, check)


def golden_grid_ops(seed: int, root: Path) -> Iterator[Op]:
    """Every row of the committed golden table, one h1_line_bundle call each,
    in a fresh seeded order on every pass."""
    rng = random.Random(seed)
    rows = golden_rows(root)
    while True:
        for row in rng.sample(rows, len(rows)):
            k, n = row["k"], row["n"]
            tau = [Q(t) for t in row["tau"]]
            undeformed = not any(tau)
            yield _line_bundle_op(
                f"h1 k={k} n={n} tau={_csv(row['tau'])}",
                k, tau, n, row["dim"],
                h1_closed_form(k, n) if undeformed else None,
            )


# -- deformed-deep -----------------------------------------------------------

# (k, n, tau pattern): large twists on nontrivial deformations, mixing unit
# and rational tau, one dense pattern; each takes roughly 0.2-0.7 s.
DEEP_CELLS = (
    (2, 14, "u"),
    (3, 10, "r0"),
    (4, 10, "u00"),
    (3, 10, "0u"),
    (2, 12, "r"),
    (4, 9, "00r"),
    (3, 6, "ur"),
)


def deformed_deep_ops(seed: int, root: Path) -> Iterator[Op]:
    """Deformed line-bundle H^1 at large twist; nontrivial Z_k(tau) is
    affine, so every answer is dim 0, stabilized."""
    rng = random.Random(seed)
    for k, n, pattern in itertools.cycle(DEEP_CELLS):
        tau = tau_values(rng, pattern)
        yield _line_bundle_op(
            f"h1 k={k} n={n} tau={_csv(tau)}", k, tau, n, 0, None
        )


# -- p1-splitting ------------------------------------------------------------

# The cost of splitting_type_p1 grows with the matrix span max(|a|, |b|, |e|)
# (every entry counts), so the span is fixed by the op's place in the cycle.
P1_SPANS = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6)
# (k, j) of the zero-section ops in a cycle: j >= (k + 2) / 2, so that
# H^1(Z_k, O(-2j)) has classes with u >= 1.
P1_ZERO_SECTION = ((1, 3), (3, 4))
P1_CYCLE_LEN = len(P1_SPANS) + len(P1_ZERO_SECTION) + 3


def _split_type_op(rng: random.Random, span: int) -> Op:
    """[[z^a, c z^e], [0, z^b]] with max(|a|, |b|) = span and |e| <= span."""
    a, b, e = (rng.randint(-span, span) for _ in range(3))
    if rng.random() < 0.5:
        a = rng.choice((span, -span))
    else:
        b = rng.choice((span, -span))
    coeff = rng.choice((Q(0),) + COEFFS)
    nil = ls.BiLaurent.zero()
    off = ls.BiLaurent.term(coeff, e, 0) if coeff else nil
    T = ls.PolyMatrix([[ls.BiLaurent.term(1, a, 0), off], [nil, ls.BiLaurent.term(1, b, 0)]])
    want = p1_split_closed_form(a, b, coeff, e)
    return Op(
        f"split-type a={a} b={b} c={coeff} e={e}",
        lambda: ls.splitting_type_p1(T),
        lambda out: _expect(out, want),
    )


def _zero_section_op(rng: random.Random, k: int, j: int) -> Op:
    """Restriction of a splitting-type-j extension of Z_k to the zero section.
    sigma has every u >= 1 basis class, which the restriction kills, and
    half the time one u = 0 class z^l, which survives as z^(j+l)."""
    sigma = random_class(rng, k, 2 * j, min_u=1)
    want = (j, -j)
    if rng.random() < 0.5:
        l, coeff = rng.randint(1 - 2 * j, -1), rng.choice(COEFFS)
        sigma = sigma + ls.BiLaurent.term(coeff, l, 0)
        want = p1_split_closed_form(j, -j, coeff, j + l)

    def call():
        bundle = ls.extension_to_transition(ls.ExtensionClass(j, sigma))
        return ls.splitting_type_p1(ls.restrict_to_zero_section(bundle, ls.surface(k)))

    return Op(f"zero-section k={k} j={j} sigma={sigma}", call, lambda out: _expect(out, want))


def _hirzebruch_op(k: int) -> Op:
    def call():
        report = ls.hirzebruch_embed_check(k)
        return report.all_zero, report.overlap_consistent, len(report.x), len(report.y)

    return Op(f"hirzebruch k={k}", call, lambda out: _expect(out, (True, True, k + 2, k + 2)))


def _integrability_op(rng: random.Random, k: int) -> Op:
    """integrability_analysis of s1 z^(k-1) u + sum s0_l z^l: a u-term is not
    a Jacobian, z^-1 has no antiderivative, and otherwise
    tau_i = s0_(i-1) / i."""
    s1 = rng.choice((Q(0),) * 3 + COEFFS[:1])
    s0 = {l: rng.choice(COEFFS) for l in range(-1, k) if rng.random() < 0.4}
    if rng.random() < 0.6:
        s0.pop(-1, None)
    cls = ls.TangentExtensionClass(k, s1, s0)
    tau = tuple(s0.get(i - 1, Q(0)) / i for i in range(1, k))
    if s1:
        want = ("NotAJacobian", (Q(0),) * (k - 1), Q(0))
    elif s0.get(-1):
        want = ("NotIntegrable", (Q(0),) * (k - 1), Q(0))
    else:
        verdict = "NontrivialDeformation" if any(tau) else "TrivialFamily"
        want = (verdict, tau, s0.get(k - 1, Q(0)) / k)

    def call():
        report = ls.integrability_analysis(k, cls)
        return report.verdict.value, report.tau, report.t_k

    return Op(f"integrate k={k} sigma={cls.poly()}", call, lambda out: _expect(out, want))


def _deform_op(rng: random.Random, k: int) -> Op:
    tau = [rng.choice(COEFFS) if rng.random() < 0.5 else Q(0) for _ in range(k - 1)]
    tau[rng.randrange(k - 1)] = rng.choice(COEFFS)
    tau_poly = ls.BiLaurent({(i, 0): t for i, t in enumerate(tau, start=1)})
    want = (k, tuple(tau))

    def call():
        rebuilt = ls.deform_by_cocycle(k, tau_poly)
        return rebuilt.k, rebuilt.tau

    return Op(f"deform k={k} tau={tau_poly}", call, lambda out: _expect(out, want))


def p1_splitting_ops(seed: int, root: Path) -> Iterator[Op]:
    """Each cycle: ten splitting types, two zero-section restrictions, and
    one each of the symbolic checks at k = 2, 3, ..., 12 in turn."""
    rng = random.Random(seed)
    for cycle in itertools.count():
        for span in P1_SPANS:
            yield _split_type_op(rng, span)
        for k, j in P1_ZERO_SECTION:
            yield _zero_section_op(rng, k, j)
        k = 2 + cycle % 11
        yield _hirzebruch_op(k)
        yield _integrability_op(rng, k)
        yield _deform_op(rng, k)


# -- cli-certify -------------------------------------------------------------

class OracleFailure(Exception):
    pass


class Schemas:
    """JSON-schema validators for the CLI payloads, loaded on first use from
    the package's own schema directory."""

    def __init__(self, root: Path):
        self._dir = root / "src" / "localsurfaces" / "schemas"
        self._validators: dict = {}

    def validate(self, name: str, doc: dict) -> None:
        import jsonschema

        if name not in self._validators:
            schema = json.loads((self._dir / f"{name}.schema.json").read_text())
            self._validators[name] = jsonschema.Draft7Validator(schema)
        errors = list(self._validators[name].iter_errors(doc))
        if errors:
            raise OracleFailure(f"{name} schema: {errors[0].message}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ls.cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue()


def _surface_args(k: int, tau: list[Q]) -> list[str]:
    return [f"--k={k}", f"--tau={_csv(tau)}"]


def _holomorphic(poly: ls.BiLaurent) -> bool:
    return all(l >= 0 for (l, _), _ in poly.items())


def _rational_points(rng: random.Random) -> list[tuple[Q, Q]]:
    pick = (Q(2, 3), Q(-3, 2), Q(5, 7), Q(-1, 4), Q(3))
    return [(rng.choice(pick), rng.choice(pick)) for _ in range(2)]


def _v_at(k: int, tau: list[Q], z: Q, u: Q) -> Q:
    """The glue coordinate v = z^k u + tau(z), evaluated."""
    return z ** k * u + sum((t * z ** i for i, t in enumerate(tau, start=1)), Q(0))


def _cli_op(kind: str, label: str, argv: list[str], schemas: Schemas,
            verify: Callable[[dict], None]) -> Op:
    schema = kind.replace("-", "_")

    def check(out) -> Optional[str]:
        code, stdout = out
        if code != 0:
            return f"exit code {code}: {stdout.strip()[:200]}"
        try:
            doc = json.loads(stdout)
            schemas.validate(schema, doc)
            verify(doc)
        except (OracleFailure, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return Op(f"{kind} {label}", lambda: run_cli([kind] + argv), check)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleFailure(message)


def _certify_trivial_op(rng, schemas, k, n, pattern) -> Op:
    """certify-trivial on Z_k(tau): re-check sigma = f_U + z^-n to_U(f_V) +
    residual exactly and by evaluation at rational points."""
    tau = tau_values(rng, pattern)
    s = ls.surface(k, tau)
    sigma = random_class(rng, k, n)
    points = _rational_points(rng)

    def verify(doc):
        _require(doc["sigma"] == str(sigma), f"sigma echoed as {doc['sigma']}")
        _require((doc["k"], doc["n"]) == (k, n), "k/n echo")
        f_u = ls.parse_poly(doc["f_U"])
        f_v = ls.parse_poly(doc["f_V"], ls.V_CHART)
        residual = ls.parse_poly(doc["residual"])
        window = ls.Window(**doc["window"])
        _require(_holomorphic(f_u), f"f_U not U-holomorphic: {f_u}")
        _require(_holomorphic(f_v), f"f_V not V-holomorphic: {f_v}")
        _require(doc["exact"] == residual.is_zero, "exact flag disagrees with residual")
        _require(not any(window.contains(m) for m in residual.support),
                 "residual has in-window terms")
        twist = ls.BiLaurent.term(1, -n, 0)
        _require(sigma == f_u + twist * ls.to_U_coords(f_v, s) + residual,
                 "sigma != f_U + z^-n to_U(f_V) + residual")
        for z, u in points:
            rhs = (evaluate(f_u, z, u) + z ** -n * evaluate(f_v, 1 / z, _v_at(k, tau, z, u))
                   + evaluate(residual, z, u))
            _require(evaluate(sigma, z, u) == rhs, f"identity fails at z={z}, u={u}")

    argv = _surface_args(k, tau) + [f"--n={n}", f"--sigma={sigma}"]
    return _cli_op("certify-trivial", f"k={k} n={n} tau={_csv(tau)}", argv, schemas, verify)


def _eval_matrix(rows, z: Q, u: Q) -> list[list[Q]]:
    return [[evaluate(p, z, u) for p in row] for row in rows]


def _matmul2(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)] for i in range(2)]


def _certify_split_op(rng, schemas, k, j, pattern) -> Op:
    """certify-split on Z_k(tau): check A_V T A_U^-1 == diag(z^j, z^-j)
    exactly and by evaluation, with unipotent A_U, A_V holomorphic on their
    charts."""
    tau = tau_values(rng, pattern)
    s = ls.surface(k, tau)
    sigma = random_class(rng, k, 2 * j)
    points = _rational_points(rng)
    z_j, z_mj = ls.BiLaurent.term(1, j, 0), ls.BiLaurent.term(1, -j, 0)
    T = [[z_j, z_j * sigma], [ls.BiLaurent.zero(), z_mj]]

    def verify(doc):
        cert = doc["certificate"]
        _require(doc["splitting_type"] == [j, -j], "splitting type")
        _require((doc["j"], doc["k"], doc["tau"]) == (j, k, [str(t) for t in tau]), "echo")
        _require(cert["exact"] is True, "certificate not exact")
        _require((cert["det_A_U"], cert["det_A_V"]) == ("1", "1"), "determinants")
        a_u = [[ls.parse_poly(x) for x in row] for row in cert["A_U"]]
        a_v = [[ls.parse_poly(x, ls.V_CHART) for x in row] for row in cert["A_V"]]
        target = [[ls.parse_poly(x) for x in row] for row in cert["target"]]
        _require(target == [[z_j, 0], [0, z_mj]], "target is not diag(z^j, z^-j)")
        for a, name in ((a_u, "A_U"), (a_v, "A_V")):
            _require(a[0][0] == 1 and a[1][1] == 1 and a[1][0] == 0, f"{name} not unipotent")
            _require(_holomorphic(a[0][1]), f"{name} not holomorphic on its chart")
        one, nil = ls.BiLaurent.const(1), ls.BiLaurent.zero()
        a_u_inv = [[one, -a_u[0][1]], [nil, one]]
        a_v_in_u = ls.PolyMatrix([[ls.to_U_coords(p, s) for p in row] for row in a_v])
        product = a_v_in_u @ ls.PolyMatrix(T) @ ls.PolyMatrix(a_u_inv)
        _require(product == ls.PolyMatrix(target), "A_V T A_U^-1 != target")
        for z, u in points:
            v = _v_at(k, tau, z, u)
            av = [[evaluate(p, 1 / z, v) for p in row] for row in a_v]
            got = _matmul2(_matmul2(av, _eval_matrix(T, z, u)), _eval_matrix(a_u_inv, z, u))
            _require(got == _eval_matrix(target, z, u), f"identity fails at z={z}, u={u}")

    argv = _surface_args(k, tau) + [f"--j={j}", f"--sigma={sigma}"]
    return _cli_op("certify-split", f"k={k} j={j} tau={_csv(tau)}", argv, schemas, verify)


def _charge_op(rng, schemas, k, j, pattern) -> Op:
    """charge of a rank-2 extension on Z_k(tau): R^1 vanishes on a
    nontrivial deformation."""
    tau = tau_values(rng, pattern)
    sigma = random_class(rng, k, 2 * j)

    def verify(doc):
        _require((doc["j"], doc["k"]) == (j, k), "echo")
        _require(doc["r1_dim"] == 0, f"r1_dim {doc['r1_dim']} on a deformed surface")
        _require(doc["q_dim"] == "unsupported", "q_dim")
        _require(doc["splitting_ok"] == (j % k == 0), "splitting_ok")
        _require(doc["stabilized"] is True, "not stabilized")

    argv = _surface_args(k, tau) + [f"--j={j}", f"--sigma={sigma}"]
    return _cli_op("charge", f"k={k} j={j} tau={_csv(tau)}", argv, schemas, verify)


def _normal_form_op(rng, schemas, k, n) -> Op:
    """normal-form on Z_k of a basis class plus a U-holomorphic part: the
    U-holomorphic part is a coboundary, the basis monomials are not."""
    cls = random_class(rng, k, n)
    extra = ls.BiLaurent({(rng.randint(0, 4), rng.randint(0, 2)): rng.choice(COEFFS)
                          for _ in range(3)})
    sigma = cls + extra

    def verify(doc):
        _require(doc["input"] == str(sigma), "input echo")
        _require((doc["k"], doc["n"]) == (k, n), "k/n echo")
        _require(ls.Window(**doc["window"]).covers(sigma), "window misses sigma")
        _require(ls.parse_poly(doc["normal_form"]) == cls,
                 f"normal form {doc['normal_form']} != {cls}")
        _require(doc["is_zero"] == cls.is_zero, "is_zero")

    argv = [f"--k={k}", f"--n={n}", f"--sigma={sigma}"]
    return _cli_op("normal-form", f"k={k} n={n}", argv, schemas, verify)


def _h0_op(rng, schemas, k, n_range) -> Op:
    """h0 of O(n) on Z_k: the window sections are the monomials z^a u^b with
    a <= n + k b."""
    n = rng.randint(*n_range)

    def verify(doc):
        _require((doc["k"], doc["n"]) == (k, n), "k/n echo")
        w = doc["window"]
        want = {
            (a, b)
            for a in range(w["max_z"] + 1)
            for b in range(w["max_u"] + 1)
            if a <= n + k * b
        }
        _require(doc["dim"] == len(want), f"dim {doc['dim']} != {len(want)}")
        got = set()
        for text in doc["basis"]:
            unit = ls.parse_poly(text).as_unit_monomial()
            _require(unit is not None and unit[0] == 1, f"basis element {text}")
            got.add((unit[1], unit[2]))
        _require(got == want, "basis monomials differ from the criterion")

    return _cli_op("h0", f"k={k} n={n}", [f"--k={k}", f"--n={n}"], schemas, verify)


# Per-cycle cells: (k, n, tau pattern), (k, j, tau pattern), (k, n) and
# (k, n range).  The charges are the slowest queries (0.1 to 0.6 s) and set
# op_tail_ms; normal-form and h0 take a few milliseconds.
CLI_CELLS = (
    [(_certify_trivial_op, cell) for cell in
     ((2, 4, "u"), (2, 5, "r"), (3, 5, "u0"), (3, 6, "0r"), (4, 6, "u00"), (2, 6, "u"))],
    [(_certify_split_op, cell) for cell in
     ((2, 1, "u"), (2, 2, "r"), (3, 2, "u0"), (4, 2, "00u"), (3, 1, "0r"))],
    [(_charge_op, cell) for cell in
     ((2, 1, "u"), (3, 1, "u0"), (3, 2, "0u"), (3, 3, "u0"))],
    [(_normal_form_op, cell) for cell in ((1, 4), (2, 5), (3, 8), (4, 9), (2, 7))],
    [(_h0_op, cell) for cell in ((2, (1, 4)), (3, (-2, 3)), (4, (2, 6)), (1, (0, 3)))],
)
# One cycle interleaves the five query kinds.
CLI_CYCLE = tuple(
    item for group in itertools.zip_longest(*CLI_CELLS) for item in group if item
)


def cli_certify_ops(seed: int, root: Path) -> Iterator[Op]:
    rng = random.Random(seed)
    schemas = Schemas(root)
    for make, cell in itertools.cycle(CLI_CYCLE):
        yield make(rng, schemas, *cell)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("golden-grid", golden_grid_ops, 99),
        Workload("deformed-deep", deformed_deep_ops, 4 * len(DEEP_CELLS)),
        Workload("cli-certify", cli_certify_ops, 4 * len(CLI_CYCLE)),
        Workload("p1-splitting", p1_splitting_ops, 22 * P1_CYCLE_LEN),
    )
}
