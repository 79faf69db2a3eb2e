"""Command-line front end: one subcommand per pipeline, JSON on stdout.

Exit codes separate mathematical negatives from usage problems:

* 0 -- success, schema-conformant JSON on stdout;
* 1 -- mathematical failure (NotTrivial, NotApplicable, ...) with a
  machine-readable error object on stdout;
* 2 -- usage error (bad flags, malformed input), reported on stderr as a
  "usage error:" line.

Stdout is deterministic: canonical JSON key order and canonical polynomial
printing, so identical invocations are byte-identical.  The window flags
--max-z/--max-u exist only on h0, whose sections are counted in a window;
sections are U-holomorphic, so those two bound them, and the echoed min_z
is the default window's.  h1 grows the default window by a fixed policy on
tau = 0 and proves H^1 = 0 without one on tau != 0, echoing the window (see
cech); normal-form and certify-trivial use no window (normal-form is 0 on
tau != 0, see cech) and echo the default window around sigma; charge and
tangent compute h^1 exactly from an extension sequence of line bundles and
echo no window (see bundles.charge_report and deformation.tangent_h1); so
nothing in the environment changes a result.
The parser is built on the first main call and reused by every later call
in the process; parsing keeps no state between calls, so every call parses
its argv as a first call would.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .bundles import (
    ExtensionClass,
    charge_report,
    extension_to_transition,
    moduli_dimension,
    restrict_to_zero_section,
    split_certificate,
    splitting_type_p1,
)
from .cech import (
    Window,
    default_window,
    h0_basis,
    h1_line_bundle,
    normal_form,
    triviality_certificate,
)
from .deformation import (
    TangentExtensionClass,
    deform_by_cocycle,
    ext_basis_tangent,
    family_and_ks,
    hirzebruch_embed_check,
    integrability_analysis,
    tangent_h1,
)
from .errors import BadCocycleSupport, LocalSurfacesError
from .laurent import RAT, SP, BiLaurent, Q, V_CHART, parse_poly
from .polymatrix import PolyMatrix
from .surface import SurfaceSpec, surface

GOLDEN_KS = range(1, 6)
GOLDEN_NS = range(0, 11)


class _Parser(argparse.ArgumentParser):
    """Reports flag errors as "usage error: ..." like every other usage
    error of the CLI (exit 2), and reads an argument that starts with a
    minus sign and then a digit or a variable name as a value, the way
    argparse reads "-3": a negative rational list ("-3/4", "-1/2,1") or
    polynomial ("-z^-1", "-3*z^-1", "-xi"); no flag of the CLI looks like
    one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|xi|[zuv])")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"usage error: {message}\n")


def _int(text: str) -> int:
    """argparse type: an integer in ASCII digits.  int() alone also reads
    the digits of other scripts and underscores ("1_0" is 10)."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its messages


def _int_at_least(low: int):
    """argparse type: an integer >= low, in ASCII digits."""

    def parse(text: str) -> int:
        value = _int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)
_family_k = _int_at_least(2)


_RATIONAL = re.compile(rf"{SP}([+-]?{RAT}){SP}", re.ASCII)


def _rational(text: str) -> Fraction:
    """argparse type: a signed rational p or p/q of the polynomial grammar,
    blanks around it allowed; no decimal point, exponent or underscore.
    The Fraction is built from the int digits the grammar matched."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")
    num, _, den = match[1].partition("/")
    den = int(den) if den else 1
    if not den:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


def _rational_list(text: str) -> list[Fraction]:
    if not text.strip():
        return []
    return [_rational(piece) for piece in text.split(",")]


def _poly(text: str) -> BiLaurent:
    """argparse type: a polynomial in the (z, u) alphabet; the (xi, v)
    alphabet names V-chart functions, which no flag takes."""
    try:
        poly = parse_poly(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if poly.tag == V_CHART:
        raise argparse.ArgumentTypeError(
            f"{text!r} uses the V-chart variables xi, v; write it in z, u"
        )
    return poly


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fail(kind: str, message: str) -> int:
    _emit({"error": {"type": kind, "message": message}})
    print(f"error: {kind}: {message}", file=sys.stderr)
    return 1


def _surface_from_args(args) -> SurfaceSpec:
    k = args.k
    tau = [Q(0)] * (k - 1)
    given = getattr(args, "tau", None)
    tau_poly = getattr(args, "tau_poly", None)
    if given is not None and tau_poly is not None:
        raise argparse.ArgumentTypeError("--tau and --tau-poly are exclusive")
    if given is not None:
        if len(given) > k - 1:
            raise argparse.ArgumentTypeError(
                f"--tau lists at most t_1..t_{k - 1} for k={k}"
            )
        tau[: len(given)] = given
    elif tau_poly is not None:
        try:
            return surface(k, tau_poly)
        except BadCocycleSupport as exc:
            raise argparse.ArgumentTypeError(f"--tau-poly: {exc}") from None
    return surface(k, tau)


def _add_tau_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau", type=_rational_list, default=None,
                        help="deformation coefficients t_1,t_2,... as "
                             "rationals (missing entries are 0)")
    parser.add_argument("--tau-poly", type=_poly, default=None,
                        help='deformation as a polynomial, e.g. "z + 1/2*z^3"')


def _vector_strings(vec) -> list[str]:
    return [str(component) for component in vec]


def _matrix_strings(matrix: PolyMatrix) -> list[list[str]]:
    return [[str(p) for p in row] for row in matrix.entries]


# -- subcommand handlers -----------------------------------------------------

def _cmd_h1(args) -> int:
    s = _surface_from_args(args)
    result = h1_line_bundle(s, args.n)
    _emit({
        "dim": result.dimension,
        "basis": [str(p) for p in result.basis],
        "k": s.k,
        "n": args.n,
        "tau": [str(t) for t in s.tau],
        "m_row": (args.n - 2) // s.k if args.n >= 2 else None,
        "window": result.window.to_json_dict(),
        "stabilized": result.stabilized,
    })
    return 0


def _cmd_h0(args) -> int:
    s = _surface_from_args(args)
    base = default_window(s, abs(args.n))
    window = Window(
        base.min_z,
        base.max_z if args.max_z is None else args.max_z,
        base.max_u if args.max_u is None else args.max_u,
    )
    result = h0_basis(s, args.n, window)
    _emit({
        "dim": result.dimension,
        "basis": [str(p) for p in result.basis],
        "k": s.k,
        "n": args.n,
        "tau": [str(t) for t in s.tau],
        "window": result.window.to_json_dict(),
        "stabilized": result.stabilized,
    })
    return 0


def _sigma_window(s: SurfaceSpec, n: int, sigma: BiLaurent) -> dict:
    """The window echo of normal-form and certify-trivial: the default
    window of O(-n), enlarged to contain sigma."""
    return default_window(s, n).hull([sigma]).to_json_dict()


def _cmd_normal_form(args) -> int:
    s = _surface_from_args(args)
    reduced = normal_form(args.sigma, s, args.n)
    _emit({
        "input": str(args.sigma),
        "normal_form": str(reduced),
        "is_zero": reduced.is_zero,
        "k": s.k,
        "n": args.n,
        "window": _sigma_window(s, args.n, args.sigma),
    })
    return 0


def _cmd_certify_trivial(args) -> int:
    s = _surface_from_args(args)
    cert = triviality_certificate(args.sigma, s, args.n)
    # The certificate is exact: sigma = f_U + z^-n * (f_V in U-coords).
    _emit({
        "sigma": str(args.sigma),
        "f_U": str(cert.f_U),
        "f_V": str(cert.f_V),
        "residual": "0",
        "exact": True,
        "k": s.k,
        "n": args.n,
        "window": _sigma_window(s, args.n, args.sigma),
    })
    return 0


def _cmd_tangent(args) -> int:
    result = tangent_h1(args.k)
    _emit({
        "dim": result.dimension,
        "basis": [_vector_strings(vec) for vec in result.basis],
        "k": args.k,
        "stabilized": result.stabilized,
    })
    return 0


def _cmd_ext_basis(args) -> int:
    ext, h1b = ext_basis_tangent(args.k)
    _emit({
        "k": args.k,
        "ext_basis": [str(p) for p in ext],
        "h1_basis": [str(p) for p in h1b],
    })
    return 0


def _cmd_integrate(args) -> int:
    cls = TangentExtensionClass.from_poly(args.k, args.sigma)
    report = integrability_analysis(args.k, cls)
    payload = report.to_json_dict()
    payload.update({"k": args.k, "sigma": str(args.sigma)})
    _emit(payload)
    return 0


def _cmd_family(args) -> int:
    fam, ks = family_and_ks(args.k)
    _emit({
        "k": args.k,
        "base_dim": fam.base_dim,
        "params": list(fam.params),
        "transition": [[str(p) for p in row] for row in fam.transition],
        "ks": {
            f"t{i}": _vector_strings(vec) for i, vec in sorted(ks.items())
        },
    })
    return 0


def _cmd_deform(args) -> int:
    if getattr(args, "tau", None) is None and getattr(args, "tau_poly", None) is None:
        raise argparse.ArgumentTypeError("deform needs --tau or --tau-poly")
    s = _surface_from_args(args)
    rebuilt = deform_by_cocycle(args.k, s.tau_poly())
    _emit({
        "surface": rebuilt.to_json_dict(),
        "verified": rebuilt == s,
    })
    return 0


def _cmd_hirzebruch_check(args) -> int:
    report = hirzebruch_embed_check(args.k)
    _emit({
        "k": args.k,
        "x": [str(p) for p in report.x],
        "y": [str(p) for p in report.y],
        "residuals_u": [str(p) for p in report.residuals_u],
        "residuals_v": [str(p) for p in report.residuals_v],
        "overlap_consistent": report.overlap_consistent,
        "all_zero": report.all_zero,
    })
    return 0


def _cmd_split_type(args) -> int:
    s = _surface_from_args(args)
    bundle = extension_to_transition(ExtensionClass(args.j, args.sigma))
    restricted = restrict_to_zero_section(bundle, s)
    split = splitting_type_p1(restricted)
    _emit({
        "splitting_type": list(split),
        "j": args.j,
        "k": s.k,
        "sigma": str(args.sigma),
    })
    return 0


def _cmd_certify_split(args) -> int:
    s = _surface_from_args(args)
    cert = split_certificate(s, ExtensionClass(args.j, args.sigma))
    # Exact and unipotent by construction (see bundles.SplitCertificate).
    _emit({
        "splitting_type": [args.j, -args.j],
        "certificate": {
            "A_U": _matrix_strings(cert.a_u),
            "A_V": _matrix_strings(cert.a_v),
            "target": _matrix_strings(cert.target),
            "exact": True,
            "det_A_U": "1",
            "det_A_V": "1",
        },
        "j": args.j,
        "k": s.k,
        "tau": [str(t) for t in s.tau],
    })
    return 0


def _cmd_charge(args) -> int:
    s = _surface_from_args(args)
    report = charge_report(s, ExtensionClass(args.j, args.sigma))
    _emit({
        "r1_dim": report.r1_dim,
        "q_dim": report.q_dim,
        "splitting_ok": report.splitting_ok,
        "j": args.j,
        "k": s.k,
        # r1_dim is exact: no window is grown.
        "stabilized": True,
    })
    return 0


def _cmd_moduli_dim(args) -> int:
    _emit({
        "moduli_dim": moduli_dimension(args.j, args.k, deformed=args.deformed),
        "j": args.j,
        "k": args.k,
        "deformed": args.deformed,
    })
    return 0


# -- golden table ------------------------------------------------------------

def _golden_tau_samples(k: int) -> list[list[Fraction]]:
    samples = [[Q(0)] * (k - 1)]
    if k >= 2:
        nonzero = [Q(0)] * (k - 1)
        nonzero[0] = Q(1)
        samples.append(nonzero)
    return samples


def _golden_rows() -> list[dict]:
    rows = []
    for k in GOLDEN_KS:
        for n in GOLDEN_NS:
            for tau in _golden_tau_samples(k):
                s = surface(k, tau)
                result = h1_line_bundle(s, n)
                rows.append({
                    "k": k,
                    "n": n,
                    "tau": [str(t) for t in tau],
                    "dim": result.dimension,
                    "window": result.window.to_json_dict(),
                    "stabilized": result.stabilized,
                    "version": __version__,
                })
    rows.sort(key=lambda r: (r["k"], r["n"], r["tau"]))
    return rows


def _row_line(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def _golden_row_inputs(row, where: str) -> tuple[SurfaceSpec, int, int]:
    """The surface, twist and dim a golden row pins; a usage error unless
    the row is an object with integer k, n and dim and a tau list fitting
    k whose entries are strings that --tau reads."""
    if not (
        isinstance(row, dict)
        and all(type(row.get(key)) is int for key in ("k", "n", "dim"))
        and isinstance(row.get("tau"), list)
        and all(isinstance(t, str) for t in row["tau"])
    ):
        raise argparse.ArgumentTypeError(
            f"{where} is not a golden row (integer k, n, dim and a tau list "
            f"of strings)"
        )
    try:
        tau = [_rational(t) for t in row["tau"]]
        return surface(row["k"], tau), row["n"], row["dim"]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"{where}: {exc}") from None


def _cmd_golden(args) -> int:
    if args.mode == "generate":
        rows = _golden_rows()
        try:
            with open(args.path, "w", encoding="utf-8", newline="\n") as handle:
                for row in rows:
                    handle.write(_row_line(row) + "\n")
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot write {args.path}: {exc}")
        _emit({"written": len(rows), "path": args.path})
        return 0
    # verify
    try:
        with open(args.path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {args.path}: {exc}")
    checked = 0
    for number, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(
                f"{args.path}: row {number} is not JSON: {exc}"
            ) from None
        s, n, dim = _golden_row_inputs(row, f"{args.path}: row {number}")
        result = h1_line_bundle(s, n)
        if result.dimension != dim:
            print(
                f"mismatch at k={row['k']} n={row['n']} tau={row['tau']}: "
                f"table says {row['dim']}, recomputed {result.dimension}",
                file=sys.stderr,
            )
            return _fail(
                "GoldenMismatch",
                f"row (k={row['k']}, n={row['n']}, tau={row['tau']}) "
                f"expected dim {row['dim']} but recomputation gives "
                f"{result.dimension}",
            )
        checked += 1
    _emit({"verified": checked, "path": args.path})
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="localsurfaces",
        description="Exact Cech cohomology, deformations and bundle "
                    "splitting on the two-chart local surfaces Z_k(tau).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("h1", help="dim/basis of H^1(Z_k(tau), O(-n))")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n", type=_int, required=True,
                   help="twist: n=4 computes H^1 of O(-4)")
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_h1)

    p = sub.add_parser("h0", help="window basis of H^0(Z_k(tau), O(n))")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n", type=_int, required=True,
                   help="first Chern class of the bundle")
    _add_tau_flags(p)
    p.add_argument("--max-z", type=_nonnegative_int, default=None,
                   help="window ceiling for z exponents (>= 0)")
    p.add_argument("--max-u", type=_nonnegative_int, default=None,
                   help="window ceiling for u exponents (>= 0)")
    p.set_defaults(handler=_cmd_h0)

    p = sub.add_parser("normal-form",
                       help="normal form of a 1-cocycle in O(-n)")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--sigma", type=_poly, required=True)
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_normal_form)

    p = sub.add_parser("certify-trivial",
                       help="explicit coboundary certificate for a cocycle")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--sigma", type=_poly, required=True)
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_certify_trivial)

    p = sub.add_parser("tangent", help="H^1 of the tangent bundle of Z_k")
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_tangent)

    p = sub.add_parser("ext-basis",
                       help="bases of Ext^1(O(2), O(-k)) and H^1(O(-k-2))")
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_ext_basis)

    p = sub.add_parser("integrate",
                       help="integrability classification of a tangent "
                            "extension class")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--sigma", type=_poly, required=True,
                   help="class s1*z^{k-1}*u + sum s0_l z^l, -1 <= l <= k-1")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("family",
                       help="semiuniversal family and Kodaira-Spencer map")
    p.add_argument("--k", type=_family_k, required=True)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("deform",
                       help="rebuild Z_k(tau) from a tangent cocycle")
    p.add_argument("--k", type=_positive_int, required=True)
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_deform)

    p = sub.add_parser("hirzebruch-check",
                       help="symbolic residuals of the Hirzebruch-family "
                            "embedding")
    p.add_argument("--k", type=_family_k, required=True)
    p.set_defaults(handler=_cmd_hirzebruch_check)

    p = sub.add_parser("split-type",
                       help="splitting type on the zero section")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--j", type=_nonnegative_int, required=True)
    p.add_argument("--sigma", type=_poly, required=True)
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_split_type)

    p = sub.add_parser("certify-split",
                       help="explicit splitting certificate on a deformed "
                            "surface")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--j", type=_nonnegative_int, required=True)
    p.add_argument("--sigma", type=_poly, required=True)
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_certify_split)

    p = sub.add_parser("charge",
                       help="charge bookkeeping for an extension bundle")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--j", type=_nonnegative_int, required=True)
    p.add_argument("--sigma", type=_poly, required=True)
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_charge)

    p = sub.add_parser("moduli-dim",
                       help="documented moduli dimension 2j-k-2 / marker")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--j", type=_nonnegative_int, required=True)
    p.add_argument("--deformed", action="store_true")
    p.set_defaults(handler=_cmd_moduli_dim)

    p = sub.add_parser("golden", help="generate/verify the regression table")
    p.add_argument("mode", choices=["generate", "verify"])
    p.add_argument("--path", required=True)
    p.set_defaults(handler=_cmd_golden)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use rather than at import (a
    process that only imports the CLI builds none)."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LocalSurfacesError as exc:
        return _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
