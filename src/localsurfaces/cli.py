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

Each flag is declared once, as a (name, options) spec, and each subcommand
once, as a row (name, help, handler, flags) of the _COMMANDS table, which
build_parser walks.  A handler returns its JSON payload and writes nothing
to stdout; main alone writes it, through _emit on success and _fail on a
mathematical failure.
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
    given, tau_poly = args.tau, args.tau_poly
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


def _vector_strings(vec) -> list[str]:
    return [str(component) for component in vec]


def _matrix_strings(matrix: PolyMatrix) -> list[list[str]]:
    return [[str(p) for p in row] for row in matrix.entries]


# -- subcommand handlers -----------------------------------------------------

def _cmd_h1(args) -> dict:
    s = _surface_from_args(args)
    result = h1_line_bundle(s, args.n)
    return {
        "dim": result.dimension,
        "basis": [str(p) for p in result.basis],
        "k": s.k,
        "n": args.n,
        "tau": [str(t) for t in s.tau],
        "m_row": (args.n - 2) // s.k if args.n >= 2 else None,
        "window": result.window.to_json_dict(),
        "stabilized": result.stabilized,
    }


def _cmd_h0(args) -> dict:
    s = _surface_from_args(args)
    base = default_window(s, abs(args.n))
    window = Window(
        base.min_z,
        base.max_z if args.max_z is None else args.max_z,
        base.max_u if args.max_u is None else args.max_u,
    )
    result = h0_basis(s, args.n, window)
    return {
        "dim": result.dimension,
        "basis": [str(p) for p in result.basis],
        "k": s.k,
        "n": args.n,
        "tau": [str(t) for t in s.tau],
        "window": result.window.to_json_dict(),
        "stabilized": result.stabilized,
    }


def _sigma_window(s: SurfaceSpec, n: int, sigma: BiLaurent) -> dict:
    """The window echo of normal-form and certify-trivial: the default
    window of O(-n), enlarged to contain sigma."""
    return default_window(s, n).hull([sigma]).to_json_dict()


def _cmd_normal_form(args) -> dict:
    s = _surface_from_args(args)
    reduced = normal_form(args.sigma, s, args.n)
    return {
        "input": str(args.sigma),
        "normal_form": str(reduced),
        "is_zero": reduced.is_zero,
        "k": s.k,
        "n": args.n,
        "window": _sigma_window(s, args.n, args.sigma),
    }


def _cmd_certify_trivial(args) -> dict:
    s = _surface_from_args(args)
    cert = triviality_certificate(args.sigma, s, args.n)
    # The certificate is exact: sigma = f_U + z^-n * (f_V in U-coords).
    return {
        "sigma": str(args.sigma),
        "f_U": str(cert.f_U),
        "f_V": str(cert.f_V),
        "residual": "0",
        "exact": True,
        "k": s.k,
        "n": args.n,
        "window": _sigma_window(s, args.n, args.sigma),
    }


def _cmd_tangent(args) -> dict:
    result = tangent_h1(args.k)
    return {
        "dim": result.dimension,
        "basis": [_vector_strings(vec) for vec in result.basis],
        "k": args.k,
        "stabilized": result.stabilized,
    }


def _cmd_ext_basis(args) -> dict:
    ext, h1b = ext_basis_tangent(args.k)
    return {
        "k": args.k,
        "ext_basis": [str(p) for p in ext],
        "h1_basis": [str(p) for p in h1b],
    }


def _cmd_integrate(args) -> dict:
    cls = TangentExtensionClass.from_poly(args.k, args.sigma)
    payload = integrability_analysis(args.k, cls).to_json_dict()
    payload.update({"k": args.k, "sigma": str(args.sigma)})
    return payload


def _cmd_family(args) -> dict:
    fam, ks = family_and_ks(args.k)
    return {
        "k": args.k,
        "base_dim": fam.base_dim,
        "params": list(fam.params),
        "transition": [[str(p) for p in row] for row in fam.transition],
        "ks": {
            f"t{i}": _vector_strings(vec) for i, vec in sorted(ks.items())
        },
    }


def _cmd_deform(args) -> dict:
    if args.tau is None and args.tau_poly is None:
        raise argparse.ArgumentTypeError("deform needs --tau or --tau-poly")
    s = _surface_from_args(args)
    rebuilt = deform_by_cocycle(args.k, s.tau_poly())
    return {"surface": rebuilt.to_json_dict(), "verified": rebuilt == s}


def _cmd_hirzebruch_check(args) -> dict:
    report = hirzebruch_embed_check(args.k)
    return {
        "k": args.k,
        "x": [str(p) for p in report.x],
        "y": [str(p) for p in report.y],
        "residuals_u": [str(p) for p in report.residuals_u],
        "residuals_v": [str(p) for p in report.residuals_v],
        "overlap_consistent": report.overlap_consistent,
        "all_zero": report.all_zero,
    }


def _cmd_split_type(args) -> dict:
    s = _surface_from_args(args)
    bundle = extension_to_transition(ExtensionClass(args.j, args.sigma))
    restricted = restrict_to_zero_section(bundle, s)
    return {
        "splitting_type": list(splitting_type_p1(restricted)),
        "j": args.j,
        "k": s.k,
        "sigma": str(args.sigma),
    }


def _cmd_certify_split(args) -> dict:
    s = _surface_from_args(args)
    cert = split_certificate(s, ExtensionClass(args.j, args.sigma))
    # Exact and unipotent by construction (see bundles.SplitCertificate).
    return {
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
    }


def _cmd_charge(args) -> dict:
    s = _surface_from_args(args)
    report = charge_report(s, ExtensionClass(args.j, args.sigma))
    return {
        "r1_dim": report.r1_dim,
        "q_dim": report.q_dim,
        "splitting_ok": report.splitting_ok,
        "j": args.j,
        "k": s.k,
        # r1_dim is exact: no window is grown.
        "stabilized": True,
    }


def _cmd_moduli_dim(args) -> dict:
    return {
        "moduli_dim": moduli_dimension(args.j, args.k, deformed=args.deformed),
        "j": args.j,
        "k": args.k,
        "deformed": args.deformed,
    }


# -- golden table ------------------------------------------------------------

class GoldenMismatch(LocalSurfacesError):
    """A golden row whose dim the recomputation does not reproduce."""


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


def _cmd_golden(args) -> dict:
    if args.mode == "generate":
        rows = _golden_rows()
        try:
            with open(args.path, "w", encoding="utf-8", newline="\n") as handle:
                for row in rows:
                    handle.write(_row_line(row) + "\n")
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot write {args.path}: {exc}")
        return {"written": len(rows), "path": args.path}
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
            raise GoldenMismatch(
                f"row (k={row['k']}, n={row['n']}, tau={row['tau']}) "
                f"expected dim {row['dim']} but recomputation gives "
                f"{result.dimension}"
            )
        checked += 1
    return {"verified": checked, "path": args.path}


# -- parser ------------------------------------------------------------------

# One (name, add_argument options) spec per flag.
_K = ("--k", {"type": _positive_int, "required": True})
_FAMILY_K = ("--k", {"type": _family_k, "required": True})
_N = ("--n", {"type": _int, "required": True})
_J = ("--j", {"type": _nonnegative_int, "required": True})
_SIGMA = ("--sigma", {"type": _poly, "required": True})
_TAU = (
    ("--tau", {"type": _rational_list, "help": "deformation coefficients "
               "t_1,t_2,... as rationals (missing entries are 0)"}),
    ("--tau-poly", {"type": _poly, "help": "deformation as a polynomial, "
                    'e.g. "z + 1/2*z^3"'}),
)


def _helped(spec: tuple, text: str) -> tuple:
    """spec with a subcommand's own help text."""
    name, options = spec
    return name, {**options, "help": text}


# One row (name, help, handler, flags) per subcommand, in help order.
_COMMANDS = (
    ("h1", "dim/basis of H^1(Z_k(tau), O(-n))", _cmd_h1,
     (_K, _helped(_N, "twist: n=4 computes H^1 of O(-4)"), *_TAU)),
    ("h0", "window basis of H^0(Z_k(tau), O(n))", _cmd_h0,
     (_K, _helped(_N, "first Chern class of the bundle"), *_TAU,
      ("--max-z", {"type": _nonnegative_int,
                   "help": "window ceiling for z exponents (>= 0)"}),
      ("--max-u", {"type": _nonnegative_int,
                   "help": "window ceiling for u exponents (>= 0)"}))),
    ("normal-form", "normal form of a 1-cocycle in O(-n)", _cmd_normal_form,
     (_K, _N, _SIGMA, *_TAU)),
    ("certify-trivial", "explicit coboundary certificate for a cocycle",
     _cmd_certify_trivial, (_K, _N, _SIGMA, *_TAU)),
    ("tangent", "H^1 of the tangent bundle of Z_k", _cmd_tangent, (_K,)),
    ("ext-basis", "bases of Ext^1(O(2), O(-k)) and H^1(O(-k-2))",
     _cmd_ext_basis, (_K,)),
    ("integrate", "integrability classification of a tangent extension class",
     _cmd_integrate, (_K, _helped(
         _SIGMA, "class s1*z^{k-1}*u + sum s0_l z^l, -1 <= l <= k-1"))),
    ("family", "semiuniversal family and Kodaira-Spencer map", _cmd_family,
     (_FAMILY_K,)),
    ("deform", "rebuild Z_k(tau) from a tangent cocycle", _cmd_deform,
     (_K, *_TAU)),
    ("hirzebruch-check",
     "symbolic residuals of the Hirzebruch-family embedding",
     _cmd_hirzebruch_check, (_FAMILY_K,)),
    ("split-type", "splitting type on the zero section", _cmd_split_type,
     (_K, _J, _SIGMA, *_TAU)),
    ("certify-split", "explicit splitting certificate on a deformed surface",
     _cmd_certify_split, (_K, _J, _SIGMA, *_TAU)),
    ("charge", "charge bookkeeping for an extension bundle", _cmd_charge,
     (_K, _J, _SIGMA, *_TAU)),
    ("moduli-dim", "documented moduli dimension 2j-k-2 / marker",
     _cmd_moduli_dim, (_K, _J, ("--deformed", {"action": "store_true"}))),
    ("golden", "generate/verify the regression table", _cmd_golden,
     (("mode", {"choices": ["generate", "verify"]}),
      ("--path", {"required": True}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="localsurfaces",
        description="Exact Cech cohomology, deformations and bundle "
                    "splitting on the two-chart local surfaces Z_k(tau).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use rather than at import (a
    process that only imports the CLI builds none)."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        payload = args.handler(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LocalSurfacesError as exc:
        return _fail(type(exc).__name__, str(exc))
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
