"""Seeded whole-argv corpus of the CLI and its pinned output hashes.

The corpus is a fixed list of argvs over all 15 subcommands, on zero, unit
and rational tau (including rational tau whose integral coefficient
t = D*t_d has |t| >= 2, where certificate denominators grow), with cases
that exit 0, 1 and 2, and ends with --help and each subcommand's --help.
Each argv runs through cli.main in this process; its record is the argv,
the exit code and the SHA-256 of stdout and of stderr.
pinned/argv_corpus.jsonl holds one record per line, and test_argv_corpus.py
regenerates the records and compares them, so "stdout is byte-identical"
is a tier-1 check.

The run is made deterministic: argparse wraps usage lines at COLUMNS, which
is set to 80 while the corpus runs, and golden reads and writes relative
paths in a temporary working directory that holds the fixture tables
below, so no absolute path reaches stdout.

    PYTHONPATH=src python tests/argv_corpus.py --write
        regenerates pinned/argv_corpus.jsonl (a declared output change);
    PYTHONPATH=src python tests/argv_corpus.py --diff PARENT_DIR
        runs the corpus against PARENT_DIR/src as well and prints both
        outputs, in full, of the first argv whose records differ;
    PYTHONPATH=src python tests/argv_corpus.py --time N
        runs the corpus N times and prints the best wall time, in total
        and per subcommand.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional

PINNED = Path(__file__).resolve().parent / "pinned" / "argv_corpus.jsonl"
SEED = 14

SUBCOMMANDS = (
    "h1", "h0", "normal-form", "certify-trivial", "tangent", "ext-basis",
    "integrate", "family", "deform", "hirzebruch-check", "split-type",
    "certify-split", "charge", "moduli-dim", "golden",
)

# --tau values by kind.  "large" tau has an integral coefficient
# t = D*t_d with |t| >= 2 (D the least common denominator of tau, t_d its
# lowest nonzero coefficient), so the weight steps' denominators grow.
TAUS = {
    "zero": ("0", "0,0", "0,0,0"),
    "unit": ("1", "-1", "0,1", "-1,1", "1,0,-1", "0,0,1"),
    "rational": ("1/2", "-1/3", "1/2,-1", "0,-1/2", "1/2,-2/3,3/4",
                 "0,1/3,1"),
    "large": ("2/3", "3/2", "-5/2", "2", "-3,1", "0,2/3", "-4/3,0,1/2"),
}
# --tau-poly values and their degrees.
TAU_POLYS = (("z", 1), ("-z^2", 2), ("1/2*z + z^2", 2), ("2/3*z^3", 3))
COEFFS = tuple(Fraction(c) for c in
               ("1", "-1", "2", "-3", "1/2", "-2/3", "3/4", "-5/2", "7/9"))

# Fixture tables for golden verify, written into the working directory.
GOLDEN_FIXTURES = {
    "good_row.jsonl": '{"dim": 4, "k": 2, "n": 4, "tau": ["0"]}\n',
    "bad_dim.jsonl": '{"dim": 5, "k": 2, "n": 4, "tau": ["0"]}\n',
    "not_json.jsonl": "{\n",
    "not_a_row.jsonl": "[1, 2]\n",
    "bad_tau.jsonl": '{"dim": 0, "k": 2, "n": 4, "tau": ["x"]}\n',
}

# Usage errors that the random argvs below reach rarely or never.
USAGE_ERRORS = (
    [],
    ["nope"],
    ["h1"],
    ["h1", "--k", "2"],
    ["h1", "--k", "0", "--n", "1"],
    ["h1", "--k", "x", "--n", "1"],
    ["h1", "--k", "1_0", "--n", "1"],
    ["h1", "--k", "٣", "--n", "1"],
    ["h1", "--k", "2", "--n", "4", "--tau", "1,2,3"],
    ["h1", "--k", "2", "--n", "4", "--tau", "1/0"],
    ["h1", "--k", "2", "--n", "4", "--tau", "1.5"],
    ["h1", "--k", "2", "--n", "4", "--min-z", "-3"],
    ["h1", "--k", "3", "--n", "4", "--tau", "1", "--tau-poly", "z"],
    ["h0", "--k", "2", "--n", "1", "--max-z", "-1"],
    ["h0", "--k", "2", "--n", "1", "--max-u", "x"],
    ["normal-form", "--k", "2", "--n", "4", "--sigma", "xi^-1"],
    ["normal-form", "--k", "2", "--n", "4", "--sigma", "z^^2"],
    ["normal-form", "--k", "2", "--n", "4", "--sigma", "z^-1*u^-1"],
    ["normal-form", "--k", "2", "--n", "4", "--sigma", "1/0*z"],
    ["certify-trivial", "--k", "2", "--n", "4"],
    ["certify-trivial", "--k", "2", "--n", "4", "--sigma", "z^-1*v"],
    ["tangent", "--k", "-1"],
    ["ext-basis"],
    ["integrate", "--k", "2", "--sigma", "v"],
    ["family", "--k", "1"],
    ["deform", "--k", "2"],
    ["deform", "--k", "2", "--tau-poly", "z^2"],
    ["deform", "--k", "3", "--tau-poly", "z^2*u"],
    ["hirzebruch-check", "--k", "1"],
    ["split-type", "--k", "2", "--j", "1"],
    ["certify-split", "--k", "2", "--j", "-1", "--sigma", "z^-1"],
    ["charge", "--k", "2", "--j", "x", "--sigma", "z^-1"],
    ["moduli-dim", "--k", "2", "--j", "-1"],
    ["golden", "check", "--path", "table.jsonl"],
    ["golden", "verify"],
    ["golden", "verify", "--path", "missing.jsonl"],
    ["golden", "generate", "--path", "no_dir/table.jsonl"],
    ["golden", "verify", "--path", "not_json.jsonl"],
    ["golden", "verify", "--path", "not_a_row.jsonl"],
    ["golden", "verify", "--path", "bad_tau.jsonl"],
)
# Flag values that are usage errors wherever the flag is taken.
BAD_VALUES = {
    "--k": ("0", "-2", "k"),
    "--n": ("1.5", "n"),
    "--j": ("-1", "1/2"),
    "--sigma": ("z^", "xi", "2*z^-1*v", "z^-1 +"),
    "--tau": ("1/0", "a", "1,,2"),
}


# -- argvs ---------------------------------------------------------------------

def poly_text(terms) -> str:
    """Text of the polynomial sum c * z^l * u^i over (c, l, i), written
    independently of the library's printer."""
    pieces = []
    for c, l, i in terms:
        factors = [] if abs(c) == 1 else [str(abs(c))]
        factors += [f"z^{l}"] if l else []
        factors += [f"u^{i}"] if i else []
        body = "*".join(factors) or "1"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(pieces) or "0"


def random_sigma(rng: random.Random, n: int, nonnegative: bool = True) -> str:
    """A few terms z^l u^i with coefficients from COEFFS, l reaching below
    the normal-form monomials and, if nonnegative, above z^0."""
    top = 3 if nonnegative else -1
    return poly_text(
        (rng.choice(COEFFS), rng.randint(-abs(n) - 3, top), rng.randint(0, 3))
        for _ in range(rng.randint(1, 5))
    )


def tau_flags(rng: random.Random, k: int, kind: Optional[str] = None) -> List[str]:
    """--tau (or --tau-poly) flags of the given kind that fit k; no flag,
    or "--tau 0", for zero tau.  A random kind when none is given."""
    if kind is None:
        kind = rng.choice(("zero", "unit", "rational", "large", "poly"))
    if kind == "poly":
        fitting = [p for p, degree in TAU_POLYS if degree <= k - 1]
        return ["--tau-poly", rng.choice(fitting)] if fitting else []
    fitting = [t for t in TAUS[kind] if t.count(",") < k - 1]
    if not fitting or (kind == "zero" and rng.random() < 0.5):
        return []
    return ["--tau", rng.choice(fitting)]


def _certificate_argvs(rng: random.Random) -> Iterator[List[str]]:
    for _ in range(300):
        k, n = rng.randint(1, 5), rng.randint(-2, 14)
        yield (["certify-trivial", "--k", str(k), "--n", str(n),
                "--sigma", random_sigma(rng, n, rng.random() < 0.7)]
               + tau_flags(rng, k))
    for _ in range(200):
        k, j = rng.randint(1, 5), rng.randint(0, 7)
        yield (["certify-split", "--k", str(k), "--j", str(j),
                "--sigma", random_sigma(rng, 2 * j)]
               + tau_flags(rng, k))
    for _ in range(260):
        k, n = rng.randint(1, 5), rng.randint(-2, 14)
        yield (["normal-form", "--k", str(k), "--n", str(n),
                "--sigma", random_sigma(rng, n)]
               + tau_flags(rng, k))
    for _ in range(150):
        k, j = rng.randint(1, 5), rng.randint(0, 6)
        yield (["charge", "--k", str(k), "--j", str(j),
                "--sigma", random_sigma(rng, j)]
               + tau_flags(rng, k))


def _cohomology_argvs(rng: random.Random) -> Iterator[List[str]]:
    for _ in range(150):
        k, n = rng.randint(1, 5), rng.randint(-3, 14)
        yield ["h1", "--k", str(k), "--n", str(n)] + tau_flags(rng, k)
    for _ in range(100):
        k, n = rng.randint(1, 5), rng.randint(-3, 6)
        window = []
        if rng.random() < 0.5:
            window += ["--max-z", str(rng.randint(0, 6))]
        if rng.random() < 0.5:
            window += ["--max-u", str(rng.randint(0, 3))]
        yield ["h0", "--k", str(k), "--n", str(n)] + window + tau_flags(rng, k)
    for _ in range(80):
        k, j = rng.randint(1, 5), rng.randint(0, 5)
        kind = "zero" if rng.random() < 0.7 else None
        yield (["split-type", "--k", str(k), "--j", str(j),
                "--sigma", random_sigma(rng, 2 * j)]
               + tau_flags(rng, k, kind))


def _deformation_argvs(rng: random.Random) -> Iterator[List[str]]:
    for k in range(1, 9):
        yield ["tangent", "--k", str(k)]
        yield ["ext-basis", "--k", str(k)]
    for k in range(2, 7):
        yield ["family", "--k", str(k)]
        yield ["hirzebruch-check", "--k", str(k)]
    for _ in range(50):
        k = rng.randint(1, 5)
        terms = [(rng.choice(COEFFS), l, 0)
                 for l in rng.sample(range(-1, k), rng.randint(0, min(3, k + 1)))]
        if rng.random() < 0.6:
            terms.append((rng.choice(COEFFS), k - 1, 1))
        if rng.random() < 0.15:
            terms.append((1, k + rng.randint(0, 2), rng.randint(0, 2)))
        yield ["integrate", "--k", str(k), "--sigma", poly_text(terms)]
    for _ in range(30):
        k = rng.randint(1, 5)
        yield ["deform", "--k", str(k)] + tau_flags(
            rng, k, rng.choice(("unit", "rational", "large", "poly"))
        )
    for _ in range(40):
        k, j = rng.randint(1, 5), rng.randint(0, 6)
        deformed = ["--deformed"] if rng.random() < 0.3 else []
        yield ["moduli-dim", "--k", str(k), "--j", str(j)] + deformed


def _golden_argvs() -> Iterator[List[str]]:
    yield ["golden", "generate", "--path", "table.jsonl"]
    yield ["golden", "verify", "--path", "table.jsonl"]
    for name in ("good_row.jsonl", "bad_dim.jsonl"):
        yield ["golden", "verify", "--path", name]


def _usage_error_argvs(rng: random.Random, valid: List[List[str]]) -> Iterator[List[str]]:
    yield ["--version"]
    yield from USAGE_ERRORS
    # Valid argvs with one flag value made bad.
    for argv in rng.sample(valid, 80):
        flags = [i for i, word in enumerate(argv) if word in BAD_VALUES]
        if flags:
            i = rng.choice(flags)
            yield argv[:i + 1] + [rng.choice(BAD_VALUES[argv[i]])] + argv[i + 2:]


def _help_argvs() -> Iterator[List[str]]:
    """The top-level help and each subcommand's: the parser's help strings,
    usage lines and flag order, pinned byte for byte."""
    yield ["--help"]
    for command in SUBCOMMANDS:
        yield [command, "--help"]


def corpus(seed: int = SEED) -> List[List[str]]:
    """The argvs of the corpus, in run order; they depend only on seed."""
    rng = random.Random(seed)
    valid = [
        *_certificate_argvs(rng),
        *_cohomology_argvs(rng),
        *_deformation_argvs(rng),
    ]
    return (valid + list(_golden_argvs()) + list(_usage_error_argvs(rng, valid))
            + list(_help_argvs()))


# -- running ---------------------------------------------------------------------

@contextlib.contextmanager
def corpus_environment() -> Iterator[None]:
    """COLUMNS=80 and a temporary working directory holding the golden
    fixtures, restored on exit."""
    columns, cwd = os.environ.get("COLUMNS"), os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in GOLDEN_FIXTURES.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.environ["COLUMNS"] = "80"
        os.chdir(work)
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def run(argv: List[str]):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    from localsurfaces.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_line(argv: List[str], code: int, out: str, err: str) -> str:
    return json.dumps({
        "argv": argv, "exit": code, "stdout": _sha256(out), "stderr": _sha256(err),
    })


def corpus_lines() -> List[str]:
    """One record line per argv of the corpus, run in corpus order."""
    with corpus_environment():
        return [record_line(argv, *run(argv)) for argv in corpus()]


def first_difference(got: List[str], want: List[str]) -> Optional[int]:
    """Index of the first line that differs, len of the shorter list when
    one is a prefix of the other, None when they are equal."""
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return None if len(got) == len(want) else min(len(got), len(want))


def _run_in(src: Path, *options: str) -> str:
    """Stdout of this script run with src first on the import path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, __file__, *options], env=env, check=True,
        capture_output=True, text=True,
    ).stdout


def _diff(parent: Path) -> int:
    here = corpus_lines()
    there = _run_in(parent / "src", "--print").splitlines()
    index = first_difference(here, there)
    if index is None:
        print(f"{len(here)} records agree")
        return 0
    argv = corpus()[index]
    with corpus_environment():
        code, out, err = run(argv)
    theirs = json.loads(_run_in(parent / "src", "--run-one", str(index)))
    print(f"first difference at record {index}: {argv}")
    for name, (c, o, e) in (("this checkout", (code, out, err)),
                            (str(parent), theirs)):
        print(f"== {name}: exit {c}\n-- stdout\n{o}-- stderr\n{e}")
    return 1


def _command(argv: List[str]) -> str:
    return argv[0] if argv else "(no argv)"


def best_times(rounds: int) -> Dict[str, float]:
    """The least wall time of the corpus through cli.main over rounds runs,
    under corpus_environment: "total" and one entry per subcommand."""
    best: Dict[str, float] = {}
    for _ in range(rounds):
        times = {"total": 0.0}
        with corpus_environment():
            for argv in corpus():
                start = time.perf_counter()
                run(argv)
                elapsed = time.perf_counter() - start
                name = _command(argv)
                times[name] = times.get(name, 0.0) + elapsed
                times["total"] += elapsed
        for name, elapsed in times.items():
            best[name] = min(best.get(name, elapsed), elapsed)
    return best


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--print", action="store_true")
    mode.add_argument("--diff", metavar="PARENT_DIR", type=Path)
    mode.add_argument("--run-one", metavar="INDEX", type=int)
    mode.add_argument("--time", metavar="N", type=int)
    args = parser.parse_args(argv)
    if args.time is not None:
        best = best_times(args.time)
        counts = collections.Counter(_command(words) for words in corpus())
        print(f"best of {args.time}: {best.pop('total'):.3f} s for "
              f"{sum(counts.values())} argvs")
        for name, elapsed in sorted(best.items(), key=lambda item: -item[1]):
            print(f"  {name:<17} {elapsed * 1e3:8.1f} ms  {counts[name]:5d} argvs")
        return 0
    if args.diff is not None:
        return _diff(args.diff)
    if args.run_one is not None:
        with corpus_environment():
            print(json.dumps(run(corpus()[args.run_one])))
        return 0
    lines = corpus_lines()
    if args.print:
        print("\n".join(lines))
    else:
        PINNED.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} records to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
