"""CLI behaviour: JSON payloads, exit codes, determinism, schemas, goldens."""

import argparse
import io
import json
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from localsurfaces.cech import default_window
from localsurfaces import cli
from localsurfaces.cli import main
from localsurfaces.surface import surface

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "localsurfaces" / "schemas"
REPO_GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "h1_table.jsonl"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def payload(*argv):
    code, out, _ = run(*argv)
    assert code == 0, out
    return json.loads(out)


def validate(name, document):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    jsonschema.validate(document, schema)


# -- happy paths, one per subcommand, validated against the shipped schemas ------

def test_h1_subcommand():
    doc = payload("h1", "--k", "2", "--n", "4")
    validate("h1", doc)
    assert doc["dim"] == 4
    assert doc["basis"] == ["z^-3", "z^-2", "z^-1", "z^-1*u"]


@pytest.mark.parametrize("k,n,tau,m_row", [
    ("2", "4", [], 1),
    ("2", "4", ["--tau", "1"], 1),
    ("1", "1", [], None),
    ("2", "0", [], None),
    ("3", "2", [], 0),
    ("3", "7", [], 1),
    ("3", "8", ["--tau", "1/2,-1"], 2),
])
def test_h1_m_row(k, n, tau, m_row):
    # The top row m of the normal-form monomials z^l u^i, ki - n < l < 0:
    # row i is nonempty iff ki <= n - 2, so m = (n - 2) // k for n >= 2 and
    # there is no row below n = 2, on every tau.
    assert payload("h1", "--k", k, "--n", n, *tau)["m_row"] == m_row


def test_h1_deformed():
    doc = payload("h1", "--k", "2", "--n", "4", "--tau", "1")
    validate("h1", doc)
    assert doc["dim"] == 0 and doc["stabilized"] is True


def test_h1_tau_poly():
    doc = payload("h1", "--k", "3", "--n", "3", "--tau-poly", "z + 1/2*z^2")
    validate("h1", doc)
    assert doc["tau"] == ["1", "1/2"] and doc["dim"] == 0


def test_h0_subcommand():
    doc = payload("h0", "--k", "1", "--n", "0")
    validate("h0", doc)
    assert "1" in doc["basis"] and "u" in doc["basis"]


def test_normal_form_subcommand():
    doc = payload("normal-form", "--k", "2", "--n", "4",
                  "--sigma", "3*z^-1*u + z^2*u^7")
    validate("normal_form", doc)
    assert doc["normal_form"] == "3*z^-1*u"


def test_certify_trivial_subcommand():
    doc = payload("certify-trivial", "--k", "2", "--n", "2",
                  "--tau", "1", "--sigma", "z^-1")
    validate("certify_trivial", doc)
    assert doc["f_U"] == "-u" and doc["f_V"] == "v" and doc["exact"]


@pytest.mark.parametrize("n, sigma, f_U, f_V", [
    ("0", "z^-1", "0", "xi"),
    ("-3", "z^-1 + z*u", "z*u", "xi^4"),
])
def test_certify_trivial_at_nonpositive_twist(n, sigma, f_U, f_V):
    doc = payload("certify-trivial", "--k", "2", "--n", n,
                  "--tau", "1", "--sigma", sigma)
    validate("certify_trivial", doc)
    assert (doc["f_U"], doc["f_V"]) == (f_U, f_V)


def test_tangent_subcommand():
    doc = payload("tangent", "--k", "3")
    validate("tangent", doc)
    assert doc["dim"] == 2
    assert doc["basis"] == [["0", "z^-2"], ["0", "z^-1"]]


def test_ext_basis_subcommand():
    doc = payload("ext-basis", "--k", "2")
    validate("ext_basis", doc)
    assert doc["ext_basis"] == ["z*u", "z^-1", "1", "z"]


def test_integrate_subcommand():
    doc = payload("integrate", "--k", "3", "--sigma", "z")
    validate("integrate", doc)
    assert doc["verdict"] == "NontrivialDeformation"
    assert doc["tau"] == ["0", "1/2"]


def test_family_subcommand():
    doc = payload("family", "--k", "3")
    validate("family", doc)
    assert doc["base_dim"] == 2
    assert doc["ks"]["t1"] == ["0", "z^-2"]


def test_deform_subcommand():
    doc = payload("deform", "--k", "4", "--tau-poly", "z + 2*z^3")
    validate("deform", doc)
    assert doc["surface"] == {"k": 4, "tau": ["1", "0", "2"]}


def test_hirzebruch_subcommand():
    doc = payload("hirzebruch-check", "--k", "2")
    validate("hirzebruch_check", doc)
    assert doc["all_zero"] and doc["overlap_consistent"]
    assert all(r == "0" for r in doc["residuals_u"] + doc["residuals_v"])


def test_split_type_subcommand():
    doc = payload("split-type", "--k", "2", "--j", "2", "--sigma", "z^-1*u")
    validate("split_type", doc)
    assert doc["splitting_type"] == [2, -2]


def test_certify_split_subcommand():
    doc = payload("certify-split", "--k", "2", "--j", "1",
                  "--tau", "1", "--sigma", "z^-1")
    validate("certify_split", doc)
    assert doc["certificate"]["exact"] is True
    assert doc["certificate"]["det_A_U"] == "1"


def test_charge_subcommand():
    doc = payload("charge", "--k", "2", "--j", "2", "--tau", "1",
                  "--sigma", "z^-1*u")
    validate("charge", doc)
    assert doc["r1_dim"] == 0 and doc["splitting_ok"] and doc["q_dim"] == "unsupported"


def test_moduli_dim_subcommand():
    doc = payload("moduli-dim", "--k", "2", "--j", "3")
    validate("moduli_dim", doc)
    assert doc["moduli_dim"] == 2
    doc = payload("moduli-dim", "--k", "2", "--j", "2", "--deformed")
    validate("moduli_dim", doc)
    assert doc["moduli_dim"] == "discrete-zero-dimensional"


@pytest.mark.parametrize("name,argv", [
    ("charge", ["charge", "--k", "2", "--j", "2", "--tau", "1",
                "--sigma", "z^-1*u"]),
    ("moduli_dim", ["moduli-dim", "--k", "2", "--j", "3"]),
    ("certify_split", ["certify-split", "--k", "2", "--j", "1",
                       "--tau", "1", "--sigma", "z^-1"]),
])
def test_schemas_reject_a_negative_j(name, argv):
    # Every --j refuses a negative value, and so does every schema with a j.
    doc = payload(*argv)
    validate(name, doc)
    with pytest.raises(jsonschema.ValidationError):
        validate(name, {**doc, "j": -1})


# -- exit-code contract -------------------------------------------------------------

def test_usage_error_exit_2():
    code, _, err = run("h1", "--k", "0")
    assert code == 2
    code, _, _ = run("h1", "--k", "2")  # missing --n
    assert code == 2
    code, _, _ = run("h1", "--k", "2", "--n", "4", "--tau", "1,2,3")
    assert code == 2


def test_mathematical_failure_exit_1():
    code, out, err = run("certify-trivial", "--k", "2", "--n", "4",
                         "--sigma", "z^-1")
    assert code == 1
    doc = json.loads(out)
    validate("error", doc)
    assert doc["error"]["type"] == "NotTrivial"
    assert err  # diagnostics on stderr


def test_moduli_not_applicable_exit_1():
    code, out, _ = run("moduli-dim", "--k", "2", "--j", "1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotApplicable"


def test_bad_tau_poly_is_usage_error():
    code, out, _ = run("deform", "--k", "2", "--tau-poly", "z^2")
    assert code == 2  # flag-level validation happens before dispatch
    # The message names the offending term by its two exponents.
    code, out, err = run("deform", "--k", "3", "--tau-poly", "z^2*u")
    assert (code, out) == (2, "")
    assert err == (
        "usage error: --tau-poly: tau term z^2 u^1 outside degrees 1..2\n"
    )


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_growth_cap_variable_is_ignored(monkeypatch, value):
    # Window growth is fixed in the library, so no environment variable
    # changes a result or an exit code.
    argv = ("h1", "--k", "2", "--n", "4", "--tau", "1")
    expected = run(*argv)
    monkeypatch.setenv("LOCALSURFACES_GROWTH_CAP", value)
    assert run(*argv) == expected
    assert expected[0] == 0


# Flag values the library would reject with ValueError, numbers written
# with other scripts' digits, underscores, a decimal point or an exponent,
# window flags on subcommands that take none (every subcommand but h0),
# polynomials written in the V-chart alphabet (xi, v) or with a zero
# denominator, and golden files whose rows are not JSON, not row objects or
# hold a tau entry that --tau would not read: each is a usage error,
# reported without a traceback.
GOLDEN_BAD_TAUS = ["\u0661", "1_0", "1e3", 1, 0.5]
USAGE_ERRORS = [
    ["h1", "--k", "2", "--n", "4", "--min-z", "1"],
    ["h1", "--k", "2", "--n", "4", "--max-z", "-1"],
    ["h1", "--k", "2", "--n", "4", "--max-u", "-1"],
    ["split-type", "--k", "2", "--j", "-1", "--sigma", "z^-1"],
    ["charge", "--k", "2", "--j", "-1", "--sigma", "z^-1"],
    ["certify-split", "--k", "2", "--j", "-1", "--sigma", "z^-1"],
    ["family", "--k", "1"],
    ["hirzebruch-check", "--k", "1"],
    ["charge", "--k", "2", "--j", "2", "--sigma", "z^-1", "--min-z", "-1"],
    ["certify-split", "--k", "2", "--j", "1", "--tau", "1", "--sigma", "z^-1",
     "--min-z", "-1"],
    ["certify-trivial", "--k", "2", "--n", "2", "--tau", "1", "--sigma",
     "z^-1", "--min-z", "-12"],
    ["certify-trivial", "--k", "2", "--n", "2", "--tau", "1", "--sigma",
     "z^-1", "--max-z", "12"],
    ["certify-trivial", "--k", "2", "--n", "2", "--tau", "1", "--sigma",
     "z^-1", "--max-u", "5"],
    ["normal-form", "--k", "2", "--n", "3", "--sigma", "z^-9", "--min-z", "-2"],
    ["integrate", "--k", "2", "--sigma", "xi"],
    ["charge", "--k", "2", "--j", "2", "--sigma", "v"],
    ["split-type", "--k", "2", "--j", "1", "--sigma", "v"],
    ["deform", "--k", "2", "--tau-poly", "xi"],
    ["normal-form", "--k", "2", "--n", "4", "--sigma", "xi^-1"],
    ["certify-trivial", "--k", "2", "--n", "4", "--sigma", "xi^-1"],
    ["certify-split", "--k", "2", "--j", "1", "--tau", "1", "--sigma", "v"],
    ["split-type", "--k", "2", "--j", "2", "--sigma", "3/0"],
    ["certify-trivial", "--k", "2", "--n", "3", "--tau", "1", "--sigma",
     "2/0*z^-1"],
    ["certify-trivial", "--k", "2", "--n", "3", "--sigma", "z - -u"],
    ["certify-trivial", "--k", "2", "--n", "3", "--sigma", "3 4*z^-1"],
    ["normal-form", "--k", "2", "--n", "3", "--sigma", "z2"],
    ["integrate", "--k", "2", "--sigma", "1/0*z"],
    ["normal-form", "--k", "2", "--n", "3", "--sigma", "z^-\u0661"],
    ["h1", "--k", "2", "--n", "\uff14"],
    ["h1", "--k", "1_0", "--n", "4"],
    ["h1", "--k", "3", "--n", "4", "--tau", "\u0663,1"],
    ["h1", "--k", "2", "--n", "4", "--tau", "1_0"],
    ["h1", "--k", "2", "--n", "4", "--tau", "1e3"],
    ["h1", "--k", "2", "--n", "4", "--tau", "1.5"],
    ["h1", "--k", "2", "--n", "4", "--tau", ".5"],
    ["h1", "--k", "2", "--n", "4", "--tau", "-.5"],
    ["h0", "--k", "2", "--n", "2", "--max-z", "\u0663"],
    ["moduli-dim", "--k", "2", "--j", "1_0"],
    ["moduli-dim", "--k", "2", "--j", "-3"],
    ["moduli-dim", "--k", "2", "--j", "-3", "--deformed"],
    ["deform", "--k", "2", "--tau-poly", "1/0*z"],
    ["golden", "verify", "--path", "{malformed}"],
    ["golden", "verify", "--path", "{not_object}"],
    ["golden", "verify", "--path", "{no_tau}"],
    *(["golden", "verify", "--path", f"{{tau {tau!r}}}"] for tau in GOLDEN_BAD_TAUS),
]

GOLDEN_FILES = {
    "{malformed}": '{"k": 1, "n": 0,\n',
    "{not_object}": "[1]\n",
    "{no_tau}": '{"k": 1}\n',
    # a tau entry is a string that --tau reads
    **{f"{{tau {tau!r}}}": json.dumps({"k": 2, "n": 4, "tau": [tau], "dim": 0}) + "\n"
       for tau in GOLDEN_BAD_TAUS},
}


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_invalid_values_are_usage_errors(argv, tmp_path):
    paths = {}
    for index, (placeholder, text) in enumerate(GOLDEN_FILES.items()):
        paths[placeholder] = tmp_path / f"table{index}.jsonl"
        paths[placeholder].write_text(text)
    code, out, err = run(*(str(paths.get(arg, arg)) for arg in argv))
    assert code == 2
    assert out == ""
    usage = [line for line in err.splitlines() if line.startswith("usage error:")]
    assert usage
    assert "Traceback" not in err
    if argv[0] == "golden":
        assert "row 1" in usage[0]


WINDOW_FLAGS = ("--min-z", "--max-z", "--max-u")


def test_window_flags_exist_on_h0_only():
    # h0 counts sections in a window, bounded by --max-z and --max-u; every
    # other subcommand is exact without one, and no subcommand takes
    # --min-z.
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    with_flags = {
        command for command, parser in subparsers.choices.items()
        if any(flag in parser._option_string_actions for flag in WINDOW_FLAGS)
    }
    assert with_flags == {"h0"}
    assert {
        flag for flag in WINDOW_FLAGS
        if flag in subparsers.choices["h0"]._option_string_actions
    } == {"--max-z", "--max-u"}


REMOVED_WINDOW_COMMANDS = [
    ("h1", "--k", "2", "--n", "4"),
    ("normal-form", "--k", "2", "--n", "4", "--sigma", "3*z^-1*u"),
]


@pytest.mark.parametrize("command,flag,value", [
    pytest.param(command, flag, value, id=f"{flag}-{value}-command{index}")
    for flag, value in (("--min-z", "-12"), ("--max-z", "12"), ("--max-u", "5"))
    for index, command in enumerate(REMOVED_WINDOW_COMMANDS)
] + [
    pytest.param(("h0", "--k", "2", "--n", "1", "--tau", tau), "--min-z",
                 "-1", id=f"--min-z--1-h0-tau={tau}")
    for tau in ("0", "1", "1/2")
])
def test_removed_window_flags_are_usage_errors(command, flag, value):
    # h1 and normal-form are exact without a window, and no section of h0
    # has a negative z exponent, so --min-z would bound nothing: an
    # in-range value is refused like any unknown flag.
    code, out, err = run(*command, flag, value)
    assert code == 2
    assert out == ""
    assert any(line.startswith("usage error:") for line in err.splitlines())


# Polynomial flags drawn from a grammar: one to three terms (coefficients
# with zero denominators, powers of both chart alphabets, negative or
# missing u-exponents), joined by operators that may be doubled or missing,
# with dangling operators or stray characters at either end.  Repeated
# entries weight the draw towards well-formed strings.
COEFFICIENT_TEXTS = ("1", "2", "-3", "3/4", "0", "1/0", "5/0")
POWER_TEXTS = (
    "z", "u", "z^-1", "z^-3", "z^2", "u^2", "u^-1", "xi", "v^2", "z^",
)
SEPARATORS = ("+", "-", "+", "*", "", "++")
ENDS = ("", "", "", "", "", "", "", "-", "+", "*", "/", "w")
poly_terms = st.one_of(
    st.sampled_from(COEFFICIENT_TEXTS),
    st.sampled_from(POWER_TEXTS),
    st.tuples(st.sampled_from(COEFFICIENT_TEXTS),
              st.sampled_from(POWER_TEXTS)).map("*".join),
)


@st.composite
def poly_texts(draw):
    terms = draw(st.lists(poly_terms, min_size=1, max_size=3))
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from(SEPARATORS)) + term
    return draw(st.sampled_from(ENDS)) + text + draw(st.sampled_from(ENDS))


small_ints = st.integers(-1, 4).map(str)
tau_flags = st.one_of(
    st.just([]),
    st.tuples(st.just("--tau"), st.sampled_from(["0", "1", "1/2,-1", "1/0", ""])),
    st.tuples(st.just("--tau-poly"), poly_texts()),
).map(list)


@st.composite
def polynomial_argvs(draw):
    command = draw(st.sampled_from(["split-type", "normal-form", "integrate",
                                    "deform"]))
    argv = [command, "--k", draw(small_ints)]
    if command == "split-type":
        argv += ["--j", draw(small_ints)]
    if command == "normal-form":
        argv += ["--n", draw(small_ints)]
    if command != "deform":
        argv += ["--sigma", draw(poly_texts())]
    if command != "integrate":
        argv += draw(tau_flags)
    return argv


def assert_exit_code_contract(argv, runs=1):
    """Run argv `runs` times in this process and check the exit-code
    contract; returns the payload of a success, else None.  Every run must
    give the same code, stdout and stderr, since main reuses one parser.
    No subcommand can hit a window too small: only h0 takes window flags
    and it assembles no complex, and the rest use default windows or none.
    So WindowTooSmall never surfaces, not even as exit 1."""
    code, out, err = run(*argv)
    for _ in range(runs - 1):
        assert run(*argv) == (code, out, err)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert any(line.startswith("usage error:") for line in err.splitlines())
        return None
    document = json.loads(out)
    validate(argv[0].replace("-", "_") if code == 0 else "error", document)
    if code == 1:
        assert document["error"]["type"] != "WindowTooSmall"
        return None
    return document


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(polynomial_argvs())
def test_polynomial_flags_keep_the_exit_code_contract(argv):
    assert_exit_code_contract(argv)


# The certificate subcommands over twists and splitting types -3..12, zero,
# unit and rational tau, sigmas far below any window the class would once
# have been solved in or on the normal-form monomials, and the window flags
# neither subcommand takes.  --k leans to 2..4, where tau has coefficients.
CERTIFICATE_SIGMAS = (
    "z^-40", "3*z^-40*u^3", "z^-25*u - 1/2*z^-1", "z^-3*u^2 + z^4",
)
certificate_taus = st.sampled_from([
    [], ["--tau", "0"], ["--tau", "1"], ["--tau", "0,1"], ["--tau", "-3/4"],
    ["--tau", "1/2,-1"], ["--tau", "1/2,-2/3,3/4"],
])
window_flags = st.sampled_from(
    [[]] * 5 + [["--min-z", "-12"], ["--max-z", "12"], ["--max-u", "5"]]
)


@st.composite
def certificate_argvs(draw):
    command = draw(st.sampled_from(["certify-trivial", "certify-split"]))
    argv = [command, "--k", draw(st.sampled_from("12343420"))]
    argv += ["--n" if command == "certify-trivial" else "--j",
             str(draw(st.integers(-3, 12)))]
    sigma = draw(st.sampled_from(CERTIFICATE_SIGMAS) | poly_texts())
    return argv + ["--sigma", sigma] + draw(certificate_taus) + draw(window_flags)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(certificate_argvs())
def test_certificate_flags_keep_the_exit_code_contract(argv):
    assert_exit_code_contract(argv)


# h1 over twists -3..16 and zero, unit and rational tau.  On tau != 0 the
# answer is the proved dim 0 and the default window is echoed.
h1_taus = st.sampled_from([
    [], ["--tau", "0"], ["--tau", "1"], ["--tau", "0,-1"], ["--tau", "3/4"],
    ["--tau", "1/2,-1"], ["--tau", "1/2,-2/3,3/4"],
])
h1_argvs = st.builds(
    lambda k, n, tau: ["h1", "--k", k, "--n", str(n)] + tau,
    st.sampled_from("12343420"), st.integers(-3, 16), h1_taus,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(h1_argvs)
def test_h1_flags_keep_the_exit_code_contract(argv):
    document = assert_exit_code_contract(argv)
    if document is None or not any(t != "0" for t in document["tau"]):
        return
    assert (document["dim"], document["basis"]) == (0, [])
    assert document["stabilized"] is True
    s = surface(document["k"], [Fraction(t) for t in document["tau"]])
    window = default_window(s, document["n"])
    assert document["window"] == window.to_json_dict()


# charge over splitting types -3..12, the certificate sigmas and the
# polynomial grammar, and --tau lists whose first entry may be negative;
# tangent over --k -3..12.  On tau != 0 the charge is the proved 0, and
# neither subcommand echoes a window.
charge_taus = st.sampled_from([
    [], ["--tau", "0"], ["--tau", "1"], ["--tau", "-3/4"], ["--tau", "-1/2,1"],
    ["--tau", "0,-1"], ["--tau", "1/2,-2/3,3/4"], ["--tau", "-1,0,2/3"],
])


@st.composite
def charge_argvs(draw):
    if draw(st.integers(0, 4)) == 0:
        return ["tangent", "--k", str(draw(st.integers(-3, 12)))]
    argv = ["charge", "--k", draw(st.sampled_from("123434340")),
            "--j", str(draw(st.integers(-3, 12)))]
    certificate_sigmas = st.sampled_from(CERTIFICATE_SIGMAS + ("0", "z^-2"))
    sigma = draw(certificate_sigmas | certificate_sigmas | poly_texts())
    return argv + ["--sigma", sigma] + draw(charge_taus)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(charge_argvs())
def test_charge_and_tangent_flags_keep_the_exit_code_contract(argv):
    document = assert_exit_code_contract(argv)
    if document is None:
        return
    flags = dict(zip(argv[1::2], argv[2::2]))
    k = int(flags["--k"])
    if argv[0] == "tangent":
        assert document["dim"] == k - 1
        assert document["basis"] == [["0", f"z^{l}"] for l in range(1 - k, 0)]
    else:
        given = [Fraction(t) for t in flags.get("--tau", "").split(",") if t]
        s = surface(k, given + [0] * (k - 1 - len(given)))
        if s.is_deformed:
            assert document["r1_dim"] == 0
    assert document["stabilized"] is True
    assert "window" not in document


# Whole argv over every subcommand: its own flags with valid and invalid
# values, --tau lists or --tau-poly (more often where the subcommand takes
# them), and any of the window flags: only h0 takes --max-z and --max-u,
# and --min-z is an unknown flag everywhere.  golden verify
# reads a table with a valid row, a corrupt row (exit 1) or a row that is
# not JSON (exit 2).
SUBCOMMAND_FLAGS = {
    "h1": ("--k", "--n"),
    "h0": ("--k", "--n"),
    "normal-form": ("--k", "--n", "--sigma"),
    "certify-trivial": ("--k", "--n", "--sigma"),
    "tangent": ("--k",),
    "ext-basis": ("--k",),
    "integrate": ("--k", "--sigma"),
    "family": ("--k",),
    "deform": ("--k",),
    "hirzebruch-check": ("--k",),
    "split-type": ("--k", "--j", "--sigma"),
    "certify-split": ("--k", "--j", "--sigma"),
    "charge": ("--k", "--j", "--sigma"),
    "moduli-dim": ("--k", "--j"),
    "golden": ("--path",),
}
TAU_SUBCOMMANDS = {
    "h1", "h0", "normal-form", "certify-trivial", "deform", "split-type",
    "certify-split", "charge",
}
WINDOW_VALUES = {
    "--min-z": ("0", "-1", "-3", "-12", "1"),
    "--max-z": ("0", "1", "12", "-1"),
    "--max-u": ("0", "1", "5", "-1"),
}
whole_argv_sigmas = st.sampled_from(CERTIFICATE_SIGMAS + ("z^-1", "z^-2*u"))
FLAG_VALUES = {
    "--k": st.sampled_from("12342343") | st.sampled_from(["0", "-1", "x"]),
    "--n": st.integers(-3, 12).map(str),
    "--j": st.integers(-1, 8).map(str),
    "--sigma": whole_argv_sigmas | whole_argv_sigmas | poly_texts(),
    "--path": st.sampled_from(["{valid}", "{corrupt}", "{not_json}"]),
}


@pytest.fixture(scope="module")
def golden_tables(tmp_path_factory):
    row = json.loads(REPO_GOLDEN.read_text().splitlines()[40])
    texts = {
        "{valid}": json.dumps(row),
        "{corrupt}": json.dumps(dict(row, dim=row["dim"] + 1)),
        "{not_json}": json.dumps(row)[:-1],
    }
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for index, (placeholder, text) in enumerate(texts.items()):
        paths[placeholder] = directory / f"table{index}.jsonl"
        paths[placeholder].write_text(text + "\n")
    return paths


@st.composite
def whole_argvs(draw):
    # golden counts thrice, once per kind of table row.
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS) + ["golden"] * 2))
    argv = [command]
    if command == "golden":
        argv.append(draw(st.sampled_from(["verify", "verify", "check"])))
    for flag in SUBCOMMAND_FLAGS[command]:
        argv += [flag, draw(FLAG_VALUES[flag])]
    if command == "moduli-dim" and draw(st.booleans()):
        argv.append("--deformed")
    if draw(st.integers(0, 3)) < (2 if command in TAU_SUBCOMMANDS else 1):
        argv += draw(tau_flags | certificate_taus)
    if draw(st.integers(0, 3)) < (2 if command == "h0" else 1):
        flags = draw(st.sets(st.sampled_from(WINDOW_FLAGS), min_size=1))
        for flag in sorted(flags):
            argv += [flag, draw(st.sampled_from(WINDOW_VALUES[flag]))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(whole_argvs())
def test_whole_argv_keeps_the_exit_code_contract(golden_tables, argv):
    # Each argv runs twice on main's shared parser, so this is also a
    # statelessness check over every subcommand.
    argv = [str(golden_tables.get(arg, arg)) for arg in argv]
    assert_exit_code_contract(argv, runs=2)
    if "--min-z" in argv:
        assert run(*argv)[0] == 2


@pytest.mark.parametrize("command,tau", [
    (["h1", "--k", "2", "--n", "3"], "-3/4"),
    (["h1", "--k", "3", "--n", "5"], "-1/2,1"),
    (["charge", "--k", "3", "--j", "3", "--sigma", "z^-1"], "-1/2,1"),
    (["certify-trivial", "--k", "2", "--n", "3", "--sigma", "z^-1"], "-3/4"),
])
def test_negative_first_tau_entry_is_a_value(command, tau):
    # "--tau -3/4" reads -3/4 as the value, as "--tau=-3/4" does.
    spaced = run(*command, "--tau", tau)
    assert spaced == run(*command, f"--tau={tau}")
    assert spaced[0] == 0


@pytest.mark.parametrize("tau,same", [
    ("+1", "1"), ("1, 2", "1,2"), (" 1/2,-1 ", "1/2,-1"),
])
def test_tau_entries_take_a_plus_sign_and_blanks(tau, same):
    argv = ["h1", "--k", "3", "--n", "4", "--tau"]
    assert run(*argv, tau) == run(*argv, same)
    assert run(*argv, same)[0] == 0


@pytest.mark.parametrize("command", [
    ["charge", "--k", "2", "--j", "2"],
    ["certify-trivial", "--k", "2", "--n", "3", "--tau", "1"],
    ["certify-split", "--k", "2", "--j", "2", "--tau", "1"],
    ["split-type", "--k", "2", "--j", "2"],
    ["normal-form", "--k", "2", "--n", "4"],
    ["integrate", "--k", "2"],
])
@pytest.mark.parametrize("sigma,code", [
    ("-z^-1", 0), ("-3*z^-1", 0), ("-xi^-1", 2),
])
def test_negative_polynomial_sigma_is_a_value(command, sigma, code):
    # "--sigma -z^-1" reads -z^-1 as the value, as "--sigma=-z^-1" does; a
    # V-chart sigma reaches the polynomial check and is refused there.
    spaced = run(*command, "--sigma", sigma)
    assert spaced == run(*command, f"--sigma={sigma}")
    assert spaced[0] == code


def test_window_too_small_is_usage_error():
    # No V-holomorphic generator meets the 1x1 window at the origin; h1
    # takes no window flags, so it cannot be asked for that window.
    code, out, err = run("h1", "--k", "2", "--n", "4", "--min-z", "0",
                         "--max-z", "0", "--max-u", "0")
    assert code == 2
    assert out == ""
    assert "usage error:" in err and "unrecognized arguments" in err


def test_bad_extension_class_is_mathematical_error():
    code, out, _ = run("integrate", "--k", "3", "--sigma", "z^5")
    assert code == 1
    assert json.loads(out)["error"] == {
        "message": "term z^5 u^0 is outside the extension space for k=3",
        "type": "BadCocycleSupport",
    }


# -- determinism and window handling ---------------------------------------------------

def test_output_is_byte_identical():
    _, first, _ = run("h1", "--k", "3", "--n", "5")
    _, second, _ = run("h1", "--k", "3", "--n", "5")
    assert first == second


# -- one parser per process: main reuses it, and parsing keeps no state ----------------

def fresh_run(*argv):
    """run(*argv) on a newly built parser, like the first call of a process."""
    cli._shared_parser.cache_clear()
    return run(*argv)


VALID_ARGV = ("certify-trivial", "--k", "2", "--n", "3", "--tau", "1",
              "--sigma", "z^-1")


@pytest.mark.parametrize("before,code", [
    (VALID_ARGV, 0),                                   # the same argv twice
    (("h1", "--k", "0"), 2),                           # usage error
    (("certify-trivial", "--k", "2", "--n", "4", "--sigma", "z^-1"), 1),
    (("--version",), 0),                               # SystemExit
    (("--help",), 0),
    (("certify-trivial", "--help"), 0),
])
def test_parsing_keeps_no_state_between_calls(before, code):
    fresh = {argv: fresh_run(*argv) for argv in (before, VALID_ARGV)}
    assert fresh[before][0] == code
    assert fresh[VALID_ARGV][0] == 0
    # One shared parser: each call prints what a first call prints.
    for argv in (VALID_ARGV, before, VALID_ARGV, before):
        assert run(*argv) == fresh[argv]


def test_window_flags_do_not_leak_into_later_calls():
    argv = ("h0", "--k", "3", "--n", "5")
    default = fresh_run(*argv)
    assert json.loads(default[1])["window"] == {
        "min_z": -11, "max_z": 11, "max_u": 4,
    }
    assert payload(*argv, "--max-z", "9")["window"]["max_z"] == 9
    assert run(*argv) == default


def test_main_builds_one_parser_per_process(monkeypatch):
    real_build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(real_build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    for _ in range(3):
        assert run(*VALID_ARGV)[0] == 0
    assert len(built) == 1
    assert real_build_parser() is not real_build_parser()


PINNED = Path(__file__).resolve().parent / "pinned"


@pytest.mark.parametrize("argv,name", [
    # d = 1 with two nonzero tau coefficients: z^-1 needs the image of
    # v^(n-1) at the top of the proved cap, the A_V entry -2048*v^11.
    (["certify-split", "--k", "3", "--j", "6", "--tau", "1/2,-1",
      "--sigma", "z^-1"], "certify_split_k3_j6.json"),
    # tau's least common denominator is D = 12, so the division's
    # coordinate u' = 12u rescales every u-degree.
    (["certify-trivial", "--k", "4", "--n", "6", "--tau", "1/2,-2/3,3/4",
      "--sigma", "z^-1 - 2/5*z^-3*u + z^-2*u^2"],
     "certify_trivial_k4_n6.json"),
])
def test_certificate_stdout_is_pinned(argv, name):
    # Stdout of the weight-graded solve.  f_V is not unique: for the
    # certify-trivial case the relation solve it replaced printed another
    # f_V, kept in certify_trivial_k4_n6.relation_solve.json and checked
    # against cech_oracle.relation_certificate in test_cech_oracle.py; the
    # certify-split bytes are the same under both solves.
    code, out, _ = run(*argv)
    assert code == 0
    assert out == (PINNED / name).read_text()


@pytest.mark.parametrize("argv,name", [
    # Undeformed: sigma = z^-1 leaves r1_dim = 1 of h^1(O(-3)) = 2.
    (["charge", "--k", "3", "--j", "3", "--sigma", "z^-1"],
     "charge_k3_j3.json"),
    (["charge", "--k", "3", "--j", "2", "--tau", "1/2,-1",
      "--sigma", "z^-1 + z^-3*u"], "charge_k3_j2_tau.json"),
    (["tangent", "--k", "4"], "tangent_k4.json"),
])
def test_charge_and_tangent_stdout_drop_only_the_window(argv, name):
    # Each pinned file is the stdout these commands printed with the
    # default window of the bundle's transition, minus "window" (the
    # dropped windows are listed in CHANGES.md).
    code, out, _ = run(*argv)
    assert code == 0
    assert out == (PINNED / name).read_text()
    assert "window" not in json.loads(out)


def test_certify_trivial_former_fallback_is_exact():
    # A windowed solve once certified this class only up to a residual
    # -z^-8 outside the window; the division by u-degree cancels that term
    # too, with f_V = -xi^6 (1 + xi*v)^3.
    code, out, _ = run("certify-trivial", "--k=2", "--tau=-1", "--n=2",
                       "--sigma=-z^-5*u^3 + z^2 - 2*z^3*u")
    assert code == 0
    validate("certify_trivial", json.loads(out))
    assert out == json.dumps({
        "exact": True,
        "f_U": "z^2 - 2*z^3*u",
        "f_V": "-xi^6 - 3*xi^7*v - 3*xi^8*v^2 - xi^9*v^3",
        "k": 2,
        "n": 2,
        "residual": "0",
        "sigma": "-z^-5*u^3 + z^2 - 2*z^3*u",
        "window": {"max_u": 3, "max_z": 7, "min_z": -7},
    }, indent=2, sort_keys=True) + "\n"


def test_h0_deformed_basis_stdout():
    # Sections of O(3) on Z_2(z): beyond monomials, the kernel holds
    # combinations such as z^5 + 2*z^6*u + z^7*u^2.
    code, out, _ = run("h0", "--k", "2", "--n", "3", "--tau", "1")
    assert code == 0
    basis = [
        "1", "u", "u^2", "u^3", "z", "z*u", "z*u^2", "z*u^3",
        "z^2", "z^2*u", "z^2*u^2", "z^2*u^3", "z^3", "z^3*u", "z^3*u^2",
        "z^3*u^3", "z^4*u", "z^4*u^2", "z^4*u^3", "z^4 + z^5*u",
        "z^5*u^2", "z^5*u^3", "-z^4 + z^6*u^2", "z^6*u^3",
        "z^5 + 2*z^6*u + z^7*u^2", "z^4 + z^7*u^3",
        "-2*z^5 - 3*z^6*u + z^8*u^3",
    ]
    assert out == json.dumps({
        "basis": basis,
        "dim": 27,
        "k": 2,
        "n": 3,
        "stabilized": False,
        "tau": ["1"],
        "window": {"max_u": 3, "max_z": 8, "min_z": -8},
    }, indent=2, sort_keys=True) + "\n"


def test_deformed_h0_stdout_is_pinned():
    # Sections of O(2) on Z_3(z/2 - z^2): the order and the coefficients of
    # the combinations in the canonical kernel basis, byte for byte.
    code, out, _ = run("h0", "--k", "3", "--n", "2", "--tau", "1/2,-1")
    assert code == 0
    assert out == (PINNED / "h0_k3_n2_tau.json").read_text()


def test_window_override_is_echoed():
    # The echoed min_z is the default window's: sections are U-holomorphic,
    # so only --max-z and --max-u bound them.
    doc = payload("h0", "--k", "2", "--n", "4", "--max-z", "12", "--max-u", "5")
    validate("h0", doc)
    assert doc["window"] == {"min_z": -9, "max_z": 12, "max_u": 5}


# -- golden table -----------------------------------------------------------------------

def test_golden_generate_verify_and_corrupt(tmp_path):
    path = tmp_path / "table.jsonl"
    doc = payload("golden", "generate", "--path", str(path))
    validate("golden", doc)
    assert doc["written"] == 99

    lines = path.read_text().splitlines()
    assert len(lines) == 99
    schema = json.loads((SCHEMA_DIR / "golden_row.schema.json").read_text())
    rows = [json.loads(line) for line in lines]
    for row in rows:
        jsonschema.validate(row, schema)
    # sorted and deduplicated
    keys = [(r["k"], r["n"], tuple(r["tau"])) for r in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # contains the expected undeformed row (k=3, n=5, tau=0, dim=5)
    match = [r for r in rows
             if r["k"] == 3 and r["n"] == 5 and all(t == "0" for t in r["tau"])]
    assert len(match) == 1 and match[0]["dim"] == 5

    doc = payload("golden", "verify", "--path", str(path))
    validate("golden", doc)
    assert doc["verified"] == 99

    # corrupt the (k=2, n=4, tau=0) row to dim 5 and expect a named failure
    corrupted = []
    for row in rows:
        if row["k"] == 2 and row["n"] == 4 and all(t == "0" for t in row["tau"]):
            row = dict(row, dim=5)
        corrupted.append(json.dumps(row, sort_keys=True))
    path.write_text("\n".join(corrupted) + "\n")
    code, out, err = run("golden", "verify", "--path", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "GoldenMismatch"
    assert "k=2" in doc["error"]["message"] and "n=4" in doc["error"]["message"]


def test_golden_generate_to_unwritable_path_is_usage_error(tmp_path):
    path = tmp_path / "missing" / "table.jsonl"
    code, out, err = run("golden", "generate", "--path", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write")
    assert "Traceback" not in err
    assert not path.exists()


def test_committed_golden_file_verifies():
    assert REPO_GOLDEN.exists()
    doc = payload("golden", "verify", "--path", str(REPO_GOLDEN))
    assert doc["verified"] == 99
