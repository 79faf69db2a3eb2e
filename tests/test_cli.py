"""CLI behaviour: JSON payloads, exit codes, determinism, schemas, goldens."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from localsurfaces.cli import main

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


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_growth_cap_variable_is_ignored(monkeypatch, value):
    # Window growth is fixed in the library, so no environment variable
    # changes a result or an exit code.
    argv = ("h1", "--k", "2", "--n", "4", "--tau", "1")
    expected = run(*argv)
    monkeypatch.setenv("LOCALSURFACES_GROWTH_CAP", value)
    assert run(*argv) == expected
    assert expected[0] == 0


# Flag values the library would reject with ValueError, window flags on
# subcommands that take none, polynomials written in the V-chart alphabet
# (xi, v) or with a zero denominator, and golden files whose rows are not
# JSON or not row objects: each is a usage error, reported without a
# traceback.
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
    ["integrate", "--k", "2", "--sigma", "1/0*z"],
    ["deform", "--k", "2", "--tau-poly", "1/0*z"],
    ["golden", "verify", "--path", "{malformed}"],
    ["golden", "verify", "--path", "{not_object}"],
    ["golden", "verify", "--path", "{no_tau}"],
]

GOLDEN_FILES = {
    "{malformed}": '{"k": 1, "n": 0,\n',
    "{not_object}": "[1]\n",
    "{no_tau}": '{"k": 1}\n',
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


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(polynomial_argvs())
def test_polynomial_flags_keep_the_exit_code_contract(argv):
    code, out, err = run(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert any(line.startswith("usage error:") for line in err.splitlines())
    else:
        validate(argv[0].replace("-", "_") if code == 0 else "error",
                 json.loads(out))


def test_window_too_small_is_usage_error():
    # No V-holomorphic generator meets the 1x1 window at the origin; only
    # the window flags can ask for such a window.
    code, out, err = run("h1", "--k", "2", "--n", "4", "--min-z", "0",
                         "--max-z", "0", "--max-u", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "meets window" in err


def test_bad_extension_class_is_mathematical_error():
    code, out, _ = run("integrate", "--k", "3", "--sigma", "z^5")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BadCocycleSupport"


# -- determinism and window handling ---------------------------------------------------

def test_output_is_byte_identical():
    _, first, _ = run("h1", "--k", "3", "--n", "5")
    _, second, _ = run("h1", "--k", "3", "--n", "5")
    assert first == second


def test_certify_trivial_windowed_fallback():
    # The exact attempt finds no f_V within the generator caps, so the
    # certificate comes from the windowed solve and carries a residual
    # outside the window.
    code, out, _ = run("certify-trivial", "--k=2", "--tau=-1", "--n=2",
                       "--sigma=-z^-5*u^3 + z^2 - 2*z^3*u")
    assert code == 0
    validate("certify_trivial", json.loads(out))
    assert out == json.dumps({
        "exact": False,
        "f_U": "z^2 - 2*z^3*u",
        "f_V": "-3*xi^7*v - 3*xi^8*v^2 - xi^9*v^3",
        "k": 2,
        "n": 2,
        "residual": "-z^-8",
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


def test_window_override_is_echoed():
    override = ("--min-z", "-12", "--max-z", "12", "--max-u", "5")
    docs = {
        argv[0]: payload(*argv, *override)
        for argv in (
            ("h1", "--k", "2", "--n", "4"),
            ("h0", "--k", "2", "--n", "4"),
            ("normal-form", "--k", "2", "--n", "4", "--sigma", "3*z^-1*u"),
            ("certify-trivial", "--k", "2", "--n", "2", "--tau", "1",
             "--sigma", "z^-1"),
        )
    }
    # h1 stabilizes from the override; since the value is already stable
    # there, every subcommand echoes the override itself
    for command, doc in docs.items():
        validate(command.replace("-", "_"), doc)
        assert doc["window"] == {"min_z": -12, "max_z": 12, "max_u": 5}
    assert docs["h1"]["dim"] == 4


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
