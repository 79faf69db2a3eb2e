"""CechComplex and the windowless normal form against the full-window
reference assembly in cech_oracle, the extension-sequence H^1 of rank-2
bundles (charge_report, tangent_h1) against the same assembly of their
transitions, the windowless line-bundle H^1 against the windowed
computation, the integer u-degree division against
the rational one it replaced, the weight-graded triviality certificate
against the relation solve it replaced, its f_U from the terms the
division drops against the chart rewrite it replaced, certificates and
normal forms on ints over one running denominator against the Fraction
ones they replaced, and the H^0 basis from one V-rewrite per u-degree
against one V-rewrite per window column."""

import itertools
import json
import random
from fractions import Fraction as Q
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cech_oracle import (
    FullComplex,
    default_window_for_transition,
    divide,
    fraction_certificate,
    fraction_normal_form,
    h0_by_columns,
    line_transition,
    relation_certificate,
    relation_rank_trace,
    rewrite_certificate,
)
from localsurfaces import bundles, cech, deformation
from localsurfaces.bundles import (
    ExtensionClass,
    charge_report,
    extension_to_transition,
)
from localsurfaces.cech import (
    CechComplex,
    Window,
    default_window,
    h0_basis,
    h1,
    h1_dimension_formula,
    h1_line_bundle,
    normal_form,
    triviality_certificate,
)
from localsurfaces.deformation import tangent_h1
from localsurfaces.errors import NotTrivial
from localsurfaces.laurent import BiLaurent, U_CHART, V_CHART, parse_poly
from localsurfaces.linalg import IntegerEchelon
from localsurfaces.surface import surface, tangent_transition, to_U_coords

TAU_KINDS = {
    "zero": lambda k: [Q(0)] * (k - 1),
    "unit": lambda k: [Q(-1)] + [Q(0)] * (k - 2),
    "rational": lambda k: [Q(0)] * (k - 2) + [Q(2, 3)],
}
SURFACES = [(1, "zero")] + [
    (k, kind) for k in (2, 3, 4) for kind in TAU_KINDS
]


def random_cocycle(rng, window):
    return BiLaurent(
        {
            (
                rng.randint(window.min_z, window.max_z),
                rng.randint(0, window.max_u),
            ): Q(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        },
        U_CHART,
    )


def assert_matches_full_assembly(s, n, window, rng):
    # The windowed normal form of an in-window cocycle is the exact one.
    complex_ = CechComplex(s, n, window)
    full = FullComplex(s, line_transition(-n), window)
    assert complex_.dimension == full.dimension
    basis = [(0, mono) for p in complex_.basis() for mono in p.support]
    assert basis == full.basis_monomials()
    for _ in range(4):
        sigma = random_cocycle(rng, window)
        assert normal_form(sigma, s, n) == full.normal_form((sigma,))[0]


@pytest.mark.parametrize("k,tau_kind", SURFACES)
def test_line_bundles_match_full_assembly(k, tau_kind):
    # A window reaching just past z^0 keeps the dense reference small while
    # still cutting V images on both sides; n = 0..8 crosses every m-row
    # boundary for k <= 4.
    rng = random.Random(k * 10 + len(tau_kind))
    s = surface(k, TAU_KINDS[tau_kind](k))
    for n in range(0, 9):
        m = (n - 2) // k if n >= 2 else 0
        window = Window(default_window(s, n).min_z, 2, m + 2)
        assert_matches_full_assembly(s, n, window, rng)


def test_undeformed_default_windows_match_full_assembly():
    rng = random.Random(5)
    for k, n in [(1, 4), (2, 6), (3, 8), (4, 5)]:
        assert_matches_full_assembly(surface(k), n, default_window(surface(k), n), rng)


def assert_charge_matches_full_assembly(s, e):
    """charge_report's r1_dim is the dimension the full assembly of E's
    transition finds in the default window of that transition."""
    report = charge_report(s, e)
    transition = extension_to_transition(e)
    full = FullComplex(s, transition, default_window_for_transition(s, transition))
    assert report.r1_dim == full.dimension, (s, e.j, str(e.sigma))
    return report.r1_dim


# (j, sigma): the zero class, classes with nonnegative-z and u >= 1 terms,
# and on Z_k classes whose connecting map has positive rank, so that r1_dim
# falls below h^1(O(-j)).
EXTENSIONS = [
    (1, "z^-1"), (2, "0"), (2, "z^-1*u + 1/2*z^-2"), (2, "z^-1 + z^2 - u"),
]
UNDEFORMED_EXTENSIONS = [
    (3, "z^-3 - u^2 + z"), (3, "z^-2*u + z^-1"), (4, "z^-5*u"),
]


@pytest.mark.parametrize("k,tau_kind", [(1, "zero"), (2, "zero"), (2, "unit"),
                                        (3, "rational")])
def test_rank_two_extensions_match_full_assembly(k, tau_kind):
    s = surface(k, TAU_KINDS[tau_kind](k))
    cases = EXTENSIONS + ([] if s.is_deformed else UNDEFORMED_EXTENSIONS)
    deficits = []
    for j, sigma in cases:
        e = ExtensionClass(j, parse_poly(sigma))
        r1_dim = assert_charge_matches_full_assembly(s, e)
        if not s.is_deformed:
            deficits.append(h1_dimension_formula(k, j) - r1_dim)
    if s.is_deformed:
        return
    # sigma = 0 leaves all of H^1(O(-j)); on these surfaces some class has
    # a connecting map of positive rank.
    assert deficits[cases.index((2, "0"))] == 0
    assert any(deficits)


def test_charge_matches_full_assembly_on_seeded_extensions():
    # Random classes with terms anywhere in -2j-1 <= l <= 2, u <= 2: eight
    # on Z_k (k <= 3, j = 2, 3, where h^1(O(-j)) > 0), then three on
    # surfaces with a unit or a rational coefficient.
    rng = random.Random(9)
    positive_rank = 0
    for index in range(11):
        kind = "zero" if index < 8 else ("unit", "rational")[index % 2]
        k = rng.randint(1, 3) if kind == "zero" else rng.randint(2, 3)
        j = rng.randint(2, 3) if kind == "zero" else rng.randint(1, 2)
        s = surface(k, TAU_KINDS[kind](k))
        sigma = BiLaurent({
            (rng.randint(-2 * j - 1, 2), rng.randint(0, 2)):
                Q(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
            for _ in range(rng.randint(1, 4))
        })
        r1_dim = assert_charge_matches_full_assembly(s, ExtensionClass(j, sigma))
        if not s.is_deformed:
            positive_rank += r1_dim < h1_dimension_formula(k, j)
    assert positive_rank


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tangent_transition_matches_full_assembly(k):
    result = tangent_h1(k)
    s = surface(k)
    transition = tangent_transition(s)
    assert result.window is None
    assert result.stabilized
    full = FullComplex(s, transition, default_window_for_transition(s, transition))
    assert result.dimension == full.dimension == k - 1
    basis = [
        (slot, mono)
        for vec in result.basis
        for slot, comp in enumerate(vec)
        for mono in comp.support
    ]
    assert basis == full.basis_monomials()


def refuse_windowed_computation(monkeypatch):
    """Make every binding of CechComplex.__init__, stabilize_window and h1
    raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("windowed computation used")

    monkeypatch.setattr(CechComplex, "__init__", refuse)
    for module in (cech, bundles, deformation):
        for name in ("stabilize_window", "h1"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_rank_two_h1_builds_no_complex_and_tries_no_window(monkeypatch):
    # The extension-sequence H^1 uses no windowed computation.
    refuse_windowed_computation(monkeypatch)
    for k, tau, j, sigma in [(2, [0], 4, "z^-5*u"), (3, [0, 0], 3, "z^-1"),
                             (2, [1], 4, "z^-5*u"), (3, [Q(1, 2), 0], 3, "z^-2")]:
        charge_report(surface(k, tau), ExtensionClass(j, parse_poly(sigma)))
    for k in range(1, 6):
        tangent_h1(k)


def test_normal_form_builds_no_complex_and_tries_no_window(monkeypatch):
    # The normal form is the division remainder on zero tau and 0 on unit
    # and rational tau; sigma reaches far below the default window.
    refuse_windowed_computation(monkeypatch)
    sigma = parse_poly("z^-40*u^3 - 1/2*z^-3*u + 2*z^-1 + z^2")
    for k, tau, n, want in [(2, [0], 6, "-1/2*z^-3*u + 2*z^-1"),
                            (3, [0, 0], 5, "2*z^-1"),
                            (2, [1], 4, "0"), (3, [Q(1, 2), -1], 6, "0")]:
        assert str(normal_form(sigma, surface(k, tau), n)) == want


ORACLE_TAUS = {
    "zero": lambda rng, k: [Q(0)] * (k - 1),
    "unit": lambda rng, k: [
        Q(d) for d in rng.sample([rng.choice([1, -1])] + [0] * (k - 2), k - 1)
    ],
    "rational": lambda rng, k: [
        Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 4]))
        for _ in range(k - 1)
    ],
}


def test_line_bundle_h1_matches_windowed_stabilization():
    # The windowed stabilization from the default window, which
    # h1_line_bundle keeps for tau = 0, against the relation-rank proof it
    # uses on tau != 0.  Every k <= 6 with zero tau, one unit
    # coefficient in a seeded degree, and every coefficient rational, at
    # seeded twists -1 <= n <= 16; on rational tau the windowed side costs
    # seconds at large n, so those surfaces get one twist each.
    rng = random.Random(16)
    for kind, draw in ORACLE_TAUS.items():
        for k in range(1 if kind == "zero" else 2, 7):
            s = surface(k, draw(rng, k))
            for n in rng.sample(range(-1, 17), 1 if kind == "rational" else 3):
                windowed = h1(s, n)
                proved = h1_line_bundle(s, n)
                want = 0 if s.is_deformed else h1_dimension_formula(k, n)
                assert windowed.dimension == proved.dimension == want, (s, n)
                assert windowed.basis == proved.basis
                assert windowed.window == proved.window == default_window(s, n)
                assert windowed.stabilized and proved.stabilized


def test_relation_rank_matches_the_rational_echelon_level_by_level(monkeypatch):
    # h1_line_bundle counts the relation rank on an IntegerEchelon, and
    # every vector it inserts holds only ints.  The rational RREF count it
    # replaced (rref_oracle) has the same rank and the same leads after
    # every insert, so at the end of every level, and reaches the
    # closed-form count at the same insert, within the proved cap n - 1.
    # k <= 6 and n <= 16, on one unit coefficient and on rational tau.
    seen = []

    class Recorded(IntegerEchelon):
        def add(self, vec):
            assert all(type(x) is int for x in vec.values()), vec
            grew = super().add(vec)
            seen.append((self.rank, frozenset(self.pivots)))
            return grew

    monkeypatch.setattr(cech, "IntegerEchelon", Recorded)
    rng = random.Random(29)
    for kind in ("unit", "rational"):
        for k in range(2, 7):
            s = surface(k, ORACLE_TAUS[kind](rng, k))
            for n in [16, *rng.sample(range(-1, 16), 3)]:
                seen.clear()
                assert h1_line_bundle(s, n).dimension == 0
                trace = relation_rank_trace(s, n)
                assert [(rank, leads) for _, rank, leads in trace] == seen
                if n >= 2:
                    last_level, rank, _ = trace[-1]
                    assert rank == h1_dimension_formula(k, n)
                    assert last_level <= n - 1
                else:
                    assert trace == []


# -- H^0: the criterion and one V-rewrite per u-degree against one per column --

def test_h0_basis_matches_per_column_rewrites():
    # Equal CohomologyResults, so the same kernel basis in the same order,
    # in the default window and in a seeded custom one with max_u <= 4.
    # On Z_k, where h0_basis reads the monomial criterion a <= n + k*b,
    # k <= 7 and -6 <= n <= 12; on unit and rational tau, where it runs the
    # nullspace, 2 <= k <= 5 and -3 <= n <= 7.
    rng = random.Random(14)
    for kind, draw in ORACLE_TAUS.items():
        zero = kind == "zero"
        for k in range(1, 8) if zero else range(2, 6):
            s = surface(k, draw(rng, k))
            for n in range(-6, 13) if zero else range(-3, 8):
                custom = Window(-rng.randint(0, 6), rng.randint(0, 9),
                                rng.randint(0, 4))
                for window in (None, custom):
                    got = h0_basis(s, n, window)
                    assert got == h0_by_columns(s, n, window), (s, n, window)
                    assert all(p.tag == U_CHART for p in got.basis)


def counted_rewrites(monkeypatch):
    """The list of polynomials cech.to_V_coords is called on from now."""
    rewritten = []
    to_V_coords = cech.to_V_coords

    def counting(p, s):
        rewritten.append(p)
        return to_V_coords(p, s)

    monkeypatch.setattr(cech, "to_V_coords", counting)
    return rewritten


def test_h0_basis_rewrites_once_per_u_degree(monkeypatch):
    # On a deformed surface column (a, b) is z^a times z^-n u^b, so
    # h0_basis rewrites z^-n u^b once per u-degree b and shifts it along xi
    # for every a.
    rewritten = counted_rewrites(monkeypatch)
    for k, tau, n, window in [(2, [1], 3, None),
                              (3, [Q(1, 2), -1], 2, Window(-1, 12, 4)),
                              (4, [0, 1, 0], -2, Window(0, 0, 0))]:
        rewritten.clear()
        result = h0_basis(surface(k, tau), n, window)
        assert len(rewritten) == result.window.max_u + 1
        assert [p.max_u_exp() for p in rewritten] == list(range(len(rewritten)))


def test_h0_basis_on_z_k_rewrites_nothing(monkeypatch):
    # On Z_k the sections are read off the monomial criterion, with no
    # chart rewrite.
    rewritten = counted_rewrites(monkeypatch)
    for k, tau, n, window in [(1, [], 0, None), (2, [0], 3, None),
                              (4, [0, 0, 0], -2, Window(0, 0, 1))]:
        result = h0_basis(surface(k, tau), n, window)
        assert rewritten == [] and result.dimension > 0


# -- the integer division against the rational one ------------------------------

DIVISION_SETTINGS = settings(
    max_examples=80, derandomize=True, deadline=None, database=None
)

# Rationals with denominators up to 6; most draws are nonzero, so most tau
# with k >= 3 have several nonzero coefficients.
small_rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def division_cases(draw):
    k = draw(st.integers(1, 5))
    tau = draw(st.lists(small_rationals, min_size=k - 1, max_size=k - 1))
    n = draw(st.integers(0, 12))
    # sigma: the negative-z terms the certificate divides.
    sigma = draw(st.dictionaries(
        st.tuples(st.integers(-n - 4, -1), st.integers(0, n // k + 2)),
        small_rationals.filter(bool),
        min_size=1, max_size=6,
    ))
    levels = [b for b in range(1, n) if k * b >= n]
    tops = draw(st.lists(
        st.sampled_from(levels).flatmap(
            lambda b: st.tuples(st.integers(0, k * b - n), st.just(b))
        ),
        max_size=3,
    )) if levels else []
    return surface(k, tau), n, sigma, tops


@DIVISION_SETTINGS
@given(division_cases())
def test_integer_division_matches_the_rational_division(case):
    # In (z, u' = D*u) the coefficient on z^l u'^i is D^-i times the one on
    # z^l u^i, and the quotient on g'(a, b) = D^b g(a, b) is D^-b times the
    # one on g(a, b): scaling back, both must equal the Fraction division
    # in (z, u) exactly.  Relation tops z^l u'^b enter as the int 1, which
    # is D^b on z^l u^b, and divide on ints alone.
    s, n, sigma, tops = case
    scale = lcm(*(t.denominator for t in s.tau))
    _, powers = cech._integral_glue(s)
    rational_powers = [BiLaurent.const(1), s.v_glue().with_tag(None)]

    def check(terms, rational_terms):
        quotient, remainder = cech._divide(terms, s.k, n, powers)
        want_quotient, want_remainder = divide(
            rational_terms, s.k, n, rational_powers
        )
        assert {
            key: c * scale**key[1] for key, c in quotient.items()
        } == want_quotient
        assert {
            key: c * scale**key[1] for key, c in remainder.items()
        } == want_remainder
        return quotient, remainder

    check(
        [((l, i), c / scale**i) for (l, i), c in sigma.items()],
        list(sigma.items()),
    )
    for a, b in tops:
        levels = cech._relation_levels(s, n, powers)
        level = next(itertools.islice(levels, b - 1, None))
        key, quotient, remainder = next(itertools.islice(level, a, None))
        assert key == (a, b)
        top = (s.k * b - n - a, b)
        assert (quotient, remainder) == check([(top, 1)], [(top, scale**b)])
        assert all(
            type(c) is int
            for c in itertools.chain(quotient.values(), remainder.values())
        )


# -- triviality certificates: weight-graded solve against the relation solve

PINNED = Path(__file__).resolve().parent / "pinned"


def assert_certifies(cert, sigma, s, n):
    assert cert.exact
    assert cert.f_U.is_zero or cert.f_U.min_z_exp() >= 0
    assert cert.f_V.is_zero or cert.f_V.min_z_exp() >= 0
    twist = BiLaurent.term(1, -n, 0)
    assert sigma == cert.f_U + twist * to_U_coords(cert.f_V, s)


def test_weight_solve_matches_the_relation_solve_on_seeded_classes():
    # f_V is not unique, so the two solves may differ when tau has several
    # nonzero coefficients; both must re-check exactly.  With one nonzero
    # coefficient t_d z^d every image is homogeneous in weight, and both
    # solves pick the same f_V: certificate stdout there is unchanged.
    rng = random.Random(53)
    single = 0
    for _ in range(300):
        k, n = rng.randint(2, 5), rng.randint(1, 12)
        degrees = rng.sample(range(1, k), rng.randint(1, min(4, k - 1)))
        tau = [Q(0)] * (k - 1)
        for degree in degrees:
            tau[degree - 1] = Q(rng.choice([-3, -2, -1, 1, 2, 3]),
                                rng.randint(1, 4))
        s = surface(k, tau)
        sigma = BiLaurent({
            (rng.randint(-n - 3, -1), rng.randint(0, 3)):
                Q(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        }, U_CHART)
        cert = triviality_certificate(sigma, s, n)
        oracle = relation_certificate(sigma, s, n)
        assert_certifies(cert, sigma, s, n)
        if len(degrees) == 1:
            # Then f_U is the same too, so the oracle re-checks as well.
            single += 1
            assert cert.f_V == oracle.f_V
        else:
            assert_certifies(oracle, sigma, s, n)
    assert 100 < single < 200


def sweep_taus(k):
    """Zero, unit, rational and (for k >= 3) two-coefficient tau."""
    taus = [TAU_KINDS["zero"](k)]
    if k >= 2:
        taus += [TAU_KINDS["unit"](k), TAU_KINDS["rational"](k)]
    if k >= 3:
        taus.append([Q(1, 2)] + [Q(0)] * (k - 3) + [Q(-3, 4)])
    return taus


def test_dropped_terms_give_the_chart_rewrite_certificate():
    # f_U summed from the terms the division and the weight steps drop
    # equals the chart rewrite sigma - z^-n * to_U_coords(f_V), f_V is
    # unchanged, and NotTrivial falls on the same inputs with the same
    # message; sigma reaches both sides of z^0 and the twist is -3..12.
    rng = random.Random(61)
    certified = nontrivial = 0
    for k in range(1, 6):
        for n in range(-3, 13):
            for tau in sweep_taus(k):
                s = surface(k, tau)
                for _ in range(2):
                    sigma = BiLaurent({
                        (rng.randint(-n - 2, 2), rng.randint(0, 3)):
                            Q(rng.randint(-5, 5) or 1, rng.randint(1, 3))
                        for _ in range(rng.randint(1, 5))
                    }, U_CHART)
                    try:
                        oracle = rewrite_certificate(sigma, s, n)
                    except NotTrivial as exc:
                        nontrivial += 1
                        with pytest.raises(NotTrivial) as raised:
                            triviality_certificate(sigma, s, n)
                        assert str(raised.value) == str(exc)
                        continue
                    certified += 1
                    cert = triviality_certificate(sigma, s, n)
                    assert (cert.f_U, cert.f_V) == (oracle.f_U, oracle.f_V)
                    assert (cert.f_U.tag, cert.f_V.tag) == (U_CHART, V_CHART)
                    assert_certifies(cert, sigma, s, n)
    assert certified > 400 and nontrivial > 30


def test_int_certificates_match_the_fraction_oracle():
    # f_U, f_V and the normal form on ints over one running denominator
    # equal the Fraction computation exactly, and NotTrivial falls on the
    # same inputs with the same message.  Beside sweep_taus, tau = 2 and
    # -3/2 z^(k-1) have an integral coefficient t = D*t_d with |t| >= 2, as
    # the rational and two-coefficient tau do, so the denominator grows.
    rng = random.Random(67)
    certified = nontrivial = 0
    for k in range(1, 6):
        taus = sweep_taus(k)
        if k >= 2:
            taus += [[Q(2)] + [Q(0)] * (k - 2), [Q(0)] * (k - 2) + [Q(-3, 2)]]
        for n in range(-2, 17):
            for tau in taus:
                s = surface(k, tau)
                sigma = BiLaurent({
                    (rng.randint(-n - 3, 2), rng.randint(0, 3)):
                        Q(rng.randint(-7, 7) or 1, rng.randint(1, 4))
                    for _ in range(rng.randint(1, 6))
                }, U_CHART)
                assert normal_form(sigma, s, n) == fraction_normal_form(
                    sigma, s, n
                )
                try:
                    oracle = fraction_certificate(sigma, s, n)
                except NotTrivial as exc:
                    nontrivial += 1
                    with pytest.raises(NotTrivial) as raised:
                        triviality_certificate(sigma, s, n)
                    assert str(raised.value) == str(exc)
                    continue
                certified += 1
                cert = triviality_certificate(sigma, s, n)
                assert (cert.f_U, cert.f_V) == (oracle.f_U, oracle.f_V)
                assert (str(cert.f_U), str(cert.f_V)) == (
                    str(oracle.f_U), str(oracle.f_V)
                )
                # Canonical form: no zero term, an int where integral.
                assert all(
                    c and (type(c) is int or c.denominator != 1)
                    for p in (cert.f_U, cert.f_V) for _, c in p.items()
                )
    assert certified > 300 and nontrivial > 30


def test_relation_solve_prints_the_pinned_certificate():
    # The certificate certify-trivial printed with the relation solve.
    pinned = json.loads(
        (PINNED / "certify_trivial_k4_n6.relation_solve.json").read_text()
    )
    s = surface(4, [Q(1, 2), Q(-2, 3), Q(3, 4)])
    sigma = parse_poly(pinned["sigma"])
    cert = relation_certificate(sigma, s, 6)
    assert (str(cert.f_U), str(cert.f_V)) == (pinned["f_U"], pinned["f_V"])
