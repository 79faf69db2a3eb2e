"""Truncated Cech cohomology: dimensions, normal forms, certificates."""

import itertools
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from cech_oracle import coboundary_matrix, window_size
from dense_oracle import rref_rank
from localsurfaces import cech, linalg
from localsurfaces.bundles import ExtensionClass, charge_report, split_certificate
from localsurfaces.cech import (
    CechComplex,
    Window,
    default_window,
    h0_basis,
    h1_dimension_formula,
    h1_line_bundle,
    normal_form,
    stabilize_window,
    triviality_certificate,
)
from localsurfaces.errors import (
    NotTrivial,
    StepCapExceeded,
    TagMismatch,
    WindowTooSmall,
)
from localsurfaces.laurent import BiLaurent, U_CHART, V_CHART, parse_poly
from localsurfaces.linalg import IntegerEchelon
from localsurfaces.surface import (
    surface,
    to_U_coords,
)


def P(text, tag=None):
    return parse_poly(text, tag)


# -- dimension formula ---------------------------------------------------------

def test_formula_values():
    assert h1_dimension_formula(2, 4) == 4
    assert h1_dimension_formula(3, 5) == 5
    assert h1_dimension_formula(1, 2) == 1
    assert h1_dimension_formula(4, 0) == 0
    assert h1_dimension_formula(4, 1) == 0


def test_formula_counts_normal_form_monomials():
    # independent oracle: enumerate the monomial ranges directly
    for k in range(1, 6):
        for n in range(2, 11):
            m = (n - 2) // k
            count = sum(
                len(range(i * k - n + 1, 0)) for i in range(0, m + 1)
            )
            assert h1_dimension_formula(k, n) == count


# -- h1 ------------------------------------------------------------------------

def test_h1_z2_o_minus4():
    result = h1_line_bundle(surface(2), 4)
    assert result.dimension == 4
    assert result.basis == (P("z^-3"), P("z^-2"), P("z^-1"), P("z^-1*u"))
    assert result.stabilized


def test_h1_o_minus1_vanishes():
    for k in (1, 2, 5):
        assert h1_line_bundle(surface(k), 1).dimension == 0


def test_h1_deformed_vanishes():
    result = h1_line_bundle(surface(2, [1]), 4)
    assert result.dimension == 0
    assert result.stabilized


def test_h1_trivial_bundle_vanishes():
    # H^1(Z_k, O) = 0: the coboundary columns span a tiny window
    window = Window(-3, 3, 2)
    assert CechComplex(surface(1), 0, window).dimension == 0


def test_basis_shape_matches_normal_form_range():
    for k, n in [(1, 3), (2, 6), (3, 5), (4, 9)]:
        result = h1_line_bundle(surface(k), n)
        m = (n - 2) // k
        expected = {
            (l, i)
            for i in range(0, m + 1)
            for l in range(i * k - n + 1, 0)
        }
        got = {mono for p in result.basis for mono in p.support}
        assert got == expected
        assert result.dimension == h1_dimension_formula(k, n)


def test_inclusion_columns_span_nonnegative_exponents():
    # every nonnegative-z monomial is U-holomorphic, hence a coboundary
    assert normal_form(P("z^3 + u^2 + 5"), surface(2), 0).is_zero


# -- coboundary matrix -----------------------------------------------------------

def test_coboundary_matrix_shape_and_rank():
    s = surface(2)
    window = default_window(s, 4)
    matrix = coboundary_matrix(s, 4, window)
    assert matrix.rows == window_size(window)
    rank, _, _ = rref_rank(matrix)
    assert matrix.rows - rank == 4


def test_window_too_small():
    s = surface(2)
    with pytest.raises(WindowTooSmall):
        CechComplex(s, 4, Window(0, 0, 0))


def test_window_without_negative_z_is_not_too_small():
    # With min_z = 0 no V column has a negative-z coordinate, but V images
    # still meet the window, so the complex exists (H^1 is 0 there).
    s = surface(1)
    window = Window(0, 2, 4)
    assert CechComplex(s, 0, window).dimension == 0


# -- normal form -----------------------------------------------------------------

def test_normal_form_coboundary_example():
    # z^-5 = z^-4 * (xi in U-coords) is a coboundary for O(-4) on Z_2
    s = surface(2)
    assert to_U_coords(P("xi"), s) * P("z^-4") == P("z^-5")
    assert normal_form(P("z^-5"), s, 4).is_zero


def test_normal_form_strips_u_holomorphic_part():
    sigma = P("3*z^-1*u + z^2*u^7")
    assert normal_form(sigma, surface(2), 4) == P("3*z^-1*u")


def test_normal_form_of_u_holomorphic_is_zero():
    assert normal_form(P("z^3"), surface(3, [0, 0]), 2).is_zero


def test_normal_form_rejects_v_chart_cocycle():
    # sigma may reach past any window: z^-20 = z^-4 * xi^16 is a coboundary
    s = surface(2)
    assert normal_form(P("z^-20"), s, 4).is_zero
    with pytest.raises(TagMismatch):
        normal_form(P("xi^2*v"), s, 4)


def test_normal_form_idempotent_linear_and_coboundary_invariant():
    rng = random.Random(41)
    s = surface(2)
    window = default_window(s, 4)
    columns = CechComplex(s, 4, window).columns

    def random_cocycle():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = (rng.randint(window.min_z, window.max_z),
                    rng.randint(0, window.max_u))
            terms[mono] = Q(rng.randint(-4, 4))
        return BiLaurent(terms, U_CHART)

    def decode(col):
        # CechComplex's local index of z^l u^i, l < 0, is
        # (l - min_z) * (max_u + 1) + i.
        width = window.max_u + 1
        return BiLaurent({
            (index // width + window.min_z, index % width): c
            for index, c in col.items()
        }, U_CHART)

    for _ in range(20):
        sigma = random_cocycle()
        tau = random_cocycle()
        nf_sigma = normal_form(sigma, s, 4)
        assert normal_form(nf_sigma, s, 4) == nf_sigma
        lhs = normal_form(sigma + tau * 3, s, 4)
        assert lhs == nf_sigma + normal_form(tau, s, 4) * 3
        # adding any coboundary column leaves the class unchanged
        _, col = columns[rng.randrange(len(columns))]
        assert normal_form(sigma + decode(col), s, 4) == nf_sigma


# -- triviality certificates -------------------------------------------------------

def test_certificate_deformed_explicit():
    # on Z_2(z): z^-2 * v = u + z^-1, so sigma = z^-1 has the certificate
    # f_U = -u, f_V = v with zero residual
    s = surface(2, [1])
    cert = triviality_certificate(P("z^-1"), s, 2)
    assert cert.exact
    assert cert.f_U == P("-u")
    assert cert.f_V == P("v")
    # soundness, checked by direct evaluation
    assert P("z^-1") == cert.f_U + P("z^-2") * to_U_coords(cert.f_V, s)


def test_certificate_rejected_on_undeformed_basis_class():
    with pytest.raises(NotTrivial):
        triviality_certificate(P("z^-1"), surface(2), 4)


def test_certificate_of_zero():
    cert = triviality_certificate(BiLaurent.zero(), surface(2), 4)
    assert cert.f_U.is_zero and cert.f_V.is_zero and cert.exact


def test_certificate_soundness_random_trivial_classes():
    rng = random.Random(43)
    cases = [
        (surface(2, [1]), 3),
        (surface(3, [1, 0]), 4),
        (surface(3, [Q(1, 2), 1]), 2),
    ]
    for s, n in cases:
        window = default_window(s, n)
        factor = P(f"z^{-n}") if n else P("1")
        for _ in range(6):
            # random in-window cocycle; on a deformed surface every class
            # is trivial, so a certificate must exist
            terms = {
                (rng.randint(window.min_z, -1), rng.randint(0, 2)):
                    Q(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            }
            sigma = BiLaurent(terms, U_CHART)
            cert = triviality_certificate(sigma, s, n)
            recombined = cert.f_U + factor * to_U_coords(cert.f_V, s)
            assert sigma == recombined
            assert cert.exact
            # chart holomorphy of the certificate data
            assert cert.f_U.is_zero or cert.f_U.min_z_exp() >= 0
            assert cert.f_V.is_zero or cert.f_V.min_z_exp() >= 0


def test_certificate_exactness_on_undeformed_coboundary():
    # z^-5 on Z_2 for O(-4): exact certificate via f_V = xi
    s = surface(2)
    cert = triviality_certificate(P("z^-5"), s, 4)
    assert cert.exact
    assert P("z^-5") == cert.f_U + P("z^-4") * to_U_coords(cert.f_V, s)


@pytest.mark.parametrize("sigma, n, f_U, f_V", [
    ("z^-1", 0, "0", "xi"),
    ("z^-1 + z*u", -3, "z*u", "xi^4"),
])
def test_certificate_at_nonpositive_twist(sigma, n, f_U, f_V):
    # O(-n) for n <= 0: z^-n * f_V is V-holomorphic times a nonnegative
    # power of z, so sigma's negative-z part is all f_V and the rest f_U.
    s = surface(2, [1])
    cert = triviality_certificate(P(sigma), s, n)
    assert (str(cert.f_U), str(cert.f_V)) == (f_U, f_V)
    assert P(sigma) == cert.f_U + P(f"z^{-n}") * to_U_coords(cert.f_V, s)


def test_certificates_rewrite_no_chart(monkeypatch):
    # triviality_certificate reads f_U off the terms its division drops,
    # and split_certificate assembles its matrices from that certificate:
    # neither rewrites a polynomial to the other chart.
    def refuse(*args, **kwargs):
        raise AssertionError("chart rewrite used")

    monkeypatch.setattr(BiLaurent, "substitute", refuse)
    for k, tau, j, sigma in [(2, [1], 1, "z^-1"), (3, [Q(1, 2), -1], 2,
                             "z^-1 + 2*z^-3*u"), (4, [0, 0, 1], 3, "z^-5*u^2")]:
        s = surface(k, tau)
        triviality_certificate(P(sigma), s, 2 * j)
        split_certificate(s, ExtensionClass(j, P(sigma)))


def test_certificate_rejects_v_chart_cocycle():
    with pytest.raises(TagMismatch):
        triviality_certificate(P("xi^2*v"), surface(2, [1]), 2)


def cap_surfaces(rng):
    """(d, Z_k(tau)) for k = 2..5 and every lowest degree d of tau: tau is
    t_d z^d alone or with rational terms of every higher degree."""
    for k in range(2, 6):
        for d in range(1, k):
            for multi in (False, True):
                tau = [Q(0)] * (k - 1)
                tau[d - 1] = Q(rng.choice([1, -2, 3]), rng.choice([1, 2]))
                for degree in range(d + 1, k if multi else d):
                    tau[degree - 1] = Q(rng.randint(-3, 3), rng.randint(1, 3))
                yield d, surface(k, tau)


def test_certificate_reaches_every_normal_form_within_the_proved_cap():
    # The weight steps solve every class with images of v-degree
    # b <= n - 1, the cap proved in triviality_certificate.  sigma combines
    # every normal-form monomial.  With tau = t_1 z, z^-1 (weight -1) needs
    # b = b0 = n - 1, so the cap is reached.
    rng = random.Random(47)
    for d, s in cap_surfaces(rng):
        k = s.k
        for n in range(2, 13):
            sigma = BiLaurent({
                (l, i): Q(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
                for i in range((n - 2) // k + 1)
                for l in range(i * k - n + 1, 0)
            }, U_CHART)
            assert len(sigma.support) == h1_dimension_formula(k, n)
            cert = triviality_certificate(sigma, s, n)
            assert cert.exact
            assert cert.f_U.is_zero or cert.f_U.min_z_exp() >= 0
            assert cert.f_V.is_zero or cert.f_V.min_z_exp() >= 0
            twist = BiLaurent.term(1, -n, 0)
            assert sigma == cert.f_U + twist * to_U_coords(cert.f_V, s)
            assert cert.f_V.max_u_exp() <= n - 1
            if d == 1 and not any(s.tau[1:]):
                f_V = triviality_certificate(P("z^-1"), s, n).f_V
                assert f_V.max_u_exp() == n - 1


def test_deformed_normal_form_divides_and_solves_nothing(monkeypatch):
    # Z_k(tau) is affine for tau != 0, so normal_form returns 0 from the
    # theorem after checking the chart; fraction_normal_form re-checks that
    # value by the weight steps in test_cech_oracle.
    def refuse(*args):
        raise AssertionError("normal_form divided or solved on tau != 0")

    for name in ("_reduce", "_divide", "_weight_solve"):
        monkeypatch.setattr(cech, name, refuse)
    rng = random.Random(83)
    for _, s in cap_surfaces(rng):
        for n in range(-1, 13):
            terms = {
                (rng.randint(-n - 3, 2), rng.randint(0, 3)):
                    Q(rng.randint(-7, 7) or 1, rng.randint(1, 4))
                for _ in range(rng.randint(1, 6))
            }
            for tag in (U_CHART, None):
                reduced = normal_form(BiLaurent(terms, tag), s, n)
                assert reduced.is_zero and reduced.tag == U_CHART
            with pytest.raises(TagMismatch):
                normal_form(BiLaurent(terms, V_CHART), s, n)


def test_h1_relation_rank_reaches_the_count_within_the_proved_cap(monkeypatch):
    # h1_line_bundle proves H^1 = 0 inside the first relation level at
    # which the rank reaches the closed-form count: a level b <= n - 1, and
    # b = n - 1 when tau = t_1 z (with higher terms it can come sooner:
    # Z_4(z + z^2) needs only level ceil((n - 1) / 2)).  With the cap
    # lowered to n - 2, tau = t_1 z raises AssertionError instead of
    # reporting a dimension.
    real = cech._relation_levels
    started = []

    def counted(s, n, powers):
        for b, level in enumerate(real(s, n, powers), start=1):
            started.append(b)
            yield level

    monkeypatch.setattr(cech, "_relation_levels", counted)
    linear = []
    for d, s in cap_surfaces(random.Random(48)):
        if d == 1 and not any(s.tau[1:]):
            linear.append(s)
        for n in range(2, 13):
            started.clear()
            result = h1_line_bundle(s, n)
            assert (result.dimension, result.basis) == (0, ())
            assert started[-1] == n - 1 if s in linear else started[-1] < n

    def lowered(s, n, powers):
        return itertools.islice(real(s, n, powers), n - 2)

    monkeypatch.setattr(cech, "_relation_levels", lowered)
    for s in linear:
        for n in range(2, 13):
            with pytest.raises(AssertionError, match=f"level {n - 1}"):
                h1_line_bundle(s, n)


GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "h1_table.jsonl"


def test_deformed_h1_counts_its_rank_on_ints_only(monkeypatch):
    # The relation rank of deformed H^1 stays fraction-free: the library
    # has one echelon (linalg.ReducedEchelon is only a name for it), every
    # vector that reaches its add or reduce holds only ints, and no
    # Fraction is built once the surface is.  So do the ranks on tau = 0:
    # the windowed complex of every tau = 0 golden row, and the connecting
    # map of the charges of the eight Z_k extensions, with rational sigma,
    # of test_charge_matches_full_assembly_on_seeded_extensions.
    assert linalg.ReducedEchelon is IntegerEchelon
    counted, reduced, fractions = [], [], []
    real_add, real_reduce = IntegerEchelon.add, IntegerEchelon.reduce
    real_new = Q.__new__

    def built(cls, *args, **kwargs):
        fractions.append(args)
        return real_new(cls, *args, **kwargs)

    def checked(self, vec):
        counted.append(vec)
        assert all(type(x) is int for x in vec.values()), vec
        return real_add(self, vec)

    def checked_reduce(self, vec):
        reduced.append(vec)
        assert all(type(x) is int for x in vec.values()), vec
        return real_reduce(self, vec)

    monkeypatch.setattr(IntegerEchelon, "add", checked)
    monkeypatch.setattr(IntegerEchelon, "reduce", checked_reduce)
    rng = random.Random(53)
    for k in range(2, 6):
        for unit in (True, False):
            tau = [Q(0)] * (k - 1)
            for degree in rng.sample(range(k - 1), rng.randint(1, k - 1)):
                tau[degree] = (
                    Q(rng.choice([1, -1])) if unit
                    else Q(rng.choice([-3, -1, 2, 5]), rng.choice([2, 3, 4]))
                )
            s = surface(k, tau)
            monkeypatch.setattr(Q, "__new__", built)
            for n in range(-1, 13):
                assert h1_line_bundle(s, n).dimension == 0
            monkeypatch.setattr(Q, "__new__", real_new)
    assert not fractions
    assert len(counted) > 100 and len(reduced) >= len(counted)
    counted.clear()
    rows = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    undeformed = [row for row in rows if not any(map(Q, row["tau"]))]
    assert len(undeformed) == 55
    for row in undeformed:
        s = surface(row["k"])
        assert h1_line_bundle(s, row["n"]).dimension == row["dim"]
    windowed = len(counted)
    assert windowed > 100
    rng = random.Random(9)
    for _ in range(8):
        k = rng.randint(1, 3)
        j = rng.randint(2, 3)
        sigma = BiLaurent({
            (rng.randint(-2 * j - 1, 2), rng.randint(0, 2)):
                Q(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
            for _ in range(rng.randint(1, 4))
        })
        charge_report(surface(k), ExtensionClass(j, sigma))
    assert len(counted) > windowed


def test_certificates_divide_and_solve_on_ints_only(monkeypatch):
    # On a deformed surface every value the division and the weight steps
    # take or return is an int, whatever sigma's coefficients: sigma is
    # scaled once to numerators over one denominator, and the weight steps
    # scale by powers of t.  On unit tau with an int sigma no Fraction is
    # built at all once the surface is.
    real_divide, real_solve = cech._divide, cech._weight_solve
    calls = {"divide": 0, "solve": 0}

    def ints(values):
        return all(type(x) is int for x in values)

    def power_ints(powers):
        return ints(c for p in powers for _, c in p.items())

    def divide(terms, k, n, powers):
        terms = list(terms)
        assert ints(c for _, c in terms), terms
        quotient, remainder = real_divide(terms, k, n, powers)
        assert ints(itertools.chain(quotient.values(), remainder.values()))
        assert power_ints(powers)
        calls["divide"] += 1
        return quotient, remainder

    def solve(remainder, s, n, powers):
        assert ints(remainder.values()), remainder
        factor, quotient = real_solve(remainder, s, n, powers)
        assert ints([factor, *quotient.values()]) and power_ints(powers)
        calls["solve"] += 1
        return factor, quotient

    monkeypatch.setattr(cech, "_divide", divide)
    monkeypatch.setattr(cech, "_weight_solve", solve)
    rng = random.Random(71)
    certified = 0
    for k in range(2, 6):
        for unit in (True, False):
            tau = [Q(0)] * (k - 1)
            for degree in rng.sample(range(k - 1), rng.randint(1, k - 1)):
                tau[degree] = (
                    Q(rng.choice([1, -1])) if unit
                    else Q(rng.choice([-3, -1, 2, 5]), rng.choice([2, 3, 4]))
                )
            s = surface(k, tau)
            for n in range(-1, 13):
                sigma = BiLaurent({
                    (rng.randint(-n - 3, 2), rng.randint(0, 3)):
                        Q(rng.randint(-7, 7) or 1, rng.randint(1, 4))
                    for _ in range(rng.randint(1, 6))
                }, U_CHART)
                triviality_certificate(sigma, s, n)
                certified += 1
                assert normal_form(sigma, s, n).is_zero
    # Every call comes from a certificate: one division each, and a weight
    # solve for each nonzero remainder.  normal_form divides nothing here.
    assert calls["divide"] == certified and calls["solve"] > 40

    fractions = []
    real_new = Q.__new__

    def built(cls, *args, **kwargs):
        fractions.append(args)
        return real_new(cls, *args, **kwargs)

    for k in range(2, 6):
        s = surface(k, [Q(rng.choice([1, -1, 0])) for _ in range(k - 2)] + [Q(-1)])
        for n in range(-1, 13):
            sigma = BiLaurent({
                (rng.randint(-n - 3, 2), rng.randint(0, 3)): rng.randint(-7, 7)
                for _ in range(rng.randint(1, 6))
            }, U_CHART)
            monkeypatch.setattr(Q, "__new__", built)
            cert = triviality_certificate(sigma, s, n)
            monkeypatch.setattr(Q, "__new__", real_new)
            assert ints(c for p in (cert.f_U, cert.f_V) for _, c in p.items())
    assert not fractions


# -- h0 ------------------------------------------------------------------------

def test_h0_z1_trivial_bundle():
    window = Window(-3, 3, 2)
    result = h0_basis(surface(1), 0, window)
    expected = {
        BiLaurent({(l, i): Q(1)}, U_CHART)
        for l in range(0, window.max_z + 1)
        for i in range(0, window.max_u + 1)
        if l <= i
    }
    assert set(result.basis) == expected
    assert result.dimension == len(expected)


def test_h0_deformed_contains_u():
    result = h0_basis(surface(2, [1]), 0, Window(-3, 3, 2))
    assert P("u") in result.basis
    assert BiLaurent.const(1) in result.basis


def test_h0_sections_of_twists_restrict_correctly():
    # O(n) on Z_1 has n+1 sections along the zero section: count basis
    # elements that survive u = 0
    result = h0_basis(surface(1), 2, Window(-4, 4, 2))
    constants = [
        p for p in result.basis
        if all(i == 0 for _, i in p.support)
    ]
    assert len(constants) == 3


def test_h0_solutions_are_v_holomorphic():
    from localsurfaces.surface import is_V_holomorphic

    s = surface(2, [1])
    result = h0_basis(s, -1, Window(-4, 4, 2))
    for p in result.basis:
        assert is_V_holomorphic(p * P("z"), s)


# -- stabilization ----------------------------------------------------------------

def test_stabilize_constant_function():
    w0 = Window(-3, 3, 1)
    stable = stabilize_window(lambda w: 7, w0)
    assert stable.value == 7
    assert stable.window == w0
    assert stable.enlargements == 2


def test_stabilize_h1_dimensions():
    s = surface(2)
    stable = stabilize_window(
        lambda w: CechComplex(s, 4, w).dimension,
        default_window(s, 4),
    )
    assert stable.value == 4
    s_def = surface(3, [1, 0])
    stable = stabilize_window(
        lambda w: CechComplex(s_def, 3, w).dimension,
        default_window(s_def, 3),
    )
    assert stable.value == 0


def test_undeformed_complex_is_exact_at_the_default_window():
    # On tau = 0 each column is one monomial -z^(kb-n-a) u^b, so in any
    # window the pivots are its negative-z monomials with l <= ki - n and
    # the basis is the normal-form monomials ki - n < l < 0 once the window
    # holds them, as default_window and its enlargements do (see cech.h1).
    rng = random.Random(39)
    for k in range(1, 7):
        s = surface(k)
        for n in range(-2, 13):
            want = sorted((1, l, i) for i in range(max(n, 0))
                          for l in range(k * i - n + 1, 0))
            assert len(want) == h1_dimension_formula(k, n)
            w0 = default_window(s, n)
            seeded = [Window(w0.min_z - rng.randint(0, 4), w0.max_z + rng.randint(0, 4),
                             w0.max_u + rng.randint(0, 2)) for _ in range(2)]

            def compute(w):
                complex_ = CechComplex(s, n, w)
                assert [p.as_unit_monomial() for p in complex_.basis()] == want
                return complex_.dimension

            for w in seeded:
                assert compute(w) == len(want)
            stable = stabilize_window(compute, w0)
            assert (stable.value, stable.window, stable.enlargements) == (len(want), w0, 2)


def test_stabilize_cap_exceeded():
    calls = []

    def compute(w):
        calls.append(w)
        return w.max_z  # grows with every enlargement, never stabilizes

    with pytest.raises(StepCapExceeded) as info:
        stabilize_window(compute, Window(-2, 2, 1))
    # the initial window plus the fixed cap of 8 enlargements by (3, 1)
    assert calls == [Window(-2 - 3 * i, 2 + 3 * i, 1 + i) for i in range(9)]
    assert info.value.last_value == 26
    assert info.value.last_window == Window(-26, 26, 9)


def test_growth_cap_env_override(monkeypatch):
    calls = []

    def compute(w):
        calls.append(w)
        return len(calls)  # never stabilizes

    # the growth cap is fixed: the environment no longer overrides it
    monkeypatch.setenv("LOCALSURFACES_GROWTH_CAP", "3")
    with pytest.raises(StepCapExceeded):
        stabilize_window(compute, Window(-2, 2, 1))
    assert len(calls) == 9  # initial window plus the fixed eight enlargements


# -- full oracle sweep (small slice; the complete sweep is in acceptance) ---------

def test_oracle_equality_small_sweep():
    for k in (1, 2, 3):
        for n in range(0, 7):
            result = h1_line_bundle(surface(k), n)
            assert result.dimension == h1_dimension_formula(k, n)
