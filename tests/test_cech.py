"""Truncated Cech cohomology: dimensions, normal forms, certificates."""

import random
from fractions import Fraction as Q

import pytest

from cech_oracle import coboundary_matrix
from dense_oracle import rref_rank
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
    SupportOutsideWindow,
    WindowTooSmall,
)
from localsurfaces.laurent import BiLaurent, Monomial, U_CHART, parse_poly
from localsurfaces.surface import (
    line_transition,
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
    assert result.scalar_basis == (P("z^-3"), P("z^-2"), P("z^-1"), P("z^-1*u"))
    assert result.m_row == 1
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
    result = h1_line_bundle(surface(1), 0, window, stabilize=False)
    assert result.dimension == 0


def test_basis_shape_matches_normal_form_range():
    for k, n in [(1, 3), (2, 6), (3, 5), (4, 9)]:
        result = h1_line_bundle(surface(k), n)
        m = (n - 2) // k
        expected = {
            Monomial(l, i)
            for i in range(0, m + 1)
            for l in range(i * k - n + 1, 0)
        }
        got = {
            mono
            for vec in result.basis
            for mono in vec[0].support
        }
        assert got == expected
        assert result.dimension == h1_dimension_formula(k, n)


def test_inclusion_columns_span_nonnegative_exponents():
    s = surface(2)
    window = Window(-4, 4, 2)
    complex_ = CechComplex(s, line_transition(0), window)
    sigma = P("z^3 + u^2 + 5")
    assert complex_.normal_form(sigma).is_zero


# -- coboundary matrix -----------------------------------------------------------

def test_coboundary_matrix_shape_and_rank():
    s = surface(2)
    window = default_window(s, 4)
    matrix = coboundary_matrix(s, line_transition(-4), window)
    assert matrix.rows == window.size
    rank, _, _ = rref_rank(matrix)
    assert matrix.rows - rank == 4


def test_window_too_small():
    s = surface(2)
    with pytest.raises(WindowTooSmall):
        CechComplex(s, line_transition(-4), Window(0, 0, 0))


def test_window_without_negative_z_is_not_too_small():
    # With min_z = 0 no V column has a negative-z coordinate, but V images
    # still meet the window, so the complex exists (H^1 is 0 there) and a
    # cocycle reaching below the window is reported as such.
    s = surface(1)
    window = Window(0, 2, 4)
    assert CechComplex(s, line_transition(0), window).dimension == 0
    with pytest.raises(SupportOutsideWindow):
        triviality_certificate(
            P("-2*z^-3 + 3*u^3 - z^2*u^2"), s, 0, window
        )


# -- normal form -----------------------------------------------------------------

def test_normal_form_coboundary_example():
    # z^-5 = z^-4 * (xi in U-coords) is a coboundary for O(-4) on Z_2
    s = surface(2)
    assert to_U_coords(P("xi"), s) * P("z^-4") == P("z^-5")
    window = default_window(s, 4).hull([P("z^-5")])
    reduced = normal_form(P("z^-5"), s, line_transition(-4), window)
    assert reduced.is_zero


def test_normal_form_strips_u_holomorphic_part():
    s = surface(2)
    sigma = P("3*z^-1*u + z^2*u^7")
    window = default_window(s, 4).hull([sigma])
    reduced = normal_form(sigma, s, line_transition(-4), window)
    assert reduced == P("3*z^-1*u")


def test_normal_form_of_u_holomorphic_is_zero():
    s = surface(3, [0, 0])
    window = default_window(s, 2)
    assert normal_form(P("z^3"), s, line_transition(-2), window).is_zero


def test_normal_form_rejects_support_outside_window():
    s = surface(2)
    with pytest.raises(SupportOutsideWindow):
        normal_form(P("z^-20"), s, line_transition(-4), default_window(s, 4))


def test_normal_form_idempotent_linear_and_coboundary_invariant():
    rng = random.Random(41)
    s = surface(2)
    window = default_window(s, 4)
    complex_ = CechComplex(s, line_transition(-4), window)
    columns = complex_.columns

    def random_cocycle():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = Monomial(rng.randint(window.min_z, window.max_z),
                            rng.randint(0, window.max_u))
            terms[mono] = Q(rng.randint(-4, 4))
        return BiLaurent(terms, U_CHART)

    for _ in range(20):
        sigma = random_cocycle()
        tau = random_cocycle()
        nf_sigma = complex_.normal_form(sigma)
        assert complex_.normal_form(nf_sigma) == nf_sigma
        lhs = complex_.normal_form(sigma + tau * 3)
        assert lhs == complex_.normal_form(sigma) + complex_.normal_form(tau) * 3
        # adding any coboundary column leaves the class unchanged
        _, col = columns[rng.randrange(len(columns))]
        shift = complex_.decode(col)[0]
        assert complex_.normal_form(sigma + shift) == nf_sigma


# -- triviality certificates -------------------------------------------------------

def test_certificate_deformed_explicit():
    # on Z_2(z): z^-2 * v = u + z^-1, so sigma = z^-1 has the certificate
    # f_U = -u, f_V = v with zero residual
    s = surface(2, [1])
    cert = triviality_certificate(P("z^-1"), s, 2)
    assert cert.exact and cert.residual.is_zero
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
                Monomial(rng.randint(window.min_z, -1), rng.randint(0, 2)):
                    Q(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            }
            sigma = BiLaurent(terms, U_CHART)
            cert = triviality_certificate(sigma, s, n, window)
            recombined = cert.f_U + factor * to_U_coords(cert.f_V, s)
            assert sigma - recombined == cert.residual
            assert all(
                not window.contains(m) for m in cert.residual.support
            )
            assert cert.exact
            # chart holomorphy of the certificate data
            assert cert.f_U.is_zero or cert.f_U.min_z_exp() >= 0
            assert cert.f_V.is_zero or cert.f_V.min_z_exp() >= 0


def test_certificate_exactness_on_undeformed_coboundary():
    # z^-5 on Z_2 for O(-4): exact certificate via f_V = xi
    s = surface(2)
    window = default_window(s, 4).hull([P("z^-5")])
    cert = triviality_certificate(P("z^-5"), s, 4, window)
    assert cert.exact
    assert P("z^-5") == cert.f_U + P("z^-4") * to_U_coords(cert.f_V, s)


# -- h0 ------------------------------------------------------------------------

def test_h0_z1_trivial_bundle():
    window = Window(-3, 3, 2)
    result = h0_basis(surface(1), 0, window)
    expected = {
        BiLaurent({Monomial(l, i): Q(1)}, U_CHART)
        for l in range(0, window.max_z + 1)
        for i in range(0, window.max_u + 1)
        if l <= i
    }
    assert set(result.scalar_basis) == expected
    assert result.dimension == len(expected)


def test_h0_deformed_contains_u():
    result = h0_basis(surface(2, [1]), 0, Window(-3, 3, 2))
    assert P("u") in result.scalar_basis
    assert BiLaurent.const(1) in result.scalar_basis


def test_h0_sections_of_twists_restrict_correctly():
    # O(n) on Z_1 has n+1 sections along the zero section: count basis
    # elements that survive u = 0
    result = h0_basis(surface(1), 2, Window(-4, 4, 2))
    constants = [
        p for (p,) in result.basis
        if all(m.u_exp == 0 for m in p.support)
    ]
    assert len(constants) == 3


def test_h0_solutions_are_v_holomorphic():
    from localsurfaces.surface import is_V_holomorphic

    s = surface(2, [1])
    result = h0_basis(s, -1, Window(-4, 4, 2))
    for (p,) in result.basis:
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
        lambda w: CechComplex(s, line_transition(-4), w).dimension,
        default_window(s, 4),
    )
    assert stable.value == 4
    s_def = surface(3, [1, 0])
    stable = stabilize_window(
        lambda w: CechComplex(s_def, line_transition(-3), w).dimension,
        default_window(s_def, 3),
    )
    assert stable.value == 0


def test_stabilize_cap_exceeded():
    with pytest.raises(StepCapExceeded) as info:
        stabilize_window(lambda w: w.max_z, Window(-2, 2, 1), step_cap=4)
    assert info.value.last_value is not None
    assert info.value.last_window is not None


def test_growth_cap_env_override(monkeypatch):
    calls = []

    def compute(w):
        calls.append(w)
        return len(calls)  # never stabilizes

    monkeypatch.setenv("LOCALSURFACES_GROWTH_CAP", "3")
    with pytest.raises(StepCapExceeded):
        stabilize_window(compute, Window(-2, 2, 1))
    assert len(calls) == 4  # initial window plus three enlargements


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_growth_cap_env_must_be_positive_integer(monkeypatch, value):
    monkeypatch.setenv("LOCALSURFACES_GROWTH_CAP", value)
    with pytest.raises(ValueError, match="LOCALSURFACES_GROWTH_CAP|>= 1"):
        stabilize_window(lambda w: 0, Window(-2, 2, 1))


def test_growth_cap_argument_must_be_positive():
    with pytest.raises(ValueError):
        stabilize_window(lambda w: 0, Window(-2, 2, 1), step_cap=0)


# -- full oracle sweep (small slice; the complete sweep is in acceptance) ---------

def test_oracle_equality_small_sweep():
    for k in (1, 2, 3):
        for n in range(0, 7):
            result = h1_line_bundle(surface(k), n)
            assert result.dimension == h1_dimension_formula(k, n)
