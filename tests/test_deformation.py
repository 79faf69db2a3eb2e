"""Tangent cohomology, integrability, the family, KS map and the embedding."""

import random
from fractions import Fraction as Q

import pytest

from cech_oracle import FullComplex
from localsurfaces.cech import h1_line_bundle, normal_form
from localsurfaces.deformation import (
    TangentExtensionClass,
    _integrate_z,
    Verdict,
    deform_by_cocycle,
    ext_basis_tangent,
    family_and_ks,
    hirzebruch_embed_check,
    integrability_analysis,
    normalization_residual,
    normalize_deformation,
    tangent_h1,
)
from localsurfaces.errors import BadCocycleSupport
from localsurfaces.laurent import BiLaurent, parse_poly
from localsurfaces.params import ParamPoly
from localsurfaces.surface import glue_matrix, surface


def P(text, tag=None):
    return parse_poly(text, tag)


# -- tangent cohomology ----------------------------------------------------------

def test_tangent_h1_z1_vanishes():
    assert tangent_h1(1).dimension == 0


def test_tangent_h1_basis_k3():
    result = tangent_h1(3)
    assert result.dimension == 2
    assert result.basis == (
        (BiLaurent.zero(), P("z^-2")),
        (BiLaurent.zero(), P("z^-1")),
    )


def test_tangent_h1_dimension_k5():
    assert tangent_h1(5).dimension == 4


# -- extension basis ---------------------------------------------------------------

def test_ext_basis_k3():
    ext, h1b = ext_basis_tangent(3)
    assert ext == (P("z^2*u"), P("z^-1"), P("1"), P("z"), P("z^2"))
    assert h1b == (P("z^-1*u"), P("z^-4"), P("z^-3"), P("z^-2"), P("z^-1"))


def test_ext_basis_k2():
    ext, _ = ext_basis_tangent(2)
    assert ext == (P("z*u"), P("z^-1"), P("1"), P("z"))


def test_ext_basis_size_matches_formula():
    from localsurfaces.cech import h1_dimension_formula

    for k in range(1, 7):
        ext, h1b = ext_basis_tangent(k)
        assert len(ext) == len(h1b) == h1_dimension_formula(k, k + 2) == k + 2


def test_ext_basis_corresponds_under_twist():
    for k in (2, 3, 4):
        ext, h1b = ext_basis_tangent(k)
        shift = P(f"z^{-k}")
        assert tuple(p * shift for p in ext) == h1b


def test_h1_basis_agrees_with_engine():
    for k in (2, 3):
        _, h1b = ext_basis_tangent(k)
        computed = h1_line_bundle(surface(k), k + 2)
        assert set(h1b) == set(computed.basis)


# -- integrability ------------------------------------------------------------------

def test_integrate_z_splits_off_the_logarithm():
    # row 2 of the candidate transition: -z^-2 integrates to z^-1 exactly
    assert _integrate_z(P("-z^-2")) == (P("z^-1"), BiLaurent.zero())
    # a z^-1*u term has no antiderivative on the punctured plane: its
    # coefficient goes to the logarithmic part, at u^1
    assert _integrate_z(P("3*z^-1*u + z^2*u - 4")) == (
        P("1/3*z^3*u - 4*z"), P("3*u")
    )


def test_integrability_nontrivial_direction():
    rep = integrability_analysis(3, TangentExtensionClass(3, s0={1: Q(1)}))
    assert rep.verdict is Verdict.NONTRIVIAL_DEFORMATION
    assert rep.tau == (Q(0), Q(1, 2))  # tau = 1/2 z^2
    assert rep.c == rep.c_prime == 0


def test_integrability_log_obstruction():
    for k in (2, 3, 5):
        rep = integrability_analysis(k, TangentExtensionClass(k, s0={-1: Q(1)}))
        assert rep.verdict is Verdict.NOT_INTEGRABLE


def test_integrability_trivial_family():
    for k in (2, 3, 4):
        rep = integrability_analysis(
            k, TangentExtensionClass(k, s0={k - 1: Q(1)})
        )
        assert rep.verdict is Verdict.TRIVIAL_FAMILY
        assert rep.t_k == Q(1, k)
        assert not any(rep.tau)


def test_integrability_not_a_jacobian():
    for k in (2, 4):
        rep = integrability_analysis(k, TangentExtensionClass(k, s1=Q(1)))
        assert rep.verdict is Verdict.NOT_A_JACOBIAN


def test_classification_completeness():
    # over the full extension basis the verdicts split 1/1/1/(k-1), and the
    # tau coefficients follow t_i = (1/i) s_{0,i-1}
    for k in range(2, 6):
        ext, _ = ext_basis_tangent(k)
        verdicts = []
        for sigma in ext:
            cls = TangentExtensionClass.from_poly(k, sigma)
            rep = integrability_analysis(k, cls)
            verdicts.append(rep.verdict)
            if rep.verdict is Verdict.NONTRIVIAL_DEFORMATION:
                exponent = sigma.max_z_exp()  # sigma = z^{i-1}
                expected = [Q(0)] * (k - 1)
                expected[exponent] = Q(1, exponent + 1)
                assert list(rep.tau) == expected
        counts = {v: verdicts.count(v) for v in set(verdicts)}
        assert counts == {
            Verdict.NOT_A_JACOBIAN: 1,
            Verdict.NOT_INTEGRABLE: 1,
            Verdict.TRIVIAL_FAMILY: 1,
            Verdict.NONTRIVIAL_DEFORMATION: k - 1,
        }


def test_tangent_dimension_equals_nontrivial_direction_count():
    # the two H^1 computations agree: the tangent cohomology dimension is
    # the number of integrable, nontrivial extension directions
    for k in range(2, 6):
        ext, _ = ext_basis_tangent(k)
        nontrivial = [
            sigma
            for sigma in ext
            if integrability_analysis(
                k, TangentExtensionClass.from_poly(k, sigma)
            ).verdict is Verdict.NONTRIVIAL_DEFORMATION
        ]
        assert tangent_h1(k).dimension == len(nontrivial) == k - 1


def test_not_a_jacobian_class_is_multiple_of_jacobian_class():
    # the z^{k-1} u direction deforms the tangent bundle trivially: its
    # cohomology class is a scalar multiple of the class of the Jacobian's
    # own extension form k z^{k-1} u
    for k in (2, 3):
        s = surface(k)
        shift = P(f"z^{-k}")
        direction = normal_form(P(f"z^{k-1}*u") * shift, s, k + 2)
        jacobian = normal_form(P(f"{k}*z^{k-1}*u") * shift, s, k + 2)
        assert jacobian == direction * k
        assert not direction.is_zero


def test_extension_class_support_validation():
    with pytest.raises(BadCocycleSupport):
        TangentExtensionClass.from_poly(3, P("z^3"))
    with pytest.raises(BadCocycleSupport):
        TangentExtensionClass.from_poly(3, P("z*u"))
    cls = TangentExtensionClass.from_poly(3, P("z^2*u + 2*z - 1"))
    assert cls.s1 == 1 and cls.s0 == {1: Q(2), 0: Q(-1)}
    assert cls.poly() == P("z^2*u + 2*z - 1")


# -- normalization -------------------------------------------------------------------

def test_normalize_deformation_example():
    s, phi = normalize_deformation(2, [1], Q(3), Q(5))
    assert s == surface(2, [1])
    assert phi.u_shift == 3 and phi.v_shift == -5


def test_normalize_identity_translation():
    _, phi = normalize_deformation(3, [1, 0], Q(0), Q(0))
    assert phi.is_identity


def test_normalization_residual_symbolic_zero():
    # identically zero over formal (tK, C) for several tau
    for k, tau in [(2, [1]), (3, [Q(1, 2), 2]), (4, [0, 1, 0])]:
        assert normalization_residual(k, tau).is_zero


# -- deformation via cocycle ------------------------------------------------------------

def test_deform_by_cocycle_examples():
    assert deform_by_cocycle(2, P("z")) == surface(2, [1])
    assert deform_by_cocycle(3, BiLaurent.zero()) == surface(3)
    assert deform_by_cocycle(4, P("z + 2*z^3")) == surface(4, [1, 0, 2])


def test_deform_by_cocycle_rejects_bad_support():
    with pytest.raises(BadCocycleSupport):
        deform_by_cocycle(2, P("z^2"))
    with pytest.raises(BadCocycleSupport):
        deform_by_cocycle(3, P("z*u"))
    with pytest.raises(BadCocycleSupport):
        deform_by_cocycle(3, P("1 + z"))


# -- the semiuniversal family -------------------------------------------------------------

def test_family_transition_shape():
    fam, _ = family_and_ks(3)
    assert fam.base_dim == 2
    assert len(fam.transition) == 4
    expected_tau = (
        ParamPoly.var("t1", fam.params)
        * ParamPoly.from_poly(P("1"), fam.params)
        + ParamPoly.var("t2", fam.params)
        * ParamPoly.from_poly(P("z"), fam.params)
    )
    assert fam.transition[1][0] == expected_tau
    assert fam.transition[0][0] == ParamPoly.from_poly(P("z^-2"), fam.params)


def test_family_fiber_at_zero_is_undeformed():
    fam, _ = family_and_ks(2)
    s, corner = fam.fiber([Q(0)])
    assert s == surface(2)
    assert corner == glue_matrix(surface(2))


def test_family_fibers_match_cocycle_deformation():
    rng = random.Random(47)
    for k in (2, 3, 4, 5):
        fam, _ = family_and_ks(k)
        for _ in range(10):
            tvals = [Q(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(k - 1)]
            s_fam, corner = fam.fiber(tvals)
            tau_poly = s_fam.tau_poly()
            s_cocycle = deform_by_cocycle(k, tau_poly)
            assert s_fam == s_cocycle
            assert corner == glue_matrix(s_cocycle)


def test_ks_images_are_tangent_basis():
    for k in (2, 3, 4):
        _, ks = family_and_ks(k)
        basis = tangent_h1(k).basis
        assert tuple(ks[i] for i in range(1, k)) == basis
        assert ks[1][1] == P(f"z^{1-k}")


def test_ks_basis_matrix_is_identity():
    # expressing each KS image in the computed tangent basis gives the
    # identity matrix: image i reduces to exactly basis vector i
    k = 4
    s = surface(k)
    from localsurfaces.surface import tangent_transition
    from cech_oracle import default_window_for_transition

    transition = tangent_transition(s)
    complex_ = FullComplex(s, transition, default_window_for_transition(s, transition))
    _, ks = family_and_ks(k)
    basis = tangent_h1(k).basis
    matrix = []
    for i in range(1, k):
        reduced = complex_.normal_form(ks[i])
        row = []
        for vec in basis:
            # coefficient of the basis monomial in the reduced image
            mono = next(iter(vec[1].support))
            row.append(reduced[1].coefficient(mono.z_exp, mono.u_exp))
        matrix.append(row)
    assert matrix == [
        [Q(1) if i == j else Q(0) for j in range(k - 1)] for i in range(k - 1)
    ]


def test_family_ks_spot_value():
    _, ks = family_and_ks(4)
    assert ks[2] == (BiLaurent.zero(), P("z^-2"))


# -- Hirzebruch embedding -------------------------------------------------------------------

def test_hirzebruch_residuals_vanish():
    for k in (2, 3, 4, 5):
        report = hirzebruch_embed_check(k)
        assert report.all_zero
        assert report.overlap_consistent
        assert len(report.residuals_u) == len(report.residuals_v) == k


def test_hirzebruch_reduces_to_plain_embedding_at_zero():
    for k in (2, 3, 4):
        report = hirzebruch_embed_check(k)
        x0 = report.x_at([0] * (k - 1))
        assert x0[0] == BiLaurent.const(1)
        assert list(x0[1:]) == [P(f"z^{k - n}*u") for n in range(0, k + 1)]
        y0 = report.y_at([0] * (k - 1))
        assert list(y0[1:]) == [
            parse_poly(f"xi^{n}*v" if n else "v") for n in range(0, k + 1)
        ]


def test_parameter_values_must_match_the_parameters():
    # Too few values used to raise a bare KeyError in x_at/y_at and too
    # many were dropped; fiber, x_at and y_at now all raise ValueError.
    fam, _ = family_and_ks(3)
    report = hirzebruch_embed_check(3)
    for at in (fam.fiber, report.x_at, report.y_at):
        for tvals in ([], [1], [1, 2, 3]):
            with pytest.raises(ValueError, match="wrong number of parameter values"):
                at(tvals)
        at([1, 2])


def test_hirzebruch_numeric_spot_check():
    # both sides of the defining relation agree at (z, u) = (1, 1),
    # k = 3, t = (1, 0)
    report = hirzebruch_embed_check(3)
    x = [p.evaluate(1, 1) for p in report.x_at([1, 0])]
    t = [Q(1), Q(0)]
    z0, z1 = Q(1), Q(1)  # [z0 : z1] = [1 : z] at z = 1
    lhs = [z0 * x[n] for n in range(1, 4)]
    rhs = [z1 * (x[2] + t[0] * x[0]), z1 * (x[3] + t[1] * x[0]), z1 * x[4]]
    assert lhs == rhs
