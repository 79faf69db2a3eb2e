"""Acceptance suite: the ten exit criteria, all exact (no tolerances).

Each criterion is one test; the terminal summary prints one pass/fail line
per criterion (see conftest).  Run with

    pytest tests/test_acceptance.py -v
"""

import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from cech_oracle import FullComplex, default_window_for_transition
from localsurfaces.bundles import (
    DISCRETE_ZERO_DIMENSIONAL,
    ExtensionClass,
    charge_report,
    extension_to_transition,
    moduli_dimension,
    restrict_to_zero_section,
    split_certificate,
    splitting_type_p1,
)
from localsurfaces.cech import (
    h1_dimension_formula,
    h1_line_bundle,
)
from localsurfaces.deformation import (
    TangentExtensionClass,
    Verdict,
    deform_by_cocycle,
    ext_basis_tangent,
    family_and_ks,
    hirzebruch_embed_check,
    integrability_analysis,
    tangent_h1,
)
from localsurfaces.errors import NotApplicable
from localsurfaces.laurent import BiLaurent, parse_poly
from localsurfaces.polymatrix import PolyMatrix
from localsurfaces.surface import (
    glue_matrix,
    surface,
    tangent_transition,
    to_U_coords,
)


def P(text):
    return parse_poly(text)


def test_criterion_01_dimension_formula_oracle():
    # stabilized-window H^1(Z_k, O(-n)) equals (m+1)(2n-km-2)/2 for n >= 2
    # and 0 otherwise, for all k in 1..5, n in 0..10; exact; under 5 minutes
    started = time.time()
    for k in range(1, 6):
        for n in range(0, 11):
            result = h1_line_bundle(surface(k), n)
            assert result.stabilized
            assert result.dimension == h1_dimension_formula(k, n), (k, n)
    assert time.time() - started < 300


def test_criterion_02_tangent_cohomology():
    assert tangent_h1(1).dimension == 0
    for k in range(2, 7):
        result = tangent_h1(k)
        assert result.dimension == k - 1
        expected = tuple(
            (BiLaurent.zero(), BiLaurent.term(1, -k + i, 0))
            for i in range(1, k)
        )
        assert result.basis == expected


def test_criterion_03_deformed_vanishing():
    samples = {
        2: [P("z"), P("-3/2*z")],
        3: [P("z"), P("z + z^2"), P("-1/2*z^2"), P("1/2*z - z^2")],
        4: [P("z"), P("z + z^2"), P("2/3*z^3"),
            P("1/2*z - 2/3*z^2 + 3/4*z^3")],
    }
    for k, taus in samples.items():
        for tau in taus:
            coeffs = [tau.coefficient(i, 0) for i in range(1, k)]
            s = surface(k, coeffs)
            for n in range(2, 17):
                result = h1_line_bundle(s, n)
                assert result.dimension == 0, (k, str(tau), n)
                assert result.stabilized


def test_criterion_04_integrability_classification():
    for k in range(2, 6):
        ext, _ = ext_basis_tangent(k)
        verdicts = []
        for sigma in ext:
            cls = TangentExtensionClass.from_poly(k, sigma)
            report = integrability_analysis(k, cls)
            verdicts.append(report.verdict)
            if report.verdict in (
                Verdict.NONTRIVIAL_DEFORMATION, Verdict.TRIVIAL_FAMILY
            ):
                # tau_i = (1/i) s_{0,i-1} and t_k = (1/k) s_{0,k-1}
                for i in range(1, k):
                    assert report.tau[i - 1] == cls.s0.get(i - 1, Q(0)) / i
                assert report.t_k == cls.s0.get(k - 1, Q(0)) / k
        assert sorted(v.value for v in verdicts) == sorted(
            ["NotAJacobian", "NotIntegrable", "TrivialFamily"]
            + ["NontrivialDeformation"] * (k - 1)
        )


def test_criterion_05_family_consistency():
    rng = random.Random(2024)
    for k in range(2, 6):
        fam, ks = family_and_ks(k)
        for _ in range(10):
            tvals = [Q(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(k - 1)]
            s_fiber, corner = fam.fiber(tvals)
            s_cocycle = deform_by_cocycle(k, s_fiber.tau_poly())
            assert s_fiber == s_cocycle
            assert corner == glue_matrix(s_cocycle)
        # KS basis matrix is the identity
        s = surface(k)
        transition = tangent_transition(s)
        complex_ = FullComplex(
            s, transition, default_window_for_transition(s, transition)
        )
        basis = tangent_h1(k).basis
        for i in range(1, k):
            reduced = complex_.normal_form(ks[i])
            for j, vec in enumerate(basis, start=1):
                coeff = reduced[1].coefficient(*next(iter(vec[1].support)))
                assert coeff == (Q(1) if i == j else Q(0))


def test_criterion_06_hirzebruch_identity():
    for k in range(2, 6):
        report = hirzebruch_embed_check(k)
        assert all(r.is_zero for r in report.residuals_u), k
        assert all(r.is_zero for r in report.residuals_v), k
        assert report.overlap_consistent
        # t = 0 reduces to the plain embedding [1 : z^k u : ... : u]
        x0 = report.x_at([0] * (k - 1))
        assert x0[0] == BiLaurent.const(1)
        assert list(x0[1:]) == [P(f"z^{k - n}*u") for n in range(0, k + 1)]


def test_criterion_07_splitting_types():
    def oracle(a, b, coeff, e):
        # independent closed form: the off-diagonal class z^e survives the
        # column/row clearing iff b < e < a; a surviving class balances the
        # bundle to O(-e) + O(e-a-b)
        if coeff == 0 or e >= a or e <= b:
            pair = (-a, -b)
        else:
            pair = (-e, e - a - b)
        return (max(pair), min(pair))

    nil = BiLaurent.zero()
    for a, b in itertools.product(range(-3, 4), repeat=2):
        for e in range(-3, 4):
            for coeff in (Q(0), Q(1), Q(-2)):
                off = BiLaurent.term(coeff, e, 0) if coeff else nil
                T = PolyMatrix([
                    [BiLaurent.term(1, a, 0), off],
                    [nil, BiLaurent.term(1, b, 0)],
                ])
                assert splitting_type_p1(T) == oracle(a, b, coeff, e)

    # the nontrivial extension of O(1) by O(-1)
    T = PolyMatrix([
        [BiLaurent.term(1, 1, 0), BiLaurent.const(1)],
        [nil, BiLaurent.term(1, -1, 0)],
    ])
    assert splitting_type_p1(T) == (0, 0)

    # every splitting-type-j normal form restricts to (j, -j)
    cases = [
        (2, 1, BiLaurent.zero()),
        (2, 2, P("z^-1*u")),
        (1, 2, P("z^-2*u + z^-1*u^2")),
        (3, 3, P("z^-2*u")),
    ]
    for k, j, sigma in cases:
        e = ExtensionClass(j, sigma)
        restricted = restrict_to_zero_section(
            extension_to_transition(e), surface(k)
        )
        assert splitting_type_p1(restricted) == (j, -j)


def _deformed_certificate_samples():
    for k in (2, 3):
        s = surface(k, [Q(1)] + [Q(0)] * (k - 2))
        for j in (1, 2, 3):
            for sigma in h1_line_bundle(surface(k), 2 * j).basis:
                yield s, ExtensionClass(j, sigma)


def test_criterion_08_decomposability_certificates():
    checked = 0
    for s, e in _deformed_certificate_samples():
        cert = split_certificate(s, e)
        assert cert.a_u.det() == cert.a_v.det() == BiLaurent.const(1)
        # machine verification by exact matrix multiplication
        T = extension_to_transition(e)
        a_v_u = cert.a_v.map_entries(lambda p: to_U_coords(p, s))
        assert (a_v_u @ T) @ cert.a_u.inverse() == cert.target, (
            s, e.j, str(e.sigma))
        assert cert.target == PolyMatrix.diagonal(
            [BiLaurent.term(1, e.j, 0), BiLaurent.term(1, -e.j, 0)])
        checked += 1
    assert checked == sum(
        h1_dimension_formula(k, 2 * j) for k in (2, 3) for j in (1, 2, 3)
    )


def test_criterion_09_instanton_emptiness_shadow():
    # every bundle from the deformed samples has vanishing H^1
    for s, e in _deformed_certificate_samples():
        report = charge_report(s, e)
        assert report.r1_dim == 0, (s, e.j, str(e.sigma))
    # while on the undeformed Z_1 the split bundle O(-2) + O(2) has charge
    # component h^0(R^1 pi_* E) = 1
    report = charge_report(surface(1), ExtensionClass(2, BiLaurent.zero()))
    assert report.r1_dim == 1
    assert report.splitting_ok


def test_criterion_10_moduli_dimension_lookup():
    # documented-constant lookup: not recomputed at desk scale
    assert moduli_dimension(3, 2) == 2
    assert moduli_dimension(2, 2) == 0
    assert moduli_dimension(2, 2, deformed=True) is DISCRETE_ZERO_DIMENSIONAL
    with pytest.raises(NotApplicable):
        moduli_dimension(1, 2)
