"""CechComplex against the full-window reference assembly in cech_oracle, and
the windowless line-bundle H^1 against the windowed computation."""

import random
from fractions import Fraction as Q

import pytest

from cech_oracle import FullComplex
from localsurfaces.bundles import ExtensionClass, extension_to_transition
from localsurfaces.cech import (
    CechComplex,
    Window,
    default_window,
    default_window_for_transition,
    h1,
    h1_dimension_formula,
    h1_line_bundle,
)
from localsurfaces.laurent import BiLaurent, Monomial, U_CHART, parse_poly
from localsurfaces.surface import line_transition, surface, tangent_transition

TAU_KINDS = {
    "zero": lambda k: [Q(0)] * (k - 1),
    "unit": lambda k: [Q(-1)] + [Q(0)] * (k - 2),
    "rational": lambda k: [Q(0)] * (k - 2) + [Q(2, 3)],
}
SURFACES = [(1, "zero")] + [
    (k, kind) for k in (2, 3, 4) for kind in TAU_KINDS
]


def random_cocycle(rng, rank, window):
    return tuple(
        BiLaurent(
            {
                Monomial(
                    rng.randint(window.min_z, window.max_z),
                    rng.randint(0, window.max_u),
                ): Q(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(1, 5))
            },
            U_CHART,
        )
        for _ in range(rank)
    )


def assert_matches_full_assembly(s, transition, window, rng):
    complex_ = CechComplex(s, transition, window)
    full = FullComplex(s, transition, window)
    assert complex_.dimension == full.dimension
    basis = [
        (slot, mono)
        for vec in complex_.basis()
        for slot, comp in enumerate(vec)
        for mono in comp.support
    ]
    assert basis == full.basis_monomials()
    for _ in range(4):
        sigma = random_cocycle(rng, complex_.rank, window)
        assert complex_.normal_form(sigma) == full.normal_form(sigma)


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
        assert_matches_full_assembly(s, line_transition(-n), window, rng)


def test_undeformed_default_windows_match_full_assembly():
    rng = random.Random(5)
    for k, n in [(1, 4), (2, 6), (3, 8), (4, 5)]:
        s = surface(k)
        assert_matches_full_assembly(
            s, line_transition(-n), default_window(s, n), rng
        )


@pytest.mark.parametrize("k,tau_kind", [(1, "zero"), (2, "zero"), (2, "unit"),
                                        (3, "rational")])
def test_rank_two_extensions_match_full_assembly(k, tau_kind):
    rng = random.Random(k)
    s = surface(k, TAU_KINDS[tau_kind](k))
    for j, sigma in [(1, "z^-1"), (2, "z^-1*u + 1/2*z^-2")]:
        transition = extension_to_transition(ExtensionClass(j, parse_poly(sigma)))
        window = default_window_for_transition(s, transition)
        assert_matches_full_assembly(s, transition, window, rng)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tangent_transition_matches_full_assembly(k):
    s = surface(k)
    transition = tangent_transition(s)
    window = default_window_for_transition(s, transition)
    assert_matches_full_assembly(s, transition, window, random.Random(k))


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
                window = default_window(s, n)
                windowed = h1(s, line_transition(-n), window)
                proved = h1_line_bundle(s, n)
                want = 0 if s.is_deformed else h1_dimension_formula(k, n)
                assert windowed.dimension == proved.dimension == want, (s, n)
                assert windowed.basis == proved.basis
                assert windowed.window == proved.window == window
                assert windowed.stabilized and proved.stabilized
