"""Extensions, splitting types, split certificates and charge bookkeeping."""

import itertools
import random
from fractions import Fraction as Q

import pytest

from dense_oracle import RationalMatrix, nullspace
from localsurfaces import bundles, laurent, polymatrix
from localsurfaces.bundles import (
    DISCRETE_ZERO_DIMENSIONAL,
    ExtensionClass,
    charge_report,
    extension_parameter_count,
    extension_to_transition,
    moduli_dimension,
    restrict_to_zero_section,
    split_certificate,
    splitting_type_p1,
)
from localsurfaces.cech import h1, h1_line_bundle
from localsurfaces.errors import (
    CertificateNotFound,
    NonUnitDeterminant,
    NotApplicable,
    NoZeroSection,
)
from localsurfaces.laurent import BiLaurent, parse_poly
from localsurfaces.polymatrix import PolyMatrix
from localsurfaces.surface import surface, to_U_coords
from p1_oracle import splitting_type_by_columns


def P(text, tag=None):
    return parse_poly(text, tag)


def upper_triangular(a, b, off):
    return PolyMatrix([
        [P(f"z^{a}") if a else P("1"), off],
        [BiLaurent.zero(), P(f"z^{b}") if b else P("1")],
    ])


# -- independent splitting-type oracle ---------------------------------------------
#
# For [[z^a, c*z^e], [0, z^b]] on the projective line the class of the
# off-diagonal entry lives in the quotient of z-exponents modulo
# {>= a} (clearable by U-side column operations) and {<= b} (V-side);
# a surviving exponent b < e < a balances the bundle to O(-e) + O(e-a-b).

def oracle_monomial(a, b, coeff, e):
    if coeff == 0 or e >= a or e <= b:
        pair = (-a, -b)
    else:
        pair = (-e, e - a - b)
    return (max(pair), min(pair))


# Second, fully independent route: exhaustive section counting by a dense
# direct linear solve, matched against candidate splitting tuples.

def brute_h0(T, twist, degree_cap):
    r = T.size
    variables = [(slot, d) for slot in range(r) for d in range(degree_cap + 1)]
    row_keys = set()
    columns = []
    for slot, d in variables:
        col = {}
        for i in range(r):
            for (l, _), coeff in T.entries[i][slot].items():
                e = l + d - twist
                if e > 0:
                    col[(i, e)] = col.get((i, e), Q(0)) + coeff
        col = {key: val for key, val in col.items() if val}
        columns.append(col)
        row_keys.update(col)
    ordered = sorted(row_keys)
    matrix = RationalMatrix(
        [[col.get(key, Q(0)) for col in columns] for key in ordered]
        or [[Q(0)] * len(columns)]
    )
    return len(nullspace(matrix))


def oracle_by_section_profile(T, bound=8):
    span = max(
        abs(e)
        for row in T.entries
        for p in row
        if not p.is_zero
        for e in (p.min_z_exp(), p.max_z_exp())
    )
    _, det_exp = T.unit_det()
    candidates = [
        (j1, -det_exp - j1)
        for j1 in range(-bound, bound + 1)
        if j1 >= -det_exp - j1
    ]
    twists = range(-span - 3, span + 3)
    profile = {
        m: brute_h0(T, m, abs(m) + 4 * span + 2) for m in twists
    }
    matches = [
        c
        for c in candidates
        if all(
            profile[m] == max(0, c[0] + m + 1) + max(0, c[1] + m + 1)
            for m in twists
        )
    ]
    assert len(matches) == 1, f"profile matched {matches}"
    return matches[0]


# -- extension transitions -----------------------------------------------------------

def test_extension_transition_form():
    e = ExtensionClass(1, P("z^-1"))
    T = extension_to_transition(e)
    assert T == upper_triangular(1, -1, P("1"))
    assert T.det() == BiLaurent.const(1)


def test_extension_transition_diag_for_zero_class():
    T = extension_to_transition(ExtensionClass(3, BiLaurent.zero()))
    assert T == PolyMatrix.diagonal([P("z^3"), P("z^-3")])
    assert T.det() == BiLaurent.const(1)


def test_extension_p_round_trip():
    sigma = P("z^-1*u + 2*z^-3*u^2")
    e = ExtensionClass(2, sigma)
    assert e.p == P("z^2") * sigma
    assert e.p * P("z^-2") == sigma
    assert e.p.tag == laurent.U_CHART


def test_extension_determinant_always_one():
    rng = random.Random(53)
    for _ in range(10):
        sigma = BiLaurent(
            {(rng.randint(-4, 0), rng.randint(0, 2)): Q(rng.randint(-3, 3))}
        )
        for j in (0, 1, 3):
            T = extension_to_transition(ExtensionClass(j, sigma))
            assert T.det() == BiLaurent.const(1)


# -- restriction to the zero section ---------------------------------------------------

def test_restriction_drops_u_terms():
    e = ExtensionClass(2, P("z^-1*u"))
    restricted = restrict_to_zero_section(extension_to_transition(e), surface(2))
    assert restricted == PolyMatrix.diagonal([P("z^2"), P("z^-2")])


def test_restriction_of_u_free_matrix_is_identity_operation():
    T = upper_triangular(1, -1, P("1"))
    assert restrict_to_zero_section(T, surface(2)) == T


def test_restriction_fails_on_deformed():
    with pytest.raises(NoZeroSection):
        restrict_to_zero_section(PolyMatrix.identity(2), surface(2, [1]))


def test_restriction_preserves_det_degree():
    e = ExtensionClass(2, P("z^-1*u"))
    T = extension_to_transition(e)
    R = restrict_to_zero_section(T, surface(2))
    assert T.unit_det()[1] == R.unit_det()[1]


# -- splitting types ---------------------------------------------------------------------

def test_splitting_type_diagonal():
    assert splitting_type_p1(PolyMatrix.diagonal([P("z^2"), P("z^-2")])) == (2, -2)
    assert splitting_type_p1(PolyMatrix.diagonal([P("z^-1"), P("z^3")])) == (1, -3)


def test_splitting_type_balanced_extension():
    # the nontrivial extension of O(1) by O(-1) is trivial as a bundle
    assert splitting_type_p1(upper_triangular(1, -1, P("1"))) == (0, 0)


def test_splitting_type_sum_is_det_degree():
    rng = random.Random(59)
    for _ in range(15):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        e = rng.randint(-3, 3)
        T = upper_triangular(a, b, BiLaurent.term(rng.randint(1, 3), e, 0))
        split = splitting_type_p1(T)
        assert sum(split) == -T.unit_det()[1]


def test_splitting_type_matches_monomial_oracle_exhaustively():
    for a, b in itertools.product(range(-3, 4), repeat=2):
        for e in range(-3, 4):
            for coeff in (Q(0), Q(1), Q(-2)):
                T = upper_triangular(a, b, BiLaurent.term(coeff, e, 0)
                                     if coeff else BiLaurent.zero())
                assert splitting_type_p1(T) == oracle_monomial(a, b, coeff, e)


def test_splitting_type_matches_brute_force_profile_on_sample():
    rng = random.Random(61)
    for _ in range(6):
        a, b = rng.randint(-2, 3), rng.randint(-3, 2)
        e = rng.randint(-3, 3)
        coeff = Q(rng.randint(-2, 2))
        off = BiLaurent.term(coeff, e, 0) if coeff else BiLaurent.zero()
        T = upper_triangular(a, b, off)
        assert splitting_type_p1(T) == oracle_by_section_profile(T)


def test_splitting_type_binomial_off_diagonal():
    # two off-diagonal monomials, one clearable: behaves like the survivor
    T = upper_triangular(3, -1, P("z + z^4"))
    assert splitting_type_p1(T) == oracle_by_section_profile(T)


def test_normal_form_extensions_restrict_to_j_minus_j():
    # splitting-type-j normal forms have sigma vanishing on u = 0
    cases = [
        (2, 2, P("z^-1*u")),
        (3, 1, BiLaurent.zero()),
        (1, 3, P("z^-2*u + z^-4*u^2")),
        (2, 3, P("z^-3*u^2")),
    ]
    for k, j, sigma in cases:
        e = ExtensionClass(j, sigma)
        restricted = restrict_to_zero_section(
            extension_to_transition(e), surface(k)
        )
        assert splitting_type_p1(restricted) == (j, -j)


def test_splitting_type_rejects_u_terms():
    with pytest.raises(ValueError):
        splitting_type_p1(extension_to_transition(ExtensionClass(1, P("z^-1*u"))))


def test_splitting_type_checks_determinant_before_reducing(monkeypatch):
    def no_reduction(*args):
        raise AssertionError("column reduction started")

    monkeypatch.setattr(bundles, "nullspace", no_reduction)
    non_monomial = PolyMatrix([[P("1 + z"), BiLaurent.zero()],
                               [BiLaurent.zero(), P("1")]])
    zero_column = PolyMatrix([[P("z"), BiLaurent.zero()],
                              [P("z^-2"), BiLaurent.zero()]])
    for T in (non_monomial, zero_column):
        with pytest.raises(NonUnitDeterminant):
            splitting_type_p1(T)


def test_polymatrix_refuses_empty_and_ragged_rows():
    # det, unit_det, inverse and splitting_type_p1 of an empty matrix
    # raised a bare IndexError.
    for rows in ([], [[P("z")], [P("1")]], [[P("1"), P("z")], [P("1")]]):
        with pytest.raises(ValueError, match="empty|square"):
            PolyMatrix(rows)


def unimodular_frame(rng, r, reach):
    """A u-free transition with unit determinant: L @ D @ U with D a
    diagonal of monomials c z^a, L and U unipotent lower and upper with
    Laurent entries, rows and columns then permuted; every exponent in
    L, D and U lies in [-reach, reach], so T has span at most 3 * reach."""
    def laurent_entry():
        return BiLaurent({
            (rng.randint(-reach, reach), 0): Q(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, 2))
        })

    def unipotent(upper):
        return PolyMatrix([
            [BiLaurent.const(1) if i == j
             else laurent_entry() if (j > i) == upper else BiLaurent.zero()
             for j in range(r)]
            for i in range(r)
        ])

    diagonal = PolyMatrix.diagonal([
        BiLaurent.term(Q(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)),
                       rng.randint(-reach, reach), 0)
        for _ in range(r)
    ])
    T = unipotent(False) @ diagonal @ unipotent(True)
    rows, cols = list(range(r)), list(range(r))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return PolyMatrix([[T[i, j] for j in cols] for i in rows])


def span(T):
    return max(abs(e) for row in T.entries for p in row if not p.is_zero
               for e in (p.min_z_exp(), p.max_z_exp()))


def test_splitting_type_matches_the_bilaurent_column_reduction():
    # The dict reduction against the BiLaurent one it replaced, on ranks and
    # spans the section-count profile cannot afford.
    rng = random.Random(34)
    spans = set()
    for _ in range(150):
        r = rng.randint(2, 4)
        T = unimodular_frame(rng, r, rng.randint(0, 2))
        spans.add(span(T))
        split = splitting_type_p1(T)
        assert split == splitting_type_by_columns(T), T
        assert sum(split) == -T.unit_det()[1]
    assert max(spans) == 6


def test_column_reduction_builds_no_bilaurent(monkeypatch):
    # After its two checks, splitting_type_p1 reduces univariate dicts: it
    # multiplies and builds exactly what T.unit_det() does and nothing else,
    # and the determinant sums term dicts into one BiLaurent, its result.
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BiLaurent, "__mul__", counting("mul", BiLaurent.__mul__))
    monkeypatch.setattr(BiLaurent, "__init__", counting("init", BiLaurent.__init__))
    monkeypatch.setattr(laurent, "_raw", counting("raw", laurent._raw))
    monkeypatch.setattr(polymatrix, "_raw", counting("raw", polymatrix._raw))
    rng = random.Random(3)
    frames = [unimodular_frame(rng, rng.randint(2, 4), 2) for _ in range(20)]
    for a, b, e in itertools.product(range(-3, 4), repeat=3):
        frames.append(upper_triangular(a, b, P(f"-2/3*z^{e}")))
    reduced = 0
    for T in frames:
        counts.clear()
        T.unit_det()
        det_counts = dict(counts)
        assert det_counts == {"raw": 1}, T
        counts.clear()
        split = splitting_type_p1(T)
        assert counts == det_counts, T
        degrees = [max(p.max_z_exp() for p in col if not p.is_zero)
                   for col in zip(*T.entries)]
        reduced += split != tuple(sorted((-d for d in degrees), reverse=True))
    assert reduced > 50


def test_splitting_type_rank_one():
    for coeff, a in ((Q(1), 0), (Q(-3, 2), 4), (Q(5), -3)):
        T = PolyMatrix([[BiLaurent.term(coeff, a, 0)]])
        assert splitting_type_p1(T) == (-a,)


# -- split certificates ---------------------------------------------------------------------

def check_certificate(s, e, cert):
    # exact splitting: A_V T A_U^-1 equals the diagonal target, with
    # unipotent A_U and A_V
    T = extension_to_transition(e)
    a_v_u = cert.a_v.map_entries(lambda p: to_U_coords(p, s))
    assert (a_v_u @ T) @ cert.a_u.inverse() == cert.target
    assert cert.target == PolyMatrix.diagonal(
        [BiLaurent.term(1, e.j, 0), BiLaurent.term(1, -e.j, 0)]
    )
    assert cert.a_u.det() == cert.a_v.det() == BiLaurent.const(1)


def test_split_certificate_explicit_example():
    s = surface(2, [1])
    e = ExtensionClass(1, P("z^-1"))
    cert = split_certificate(s, e)
    assert cert.a_u == PolyMatrix([[P("1"), P("-u")], [P("0"), P("1")]])
    assert cert.a_v.entries[0][1] == P("-v")
    check_certificate(s, e, cert)


def test_split_certificate_identity_for_zero_class():
    s, e = surface(2, [1]), ExtensionClass(2, BiLaurent.zero())
    cert = split_certificate(s, e)
    assert cert.a_u == PolyMatrix.identity(2)
    assert cert.a_v == PolyMatrix.identity(2)
    check_certificate(s, e, cert)


def test_split_certificate_error_on_undeformed_nontrivial_class():
    with pytest.raises(CertificateNotFound):
        split_certificate(surface(2), ExtensionClass(2, P("z^-1*u")))


def test_split_certificates_over_h1_basis():
    # smaller version of the acceptance sweep (k = 2, j = 2)
    s = surface(2, [1])
    for sigma in h1_line_bundle(surface(2), 4).basis:
        e = ExtensionClass(2, sigma)
        check_certificate(s, e, split_certificate(s, e))


# -- charge reports ----------------------------------------------------------------------

def test_charge_z1_diag():
    # the split bundle O(-2) + O(2): h^1 = h^1(Z_1, O(-2)) = 1
    report = charge_report(surface(1), ExtensionClass(2, P("0")))
    assert report.r1_dim == 1
    assert report.splitting_ok
    assert report.q_dim == "unsupported"


def test_charge_identity_bundle():
    report = charge_report(surface(3), ExtensionClass(0, P("0")))
    assert report.r1_dim == 0


def test_charge_deformed_split_bundle():
    report = charge_report(surface(2, [1]), ExtensionClass(3, P("0")))
    assert report.r1_dim == 0
    assert not report.splitting_ok  # 3 is not a multiple of 2


def test_charge_divisibility_flag():
    assert charge_report(surface(2), ExtensionClass(4, P("0"))).splitting_ok
    assert not charge_report(surface(3), ExtensionClass(4, P("0"))).splitting_ok


# -- moduli dimension ---------------------------------------------------------------------

def test_moduli_dimension_values():
    assert moduli_dimension(3, 2) == 2
    assert moduli_dimension(2, 2) == 0
    assert moduli_dimension(2, 2, deformed=True) is DISCRETE_ZERO_DIMENSIONAL
    # k >= 1, as for h1_dimension_formula: 2j - k - 2 is no dimension at
    # k = 0 or k = -1, on either surface.
    for k in (0, -1):
        for deformed in (False, True):
            with pytest.raises(ValueError, match="k must be >= 1"):
                moduli_dimension(3, k, deformed=deformed)
    # j >= 0 on either surface, as every --j flag of the CLI takes it.
    for deformed in (False, True):
        with pytest.raises(ValueError, match="j must be >= 0"):
            moduli_dimension(-1, 2, deformed=deformed)


def test_moduli_dimension_not_applicable():
    with pytest.raises(NotApplicable):
        moduli_dimension(1, 2)


def test_extension_parameter_count():
    # count of H^1 basis classes with u-exponent >= 1, cross-checked
    # against the basis of the windowed complex
    for k in range(1, 7):
        for j in range(9):
            basis = h1(surface(k), 2 * j).basis
            expected = sum(
                1 for p in basis if all(i >= 1 for _, i in p.support)
            )
            assert extension_parameter_count(k, j) == expected, (k, j)
    # k >= 1 for every j, as for h1_dimension_formula.
    for k in (0, -1):
        for j in (0, 2):
            with pytest.raises(ValueError, match="k must be >= 1"):
                extension_parameter_count(k, j)
