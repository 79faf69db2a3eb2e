"""ParamPoly products, powers and substitutions, and PolyMatrix
determinants, re-checked in sympy's sparse polynomial rings over QQ, which
share no code with localsurfaces.  Each input is drawn once as plain dicts
and built on both sides; a negative z-exponent is cleared by multiplying
both sides by a power z^M."""

import itertools
import random
from fractions import Fraction as Q

import pytest

from localsurfaces.deformation import normalization_residual
from localsurfaces.errors import NonUnitDeterminant, TagMismatch
from localsurfaces.laurent import BiLaurent, U_CHART, V_CHART
from localsurfaces.params import ParamPoly
from localsurfaces.polymatrix import PolyMatrix

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

QQ = sympy.QQ


def qq(c):
    c = Q(c)
    return QQ(c.numerator, c.denominator)


def random_terms(rng, max_terms, z_range, u_max):
    """{(z_exp, u_exp): nonzero rational} with up to max_terms terms."""
    return {
        (rng.randint(*z_range), rng.randint(0, u_max)):
            Q(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
        for _ in range(rng.randint(1, max_terms))
    }


def min_z(terms):
    return min((l for l, _ in terms), default=0)


# -- ParamPoly --------------------------------------------------------------

def random_param_data(rng, nparams, z_range=(-3, 3)):
    """{parameter exponents: {(z_exp, u_exp): rational}}."""
    return {
        tuple(rng.randint(0, 2) for _ in range(nparams)):
            random_terms(rng, 3, z_range, 2)
        for _ in range(rng.randint(1, 4))
    }


def param_poly(params, data):
    return ParamPoly(params, {e: BiLaurent(t) for e, t in data.items()})


def shift_of(data):
    """The least M >= 0 that clears the negative z-exponents of data."""
    return max(0, -min((min_z(t) for t in data.values()), default=0))


def data_of(p):
    return {e: dict(c.items()) for e, c in p._terms.items()}


def in_ring(R, data, m):
    """z^m times the polynomial data as an element of R = Q[z, u, t...];
    a term left with a negative z-exponent fails the check."""
    out = {}
    for exps, terms in data.items():
        for (l, i), c in terms.items():
            assert l + m >= 0, (data, m)
            out[(l + m, i, *exps)] = qq(c)
    return R.from_dict(out)


def substitute_in_ring(R, data, z_power, u_power, m):
    """z^m * data(z image, u image) in R.  z_power(l) and u_power(i) give
    a power of an image as (element of R, e), the power being that
    element times z^e, so that no negative exponent enters R."""
    z, u, *ts = R.gens
    total = R.zero
    for exps, terms in data.items():
        t_part = R.one
        for t, e in zip(ts, exps):
            t_part *= t ** e
        for (l, i), c in terms.items():
            (z_part, ez), (u_part, eu) = z_power(l), u_power(i)
            assert m + ez + eu >= 0, (data, m)
            total += qq(c) * t_part * z_part * u_part * z ** (m + ez + eu)
    return total


def test_param_poly_arithmetic_rechecks_in_sympy():
    # ParamPoly's *, ** and substitute_vars (the operations the
    # Kodaira-Spencer, normalization and Hirzebruch checks are made of)
    # against the same products in Q[z, u, t1, ...].
    rng = random.Random(40)
    checked = 0
    for nparams in (1, 2, 3):
        params = tuple(f"t{i}" for i in range(1, nparams + 1))
        R = ring(",".join(("z", "u") + params), QQ)[0]
        for _ in range(40):
            a, b = random_param_data(rng, nparams), random_param_data(rng, nparams)
            pa, pb = param_poly(params, a), param_poly(params, b)
            ma, mb = shift_of(a), shift_of(b)
            ra, rb = in_ring(R, a, ma), in_ring(R, b, mb)
            assert in_ring(R, data_of(pa * pb), ma + mb) == ra * rb
            e = rng.randint(0, 3)
            assert in_ring(R, data_of(pa ** e), e * ma) == ra ** e
            # u -> b; z -> a ParamPoly (on z-exponents >= 0) or a unit
            # monomial c0*z^a0, whose negative powers are c0^l*z^(a0*l)
            def u_power(i):
                return rb ** i, -mb * i

            if rng.random() < 0.5:
                c0, a0 = rng.choice((1, -2, Q(1, 3))), rng.choice((-2, -1, 1, 2))
                target = a
                z_lib = ParamPoly.from_poly(BiLaurent.term(c0, a0, 0), params)

                def z_power(l):
                    return qq(Q(c0) ** l), a0 * l

                m = max([mb * i - a0 * l for t in a.values() for l, i in t] + [0])
            else:
                target = random_param_data(rng, nparams, z_range=(0, 3))
                zd = random_param_data(rng, nparams, z_range=(-1, 2))
                mz, z_lib = shift_of(zd), param_poly(params, zd)
                rz = in_ring(R, zd, mz)

                def z_power(l):
                    return rz ** l, -mz * l

                m = max(mz * l + mb * i for t in target.values() for l, i in t)
            got = param_poly(params, target).substitute_vars(z=z_lib, u=pb)
            assert in_ring(R, data_of(got), m) == substitute_in_ring(
                R, target, z_power, u_power, m)
            checked += 1
    assert checked == 120


def test_normalization_residual_sides_recheck_in_sympy():
    # normalization_residual is lhs - rhs with both sides built by the same
    # ParamPoly products, so a product fault cancels in it.  Its two sides,
    # built as it builds them, each equal z^k (u + tK) + tau in
    # Q[z, u, tK, C].
    rng = random.Random(41)
    params = ("tK", "C")
    R, z, u, t_k, _ = ring("z,u,tK,C", QQ)
    for k in range(1, 7):
        for _ in range(3):
            tau = {i: Q(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(1, k)}
            tau_lib = BiLaurent({(i, 0): x for i, x in tau.items()})
            tau_ring = sum((qq(x) * z ** i for i, x in tau.items()), R.zero)
            t_k_lib, c_lib = (ParamPoly.var(name, params) for name in params)
            tau_poly = ParamPoly.from_poly(tau_lib, params)
            u_var = ParamPoly.from_poly(BiLaurent.term(1, 0, 1), params)
            z_k = ParamPoly.from_poly(BiLaurent.term(1, k, 0), params)
            lhs = (z_k * u_var + tau_poly).substitute_vars(u=u_var + t_k_lib)
            rhs = z_k * (u_var + t_k_lib) + tau_poly + c_lib - c_lib
            want = z ** k * (u + t_k) + tau_ring
            assert in_ring(R, data_of(lhs), 0) == want
            assert in_ring(R, data_of(rhs), 0) == want
            assert normalization_residual(k, tau_lib).is_zero


# -- PolyMatrix determinants --------------------------------------------------

R2 = ring("z,u", QQ)[0]


def random_entries(rng, r, density):
    return [[random_terms(rng, 3, (-2, 2), 2) if rng.random() < density else {}
             for _ in range(r)] for _ in range(r)]


def monomial_det_entries(rng, r):
    """Upper triangular with monomial diagonal c*z^a, then rows and columns
    permuted: the determinant is a unit monomial times a sign."""
    rows = [[{} for _ in range(r)] for _ in range(r)]
    for i in range(r):
        rows[i][i] = {(rng.randint(-3, 3), 0): Q(rng.choice((1, -2, 3)), rng.choice((1, 2)))}
        for j in range(i + 1, r):
            if rng.random() < 0.7:
                rows[i][j] = random_terms(rng, 3, (-2, 2), 2)
    perm_rows, perm_cols = list(range(r)), list(range(r))
    rng.shuffle(perm_rows)
    rng.shuffle(perm_cols)
    return [[rows[i][j] for j in perm_cols] for i in perm_rows]


def sympy_det(entries):
    """(z^(r*M) * det, M) in Q[z, u] by sympy's DomainMatrix, each entry
    times z^M."""
    r = len(entries)
    m = max(0, -min(min_z(t) for row in entries for t in row))
    shifted = [[R2.from_dict({(l + m, i): qq(c) for (l, i), c in t.items()})
                for t in row] for row in entries]
    return DomainMatrix(shifted, (r, r), R2.to_domain()).det(), r * m


def test_determinant_rechecks_in_sympy():
    rng = random.Random(42)
    kinds = {"zero row": 0, "non-monomial": 0, "unit": 0}
    for r in (1, 2, 3, 4):
        cases = [random_entries(rng, r, density) for density in (0.4, 0.8, 1.0)
                 for _ in range(12)]
        cases += [monomial_det_entries(rng, r) for _ in range(12)]
        for _ in range(4):
            entries = random_entries(rng, r, 0.8)
            entries[rng.randrange(r)] = [{} for _ in range(r)]
            cases.append(entries)
        for entries in cases:
            T = PolyMatrix([[BiLaurent(t) for t in row] for row in entries])
            want, shift = sympy_det(entries)
            got = dict(T.det().items())
            assert min_z(got) + shift >= 0 and 0 not in got.values()
            assert R2.from_dict({(l + shift, i): qq(c) for (l, i), c in got.items()}) == want
            terms = want.terms()
            if len(terms) == 1 and terms[0][0][1] == 0:
                (l, _), c = terms[0]
                coeff, z_exp = T.unit_det()
                assert (qq(coeff), z_exp) == (c, l - shift)
                kinds["unit"] += 1
            else:
                with pytest.raises(NonUnitDeterminant):
                    T.unit_det()
                kinds["non-monomial" if want else "zero row"] += 1
    assert min(kinds.values()) >= 16, kinds


def cofactor_det(rows):
    """The determinant by BiLaurent products and sums along the first row,
    skipping zero entries: the tag reference for PolyMatrix.det."""
    if len(rows) == 1:
        return rows[0][0]
    total = BiLaurent.zero()
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        cofactor = entry * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def test_determinant_tags_follow_the_cofactor_products():
    # The tag of det() is the one BiLaurent products and sums of the same
    # expansion give, and mixed U and V entries raise the same TagMismatch.
    rng = random.Random(43)
    mismatches = tagged = 0
    for r in (1, 2, 3, 4):
        for _ in range(60):
            entries = random_entries(rng, r, rng.choice((0.5, 1.0)))
            rows = [[BiLaurent(t, rng.choice((None, None, U_CHART, V_CHART)))
                     for t in row] for row in entries]
            T = PolyMatrix(rows)
            try:
                want = cofactor_det(T.entries)
            except TagMismatch as exc:
                with pytest.raises(TagMismatch, match=f"^{exc}$"):
                    T.det()
                mismatches += 1
                continue
            got = T.det()
            assert got == want and got.tag == want.tag
            tagged += got.tag is not None
    assert mismatches > 50 and tagged > 50
    mixed = PolyMatrix([[BiLaurent.term(1, 1, 0, U_CHART), BiLaurent.term(1, 0, 0)],
                        [BiLaurent.term(1, 0, 1), BiLaurent.term(1, -1, 0, V_CHART)]])
    with pytest.raises(TagMismatch):
        mixed.det()
    with pytest.raises(TagMismatch):
        mixed.unit_det()
    assert all(
        PolyMatrix([[BiLaurent.term(1, a, 0, tag), BiLaurent.zero()],
                    [BiLaurent.zero(), BiLaurent.term(1, b, 0)]]).det().tag == tag
        for tag, a, b in itertools.product((None, U_CHART, V_CHART), (0, 2), (-1, 3))
    )
