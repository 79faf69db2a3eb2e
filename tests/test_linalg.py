"""The fraction-free echelon and its kernels, against the sparse rational
RREF of rref_oracle and the dense RREF oracle."""

import json
import random
import re
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

import pytest

from cech_oracle import _solve_in_span, coboundary_matrix
from dense_oracle import RationalMatrix, nullspace, rref_rank
from localsurfaces import linalg
from localsurfaces.cech import Window, h1_dimension_formula
from localsurfaces.linalg import IntegerEchelon
from localsurfaces.linalg import nullspace as sparse_nullspace
from localsurfaces.surface import surface
from rref_oracle import ReducedEchelon
from rref_oracle import nullspace as rref_nullspace

TESTS = Path(__file__).resolve().parent


def random_matrix(rng, rows, cols):
    return RationalMatrix(
        [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
         for _ in range(rows)]
    )


def test_identity_rank():
    rank, pivots, red = rref_rank(RationalMatrix.identity(3))
    assert rank == 3 and pivots == [0, 1, 2]
    assert red == RationalMatrix.identity(3)


def test_proportional_rows_rank_one():
    rank, pivots, red = rref_rank(RationalMatrix([[1, 2], [2, 4]]))
    assert rank == 1 and pivots == [0]
    assert red == RationalMatrix([[1, 2], [0, 0]])


def test_coboundary_rank_matches_closed_form():
    # quotient dimension of the O(-4) coboundary matrix on Z_2 equals the
    # closed-form dimension
    s = surface(2)
    window = Window(-9, 9, 4)
    matrix = coboundary_matrix(s, 4, window)
    rank, _, _ = rref_rank(matrix)
    assert matrix.rows - rank == h1_dimension_formula(2, 4) == 4


def test_rref_idempotent_and_transpose_rank():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rank, pivots, red = rref_rank(m)
        rank2, pivots2, red2 = rref_rank(red)
        assert (rank2, pivots2) == (rank, pivots)
        assert red2 == red
        rank_t, _, _ = rref_rank(m.transpose())
        assert rank_t == rank


def test_pivot_columns_strictly_increasing():
    rng = random.Random(13)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        _, pivots, _ = rref_rank(m)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))


def test_nullspace_annihilates():
    rng = random.Random(17)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        rank, _, _ = rref_rank(m)
        kernel = nullspace(m)
        assert len(kernel) == m.cols - rank
        for vec in kernel:
            assert all(
                sum(m.entries[r][c] * vec[c] for c in range(m.cols)) == 0
                for r in range(m.rows)
            )


def test_incremental_echelon_matches_dense_rank():
    rng = random.Random(23)
    for _ in range(25):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        m = random_matrix(rng, rows, cols)
        echelon = ReducedEchelon()
        for c in range(cols):
            vec = {r: m.entries[r][c] for r in range(rows) if m.entries[r][c]}
            echelon.add(vec)
        rank, pivots, _ = rref_rank(m.transpose())
        assert echelon.rank == rank
        assert sorted(echelon.pivots) == pivots


def test_int_vectors_give_the_exact_echelon_of_their_fractions():
    # An int lead must divide exactly, never into a float.
    rng = random.Random(31)
    for _ in range(25):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        vecs = [
            {r: x for r in range(rows) if (x := rng.randint(-4, 4))}
            for _ in range(cols)
        ]
        ints, fractions = ReducedEchelon(), ReducedEchelon()
        for vec in vecs:
            assert ints.add(vec) == fractions.add(
                {r: Q(x) for r, x in vec.items()}
            )
        assert ints.pivots == fractions.pivots
        assert all(
            type(x) is Q for row in ints.pivots.values() for x in row.values()
        )
        target = {r: rng.randint(-4, 4) for r in range(rows)}
        assert ints.reduce(target) == fractions.reduce(target)


def test_solve_in_span_solves_random_systems():
    rng = random.Random(29)
    for _ in range(25):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        m = random_matrix(rng, rows, cols)
        columns = {}
        for c in range(cols):
            vec = {r: m.entries[r][c] for r in range(rows) if m.entries[r][c]}
            columns[c] = vec
        coeffs = [Q(rng.randint(-2, 2)) for _ in range(cols)]
        target = {}
        for c, x in enumerate(coeffs):
            for r, v in columns[c].items():
                target[r] = target.get(r, Q(0)) + x * v
        target = {r: v for r, v in target.items() if v}
        sol = _solve_in_span(columns.items(), target)
        assert sol is not None
        recombined = {}
        for c, x in sol.items():
            for r, v in columns[c].items():
                recombined[r] = recombined.get(r, Q(0)) + x * v
        assert {r: v for r, v in recombined.items() if v} == target


def test_solve_in_span_edge_cases():
    columns = [("a", {0: Q(1)}), ("zero", {}), ("twice_a", {0: Q(2)}),
               ("b", {1: Q(1), 2: Q(3)})]
    # a zero or dependent column gets no coefficient: only the columns
    # that enlarged the span carry the solution
    assert _solve_in_span(columns, {0: Q(2), 1: Q(-1), 2: Q(-3)}) == {
        "a": Q(2), "b": Q(-1)
    }
    # outside the span: coordinate 2 without coordinate 1
    assert _solve_in_span(columns, {2: Q(1)}) is None
    assert _solve_in_span([("zero", {})], {0: Q(1)}) is None
    # the empty target is the empty combination
    assert _solve_in_span(columns, {}) == {}
    assert _solve_in_span([], {}) == {}


def random_sparse_rows(rng, rows, cols, density):
    return [
        {c: Q(rng.randint(-4, 4) or 1, rng.randint(1, 3))
         for c in range(cols) if rng.random() < density}
        for _ in range(rows)
    ]


def dense(rows, cols):
    return RationalMatrix([[row.get(c, Q(0)) for c in range(cols)] for row in rows])


def kernel_as_dense(kernel, cols):
    return [[vec.get(c, Q(0)) for c in range(cols)] for vec in kernel]


def random_echelon_inputs(rng, cols, count):
    """Sparse int or Fraction vectors: random ones with leads of +-1 or
    other values, and dependent ones combined from earlier draws."""
    vecs = []
    for _ in range(count):
        if vecs and rng.random() < 0.3:
            vec = {}
            for src in rng.sample(vecs, min(len(vecs), rng.randint(1, 3))):
                x = rng.choice((-2, -1, 1, Q(1, 2), Q(-3, 2)))
                for key, val in src.items():
                    vec[key] = vec.get(key, 0) + x * val
            vec = {key: val for key, val in vec.items() if val}
        else:
            density = rng.choice((0.15, 0.4, 0.8))
            vec = {}
            for c in range(cols):
                if rng.random() < density:
                    x = rng.choice((-1, 1, 1, -1, 2, -3, 5))
                    vec[c] = x if rng.random() < 0.5 else Q(x, rng.randint(1, 3))
        vecs.append(vec)
    return vecs


def test_reduced_echelon_matches_the_dense_rref_oracle():
    # After every insert the pivot rows are the rows of the dense RREF of
    # the vectors so far, entry for entry and all Fractions, and reduce
    # leaves the residual the dense rows leave.
    rng = random.Random(37)
    for _ in range(120):
        cols = rng.randint(1, 12)
        echelon, rows = ReducedEchelon(), []
        for vec in random_echelon_inputs(rng, cols, rng.randint(1, 16)):
            before = echelon.rank
            grew = echelon.add(vec)
            rows.append([vec.get(c, 0) for c in range(cols)])
            rank, pivots, red = rref_rank(RationalMatrix(rows))
            assert echelon.rank == rank and grew == (rank > before)
            assert echelon.pivots == {
                p: {c: x for c, x in enumerate(red.entries[r]) if x}
                for r, p in enumerate(pivots)
            }
            assert all(
                type(x) is Q
                for row in echelon.pivots.values() for x in row.values()
            )
            target = {c: rng.randint(-3, 3) for c in range(cols)}
            residual = [Q(target[c]) for c in range(cols)]
            for r, p in enumerate(pivots):
                factor = residual[p]
                residual = [x - factor * y
                            for x, y in zip(residual, red.entries[r])]
            reduced = echelon.reduce(target)
            assert [reduced.get(c, 0) for c in range(cols)] == residual


def random_int_vectors(rng, cols, count):
    """Sparse int vectors of either sign, some with entries near 2^80, with
    zero vectors, duplicates, scalar multiples and combinations of earlier
    draws among them."""
    vecs = []
    for _ in range(count):
        draw = rng.random()
        if vecs and draw < 0.1:
            vec = dict(rng.choice(vecs))
        elif vecs and draw < 0.2:
            x = rng.choice((-1, 2, -3, 2**40 + 1, -(2**79)))
            vec = {key: x * val for key, val in rng.choice(vecs).items()}
        elif vecs and draw < 0.35:
            vec = {}
            for src in rng.sample(vecs, min(len(vecs), rng.randint(2, 3))):
                x = rng.choice((-2, -1, 1, 3, 2**70))
                for key, val in src.items():
                    vec[key] = vec.get(key, 0) + x * val
            vec = {key: val for key, val in vec.items() if val}
        elif draw < 0.4:
            vec = {}
        else:
            density = rng.choice((0.15, 0.4, 0.8))
            bound = rng.choice((5, 2**80))
            vec = {
                c: x for c in range(cols)
                if rng.random() < density and (x := rng.randint(-bound, bound))
            }
        vecs.append(vec)
    return vecs


def test_integer_echelon_matches_the_reduced_echelon():
    # Same answer, rank and leads after every insert; the rows stay ints
    # with no common factor, and the inserted vector is left as it was.
    # reduce leaves an int residual that is empty exactly when the RREF's
    # is, and otherwise has the RREF residual's lead, which is no row's.
    rng = random.Random(41)
    for _ in range(150):
        cols = rng.randint(1, 10)
        ints, rational = IntegerEchelon(), ReducedEchelon()
        for vec in random_int_vectors(rng, cols, rng.randint(1, 16)):
            before = dict(vec)
            residual, want = ints.reduce(vec), rational.reduce(vec)
            assert bool(residual) == bool(want) and vec == before
            if residual:
                assert min(residual) == min(want) not in ints.pivots
                assert all(type(x) is int for x in residual.values())
            assert ints.add(vec) == rational.add(vec)
            assert vec == before
            assert ints.rank == rational.rank
            assert ints.pivots.keys() == rational.pivots.keys()
            for lead, row in ints.pivots.items():
                assert min(row) == lead and all(row.values())
                assert all(type(x) is int for x in row.values())
                assert gcd(*row.values()) == 1


def test_integer_echelon_refuses_non_int_entries():
    # math.gcd raises on the first non-int it meets, at a lead or in the
    # new row, and the echelon is left as it was.
    echelon = IntegerEchelon()
    assert echelon.add({0: 2, 1: 1})
    for vec in ({0: Q(1, 2)}, {0: 2, 1: 1.5}, {1: 3, 2: Q(1, 3)}, {2: 0.5}):
        with pytest.raises(TypeError):
            echelon.add(vec)
        assert echelon.pivots == {0: {0: 2, 1: 1}}


def random_kernel_inputs(rng):
    """Sparse rows of int and Fraction entries with random key order, with
    empty rows, duplicate rows and multiples of earlier rows among them;
    the columns a row may use are a random part of range(ncols), so some
    columns are zero and ncols can be wider than every row."""
    ncols = rng.randint(1, 9)
    used = [c for c in range(rng.randint(1, ncols)) if rng.random() < 0.85]
    rows = []
    for _ in range(rng.randint(0, 7)):
        draw = rng.random()
        if draw < 0.1:
            row = {}
        elif rows and draw < 0.2:
            row = dict(rng.choice(rows))
        elif rows and draw < 0.3:
            x = Q(rng.choice((-2, 3, 1)), rng.choice((1, 2, 5)))
            row = {c: x * v for c, v in rng.choice(rows).items()}
        else:
            density = rng.choice((0.2, 0.5, 0.9))
            row = {
                c: rng.choice((Q(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
                               rng.choice((-2, -1, 1, 3))))
                for c in rng.sample(used, len(used)) if rng.random() < density
            }
        rows.append(row)
    return rows, ncols


def recorded_nullspace_calls():
    """The 376 nullspace calls of one pass of the seed-3 p1-splitting op
    list of bench/workloads.py (the seed-3 cli-certify list makes none),
    as (rows, ncols), in call order."""
    calls = []
    with open(TESTS / "nullspace_calls.jsonl", encoding="utf-8") as handle:
        for line in handle:
            call = json.loads(line)
            rows = [{c: Q(x) for c, x in row} for row in call["rows"]]
            calls.append((rows, call["ncols"]))
    return calls


def as_items(kernel):
    return [list(vec.items()) for vec in kernel]


def assert_canonical_kernel(rows, ncols):
    got = sparse_nullspace(rows, ncols)
    # Same vectors, keys, values and key order as the rational RREF.
    assert as_items(got) == as_items(rref_nullspace(rows, ncols)), (rows, ncols)
    assert all(type(x) is Q for vec in got for x in vec.values())
    as_dense = kernel_as_dense(got, ncols)
    if rows:
        assert as_dense == nullspace(dense(rows, ncols))
    else:
        assert as_dense == RationalMatrix.identity(ncols).entries
    for vec in as_dense:
        for row in rows:
            assert sum(x * vec[c] for c, x in row.items()) == 0


def test_sparse_nullspace_matches_dense_oracle():
    rng = random.Random(31)
    cases = [
        ([], 4),  # no rows: every column is free
        ([{}, {}], 3),  # zero rows
        ([{0: Q(1)}, {1: Q(2)}, {2: Q(-1)}], 3),  # full rank
        ([{0: Q(1), 2: Q(2)}, {0: Q(2), 2: Q(4)}], 4),  # rank deficient
    ]
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(1, 7)
        cases.append(
            (random_sparse_rows(rng, rows, cols, rng.choice((0.2, 0.5, 0.9))), cols)
        )
    rng = random.Random(47)
    cases += [random_kernel_inputs(rng) for _ in range(3000)]
    for rows, cols in cases:
        assert_canonical_kernel(rows, cols)


def test_nullspace_is_the_rational_rref_kernel_on_recorded_calls():
    calls = recorded_nullspace_calls()
    assert len(calls) == 376
    for rows, ncols in calls:
        assert_canonical_kernel(rows, ncols)


def test_nullspace_builds_one_fraction_per_kernel_entry(monkeypatch):
    # The echelon and the back-substitution run on ints; only the entries
    # of the returned kernel are Fractions.
    rng = random.Random(59)
    cases = recorded_nullspace_calls()
    cases += [random_kernel_inputs(rng) for _ in range(300)]
    real_new = Q.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    for rows, ncols in cases:
        built.clear()
        monkeypatch.setattr(Q, "__new__", counted)
        kernel = sparse_nullspace(rows, ncols)
        monkeypatch.setattr(Q, "__new__", real_new)
        assert len(built) <= sum(len(vec) for vec in kernel), (rows, ncols)


def test_one_echelon_engine():
    # The rational RREF lives in tests/rref_oracle.py; the library keeps
    # its name only as one alias of IntegerEchelon in linalg.py.
    assert linalg.ReducedEchelon is linalg.IntegerEchelon
    package = TESTS.parent / "src" / "localsurfaces"
    naming = {
        path.name: [line for line in path.read_text(encoding="utf-8").splitlines()
                    if re.search(r"\bReducedEchelon\b", line)]
        for path in sorted(package.glob("*.py"))
    }
    assert {name: lines for name, lines in naming.items() if lines} == {
        "linalg.py": ["ReducedEchelon = IntegerEchelon"],
    }
