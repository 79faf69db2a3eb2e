"""The incremental echelon and its kernels, against the dense RREF oracle."""

import random
from fractions import Fraction as Q

from cech_oracle import coboundary_matrix
from dense_oracle import RationalMatrix, nullspace, rref_rank
from localsurfaces.cech import Window, _solve_in_span, h1_dimension_formula
from localsurfaces.linalg import ReducedEchelon
from localsurfaces.linalg import nullspace as sparse_nullspace
from localsurfaces.surface import line_transition, surface


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
    matrix = coboundary_matrix(s, line_transition(-4), window)
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
    for rows, cols in cases:
        got = kernel_as_dense(sparse_nullspace(rows, cols), cols)
        if rows:
            assert got == nullspace(dense(rows, cols))
        else:
            assert got == RationalMatrix.identity(cols).entries
        for vec in got:
            for row in rows:
                assert sum(x * vec[c] for c, x in row.items()) == 0
