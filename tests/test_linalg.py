"""Kernel tests: exact solving, Kronecker products, twists, inversion, spans.

Derived expectations are computed by independent brute force (residue
enumeration over Z/n, entrywise expansion for tensor products) and then
asserted against the library.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from builders import map_from_columns, map_to_vec, vec_to_map
from hopfdual.hopf import AlgebraData, matrix_algebra
from hopfdual.errors import DimensionMismatch, NotInvertible, RingMismatch
from hopfdual.linalg import (
    FreeModule,
    LinearMap,
    PreparedSolver,
    _det_int,
    _rref_rows,
    canonical_span,
    column_witness,
    determinant,
    dual_module,
    free_module,
    hermite_rows,
    hom_module,
    hom_scatter,
    invert_map,
    kron,
    kron_vec,
    smith_normal_form,
    sparse_column,
    sparse_vector,
    split_coordinates,
    tensor_module,
    twist_map,
    unit_module,
    product_label,
)
from hopfdual.rings import QQ, ZZ, Zmod


def module(ring, n, prefix="e"):
    return free_module(ring, [f"{prefix}{i}" for i in range(n)])


def lmap(ring, rows):
    m = len(rows)
    k = len(rows[0]) if m else 0
    return LinearMap(module(ring, k, "d"), module(ring, m, "c"), rows)


# --- independent oracle -----------------------------------------------------


def enumerate_solutions_mod_n(rows, rhs, n):
    """All x in (Z/n)^k with A·x = rhs, by exhaustive enumeration."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    sols = []
    for x in itertools.product(range(n), repeat=k):
        if all(sum(rows[i][j] * x[j] for j in range(k)) % n == rhs[i] % n for i in range(m)):
            sols.append(x)
    return set(sols)


def solver_of(m):
    """The :class:`PreparedSolver` of ``m``'s sparse columns."""
    return PreparedSolver(m.ring, m.sparse_columns(), m.codomain.rank)


def solution_set(solver, rhs, n, k):
    """The particular solution of the dense ``rhs`` plus the kernel span,
    expanded into the full solution set over Z/n."""
    x = solver.solve(sparse_vector(rhs))
    if x is None:
        return set()
    span = {(0,) * k}
    for gen in solver.kernel():
        gen = dense.expand_sparse(gen, k, Zmod(n))
        new = set()
        for c in range(n):
            for v in span:
                new.add(tuple((a + c * b) % n for a, b in zip(v, gen)))
        span = new
    x = dense.expand_sparse(x, k, Zmod(n))
    return {tuple((p + s) % n for p, s in zip(x, v)) for v in span}


# --- PreparedSolver: sparse right-hand sides, sparse solutions and kernel ----
# A unique solution has an empty kernel, a parametric one a nonempty kernel,
# and an inconsistent system answers None.


def test_solve_diagonal_over_Z_unique():
    solver = solver_of(lmap(ZZ, [[2, 0], [0, 3]]))
    assert solver.solve(((0, 4), (1, 3))) == ((0, 2), (1, 1))
    assert solver.kernel() == ()


def test_solve_two_divides_one_over_Z():
    assert solver_of(lmap(ZZ, [[2]])).solve(((0, 1),)) is None


def test_solve_parametric_over_Z6_matches_enumeration():
    # Oracle: all six residues, frozen expectation {2, 5} with kernel {0, 3}.
    oracle = enumerate_solutions_mod_n([[2]], [4], 6)
    assert oracle == {(2,), (5,)}
    solver = solver_of(lmap(Zmod(6), [[2]]))
    assert solver.solve(((0, 4),)) is not None
    assert solver.kernel() == (((0, 3),),)
    assert solution_set(solver, (4,), 6, 1) == oracle


def test_solve_rhs_length_checked():
    # an index past the last row, of a right-hand side or of a column
    with pytest.raises(DimensionMismatch):
        solver_of(lmap(ZZ, [[1, 2]])).solve(((0, 1), (1, 2)))
    with pytest.raises(DimensionMismatch):
        PreparedSolver(ZZ, [((0, 1),), ((1, 2),)], 1)


def test_solve_over_Q_parametric():
    m = lmap(QQ, [[1, 2, 3], [2, 4, 6]])
    solver = solver_of(m)
    x = solver.solve(((0, QQ.one), (1, QQ.of(2))))
    # the particular solution solves exactly
    assert m.apply(dense.expand_sparse(x, 3, QQ)) == (QQ.one, QQ.of(2))
    for v in solver.kernel():
        assert m.apply(dense.expand_sparse(v, 3, QQ)) == (QQ.zero, QQ.zero)
    assert len(solver.kernel()) == 2


def test_solve_over_Q_inconsistent():
    assert solver_of(lmap(QQ, [[1, 2], [1, 2]])).solve(((0, 1), (1, 2))) is None


def test_empty_spans_answer_only_zero():
    # no columns: only 0 is solved (by the empty solution); no rows: every
    # column is free; over every ring
    for ring in (ZZ, QQ, Zmod(6), Zmod(7)):
        solver = PreparedSolver(ring, [], 2)
        assert solver.solve(()) == () and solver.solve(((1, ring.one),)) is None
        assert solver.kernel() == ()
        solver = PreparedSolver(ring, [(), ()], 0)
        assert solver.solve(()) == ()
        assert solver.kernel() == (((0, 1),), ((1, 1),))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_solve_mod_n_agrees_with_enumeration(n, m, k, data):
    rows = [
        [data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(k)]
        for _ in range(m)
    ]
    rhs = [data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(m)]
    oracle = enumerate_solutions_mod_n(rows, rhs, n)
    assert solution_set(solver_of(lmap(Zmod(n), rows)), rhs, n, k) == oracle


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_smith_normal_form_properties(size, data):
    rows = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(size)]
        for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
    ]
    U, D, V = smith_normal_form(rows)
    m, k = len(rows), size
    # U·A·V == D
    UA = [[sum(U[i][t] * rows[t][j] for t in range(m)) for j in range(k)] for i in range(m)]
    UAV = [[sum(UA[i][t] * V[t][j] for t in range(k)) for j in range(k)] for i in range(m)]
    assert UAV == D
    # D diagonal, non-negative, divisibility chain
    diag = []
    for i in range(m):
        for j in range(k):
            if i != j:
                assert D[i][j] == 0
            elif D[i][j]:
                diag.append(D[i][j])
                assert D[i][j] > 0
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # transforms unimodular
    assert abs(_det(U)) == 1
    assert abs(_det(V)) == 1


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    A = [list(r) for r in rows]
    from fractions import Fraction

    A = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for t in range(n):
        piv = next((i for i in range(t, n) if A[i][t]), None)
        if piv is None:
            return 0
        if piv != t:
            A[t], A[piv] = A[piv], A[t]
            det = -det
        det *= A[t][t]
        for i in range(t + 1, n):
            c = A[i][t] / A[t][t]
            A[i] = [a - c * b for a, b in zip(A[i], A[t])]
    return det


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3), st.data())
def test_kernel_vectors_annihilate(n, k, data):
    ring = Zmod(n)
    rows = [
        [data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(k)]
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    m = lmap(ring, rows)
    solver = solver_of(m)
    assert solver.solve(()) == ()
    for v in solver.kernel():
        assert all(x == 0 for x in m.apply(dense.expand_sparse(v, k, ring)))


# --- kron / twist -----------------------------------------------------------


def test_kron_identities_multiply_rank():
    id2 = LinearMap.identity(module(ZZ, 2))
    id3 = LinearMap.identity(module(ZZ, 3))
    prod = kron(id2, id3)
    assert prod == LinearMap.identity(module(ZZ, 6))


def test_kron_with_unit_factor_is_same_matrix():
    f = lmap(ZZ, [[1, 2], [3, 4]])
    one = LinearMap.identity(module(ZZ, 1))
    assert kron(f, one).matrix == f.matrix
    assert kron(one, f).matrix == f.matrix


def test_kron_entrywise_expansion():
    # Oracle: (f⊗g)[(i1,i2),(j1,j2)] = f[i1][j1]·g[i2][j2], expanded by hand.
    f = lmap(ZZ, [[0, 1], [1, 0]])
    g = lmap(ZZ, [[2]])
    assert kron(f, g).matrix == ((0, 2), (2, 0))


def test_kron_ring_mismatch():
    with pytest.raises(RingMismatch):
        kron(lmap(ZZ, [[1]]), lmap(QQ, [[1]]))


def test_kron_functorial():
    f = lmap(ZZ, [[1, 2], [0, 1]])
    f2 = lmap(ZZ, [[1, 1], [1, 0]])
    g = lmap(ZZ, [[2, 0], [1, 1]])
    g2 = lmap(ZZ, [[0, 1], [1, 1]])
    lhs = kron(f @ f2, g @ g2)
    rhs = kron(f, g) @ kron(f2, g2)
    assert lhs == rhs


def test_kron_associative_after_flattening():
    a = lmap(ZZ, [[1, 2], [3, 4]])
    b = lmap(ZZ, [[0, 1], [1, 0]])
    c = lmap(ZZ, [[2], [1]])
    assert kron(kron(a, b), c).matrix == kron(a, kron(b, c)).matrix


def test_twist_rank_one_is_identity():
    m1 = module(ZZ, 1)
    mk = module(ZZ, 4, "f")
    assert twist_map(m1, mk).matrix == LinearMap.identity(mk).matrix
    assert twist_map(mk, m1).matrix == LinearMap.identity(mk).matrix


def test_twist_2x2_swaps_middle_indices():
    # Oracle: enumerate the four basis tensors e_i⊗f_j by hand.
    m = module(ZZ, 2)
    n = module(ZZ, 2, "f")
    t = twist_map(m, n)
    assert t.matrix == (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )


def test_twist_is_involution_on_mixed_ranks():
    m = module(ZZ, 2)
    n = module(ZZ, 3, "f")
    assert (twist_map(n, m) @ twist_map(m, n)) == LinearMap.identity(tensor_module(m, n))


# --- sparse kernels against the dense oracle ---------------------------------
# Ranks include 1 and 0-free carriers; draw_map forces random zero columns.

ranks = st.integers(min_value=1, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(dense.RINGS), ranks, ranks, ranks, st.data())
def test_compose_matches_triple_loop(ring, k, m, n, data):
    a, b, c = (dense.module(ring, r, p) for r, p in ((k, "a"), (m, "b"), (n, "c")))
    g = dense.draw_map(data, ring, a, b)
    f = dense.draw_map(data, ring, b, c)
    dense.assert_bit_identical(f @ g, dense.compose(f, g))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(dense.RINGS), ranks, ranks, ranks, ranks, st.data())
def test_kron_matches_entrywise_product(ring, k, m, p, q, data):
    f = dense.draw_map(data, ring, dense.module(ring, k, "a"), dense.module(ring, m, "b"))
    g = dense.draw_map(data, ring, dense.module(ring, p, "c"), dense.module(ring, q, "d"))
    dense.assert_bit_identical(kron(f, g), dense.kron(f, g))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(dense.RINGS), ranks, ranks)
def test_twist_matches_permutation_matrix(ring, m, n):
    a, b = dense.module(ring, m, "a"), dense.module(ring, n, "b")
    dense.assert_bit_identical(twist_map(a, b), dense.twist(a, b))


# --- the sparse-first LinearMap against the dense-first one -------------------


def typed(x):
    """``x`` with every leaf paired with its type, so that == compares types."""
    return tuple(map(typed, x)) if isinstance(x, tuple) else (type(x), x)


def raw_entries(ring):
    """Entries as a caller may write them: ints anywhere, fractions over Q."""
    values = st.integers(min_value=-7, max_value=7)
    if ring == QQ:
        values = st.one_of(values, st.fractions(min_value=-3, max_value=3,
                                                max_denominator=4))
    return values


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(dense.RINGS), ranks, ranks, ranks, st.data())
def test_sparse_first_map_agrees_with_the_dense_first_oracle(ring, k, m, n, data):
    D = dense.DenseMap
    a, b, c = (dense.module(ring, r, p) for r, p in ((k, "a"), (m, "b"), (n, "c")))

    def draw_rows(rows, length):
        return [[data.draw(raw_entries(ring)) for _ in range(length)] for _ in range(rows)]

    rows_ab, cols_bc = draw_rows(m, k), draw_rows(m, n)
    f, Df = LinearMap(a, b, rows_ab), D(a, b, rows_ab)
    g, Dg = map_from_columns(b, c, cols_bc), D.from_columns(b, c, cols_bc)
    h = dense.draw_map(data, ring, b, c)
    square = dense.draw_map(data, ring, tensor_module(a, a), a)
    alg = AlgebraData(a, square, a.basis_vector(0))
    pairs = [
        (f, Df), (g, Dg), (h, D(b, c, h.matrix)),
        (LinearMap.from_sparse_columns(b, c, h.sparse_columns()),
         D.from_sparse_columns(b, c, D(b, c, h.matrix).sparse_columns())),
        (LinearMap.identity(b), D.identity(b)),
        (g @ f, Dg.compose(Df)), (h @ f, D(b, c, h.matrix).compose(Df)),
        (LinearMap.identity(b) @ f, D.identity(b).compose(Df)),
        (g - h, D(b, c, [[ring.sub(x, y) for x, y in zip(r1, r2)]
                         for r1, r2 in zip(Dg.matrix, h.matrix)])),
        (kron(f, g), dense.kron(Df, Dg)),
        (twist_map(a, b), dense.twist(a, b)),
        (alg.opposite().mult, dense.opposite_mult(alg)),
    ]
    for got, want in pairs:
        assert (got.domain.rank, got.codomain.rank) == (want.domain.rank,
                                                        want.codomain.rank)
        # the sparse readers first, while the dense rows may still be unbuilt
        assert typed(got.sparse_columns()) == typed(want.sparse_columns())
        for j in range(got.domain.rank):
            assert typed(got.column(j)) == typed(want.column(j))
        v = dense.draw_vector(data, ring, got.domain.rank)
        assert typed(got.apply(v)) == typed(want.apply(v))
        assert typed(got.matrix) == typed(want.matrix)
    for got1, want1 in pairs:
        for got2, want2 in pairs:
            assert (got1 == got2) == (want1 == want2)
            if got1 == got2:
                assert hash(got1) == hash(got2)


def test_column_witness_labels_first_differing_column():
    f = lmap(ZZ, [[1, 0, 2], [0, 1, 0]])
    g = lmap(ZZ, [[1, 0, 2], [0, 1, 3]])
    h = lmap(ZZ, [[1, 5, 2], [0, 1, 3]])

    xyz = ("x", "y", "z").__getitem__
    f_, g_, h_ = (m.sparse_columns() for m in (f, g, h))
    assert column_witness(f_, f_, xyz) is None
    assert column_witness(f_, g_, xyz) == "z"
    assert column_witness(f_, h_, xyz) == "y"
    # the columns are walked in step up to the first difference, and the
    # label is built only there
    walked = []

    def lazy(name, cols):
        for j, col in enumerate(cols):
            walked.append((name, j))
            yield col

    def no_labels(j):
        raise AssertionError("label built without a difference")

    assert column_witness(lazy("f", f_), lazy("f", f_), no_labels) is None
    walked.clear()
    assert column_witness(lazy("f", f_), lazy("h", h_), xyz) == "y"
    assert walked == [("f", 0), ("h", 0), ("f", 1), ("h", 1)]
    ab, xy = free_module(ZZ, ["a", "b"]), free_module(ZZ, ["x", "y"])
    assert list(map(product_label(ab, xy), range(4))) == ["(a,x)", "(a,y)", "(b,x)", "(b,y)"]
    assert product_label(ab, xy, ab)(6) == "(b,y,a)"


def test_derived_modules_compose_their_factors_names():
    m, n = free_module(ZZ, ["a", "b"]), free_module(ZZ, ["x", "y", "z"])
    assert tensor_module(m, n).labels == tuple(f"{a}⊗{b}" for a in "ab" for b in "xyz")
    assert hom_module(m, n).labels == tuple(f"[{b}←{a}]" for b in "xyz" for a in "ab")
    assert dual_module(n).labels == ("x*", "y*", "z*")
    assert unit_module(ZZ).labels == ("1",)
    assert matrix_algebra(ZZ, 2).carrier.labels == ("e[0,0]", "e[0,1]", "e[1,0]", "e[1,1]")
    # names that format alike are no error: modules compare by ring and rank
    odd = free_module(ZZ, ["a", "a⊗a", "e"])
    tt = tensor_module(odd, odd)
    assert tt.label(1) == tt.label(3) == "a⊗a⊗a"
    assert tt == tensor_module(n, n) and hash(tt) == hash(tensor_module(n, n))
    assert free_module(ZZ, ["p"]) != free_module(QQ, ["p"])


def test_free_module_is_where_names_must_be_distinct():
    with pytest.raises(DimensionMismatch, match="pairwise distinct"):
        free_module(ZZ, ["a", "b", "a"])
    with pytest.raises(DimensionMismatch, match="non-negative"):
        FreeModule(ZZ, -1, str)


def test_rref_rows_of_integer_rows_is_exact():
    rows = _rref_rows(QQ, [(2, 4, 1), (3, 1, 0), (0, 0, 0)])
    assert rows == [[1, 0, Fraction(-1, 10)], [0, 1, Fraction(3, 10)]]
    assert [[type(x) for x in row] for row in rows] == [[int, int, Fraction]] * 2


@given(ranks, ranks, st.data())
def test_rref_rows_match_the_fraction_elimination(m, k, data):
    vectors = [dense.draw_vector(data, QQ, k) for _ in range(m)]
    rows = _rref_rows(QQ, vectors)
    assert rows == dense.rref_rows(vectors)
    assert all(dense.is_canonical(QQ, x) for row in rows for x in row)
    assert canonical_span(QQ, vectors, k) == tuple(map(tuple, rows))


# --- inversion --------------------------------------------------------------


def test_invert_unipotent_over_Z():
    m = lmap(ZZ, [[1, 1], [0, 1]])
    assert invert_map(m).matrix == ((1, -1), (0, 1))


def test_invert_two_over_Z_fails():
    with pytest.raises(NotInvertible):
        invert_map(lmap(ZZ, [[2]]))


def test_invert_two_mod_five():
    assert invert_map(lmap(Zmod(5), [[2]])).matrix == ((3,),)


def test_invert_round_trip_mod_six():
    m = lmap(Zmod(6), [[5, 1], [0, 1]])
    inv = invert_map(m)
    assert (inv @ m).matrix == LinearMap.identity(module(Zmod(6), 2)).matrix


def test_invert_round_trip_over_Q():
    m = lmap(QQ, [[1, 2], [3, 4]])
    inv = invert_map(m)
    ident = LinearMap.identity(module(QQ, 2)).matrix
    assert (inv @ m).matrix == ident
    assert (m @ inv).matrix == ident


def test_determinant_values():
    assert determinant(lmap(ZZ, [[2, 1], [1, 1]])) == 1
    assert determinant(lmap(ZZ, [[2, 0], [0, 3]])) == 6
    assert determinant(lmap(QQ, [["1/2", 0], [0, 4]])) == QQ.of(2)
    assert determinant(lmap(Zmod(6), [[2, 0], [0, 3]])) == 0
    assert determinant(lmap(Zmod(7), [[0, 1], [1, 0]])) == 6  # one row swap
    assert determinant(lmap(Zmod(7), [[0, 0, 1], [0, 2, 0], [3, 0, 0]])) == 1


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 7, 11]), st.integers(min_value=0, max_value=5),
       st.sampled_from(["unimodular", "singular", "random"]), st.data())
def test_determinant_over_Zp_is_integer_bareiss_reduced_mod_p(p, n, kind, data):
    # elimination over the field Z/p against Bareiss on the representatives;
    # a unimodular draw permutes its rows (so pivoting swaps and flips the
    # sign) and a singular one scales a row by 0
    ring = Zmod(p)
    if kind == "singular" and n == 0:
        kind = "random"
    m = dense.draw_square(data, ring, n, kind)
    det = determinant(m)
    assert det == _det_int(m.matrix) % p and type(det) is int
    if kind == "singular":
        assert det == 0


# --- membership / spans -----------------------------------------------------


# generators, vectors and coordinates are canonical sparse vectors


def test_membership_straightforward():
    coeffs = PreparedSolver(ZZ, [((0, 2),), ((1, 1),)], 2).solve(((0, 4), (1, 3)))
    assert coeffs == ((0, 2), (1, 3))


def test_membership_absent():
    assert PreparedSolver(ZZ, [((0, 2),)], 2).solve(((0, 1),)) is None


def test_membership_bezout():
    # Oracle: solve 2a + 3b = 1 over Z; a solution exists (1 = 3 - 2).
    coeffs = PreparedSolver(ZZ, [((0, 2),), ((0, 3),)], 1).solve(((0, 1),))
    assert coeffs is not None
    a, b = (dict(coeffs).get(i, 0) for i in range(2))
    assert 2 * a + 3 * b == 1


def test_membership_mod_n():
    in_span = PreparedSolver(Zmod(6), [((0, 2),)], 1).solve
    assert in_span(((0, 4),)) is not None
    assert in_span(((0, 3),)) is None


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6), Zmod(7)], ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_factorization_answers_like_a_fresh_one_per_vector(ring, data):
    # one factorization of the generators, asked about several vectors in a
    # row (combinations of the generators and random vectors), answers each
    # None exactly when the dense oracle's solver, built afresh for that
    # vector, answers None, and the same coefficients where they are unique
    length = data.draw(st.integers(1, 4))
    gens = [dense.draw_vector(data, ring, length)
            for _ in range(data.draw(st.integers(0, 4)))]
    solver = PreparedSolver(ring, map(sparse_vector, gens), length)
    express, unique = solver.solve, solver.kernel() == ()
    for _ in range(data.draw(st.integers(1, 5))):
        if gens and data.draw(st.booleans()):
            coeffs = dense.draw_vector(data, ring, len(gens))
            v = tuple(ring.sum(ring.mul(c, g[i]) for c, g in zip(coeffs, gens))
                      for i in range(length))
        else:
            v = dense.draw_vector(data, ring, length)
        got = express(sparse_vector(v))
        want = dense.submodule_membership(ring, gens, v)
        assert (got is None) == (want is None)
        if unique and want is not None:
            assert got == sparse_vector(want)
        if got is not None:  # the coefficients do express v
            got = dense.expand_sparse(got, len(gens), ring)
            assert tuple(ring.sum(ring.mul(c, g[i]) for c, g in zip(got, gens))
                         for i in range(length)) == tuple(ring.of(x) for x in v)


def test_hermite_rows_canonical():
    assert hermite_rows([[2, 1], [0, 3]]) == [[2, 1], [0, 3]]
    # Same lattice, different generators.
    assert hermite_rows([[2, 4], [2, 1]]) == hermite_rows([[0, 3], [2, 1]])


def test_canonical_span_mod_n_is_span_invariant():
    ring = Zmod(8)
    # span{2} = {0,2,4,6} = span{6}
    assert canonical_span(ring, [(2,)], 1) == canonical_span(ring, [(6,)], 1)
    assert canonical_span(ring, [(2,)], 1) == ((2,),)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_canonical_span_mod_n_brute_force(n, data):
    length = data.draw(st.integers(min_value=1, max_value=2))
    gens = [
        tuple(data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(length))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
    ]
    # brute-force span
    span = {(0,) * length}
    for g in gens:
        new = set()
        for c in range(n):
            for v in span:
                new.add(tuple((a + c * b) % n for a, b in zip(v, g)))
        span = new
    canon = canonical_span(Zmod(n), gens, length)
    # canonical generators must generate exactly the same set
    span2 = {(0,) * length}
    for g in canon:
        new = set()
        for c in range(n):
            for v in span2:
                new.add(tuple((a + c * b) % n for a, b in zip(v, g)))
        span2 = new
    assert span2 == span
    # and be a function of the span alone: rebuild from the whole span
    assert canonical_span(Zmod(n), sorted(span), length) == canon


# --- field path and one-factorization inverse against the parent oracle ------
# Z/7, Z/11 and Z/13 take the field path; Z/6 keeps the lifted Smith form.

INVERSION_RINGS = (ZZ, QQ, Zmod(7), Zmod(11), Zmod(13), Zmod(6))
square_kinds = st.sampled_from(("unimodular", "singular", "random"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INVERSION_RINGS), st.integers(1, 5), square_kinds, st.data())
def test_invert_map_matches_parent(ring, n, kind, data):
    m = dense.draw_square(data, ring, n, kind)
    try:
        want = dense.invert_map(m)
    except NotInvertible as exc:
        assert kind != "unimodular"
        with pytest.raises(NotInvertible) as got:
            invert_map(m)
        assert str(got.value) == str(exc)
        assert got.value.determinant == exc.determinant
        assert type(got.value.determinant) is type(exc.determinant)
    else:
        assert kind != "singular"
        dense.assert_bit_identical(invert_map(m), want)


def test_invert_empty_map():
    for ring in INVERSION_RINGS:
        empty = LinearMap.identity(module(ring, 0))
        dense.assert_bit_identical(invert_map(empty), dense.invert_map(empty))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INVERSION_RINGS), ranks, ranks, st.booleans(), st.data())
def test_solve_matches_parent(ring, m, k, consistent, data):
    a = dense.draw_map(data, ring, dense.module(ring, k, "x"), dense.module(ring, m, "y"))
    if consistent:
        rhs = a.apply(dense.draw_vector(data, ring, k))
    else:
        rhs = dense.draw_vector(data, ring, m)
    solver, oracle = PreparedSolver(ring, a.sparse_columns(), m), dense.PreparedSolver(ring, a.matrix)
    got, want = solver.solve(sparse_vector(rhs)), oracle.solve(rhs)
    assert (got is not None) == want.solvable
    assert solver.kernel() == tuple(map(sparse_vector, oracle.kernel()))
    assert all(dense.is_canonical(ring, x) for v in solver.kernel() for _, x in v)
    if consistent:
        assert got is not None
    if got is not None:
        assert a.apply(dense.expand_sparse(got, k, ring)) == tuple(rhs)
        assert all(x and dense.is_canonical(ring, x) for _, x in got)
        if not want.kernel_basis:  # a unique solution is the oracle's, bit for bit
            assert got == sparse_vector(want.particular)
            assert [type(x) for _, x in got] == [type(x) for x in want.particular if x]


def test_split_coordinates_detects_direct_summand():
    # span{(1,1),(0,2)} over Z has index 2: not a summand.
    assert split_coordinates(ZZ, [((0, 1), (1, 1)), ((1, 2),)], 2) is None
    p = split_coordinates(ZZ, [((0, 1),), ((1, 1),)], 2)
    assert p(((0, 3), (1, -1))) == ((0, 3), (1, -1))
    q = split_coordinates(ZZ, [((0, 2), (1, 1)), ((0, 1), (1, 1))], 2)  # det 1: a basis
    assert q(((0, 1),)) == ((0, 1), (1, -1))
    # a summand of rank 1 answers None off its span, and the empty span only at 0
    r = split_coordinates(ZZ, [((0, 1), (1, 1))], 2)
    assert r(((0, 2), (1, 2))) == ((0, 2),) and r(((0, 1),)) is None
    empty = split_coordinates(ZZ, [], 2)
    assert empty(()) == () and empty(((1, 1),)) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(dense.RINGS), ranks, st.data())
def test_splittings_agree_with_the_dense_row_builder(ring, k, data):
    # the split coordinates are the dense oracle's P·v when its generators
    # rebuild v from them, and None otherwise, on vectors in the span and off it
    gens = [tuple(ring.of(data.draw(raw_entries(ring))) for _ in range(k))
            for _ in range(data.draw(st.integers(0, k)))]
    got = split_coordinates(ring, [sparse_vector(g) for g in gens], k)
    want = dense.split_coefficient_map(ring, gens, k)
    assert (got is None) == (want is None)
    if got is None:
        return
    coeffs = dense.draw_vector(data, ring, len(gens))
    inside = [ring.zero] * k
    for c, g in zip(coeffs, gens):
        inside = [ring.add(x, ring.mul(c, y)) for x, y in zip(inside, g)]
    for v in (tuple(inside), dense.draw_vector(data, ring, k)):
        coords = want.apply(v)
        rebuilt = [ring.zero] * k
        for c, g in zip(coords, gens):
            rebuilt = [ring.add(x, ring.mul(c, y)) for x, y in zip(rebuilt, g)]
        expected = sparse_vector(coords) if tuple(rebuilt) == v else None
        assert got(sparse_vector(v)) == expected
    assert got(sparse_vector(inside)) is not None


def test_sparse_vector_and_hom_scatter():
    assert sparse_vector((0, 3, 0, -1)) == ((1, 3), (3, -1))
    assert sparse_vector(()) == ()
    out = {}  # Hom(C, B) with rank(C) = 2, at c_1
    hom_scatter(out, ZZ, 2, ((0, 1), (1, 3)), 2, 1)
    hom_scatter(out, ZZ, 1, ((1, -6), (2, 1)), 2, 1)
    assert sparse_column(out) == ((1, 2), (5, 1))


def test_from_sparse_columns_checks_the_column_count():
    # three domain basis vectors need three columns: one would leave apply
    # and compose to fail later with an IndexError
    m = module(ZZ, 3, "m")
    with pytest.raises(DimensionMismatch):
        LinearMap.from_sparse_columns(m, m, [((0, 1),)])
    assert LinearMap.from_sparse_columns(m, m, [(), ((0, 1),), ()]).apply((0, 1, 0)) == (1, 0, 0)


def test_map_vec_round_trip():
    # the tests' dense Hom flattening and its inverse
    dom, cod = module(ZZ, 3, "d"), module(ZZ, 2, "c")
    f = LinearMap(dom, cod, [[1, 2, 3], [4, 5, 6]])
    assert vec_to_map(map_to_vec(f), dom, cod) == f


def test_kron_vec_matches_kron_on_basis():
    ring = ZZ
    u, v = (1, 2), (3, 0, 5)
    assert kron_vec(ring, u, v) == (3, 0, 5, 6, 0, 10)


def test_unit_module_rank_one():
    assert unit_module(ZZ).rank == 1
