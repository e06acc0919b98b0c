"""Cross-checks of the exact linear algebra against sympy.

sympy shares no code with hopfdual, so it is an independent oracle for
determinants, inverses, Smith invariant factors, kernel ranks, solvability
and canonical spans on random matrices over Z, Q, Z/p and Z/6; each
solution the sparse solver returns is checked against its system in plain
``int``/``Fraction`` arithmetic, reduced mod n over Z/n.  Skipped where sympy
is not installed.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_smith  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import dense_oracle as dense  # noqa: E402
from hopfdual.errors import DimensionMismatch, NotInvertible  # noqa: E402
from hopfdual.linalg import (  # noqa: E402
    LinearMap,
    PreparedSolver,
    canonical_span,
    determinant,
    invert_map,
    smith_normal_form,
)
from hopfdual.rings import QQ, ZZ, Zmod  # noqa: E402

PRIMES = (Zmod(7), Zmod(11), Zmod(13))
RINGS = (ZZ, QQ) + PRIMES + (Zmod(6),)
square_kinds = st.sampled_from(("unimodular", "singular", "random"))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])


def from_sympy(ring, value):
    """A sympy integer or rational as an element of ``ring``."""
    return ring.of(Fraction(int(value.p), int(value.q)))


def expected_inverse(ring, m):
    """sympy's inverse of ``m`` as a row tuple, or None when it has none."""
    a = to_sympy(m.matrix)
    try:
        if ring == QQ:
            inv = a.inv()
        elif ring == ZZ:
            if abs(a.det()) != 1:
                return None
            inv = a.inv()
        else:
            inv = a.inv_mod(ring.n)
    except ValueError:  # sympy's NonInvertibleMatrixError
        return None
    return tuple(tuple(from_sympy(ring, x) for x in inv.row(i)) for i in range(inv.rows))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 5), square_kinds, st.data())
def test_determinant_matches_sympy(ring, n, kind, data):
    m = dense.draw_square(data, ring, n, kind)
    assert determinant(m) == from_sympy(ring, to_sympy(m.matrix).det())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 5), square_kinds, st.data())
def test_inverse_matches_sympy(ring, n, kind, data):
    m = dense.draw_square(data, ring, n, kind)
    want = expected_inverse(ring, m)
    if want is None:
        with pytest.raises(NotInvertible):
            invert_map(m)
    else:
        assert invert_map(m).matrix == want


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 2**31 - 2), min_size=36, max_size=36))
def test_inverse_mod_mersenne_prime_matches_sympy(entries):
    ring = Zmod(2**31 - 1)
    assert ring.is_field
    carrier = dense.module(ring, 6, "e")
    m = LinearMap(carrier, carrier, [entries[6 * i: 6 * i + 6] for i in range(6)])
    want = expected_inverse(ring, m)
    if want is None:
        with pytest.raises(NotInvertible):
            invert_map(m)
    else:
        assert invert_map(m).matrix == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_invariant_factors_match_sympy(m, k, data):
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(k)] for _ in range(m)]
    _, D, _ = smith_normal_form(rows)
    S = sympy_smith(sympy.Matrix(rows), domain=sympy.ZZ)
    ours = [D[i][i] for i in range(min(m, k))]
    theirs = [abs(int(S[i, i])) for i in range(min(m, k))]
    assert ours == theirs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernel_rank_mod_p_matches_sympy(ring, m, k, data):
    a = dense.draw_map(data, ring, dense.module(ring, k, "x"), dense.module(ring, m, "y"))
    kernel = PreparedSolver(ring, a.sparse_columns(), m).kernel()
    rank = DomainMatrix.from_Matrix(to_sympy(a.matrix)).convert_to(
        sympy.GF(ring.n)).rank()
    assert len(kernel) == k - rank
    for v in kernel:
        assert not any(a.apply(dense.expand_sparse(v, k, ring)))


def sympy_rank(ring, rows):
    """The rank of ``rows`` over Q or Z/p, by sympy."""
    if ring == QQ:
        return to_sympy(rows).rank()
    return DomainMatrix.from_Matrix(to_sympy(rows)).convert_to(sympy.GF(ring.n)).rank()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 4), st.integers(1, 4), st.booleans(),
       st.data())
def test_sparse_solve_satisfies_its_system_and_sympy_ranks(ring, m, k, consistent, data):
    # A as plain ints, v as plain ints or fractions (A·x for a drawn x when
    # consistent); the solver sees their canonical sparse columns
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = [[data.draw(entry) for _ in range(k)] for _ in range(m)]
    value = (st.fractions(-9, 9, max_denominator=4) if ring == QQ
             else st.integers(-9, 9)).map(Fraction)
    if consistent:
        x = [data.draw(value) for _ in range(k)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [data.draw(value) for _ in range(m)]
    cols = [tuple((i, ring.of(rows[i][j])) for i in range(m) if ring.of(rows[i][j]))
            for j in range(k)]
    v = tuple((i, ring.of(b)) for i, b in enumerate(rhs) if ring.of(b))
    solver = PreparedSolver(ring, cols, m)
    got = solver.solve(v)
    if consistent:
        assert got is not None
    if got is not None:
        x = dict(got)
        for row, b in zip(rows, rhs):
            diff = sum(a * Fraction(x.get(j, 0)) for j, a in enumerate(row)) - b
            assert diff % ring.n == 0 if ring not in (ZZ, QQ) else diff == 0
    if ring != ZZ and ring != Zmod(6):  # a field: solvable iff the ranks agree
        augmented = [row + [ring.of(b)] for row, b in zip(rows, rhs)]
        assert (got is None) == (sympy_rank(ring, augmented) > sympy_rank(ring, rows))
    with pytest.raises(DimensionMismatch):
        solver.solve(v + ((m, ring.one),))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((QQ,) + PRIMES), st.integers(1, 5), st.integers(1, 5), st.data())
def test_canonical_span_matches_sympy_rref(ring, m, k, data):
    # over a field the canonical span is the reduced row echelon form
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = [[data.draw(entry) for _ in range(k)] for _ in range(m)]
    if ring == QQ:
        reduced, _ = to_sympy(rows).rref()
    else:
        reduced, _ = DomainMatrix.from_Matrix(to_sympy(rows)).convert_to(
            sympy.GF(ring.n)).rref()
        reduced = reduced.to_Matrix()
    want = tuple(row for row in (
        tuple(from_sympy(ring, x) for x in reduced.row(i)) for i in range(reduced.rows))
        if any(row))
    assert canonical_span(ring, rows, k) == want
