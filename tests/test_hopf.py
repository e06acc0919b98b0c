"""Hopf-core tests: validation, convolution inversion, antipodes, duals.

Closed-form group inverses and the hand-derived rank-4 antipode serve as the
independent oracles for the convolution-system solver.
"""
import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from builders import (
    idempotent_monoid_bialgebra,
    map_from_columns,
    unvalidated_hopf,
    vec_to_map,
)
from hopfdual import hopf
from hopfdual.actions import regular_comodule
from hopfdual.catalog import (
    algebra_from_quadruples,
    ground_algebra,
    group_algebra,
    group_algebra_parts,
    sweedler_hopf,
    sweedler_parts,
)
from hopfdual.errors import NotConvInvertible, RingMismatch
from hopfdual.hopf import (
    AlgebraData,
    CoalgebraData,
    HopfData,
    algebra_morphism_witness,
    certify_algebra_iso,
    compute_antipode,
    compute_twisted_antipode,
    convolution_invert,
    convolve,
    dual_hopf,
    endomorphism_algebra,
    matrix_algebra,
    tensor_algebra,
    tensor_coalgebra,
    validate_hopf,
)
from hopfdual.linalg import (
    LinearMap,
    PreparedSolver,
    free_module,
    hom_module,
    tensor_module,
    unit_module,
    invert_map,
    kron,
    kron_vec,
)
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.smash import SubalgebraU, right_smash


# --- validation -------------------------------------------------------------


def test_group_algebra_validates():
    h = group_algebra(ZZ, 2)
    assert validate_hopf(h).ok


def test_hopf_data_needs_both_antipodes():
    h = unvalidated_hopf(*group_algebra_parts(ZZ, 2))
    with pytest.raises(TypeError):
        HopfData(h.bialgebra, h.antipode)


def test_wrong_antipode_fails_with_witness_g():
    h = unvalidated_hopf(*group_algebra_parts(ZZ, 2))
    bad = map_from_columns(h.carrier, h.carrier,
                                 [h.carrier.basis_vector(0), h.carrier.basis_vector(0)])
    broken = HopfData(h.bialgebra, bad, h.twisted_antipode)
    rep = validate_hopf(broken)
    assert not rep.ok
    fails = {r.check_id: r for r in rep.failures()}
    assert "hopf.antipode" in fails
    assert fails["hopf.antipode"].witness == "g"


def test_sweedler_hopf_validates_over_Q_and_Z3():
    assert validate_hopf(sweedler_hopf(QQ)).ok
    assert validate_hopf(sweedler_hopf(Zmod(3))).ok
    assert validate_hopf(sweedler_hopf(ZZ)).ok


def test_sweedler_not_cocommutative_group_algebra_is():
    assert group_algebra(ZZ, 3).coalgebra.is_cocommutative()
    assert not sweedler_hopf(QQ).coalgebra.is_cocommutative()
    assert not sweedler_hopf(QQ).algebra.is_commutative()


# --- convolution ------------------------------------------------------------


def test_convolution_unit_inverts_to_itself():
    h = group_algebra(ZZ, 2)
    unit = h.algebra.unit_map() @ h.coalgebra.counit
    assert convolution_invert(h.coalgebra, h.algebra, unit) == unit


def test_convolution_inverse_of_identity_is_antipode():
    h = group_algebra(ZZ, 2)
    x = convolution_invert(h.coalgebra, h.algebra, LinearMap.identity(h.carrier))
    assert x == h.antipode


def test_non_invertible_cocycle_like_functional_over_Z():
    # σ: H⊗H → Z normal except σ(g⊗g)=2; inverting it forces inverting 2.
    def functional(ring):
        h = group_algebra(ring, 2)
        c2, a = tensor_coalgebra(h.coalgebra, h.coalgebra), ground_algebra(ring)
        return c2, a, LinearMap(c2.carrier, a.carrier, [[1, 1, 1, 2]])

    with pytest.raises(NotConvInvertible) as exc:
        convolution_invert(*functional(ZZ))
    assert exc.value.reason == "no_right_inverse"
    # over Z/5 the same functional inverts
    c25, a5, sigma = functional(Zmod(5))
    inv = convolution_invert(c25, a5, sigma)
    assert convolve(c25, a5, sigma, inv) == a5.unit_map() @ c25.counit


def test_a_right_inverse_that_fails_the_left_check_is_one_sided(monkeypatch):
    # a kernel mutant: x⋆f comes out as the identity, not η∘ε
    h = group_algebra(ZZ, 2)
    monkeypatch.setattr(hopf, "convolve", lambda *args: LinearMap.identity(h.carrier))
    with pytest.raises(NotConvInvertible, match="right inverse exists but x⋆f ≠ η∘ε") as exc:
        compute_antipode(h.bialgebra)
    assert exc.value.reason == "one_sided"


def test_convolution_is_associative_and_unital():
    # on every triple of basis maps of Hom(H, H), and with η∘ε on both sides
    h = sweedler_hopf(QQ)
    c, a = h.coalgebra, h.algebra
    hom = hom_module(h.carrier, h.carrier)
    basis = [vec_to_map(hom.basis_vector(i), h.carrier, h.carrier) for i in range(hom.rank)]
    unit = a.unit_map() @ c.counit
    for f in basis:
        assert convolve(c, a, f, unit) == f == convolve(c, a, unit, f)
        for g in basis:
            fg = convolve(c, a, f, g)
            for k in basis[::5]:
                assert convolve(c, a, fg, k) == convolve(c, a, f, convolve(c, a, g, k))


# --- antipode computation ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antipode_of_cyclic_group_algebra_is_group_inverse(n):
    # Oracle: closed form S(g^i) = g^{n-i}, independent of the solver.
    h = unvalidated_hopf(*group_algebra_parts(ZZ, n))
    computed = compute_antipode(h.bialgebra)
    expected = map_from_columns(
        h.carrier, h.carrier,
        [h.carrier.basis_vector((-i) % n) for i in range(n)])
    assert computed == expected


def test_antipode_of_sweedler_hopf_by_convolution_solve():
    # Oracle: hand-derived S: 1↦1, g↦g, x↦-gx, gx↦x (frozen in the builder).
    h = unvalidated_hopf(*sweedler_parts(QQ))
    computed = compute_antipode(h.bialgebra)
    assert computed == h.antipode
    s2 = computed @ computed
    assert s2 != LinearMap.identity(h.carrier)
    assert (s2 @ s2) == LinearMap.identity(h.carrier)


def test_monoid_bialgebra_is_not_hopf():
    b = idempotent_monoid_bialgebra(ZZ)
    with pytest.raises(NotConvInvertible):
        compute_antipode(b)


def test_twisted_antipode_commutative_case_equals_antipode():
    h = unvalidated_hopf(*group_algebra_parts(ZZ, 2))
    assert compute_twisted_antipode(h.bialgebra) == h.antipode


def test_twisted_antipode_of_sweedler_is_cube_and_matrix_inverse():
    h = unvalidated_hopf(*sweedler_parts(QQ))
    sb = compute_twisted_antipode(h.bialgebra)
    s = h.antipode
    assert sb == (s @ s @ s)
    assert sb == invert_map(s)
    assert sb == h.twisted_antipode


def test_twisted_antipode_equals_matrix_inverse_when_bijective():
    for h in (unvalidated_hopf(*group_algebra_parts(ZZ, 3)),
              unvalidated_hopf(*sweedler_parts(Zmod(3)))):
        s = compute_antipode(h.bialgebra)
        assert compute_twisted_antipode(h.bialgebra) == invert_map(s)


# --- duals ------------------------------------------------------------------


def test_dual_of_group_algebra_is_pointwise_with_summed_comultiplication():
    h = group_algebra(ZZ, 2)
    d = dual_hopf(h)
    # product pointwise: δ_e⋆δ_e = δ_e, δ_e⋆δ_g = 0
    de = d.carrier.basis_vector(0)
    dg = d.carrier.basis_vector(1)
    assert d.algebra.product(de, de) == de
    assert d.algebra.product(de, dg) == (0, 0)
    # Δ*(δ_e) = δ_e⊗δ_e + δ_g⊗δ_g
    expected = tuple(a + b for a, b in zip(kron_vec(ZZ, de, de), kron_vec(ZZ, dg, dg)))
    assert d.coalgebra.comult.apply(de) == expected
    assert validate_hopf(d).ok


def test_double_dual_is_the_original():
    h = group_algebra(ZZ, 2)
    assert dual_hopf(dual_hopf(h)) == h
    h4 = sweedler_hopf(QQ)
    assert dual_hopf(dual_hopf(h4)) == h4


def test_sweedler_hopf_is_self_dual():
    # Explicit iso found by a linear solve for (unit, character)-skew-primitives.
    h = sweedler_hopf(QQ)
    d = dual_hopf(h)
    ring = QQ
    chi = d.carrier.vector((1, -1, 0, 0))  # the nontrivial algebra character
    assert d.coalgebra.comult.apply(chi) == kron_vec(ring, chi, chi)
    eps = d.algebra.unit
    # solve Δ*(P) = P⊗ε + χ⊗P
    cols = []
    for idx in range(4):
        p = d.carrier.basis_vector(idx)
        lhs = d.coalgebra.comult.apply(p)
        rhs = tuple(ring.add(a, b) for a, b in zip(kron_vec(ring, p, eps),
                                                   kron_vec(ring, chi, p)))
        cols.append(tuple(ring.sub(a, b) for a, b in zip(lhs, rhs)))
    import hopfdual.linalg as la

    system = map_from_columns(d.carrier, la.tensor_module(d.carrier, d.carrier),
                                       cols)
    kernel = PreparedSolver(ring, system.sparse_columns(), 16).kernel()
    skews = [dense.expand_sparse(v, 4, ring) for v in kernel]
    assert len(skews) == 2
    candidates = [p for p in skews
                  if d.algebra.product(p, p) == (0, 0, 0, 0) and any(x != 0 for x in p)]
    assert candidates
    p = candidates[0]
    cols_f = [eps, chi, p, d.algebra.product(chi, p)]
    f = map_from_columns(h.carrier, d.carrier, cols_f)
    iso = certify_algebra_iso(h.algebra, d.algebra, f, "self-duality")
    # also a coalgebra morphism compatible with the antipode
    assert (d.coalgebra.comult @ f) == (kron(f, f) @ h.coalgebra.comult)
    assert (d.coalgebra.counit @ f) == h.coalgebra.counit
    assert (d.antipode @ f) == (f @ h.antipode)
    assert iso.inverse @ f == LinearMap.identity(h.carrier)


# --- opposites, tensors, matrix algebras ------------------------------------


def test_opposite_is_involutive_bit_identically():
    h4 = sweedler_hopf(QQ)
    assert h4.algebra.opposite().opposite() == h4.algebra


def test_group_algebra_is_its_own_opposite():
    h = group_algebra(ZZ, 2)
    assert h.algebra.opposite() == h.algebra


def test_matrix_units():
    m2 = matrix_algebra(ZZ, 2)
    e11 = m2.carrier.basis_vector(0)
    e12 = m2.carrier.basis_vector(1)
    assert m2.product(e11, e12) == e12
    assert m2.product(e12, e11) == (0, 0, 0, 0)
    assert m2.validate().ok


def test_endomorphism_algebra_matches_matrix_algebra():
    mod = free_module(ZZ, ["a", "b", "c"])
    end = endomorphism_algebra(mod)
    mat = matrix_algebra(ZZ, 3)
    assert end.mult == mat.mult
    assert end.unit == mat.unit


@pytest.mark.parametrize("ring", dense.RINGS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_units_match_dense_oracle(ring, n):
    module = free_module(ring, [f"m{i}" for i in range(n)])
    for got, want in ((matrix_algebra(ring, n), dense.matrix_algebra(ring, n)),
                      (endomorphism_algebra(module), dense.endomorphism_algebra(module))):
        dense.assert_bit_identical(got.mult, want.mult)
        assert got.carrier == want.carrier
        assert got.carrier.labels == want.carrier.labels
        assert got.unit == want.unit
        assert [type(x) for x in got.unit] == [type(x) for x in want.unit]


def test_tensor_algebra_componentwise():
    a = group_algebra(ZZ, 2).algebra
    t = tensor_algebra(a, matrix_algebra(ZZ, 2))
    assert t.validate().ok
    assert t.rank == 8


def test_antipode_squared_identity_on_commutative_catalog():
    for h in (group_algebra(ZZ, 2), group_algebra(ZZ, 3), group_algebra(QQ, 3)):
        s = h.antipode
        assert (s @ s) == LinearMap.identity(h.carrier)


# --- structure builders against the dense Kronecker-and-twist definitions ----
# Random structure constants (not associative in general: the builders are
# defined on any table), with zero columns and rank-1 carriers.

ranks = st.integers(min_value=1, max_value=3)


def random_algebra(data, ring, rank, prefix):
    carrier = dense.module(ring, rank, prefix)
    mult = dense.draw_map(data, ring, tensor_module(carrier, carrier), carrier)
    return AlgebraData(carrier, mult, dense.draw_vector(data, ring, rank))


def random_coalgebra(data, ring, rank, prefix):
    carrier = dense.module(ring, rank, prefix)
    comult = dense.draw_map(data, ring, carrier, tensor_module(carrier, carrier))
    counit = dense.draw_map(data, ring, carrier, unit_module(ring))
    return CoalgebraData(carrier, comult, counit)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(dense.RINGS + (Zmod(4),)), ranks, ranks, st.data())
def test_tensor_algebra_matches_kron_and_twist(ring, m, n, data):
    # a rank-1 factor is sometimes R itself, whose columns the other keeps
    a, b = (ground_algebra(ring) if r == 1 and data.draw(st.booleans())
            else random_algebra(data, ring, r, prefix) for r, prefix in ((m, "a"), (n, "b")))
    t = tensor_algebra(a, b)
    dense.assert_bit_identical(t.mult, dense.tensor_mult(a, b))
    dense.assert_bit_identical(t.mult, dense.tensor_algebra_columns(a, b).mult)
    assert t.unit == kron_vec(ring, a.unit, b.unit)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(dense.RINGS), ranks, ranks, st.data())
def test_tensor_coalgebra_matches_twist_and_kron(ring, m, n, data):
    c = random_coalgebra(data, ring, m, "c")
    d = random_coalgebra(data, ring, n, "d")
    t = tensor_coalgebra(c, d)
    dense.assert_bit_identical(t.comult, dense.tensor_comult(c, d))
    dense.assert_bit_identical(t.counit, dense.kron(c.counit, d.counit))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(dense.RINGS), st.integers(min_value=1, max_value=4), st.data())
def test_opposites_match_composites_with_the_twist(ring, r, data):
    a = random_algebra(data, ring, r, "a")
    dense.assert_bit_identical(a.opposite().mult, dense.opposite_mult(a))
    c = random_coalgebra(data, ring, r, "c")
    cop = dense.co_opposite_comult(c)
    dense.assert_bit_identical(c.co_opposite().comult, cop)
    assert c.is_cocommutative() == (cop.matrix == c.comult.matrix)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(dense.RINGS), ranks, ranks, st.data())
def test_convolve_matches_mult_kron_comult(ring, rc, ra, data):
    c = random_coalgebra(data, ring, rc, "c")
    a = random_algebra(data, ring, ra, "a")
    f = dense.draw_vector(data, ring, rc * ra)
    g = dense.draw_vector(data, ring, rc * ra)
    got = convolve(c, a, *(vec_to_map(v, c.carrier, a.carrier) for v in (f, g)))
    want = dense.convolve(c, a, f, g)
    dense.assert_bit_identical(got, dense.hom_map(want, c.carrier, a.carrier))
    assert dense.ConvolutionAlgebra(c, a).convolve(f, g) == want


# --- the associativity certificate against the sparse-dict products ----------
# Associative tables (known algebras in a random unitriangular basis) with an
# optional wrong entry, and wholly random tables; the unit is kept or redrawn.
# Over Q the tables are also drawn integral (an integer basis change and an
# integer wrong entry: the certificate runs over Z) and halved (the same basis
# scaled by 1/2, so the constants are halves of integers: it stays over Q).
# Monomial tables keep their basis, so their columns are one term or empty and
# repeat: C5, C6 and their H#H* (ranks 25 and 36), Sweedler's xg = -gx (a
# one-term column with coefficient -1), and a table where (xx)x = 2y·x = 2·3z
# cancels to zero over Z/6 while x(xx) = x·2y is empty.


def known_algebra(data, ring):
    return data.draw(st.sampled_from([
        lambda: ground_algebra(ring),
        lambda: unvalidated_hopf(*group_algebra_parts(ring, 3)).algebra,
        lambda: matrix_algebra(ring, 2),
        lambda: unvalidated_hopf(*sweedler_parts(ring)).algebra,
        lambda: tensor_algebra(*[unvalidated_hopf(*group_algebra_parts(ring, 2)).algebra] * 2),
    ]))()


def rebased(data, base, entries=None, scale=None):
    """``base`` in a random unitriangular basis P (times ``scale``): the
    rebased algebra and P, an algebra isomorphism from it onto ``base``."""
    ring, r = base.ring, base.rank
    carrier = dense.module(ring, r, "e")
    entries = dense.elements(ring) if entries is None else entries
    P = LinearMap(carrier, carrier, [
        [ring.one if i == j else data.draw(entries) if i < j
         else ring.zero for j in range(r)] for i in range(r)])
    if scale is not None:
        P = LinearMap(carrier, carrier, [[scale * x for x in row] for row in P.matrix])
    Pi = invert_map(P)
    mult = Pi @ base.mult @ kron(P, P)
    alg = AlgebraData(carrier, LinearMap(mult.domain, carrier, mult.matrix),
                      Pi.apply(base.unit))
    return alg, LinearMap(carrier, base.carrier, P.matrix)


def cancelling_table(ring):
    """1, x, y, z with x·x = 2y and y·x = 3z, every other product of x, y, z
    zero: associative exactly when 6 = 0."""
    quads = [(0, k, k, 1) for k in range(4)] + [(k, 0, k, 1) for k in range(1, 4)]
    return algebra_from_quadruples(free_module(ring, ["1", "x", "y", "z"]),
                                   quads + [(1, 1, 2, 2), (2, 1, 3, 3)], (1, 0, 0, 0))


def group_smash_dual(ring, n):
    """H#H* for H = R[C_n]: rank n², one-term columns with coefficient 1."""
    h = group_algebra(ring, n)
    return right_smash(regular_comodule(h), SubalgebraU.full_dual(h))


@functools.cache
def monomial_tables(ring):
    """(table, associative) pairs, built once per ring."""
    return ((unvalidated_hopf(*group_algebra_parts(ring, 5)).algebra, True),
            (unvalidated_hopf(*group_algebra_parts(ring, 6)).algebra, True),
            (group_smash_dual(ring, 5), True),
            (group_smash_dual(ring, 6), True),
            (unvalidated_hopf(*sweedler_parts(ring)).algebra, True),
            (cancelling_table(ring), ring.is_zero(ring.of(6))))


def with_wrong_entry(data, alg, entries=None):
    rows = [list(row) for row in alg.mult.matrix]
    i = data.draw(st.integers(0, alg.rank - 1))
    j = data.draw(st.integers(0, alg.rank ** 2 - 1))
    rows[i][j] = data.draw(dense.elements(alg.ring) if entries is None else entries)
    return AlgebraData(alg.carrier, LinearMap(alg.mult.domain, alg.carrier, rows),
                       alg.unit)


def record_tuples(rep):
    return [(r.check_id, r.statement, r.passed, r.witness) for r in rep.records]


@settings(max_examples=160, deadline=None)
@given(st.sampled_from(dense.RINGS), st.sampled_from(("any", "integral", "halved")),
       st.data())
def test_validate_matches_the_sparse_dict_products(ring, q_table, data):
    q_table = q_table if ring == QQ else "any"
    integers = st.integers(-3, 3).map(QQ.of)
    table = ("rebased" if q_table != "any"
             else data.draw(st.sampled_from(("rebased", "monomial", "random"))))
    intact = True
    if table == "rebased":
        alg = rebased(data, known_algebra(data, ring),
                      None if q_table == "any" else integers,
                      QQ.of("1/2") if q_table == "halved" else None)[0]
        if q_table != "any":  # integral tables hold ints only, halved ones a Fraction
            types = {type(c) for col in alg.mult.sparse_columns() for _, c in col}
            assert (types == {int}) == (q_table == "integral")
    elif table == "monomial":
        alg, intact = data.draw(st.sampled_from(monomial_tables(ring)))
    else:
        alg, intact = random_algebra(data, ring, data.draw(st.integers(1, 4)), "a"), False
    if intact and data.draw(st.booleans()):
        wrong = integers if q_table == "integral" else None
        alg, intact = with_wrong_entry(data, alg, wrong), False
    if data.draw(st.booleans()):
        alg, intact = AlgebraData(alg.carrier, alg.mult,
                                  dense.draw_vector(data, ring, alg.rank)), False
    got = alg.validate("subject")
    assert got.subject == "subject"
    assert record_tuples(got) == record_tuples(dense.validate_algebra(alg, "subject"))
    if intact:
        assert got.ok


def test_validate_reports_the_first_failing_triple():
    # e·e = 0 instead of e in the rank-2 group algebra: the first failing
    # triple in (i, j, k) order is (e, e, g), and 1·e ≠ e breaks the unit law
    alg = unvalidated_hopf(*group_algebra_parts(ZZ, 2)).algebra
    rows = [list(row) for row in alg.mult.matrix]
    rows[0][0] = 0
    broken = AlgebraData(alg.carrier, LinearMap(alg.mult.domain, alg.carrier, rows),
                         alg.unit)
    rep = broken.validate()
    assert record_tuples(rep) == record_tuples(dense.validate_algebra(broken))
    assert [(r.check_id, r.passed, r.witness) for r in rep.records] == [
        ("algebra.assoc", False, "(e,e,g)"), ("algebra.unit", False, "e")]


@pytest.mark.parametrize("ring", dense.RINGS)
def test_validate_finds_the_first_failure_inside_a_row(ring):
    # g·g³ = g⁴ + e instead of g⁴ in R[C5]: every triple before the row
    # (g, g) holds, and that row fails at k = g² and again at k = g³
    alg = unvalidated_hopf(*group_algebra_parts(ring, 5)).algebra
    rows = [list(row) for row in alg.mult.matrix]
    rows[0][1 * 5 + 3] = ring.one
    broken = AlgebraData(alg.carrier, LinearMap(alg.mult.domain, alg.carrier, rows),
                         alg.unit)
    rep = broken.validate()
    assert record_tuples(rep) == record_tuples(dense.validate_algebra(broken))
    assert [(r.check_id, r.passed, r.witness) for r in rep.records] == [
        ("algebra.assoc", False, "(g,g,g^2)"), ("algebra.unit", True, None)]


# --- the morphism witness against the dense images ---------------------------
# Basis changes P of known and monomial algebras are isomorphisms both ways;
# they are drawn intact, with one wrong entry, or with a wrong unit (the zero
# map, or a redrawn source unit).  Random maps between random tables cover
# the rest.  The monomial sources repeat their columns.

MORPHISM_RINGS = (ZZ, QQ, Zmod(6), Zmod(7))


@settings(max_examples=160, deadline=None)
@given(st.sampled_from(MORPHISM_RINGS),
       st.sampled_from(("iso", "wrong entry", "wrong unit", "random")), st.data())
def test_morphism_witness_matches_the_dense_images(ring, kind, data):
    if kind == "random":
        source = random_algebra(data, ring, data.draw(ranks), "a")
        target = random_algebra(data, ring, data.draw(ranks), "b")
        map_ = dense.draw_map(data, ring, source.carrier, target.carrier)
    else:
        small = [(t, ok) for t, ok in monomial_tables(ring) if t.rank <= 6]
        base = (known_algebra(data, ring) if data.draw(st.booleans())
                else data.draw(st.sampled_from(small))[0])
        source, P = rebased(data, base)
        target, map_ = base, P
        if data.draw(st.booleans()):
            source, target, map_ = base, source, invert_map(P)
        if kind == "wrong entry":
            rows = [list(row) for row in map_.matrix]
            i = data.draw(st.integers(0, target.rank - 1))
            j = data.draw(st.integers(0, source.rank - 1))
            rows[i][j] = data.draw(dense.elements(ring))
            map_ = LinearMap(map_.domain, map_.codomain, rows)
        elif kind == "wrong unit" and data.draw(st.booleans()):
            map_ = LinearMap(map_.domain, map_.codomain,
                             [[ring.zero] * source.rank] * target.rank)
        elif kind == "wrong unit":
            source = AlgebraData(source.carrier, source.mult,
                                 dense.draw_vector(data, ring, source.rank))
    got = algebra_morphism_witness(source, target, map_)
    assert got == dense.algebra_morphism_witness(source, target, map_)
    if kind == "iso":
        assert got is None


# --- the morphism certificate and R⊗X against their parent bodies -------------
# Maps with images of 0, 1 and 2 or more terms: monomial maps e_i ↦ c·e_π(i)
# (c = 0 gives an empty image), basis changes, the counit onto R (Sweedler's
# x ↦ 0), and x ↦ c·y from the dual numbers into y·y = 3y, whose lone
# products 2·2 (Z/4) and 4·3 (Z/6) are zero.  Planted failures change one
# entry of one image, or the image of a unit term.

PARENT_RINGS = (ZZ, QQ, Zmod(4), Zmod(6))


def dual_numbers_into_3y(ring, c):
    """x ↦ c·y from R[x]/(x²) into R[y]/(y² - 3y), 1 ↦ 1: a morphism exactly
    when 3c² = 0."""
    square = free_module(ring, ["1", "x"]), free_module(ring, ["1", "y"])
    units = [(0, k, k, 1) for k in range(2)] + [(1, 0, 1, 1)]
    source = algebra_from_quadruples(square[0], units, (1, 0))
    target = algebra_from_quadruples(square[1], units + [(1, 1, 1, 3)], (1, 0))
    return source, target, map_from_columns(source.carrier, target.carrier,
                                            [(1, 0), (0, ring.of(c))])


def morphism_case(data, ring, kind):
    if kind == "zero divisor":
        return dual_numbers_into_3y(ring, data.draw(dense.elements(ring)))
    if kind == "counit":
        h = data.draw(st.sampled_from((sweedler_parts, lambda r: group_algebra_parts(r, 3))))
        h = unvalidated_hopf(*h(ring))
        return h.algebra, ground_algebra(ring), h.coalgebra.counit
    base = known_algebra(data, ring)
    if kind == "basis change":
        source, P = rebased(data, base)
        return source, base, P
    r = base.rank
    perm = data.draw(st.sampled_from((list(range(r)), list(range(r))[::-1])))
    scale = [data.draw(st.one_of(st.just(ring.one), dense.elements(ring))) for _ in range(r)]
    cols = [[scale[i] if t == perm[i] else ring.zero for t in range(r)] for i in range(r)]
    return base, base, map_from_columns(base.carrier, base.carrier, cols)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PARENT_RINGS),
       st.sampled_from(("monomial", "basis change", "counit", "zero divisor")),
       st.sampled_from((None, "entry", "unit")), st.data())
def test_morphism_failure_equals_its_parent_body(ring, kind, plant, data):
    source, target, map_ = morphism_case(data, ring, kind)
    unital = map_.apply(source.unit) == target.unit
    cols = [list(col) for col in zip(*map_.matrix)]
    if plant == "entry":
        j = data.draw(st.integers(0, source.rank - 1))
        t = data.draw(st.integers(0, target.rank - 1))
        cols[j][t] = data.draw(dense.elements(ring))
    elif plant == "unit":
        j = data.draw(st.sampled_from([j for j, u in enumerate(source.unit) if u]))
        cols[j][0] = ring.add(cols[j][0], ring.one)
    map_ = map_from_columns(map_.domain, map_.codomain, cols)
    got = hopf._morphism_failure(source, target, map_)
    assert got == dense.morphism_failure(source, target, map_)
    if plant == "unit" and unital:  # map(1) moved by u_j ≠ 0
        assert got == "1"
    if plant is None and kind in ("basis change", "counit"):
        assert got is None


@pytest.mark.parametrize("ring", PARENT_RINGS)
def test_morphism_failure_corner_cases(ring):
    # lone products that are zero divisors, an empty image, images of two
    # or more terms: each passes or fails as the parent body does
    for c in (1, 2):
        case = dual_numbers_into_3y(ring, c)
        zero = ring.is_zero(ring.mul(ring.of(3), ring.mul(ring.of(c), ring.of(c))))
        assert hopf._morphism_failure(*case) == dense.morphism_failure(*case) \
            == (None if zero else (1, 1))
    h = unvalidated_hopf(*sweedler_parts(ring))
    assert () in h.coalgebra.counit.sparse_columns()
    assert hopf._morphism_failure(h.algebra, ground_algebra(ring), h.coalgebra.counit) is None
    m2 = matrix_algebra(ring, 2)
    conj = map_from_columns(m2.carrier, m2.carrier,  # X ↦ PXP⁻¹, P = [[1, 1], [0, 1]]
                            [(1, -1, 0, 0), (0, 1, 0, 0), (1, -1, 1, -1), (0, 1, 0, 1)])
    assert max(len(col) for col in conj.sparse_columns()) >= 2
    assert hopf._morphism_failure(m2, m2, conj) is dense.morphism_failure(m2, m2, conj) is None


def test_a_morphism_certificate_needs_one_ring():
    # the ranks agree, the rings do not: no verdict is given across rings
    m2z, m2z3 = matrix_algebra(ZZ, 2), matrix_algebra(Zmod(3), 2)
    for map_ in (LinearMap.identity(m2z.carrier), LinearMap.identity(m2z3.carrier)):
        with pytest.raises(RingMismatch):
            certify_algebra_iso(m2z, m2z3, map_)
        with pytest.raises(RingMismatch):
            algebra_morphism_witness(m2z, m2z3, map_)
    with pytest.raises(RingMismatch):
        algebra_morphism_witness(m2z, m2z, LinearMap.identity(m2z3.carrier))


@pytest.mark.parametrize("ring", PARENT_RINGS)
def test_tensor_algebra_with_a_rank_one_factor(ring):
    # R on either side leaves the other factor's columns as they are; a
    # rank-1 table 1·1 = 2 (over Z/6 too) or a zero column is a Kronecker
    # product like any other table
    one = free_module(ring, ["1"])
    ground = ground_algebra(ring)
    doubled = AlgebraData(one, map_from_columns(tensor_module(one, one), one, [(ring.of(2),)]),
                          (ring.of(4),))
    empty = AlgebraData(one, map_from_columns(tensor_module(one, one), one, [(ring.zero,)]),
                        (ring.one,))
    m2 = matrix_algebra(ring, 2)
    sw = unvalidated_hopf(*sweedler_parts(ring)).algebra
    for a, b in ((ground, m2), (m2, ground), (ground, sw), (sw, ground), (ground, ground),
                 (doubled, m2), (m2, doubled), (empty, sw), (sw, empty), (doubled, empty),
                 (doubled, ground), (ground, empty)):
        got, want = tensor_algebra(a, b), dense.tensor_algebra_columns(a, b)
        dense.assert_bit_identical(got.mult, want.mult)
        dense.assert_bit_identical(got.mult, dense.tensor_mult(a, b))
        assert got.unit == want.unit
        assert got.carrier.labels == want.carrier.labels
    for a, b, x in ((ground, m2, m2), (sw, ground, sw)):
        assert all(map(operator.is_, tensor_algebra(a, b).mult.sparse_columns(),
                       x.mult.sparse_columns()))
