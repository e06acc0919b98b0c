"""Duality maps, diagrams, certified isomorphisms, coactions, theorem routes."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from builders import (
    FunctionalSpan,
    cyclic_document,
    diagram,
    full_dual_lambda,
    lambda_coordinates,
    map_from_columns,
    map_to_vec,
)
from dense_oracle import product_many, vec_add, vec_scale, zero_vector
from hopfdual import catalog
from hopfdual.actions import (
    WeakActionData,
    regular_comodule,
    trivial_action,
    validate_weak_action,
)
from hopfdual.catalog import (
    ground_algebra,
    group_algebra,
    swap_action_data,
    sweedler_hopf,
    sweedler_module_action,
)
from hopfdual.crossed import (
    CleftData,
    CocycleData,
    CrossedProductData,
    build_crossed_product,
    cleft_maps,
    crossed_from_integral,
    integral_from_crossed,
    opposite_crossed,
    smash_product_data,
    trivial_cocycle,
    validate_cocycle,
)
from hopfdual.duality import (
    CoactionSide,
    DiagramSide,
    build_diagram,
    chi_map,
    coaction_preimage_of_U,
    coaction_table,
    compat_check,
    compat_maps,
    delta_map,
    duality_iso,
    epsilon_maps,
    final_chain,
    gamma_map,
    lambda_map,
    matrix_iso,
    nu_map,
    phi_maps,
    pi_map,
    rho_endo,
    rl_check,
    theorem_suite,
)
from hopfdual import duality
from hopfdual.errors import CommutativityFailure, NotInvertible
from hopfdual.hopf import (
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    HopfData,
    certify_algebra_iso,
    convolution_invert,
    endomorphism_algebra,
    matrix_algebra,
)
from hopfdual.instancefile import parse_instance_dict
from hopfdual.linalg import (
    LinearMap,
    determinant,
    invert_map,
    kron,
    kron_vec,
    sparse_vector,
    tensor_module,
    unit_vectors,
)
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.smash import (
    ModuleSide,
    SubalgebraU,
    op_smash,
    right_smash,
)
from hopfdual.suites import Derived, run_suite


def gauss_crossed():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    b = action.bialgebra
    A = action.algebra
    cols = [A.carrier.vector([-1]) if i == j == 1 else A.unit
            for i in range(2) for j in range(2)]
    sigma = map_from_columns(tensor_module(b.carrier, b.carrier),
                                   A.carrier, cols)
    return build_crossed_product(action, validate_cocycle(action, sigma))


def triv_crossed(ring=ZZ, n=2):
    return smash_product_data(trivial_action(group_algebra(ring, n),
                                             ground_algebra(ring)))


def certified_iso(cp, side):
    """U = H* on ``side`` and the certified duality isomorphism of ``cp``."""
    h = cp.action.hopf
    U = SubalgebraU.full_dual(
        h, ModuleSide.RIGHT if side is DiagramSide.RIGHT else ModuleSide.LEFT)
    return U, duality_iso(diagram(cp, U, side), lambda_coordinates(h, U))


# --- λ and the RL-condition ---------------------------------------------------


def test_lambda_is_invertible_over_Z_for_full_dual():
    h = group_algebra(ZZ, 2)
    lam = lambda_map(h, SubalgebraU.full_dual(h))
    assert ZZ.is_unit(determinant(lam))


def test_lambda_sends_unit_to_identity():
    h = group_algebra(ZZ, 2)
    U = SubalgebraU.full_dual(h)
    lam = lambda_map(h, U)
    one_eps = kron_vec(ZZ, h.algebra.unit, dense_oracle.expand_sparse(U.eps_coords, U.rank, ZZ))
    assert lam.apply(one_eps) == map_to_vec(LinearMap.identity(h.carrier))


@pytest.mark.parametrize("make", [
    lambda: group_algebra(ZZ, 2),
    lambda: group_algebra(ZZ, 3),
    lambda: group_algebra(QQ, 3),
    lambda: sweedler_hopf(QQ),
    lambda: sweedler_hopf(Zmod(3)),
])
def test_lambda_maps_are_unital_algebra_isos(make):
    # Both λ: H#H* ≅ End(H) and λ̄: H#^opH* ≅ End(H)^op, certified.
    h = make()
    U = SubalgebraU.full_dual(h, ModuleSide.RIGHT)
    lam = lambda_map(h, U)
    smash = right_smash(regular_comodule(h), U)
    end = endomorphism_algebra(h.carrier)
    certify_algebra_iso(smash, end, lam, "λ")
    UL = SubalgebraU.full_dual(h, ModuleSide.LEFT)
    lamb = lambda_map(h, UL)
    opsm = op_smash(regular_comodule(h), UL)
    certify_algebra_iso(opsm, end.opposite(), lamb, "λ̄")


def test_rl_witness_for_counit_is_trivial():
    h = group_algebra(ZZ, 2)
    U = SubalgebraU.full_dual(h)
    eps = ((0, 1), (1, 1))
    rep = rl_check(h, U, lambda_coordinates(h, U), [eps])
    assert rep.ok
    # ρ(ε) = id: the witness identity Σ h_j(g_j⇀k) = k↼ε holds
    assert rho_endo(h, eps) == sparse_vector(map_to_vec(LinearMap.identity(h.carrier)))


def test_rl_witnesses_exist_for_full_dual_everywhere():
    for make in (lambda: group_algebra(ZZ, 2), lambda: sweedler_hopf(QQ)):
        h = make()
        U = SubalgebraU.full_dual(h)
        V = unit_vectors(h.ring, h.rank)
        rep = rl_check(h, U, lambda_coordinates(h, U), V)
        assert rep.ok
        # verify each witness satisfies its defining identity, on the dense
        # forms of its sparse vectors
        b = h.bialgebra
        for w in rep.witnesses:
            g = dense_oracle.expand_sparse(w.g, h.rank, h.ring)
            for t in range(h.rank):
                lhs = zero_vector(b.carrier)
                for h_vec, g_vec in w.pairs:
                    h_vec, g_vec = (dense_oracle.expand_sparse(v, h.rank, h.ring)
                                    for v in (h_vec, g_vec))
                    term = b.algebra.product(h_vec, dense_oracle.hit(b, g_vec, t))
                    lhs = vec_add(b.ring, lhs, term)
                rhs = zero_vector(b.carrier)
                for c, (k1, k2) in b.coalgebra.sweedler_basis(t, 2):
                    rhs = vec_add(b.ring, rhs, vec_scale(
                        b.ring, b.ring.mul(c, g[k1]),
                        b.carrier.basis_vector(k2)))
                assert lhs == rhs


def test_rl_fails_for_too_small_U():
    # U = span{ε} cannot express the nontrivial right-hit operators.
    h = group_algebra(ZZ, 2)
    U = SubalgebraU(h, [((0, 1), (1, 1))], ModuleSide.RIGHT)
    rep = rl_check(h, U, lambda_coordinates(h, U), [((1, 1),)])  # g = δ_g
    assert not rep.ok


# --- φ and ε maps ---------------------------------------------------------------


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
def test_phi_maps_for_catalog_hopf_algebras(side):
    for make in (lambda: group_algebra(ZZ, 2), lambda: sweedler_hopf(QQ),
                 lambda: sweedler_hopf(Zmod(3))):
        phi_maps(make(), side)  # raises unless inverse + multiplicative


def test_epsilon_round_trip_and_chi_factorization():
    h = group_algebra(ZZ, 2)
    from hopfdual.catalog import product_ring_algebra

    for side in DiagramSide:
        epsilon_maps(h, product_ring_algebra(ZZ, 2), *full_dual_lambda(h, side), side)
    sweedler = sweedler_hopf(QQ)
    epsilon_maps(sweedler, ground_algebra(QQ),
                 *full_dual_lambda(sweedler, DiagramSide.RIGHT), DiagramSide.RIGHT)


def test_epsilon_with_ground_coefficients_is_phi():
    # With A = R the ε conjugation reduces to φ₁ on Hom(H,H).
    for side in (DiagramSide.RIGHT, DiagramSide.OP):
        h = group_algebra(ZZ, 2)
        eps, _ = epsilon_maps(h, ground_algebra(ZZ), *full_dual_lambda(h, side), side)
        phi1, _ = phi_maps(h, side)
        assert eps.matrix == phi1.matrix


def test_chi_sends_unit_to_identity_endomorphism():
    h = group_algebra(ZZ, 2)
    U = SubalgebraU.full_dual(h)
    A = ground_algebra(ZZ)
    chi = chi_map(h, A, lambda_map(h, U), DiagramSide.RIGHT)
    eps = dense_oracle.expand_sparse(U.eps_coords, U.rank, ZZ)
    arg = kron_vec(ZZ, A.unit, kron_vec(ZZ, h.algebra.unit, eps))
    end_unit = [0] * 4
    for i in range(2):
        end_unit[(i * 1 + 0) * 2 + i] = 1
    assert chi.apply(arg) == tuple(end_unit)


# --- the diagram ---------------------------------------------------------------


@pytest.mark.parametrize("make,side", [
    (triv_crossed, DiagramSide.RIGHT),
    (triv_crossed, DiagramSide.OP),
    (gauss_crossed, DiagramSide.RIGHT),
    (gauss_crossed, DiagramSide.OP),
    (lambda: smash_product_data(swap_action_data(ZZ)), DiagramSide.RIGHT),
    (lambda: smash_product_data(swap_action_data(ZZ)), DiagramSide.OP),
])
def test_diagram_commutes_and_pi_invertible(make, side):
    cp = make()
    h = cp.action.hopf
    U = SubalgebraU.full_dual(
        h, ModuleSide.RIGHT if side is DiagramSide.RIGHT else ModuleSide.LEFT)
    diag = diagram(cp, U, side)
    assert cp.ring.is_unit(determinant(diag.pi))


def test_pi_order_is_resolved_by_commutativity(monkeypatch):
    # π's displayed product order is ambiguous: the library's π is the
    # g(k₅)-on-the-left reading, and the other reading breaks π∘α = γ,
    # which build_diagram's commutativity gate must catch
    cp = smash_product_data(sweedler_module_action(QQ))
    h = cp.action.hopf
    U = SubalgebraU.full_dual(h)
    diag = diagram(cp, U, DiagramSide.RIGHT)
    dense_oracle.assert_bit_identical(diag.pi, dense_oracle.pi_map(cp, DiagramSide.RIGHT))
    assert diag.pi @ diag.alpha == diag.gamma
    g_right = dense_oracle.pi_map(cp, DiagramSide.RIGHT, g_left=False)
    assert g_right @ diag.alpha != diag.gamma
    monkeypatch.setattr(duality, "pi_map", lambda cp, side, nu: g_right)
    with pytest.raises(CommutativityFailure) as exc:
        diagram(cp, U, DiagramSide.RIGHT)
    assert "π∘α ≠ γ" in str(exc.value)
    assert exc.value.witness


def test_duality_iso_not_invertible_for_proper_U():
    cp = triv_crossed()
    h = cp.action.hopf
    span = FunctionalSpan(h, [(1, 1)])
    chi = chi_map(h, cp.action.algebra, lambda_map(h, span), DiagramSide.RIGHT)
    with pytest.raises(NotInvertible):
        invert_map(chi)


def test_non_unit_determinant_leg_reports_not_invertible():
    # A rank-2 span of index 2 in H*: χ is square with determinant ±4.
    cp = triv_crossed()
    h = cp.action.hopf
    span = FunctionalSpan(h, [(1, 1), (1, -1)])
    chi = chi_map(h, cp.action.algebra, lambda_map(h, span), DiagramSide.RIGHT)
    with pytest.raises(NotInvertible) as exc:
        invert_map(chi)
    assert not ZZ.is_unit(exc.value.determinant)


# --- certified duality isomorphisms ----------------------------------------------


@pytest.mark.parametrize("make", [
    triv_crossed,
    gauss_crossed,
    lambda: smash_product_data(swap_action_data(ZZ)),
    lambda: smash_product_data(sweedler_module_action(QQ)),
])
def test_duality_iso_both_sides(make):
    cp = make()
    certified_iso(cp, DiagramSide.RIGHT)
    certified_iso(cp, DiagramSide.OP)


def matrix_form(cp):
    U, iso = certified_iso(cp, DiagramSide.RIGHT)
    return matrix_iso(cp, lambda_map(cp.action.hopf, U), iso)


def test_matrix_iso_families():
    for make, n, expect_rank in ((triv_crossed, 2, 4), (gauss_crossed, 2, 4),
                                 (lambda: triv_crossed(ZZ, 3), 3, 9)):
        cp = make()
        res = matrix_form(cp)
        assert res.n == n
        assert res.iso.map.codomain.rank == expect_rank
    res = matrix_form(smash_product_data(swap_action_data(ZZ)))
    assert res.iso.map.codomain.rank == 8  # M₂ of a rank-2 coefficient algebra


def shared_diagram(ctx, side):
    """``build_diagram`` on ``side`` from the objects ``ctx`` shares."""
    return build_diagram(ctx.diagram_crossed, ctx.u(side), side, ctx.b_smash(side),
                         ctx.h_smash(side), ctx.lam(side))


def failed_checks(report):
    return {r.check_id: r.witness for section in report.sections
            for r in section.records if not r.passed}


@pytest.mark.parametrize("name", [name for name, _, _ in catalog.list_entries()])
def test_duality_iso_equals_the_inverse_of_chi_after_gamma(name):
    # for U = H*, χ is square and invertible: γ read in λ's coordinates is
    # χ⁻¹∘γ bit for bit, on both sides of every catalog entry
    ctx = Derived(catalog.get(name))
    for side in DiagramSide:
        diag = shared_diagram(ctx, side)
        dense_oracle.assert_bit_identical(duality_iso(diag, ctx.lam_coords(side)).map,
                                          dense_oracle.duality_iso_map(diag))


@pytest.mark.parametrize("order", [2, 3])
def test_coset_functions_of_a_subgroup_certify_both_sides(order):
    # R[C6] over Z/7 with U the functions constant on the cosets of the
    # order-2 or order-3 subgroup: χ is injective but not square, each
    # side's isomorphism is certified and χ after it is γ; the matrix form
    # needs λ invertible, so certifying id⊗λ raises
    doc = cyclic_document(6, 7)
    doc["U"] = [["1" if i % (6 // order) == c else "0" for i in range(6)]
                for c in range(6 // order)]
    entry = parse_instance_dict(doc).to_entry()
    report = run_suite(entry, "all")
    assert len([r for section in report.sections for r in section.records]) == 41
    assert failed_checks(report) == {}
    ctx = Derived(entry)
    for side in DiagramSide:
        diag = shared_diagram(ctx, side)
        assert diag.chi.domain.rank < diag.chi.codomain.rank
        assert diag.chi @ duality_iso(diag, ctx.lam_coords(side)).map == diag.gamma
    with pytest.raises(NotInvertible):
        matrix_iso(ctx.diagram_crossed, ctx.lam(DiagramSide.RIGHT),
                   ctx.duality_iso(DiagramSide.RIGHT))


@pytest.mark.parametrize("name,U,compat,column", [
    ("sweedler4_smash_Q", [(1, 1, 0, 0), (1, -1, 0, 0)], "(1,y)", "y⊗1⊗u0"),
    ("swap_smash", [(1, 1)], "(e,u0)", "u0⊗e⊗u0"),
    ("m2_conj_smash", [(1, 1)], "(e,e[0,0])", "e[0,0]⊗e⊗u0"),
    ("gauss_cleft", [(1, 1)], "(g,c0)", "c0⊗g⊗u0"),
])
def test_a_gamma_outside_chi_fails_each_route_naming_its_column(name, U, compat,
                                                               column):
    # U = span{ε, α} (Sweedler's two characters) resp. span{ε}: the right
    # (V, U) compatibility fails, so the theorem suite stops there, and the
    # cleft and opposite routes, which ask for the right isomorphism anyway,
    # fail on the first column of γ outside χ's image
    entry = dataclasses.replace(catalog.get(name), u_span=U)
    outside = f"γ({column}) is not in the image of χ"
    assert failed_checks(run_suite(entry, "all")) == {
        "right.compat": compat, "duality.theorems": None,
        "cleft.route": outside, "opposite.chain": outside}
    ctx = Derived(entry)
    with pytest.raises(CommutativityFailure, match=r"^γ\(") as exc:
        duality_iso(shared_diagram(ctx, DiagramSide.RIGHT),
                    ctx.lam_coords(DiagramSide.RIGHT))
    assert exc.value.witness == column


# --- compatibility ----------------------------------------------------------------


def test_full_dual_is_always_compatible():
    cp = gauss_crossed()
    h = cp.action.hopf
    U = SubalgebraU.full_dual(h)
    V = unit_vectors(h.ring, h.rank)
    rep = compat_check(cp, U, lambda_coordinates(h, U), V, DiagramSide.RIGHT)
    assert rep.ok


def test_phi_reduces_to_bm_form_for_trivial_cocycle():
    # φ(h⊗a)(h̃) = [S̄(h̃)a]ε(h) when σ is trivial.
    cp = smash_product_data(swap_action_data(ZZ))
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    phi, _ = compat_maps(cp, DiagramSide.RIGHT)
    eps = b.coalgebra.counit_scalar
    for i in range(b.rank):
        for j in range(A.rank):
            col = phi.column(i * A.rank + j)
            for t in range(b.rank):
                acted = dense_oracle.act(cp.action, h.twisted_antipode.column(t),
                                         A.carrier.basis_vector(j))
                expected = tuple(ZZ.mul(eps(b.carrier.basis_vector(i)), x)
                                 for x in acted)
                got = tuple(col[p * b.rank + t] for p in range(A.rank))
                assert got == expected


def compat_records(rep, h):
    """The φ/ψ witnesses, then the RL failures and witnesses read as dense
    tuples, as ``dense_oracle.compat_records`` gives them."""
    return (rep.phi_witness, rep.psi_witness, *dense_oracle.rl_dense(rep.rl, h.ring, h.rank))


def test_small_V_fails_compatibility_with_witness():
    cp = smash_product_data(swap_action_data(ZZ))
    h = cp.action.hopf
    U = SubalgebraU.full_dual(h)
    rep = compat_check(cp, U, lambda_coordinates(h, U), [((0, 1), (1, 1))],
                       DiagramSide.RIGHT)
    assert not rep.ok
    assert not rep.phi_contained and not rep.psi_contained
    # the witness names the first basis pair h⊗a whose image leaves J(A⊗V)
    assert rep.phi_witness == rep.psi_witness == "(e,u0)"
    assert compat_records(rep, h) == dense_oracle.compat_records(
        cp, U, [(1, 1)], DiagramSide.RIGHT)


def test_wrong_sigma_value_fails_compatibility_with_the_oracle_witness():
    # over Z, φ and ψ of gauss span exactly {(1,1), (1,-1)} = J(Z⊗V); with
    # σ(g⊗g) = 2 instead of -1, φ(g⊗1) = (1, 2) leaves that lattice
    cp = gauss_crossed()
    h = cp.action.hopf
    U = SubalgebraU.full_dual(h)
    V = [(1, 1), (1, -1)]
    sparse_V = [sparse_vector(v) for v in V]
    lam_coords = lambda_coordinates(h, U)
    rep = compat_check(cp, U, lam_coords, sparse_V, DiagramSide.RIGHT)
    assert rep.phi_contained and rep.psi_contained
    mutant = with_sigma_entry(cp, 3, 2)
    for side in (DiagramSide.RIGHT, DiagramSide.OP):
        maps = compat_maps(mutant, side)
        want = dense_oracle.compat_maps(mutant, side)
        for got, ref in zip(maps, want):
            dense_oracle.assert_bit_identical(got, ref)
        assert maps != compat_maps(cp, side)
    rep = compat_check(mutant, U, lam_coords, sparse_V, DiagramSide.RIGHT)
    assert not rep.phi_contained
    assert rep.phi_witness == "(g,1)"
    assert compat_records(rep, h) == dense_oracle.compat_records(
        mutant, U, V, DiagramSide.RIGHT)


# --- coactions -------------------------------------------------------------------


def test_coactions_trivial_on_group_algebras():
    for ring in (ZZ, Zmod(6)):
        h = group_algebra(ring, 2)
        for side in (CoactionSide.UPSILON, CoactionSide.OMEGA):
            table = coaction_table(h, side)
            assert table.report.ok
            for i in range(h.rank):
                expected = kron_vec(ring, h.algebra.unit,
                                    h.carrier.basis_vector(i))
                assert table.map.column(i) == expected


@pytest.mark.parametrize("ring", [QQ, Zmod(3)])
@pytest.mark.parametrize("side", [CoactionSide.UPSILON, CoactionSide.OMEGA])
def test_coaction_conditions_on_sweedler(ring, side):
    table = coaction_table(sweedler_hopf(ring), side)
    assert table.report.ok
    ids = {r.check_id for r in table.report.records}
    tag = "upsilon" if side is CoactionSide.UPSILON else "omega"
    assert {f"{tag}.1a", f"{tag}.1b", f"{tag}.1c", f"{tag}.3", f"{tag}.4"} <= ids


@pytest.mark.parametrize("side", [CoactionSide.UPSILON, CoactionSide.OMEGA])
def test_check_1c_fails_on_a_table_entry_it_did_not_build(monkeypatch, side):
    # 1c sums the identity on its own, so a wrong table is caught, at the
    # first (f_i, h_t) whose column entry changed
    original = duality._coaction_columns

    def altered(h, s):
        cols = original(h, s)
        pos, c = cols[1][0]
        cols[1] = ((pos, h.ring.add(c, h.ring.one)),) + cols[1][1:]
        return cols

    h = sweedler_hopf(Zmod(3))
    pos = original(h, side)[1][0][0]
    monkeypatch.setattr(duality, "_coaction_columns", altered)
    report = coaction_table(h, side).report
    tag = side.value
    assert [(r.passed, r.witness) for r in report.records
            if r.check_id == f"{tag}.1c"] == [(False, f"(f1,h{pos % h.rank})")]


def test_sweedler_upsilon_is_not_trivial():
    h = sweedler_hopf(QQ)
    table = coaction_table(h, CoactionSide.UPSILON)
    trivial = [kron_vec(QQ, h.algebra.unit, h.carrier.basis_vector(i))
               for i in range(4)]
    assert any(table.map.column(i) != trivial[i] for i in range(4))


def test_coaction_preimage_of_full_dual_is_everything():
    h = sweedler_hopf(QQ)
    U = SubalgebraU.full_dual(h)
    table = coaction_table(h, CoactionSide.UPSILON)
    V = coaction_preimage_of_U(table, h, U)
    assert len(V) == 4


# --- theorem routes ---------------------------------------------------------------


def test_theorem_suite_on_gauss():
    cp = gauss_crossed()
    h = cp.action.hopf
    u = {side: full_dual(cp, side) for side in DiagramSide}
    rep = theorem_suite(cp, u.get, lambda side: lambda_coordinates(h, u[side]),
                        lambda side: certified_iso(cp, side)[1])
    assert rep.ok


def test_final_chain_matches_direct_on_c2_smash():
    for make in (triv_crossed, lambda: smash_product_data(swap_action_data(ZZ))):
        cp = make()
        U, direct = certified_iso(cp, DiagramSide.RIGHT)
        res = final_chain(cp, U, opposite_crossed(cp, integral_from_crossed(cp)),
                          direct, right_smash(regular_comodule(cp.action.hopf), U))
        assert res.report.ok
        assert res.equal_to_direct


# --- γ and δ against the term-by-term oracles -----------------------------------


def rebase_hopf(h, P):
    """``h`` in the basis f_a = Σ_i P[i][a]·e_i: every structure map
    conjugated by P."""
    H = h.carrier
    Pi = invert_map(P)
    alg = AlgebraData(H, Pi @ h.algebra.mult @ kron(P, P), Pi.apply(h.algebra.unit))
    coalg = CoalgebraData(H, kron(Pi, Pi) @ h.coalgebra.comult @ P,
                          h.coalgebra.counit @ P)
    rebased = HopfData(BialgebraData(alg, coalg), Pi @ h.antipode @ P,
                       Pi @ h.twisted_antipode @ P)
    rebased.validate().require()
    return rebased


def rebased_sweedler_Z3():
    """Sweedler's algebra over Z/3 in the basis f_a = Σ_i P[i][a]·e_i, here
    f_1 = 1 + x, every structure map conjugated by P, as A#H with A = Z/3.
    Its 8-leg expansions have 766 terms (18 in the standard basis)."""
    ring = Zmod(3)
    h = sweedler_hopf(ring)
    H = h.carrier
    P = LinearMap(H, H, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    rebased = rebase_hopf(h, P)
    return smash_product_data(trivial_action(rebased, ground_algebra(ring)))


def rebase_crossed(cp, P):
    """A#_σH with H in the basis of P: the action and σ read through P."""
    h = rebase_hopf(cp.action.hopf, P)
    A = cp.action.algebra
    action = WeakActionData(h, A, cp.action.action @ kron(P, LinearMap.identity(A.carrier)))
    validate_weak_action(action).require()
    return build_crossed_product(action, validate_cocycle(action, cp.cocycle.sigma @ kron(P, P)))


def sweedler_coboundary_Q(ring=QQ):
    """Sweedler's algebra over ``ring`` (Q unless given) acting trivially on
    the ring with the coboundary cocycle σ(x⊗y) = Σ u(x₁)u(y₁)u⁻¹(x₂y₂),
    u = (1, 1, 1, 0) on (1, g, x, gx): a nontrivial σ on a non-cocommutative
    H, over a zero-divisor ring for Z/6."""
    h = sweedler_hopf(ring)
    A = ground_algebra(ring)
    co = h.coalgebra
    u = tuple(ring.of(x) for x in (1, 1, 1, 0))
    u_inv = map_to_vec(convolution_invert(co, A, LinearMap(h.carrier, A.carrier, [u])))
    mul = ring.mul

    def sigma_col(p, q):
        total = ring.zero
        for c1, (p1, p2) in co.sweedler_basis(p, 2):
            for c2, (q1, q2) in co.sweedler_basis(q, 2):
                pq = h.algebra.product(h.carrier.basis_vector(p2),
                                       h.carrier.basis_vector(q2))
                value = dense_oracle.ring_sum(ring, (mul(a, b) for a, b in zip(pq, u_inv)))
                total = ring.add(total, mul(mul(mul(c1, c2), mul(u[p1], u[q1])), value))
        return (total,)

    action = trivial_action(h, A)
    sigma = map_from_columns(tensor_module(h.carrier, h.carrier), A.carrier,
                                   [sigma_col(p, q) for p in range(4) for q in range(4)])
    assert sigma != trivial_cocycle(action).sigma
    return build_crossed_product(action, validate_cocycle(action, sigma))


def gauge_twisted_M2(h, u_values):
    """``h`` on M₂(Q), gauge-twisted by the normalised u with u(h_p) =
    ``u_values[p]``: h·a = Σ u(h₁)·a·u⁻¹(h₂) and σ(h⊗k) = Σ u(h₁)u(k₁)u⁻¹(h₂k₂)."""
    A = matrix_algebra(QQ, 2)
    co = h.coalgebra
    rH, rA = h.rank, A.rank
    u = [A.carrier.vector(v) for v in u_values]
    inv = convolution_invert(co, A, map_from_columns(h.carrier, A.carrier, u))
    u_inv = [inv.column(j) for j in range(rH)]

    def act(p, a):
        total = zero_vector(A.carrier)
        for c, (p1, p2) in co.sweedler_basis(p, 2):
            total = vec_add(QQ, total, vec_scale(
                QQ, c, product_many(A, u[p1], A.carrier.basis_vector(a), u_inv[p2])))
        return total

    def sigma_col(p, q):
        total = zero_vector(A.carrier)
        for c1, (p1, p2) in co.sweedler_basis(p, 2):
            for c2, (q1, q2) in co.sweedler_basis(q, 2):
                pq = h.algebra.product(h.carrier.basis_vector(p2),
                                       h.carrier.basis_vector(q2))
                inv_pq = zero_vector(A.carrier)
                for t, x in enumerate(pq):
                    inv_pq = vec_add(QQ, inv_pq, vec_scale(QQ, x, u_inv[t]))
                total = vec_add(QQ, total, vec_scale(
                    QQ, c1 * c2, product_many(A, u[p1], u[q1], inv_pq)))
        return total

    action = WeakActionData(h, A, map_from_columns(
        tensor_module(h.carrier, A.carrier), A.carrier,
        [act(p, a) for p in range(rH) for a in range(rA)]))
    validate_weak_action(action).require()
    sigma = map_from_columns(tensor_module(h.carrier, h.carrier), A.carrier,
                                   [sigma_col(p, q) for p in range(rH) for q in range(rH)])
    return build_crossed_product(action, validate_cocycle(action, sigma))


def m2_gauge_twisted_Q():
    """Q[C₂] on M₂(Q), gauge-twisted by u(1) = 1, u(g) = [[1,1],[0,1]]: so
    σ(g⊗g) = [[1,2],[0,1]] is not central, a nontrivial σ on a
    noncommutative A."""
    cp = gauge_twisted_M2(group_algebra(QQ, 2), [(1, 0, 0, 1), (1, 1, 0, 1)])
    assert cp.cocycle.sigma.column(3) == (1, 2, 0, 1)  # σ(g⊗g)
    return cp


def sweedler_gauge_twisted_Q():
    """Sweedler's algebra on M₂(Q), gauge-twisted by u = 1, [[1,1],[0,1]],
    [[0,1],[0,0]], 0 on 1, g, x, gx: a nontrivial σ and action on a
    noncommutative A over a non-cocommutative H."""
    cp = gauge_twisted_M2(sweedler_hopf(QQ), [(1, 0, 0, 1), (1, 1, 0, 1),
                                              (0, 1, 0, 0), (0, 0, 0, 0)])
    assert cp.cocycle.sigma.column(6) == (0, 1, 0, 0)  # σ(g⊗x), 0 if σ were trivial
    return cp


def sweedler_terms(cp, legs):
    co = cp.action.hopf.coalgebra
    return sum(len(co.sweedler_basis(t, legs)) for t in range(co.rank))


def sweedler_smash(name):
    h = catalog.get(name).hopf_data()
    return smash_product_data(trivial_action(h, ground_algebra(h.ring)))


def test_rebasing_enlarges_the_delta_expansion():
    assert sweedler_terms(rebased_sweedler_Z3(), 8) == 766
    assert sweedler_terms(sweedler_smash("sweedler4_Z3"), 8) == 18


ORACLE_CASES = {
    "sweedler4_Q": lambda: sweedler_smash("sweedler4_Q"),
    "sweedler4_smash_Z3": lambda: catalog.get("sweedler4_smash_Z3").payload,
    "gauss": lambda: catalog.get("gauss").payload,
    "m2_gauge_twisted_Q": m2_gauge_twisted_Q,
    "sweedler_coboundary_Q": sweedler_coboundary_Q,
    "sweedler_coboundary_Z3": lambda: sweedler_coboundary_Q(Zmod(3)),
    "sweedler_coboundary_Z6": lambda: sweedler_coboundary_Q(Zmod(6)),
    "sweedler_Z3_rebased": rebased_sweedler_Z3,
}


def full_dual(cp, side):
    return SubalgebraU.full_dual(
        cp.action.hopf,
        ModuleSide.RIGHT if side is DiagramSide.RIGHT else ModuleSide.LEFT)


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_gamma_and_delta_match_the_term_by_term_oracles(name, side):
    cp = ORACLE_CASES[name]()
    U = full_dual(cp, side)
    dense_oracle.assert_bit_identical(gamma_map(cp, U, side),
                                      dense_oracle.gamma_map(cp, U, side))
    dense_oracle.assert_bit_identical(delta_map(cp, U, side),
                                      dense_oracle.delta_map(cp, U, side))


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
@pytest.mark.parametrize("name", [name for name, _, _ in catalog.list_entries()])
def test_delta_matches_the_oracle_on_every_catalog_entry(name, side):
    # the crossed product and U every duality check of a run reads
    ctx = Derived(catalog.get(name))
    cp = ctx.diagram_crossed
    U = ctx.u(side)
    dense_oracle.assert_bit_identical(delta_map(cp, U, side),
                                      dense_oracle.delta_map(cp, U, side))


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
@pytest.mark.parametrize("name", [name for name, _, _ in catalog.list_entries()])
def test_gamma_matches_the_oracle_on_every_catalog_entry(name, side):
    ctx = Derived(catalog.get(name))
    cp = ctx.diagram_crossed
    U = ctx.u(side)
    dense_oracle.assert_bit_identical(gamma_map(cp, U, side),
                                      dense_oracle.gamma_map(cp, U, side))


def rebased_sweedler_entry():
    """The Hopf algebra of ``rebased_sweedler_Z3`` as an entry of kind hopf."""
    ring = Zmod(3)
    return catalog.CatalogEntry(
        "sweedler4_Z3_rebased", "Sweedler's algebra over Z/3 with f_1 = 1 + x",
        "hopf", ring, _build=lambda: rebased_sweedler_Z3().action.hopf)


LEG_GUARD_CASES = {
    "sweedler4_Z3_rebased": rebased_sweedler_entry,
    "sweedler4_smash_Z3": lambda: catalog.get("sweedler4_smash_Z3"),
}


@pytest.mark.parametrize("name", sorted(LEG_GUARD_CASES))
def test_diagram_maps_expand_only_the_merged_legs(name, monkeypatch):
    # op δ walks Δ⁶(k) and Δ(m·h), not Δ⁷(k) × Δ(h); right γ walks Δ(h),
    # Δ(k) and Δ²(h′k′), not Δ³(h) × Δ³(k)
    requests, building = [], []  # building: the side of the γ being built
    expand, gamma = CoalgebraData.sweedler_basis, duality.gamma_map

    def spy_expand(self, i, legs):
        requests.append((legs, building[-1:] == [DiagramSide.RIGHT]))
        return expand(self, i, legs)

    def spy_gamma(cp, U, side):
        building.append(side)
        try:
            return gamma(cp, U, side)
        finally:
            building.pop()

    monkeypatch.setattr(CoalgebraData, "sweedler_basis", spy_expand)
    monkeypatch.setattr(duality, "gamma_map", spy_gamma)
    assert run_suite(LEG_GUARD_CASES[name](), "all").ok
    assert max(legs for legs, _ in requests) == 7  # op δ ran
    assert max(legs for legs, right_gamma in requests if right_gamma) == 3


# Change of basis: π∘δ = χ with π invertible fixes δ, so a δ that is wrong in
# a dense basis fails build_diagram here whatever the δ code does.
TRANSVECTION_CASES = {
    "sweedler4_smash_Z3": (lambda: catalog.get("sweedler4_smash_Z3").payload, (1, 2)),
    "sweedler_coboundary_Q": (sweedler_coboundary_Q, (-1, 1, 2, "1/2")),
}


@pytest.mark.parametrize("name", sorted(TRANSVECTION_CASES))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_duality_certifies_in_a_random_transvection_basis(name, data):
    make, coefficients = TRANSVECTION_CASES[name]
    cp = make()
    ring = cp.ring
    H = cp.action.hopf.carrier
    P = LinearMap.identity(H)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.permutations(range(H.rank)))[:2]
        rows = [[ring.one if a == b else ring.zero for b in range(H.rank)]
                for a in range(H.rank)]
        rows[i][j] = ring.of(data.draw(st.sampled_from(coefficients)))
        P = P @ LinearMap(H, H, rows)
    rebased = rebase_crossed(cp, P)
    for side in (DiagramSide.RIGHT, DiagramSide.OP):
        certified_iso(rebased, side)


def test_delta_matches_the_oracle_on_a_proper_functional_span():
    cp = sweedler_smash("sweedler4_Q")
    h = cp.action.hopf
    span = FunctionalSpan(h, [(1, 0, 0, 0), (0, 2, 0, -1)])
    for side in (DiagramSide.RIGHT, DiagramSide.OP):
        dense_oracle.assert_bit_identical(delta_map(cp, span, side),
                                          dense_oracle.delta_map(cp, span, side))
        dense_oracle.assert_bit_identical(gamma_map(cp, span, side),
                                          dense_oracle.gamma_map(cp, span, side))


def with_sigma_entry(cp, column, value):
    """``cp`` with the first coordinate of σ's column ``column`` replaced by
    ``value`` and everything else, σ⁻¹ included, kept: not a crossed product,
    only an input for the maps that read σ."""
    sigma = cp.cocycle.sigma
    rows = [list(r) for r in sigma.matrix]
    rows[0][column] = value
    mutant_sigma = LinearMap(sigma.domain, sigma.codomain, rows)
    return CrossedProductData(
        cp.action, CocycleData(cp.action, mutant_sigma, cp.cocycle.sigma_inv,
                               cp.cocycle.flags),
        cp.product_algebra, cp.comodule)


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
def test_delta_reads_every_sigma_value(side):
    cp = gauss_crossed()
    mutant = with_sigma_entry(cp, 3, 2)  # σ(g⊗g): -1 → 2
    U = full_dual(cp, side)
    mutated = delta_map(mutant, U, side)
    assert mutated != delta_map(cp, U, side)
    dense_oracle.assert_bit_identical(mutated,
                                      dense_oracle.delta_map(mutant, U, side))


# --- the hypothesis layer against its term-by-term oracles ------------------------


COACTION_OF = {DiagramSide.RIGHT: CoactionSide.UPSILON, DiagramSide.OP: CoactionSide.OMEGA}


def records(report):
    return [(r.check_id, r.passed, r.witness) for r in report.records]


def assert_hypotheses_match_the_oracles(cp, U, side, V=None):
    """υ resp. ω, its checks, φ and ψ, and the compatibility verdicts and
    witnesses of ``side`` agree with the dense oracles bit for bit; V, if
    given, is sparse, and the oracles read it dense."""
    h = cp.action.hopf
    table = coaction_table(h, COACTION_OF[side])
    want = dense_oracle.coaction_table(h, COACTION_OF[side])
    dense_oracle.assert_bit_identical(table.map, want.map)
    assert records(table.report) == records(want.report)
    for got, ref in zip(compat_maps(cp, side), dense_oracle.compat_maps(cp, side)):
        dense_oracle.assert_bit_identical(got, ref)
    if V is None:
        V = coaction_preimage_of_U(table, h, U)
        assert V == [sparse_vector(v) for v in dense_oracle.coaction_preimage_of_U(table, h, U)]
    assert duality.coefficient_space_of_action(cp.action) == \
        [sparse_vector(v) for v in dense_oracle.coefficient_space_of_action(cp.action)]
    assert compat_records(compat_check(cp, U, lambda_coordinates(h, U), V, side), h) == \
        dense_oracle.compat_records(
            cp, U, [dense_oracle.expand_sparse(v, h.rank, h.ring) for v in V], side)


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
@pytest.mark.parametrize("name", [name for name, _, _ in catalog.list_entries()])
def test_hypotheses_match_the_oracles_on_every_catalog_entry(name, side):
    # the crossed product, U and V every theorem-suite run reads
    entry = catalog.get(name)
    ctx = Derived(entry)
    U = ctx.u(side)
    assert_hypotheses_match_the_oracles(ctx.diagram_crossed, U, side, ctx.span("V"))


def rebased_coboundary_Q():
    """``sweedler_coboundary_Q`` in the basis 1, g, 2 + x, gx: Δ(2 + x) has
    the term -2·g⊗1, a coefficient other than 1 on legs that ε and σ do not
    kill (in the other cases here every such coefficient is 1)."""
    cp = sweedler_coboundary_Q()
    H = cp.action.hopf.carrier
    return rebase_crossed(cp, LinearMap(H, H, [[1, 0, 2, 0], [0, 1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 1]]))


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
@pytest.mark.parametrize("make", [rebased_sweedler_Z3, sweedler_coboundary_Q,
                                  rebased_coboundary_Q, m2_gauge_twisted_Q])
def test_hypotheses_match_the_oracles_on_dense_and_twisted_cases(make, side):
    cp = make()
    assert_hypotheses_match_the_oracles(cp, full_dual(cp, side), side)


@pytest.mark.parametrize("side", [CoactionSide.UPSILON, CoactionSide.OMEGA])
@pytest.mark.parametrize("make", [lambda: sweedler_hopf(Zmod(3)),
                                  lambda: rebased_sweedler_Z3().action.hopf])
def test_a_wrong_coaction_row_entry_fails_with_the_oracle_witness(make, side):
    h = make()
    ring, rH = h.ring, h.rank
    table = coaction_table(h, side)
    for i, pos in [(i, pos) for i in range(rH) for pos in range(i, rH * rH, 5)]:
        mutated = [list(table.map.column(j)) for j in range(rH)]
        mutated[i][pos] = ring.add(mutated[i][pos], ring.one)
        mutated = [tuple(col) for col in mutated]
        cmap = map_from_columns(table.map.domain, table.map.codomain, mutated)
        got = records(duality._coaction_checks(h, side, cmap))
        assert not all(passed for _, passed, _ in got), (i, pos)
        assert got == records(dense_oracle.coaction_checks(h, side, mutated, cmap)), (i, pos)


# --- φ, ε, π, ν, χ and the cleft sums against their term-by-term oracles ---------


def assert_sums_match_the_oracles(cp, U, side):
    """φ₁/φ₂ and ε/ε⁻¹ (A the coefficient algebra), π, ν and χ of ``side``
    agree with the dense oracles entry for entry, entry types included."""
    h = cp.action.hopf
    A = cp.action.algebra
    pairs = [*zip(phi_maps(h, side), dense_oracle.phi_maps(h, side)),
             *zip(epsilon_maps(h, A, *full_dual_lambda(h, side), side),
                  dense_oracle.epsilon_maps(h, A, side)),
             (chi_map(h, A, lambda_map(h, U), side), dense_oracle.chi_map(h, A, U, side))]
    if side is DiagramSide.RIGHT:
        nu = nu_map(cp)
        pairs += [(nu, dense_oracle.nu_map(cp)),
                  (pi_map(cp, side, nu), dense_oracle.pi_map(cp, side))]
    else:
        pairs.append((pi_map(cp, side, LinearMap.identity(cp.carrier)),
                      dense_oracle.pi_map(cp, side)))
    for got, want in pairs:
        dense_oracle.assert_bit_identical(got, want)


def assert_cleft_sums_match_the_oracles(cp, cleft_data):
    """θ⁻¹ of θ = 1#h on ``cp``, and the extracted action and σ and φ̃, ψ̃ of
    each of ``cleft_data``, agree with the dense oracles."""
    dense_oracle.assert_bit_identical(integral_from_crossed(cp).theta_inv,
                                      dense_oracle.theta_inverse(cp))
    for cl in cleft_data:
        ext = crossed_from_integral(cl)
        action, sigma = dense_oracle.extracted_action_and_sigma(cl)
        dense_oracle.assert_bit_identical(ext.crossed.action.action, action)
        dense_oracle.assert_bit_identical(ext.crossed.cocycle.sigma, sigma)
        for got, want in zip(cleft_maps(cl), dense_oracle.cleft_maps(cl)):
            dense_oracle.assert_bit_identical(got, want)


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
@pytest.mark.parametrize("name", [name for name, _, _ in catalog.list_entries()])
def test_sums_match_the_oracles_on_every_catalog_entry(name, side):
    # the crossed product and U every duality check of a run reads
    ctx = Derived(catalog.get(name))
    cp = ctx.diagram_crossed
    assert_sums_match_the_oracles(cp, ctx.u(side), side)


@pytest.mark.parametrize("name", [name for name, _, _ in catalog.list_entries()])
def test_cleft_sums_match_the_oracles_on_every_catalog_entry(name):
    # θ = 1#h on the crossed product every suite reads, and cleft data as given
    ctx = Derived(catalog.get(name))
    cp = ctx.diagram_crossed
    payload = ctx.entry.payload
    cleft_data = [integral_from_crossed(cp)]
    if isinstance(payload, CleftData):
        cleft_data.append(payload)
    assert_cleft_sums_match_the_oracles(cp, cleft_data)


@pytest.mark.parametrize("side", [DiagramSide.RIGHT, DiagramSide.OP])
@pytest.mark.parametrize("make", [rebased_sweedler_Z3, sweedler_coboundary_Q,
                                  m2_gauge_twisted_Q, sweedler_gauge_twisted_Q])
def test_sums_match_the_oracles_on_dense_and_twisted_cases(make, side):
    cp = make()
    assert_sums_match_the_oracles(cp, full_dual(cp, side), side)
    if side is DiagramSide.RIGHT:
        assert_cleft_sums_match_the_oracles(cp, [integral_from_crossed(cp)])


@pytest.mark.parametrize("column", [2, 7])  # σ(1⊗x), σ(g⊗gx)
def test_nu_reads_sigma_in_leg_order(column):
    # on every cocycle tried, σ(S̄(h₂)⊗h₁) and σ(S̄(h₁)⊗h₂) sum to the same ν;
    # one σ-value changed off the cocycle tells the two leg orders apart
    cp = sweedler_coboundary_Q()
    mutant = with_sigma_entry(cp, column, 5)
    nu = nu_map(mutant)
    assert nu != nu_map(cp)
    dense_oracle.assert_bit_identical(nu, dense_oracle.nu_map(mutant))


def base_change_maps(cp):
    """Every map the tabulated sums build, on ``cp`` with U = H*, by name."""
    h = cp.action.hopf
    A = cp.action.algebra
    maps = {}
    for side in (DiagramSide.RIGHT, DiagramSide.OP):
        tag = side.value
        maps.update(zip((f"phi1.{tag}", f"phi2.{tag}"), phi_maps(h, side)))
        maps.update(zip((f"eps.{tag}", f"eps_inv.{tag}"),
                        epsilon_maps(h, A, *full_dual_lambda(h, side), side)))
        diag = diagram(cp, full_dual(cp, side), side)
        for name in ("alpha", "gamma", "delta", "pi", "nu", "chi"):
            maps[f"{name}.{tag}"] = getattr(diag, name)
    cleft = integral_from_crossed(cp)
    ext = crossed_from_integral(cleft)
    maps["theta_inv"] = cleft.theta_inv
    maps["action"] = ext.crossed.action.action
    maps["sigma"] = ext.crossed.cocycle.sigma
    maps["phi_tilde"], maps["psi_tilde"] = cleft_maps(cleft)
    return maps, ext.coinvariants.vectors


def test_every_sum_commutes_with_the_base_change_from_Z_to_Z6():
    # gauss reduced mod 6 is Zmod6_C2: every map computed over Z, reduced mod
    # 6, is the map computed over Z/6, entry for entry
    Z6 = Zmod(6)
    over_z, coin_z = base_change_maps(catalog.get("gauss").payload)
    over_z6, coin_z6 = base_change_maps(catalog.get("Zmod6_C2").payload)
    assert [tuple((i, Z6.of(x)) for i, x in v) for v in coin_z] == list(coin_z6) == \
        [((0, 1),)]
    assert over_z.keys() == over_z6.keys()
    for name, m in over_z.items():
        want = over_z6[name]
        assert want.ring == Z6, name
        reduced = tuple(tuple(Z6.of(x) for x in row) for row in m.matrix)
        assert reduced == want.matrix, name
        assert all(type(x) is int for row in want.matrix for x in row), name
