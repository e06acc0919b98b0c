"""Action-layer tests: the hit actions of H* on H (``actions.hit`` and
``duality.rho_endo``), regular actions, weak actions, coinvariants."""
import pytest

import dense_oracle as dense
from hopfdual import linalg
from builders import map_from_columns, vec_to_map
from test_duality import rebased_sweedler_Z3
from hopfdual.actions import (
    ComoduleAlgebraData,
    action_from_endomorphisms,
    coinvariants,
    coinvariants_form_subalgebra,
    hit,
    regular_comodule,
    trivial_action,
    validate_weak_action,
)
from hopfdual.catalog import (
    group_algebra,
    product_ring_algebra,
    sweedler_hopf,
)
from hopfdual.duality import rho_endo
from hopfdual.linalg import (
    LinearMap,
    bilinear,
    combine_columns,
    kron_vec,
    sparse_vector,
    tensor_module,
    unit_vectors,
)
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.smash import ModuleSide, SubalgebraU


def hit_left(h, f, k):
    """f⇀k = Σ k₁f(k₂), by ``actions.hit`` on each basis term of k; f, k and
    the result are dense here, sparse at ``hit``."""
    out = [h.ring.zero] * h.rank
    for t, c in enumerate(k):
        hk = dense.expand_sparse(hit(h, sparse_vector(f), t), h.rank, h.ring)
        out = [h.ring.add(x, h.ring.mul(c, y)) for x, y in zip(out, hk)]
    return tuple(out)


def hit_right(h, k, g):
    """k↼g = Σ g(k₁)k₂, by applying the End(H) coordinates ``rho_endo``;
    dense here, sparse at ``rho_endo``."""
    rho = dense.expand_sparse(rho_endo(h, sparse_vector(g)), h.rank * h.rank, h.ring)
    return vec_to_map(rho, h.carrier, h.carrier).apply(k)


def test_hit_by_unit_is_identity():
    for h in (group_algebra(ZZ, 2), sweedler_hopf(QQ)):
        eps = h.coalgebra.counit_values()
        for j in range(h.rank):
            k = h.carrier.basis_vector(j)
            assert hit_left(h, eps, k) == k
            assert hit_right(h, k, eps) == k


def test_hit_on_group_algebra_picks_out_group_element():
    # Oracle: Δ(g)=g⊗g, Δ(e)=e⊗e, so δ_g⇀g = g·δ_g(g) = g and δ_g⇀e = 0.
    h = group_algebra(ZZ, 2)
    delta_g = (0, 1)
    g = h.carrier.basis_vector(1)
    e = h.carrier.basis_vector(0)
    assert hit_left(h, delta_g, g) == g
    assert hit_left(h, delta_g, e) == (0, 0)
    assert hit_right(h, g, delta_g) == g


def test_hit_actions_are_bimodule_actions():
    for h in (group_algebra(ZZ, 2), sweedler_hopf(QQ)):
        dual = dense.dual_algebra(h)
        for i in range(h.rank):
            f = dual.carrier.basis_vector(i)
            for j in range(h.rank):
                g = dual.carrier.basis_vector(j)
                fg = dual.product(f, g)
                for t in range(h.rank):
                    k = h.carrier.basis_vector(t)
                    # (f⋆g)⇀k = f⇀(g⇀k); k↼(f⋆g) = (k↼f)↼g
                    assert hit_left(h, fg, k) == hit_left(h, f, hit_left(h, g, k))
                    assert hit_right(h, k, fg) == hit_right(h, hit_right(h, k, f), g)
                    # compatibility: (f⇀k)↼g = f⇀(k↼g)
                    assert hit_right(h, hit_left(h, f, k), g) == \
                        hit_left(h, f, hit_right(h, k, g))


@pytest.mark.parametrize("make", [lambda: sweedler_hopf(QQ), lambda: sweedler_hopf(Zmod(6)),
                                  lambda: group_algebra(ZZ, 3),
                                  lambda: rebased_sweedler_Z3().action.hopf],
                         ids=["sweedler_Q", "sweedler_Z6", "group_Z_C3", "rebased_sweedler_Z3"])
def test_hit_and_rho_match_the_dense_oracles(make):
    # sparse in, sparse out, against the dense sums on every basis functional
    # and two that are not (the rebased Δ has terms sharing a left leg)
    h = make()
    ring, r = h.ring, h.rank
    functionals = [h.carrier.basis_vector(i) for i in range(r)]
    functionals += [tuple(ring.of(i + 1) for i in range(r)),
                    tuple(ring.of(1 - 2 * (i % 2)) for i in range(r))]
    for f in functionals:
        sf = sparse_vector(f)
        assert [hit(h, sf, t) for t in range(r)] == \
            [sparse_vector(dense.hit(h, f, t)) for t in range(r)]
        assert rho_endo(h, sf) == sparse_vector(dense.rho_endo(h, f))


def moved(U, f, h):
    """The functional f moved by h on U's side, both canonical sparse, read
    off U's action witnesses: U is H* in the basis δ_i."""
    mul = U.hopf.ring.mul
    return combine_columns(U.hopf.ring, [(U.action_witness[k, i], mul(x, c))
                                         for k, x in f for i, c in h])


@pytest.mark.parametrize("h", [sweedler_hopf(QQ), sweedler_hopf(Zmod(6)),
                               group_algebra(ZZ, 3)],
                         ids=["sweedler_Q", "sweedler_Z6", "group_Z_C3"])
def test_regular_actions_match_the_dense_triple_loop(h):
    # U's action witnesses, on either side, for H* in the basis δ_i and in
    # the basis δ_0, δ_0+δ_1, …, δ_0+δ_{r-1}, against the triple loop over
    # the dense table expressed in U by the dense split, entry types included
    ring, r = h.ring, h.rank
    shifted = [((0, ring.one),)] + [((0, ring.one), (i, ring.one)) for i in range(1, r)]
    for side in ModuleSide:
        for elements in (unit_vectors(ring, r), shifted):
            U = SubalgebraU(h, elements, side)
            want = {key: sparse_vector(v) for key, v in dense.subalgebra_closure(U)[2].items()}
            assert U.action_witness == want
            assert [type(x) for v in U.action_witness.values() for _, x in v] == \
                [type(x) for v in want.values() for _, x in v]


def test_regular_actions_on_group_algebra():
    # Oracle: (δ_e·g)(k) = δ_e(gk): nonzero iff k = g, so δ_e·g = δ_g, on
    # either side; the unit acts trivially
    h = group_algebra(ZZ, 2)
    for side in ModuleSide:
        witness = SubalgebraU.full_dual(h, side).action_witness
        assert witness[0, 1] == ((1, 1),)
        assert witness[1, 0] == ((1, 1),)


def test_regular_actions_are_module_actions_on_sweedler():
    h = sweedler_hopf(QQ)
    right = SubalgebraU.full_dual(h, ModuleSide.RIGHT)
    left = SubalgebraU.full_dual(h, ModuleSide.LEFT)
    basis = unit_vectors(h.ring, h.rank)
    prod = bilinear(h.ring, h.algebra.mult, h.rank)
    for hi in basis:
        for hj in basis:
            hij = prod(hi, hj)
            for f in basis:  # dual coordinates
                # ((f·h_i)·h_j) = f·(h_i h_j)
                assert moved(right, moved(right, f, hi), hj) == moved(right, f, hij)
                # (h_i·(h_j·f)) = (h_i h_j)·f
                assert moved(left, moved(left, f, hj), hi) == moved(left, f, hij)
                # bimodule compatibility
                assert moved(left, moved(right, f, hj), hi) == \
                    moved(right, moved(left, f, hi), hj)


def test_trivial_action_validates():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    assert validate_weak_action(trivial_action(h, a)).ok


def swap_action(ring):
    h = group_algebra(ring, 2)
    a = product_ring_algebra(ring, 2)
    swap = LinearMap(a.carrier, a.carrier, [[0, 1], [1, 0]])
    return action_from_endomorphisms(h, a, [LinearMap.identity(a.carrier), swap])


def test_swap_action_is_a_weak_action():
    assert validate_weak_action(swap_action(ZZ)).ok


def test_sign_flip_is_not_a_weak_action():
    # g·(a,b) = (a,-b) is not multiplicative for the componentwise product.
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    flip = LinearMap(a.carrier, a.carrier, [[1, 0], [0, -1]])
    w = action_from_endomorphisms(h, a, [LinearMap.identity(a.carrier), flip])
    rep = validate_weak_action(w)
    assert not rep.ok
    fails = {r.check_id for r in rep.failures()}
    assert "action.measuring" in fails
    witness = [r for r in rep.failures() if r.check_id == "action.measuring"][0].witness
    assert witness is not None


def test_regular_comodule_and_coinvariants_of_group_algebra():
    # Oracle: solve Δ(x) = x⊗1 over the Z-basis {e, g}: only multiples of e.
    h = group_algebra(ZZ, 2)
    c = regular_comodule(h)
    assert c.validate().ok
    coin = coinvariants(c)
    assert coin.vectors == (((0, 1),),)
    assert coinvariants_form_subalgebra(c, coin)


def test_trivial_coaction_everything_coinvariant():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    cols = [kron_vec(ZZ, a.carrier.basis_vector(i), h.algebra.unit) for i in range(2)]
    coaction = map_from_columns(a.carrier,
                                      tensor_module(a.carrier, h.carrier), cols)
    c = ComoduleAlgebraData(h, a, coaction)
    assert c.validate().ok
    coin = coinvariants(c)
    assert coin.rank == 2


def test_coinvariants_over_Zmod6():
    h = group_algebra(Zmod(6), 2)
    c = regular_comodule(h)
    coin = coinvariants(c)
    assert coin.vectors == (((0, 1),),)


def test_coinvariant_coordinates_build_no_solver(monkeypatch):
    # the split that certified the coinvariant span a direct summand answers
    # membership itself: no span is factored a second time
    h = group_algebra(Zmod(6), 2)
    a = product_ring_algebra(Zmod(6), 2)
    cols = [kron_vec(a.ring, a.carrier.basis_vector(i), h.algebra.unit) for i in range(2)]
    c = ComoduleAlgebraData(h, a, map_from_columns(
        a.carrier, tensor_module(a.carrier, h.carrier), cols))
    coin, regular = coinvariants(c), coinvariants(regular_comodule(h))

    def refuse(*args, **kwargs):
        raise AssertionError("PreparedSolver built")

    monkeypatch.setattr(linalg, "PreparedSolver", refuse)
    assert coin.coordinates(((0, 2), (1, 5))) == ((0, 2), (1, 5))
    assert regular.coordinates(((0, 3),)) == ((0, 3),)
    assert regular.coordinates(((1, 1),)) is None
    assert coinvariants_form_subalgebra(c, coin)
