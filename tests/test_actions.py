"""Action-layer tests: hit actions, regular actions, weak actions, coinvariants."""
from hopfdual.actions import (
    ComoduleAlgebraData,
    action_from_endomorphisms,
    coinvariants,
    coinvariants_form_subalgebra,
    dual_pairing,
    regular_act_left,
    regular_act_right,
    regular_actions,
    regular_comodule,
    trivial_action,
    validate_weak_action,
)
from hopfdual.catalog import group_algebra, product_ring_algebra, sweedler_hopf
from hopfdual.linalg import LinearMap, kron_vec, tensor_module
from hopfdual.rings import QQ, ZZ, Zmod


def test_dual_pairing_validates():
    p = dual_pairing(group_algebra(ZZ, 2))
    assert p.validate().ok
    p4 = dual_pairing(sweedler_hopf(QQ))
    assert p4.validate().ok


def test_hit_by_unit_is_identity():
    h = group_algebra(ZZ, 2)
    p = dual_pairing(h)
    eps = p.algebra_side.unit  # β(1) of the dual algebra is ε
    for j in range(2):
        c = h.carrier.basis_vector(j)
        assert p.hit_left(eps, c) == c
        assert p.hit_right(c, eps) == c


def test_hit_on_group_algebra_picks_out_group_element():
    # Oracle: Δ(g)=g⊗g, Δ(e)=e⊗e, so δ_g⇀g = g·δ_g(g) = g and δ_g⇀e = 0.
    h = group_algebra(ZZ, 2)
    p = dual_pairing(h)
    delta_g = p.algebra_side.carrier.basis_vector(1)
    g = h.carrier.basis_vector(1)
    e = h.carrier.basis_vector(0)
    assert p.hit_left(delta_g, g) == g
    assert p.hit_left(delta_g, e) == (0, 0)


def test_hit_actions_are_bimodule_actions():
    for h in (group_algebra(ZZ, 2), sweedler_hopf(QQ)):
        p = dual_pairing(h)
        A, C = p.algebra_side, p.coalgebra_side
        for i in range(A.rank):
            a = A.carrier.basis_vector(i)
            for j in range(A.rank):
                b = A.carrier.basis_vector(j)
                ab = A.product(a, b)
                for k in range(C.rank):
                    c = C.carrier.basis_vector(k)
                    # (ab)⇀c = a⇀(b⇀c); c↼(ab) = (c↼a)↼b
                    assert p.hit_left(ab, c) == p.hit_left(a, p.hit_left(b, c))
                    assert p.hit_right(c, ab) == p.hit_right(p.hit_right(c, a), b)
                    # compatibility: (a⇀c)↼b = a⇀(c↼b)
                    assert p.hit_right(p.hit_left(a, c), b) == \
                        p.hit_left(a, p.hit_right(c, b))


def test_regular_actions_on_group_algebra():
    # Oracle: (δ_e·g)(k) = δ_e(gk): nonzero iff k = g, so δ_e·g = δ_g.
    h = group_algebra(ZZ, 2)
    left, right = regular_actions(h)
    delta_e, delta_g = (1, 0), (0, 1)
    g = h.carrier.basis_vector(1)
    assert right.apply(kron_vec(ZZ, delta_e, g)) == delta_g
    assert regular_act_right(h, delta_e, g) == delta_g
    assert regular_act_left(h, g, delta_e) == delta_g
    # unit acts trivially
    e = h.carrier.basis_vector(0)
    assert regular_act_left(h, e, delta_g) == delta_g
    assert regular_act_right(h, delta_g, e) == delta_g


def test_regular_actions_are_module_actions_on_sweedler():
    h = sweedler_hopf(QQ)
    r = h.rank
    for i in range(r):
        hi = h.carrier.basis_vector(i)
        for j in range(r):
            hj = h.carrier.basis_vector(j)
            prod = h.algebra.product(hi, hj)
            for k in range(r):
                f = h.carrier.basis_vector(k)  # dual coordinates
                # ((f·h_i)·h_j) = f·(h_i h_j)
                assert regular_act_right(h, regular_act_right(h, f, hi), hj) == \
                    regular_act_right(h, f, prod)
                # (h_i·(h_j·f)) = (h_i h_j)·f
                assert regular_act_left(h, hi, regular_act_left(h, hj, f)) == \
                    regular_act_left(h, prod, f)
                # bimodule compatibility
                assert regular_act_left(h, hi, regular_act_right(h, f, hj)) == \
                    regular_act_right(h, regular_act_left(h, hi, f), hj)


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
    assert coin.vectors == ((1, 0),)
    assert coinvariants_form_subalgebra(c, coin)


def test_trivial_coaction_everything_coinvariant():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    cols = [kron_vec(ZZ, a.carrier.basis_vector(i), h.algebra.unit) for i in range(2)]
    coaction = LinearMap.from_columns(a.carrier,
                                      tensor_module(a.carrier, h.carrier), cols)
    c = ComoduleAlgebraData(h, a, coaction)
    assert c.validate().ok
    coin = coinvariants(c)
    assert coin.rank == 2


def test_coinvariants_over_Zmod6():
    h = group_algebra(Zmod(6), 2)
    c = regular_comodule(h)
    coin = coinvariants(c)
    assert coin.vectors == ((1, 0),)
