"""Crossed products, cocycle flags, cleft round trips, opposite products."""
import pytest

from hopfdual.actions import action_from_endomorphisms, trivial_action
from hopfdual.catalog import (
    ground_algebra,
    group_algebra,
    product_ring_algebra,
    swap_action_data,
    sweedler_hopf,
    sweedler_module_action,
)
from hopfdual.crossed import (
    CleftData,
    build_crossed_product,
    cleft_maps,
    cocycle_flags,
    crossed_from_integral,
    crossed_table,
    direct_product_checks,
    integral_from_crossed,
    opposite_crossed,
    smash_product_data,
    trivial_cocycle,
    trivial_sigma,
    validate_cocycle,
)
from hopfdual.errors import NotConvInvertible, NotUnital
from hopfdual.hopf import ConvolutionAlgebra, convolution_invert, tensor_algebra
from hopfdual.linalg import LinearMap, kron_vec, tensor_module
from hopfdual.rings import QQ, ZZ, Zmod


def sigma_with_gg(action, value):
    """σ normal on R[C₂]⊗R[C₂] except σ(g⊗g) = value."""
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    cols = []
    for i in range(2):
        for j in range(2):
            if i == j == 1:
                cols.append(A.carrier.vector([value] + [0] * (A.rank - 1)))
            else:
                cols.append(A.unit)
    return LinearMap.from_columns(tensor_module(b.carrier, b.carrier),
                                  A.carrier, cols)


def gauss_crossed():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    sigma = sigma_with_gg(action, -1)
    return build_crossed_product(action, validate_cocycle(action, sigma))


# --- cocycle validation -----------------------------------------------------


def test_trivial_cocycle_flags_and_self_inverse():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    c = trivial_cocycle(action)
    assert c.flags.all_true
    assert c.sigma_inv == c.sigma


def test_trivial_sigma_is_unit_times_counits():
    # σ(h⊗k) = ε(h)ε(k)·1_A on every basis pair, and trivial_cocycle wraps it
    action = sweedler_module_action(QQ)
    b, A = action.bialgebra, action.algebra
    eps = b.coalgebra.counit.matrix[0]
    sigma = trivial_sigma(action)
    assert sigma.domain.rank == b.rank ** 2 and sigma.codomain.rank == A.rank
    for p in range(b.rank):
        for q in range(b.rank):
            assert sigma.column(p * b.rank + q) == tuple(
                QQ.mul(QQ.mul(eps[p], eps[q]), x) for x in A.unit)
    assert trivial_cocycle(action).sigma == sigma


def test_build_crossed_product_builds_its_table_once(monkeypatch):
    import hopfdual.crossed as crossed

    calls = []

    def counted(action, sigma):
        calls.append(sigma)
        return crossed_table(action, sigma)

    monkeypatch.setattr(crossed, "crossed_table", counted)
    cp = gauss_crossed()
    assert len(calls) == 1
    assert cp.product_algebra.mult == crossed_table(cp.action, cp.cocycle.sigma)
    assert direct_product_checks(cp.action, cp.cocycle.sigma) == (True, True)
    assert len(calls) == 2


def test_gauss_cocycle_is_its_own_inverse():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    c = validate_cocycle(action, sigma_with_gg(action, -1))
    assert c.flags.all_true
    # σ⁻¹(g⊗g) = -1
    assert c.sigma_inv.apply(kron_vec(ZZ, (0, 1), (0, 1))) == (-1,)


def test_sigma_two_not_invertible_but_flags_reported():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    with pytest.raises(NotConvInvertible) as exc:
        validate_cocycle(action, sigma_with_gg(action, 2))
    assert exc.value.flags is not None
    assert exc.value.flags.all_true


def test_supplied_wrong_inverse_is_rejected():
    from hopfdual.errors import ValidationError

    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    sigma = sigma_with_gg(action, -1)
    with pytest.raises(ValidationError):
        validate_cocycle(action, sigma, claimed_inverse=sigma_with_gg(action, 1))


# --- flag-violating controls (one flag each) --------------------------------


def scaled_trivial_sigma(action, scale):
    # σ(h⊗k) = scale·ε(h)ε(k)1_A
    b = action.bialgebra
    A = action.algebra
    eps = b.coalgebra.counit_scalar
    cols = []
    for i in range(b.rank):
        for j in range(b.rank):
            c = action.ring.mul(
                action.ring.mul(eps(b.carrier.basis_vector(i)),
                                eps(b.carrier.basis_vector(j))),
                action.ring.of(scale))
            cols.append(tuple(action.ring.mul(c, x) for x in A.unit))
    return LinearMap.from_columns(tensor_module(b.carrier, b.carrier),
                                  A.carrier, cols)


def shift_action_z3():
    """C₂ 'acting' on Z³ by a 3-cycle: measuring but not a module action."""
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 3)
    shift = LinearMap(a.carrier, a.carrier, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    return action_from_endomorphisms(h, a, [LinearMap.identity(a.carrier), shift])


def test_violates_only_normality():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    sigma = scaled_trivial_sigma(action, 2)
    flags = cocycle_flags(action, sigma)
    assert (flags.normal, flags.cocycle, flags.twisted_module) == (False, True, True)
    unit_ok, assoc_ok = direct_product_checks(action, sigma)
    assert not unit_ok
    assert unit_ok == flags.normal


def test_violates_only_cocycle_condition():
    action = swap_action_data(ZZ)
    b = action.bialgebra
    A = action.algebra
    cols = []
    for i in range(2):
        for j in range(2):
            cols.append(A.carrier.vector((1, -1)) if i == j == 1 else A.unit)
    sigma = LinearMap.from_columns(tensor_module(b.carrier, b.carrier),
                                   A.carrier, cols)
    flags = cocycle_flags(action, sigma)
    assert (flags.normal, flags.cocycle, flags.twisted_module) == (True, False, True)
    unit_ok, assoc_ok = direct_product_checks(action, sigma)
    assert unit_ok and not assoc_ok
    assert assoc_ok == (flags.cocycle and flags.twisted_module)


def test_violates_only_twisted_module():
    action = shift_action_z3()
    from hopfdual.actions import validate_weak_action

    assert validate_weak_action(action).ok
    sigma = scaled_trivial_sigma(action, 1)
    flags = cocycle_flags(action, sigma)
    assert (flags.normal, flags.cocycle, flags.twisted_module) == (True, True, False)
    unit_ok, assoc_ok = direct_product_checks(action, sigma)
    assert unit_ok and not assoc_ok
    assert assoc_ok == (flags.cocycle and flags.twisted_module)


def test_build_requires_normality():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    sigma = scaled_trivial_sigma(action, 2)
    from hopfdual.crossed import CocycleData, CocycleFlags

    fake = CocycleData(action, sigma, sigma, cocycle_flags(action, sigma))
    with pytest.raises(NotUnital):
        build_crossed_product(action, fake)


# --- building crossed products ----------------------------------------------


def test_trivial_crossed_product_is_tensor_algebra():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    cp = smash_product_data(trivial_action(h, a))
    expected = tensor_algebra(a, h.algebra)
    assert cp.product_algebra.mult == expected.mult
    assert cp.product_algebra.unit == expected.unit


def test_gauss_crossed_product_is_gaussian_integers():
    cp = gauss_crossed()
    one_g = kron_vec(ZZ, (1,), (0, 1))  # 1#g
    sq = cp.product_algebra.product(one_g, one_g)
    assert sq == (-1, 0)  # (1#g)² = -(1#e)
    assert cp.product_algebra.validate().ok


def test_swap_smash_is_noncommutative_associative():
    cp = smash_product_data(swap_action_data(ZZ))
    assert cp.product_algebra.validate().ok
    assert not cp.product_algebra.is_commutative()


def test_sweedler_smash_builds_over_Q_and_Z3():
    for ring in (QQ, Zmod(3)):
        cp = smash_product_data(sweedler_module_action(ring))
        assert cp.product_algebra.validate().ok
        assert cp.carrier.rank == 8


def test_zmod6_twisted_product():
    action = trivial_action(group_algebra(Zmod(6), 2), ground_algebra(Zmod(6)))
    sigma = sigma_with_gg(action, 5)
    cp = build_crossed_product(action, validate_cocycle(action, sigma))
    one_g = kron_vec(Zmod(6), (1,), (0, 1))
    assert cp.product_algebra.product(one_g, one_g) == (5, 0)


# --- cleft data ---------------------------------------------------------------


def test_integral_of_trivial_product():
    cp = smash_product_data(trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ)))
    cl = integral_from_crossed(cp)
    assert cl.theta_inv.column(1) == kron_vec(ZZ, (1,), (0, 1))  # θ⁻¹(g) = 1#g
    assert cl.validate().ok


def test_integral_of_gauss_product():
    cp = gauss_crossed()
    cl = integral_from_crossed(cp)
    assert cl.theta_inv.column(1) == tuple(-x for x in kron_vec(ZZ, (1,), (0, 1)))
    assert cl.validate().ok


def test_theta_inverse_matches_convolution_inverse():
    for cp in (gauss_crossed(),
               smash_product_data(swap_action_data(ZZ)),
               smash_product_data(sweedler_module_action(QQ))):
        cl = integral_from_crossed(cp)
        conv = ConvolutionAlgebra(cp.action.bialgebra.coalgebra, cp.product_algebra)
        t = tuple(x for row in cl.theta.matrix for x in row)
        got = convolution_invert(conv, t)
        want = tuple(x for row in cl.theta_inv.matrix for x in row)
        assert got == want


@pytest.mark.parametrize("make", [
    lambda: smash_product_data(trivial_action(group_algebra(ZZ, 2),
                                              ground_algebra(ZZ))),
    gauss_crossed,
    lambda: smash_product_data(swap_action_data(ZZ)),
    lambda: smash_product_data(sweedler_module_action(QQ)),
])
def test_cleft_round_trip_recovers_action_and_cocycle(make):
    cp = make()
    cl = integral_from_crossed(cp)
    ext = crossed_from_integral(cl)
    assert ext.crossed.action.action == cp.action.action
    assert ext.crossed.cocycle.sigma == cp.cocycle.sigma
    assert ext.colinear
    # the iso a#h ↦ ι(a)θ(h) is the identity here
    assert ext.iso.map == LinearMap.identity(cp.carrier)


def test_round_trip_on_trivial_coaction_gives_trivial_data():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    cp = smash_product_data(trivial_action(h, a))
    cl = integral_from_crossed(cp)
    ext = crossed_from_integral(cl)
    triv = trivial_action(h, ext.crossed.action.algebra)
    assert ext.crossed.action.action == triv.action
    assert ext.crossed.cocycle.flags.all_true


# --- opposite crossed product -------------------------------------------------


def test_opposite_of_trivial_is_identity_iso():
    cp = smash_product_data(trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ)))
    res = opposite_crossed(cp)
    assert res.iso.map == LinearMap.identity(cp.carrier)
    assert res.tau.flags.all_true
    assert res.colinear


def test_opposite_of_gauss_has_minus_one_cocycle():
    cp = gauss_crossed()
    res = opposite_crossed(cp)
    assert res.tau.sigma.apply(kron_vec(ZZ, (0, 1), (0, 1))) == (-1,)
    assert res.colinear


def test_opposite_of_sweedler_smash_certifies():
    cp = smash_product_data(sweedler_module_action(QQ))
    res = opposite_crossed(cp)
    assert res.tau.flags.all_true
    assert res.colinear
    assert res.iso.map.domain.rank == 8


# --- cleft compatibility maps -------------------------------------------------


def test_cleft_maps_trivial_collapse():
    cp = smash_product_data(trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ)))
    cl = integral_from_crossed(cp)
    phi, psi = cleft_maps(cl)
    # φ̃(h⊗a)(h̃) = ε(h)ε(h̃)a: every column is the all-ones pattern on A-coords
    b = cp.action.bialgebra
    eps = b.coalgebra.counit_scalar
    for i in range(2):
        for j in range(1):
            col = phi.column(i * 1 + j)
            for t in range(2):
                expected = ZZ.mul(eps(b.carrier.basis_vector(i)),
                                  eps(b.carrier.basis_vector(t)))
                assert col[t] == expected


def test_cleft_maps_counit_collapse_at_unit():
    # evaluating at h̃ = 1_H gives Σ aθ(h₁)θ⁻¹(h₂) = aε(h)1
    cp = gauss_crossed()
    cl = integral_from_crossed(cp)
    phi, _ = cleft_maps(cl)
    b = cp.action.bialgebra
    eps = b.coalgebra.counit_scalar
    rH = b.rank
    for i in range(rH):
        col = phi.column(i)  # a = 1 (rank-one A)
        # h̃ = 1_H is basis index 0
        assert col[0] == eps(b.carrier.basis_vector(i))


def test_cleft_maps_gauss_value():
    # (h,a) = (g,1), h̃ = g: independent expansion gives σ(g⊗g)·... = -1·?
    cp = gauss_crossed()
    cl = integral_from_crossed(cp)
    phi, _ = cleft_maps(cl)
    # φ̃(g⊗1)(g) = Σ θ(S̄(g₂))·1·θ(g₁)·θ⁻¹(S̄(g₁... expand by hand:
    # Δ(h̃)=g⊗g, Δ(h)=g⊗g: θ(S̄(g))θ(g)θ⁻¹(S̄(g)g) = (1#g)(1#g)θ⁻¹(1)
    # = (σ(g⊗g)#1) = -1.
    col = phi.column(1 * 1 + 0)  # h=g, a=1
    assert col[1] == -1  # value at h̃ = g
