"""Crossed products, cocycle flags, cleft round trips, opposite products."""
import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from builders import map_from_columns
from hopfdual import catalog
from hopfdual.actions import (
    WeakActionData,
    action_from_endomorphisms,
    trivial_action,
    validate_weak_action,
)
from hopfdual.catalog import (
    ground_algebra,
    group_algebra,
    product_ring_algebra,
    swap_action_data,
    sweedler_module_action,
    truncated_polynomial_algebra,
)
from hopfdual.crossed import (
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
    twisted_module_identity,
    validate_cocycle,
)
from hopfdual.errors import NotConvInvertible, NotUnital
from hopfdual.hopf import (
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    HopfData,
    convolution_invert,
    matrix_algebra,
    tensor_algebra,
)
from hopfdual.linalg import LinearMap, invert_map, kron, kron_vec, tensor_module
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.smash import hit_action_of_dual
from test_duality import m2_gauge_twisted_Q, rebased_sweedler_Z3, sweedler_coboundary_Q


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
    return map_from_columns(tensor_module(b.carrier, b.carrier),
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
    return map_from_columns(tensor_module(b.carrier, b.carrier),
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
    sigma = map_from_columns(tensor_module(b.carrier, b.carrier),
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
    from hopfdual.crossed import CocycleData

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
        got = convolution_invert(cp.action.bialgebra.coalgebra, cp.product_algebra,
                                 cl.theta)
        assert got == cl.theta_inv


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
    res = opposite_crossed(cp, integral_from_crossed(cp))
    assert res.iso.map == LinearMap.identity(cp.carrier)
    assert res.tau.flags.all_true
    assert res.colinear


def test_opposite_of_gauss_has_minus_one_cocycle():
    cp = gauss_crossed()
    res = opposite_crossed(cp, integral_from_crossed(cp))
    assert res.tau.sigma.apply(kron_vec(ZZ, (0, 1), (0, 1))) == (-1,)
    assert res.colinear


def test_opposite_of_sweedler_smash_certifies():
    cp = smash_product_data(sweedler_module_action(QQ))
    res = opposite_crossed(cp, integral_from_crossed(cp))
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


# --- the index-arithmetic crossed layer against the term-by-term oracles -------


def _catalog_crossed(name):
    cp = catalog.get(name).payload
    return cp.action, cp.cocycle.sigma


def _hit_of_dual(name):
    action = hit_action_of_dual(catalog.get(name).hopf_data())
    return action, trivial_sigma(action)


def _oracle_case(make):
    cp = make()
    return cp.action, cp.cocycle.sigma


def gauss_rebased():
    """The Gaussian twisted product with Z[C₂] in the basis f₀ = e + g,
    f₁ = g: the unit of H is f₀ - f₁, Δ(f₀) = f₀⊗f₀ - f₀⊗f₁ - f₁⊗f₀ + 2f₁⊗f₁
    and ε(f₀) = 2, so the flags read unit, Δ- and ε-coefficients other than 1."""
    h = group_algebra(ZZ, 2)
    H = h.carrier
    P = LinearMap(H, H, [[1, 0], [1, 1]])
    Pi = invert_map(P)
    rebased = HopfData(
        BialgebraData(
            AlgebraData(H, Pi @ h.algebra.mult @ kron(P, P), Pi.apply(h.algebra.unit)),
            CoalgebraData(H, kron(Pi, Pi) @ h.coalgebra.comult @ P,
                          h.coalgebra.counit @ P)),
        Pi @ h.antipode @ P, Pi @ h.twisted_antipode @ P)
    rebased.validate().require()
    action = trivial_action(rebased, ground_algebra(ZZ))
    gauss = sigma_with_gg(trivial_action(h, ground_algebra(ZZ)), -1)
    sigma = LinearMap(gauss.domain, gauss.codomain, (gauss @ kron(P, P)).matrix)
    assert rebased.algebra.unit == (1, -1)
    return action, sigma


def m2_gauge_twisted_C3():
    """Q[C₃] on M₂(Q) gauge-twisted by u(1) = 1, u(g) = U = [[1,1],[0,1]],
    u(g²) = V = [[1,0],[1,1]]: h·a = u(h)·a·u(h)⁻¹, σ(h⊗k) = u(h)u(k)u(hk)⁻¹.
    At (g, g, g) the two factors of each side of the cocycle identity are
    g·σ(g⊗g) = U³V⁻¹U⁻¹ and σ(g⊗g²) = UV, which do not commute."""
    h = group_algebra(QQ, 3)
    A = matrix_algebra(QQ, 2)
    u = [A.unit, A.carrier.vector([1, 1, 0, 1]), A.carrier.vector([1, 0, 1, 1])]
    u_inv = [A.unit, A.carrier.vector([1, -1, 0, 1]), A.carrier.vector([1, 0, -1, 1])]
    assert all(A.product(x, y) == A.unit for x, y in zip(u, u_inv))

    def act(p, a):
        return dense.product_many(A, u[p], A.carrier.basis_vector(a), u_inv[p])

    def sigma_col(p, q):
        return dense.product_many(A, u[p], u[q], u_inv[(p + q) % 3])

    action = WeakActionData(h, A, map_from_columns(
        tensor_module(h.carrier, A.carrier), A.carrier,
        [act(p, a) for p in range(3) for a in range(A.rank)]))
    validate_weak_action(action).require()
    sigma = map_from_columns(tensor_module(h.carrier, h.carrier), A.carrier,
                                   [sigma_col(p, q) for p in range(3) for q in range(3)])
    return action, sigma


def doubling_weak_action():
    """Z[C₂] on Z[y]/(y²) by g·y = 2y with σ = η∘(ε⊗ε): a weak action whose
    twisted-module identity holds at a = 1 and fails only at a = y."""
    h = group_algebra(ZZ, 2)
    a = truncated_polynomial_algebra(ZZ)
    double = LinearMap(a.carrier, a.carrier, [[1, 0], [0, 2]])
    action = action_from_endomorphisms(h, a, [LinearMap.identity(a.carrier), double])
    validate_weak_action(action).require()
    return action, trivial_sigma(action)


# (action, σ): every catalog crossed entry, the hit action of the dual of every
# catalog Hopf algebra with σ = η∘(ε⊗ε), the test-only duality cases with a
# nontrivial σ on a noncommutative A (m2_gauge_twisted_Q), on a
# non-cocommutative H (sweedler_coboundary_Q) and in a rebased basis, and the
# three cases above
CROSSED_CASES = {
    **{name: functools.partial(_catalog_crossed, name)
       for name, kind, _ in catalog.list_entries() if kind == "crossed"},
    **{f"{name}_hit": functools.partial(_hit_of_dual, name)
       for name, kind, _ in catalog.list_entries() if kind == "hopf"},
    "m2_gauge_twisted_Q": functools.partial(_oracle_case, m2_gauge_twisted_Q),
    "sweedler_coboundary_Q": functools.partial(_oracle_case, sweedler_coboundary_Q),
    "sweedler_Z3_rebased": functools.partial(_oracle_case, rebased_sweedler_Z3),
    "gauss_rebased": gauss_rebased,
    "m2_gauge_twisted_C3": m2_gauge_twisted_C3,
    "doubling_weak_action": doubling_weak_action,
}


@functools.cache
def crossed_case(name):
    return CROSSED_CASES[name]()


@pytest.mark.parametrize("name", sorted(CROSSED_CASES))
def test_crossed_layer_matches_the_term_by_term_oracles(name):
    action, sigma = crossed_case(name)
    dense.assert_bit_identical(crossed_table(action, sigma),
                               dense.crossed_table(action, sigma))
    flags = cocycle_flags(action, sigma)
    assert flags == dense.cocycle_flags(action, sigma)
    assert twisted_module_identity(action, sigma) is flags.twisted_module


@pytest.mark.parametrize("name", ["m2_gauge_twisted_Q", "m2_gauge_twisted_C3"])
def test_the_flags_see_a_nontrivial_sigma(name):
    # a normal 2-cocycle on a noncommutative A: the twisted-module identity
    # holds for (action, σ) but not for the same action with σ = η∘(ε⊗ε)
    action, sigma = crossed_case(name)
    assert cocycle_flags(action, sigma).all_true
    assert not twisted_module_identity(action, trivial_sigma(action))
    assert not dense.twisted_module_identity(action, trivial_sigma(action))


def test_rebased_gauss_is_a_crossed_product():
    action, sigma = crossed_case("gauss_rebased")
    cp = build_crossed_product(action, validate_cocycle(action, sigma))
    assert cp.cocycle.flags.all_true


# one σ value changed: (case, column p·rH + q of σ(h_p⊗h_q), new value, flags).
# On the rebased Sweedler case only its Δ-coefficients other than 1 tell the
# flags apart; on gauss σ(g⊗e) and σ(e⊗g) each break one side of normality;
# on sweedler4_smash_Q, σ(g⊗g) = 2 meets a nontrivial action of a
# non-cocommutative H, where the legs h₁ and h₂ of the crossed table differ.
MUTATED_SIGMAS = [
    ("sweedler_Z3_rebased", 2, 1, (False, False, True)),
    ("gauss", 2, 2, (False, False, True)),
    ("gauss", 1, 2, (False, False, True)),
    ("sweedler4_smash_Q", 5, 2, (True, True, False)),
]


@pytest.mark.parametrize("name,column,value,want", MUTATED_SIGMAS)
def test_flags_and_table_of_a_mutated_sigma(name, column, value, want):
    action, sigma = crossed_case(name)
    rows = [list(r) for r in sigma.matrix]
    assert rows[0][column] != value
    rows[0][column] = value
    mutant = LinearMap(sigma.domain, sigma.codomain, rows)
    flags = cocycle_flags(action, mutant)
    assert flags == dense.cocycle_flags(action, mutant)
    assert (flags.normal, flags.cocycle, flags.twisted_module) == want
    dense.assert_bit_identical(crossed_table(action, mutant),
                               dense.crossed_table(action, mutant))


def _mutated(data, m):
    """``m`` with one entry replaced by a drawn ring element."""
    rows = [list(r) for r in m.matrix]
    i = data.draw(st.integers(0, m.codomain.rank - 1))
    j = data.draw(st.integers(0, m.domain.rank - 1))
    rows[i][j] = data.draw(dense.elements(m.ring))
    return LinearMap(m.domain, m.codomain, rows)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_flags_match_the_oracle_and_the_direct_checks(data):
    action, sigma = crossed_case(data.draw(st.sampled_from(sorted(CROSSED_CASES))))
    if data.draw(st.booleans()):
        sigma = _mutated(data, sigma)
    else:
        action = WeakActionData(action.hopf, action.algebra,
                                _mutated(data, action.action))
    flags = cocycle_flags(action, sigma)
    assert flags == dense.cocycle_flags(action, sigma)
    dense.assert_bit_identical(crossed_table(action, sigma),
                               dense.crossed_table(action, sigma))
    # unit ⇔ normality needs a weak action; associativity ⇔ cocycle and
    # twisted module needs a normal σ as well
    unit_ok, assoc_ok = direct_product_checks(action, sigma)
    if validate_weak_action(action).ok:
        assert unit_ok == flags.normal
        if flags.normal:
            assert assoc_ok == (flags.cocycle and flags.twisted_module)
